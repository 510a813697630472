//! Table I reproduction: every parameter count must match the paper to the
//! digit, both through the closed-form formula and (for the smaller rows)
//! by actually constructing the model and counting its parameters.

use fno2d_turbulence::fno::{Fno, FnoConfig};
use fno2d_turbulence::nn::Layer;

#[test]
fn all_twelve_rows_match_the_paper_exactly() {
    let expected = [
        6_995_922usize,
        288_562,
        6_994_637,
        287_277,
        6_993_609,
        286_249,
        222_850_505,
        29_519_305,
        23_974_565,
        8_918_313,
        4_459_685,
        7_673_417,
    ];
    let rows = FnoConfig::table1();
    assert_eq!(rows.len(), 12);
    for ((label, cfg, listed), want) in rows.iter().zip(expected) {
        assert_eq!(*listed, want, "{label}: table constant drifted");
        assert_eq!(cfg.param_count(), want, "{label}: formula mismatch");
    }
}

#[test]
fn constructed_models_agree_with_the_formula() {
    // Structural check on the small 2D rows (the big 3D rows would allocate
    // hundreds of MB of weights for no additional coverage).
    for (label, cfg, expected) in FnoConfig::table1() {
        if expected < 1_000_000 {
            let model = Fno::new(cfg, 0);
            assert_eq!(model.param_count(), expected, "{label}");
        }
    }
}

#[test]
fn visit_params_covers_every_parameter() {
    // The optimizer sees parameters through visit_params; its total real
    // degrees of freedom must account for every parameter (complex = 2).
    let cfg = FnoConfig::fno2d(8, 4, 32, 10);
    let mut model = Fno::new(cfg.clone(), 0);
    let mut real_dof = 0usize;
    let mut complex_entries = 0usize;
    model.visit_params(&mut |p| {
        real_dof += p.real_dof();
        if let fno2d_turbulence::nn::ParamMut::Complex(p) = p {
            complex_entries += p.len();
        }
    });
    // param_count counts complex entries once; real_dof counts them twice.
    assert_eq!(real_dof, cfg.param_count() + complex_entries);
    assert_eq!(complex_entries, 2 * 8 * 8 * 32 * 17 * 4, "spectral weights");
}
