//! Ablation: entropic stabilizer vs plain BGK collision at marginal
//! resolution.
//!
//! The paper's data generator is the *essentially entropic* LBM precisely
//! because plain BGK loses stability when the grid underresolves the flow
//! (τ → 1/2). Both operators relax toward the same product-form
//! equilibrium and differ only in α: 2 for BGK, the H-theorem root for the
//! entropic model. This ablation pushes both to the same underresolved,
//! high-Reynolds configuration and records how long each stays finite —
//! the design justification for `ft-lbm`'s α-solver.

use ft_bench::{csv, emit_labeled, Scale};
use ft_lbm::{vorticity, Collision, IcSpec, Lbm, LbmConfig};

fn main() {
    let _obs = ft_bench::obs_scope("ablation_entropic");
    let scale = Scale::from_env();
    let n = if scale == Scale::Fast { 32 } else { 64 };
    // Marginal configuration: high Re on a coarse grid, aggressive Mach.
    let reynolds = if scale == Scale::Fast { 2e4 } else { 1e5 };
    let u0 = 0.1;
    let nu = u0 * n as f64 / reynolds;
    let steps_per_probe = n; // one probe every n steps
    let probes = 60;

    let mut w = csv(
        "ablation_entropic.csv",
        &["collision", "t_steps", "enstrophy", "max_abs_vorticity", "finite"],
    );

    for (label, collision) in [("bgk", Collision::Bgk), ("entropic", Collision::Entropic)] {
        let cfg = LbmConfig { n, nu, u0, collision };
        let mut lbm = Lbm::new(cfg);
        let (ux, uy) = IcSpec { k_min: 2, k_max: n / 4 }.generate(n, u0, 3);
        lbm.set_velocity(&ux, &uy);

        let mut survived = 0usize;
        for p in 1..=probes {
            lbm.run(steps_per_probe);
            let (vx, vy) = lbm.velocity();
            let wz = vorticity(&vx, &vy);
            let finite = vx.all_finite() && vy.all_finite();
            let enstrophy = if finite { wz.dot(&wz) } else { f64::NAN };
            let wmax = if finite { wz.max().abs().max(wz.min().abs()) } else { f64::NAN };
            emit_labeled(
                &mut w,
                label,
                &[
                    (p * steps_per_probe) as f64,
                    enstrophy,
                    wmax,
                    if finite { 1.0 } else { 0.0 },
                ],
            );
            if !finite {
                break;
            }
            survived = p;
        }
        eprintln!("# {label}: survived {survived}/{probes} probes at Re={reynolds:.0}, n={n}");
    }
    w.flush().unwrap();
    eprintln!("# expectation: entropic survives all {probes} probes with bounded vorticity");
    eprintln!("# extrema; BGK loses finiteness first");
}
