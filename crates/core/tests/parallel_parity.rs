//! Bit-determinism of the data-parallel training hot path: sharding a
//! mini-batch across any number of worker replicas must produce per-sample
//! losses and gradients — and the tree-reduced batch gradient — that are
//! bit-for-bit identical to the single-worker reference. This is the
//! property that lets `--threads N` change throughput without perturbing a
//! single bit of the training trajectory (the FTC1 resume-parity contract;
//! DESIGN.md §13).

use std::f64::consts::PI;

use ft_data::Pair;
use ft_nn::{save_param_values_to, snapshot_params, ParamValue};
use ft_tensor::Tensor;
use fno_core::{
    sharded_batch_grads, tree_reduce_grads, Fno, FnoConfig, FnoKind, ForecastModel, LossKind,
};
use proptest::prelude::*;

fn shift_pairs(n_pairs: usize, c: usize, n: usize) -> Vec<Pair> {
    (0..n_pairs)
        .map(|p| {
            let phase = p as f64 * 0.61;
            let mk = |shift: usize| {
                Tensor::from_fn(&[c, n, n], |i| {
                    let x = 2.0 * PI * ((i[2] + shift) % n) as f64 / n as f64;
                    let y = 2.0 * PI * i[1] as f64 / n as f64;
                    (x + phase + i[0] as f64 * 0.2).sin() + 0.4 * (y + phase).cos()
                })
            };
            Pair { input: mk(0), target: mk(1) }
        })
        .collect()
}

fn tiny_cfg() -> FnoConfig {
    FnoConfig {
        kind: FnoKind::TwoDChannels,
        width: 4,
        layers: 2,
        modes: 3,
        in_channels: 2,
        out_channels: 2,
        lifting_channels: 6,
        projection_channels: 6,
        norm: false,
    }
}

/// Canonical byte form of a gradient snapshot, for exact comparison.
fn grad_bytes(grads: &[ParamValue]) -> Vec<u8> {
    let mut buf = Vec::new();
    save_param_values_to(grads, &mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Per-sample shard results are a pure function of the batch: any
    /// worker count (1 through 4, including counts above the batch size)
    /// reproduces the single-worker reference bit-for-bit.
    #[test]
    fn sharded_grads_bitwise_invariant_to_worker_count(
        batch in 1usize..5,
        workers in 2usize..5,
        seed in 0u64..40,
        div_weight in 0usize..2,
    ) {
        let pairs = shift_pairs(batch, 2, 8);
        let chunk: Vec<usize> = (0..batch).collect();
        let mut model = Fno::new(tiny_cfg(), seed);
        let snap = snapshot_params(&mut model);
        let dw = if div_weight == 1 { 0.05 } else { 0.0 };

        let run = |k: usize| {
            let mut reps: Vec<Box<dyn ForecastModel + Send>> =
                (0..k).map(|_| model.replicate().expect("Fno replicates")).collect();
            sharded_batch_grads(
                &mut reps, &snap, &pairs, &chunk, FnoKind::TwoDChannels,
                LossKind::RelativeL2, dw,
            )
        };

        let reference = run(1);
        let parallel = run(workers);
        prop_assert_eq!(reference.len(), parallel.len());
        for (i, ((la, ga), (lb, gb))) in reference.iter().zip(&parallel).enumerate() {
            prop_assert_eq!(la.to_bits(), lb.to_bits(), "loss of sample {} diverged", i);
            let (ga, gb) = (ga.as_ref().unwrap(), gb.as_ref().unwrap());
            prop_assert_eq!(grad_bytes(ga), grad_bytes(gb), "gradients of sample {} diverged", i);
        }

        // The fixed index-ordered tree then gives one batch gradient,
        // identical no matter which worker computed which shard.
        let ra = tree_reduce_grads(reference.into_iter().map(|(_, g)| g.unwrap()).collect());
        let rb = tree_reduce_grads(parallel.into_iter().map(|(_, g)| g.unwrap()).collect());
        prop_assert_eq!(grad_bytes(&ra.unwrap()), grad_bytes(&rb.unwrap()));
    }

    /// The index-ordered per-sample loss sum divided by the batch size is
    /// bitwise the relative-L2 loss of the whole batch in one forward, so
    /// the sharded trainer reports the batch loss itself.
    #[test]
    fn per_sample_loss_sum_matches_batch_loss(batch in 1usize..5, seed in 0u64..40) {
        let pairs = shift_pairs(batch, 2, 8);
        let chunk: Vec<usize> = (0..batch).collect();
        let mut model = Fno::new(tiny_cfg(), seed);
        let snap = snapshot_params(&mut model);

        let mut reps: Vec<Box<dyn ForecastModel + Send>> =
            vec![model.replicate().expect("Fno replicates")];
        let per_sample = sharded_batch_grads(
            &mut reps, &snap, &pairs, &chunk, FnoKind::TwoDChannels,
            LossKind::RelativeL2, 0.0,
        );
        let mut sum = 0.0;
        for (l, _) in &per_sample {
            sum += *l;
        }
        let sharded_loss = sum / batch as f64;

        let (x, y) = fno_core::batch_of(&pairs, &chunk, FnoKind::TwoDChannels);
        use ft_nn::Layer;
        let pred = model.forward(&x);
        let (batch_loss, _) = ft_nn::RelativeL2::value_and_grad(&pred, &y);
        prop_assert_eq!(sharded_loss.to_bits(), batch_loss.to_bits());
    }
}
