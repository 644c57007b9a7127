//! Cross-crate property-based tests (proptest): invariants that must hold
//! for arbitrary architectures, shapes and schedules.

use lc_asgd::autograd::Graph;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::optimizer::LrSchedule;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::{ClusterSpec, EventQueue};
use lc_asgd::tensor::Tensor;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat-parameter serialization roundtrips for arbitrary MLP shapes.
    #[test]
    fn flat_params_roundtrip(
        hidden in prop::collection::vec(1usize..12, 0..3),
        input in 1usize..6,
        classes in 2usize..5,
        with_bn in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut dims = vec![input];
        dims.extend(hidden);
        dims.push(classes);
        let mut rng = Rng::seed_from_u64(seed);
        let net = mlp(&dims, with_bn, &mut rng);
        let flat = net.flat_params();
        prop_assert_eq!(flat.len(), net.num_params());
        let mut rng2 = Rng::seed_from_u64(seed ^ 1);
        let mut net2 = mlp(&dims, with_bn, &mut rng2);
        net2.set_flat_params(&flat);
        prop_assert_eq!(net2.flat_params(), flat);
    }

    /// The backward seed scales every gradient linearly (the property the
    /// Literal compensation mode relies on).
    #[test]
    fn backward_seed_is_linear(
        seed_val in 0.1f32..3.0,
        rng_seed in any::<u64>(),
    ) {
        let mut rng = Rng::seed_from_u64(rng_seed);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let labels = [0usize, 1, 2, 0];
        let w = Tensor::randn(&[3, 3], 1.0, &mut rng);

        let grad_with = |s: f32| {
            let mut g = Graph::new();
            let xv = g.leaf(x.clone());
            let wv = g.leaf(w.clone());
            let y = g.matmul(xv, wv);
            let l = g.softmax_cross_entropy(y, &labels);
            g.backward_with_seed(l, s);
            g.grad(wv).unwrap().clone()
        };
        let g1 = grad_with(1.0);
        let gs = grad_with(seed_val);
        for (a, b) in g1.data().iter().zip(gs.data()) {
            prop_assert!((a * seed_val - b).abs() <= 1e-4 * (1.0 + a.abs() * seed_val));
        }
    }

    /// Event queues pop in nondecreasing time order for arbitrary inputs.
    #[test]
    fn event_queue_orders_any_schedule(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// LR schedules are nonincreasing in the epoch.
    #[test]
    fn lr_schedule_monotone(
        base in 0.001f32..1.0,
        epochs in 2usize..300,
        m1 in 1usize..100,
        m2 in 1usize..200,
    ) {
        let s = LrSchedule { base, milestones: vec![m1, m1 + m2], factor: 10.0 };
        let mut last = f32::INFINITY;
        for e in 0..epochs {
            let lr = s.at_epoch(e);
            prop_assert!(lr <= last);
            prop_assert!(lr > 0.0);
            last = lr;
        }
    }

    /// Worker compute-time samples are positive and scale with the
    /// nominal cost for any model parameters.
    #[test]
    fn worker_times_positive_and_scaling(
        speed in 0.1f64..4.0,
        sigma in 0.0f64..0.5,
        nominal in 0.001f64..10.0,
        seed in any::<u64>(),
    ) {
        let spec = ClusterSpec {
            workers: vec![lc_asgd::simcluster::WorkerModel {
                speed, jitter_sigma: sigma, straggle_prob: 0.0, straggle_factor: 1.0,
            }],
            link: Default::default(),
            seed,
        };
        let mut rng = Rng::seed_from_u64(seed);
        let t = spec.workers[0].sample_time(nominal, &mut rng);
        prop_assert!(t > 0.0);
        // Lognormal jitter is mean-one: a 6-sigma envelope bound.
        prop_assert!(t < nominal * speed * (sigma * 6.0).exp() + 1e-12);
    }

    /// Synthetic datasets are class-balanced and label-valid for any
    /// geometry.
    #[test]
    fn synthetic_datasets_are_well_formed(
        classes in 2usize..6,
        hw in 4usize..10,
        per_class in 1usize..6,
    ) {
        let spec = SyntheticImageSpec {
            num_classes: classes,
            height: hw,
            width: hw,
            train_per_class: per_class,
            test_per_class: 1,
            ..SyntheticImageSpec::cifar10_like(hw, hw, per_class, 1)
        };
        let (train, test) = spec.generate();
        prop_assert_eq!(train.len(), classes * per_class);
        prop_assert_eq!(test.len(), classes);
        prop_assert!(train.labels.iter().all(|&l| l < classes));
        prop_assert!(train.inputs.is_finite());
    }
}

/// Thread-count invariance: every public tensor op must produce bitwise
/// identical results whether the pool has 1 thread or many. The kernels
/// guarantee this by splitting only *output* rows/images into contiguous
/// bands and keeping each element's accumulation order fixed (DESIGN.md
/// §8); these tests pin the contract using the rayon shim's per-thread
/// override, so they are meaningful even on single-core CI hosts.
mod thread_invariance {
    use lc_asgd::prelude::Rng;
    use lc_asgd::tensor::ops::conv::{conv2d, conv2d_dw, conv2d_dx, Conv2dSpec};
    use lc_asgd::tensor::ops::tune::conv_threads;
    use lc_asgd::tensor::Tensor;

    fn randn(dims: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::seed_from_u64(seed);
        Tensor::randn(dims, 1.0, &mut rng)
    }

    /// Runs `op` at 1, 3 and 8 forced threads and asserts bitwise equality.
    fn pin(what: &str, op: impl Fn() -> Tensor) {
        let serial = rayon::with_num_threads(1, &op);
        for threads in [3, 8] {
            let parallel = rayon::with_num_threads(threads, &op);
            assert_eq!(
                serial.data(),
                parallel.data(),
                "{what} is not bitwise thread-count invariant at {threads} threads"
            );
        }
    }

    #[test]
    fn matmul_variants_are_thread_invariant() {
        // Big enough to take the packed + banded path.
        let a = randn(&[80, 64], 1);
        let b = randn(&[64, 72], 2);
        let at = randn(&[64, 80], 3);
        let bt = randn(&[72, 64], 4);
        pin("matmul", || a.matmul(&b));
        pin("matmul_tn", || at.matmul_tn(&b));
        pin("matmul_nt", || a.matmul_nt(&bt));
    }

    #[test]
    fn conv_kernels_are_thread_invariant() {
        // (n, cin, cout, h·w side): the first stays on the calling thread at
        // any thread count; the second is past `tune::CONV_PAR_MACS` (5
        // images so that 3 and 8 threads band them unevenly), so the
        // banded branch of conv2d / conv2d_dx is what runs.
        for (n, cin, cout, hw) in [(4, 3, 5, 10), (5, 16, 24, 20)] {
            let spec = Conv2dSpec {
                in_channels: cin,
                out_channels: cout,
                kernel: 3,
                stride: 1,
                padding: 1,
            };
            let macs = n * hw * hw * cin * 9 * cout;
            let bands = rayon::with_num_threads(8, || conv_threads(n, macs));
            assert_eq!(bands > 1, n == 5, "shape vs CONV_PAR_MACS");
            let x = randn(&[n, cin, hw, hw], 5);
            let w = randn(&[cout, cin, 3, 3], 6);
            let dy = randn(&[n, cout, hw, hw], 7);
            pin("conv2d", || conv2d(&x, &w, &spec));
            pin("conv2d_dw", || conv2d_dw(&dy, &x, &spec));
            pin("conv2d_dx", || conv2d_dx(&dy, &w, &spec, hw, hw));
        }
    }

    /// The band budget (`tune::band_budget`) is read from the thread that
    /// starts a run and applied on the worker threads: a whole
    /// `ThreadCluster` run — one worker, so its schedule is fixed — trains
    /// to the same bits with one band as with four.
    #[test]
    fn a_training_run_is_thread_invariant_under_the_band_budget() {
        use lc_asgd::prelude::*;
        use lc_asgd::tensor::ops::tune::{band_budget, gemm_threads};
        let (train, test) = lc_asgd::data::synth::blobs_split(5, 128, 16, 8, 1.0, 3);
        let mut cfg = ExperimentConfig::new(Algorithm::Sgd, 1, Scale::Tiny, 23);
        cfg.epochs = 3;
        cfg.batch_size = 16;
        let build = |rng: &mut Rng| lc_asgd::nn::mlp::mlp(&[128, 256, 5], true, rng);
        // The first layer's GEMMs are past the fork thresholds, so the
        // budget decides how they run.
        assert_eq!(rayon::with_num_threads(4, || gemm_threads(16, 256, 128)), 4);
        assert_eq!((band_budget(4, 1), band_budget(1, 1)), (4, 1));
        let run = |threads| {
            let result = rayon::with_num_threads(threads, || {
                run_cluster(ThreadCluster::new(1), &cfg, &build, &train, &test)
            });
            let records = result.expect("the run completes").epochs;
            assert_eq!(records.len(), 3);
            records
                .iter()
                .map(|r| [r.train_loss, r.train_error, r.test_error, r.lr].map(f32::to_bits))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(4));
    }
}

mod extension_properties {
    use lc_asgd::core::comm::Compression;
    use lc_asgd::nn::checkpoint::Checkpoint;
    use lc_asgd::nn::mlp::mlp;
    use lc_asgd::prelude::Rng;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Int8 quantization error is bounded by half a level step.
        #[test]
        fn uniform_quantization_error_bound(
            grads in prop::collection::vec(-100.0f32..100.0, 1..64),
        ) {
            let d = Compression::Int8.compress(&grads, None).decompress();
            let max = grads.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let step = if max > 0.0 { max / 127.0 } else { 1.0 };
            for (a, b) in grads.iter().zip(&d) {
                prop_assert!((a - b).abs() <= step / 2.0 + 1e-4);
            }
        }

        /// Checkpoints round-trip bit-exactly for arbitrary MLPs.
        #[test]
        fn checkpoint_roundtrip(
            hidden in 1usize..12,
            with_bn in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let net = mlp(&[3, hidden, 2], with_bn, &mut rng);
            let ck = Checkpoint::capture(&net);
            let mut buf = Vec::new();
            ck.write_to(&mut buf).unwrap();
            let back = Checkpoint::read_from(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(back, ck);
        }

        /// With error feedback, the total delivered mass over T rounds of
        /// a constant gradient approaches T·g in every coordinate — also
        /// for the entries below half an int8 level, which a push without
        /// feedback quantizes to 0.
        #[test]
        fn error_feedback_is_unbiased_over_time(
            big in 0.5f32..2.0,
            small in prop::collection::vec(-0.49f32..0.49, 3..16),
        ) {
            // `big` sets the scale; every other entry is below half a level.
            let level = big / 127.0;
            let mut g = vec![big];
            g.extend(small.iter().map(|s| s * level));
            let plain = Compression::Int8.compress(&g, None).decompress();
            prop_assert!(plain[1..].iter().all(|&v| v == 0.0), "{:?}", plain);
            let mut residual = vec![0.0; g.len()];
            let rounds = 400;
            let mut delivered = vec![0.0f64; g.len()];
            for _ in 0..rounds {
                let c = Compression::Int8.compress(&g, Some(&mut residual));
                for (d, v) in delivered.iter_mut().zip(c.decompress()) {
                    *d += f64::from(v);
                }
            }
            for (d, gi) in delivered.iter().zip(&g) {
                let expect = f64::from(rounds as f32 * gi);
                // delivered = expect − residual_final, and the residual
                // stays within half a level of the running scale.
                prop_assert!((d - expect).abs() <= f64::from(level),
                    "delivered {} vs {}", d, expect);
            }
        }
    }
}
