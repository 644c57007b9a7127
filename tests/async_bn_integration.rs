//! Async-BN (paper §5.3) across the crate boundary: worker batch
//! statistics → server accumulation (Formulas 6–7) → evaluation-network
//! injection.

use lc_asgd::core::ShardGroup;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::resnet::ResNetConfig;
use lc_asgd::prelude::*;
use lc_asgd::tensor::Tensor;
use lcasgd_autograd::ops::norm::BnBatchStats;

#[test]
fn server_bn_state_reaches_evaluation() {
    // Poisoning the server's BN state must visibly change eval outputs —
    // proving eval really consumes the server statistics, not local ones.
    let mut rng = Rng::seed_from_u64(41);
    let mut net = mlp(&[4, 8, 3], true, &mut rng);
    let x = Tensor::randn(&[6, 4], 1.0, &mut rng);

    let mut g1 = lc_asgd::autograd::Graph::new();
    let (y1, _) = net.forward(&mut g1, x.clone(), false);
    let before = g1.value(y1).clone();

    let mut state = net.bn_state();
    state.means[0] = Tensor::full(&[8], 50.0);
    net.set_bn_state(&state);
    let mut g2 = lc_asgd::autograd::Graph::new();
    let (y2, _) = net.forward(&mut g2, x, false);
    let after = g2.value(y2).clone();
    assert!(!before.allclose(&after, 1e-3), "eval must react to BN state changes");
}

#[test]
fn async_accumulation_converges_to_stationary_stats() {
    // Feeding the same batch statistics repeatedly, the Formula 6–7 EMA
    // must converge to them regardless of the starting state.
    let mut rng = Rng::seed_from_u64(42);
    let net = mlp(&[4, 8, 3], true, &mut rng);
    let mut server = ShardGroup::new(&net, 2, BnMode::Async, 0.2, 1).unwrap();
    let target = BnBatchStats { mean: Tensor::full(&[8], 3.0), var: Tensor::full(&[8], 7.0) };
    let running = net.bn_state();
    for _ in 0..100 {
        server.absorb_bn(&running, std::slice::from_ref(&target));
    }
    for &m in server.bn().means[0].data() {
        assert!((m - 3.0).abs() < 1e-3, "mean {m}");
    }
    for &v in server.bn().vars[0].data() {
        assert!((v - 7.0).abs() < 1e-3, "var {v}");
    }
}

#[test]
fn regular_bn_is_last_writer_wins_async_is_blend() {
    let mut rng = Rng::seed_from_u64(43);
    let net = mlp(&[4, 8, 3], true, &mut rng);

    let mut regular = ShardGroup::new(&net, 2, BnMode::Regular, 0.5, 1).unwrap();
    let mut asyncs = ShardGroup::new(&net, 2, BnMode::Async, 0.5, 1).unwrap();

    // Two workers report very different statistics.
    let mut running_a = net.bn_state();
    running_a.means[0] = Tensor::full(&[8], 10.0);
    let batch_a = vec![BnBatchStats { mean: Tensor::full(&[8], 10.0), var: Tensor::ones(&[8]) }];
    let mut running_b = net.bn_state();
    running_b.means[0] = Tensor::full(&[8], -10.0);
    let batch_b = vec![BnBatchStats { mean: Tensor::full(&[8], -10.0), var: Tensor::ones(&[8]) }];

    for s in [&mut regular, &mut asyncs] {
        s.absorb_bn(&running_a, &batch_a);
        s.absorb_bn(&running_b, &batch_b);
    }
    // Regular: worker B overwrote everything.
    assert_eq!(regular.bn().means[0].data(), &[-10.0; 8]);
    // Async: a blend of both, strictly between the extremes.
    let blended = asyncs.bn().means[0].data()[0];
    assert!(blended > -10.0 && blended < 10.0, "blend {blended}");
}

#[test]
fn bn_modes_produce_different_final_models_at_high_m() {
    let (train, test) = SyntheticImageSpec::cifar10_like(8, 8, 16, 8).generate();
    let resnet = ResNetConfig::tiny(3, 10);
    let build = |rng: &mut Rng| resnet.build(rng);
    let mut errs = Vec::new();
    for bn in [BnMode::Regular, BnMode::Async] {
        let mut cfg = ExperimentConfig::new(Algorithm::LcAsgd, 8, Scale::Tiny, 3);
        cfg.epochs = 6;
        cfg.bn_mode = bn;
        let r = run_experiment(&cfg, &build, &train, &test);
        errs.push(r.epochs.last().unwrap().test_error);
    }
    assert_ne!(errs[0], errs[1], "BN modes must actually change evaluation");
}
