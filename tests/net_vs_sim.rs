//! Backend equivalence: the same LC-ASGD/ASGD protocol driven through all
//! three `ClusterBackend` implementations — the discrete-event simulator,
//! real threads, and loopback TCP — must train to the same loss ballpark,
//! because `core::trainer::run_cluster` is the identical code path in each
//! case. Plus property tests that the wire encodings survive a round trip.

use lc_asgd::core::comm::{CompressedGrad, Compression};
use lc_asgd::core::protocol::{ClusterReq, ClusterResp};
use lc_asgd::data::synth::blobs_split;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::optimizer::LrSchedule;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::{ClusterSim, SimPayload, WireMsg};
use proptest::prelude::*;

fn task() -> (Dataset, Dataset) {
    blobs_split(4, 6, 30, 12, 0.5, 33)
}

fn cfg(algo: Algorithm, workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(algo, workers, Scale::Tiny, 23);
    cfg.epochs = 10;
    cfg.batch_size = 10;
    cfg.lr = LrSchedule::constant(0.1);
    cfg
}

fn build(rng: &mut Rng) -> lc_asgd::nn::Network {
    mlp(&[6, 16, 4], false, rng)
}

#[test]
fn lc_asgd_over_tcp_matches_the_thread_backend() {
    let (train, test) = task();
    let c = cfg(Algorithm::LcAsgd, 4);
    let net =
        run_cluster(NetCluster::new(4).with_config(NetConfig::fast()), &c, &build, &train, &test)
            .expect("loopback TCP run failed");
    let thr =
        run_cluster(ThreadCluster::new(4), &c, &build, &train, &test).expect("thread run failed");

    assert!(net.final_test_error() < 0.3, "tcp err {}", net.final_test_error());
    assert!(thr.final_test_error() < 0.3, "thread err {}", thr.final_test_error());
    assert!(
        (net.final_test_error() - thr.final_test_error()).abs() < 0.25,
        "same protocol, same ballpark: tcp {} vs threads {}",
        net.final_test_error(),
        thr.final_test_error()
    );

    // Only the TCP backend actually moves bytes.
    let t = net.transport.as_ref().expect("backend runs report transport");
    assert!(t.bytes_sent > 0 && t.bytes_received > 0, "tcp must move bytes");
    assert!(t.requests > 0 && t.oneways > 0, "pulls and pushes both flow");
    assert!(t.rtt.count() > 0, "round trips must be measured");
    assert!(t.serialize_seconds > 0.0, "codec time must be accounted");
}

#[test]
fn all_three_backends_drive_the_trainer() {
    let (train, test) = task();
    let c = cfg(Algorithm::Asgd, 4);
    let updates = c.epochs * train.len().div_ceil(c.batch_size);

    let sim_backend: ClusterSim<SimPayload> = ClusterSim::new(c.cluster.clone());
    let runs = [
        ("sim", run_cluster(sim_backend, &c, &build, &train, &test)),
        ("threads", run_cluster(ThreadCluster::new(4), &c, &build, &train, &test)),
        (
            "tcp",
            run_cluster(
                NetCluster::new(4).with_config(NetConfig::fast()),
                &c,
                &build,
                &train,
                &test,
            ),
        ),
    ];
    for (name, run) in runs {
        let r = run.unwrap_or_else(|e| panic!("{name} backend failed: {e}"));
        assert_eq!(r.epochs.len(), c.epochs, "{name}");
        assert_eq!(r.iterations as usize, updates, "{name} must apply exactly the target");
        assert_eq!(r.staleness.len() as u64, r.iterations, "{name}");
        assert!(r.final_test_error() < 0.3, "{name} err {}", r.final_test_error());
        assert!(r.transport.is_some(), "{name} must report transport stats");
    }
}

#[test]
fn compression_shrinks_tcp_bytes() {
    let (train, test) = task();
    let mut plain = cfg(Algorithm::Asgd, 2);
    plain.epochs = 2;
    let mut lossy = plain.clone();
    lossy.compression = Compression::TopK { k_frac: 0.1 };

    let fat = run_cluster(
        NetCluster::new(2).with_config(NetConfig::fast()),
        &plain,
        &build,
        &train,
        &test,
    )
    .unwrap();
    let thin = run_cluster(
        NetCluster::new(2).with_config(NetConfig::fast()),
        &lossy,
        &build,
        &train,
        &test,
    )
    .unwrap();
    let fat_bytes = fat.transport.unwrap().bytes_sent;
    let thin_bytes = thin.transport.unwrap().bytes_sent;
    assert!(
        thin_bytes < fat_bytes,
        "top-k gradients must shrink the uplink: {thin_bytes} vs {fat_bytes}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every compression scheme's output survives the wire bit-exactly.
    #[test]
    fn compressed_grads_survive_the_wire(
        grads in prop::collection::vec(-10.0f32..10.0, 1..64),
        pick in 0u8..3,
        k_pct in 1u32..100,
        bits in 2u8..8,
    ) {
        let scheme = match pick {
            0 => Compression::None,
            1 => Compression::TopK { k_frac: k_pct as f32 / 100.0 },
            _ => Compression::Uniform { bits },
        };
        let sent = scheme.compress(&grads, None);
        let got = CompressedGrad::decoded(&sent.encoded()).unwrap();
        prop_assert_eq!(got.decompress(), sent.decompress());
    }

    /// The protocol's gradient push roundtrips with any payload.
    #[test]
    fn grad_messages_survive_the_wire(
        grads in prop::collection::vec(-5.0f32..5.0, 1..48),
        pull_version in any::<u64>(),
        loss in 0.0f32..20.0,
        epoch in any::<u64>(),
        push_seq in any::<u64>(),
        shard in any::<u32>(),
    ) {
        let msg = ClusterReq::Grad {
            grads: CompressedGrad::Dense(grads.clone()),
            pull_version,
            loss,
            batch_stats: Vec::new(),
            running: Default::default(),
            epoch,
            push_seq,
            shard,
        };
        match ClusterReq::decoded(&msg.encoded()).unwrap() {
            ClusterReq::Grad {
                grads: g, pull_version: v, loss: l, epoch: e, push_seq: s, shard: sh, ..
            } => {
                prop_assert_eq!(g.decompress(), grads);
                prop_assert_eq!(v, pull_version);
                prop_assert_eq!(l, loss);
                prop_assert_eq!(e, epoch);
                prop_assert_eq!(s, push_seq);
                prop_assert_eq!(sh, shard);
            }
            _ => prop_assert!(false, "variant changed across the wire"),
        }
    }

    /// The weights reply roundtrips with any payload.
    #[test]
    fn weight_replies_survive_the_wire(
        flat in prop::collection::vec(-3.0f32..3.0, 0..64),
        version in any::<u64>(),
        epoch in any::<u64>(),
    ) {
        let msg = ClusterResp::Weights { flat: flat.clone().into(), version, directive: None, epoch };
        match ClusterResp::decoded(&msg.encoded()).unwrap() {
            ClusterResp::Weights { flat: f, version: v, directive: None, epoch: e } => {
                prop_assert_eq!(&*f, &flat);
                prop_assert_eq!(v, version);
                prop_assert_eq!(e, epoch);
            }
            _ => prop_assert!(false, "variant changed across the wire"),
        }
    }
}
