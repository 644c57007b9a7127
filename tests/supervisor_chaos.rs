//! Chaos suite for the self-healing training supervisor: one combined
//! storm — a NaN burst, a sustained valid-CRC corrupt-payload barrage,
//! and a sustained straggler — driven through all three backends. The
//! supervised run must complete with a finite loss while the same storm
//! without a supervisor diverges, and the health report must show the
//! quarantine → demotion ladder (LC-ASGD → DC-ASGD → ASGD) doing its
//! job. On the discrete-event simulator the transition sequence must be
//! bit-reproducible for a fixed seed.

use lc_asgd::core::config::DataPartition;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::{ClusterSim, SimPayload};
use proptest::prelude::*;

fn task() -> (Dataset, Dataset) {
    lc_asgd::data::synth::blobs_split(4, 6, 30, 12, 0.5, 33)
}

fn cfg(algo: Algorithm, workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(algo, workers, Scale::Tiny, 23);
    cfg.epochs = 10;
    cfg.batch_size = 10;
    // Partitioned data gives the straggler reshard something real to
    // move: donated indices leave one worker's shard for another's.
    cfg.partition = DataPartition::Partitioned;
    cfg.lr = lc_asgd::nn::optimizer::LrSchedule::constant(0.1);
    cfg
}

fn build(rng: &mut Rng) -> lc_asgd::nn::Network {
    lc_asgd::nn::mlp::mlp(&[6, 16, 4], false, rng)
}

/// The combined storm: two NaN bursts on worker 0 separated by more than
/// the quarantine (the second must land after release to earn the second
/// demotion), a dense corrupt-payload barrage on worker 1 (valid CRC,
/// garbage values — only the semantic sentinels can catch it), and a
/// sustained straggler on worker 2.
///
/// Op placement: an LC worker's cycle is Pull=0 / State=1 / Grad=2 (mod
/// 3), so op 2 is the first gradient push. After its demotion the worker
/// runs a 2-op Pull/Grad cycle, so a burst on two consecutive ops is
/// guaranteed to cover exactly one gradient push regardless of parity.
///
/// `straggle_ms` must dominate the backend's per-op cost for the
/// straggler score to trip, and stay small enough that the straggler
/// arrives `straggler_min_arrivals` times before the run is over: the
/// simulator's virtual compute step is ~32ms (so 60ms there); a real
/// backend serves an op in ~0.1ms and the whole run in ~40ms (so 3ms
/// there — three-op iterations, four or so arrivals).
fn storm_plan(straggle_ms: u32) -> FaultPlan {
    let mut plan = FaultPlan::new()
        .with_event(0, 2, FaultKind::NanGrad)
        .with_event(0, 40, FaultKind::NanGrad)
        .with_event(0, 41, FaultKind::NanGrad)
        .with_event(2, 4, FaultKind::Straggle { delay_ms: straggle_ms, ops: 200 });
    for op in 9..=45 {
        plan = plan.with_event(1, op, FaultKind::CorruptPayload);
    }
    plan
}

/// Supervisor tuned for the storm run: instant demotions, short
/// quarantines, an armed loss-explosion detector, and an effectively
/// disabled predictor watchdog (its demerits depend on wall-measured
/// timings and would jitter the transition sequence).
fn storm_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        grad_norm_factor: 3.0,
        grad_norm_warmup: 6,
        quarantine_strikes: 2,
        quarantine_arrivals: 8,
        loss_window: 4,
        explode_factor: 1.4,
        snapshot_every: 6,
        max_rollbacks: 4,
        demote_after: 1,
        promote_after: 10_000,
        pred_err_ratio: 1e6,
        straggler_factor: 2.0,
        straggler_min_arrivals: 2,
        ..SupervisorConfig::default()
    }
}

fn opts(plan: &FaultPlan, sup: Option<SupervisorConfig>) -> RunOptions {
    RunOptions { fault_plan: Some(plan.clone()), supervisor: sup, ..RunOptions::default() }
}

fn run_sim(c: &ExperimentConfig, sup: Option<SupervisorConfig>) -> RunResult {
    let (train, test) = task();
    let plan = storm_plan(60);
    let sim: ClusterSim<SimPayload> =
        ClusterSim::new(c.cluster.clone()).with_fault_plan(plan.clone());
    run_cluster_with(sim, c, &build, &train, &test, opts(&plan, sup)).expect("sim storm run failed")
}

fn final_loss(r: &RunResult) -> f32 {
    r.epochs.last().expect("run produced epochs").train_loss
}

fn demotions(h: &HealthReport) -> Vec<(usize, AlgoMode, AlgoMode)> {
    h.events
        .iter()
        .filter_map(|(_, e)| match e {
            HealthEvent::Demoted { worker, from, to } => Some((*worker, *from, *to)),
            _ => None,
        })
        .collect()
}

/// The core storm assertions shared by every backend.
fn assert_storm_handled(name: &str, r: &RunResult) {
    let h = r.health.as_ref().expect("supervised runs carry a health report");
    assert!(
        final_loss(r).is_finite(),
        "{name}: the supervised run must keep the loss finite, got {}",
        final_loss(r)
    );
    assert!(h.quarantines() >= 1, "{name}: the NaN burst must trigger a quarantine");
    let d = demotions(h);
    assert!(
        d.contains(&(0, AlgoMode::Lc, AlgoMode::Dc)),
        "{name}: worker 0's first NaN must demote LC→DC, got {d:?}"
    );
    assert!(
        d.contains(&(0, AlgoMode::Dc, AlgoMode::Asgd)),
        "{name}: worker 0's second NaN burst must demote DC→ASGD, got {d:?}"
    );
    assert!(h.reshards() >= 1, "{name}: the sustained straggler must donate part of its shard");
}

#[test]
fn the_supervised_storm_survives_on_the_simulator_and_rolls_back() {
    let c = cfg(Algorithm::LcAsgd, 4);
    let r = run_sim(&c, Some(storm_supervisor()));
    assert_storm_handled("sim", &r);
    let h = r.health.as_ref().unwrap();
    assert!(
        h.rollbacks() >= 1,
        "the corrupt-payload ascent must explode the loss window and roll back; events:\n{}",
        h.to_text()
    );
    assert!(h.quarantine_drops > 0, "quarantined pushes must be dropped, not applied");
}

/// ROADMAP item 1's hang, where it is deterministic: one NaN push from
/// each of the four workers inside one quarantine length. With all of them
/// held out no update applies, so a quarantine that waits for applied
/// updates waits forever, and the run with it (this test never returned
/// before quarantines were counted in arrivals).
#[test]
fn quarantining_every_worker_at_once_does_not_stop_the_run() {
    let (train, test) = task();
    let c = cfg(Algorithm::Asgd, 4);
    // An ASGD worker's cycle is Pull=0 / Grad=1 (mod 2): op 5 is every
    // worker's third push.
    let plan = (0..4).fold(FaultPlan::new(), |p, w| p.with_event(w, 5, FaultKind::NanGrad));
    let sup = SupervisorConfig {
        quarantine_arrivals: 40,
        grad_norm_factor: 1e9,
        explode_factor: 1e9,
        ..SupervisorConfig::default()
    };
    let sim: ClusterSim<SimPayload> =
        ClusterSim::new(c.cluster.clone()).with_fault_plan(plan.clone());
    let r = run_cluster_with(sim, &c, &build, &train, &test, opts(&plan, Some(sup)))
        .expect("the run must finish");
    let h = r.health.as_ref().expect("supervised runs carry a health report");
    assert_eq!(h.quarantines(), 4, "all four workers were quarantined:\n{}", h.to_text());
    let release = |e: &HealthEvent| matches!(e, HealthEvent::Released { .. });
    let (first, last) = (
        h.events.iter().position(|(_, e)| release(e)).expect("someone is released"),
        h.events.iter().rposition(|(_, e)| matches!(e, HealthEvent::Quarantined { .. })).unwrap(),
    );
    assert!(last < first, "all four were in quarantine together:\n{}", h.to_text());
    assert_eq!(r.epochs.len(), c.epochs, "and the run went on to its last epoch");
    assert!(final_loss(&r).is_finite());
}

#[test]
fn the_same_storm_without_a_supervisor_diverges() {
    let c = cfg(Algorithm::LcAsgd, 4);
    let supervised = run_sim(&c, Some(storm_supervisor()));
    let unsupervised = run_sim(&c, None);
    assert!(unsupervised.health.is_none());
    let (s, u) = (final_loss(&supervised), final_loss(&unsupervised));
    assert!(s.is_finite(), "supervised loss must stay finite, got {s}");
    assert!(
        !u.is_finite() || s < u,
        "the unsupervised storm must end worse (supervised {s}, unsupervised {u})"
    );
}

#[test]
fn sim_transition_sequences_are_bit_reproducible() {
    // Count-driven supervisor only: the norm sentinel and the explosion
    // detector react to gradient/loss *values*, which on LC runs carry
    // wall-measured timing through the compensation path. NaN sentinels,
    // quarantines, demotions, and straggler scoring are driven purely by
    // message ordering, which the discrete-event simulator fixes.
    let sup = SupervisorConfig { grad_norm_factor: 1e9, explode_factor: 1e9, ..storm_supervisor() };
    let c = cfg(Algorithm::LcAsgd, 4);
    let a = run_sim(&c, Some(sup.clone()));
    let b = run_sim(&c, Some(sup));
    let (ha, hb) = (a.health.as_ref().unwrap(), b.health.as_ref().unwrap());
    assert!(!ha.events.is_empty(), "the storm must produce health events");
    assert_eq!(
        ha.events, hb.events,
        "the same seed must produce the identical transition sequence"
    );
    assert_eq!(ha.quarantine_drops, hb.quarantine_drops);
}

#[test]
fn the_storm_completes_on_the_thread_cluster() {
    let (train, test) = task();
    let c = cfg(Algorithm::LcAsgd, 4);
    let plan = storm_plan(3);
    let r = run_cluster_with(
        ThreadCluster::new(4).with_fault_plan(plan.clone()),
        &c,
        &build,
        &train,
        &test,
        opts(&plan, Some(storm_supervisor())),
    )
    .expect("thread storm run failed");
    assert_storm_handled("threads", &r);
}

#[test]
fn the_storm_completes_on_the_tcp_cluster() {
    let (train, test) = task();
    let c = cfg(Algorithm::LcAsgd, 4);
    let plan = storm_plan(3);
    let r = run_cluster_with(
        NetCluster::new(4).with_config(NetConfig::fast()).with_fault_plan(plan.clone()),
        &c,
        &build,
        &train,
        &test,
        opts(&plan, Some(storm_supervisor())),
    )
    .expect("tcp storm run failed");
    assert_storm_handled("tcp", &r);
}

// ------------------------------------------------------- admission bound

fn bounded_supervisor(bound: u32) -> SupervisorConfig {
    SupervisorConfig { staleness_bound: Some(bound), ..SupervisorConfig::default() }
}

fn assert_bound_held(r: &RunResult, bound: u32) {
    assert!(
        r.staleness.iter().all(|&s| s <= bound),
        "an applied update exceeded the staleness bound {bound}: {:?}",
        r.staleness.iter().filter(|&&s| s > bound).collect::<Vec<_>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under the reject policy, no applied update's staleness may exceed
    /// the bound — for any generated fault plan, on the simulator.
    #[test]
    fn reject_policy_bounds_staleness_on_the_simulator(
        seed in any::<u64>(),
        bound in 1u32..4,
    ) {
        let (train, test) = task();
        let c = cfg(Algorithm::Asgd, 4);
        let plan = FaultPlan::generate(seed, 4, 40, 5);
        let sim: ClusterSim<SimPayload> =
            ClusterSim::new(c.cluster.clone()).with_fault_plan(plan.clone());
        let r = run_cluster_with(
            sim, &c, &build, &train, &test, opts(&plan, Some(bounded_supervisor(bound))),
        ).expect("sim bounded run failed");
        assert_bound_held(&r, bound);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same invariant on the real-thread backend, whose arrival
    /// order is scheduler-driven rather than simulated.
    #[test]
    fn reject_policy_bounds_staleness_on_the_thread_cluster(
        seed in any::<u64>(),
        bound in 1u32..4,
    ) {
        let (train, test) = task();
        let c = cfg(Algorithm::Asgd, 4);
        let plan = FaultPlan::generate(seed, 4, 40, 5);
        let r = run_cluster_with(
            ThreadCluster::new(4).with_fault_plan(plan.clone()),
            &c, &build, &train, &test, opts(&plan, Some(bounded_supervisor(bound))),
        ).expect("thread bounded run failed");
        assert_bound_held(&r, bound);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// And over real TCP, where reconnects and timeouts stretch staleness
    /// the furthest.
    #[test]
    fn reject_policy_bounds_staleness_on_the_tcp_cluster(
        seed in any::<u64>(),
        bound in 1u32..4,
    ) {
        let (train, test) = task();
        let c = cfg(Algorithm::Asgd, 4);
        let plan = FaultPlan::generate(seed, 4, 40, 5);
        let r = run_cluster_with(
            NetCluster::new(4).with_config(NetConfig::fast()).with_fault_plan(plan.clone()),
            &c, &build, &train, &test, opts(&plan, Some(bounded_supervisor(bound))),
        ).expect("tcp bounded run failed");
        assert_bound_held(&r, bound);
    }
}
