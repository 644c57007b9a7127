//! Failover chaos suite: a hot standby shadows the parameter server on
//! every backend, the primary is killed mid-run, and the promoted standby
//! must finish training — deterministically on the simulator, and with
//! the fencing/at-most-once invariants holding everywhere. Extends the
//! backend-equivalence guarantee from worker faults (`chaos_faults.rs`)
//! to the server side.

use lc_asgd::core::{EpochFence, PushVerdict};
use lc_asgd::prelude::*;
use lc_asgd::simcluster::{ClusterSim, FaultKind, SimPayload};

fn task() -> (Dataset, Dataset) {
    lc_asgd::data::synth::blobs_split(4, 6, 30, 12, 0.5, 33)
}

fn cfg(algo: Algorithm, workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(algo, workers, Scale::Tiny, 23);
    cfg.epochs = 10;
    cfg.batch_size = 10;
    cfg.lr = lc_asgd::nn::optimizer::LrSchedule::constant(0.1);
    cfg
}

fn build(rng: &mut Rng) -> lc_asgd::nn::Network {
    lc_asgd::nn::mlp::mlp(&[6, 16, 4], false, rng)
}

fn build_bn(rng: &mut Rng) -> lc_asgd::nn::Network {
    lc_asgd::nn::mlp::mlp(&[6, 16, 4], true, rng)
}

fn standby() -> StandbyConfig {
    StandbyConfig { flush_every: 4 }
}

fn opts(plan: &FaultPlan) -> RunOptions {
    RunOptions { fault_plan: Some(plan.clone()), standby: Some(standby()), ..RunOptions::default() }
}

/// The run must reach the target update count through the promotion, the
/// report must account one failover with a bounded lost tail, and the
/// task must still be learned.
fn assert_failed_over(name: &str, r: &RunResult, target: usize, kill_at: u64, baseline_err: f32) {
    assert_eq!(r.iterations as usize, target, "{name}: promoted run must reach the target");
    let rep = r.replication.as_ref().expect("standby runs carry a replication report");
    assert_eq!(rep.failovers, 1, "{name}: exactly one promotion");
    assert_eq!(rep.final_epoch, 1, "{name}: promotion bumps the fencing epoch once");
    assert!(
        rep.lost_updates < standby().flush_every,
        "{name}: the lost tail is bounded by the un-flushed batch, got {}",
        rep.lost_updates
    );
    assert!(
        rep.fenced_reads + rep.fenced_pushes >= 1,
        "{name}: survivors of the old epoch must have been fenced at least once"
    );
    assert!(rep.snapshots >= 2, "{name}: bootstrap plus post-promotion re-arm");
    let faults = r.faults.as_ref().expect("fault plan must produce a report");
    assert!(
        faults.records.iter().any(|rec| matches!(
            rec,
            FaultRecord::FailedOver { at_update, from_epoch: 0, to_epoch: 1, .. }
                if *at_update >= kill_at
        )),
        "{name}: the failover must be recorded at or after the planned kill"
    );
    assert!(
        r.final_test_error() < baseline_err + 0.2,
        "{name}: failover err {} vs fault-free {}",
        r.final_test_error(),
        baseline_err
    );
}

#[test]
fn primary_kill_completes_on_all_three_backends() {
    let (train, test) = task();
    let c = cfg(Algorithm::Asgd, 4);
    let target = c.epochs * train.len().div_ceil(c.batch_size);
    let kill_at = (target / 2) as u64;
    let plan = FaultPlan::new().with_primary_kill(kill_at);
    let baseline = run_cluster(ThreadCluster::new(4), &c, &build, &train, &test)
        .expect("fault-free baseline failed");

    let sim: ClusterSim<SimPayload> =
        ClusterSim::new(c.cluster.clone()).with_fault_plan(plan.clone());
    let runs: Vec<(&str, RunResult)> = vec![
        (
            "sim",
            run_cluster_with(sim, &c, &build, &train, &test, opts(&plan))
                .expect("sim failover run failed"),
        ),
        (
            "threads",
            run_cluster_with(
                ThreadCluster::new(4).with_fault_plan(plan.clone()),
                &c,
                &build,
                &train,
                &test,
                opts(&plan),
            )
            .expect("thread failover run failed"),
        ),
        (
            "tcp",
            run_cluster_with(
                NetCluster::new(4).with_config(NetConfig::fast()).with_fault_plan(plan.clone()),
                &c,
                &build,
                &train,
                &test,
                opts(&plan),
            )
            .expect("tcp failover run failed"),
        ),
    ];
    for (name, r) in &runs {
        assert_failed_over(name, r, target, kill_at, baseline.final_test_error());
    }
}

#[test]
fn lc_asgd_failover_restores_predictors_on_threads() {
    // LC-ASGD exercises the widest promotion surface: the standby must
    // hand back predictor weights, arrival history, and the two-phase
    // State→Grad exchange must survive the epoch bump mid-protocol.
    let (train, test) = task();
    let c = cfg(Algorithm::LcAsgd, 4);
    let target = c.epochs * train.len().div_ceil(c.batch_size);
    let kill_at = (target / 2) as u64;
    let plan = FaultPlan::new().with_primary_kill(kill_at);
    let r = run_cluster_with(
        ThreadCluster::new(4).with_fault_plan(plan.clone()),
        &c,
        &build,
        &train,
        &test,
        RunOptions { supervisor: Some(SupervisorConfig::default()), ..opts(&plan) },
    )
    .expect("LC failover run failed");
    assert_eq!(r.iterations as usize, target);
    let rep = r.replication.as_ref().unwrap();
    assert_eq!(rep.failovers, 1);
    let health = r.health.as_ref().expect("a supervised run carries a health report");
    assert_eq!(health.failovers(), 1, "the supervisor logs the promotion");
    assert_eq!(r.epochs.len(), c.epochs, "all epochs complete through the promotion");
    assert!(r.final_test_error() < 0.35, "err {}", r.final_test_error());
}

#[test]
fn sim_failover_is_bit_reproducible() {
    let (train, test) = task();
    let c = cfg(Algorithm::Asgd, 4);
    let target = c.epochs * train.len().div_ceil(c.batch_size);
    let kill_at = (target / 2) as u64;
    let run = || {
        let plan = FaultPlan::new().with_primary_kill(kill_at);
        let sim: ClusterSim<SimPayload> =
            ClusterSim::new(c.cluster.clone()).with_fault_plan(plan.clone());
        run_cluster_with(sim, &c, &build, &train, &test, opts(&plan))
            .expect("sim failover run failed")
    };
    let a = run();
    let b = run();
    assert_eq!(a.staleness, b.staleness, "identical staleness stream through the failover");
    assert_eq!(
        a.final_test_error(),
        b.final_test_error(),
        "the simulated failover must be bit-reproducible"
    );
    let (ra, rb) = (a.replication.as_ref().unwrap(), b.replication.as_ref().unwrap());
    assert_eq!(ra.lost_updates, rb.lost_updates, "the discarded tail is deterministic");
    assert_eq!(ra.log_records, rb.log_records);
    assert_eq!(
        a.faults.as_ref().unwrap().records,
        b.faults.as_ref().unwrap().records,
        "identical fault records through the failover"
    );
}

/// A run of `model` under `plan`, which kills the primary, with every push
/// flushed (`flush_every` 1) so the kill loses nothing.
fn kill_losing_nothing(
    c: &ExperimentConfig,
    model: fn(&mut Rng) -> lc_asgd::nn::Network,
    plan: FaultPlan,
    shards: usize,
    supervisor: Option<SupervisorConfig>,
) -> RunResult {
    let (train, test) = task();
    let what = format!("kill at {:?}, {shards} shards", plan.primary_kill_at_update);
    let sim: ClusterSim<SimPayload> =
        ClusterSim::new(c.cluster.clone()).with_fault_plan(plan.clone());
    let opts = RunOptions {
        standby: Some(StandbyConfig { flush_every: 1 }),
        supervisor,
        shards,
        ..opts(&plan)
    };
    let r = run_cluster_with(sim, c, &model, &train, &test, opts).expect("sim failover run");
    let rep = r.replication.as_ref().expect("standby runs carry a replication report");
    assert_eq!((rep.failovers, rep.lost_updates, rep.degraded_at), (1, 0, None), "{what}");
    assert_eq!(r.iterations as usize, c.epochs * train.len().div_ceil(c.batch_size), "{what}");
    r
}

/// At a kill that loses nothing the promoted mirror is the primary, bit for
/// bit: weights, shard versions, dedup state and history — and, when no
/// `State` message has moved them since the last refresh, arrival state,
/// `iter`, BN and predictors. The trainer asserts it at the kill in debug
/// builds (`Server::assert_mirrored`), which is how this suite runs. Kills
/// mid-epoch (12 updates per epoch), where only the records can have made
/// the mirror current; and one on an epoch boundary, just after the
/// refresh, of an LC-ASGD model with BN layers — whose statistics LC-ASGD
/// absorbs on the state path, which only the refresh carries.
#[test]
fn a_kill_promotes_the_primarys_exact_state() {
    for algo in [Algorithm::Asgd, Algorithm::LcAsgd] {
        for shards in [1, 3, 4] {
            let plan = FaultPlan::new().with_primary_kill(17);
            kill_losing_nothing(&cfg(algo, 4), build, plan, shards, None);
        }
    }
    let plan = FaultPlan::new().with_primary_kill(24);
    kill_losing_nothing(&cfg(Algorithm::LcAsgd, 4), build_bn, plan, 1, None);
}

/// A supervisor rollback rewinds weights, BN and predictors, which no log
/// record can carry: the primary re-bootstraps its standby after one, so a
/// kill after the rollback still promotes the primary's exact state.
#[test]
fn a_kill_after_a_rollback_promotes_the_restored_state() {
    let c = cfg(Algorithm::Asgd, 4);
    let barrage = (9..=45)
        .fold(FaultPlan::new(), |plan, op| plan.with_event(1, op, FaultKind::CorruptPayload));
    let sup = SupervisorConfig {
        grad_norm_factor: 3.0,
        grad_norm_warmup: 6,
        loss_window: 4,
        explode_factor: 1.4,
        snapshot_every: 6,
        ..SupervisorConfig::default()
    };
    // Where the deterministic schedule rolls back first, found by a run
    // killed at its very end...
    let plan = barrage.clone().with_primary_kill(119);
    let r = kill_losing_nothing(&c, build, plan, 1, Some(sup.clone()));
    let rollback = |r: &RunResult| {
        let h = r.health.as_ref().expect("supervised runs carry a health report");
        h.events.iter().find(|(_, ev)| matches!(ev, HealthEvent::RolledBack { .. })).map(|e| e.0)
    };
    let at = rollback(&r).expect("the barrage must reach the rollback path");
    // ... then killed two updates after it.
    let r = kill_losing_nothing(&c, build, barrage.with_primary_kill(at + 2), 1, Some(sup));
    assert_eq!(rollback(&r), Some(at), "the same schedule up to the kill");
    let rep = r.replication.as_ref().unwrap();
    assert!(rep.snapshots > 1 + 1 + c.epochs as u64, "bootstrap, re-bootstrap, refreshes, re-arm");
}

#[test]
fn epoch_fencing_rejects_stale_pushes_without_double_apply() {
    // Unit-level proof of at-most-once apply across a promotion: the
    // fence admits a push exactly once, rejects its replay as a
    // duplicate, and rejects anything from a dead epoch outright.
    let mut fence = EpochFence::new(2, true);
    assert_eq!(fence.epoch(), 0);
    assert!(fence.admit_read(0));

    let push = 1u64; // worker 0, first push of incarnation 0
    assert!(matches!(fence.check_push(0, 0, push), PushVerdict::Admit));
    fence.commit_push(0, push);
    assert!(
        matches!(fence.check_push(0, 0, push), PushVerdict::Duplicate),
        "an applied push replayed on the same epoch must be deduplicated"
    );

    // The standby applied up to push 1 from worker 0; promote with that
    // dedup state.
    let new_epoch = fence.promote(fence.push_seqs().to_vec());
    assert_eq!(new_epoch, 1);
    assert!(!fence.admit_read(0), "reads carrying the dead epoch are fenced");
    assert!(
        matches!(fence.check_push(0, 0, 2), PushVerdict::StaleEpoch),
        "even a fresh sequence number is rejected when its epoch is dead"
    );
    assert!(
        matches!(fence.check_push(0, 1, push), PushVerdict::Duplicate),
        "a replayed push on the new epoch is still a duplicate — no double apply"
    );
    assert!(matches!(fence.check_push(0, 1, 2), PushVerdict::Admit));
    assert!(
        matches!(fence.check_push(1, 1, u64::from(1u32) << 32 | 1), PushVerdict::Admit),
        "a restarted worker's new incarnation starts a fresh sequence space"
    );
}

#[test]
fn standby_lag_stays_bounded_under_straggle() {
    // A straggling worker stretches the run out; the synchronous flush
    // protocol must still bound the primary-to-standby lag by the batch
    // size, straggler or not.
    let (train, test) = task();
    let c = cfg(Algorithm::Asgd, 4);
    let target = c.epochs * train.len().div_ceil(c.batch_size);
    let plan = FaultPlan::new().with_event(2, 4, FaultKind::Straggle { delay_ms: 25, ops: 100 });
    let sim: ClusterSim<SimPayload> =
        ClusterSim::new(c.cluster.clone()).with_fault_plan(plan.clone());
    let r = run_cluster_with(sim, &c, &build, &train, &test, opts(&plan))
        .expect("straggle standby run failed");
    assert_eq!(r.iterations as usize, target);
    let rep = r.replication.as_ref().unwrap();
    assert_eq!(rep.failovers, 0, "no kill was planned");
    assert_eq!(rep.log_records, target as u64, "every applied push is logged");
    assert!(
        rep.max_lag <= standby().flush_every,
        "lag {} exceeds the flush batch bound {}",
        rep.max_lag,
        standby().flush_every
    );
    assert!(rep.flushes >= rep.log_records / standby().flush_every);
}
