//! Engine golden suite: pins the *schedule* `run_cluster_with` produces on
//! the deterministic simulator — which message is served when, what is
//! applied, dropped, fenced, replicated, rolled back — for every algorithm
//! and every robustness option, as CRC-32 constants.
//!
//! The constants were produced by running this same file at the parent of
//! the PR that split `run_cluster_with` into a `Server` state machine and a
//! `worker_loop` (DESIGN.md, "Engine structure"), so a refactor of the
//! engine that reorders one side effect, drops one message or draws one
//! extra random number fails here. The six streams are numerics-
//! independent; LC-ASGD's runs also pin every epoch's `train_loss` bits,
//! because its step predictor reads the worker's virtual clock on the
//! simulator and its floats are as reproducible as its schedule. Update a
//! constant only for a deliberate protocol change, and say so.
//!
//! One such change since: a quarantine is counted in arrivals seen by
//! `Supervisor::admit`, not in applied updates, and its event carries
//! `until_arrival`. The two runs that quarantine a worker (the NaN storm
//! and the LC ladder) release it at a different push than before, so their
//! staleness, clock, transport and health constants were taken again at
//! that commit; their fault streams and every other run are the originals.
//!
//! And more, when the simulator took its costs from the run's cost model
//! (DESIGN.md §13.3) and every message of a worker started to reach the
//! server in the order it was sent. Re-taken then, with the cause of each:
//!
//! * FIFO uplinks. The simulator sampled each message's uplink on its own,
//!   so the pull a worker sends right after its one-way gradient push
//!   could reach the server first and read weights without that gradient;
//!   channels and TCP streams never reorder one sender's messages, and the
//!   simulator no longer does either. This moves the staleness and clock
//!   streams of every run but SSGD's (whose barrier orders push before
//!   pull) and both promotion prints; the transport stream of every run
//!   whose drain after the last update changed its message count (all but
//!   SSGD, the LC-ASGD run at M = 4, the LC ladder and the resumed half);
//!   the health stream of the three supervised runs, whose events follow
//!   the arrivals; and the ASGD primary kill's replication stream. SGD is
//!   ASGD with one worker on the cluster engine, and now never stale, as
//!   sequential SGD is.
//! * The clock stream of every run but SSGD's: an epoch's record carries
//!   the virtual time the push that closed it was picked up, not the
//!   simulator's high-water mark, which ran ahead to the end of every
//!   compute phase already scheduled (at SSGD's barrier the two coincide).
//! * The LC-ASGD runs' schedules and losses: a worker declares its forward
//!   (10 ms) and backward (22 ms) phases, where each of an LC iteration's
//!   two replies used to start a whole 32 ms iteration, and the server is
//!   charged the predictors' 2.7 ms per state message.
//! * The 4-shard ASGD run and the ASGD primary kill: a message a worker
//!   sends right after a reply without computing — a follower-shard pull,
//!   a pull retried after a fenced reply — used to be charged a whole
//!   iteration's compute and is charged nothing now.
//!
//! Every fault stream is unchanged, as are SSGD's six and the LC runs'
//! replication streams.

use lc_asgd::prelude::*;
use lc_asgd::simcluster::codec::crc32;
use lc_asgd::simcluster::{ClusterSim, SimPayload};
use std::fmt::Write;

fn task() -> (Dataset, Dataset) {
    lc_asgd::data::synth::blobs_split(4, 6, 30, 12, 0.5, 37)
}

/// `ExperimentConfig::new` draws `ClusterSpec::heterogeneous(workers, seed)`.
fn cfg(algo: Algorithm, workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(algo, workers, Scale::Tiny, 29);
    cfg.epochs = 6;
    cfg.batch_size = 10;
    cfg.lr = lc_asgd::nn::optimizer::LrSchedule::constant(0.1);
    cfg
}

fn build(rng: &mut Rng) -> lc_asgd::nn::Network {
    lc_asgd::nn::mlp::mlp(&[6, 16, 4], false, rng)
}

fn run(c: &ExperimentConfig, plan: Option<&FaultPlan>, opts: RunOptions) -> RunResult {
    let (train, test) = task();
    let mut sim: ClusterSim<SimPayload> = ClusterSim::new(c.cluster.clone());
    if let Some(plan) = plan {
        sim = sim.with_fault_plan(plan.clone());
    }
    run_cluster_with(sim, c, &build, &train, &test, opts).expect("simulated run failed")
}

/// One CRC-32 per numerics-independent stream of a [`RunResult`], in the
/// order `[staleness, iterations + epoch times, transport, health, faults,
/// replication]` — a mismatch names the stream that moved.
fn schedule_prints(r: &RunResult) -> [u32; 6] {
    let staleness: Vec<u8> = r.staleness.iter().flat_map(|s| s.to_le_bytes()).collect();
    let mut clock = r.iterations.to_le_bytes().to_vec();
    for e in &r.epochs {
        clock.extend_from_slice(&(e.epoch as u64).to_le_bytes());
        clock.extend_from_slice(&e.time.to_bits().to_le_bytes());
    }
    let t = r.transport.as_ref().expect("backend runs report transport");
    let transport: Vec<u8> = [t.requests, t.oneways, t.bytes_sent, t.bytes_received]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let mut health = String::new();
    if let Some(h) = &r.health {
        for (at, ev) in &h.events {
            writeln!(health, "{at} {ev:?}").unwrap();
        }
        writeln!(health, "drops {}", h.quarantine_drops).unwrap();
    }
    let mut faults = String::new();
    if let Some(f) = &r.faults {
        writeln!(faults, "{:?} halted={} resumed={}", f.records, f.server_halted, f.resumed_at)
            .unwrap();
    }
    let replication = r.replication.as_ref().map(|rep| format!("{rep:?}")).unwrap_or_default();
    [
        crc32(&staleness),
        crc32(&clock),
        crc32(&transport),
        crc32(health.as_bytes()),
        crc32(faults.as_bytes()),
        crc32(replication.as_bytes()),
    ]
}

fn check(what: &str, r: &RunResult, want: [u32; 6]) {
    let streams = "[staleness, clock, transport, health, faults, replication]";
    assert_eq!(schedule_prints(r), want, "{what}: {streams}");
}

/// [`check`] for an LC-ASGD run, plus the CRC-32 of every epoch's
/// `train_loss` bits.
fn check_lc(what: &str, r: &RunResult, want: [u32; 6], losses: u32) {
    check(what, r, want);
    let bits: Vec<u8> =
        r.epochs.iter().flat_map(|e| e.train_loss.to_bits().to_le_bytes()).collect();
    assert_eq!(crc32(&bits), losses, "{what}: train-loss bits");
}

#[test]
fn every_algorithm_keeps_its_schedule() {
    let golden: [(Algorithm, usize, [u32; 6]); 4] = [
        (Algorithm::Sgd, 1, [3958532690, 2150453301, 1225790671, 0, 0, 0]),
        (Algorithm::Ssgd, 4, [264420178, 1940031788, 3075304600, 0, 0, 0]),
        (Algorithm::Asgd, 4, [2602208833, 4181553964, 1636071430, 0, 0, 0]),
        (Algorithm::DcAsgd, 4, [2602208833, 4181553964, 1636071430, 0, 0, 0]),
    ];
    for (algo, workers, want) in golden {
        let r = run(&cfg(algo, workers), None, RunOptions::default());
        check(&format!("{algo} at M = {workers}"), &r, want);
    }
    let r = run(&cfg(Algorithm::LcAsgd, 4), None, RunOptions::default());
    check_lc("LC-ASGD at M = 4", &r, [4060491921, 3913260242, 26528520, 0, 0, 0], 4030348317);
}

#[test]
fn four_shards_keep_their_schedule() {
    let r = run(&cfg(Algorithm::Asgd, 4), None, RunOptions::default().shards(4));
    assert_eq!(r.shards, 4);
    check("ASGD, 4 shards", &r, [2854568403, 3663551097, 877729724, 0, 0, 0]);
}

fn supervised(algo: Algorithm, plan: &FaultPlan, sup: SupervisorConfig) -> RunResult {
    let opts = RunOptions {
        fault_plan: Some(plan.clone()),
        supervisor: Some(sup),
        ..RunOptions::default()
    };
    run(&cfg(algo, 4), Some(plan), opts)
}

/// A count-driven supervisor (NaN sentinel, quarantine, staleness bound,
/// last-good snapshots; the value-driven norm and explosion detectors are
/// disarmed) under NaN bursts on three workers.
#[test]
fn a_supervised_nan_storm_keeps_its_schedule() {
    let mut plan = FaultPlan::new()
        .with_event(0, 3, FaultKind::NanGrad)
        .with_event(0, 31, FaultKind::NanGrad)
        .with_event(2, 9, FaultKind::NanGrad);
    for op in 11..=19 {
        plan = plan.with_event(1, op, FaultKind::NanGrad);
    }
    let sup = SupervisorConfig {
        grad_norm_factor: 1e9,
        explode_factor: 1e9,
        quarantine_strikes: 2,
        quarantine_arrivals: 8,
        snapshot_every: 6,
        staleness_bound: Some(4),
        ..SupervisorConfig::default()
    };
    let r = supervised(Algorithm::Asgd, &plan, sup);
    let h = r.health.as_ref().expect("supervised runs carry a health report");
    assert!(h.quarantines() >= 1, "the storm must reach the quarantine path:\n{}", h.to_text());
    check(
        "ASGD, supervised NaN storm",
        &r,
        [1729493023, 1948491035, 207961866, 4274818186, 702746812, 0],
    );
}

/// The LC→DC→ASGD ladder: NaN bursts demote worker 0 twice, so its pulls
/// carry directives, its DC rung snapshots a backup and its pushes are
/// interpreted under the rung pinned at the lead pull. Count-driven like
/// the storm above, and the predictor watchdog is disarmed.
#[test]
fn a_supervised_lc_ladder_keeps_its_schedule() {
    let plan = FaultPlan::new()
        .with_event(0, 2, FaultKind::NanGrad)
        .with_event(0, 40, FaultKind::NanGrad)
        .with_event(0, 41, FaultKind::NanGrad)
        .with_event(2, 4, FaultKind::Straggle { delay_ms: 60, ops: 200 });
    let sup = SupervisorConfig {
        grad_norm_factor: 1e9,
        explode_factor: 1e9,
        quarantine_strikes: 2,
        quarantine_arrivals: 8,
        snapshot_every: 6,
        demote_after: 1,
        promote_after: 10_000,
        pred_err_ratio: 1e6,
        straggler_factor: 2.0,
        straggler_min_arrivals: 2,
        ..SupervisorConfig::default()
    };
    let r = supervised(Algorithm::LcAsgd, &plan, sup);
    let h = r.health.as_ref().expect("supervised runs carry a health report");
    assert_eq!(h.demotions(), 2, "LC→DC and DC→ASGD:\n{}", h.to_text());
    check_lc(
        "LC-ASGD, supervised ladder",
        &r,
        [897922860, 3887818728, 2446041491, 2943430069, 1089321771, 0],
        3777079709,
    );
}

/// The rollback step of the post-apply pipeline: a corrupt-payload barrage
/// (valid CRC, garbage values) against armed norm and explosion detectors.
/// ASGD is value-deterministic on the simulator, so the float-bearing
/// events (`NormSpike`, `LossExplosion`) hash stably too.
#[test]
fn a_supervised_rollback_keeps_its_schedule() {
    let mut plan = FaultPlan::new();
    for op in 9..=45 {
        plan = plan.with_event(1, op, FaultKind::CorruptPayload);
    }
    let sup = SupervisorConfig {
        grad_norm_factor: 3.0,
        grad_norm_warmup: 6,
        quarantine_strikes: 2,
        quarantine_arrivals: 8,
        loss_window: 4,
        explode_factor: 1.4,
        snapshot_every: 6,
        max_rollbacks: 4,
        ..SupervisorConfig::default()
    };
    let r = supervised(Algorithm::Asgd, &plan, sup);
    let h = r.health.as_ref().expect("supervised runs carry a health report");
    assert!(h.rollbacks() >= 1, "the barrage must reach the rollback path:\n{}", h.to_text());
    check(
        "ASGD, supervised rollback",
        &r,
        [2602208833, 4181553964, 2160441821, 497697919, 3175200391, 0],
    );
}

fn killed(algo: Algorithm, shards: usize) -> RunResult {
    killed_with(algo, shards, None)
}

/// [`killed`], also writing a checkpoint at every epoch boundary — the
/// last one holds the final weights.
fn killed_with(algo: Algorithm, shards: usize, ck: Option<std::path::PathBuf>) -> RunResult {
    let plan = FaultPlan::new().with_primary_kill(31);
    let opts = RunOptions {
        checkpoint_path: ck,
        fault_plan: Some(plan.clone()),
        standby: Some(StandbyConfig {
            flush_every: 4,
            lease: std::time::Duration::from_millis(500),
        }),
        shards,
        ..RunOptions::default()
    };
    let r = run(&cfg(algo, 4), Some(&plan), opts);
    assert_eq!(r.replication.as_ref().expect("standby attached").failovers, 1);
    r
}

#[test]
fn a_primary_kill_keeps_its_schedule() {
    check(
        "ASGD, primary kill",
        &killed(Algorithm::Asgd, 1),
        [916206875, 4198313286, 11938911, 0, 592060260, 3265991639],
    );
}

/// All three fenced-retry sites of the worker loop in one run: the lead
/// pull, a follower-shard pull and LC-ASGD's state exchange can each be
/// answered from behind the new fence.
#[test]
fn a_sharded_lc_primary_kill_keeps_its_schedule() {
    check_lc(
        "LC-ASGD, 4 shards, primary kill",
        &killed(Algorithm::LcAsgd, 4),
        [1390405590, 189961964, 1422266194, 0, 563353667, 2725470981],
        1902220661,
    );
}

/// A [`killed_with`] run and the checkpoint its last update wrote.
fn killed_to_the_end(algo: Algorithm, shards: usize) -> (RunResult, TrainingCheckpoint) {
    let path = std::env::temp_dir()
        .join(format!("lcasgd_golden_promote_{algo}_{}.ckpt", std::process::id()));
    let r = killed_with(algo, shards, Some(path.clone()));
    let ck = TrainingCheckpoint::load(&path).expect("the run checkpointed");
    std::fs::remove_file(&path).ok();
    assert_eq!(ck.applied, r.iterations, "{algo}: the last checkpoint is the run's end");
    (r, ck)
}

/// What a failover promotes — weights, BN, predictors, arrival state —
/// decides the run after it. Taken at the commit before the epoch refresh
/// stopped carrying the model, for the two kill schedules above (and taken
/// again with them, see the header).
#[test]
fn a_failover_promotes_what_the_parent_promoted() {
    let bytes =
        |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect() };
    // ASGD is value-deterministic on the simulator: every epoch's train
    // loss bits and the final weights.
    let (r, ck) = killed_to_the_end(Algorithm::Asgd, 1);
    let losses: Vec<f32> = r.epochs.iter().map(|e| e.train_loss).collect();
    let prints = [crc32(&bytes(&losses)), crc32(&bytes(&ck.weights))];
    assert_eq!(prints, [2587238552, 2004252423], "ASGD: [losses, weights]");
    // For LC-ASGD, what promotion hands on that is no float: the run's
    // final `iter` log, arrival state and both predictors' training
    // counters — a refresh without `iter` or the predictors moves them.
    // (Its losses are pinned with its schedule above.)
    let (_, ck) = killed_to_the_end(Algorithm::LcAsgd, 4);
    let (lp, sp) = (ck.loss_pred.expect("LC state"), ck.step_pred.expect("LC state"));
    let mut ints: Vec<u64> = ck.iter.iter().map(|&m| m as u64).collect();
    ints.extend(ck.arrival.iter().map(|a| a.unwrap_or(u64::MAX)));
    ints.extend([lp.train_steps, sp.train_steps, sp.samples]);
    let ints = crc32(&ints.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>());
    assert_eq!(ints, 3343339324, "LC-ASGD: iter, arrival and predictor counters");
}

#[test]
fn a_server_restart_and_its_resume_keep_their_schedules() {
    let c = cfg(Algorithm::Asgd, 4);
    let path =
        std::env::temp_dir().join(format!("lcasgd_engine_golden_{}.ckpt", std::process::id()));
    let plan = FaultPlan::new().with_server_restart(29);
    let opts = RunOptions {
        fault_plan: Some(plan.clone()),
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 7,
        ..RunOptions::default()
    };
    let halted = run(&c, Some(&plan), opts);
    assert!(halted.faults.as_ref().expect("the plan reports").server_halted);
    check("ASGD, halted half", &halted, [3907232511, 3306759863, 3110435542, 0, 2632329310, 0]);

    let ck = TrainingCheckpoint::load(&path).expect("the halt wrote a checkpoint");
    std::fs::remove_file(&path).ok();
    assert_eq!(ck.applied, 29);
    let resumed = run(&c, None, RunOptions { resume: Some(ck), ..RunOptions::default() });
    assert_eq!(resumed.epochs.len(), c.epochs);
    check("ASGD, resumed half", &resumed, [2158482237, 1511641747, 916640824, 0, 3086158723, 0]);
}
