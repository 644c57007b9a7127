//! Epoch evaluation runs on a thread of its own and its error rates are
//! patched into the record afterwards, so a record exists for a while with
//! both rates still NaN. This suite checks it never leaves the server in
//! that condition: not in a `RunResult`, not in a `TrainingCheckpoint` on
//! disk, not in a full snapshot shipped to the standby (the epoch refresh
//! carries no records, and so waits for no evaluation) — under a periodic disk
//! checkpoint, a standby, a primary kill on an epoch boundary, a supervisor
//! rollback and a halt + resume — and that records stay in epoch order.
//! (That the rates are bitwise the inline ones is what `engine_golden`,
//! `sim_vs_threads` and `shard_equivalence` passing unchanged shows.)

use lc_asgd::core::metrics::EpochRecord;
use lc_asgd::core::protocol::ClusterReq;
use lc_asgd::core::replication::ReplicaPayload;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::{
    ClockDomain, ClusterSim, ReplicaDuplex, ReplicaDuplexPair, ServerCtx, SimPayload, TraceHook,
    WireCodec, WireMsg, WorkerLink,
};
use std::sync::{Arc, Mutex};

fn task() -> (Dataset, Dataset) {
    lc_asgd::data::synth::blobs_split(4, 6, 30, 12, 0.5, 41)
}

/// 12 updates per epoch, 6 epochs.
fn cfg(algo: Algorithm) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(algo, 4, Scale::Tiny, 31);
    cfg.epochs = 6;
    cfg.batch_size = 10;
    cfg.lr = lc_asgd::nn::optimizer::LrSchedule::constant(0.1);
    cfg
}

fn build(rng: &mut Rng) -> lc_asgd::nn::Network {
    lc_asgd::nn::mlp::mlp(&[6, 16, 4], false, rng)
}

fn sim(c: &ExperimentConfig, plan: Option<&FaultPlan>) -> ClusterSim<SimPayload> {
    let sim = ClusterSim::new(c.cluster.clone());
    match plan {
        Some(plan) => sim.with_fault_plan(plan.clone()),
        None => sim,
    }
}

fn run<B: ClusterBackend>(backend: B, c: &ExperimentConfig, opts: RunOptions) -> RunResult {
    let (train, test) = task();
    run_cluster_with(backend, c, &build, &train, &test, opts).expect("run failed")
}

#[track_caller]
fn assert_whole(what: &str, records: &[EpochRecord]) {
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.epoch, i + 1, "{what}: records out of epoch order: {records:?}");
        assert!(
            (0.0..=1.0).contains(&r.train_error) && (0.0..=1.0).contains(&r.test_error),
            "{what}: epoch {} left the server unevaluated: {r:?}",
            r.epoch
        );
    }
}

fn scratch_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lcasgd_deferred_eval_{name}_{}.ckpt", std::process::id()))
}

#[test]
fn a_disk_checkpoint_on_the_epoch_boundary_holds_whole_records() {
    let c = cfg(Algorithm::LcAsgd);
    let path = scratch_file("periodic");
    // Cadence 0 = once per epoch: every write follows a hand-off directly.
    let opts = RunOptions { checkpoint_path: Some(path.clone()), ..RunOptions::default() };
    let r = run(ThreadCluster::new(4), &c, opts);
    let ck = TrainingCheckpoint::load(&path).expect("the run checkpointed");
    std::fs::remove_file(&path).ok();
    assert_eq!(r.epochs.len(), c.epochs);
    assert_whole("result", &r.epochs);
    assert_eq!(ck.epochs.len(), c.epochs, "the last write was at the last boundary");
    assert_whole("checkpoint", &ck.epochs);
}

#[test]
fn a_halt_and_its_resume_hold_whole_records() {
    let c = cfg(Algorithm::Asgd);
    let path = scratch_file("halt");
    // Halt on the third epoch boundary: the halting checkpoint is written
    // in the same post-apply pass that closed the epoch.
    let plan = FaultPlan::new().with_server_restart(36);
    let opts = RunOptions {
        fault_plan: Some(plan.clone()),
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 1000,
        ..RunOptions::default()
    };
    let halted = run(sim(&c, Some(&plan)), &c, opts);
    assert_eq!(halted.epochs.len(), 3);
    assert_whole("halted half", &halted.epochs);

    let ck = TrainingCheckpoint::load(&path).expect("the halt wrote a checkpoint");
    std::fs::remove_file(&path).ok();
    assert_eq!(ck.applied, 36);
    assert_whole("halting checkpoint", &ck.epochs);
    assert_eq!(ck.epochs.len(), 3, "the epoch closed by the halting update is in it");

    let resumed = run(sim(&c, None), &c, RunOptions { resume: Some(ck), ..RunOptions::default() });
    assert_eq!(resumed.epochs.len(), c.epochs);
    assert_whole("resumed half", &resumed.epochs);
}

#[test]
fn a_supervisor_rollback_holds_whole_records() {
    let c = cfg(Algorithm::Asgd);
    let plan = (9..=45)
        .fold(FaultPlan::new(), |plan, op| plan.with_event(1, op, FaultKind::CorruptPayload));
    let sup = SupervisorConfig {
        grad_norm_factor: 3.0,
        grad_norm_warmup: 6,
        loss_window: 4,
        explode_factor: 1.4,
        snapshot_every: 6,
        ..SupervisorConfig::default()
    };
    let opts = RunOptions {
        fault_plan: Some(plan.clone()),
        supervisor: Some(sup),
        ..RunOptions::default()
    };
    let r = run(sim(&c, Some(&plan)), &c, opts);
    let h = r.health.as_ref().expect("supervised runs carry a health report");
    assert!(h.rollbacks() >= 1, "the barrage must reach the rollback path:\n{}", h.to_text());
    assert_eq!(r.epochs.len(), c.epochs);
    assert_whole("result", &r.epochs);
}

/// What the primary shipped its standby besides records: full snapshots,
/// and epoch refreshes.
#[derive(Default)]
struct Shipped {
    snapshots: Vec<TrainingCheckpoint>,
    refreshes: Vec<TrainingCheckpoint>,
}

/// A backend whose replication duplex keeps a copy of every snapshot and
/// refresh the primary ships: what a standby would be promoted from.
struct Tapped<B> {
    inner: B,
    shipped: Arc<Mutex<Shipped>>,
}

struct TappedEnd {
    inner: Box<dyn ReplicaDuplex>,
    shipped: Arc<Mutex<Shipped>>,
}

impl ReplicaDuplex for TappedEnd {
    fn send(&mut self, payload: &[u8]) -> Result<(), ClusterError> {
        let ck = |blob: &[u8]| TrainingCheckpoint::from_bytes(blob).expect("self-checking blobs");
        match ClusterReq::decoded(payload) {
            Ok(ClusterReq::Replicate(ReplicaPayload::Snapshot { blob, .. })) => {
                self.shipped.lock().unwrap().snapshots.push(ck(&blob))
            }
            Ok(ClusterReq::Replicate(ReplicaPayload::Refresh { blob, .. })) => {
                self.shipped.lock().unwrap().refreshes.push(ck(&blob))
            }
            _ => {}
        }
        self.inner.send(payload)
    }

    fn recv(&mut self) -> Result<Vec<u8>, ClusterError> {
        self.inner.recv()
    }
}

impl<B: ClusterBackend> ClusterBackend for Tapped<B> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn clock_domain(&self) -> ClockDomain {
        self.inner.clock_domain()
    }

    fn wire_codec(&self) -> WireCodec {
        self.inner.wire_codec()
    }

    fn attach_trace_hook(&mut self, hook: Arc<dyn TraceHook>) {
        self.inner.attach_trace_hook(hook)
    }

    fn replica_duplex(&mut self) -> Result<ReplicaDuplexPair, ClusterError> {
        let (primary, standby) = self.inner.replica_duplex()?;
        let tapped = TappedEnd { inner: primary, shipped: self.shipped.clone() };
        Ok((Box::new(tapped), standby))
    }

    fn run<Req, Resp, S, W>(
        self,
        server_fn: S,
        worker_fn: W,
    ) -> Result<TransportStats, ClusterError>
    where
        Req: WireMsg + Send + 'static,
        Resp: WireMsg + Send + 'static,
        S: FnMut(usize, Req, &mut ServerCtx<Resp>),
        W: Fn(usize, &mut dyn WorkerLink<Req, Resp>) + Send + Sync,
    {
        self.inner.run(server_fn, worker_fn)
    }
}

#[test]
fn standby_snapshots_and_a_kill_on_the_epoch_boundary_hold_whole_records() {
    for algo in [Algorithm::Asgd, Algorithm::LcAsgd] {
        let c = cfg(algo);
        // Update 24 closes epoch 2: the kill fires in the pass that handed
        // that epoch to the evaluator, and truncates the records after it.
        let plan = FaultPlan::new().with_primary_kill(24);
        let opts = RunOptions {
            fault_plan: Some(plan.clone()),
            standby: Some(StandbyConfig { flush_every: 4 }),
            ..RunOptions::default()
        };
        let shipped = Arc::new(Mutex::new(Shipped::default()));
        let backend = Tapped { inner: sim(&c, Some(&plan)), shipped: shipped.clone() };
        let r = run(backend, &c, opts);
        assert_eq!(r.replication.as_ref().expect("standby attached").failovers, 1);
        assert_eq!(r.epochs.len(), c.epochs);
        assert_whole(&format!("{algo} result"), &r.epochs);

        let Shipped { snapshots, refreshes } = &*shipped.lock().unwrap();
        // Full snapshots: the bootstrap and the re-arm after the promotion
        // (1 + epochs + 1 = 8 before the epoch refresh carried no model).
        assert_eq!(snapshots.len(), 2, "{algo}");
        // One refresh per epoch boundary, each without the model or the
        // records that would have to wait for its evaluation.
        assert_eq!(refreshes.len(), c.epochs, "{algo}");
        for part in refreshes {
            assert!(part.weights.is_empty() && part.epochs.is_empty(), "{algo}: a refresh");
            assert_eq!(part.arrival.len(), 4, "{algo}: a refresh carries the arrival state");
            assert_eq!(part.loss_pred.is_some(), algo == Algorithm::LcAsgd, "{algo}");
        }
        for ck in snapshots {
            assert_eq!(
                ck.epochs.len() as u64,
                ck.applied / 12,
                "{algo} snapshot at {}",
                ck.applied
            );
            assert_whole(&format!("{algo} snapshot at update {}", ck.applied), &ck.epochs);
        }
    }
}

/// An evaluation that panics takes the evaluator thread with it. The
/// server must neither hang on the hand-off nor return records it could
/// not complete: the run ends, with an error.
#[test]
fn a_panicking_evaluation_fails_the_run_and_does_not_hang_it() {
    let (train, mut test) = task();
    // A class the model has no logit for: only evaluation reads the test
    // set, and its cross-entropy indexes out of range.
    test.labels[0] = 99;
    let c = cfg(Algorithm::Asgd);
    let on_sim = run_cluster_with(sim(&c, None), &c, &build, &train, &test, RunOptions::default());
    let on_threads =
        run_cluster_with(ThreadCluster::new(4), &c, &build, &train, &test, RunOptions::default());
    for result in [on_sim, on_threads] {
        let err = result.expect_err("records without error rates must not be returned");
        assert!(err.to_string().contains("evaluator"), "{err}");
    }
}
