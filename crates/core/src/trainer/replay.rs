//! The server is a pure function of its inputs. For every configuration
//! `tests/engine_golden.rs` pins, a simulator run records the messages the
//! server was handed (with their pickup times), the replies it queued and
//! every call its core and guard made on their seams with the answer the
//! shell gave. A fresh core, behind a fresh guard when the run has one, fed
//! those messages behind a fake that plays the answers back, must make the
//! same calls and queue the same replies, bit for bit.

use super::*;
use crate::metrics::EpochRecord;
use crate::supervisor::SupervisorConfig;
use lcasgd_data::synth::blobs_split;
use lcasgd_nn::mlp::mlp;
use lcasgd_nn::LrSchedule;
use lcasgd_simcluster::codec::crc32;
use lcasgd_simcluster::{FaultKind, ServerCtx, SimPayload, WireMsg, WorkerLink};
use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// One message as the core picked it up.
struct Message {
    worker: usize,
    bytes: Vec<u8>,
    time: Option<f64>,
    expects_reply: bool,
}

/// The messages of a run and, per message, the hash of the replies the core
/// queued for it.
#[derive(Default)]
struct Inbox {
    messages: Vec<Message>,
    replies: Vec<u32>,
}

/// Hashes the replies queued on `ctx` and leaves them queued.
fn replies<Resp: WireMsg>(ctx: &mut ServerCtx<Resp>) -> u32 {
    let mut bytes = Vec::new();
    for (to, resp, key) in ctx.take_keyed_replies() {
        bytes.extend((to as u64).to_le_bytes());
        bytes.extend(key.unwrap_or(u64::MAX).to_le_bytes());
        bytes.extend(resp.encoded());
        match key {
            Some(key) => ctx.reply_to_keyed(to, resp, key),
            None => ctx.reply_to(to, resp),
        }
    }
    crc32(&bytes)
}

/// A simulator that records what its server is handed, or — with no
/// simulator — a backend that hands a recorded run's messages to the server
/// again and starts no worker.
struct Tape {
    sim: Option<ClusterSim<SimPayload>>,
    workers: usize,
    inbox: Rc<RefCell<Inbox>>,
}

impl ClusterBackend for Tape {
    fn workers(&self) -> usize {
        self.workers
    }

    fn clock_domain(&self) -> ClockDomain {
        ClockDomain::Virtual
    }

    fn run<Req, Resp, S, W>(self, mut server: S, worker: W) -> Result<TransportStats, ClusterError>
    where
        Req: WireMsg + Send + 'static,
        Resp: WireMsg + Send + 'static,
        S: FnMut(usize, Req, &mut ServerCtx<Resp>),
        W: Fn(usize, &mut dyn WorkerLink<Req, Resp>) + Send + Sync,
    {
        let inbox = self.inbox;
        let Some(sim) = self.sim else {
            let messages = std::mem::take(&mut inbox.borrow_mut().messages);
            for m in messages {
                let req = Req::decoded(&m.bytes).expect("a recorded message decodes");
                let mut ctx = match m.time {
                    Some(t) => ServerCtx::at(m.worker, m.expects_reply, t),
                    None => ServerCtx::new(m.worker, m.expects_reply),
                };
                server(m.worker, req, &mut ctx);
                inbox.borrow_mut().replies.push(replies(&mut ctx));
            }
            return Ok(TransportStats::default());
        };
        let record = |w, req: Req, ctx: &mut ServerCtx<Resp>| {
            let (bytes, time, expects_reply) = (req.encoded(), ctx.time(), ctx.expects_reply());
            server(w, req, ctx);
            let mut inbox = inbox.borrow_mut();
            inbox.messages.push(Message { worker: w, bytes, time, expects_reply });
            inbox.replies.push(replies(ctx));
        };
        sim.run(record, worker)
    }
}

/// The recording fake: every call the core makes on the seam, as its name
/// and a hash of its arguments, and the shell's answers — taken from the
/// shell while recording, played back while replaying. An `evaluate` or
/// `collect` answers with the error rates it leaves in the records.
#[derive(Default)]
struct Recorder {
    calls: Vec<(&'static str, u32)>,
    answers: VecDeque<Box<dyn Any>>,
    replaying: bool,
}

impl Tap for Recorder {
    fn with<R>(&mut self, shell: &mut dyn GuardSeam, f: impl FnOnce(&mut dyn GuardSeam) -> R) -> R {
        f(&mut Fake { rec: self, shell })
    }
}

struct Fake<'s> {
    rec: &'s mut Recorder,
    shell: &'s mut dyn GuardSeam,
}

fn f32s(bytes: &mut Vec<u8>, v: &[f32]) {
    bytes.extend(v.iter().flat_map(|x| x.to_bits().to_le_bytes()));
}

fn bn_bytes(bytes: &mut Vec<u8>, bn: &BnState) {
    bn.means.iter().chain(&bn.vars).for_each(|t| f32s(bytes, t.data()));
}

fn record_bytes(records: &[EpochRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for r in records {
        bytes.extend((r.epoch as u64).to_le_bytes());
        bytes.extend(r.time.to_bits().to_le_bytes());
        f32s(&mut bytes, &[r.train_error, r.test_error, r.train_loss, r.lr]);
    }
    bytes
}

impl Fake<'_> {
    fn call(&mut self, name: &'static str, bytes: &[u8]) {
        self.rec.calls.push((name, crc32(bytes)));
    }

    /// The shell's answer: asked of it while recording, the recorded one
    /// while replaying.
    fn answer<T: Clone + 'static>(&mut self, live: impl FnOnce(&mut dyn GuardSeam) -> T) -> T {
        if self.rec.replaying {
            let answer = self.rec.answers.pop_front().expect("the replay asks what the run asked");
            return *answer.downcast().expect("the replay asks what the run asked");
        }
        let answer = live(self.shell);
        self.rec.answers.push_back(Box::new(answer.clone()));
        answer
    }

    /// An effect with no answer: carried out while recording only.
    fn effect(&mut self, live: impl FnOnce(&mut dyn GuardSeam)) {
        if !self.rec.replaying {
            live(self.shell);
        }
    }

    /// `evaluate` and `collect`: their answer is the error rates they leave
    /// in `records`.
    fn fill_rates(
        &mut self,
        records: &mut [EpochRecord],
        live: impl FnOnce(&mut dyn GuardSeam, &mut [EpochRecord]),
    ) {
        let rates = self.answer(|shell| {
            live(shell, records);
            records.iter().map(|r| (r.train_error, r.test_error)).collect::<Vec<_>>()
        });
        for (r, (train, test)) in records.iter_mut().zip(rates) {
            (r.train_error, r.test_error) = (train, test);
        }
    }
}

impl Seam for Fake<'_> {
    fn write(&mut self, at: Option<f64>) -> f64 {
        self.call("write", &at.map_or(u64::MAX, f64::to_bits).to_le_bytes());
        self.answer(|shell| shell.write(at))
    }

    fn evaluate(&mut self, records: &mut [EpochRecord], weights: Arc<Vec<f32>>, bn: BnState) {
        let mut bytes = record_bytes(records);
        f32s(&mut bytes, &weights);
        bn_bytes(&mut bytes, &bn);
        self.call("evaluate", &bytes);
        self.fill_rates(records, |shell, records| shell.evaluate(records, weights, bn));
    }

    fn collect(&mut self, records: &mut [EpochRecord]) {
        self.call("collect", &record_bytes(records));
        self.fill_rates(records, |shell, records| shell.collect(records));
    }
}

impl GuardSeam for Fake<'_> {
    fn log_push<'s>(
        &mut self,
        head: &PushHead,
        slices: &mut dyn ExactSizeIterator<Item = (&'s [f32], &'s [f32])>,
        side_effects: Option<(u64, &BnState)>,
    ) {
        let mut bytes = Vec::new();
        for v in [head.epoch, u64::from(head.worker), head.push_seq, head.version] {
            bytes.extend(v.to_le_bytes());
        }
        bytes.extend(head.staleness.to_le_bytes());
        f32s(&mut bytes, &[head.loss]);
        let slices: Vec<_> = slices.collect();
        for (after, before) in &slices {
            f32s(&mut bytes, after);
            f32s(&mut bytes, before);
        }
        if let Some((arrival, bn)) = side_effects {
            bytes.extend(arrival.to_le_bytes());
            bn_bytes(&mut bytes, bn);
        }
        self.call("log_push", &bytes);
        self.effect(|shell| shell.log_push(head, &mut slices.into_iter(), side_effects));
    }

    fn refresh(&mut self, part: &TrainingCheckpoint) {
        self.call("refresh", &part.to_bytes());
        self.effect(|shell| shell.refresh(part));
    }

    fn snapshot(&mut self, state: TrainingCheckpoint) {
        self.call("snapshot", &state.to_bytes());
        self.effect(|shell| shell.snapshot(state));
    }

    fn promote(&mut self, applied: u64) -> Option<TrainingCheckpoint> {
        self.call("promote", &applied.to_le_bytes());
        self.answer(|shell| shell.promote(applied))
    }

    fn standby_lost(&mut self, at_update: u64) -> Option<String> {
        self.call("standby_lost", &at_update.to_le_bytes());
        self.answer(|shell| shell.standby_lost(at_update))
    }

    fn hang_up(&mut self) -> Option<ReplicationReport> {
        self.call("hang_up", &[]);
        self.answer(|shell| shell.hang_up())
    }

    fn save(&mut self, state: TrainingCheckpoint) {
        self.call("save", &state.to_bytes());
        self.effect(|shell| shell.save(state));
    }

    fn fault(&mut self, rec: FaultRecord) {
        self.call("fault", format!("{rec:?}").as_bytes());
        self.effect(|shell| shell.fault(rec));
    }
}

// ---------------------------------------------------------------- runs

fn task() -> (Dataset, Dataset) {
    blobs_split(4, 6, 30, 12, 0.5, 37)
}

/// `tests/engine_golden.rs`'s configuration.
fn cfg(algo: Algorithm, workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(algo, workers, crate::config::Scale::Tiny, 29);
    cfg.epochs = 6;
    cfg.batch_size = 10;
    cfg.lr = LrSchedule::constant(0.1);
    cfg
}

fn build(rng: &mut Rng) -> Network {
    mlp(&[6, 16, 4], false, rng)
}

/// Runs `c` on the simulator under `opts()` (and `plan`, when it has one),
/// recording it, then replays its inputs into a fresh core and asserts the
/// same seam calls and replies. Returns the recorded run's result.
fn replays(
    what: &str,
    c: &ExperimentConfig,
    plan: Option<&FaultPlan>,
    opts: impl Fn() -> RunOptions,
) -> RunResult {
    let (train, test) = task();
    let workers = if c.algorithm == Algorithm::Sgd { 1 } else { c.workers };
    let mut spec = c.cluster.clone();
    spec.workers.truncate(workers);
    let mut sim = ClusterSim::new(spec);
    if let Some(plan) = plan {
        sim = sim.with_fault_plan(plan.clone());
    }
    let inbox = Rc::new(RefCell::new(Inbox::default()));
    let mut recorded = Recorder::default();
    let tape = Tape { sim: Some(sim), workers, inbox: Rc::clone(&inbox) };
    let r = run_tapped(tape, c, &build, &train, &test, opts(), &mut recorded)
        .expect("the recorded run");
    let replies = std::mem::take(&mut inbox.borrow_mut().replies);
    assert!(!replies.is_empty(), "{what}: the run handed its core messages");

    let answers = std::mem::take(&mut recorded.answers);
    let mut replayed = Recorder { calls: Vec::new(), answers, replaying: true };
    let tape = Tape { sim: None, workers, inbox: Rc::clone(&inbox) };
    run_tapped(tape, c, &build, &train, &test, opts(), &mut replayed).expect("the replay");
    assert!(replayed.answers.is_empty(), "{what}: the replay asked for every answer");
    same(&format!("{what}: seam call"), &recorded.calls, &replayed.calls);
    same(&format!("{what}: replies to message"), &replies, &inbox.borrow().replies);
    r
}

/// Names the first entry where the replay left the run.
fn same<T: PartialEq + std::fmt::Debug>(what: &str, run: &[T], replay: &[T]) {
    let n = run.len().max(replay.len());
    if let Some(i) = (0..n).find(|&i| run.get(i) != replay.get(i)) {
        panic!("{what} {i} of {n}: run {:?}, replay {:?}", run.get(i), replay.get(i));
    }
}

#[test]
fn every_algorithm_replays() {
    for (algo, workers) in [
        (Algorithm::Sgd, 1),
        (Algorithm::Ssgd, 4),
        (Algorithm::Asgd, 4),
        (Algorithm::DcAsgd, 4),
        (Algorithm::LcAsgd, 4),
    ] {
        replays(&format!("{algo}"), &cfg(algo, workers), None, RunOptions::default);
    }
    let c = cfg(Algorithm::Asgd, 4);
    replays("ASGD, 4 shards", &c, None, || RunOptions::default().shards(4));
}

fn supervised_replays(what: &str, algo: Algorithm, plan: FaultPlan, sup: SupervisorConfig) {
    let opts = || RunOptions {
        fault_plan: Some(plan.clone()),
        supervisor: Some(sup.clone()),
        ..RunOptions::default()
    };
    let r = replays(what, &cfg(algo, 4), Some(&plan), opts);
    assert!(r.health.is_some_and(|h| !h.events.is_empty()), "{what}: the supervisor acted");
}

#[test]
fn the_supervised_runs_replay() {
    let mut storm = FaultPlan::new()
        .with_event(0, 3, FaultKind::NanGrad)
        .with_event(0, 31, FaultKind::NanGrad)
        .with_event(2, 9, FaultKind::NanGrad);
    for op in 11..=19 {
        storm = storm.with_event(1, op, FaultKind::NanGrad);
    }
    let counting = SupervisorConfig {
        grad_norm_factor: 1e9,
        explode_factor: 1e9,
        quarantine_strikes: 2,
        quarantine_arrivals: 8,
        snapshot_every: 6,
        ..SupervisorConfig::default()
    };
    let sup = SupervisorConfig { staleness_bound: Some(4), ..counting.clone() };
    supervised_replays("NaN storm", Algorithm::Asgd, storm, sup);

    let ladder = FaultPlan::new()
        .with_event(0, 2, FaultKind::NanGrad)
        .with_event(0, 40, FaultKind::NanGrad)
        .with_event(0, 41, FaultKind::NanGrad)
        .with_event(2, 4, FaultKind::Straggle { delay_ms: 60, ops: 200 });
    let sup = SupervisorConfig {
        demote_after: 1,
        promote_after: 10_000,
        pred_err_ratio: 1e6,
        straggler_factor: 2.0,
        straggler_min_arrivals: 2,
        ..counting
    };
    supervised_replays("LC ladder", Algorithm::LcAsgd, ladder, sup);

    let mut barrage = FaultPlan::new();
    for op in 9..=45 {
        barrage = barrage.with_event(1, op, FaultKind::CorruptPayload);
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
    supervised_replays("rollback", Algorithm::Asgd, barrage, sup);
}

/// Both kills, also as `a_failover_promotes_what_the_parent_promoted`
/// runs them: writing a checkpoint at every epoch boundary.
#[test]
fn both_primary_kills_replay() {
    let path = std::env::temp_dir().join(format!("lcasgd_replay_kill_{}.ckpt", std::process::id()));
    for (algo, shards) in [(Algorithm::Asgd, 1), (Algorithm::LcAsgd, 4)] {
        for checkpoint_path in [None, Some(path.clone())] {
            let plan = FaultPlan::new().with_primary_kill(31);
            let opts = || RunOptions {
                fault_plan: Some(plan.clone()),
                checkpoint_path: checkpoint_path.clone(),
                standby: Some(StandbyConfig { flush_every: 4 }),
                shards,
                ..RunOptions::default()
            };
            let r = replays(&format!("{algo} kill"), &cfg(algo, 4), Some(&plan), opts);
            assert_eq!(r.replication.expect("standby attached").failovers, 1, "{algo}");
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_restart_and_its_resume_replay() {
    let c = cfg(Algorithm::Asgd, 4);
    let path = std::env::temp_dir().join(format!("lcasgd_replay_{}.ckpt", std::process::id()));
    let plan = FaultPlan::new().with_server_restart(29);
    let opts = || RunOptions {
        fault_plan: Some(plan.clone()),
        checkpoint_path: Some(path.clone()),
        checkpoint_every: 7,
        ..RunOptions::default()
    };
    let halted = replays("halted half", &c, Some(&plan), opts);
    assert!(halted.faults.expect("the plan reports").server_halted);
    let ck = TrainingCheckpoint::load(&path).expect("the halt wrote a checkpoint");
    std::fs::remove_file(&path).ok();
    let opts = || RunOptions { resume: Some(ck.clone()), ..RunOptions::default() };
    let resumed = replays("resumed half", &c, None, opts);
    assert_eq!(resumed.faults.expect("a resume reports").resumed_at, 29);
}
