//! Real-thread parameter-server scaffold.
//!
//! The discrete-event simulator gives reproducible staleness; this backend
//! gives *organic* staleness from genuine OS-level asynchrony. Both
//! implement [`ClusterBackend`], so lcasgd-core's algorithms can be
//! validated on either — and on the TCP backend (`lcasgd-netcluster`),
//! which speaks the same protocol across real sockets.
//!
//! Topology: one server loop on the caller's thread, `m` worker threads.
//! Workers send `Req`s through an MPSC channel; blocking requests are
//! answered through a per-worker reply channel, which also lets the server
//! *defer* a reply and release it from a later message's handler (the
//! SSGD barrier). The server applies a closure to every request in arrival
//! order — mirroring Algorithm 2's `repeat … until forever` loop — until
//! all workers have hung up.

use crate::backend::{
    ClusterBackend, ClusterError, ServerCtx, StopSignal, TransportStats, WireMsg, WorkerLink,
};
use crate::codec::WireCodec;
use crate::faults::{FaultHooks, FaultPlan, FaultyLink};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

/// A worker's handle to the server. Fallible: a vanished server surfaces
/// as [`ClusterError::Disconnected`] rather than a panic, exactly like a
/// dead TCP peer in the net backend.
pub struct WorkerHandle<Req, Resp> {
    worker: usize,
    tx: Sender<Envelope<Req>>,
    reply_rx: Receiver<Resp>,
}

struct Envelope<Req> {
    worker: usize,
    msg: EnvMsg<Req>,
}

enum EnvMsg<Req> {
    /// A protocol message (`expects_reply` selects request vs oneway).
    Payload { req: Req, expects_reply: bool },
    /// Control: the worker entered a crash-restart sleep of `delay_ms`.
    Sleeping { delay_ms: u32 },
    /// Control: the worker woke from its restart sleep and resumed.
    Woke,
    /// Control: the worker's thread is about to exit (finished or dead
    /// for good). Only the fault-plan path emits control messages.
    Hangup,
}

impl<Req: Send, Resp: Send> WorkerHandle<Req, Resp> {
    /// Sends a request and blocks for the server's response (pull weights,
    /// push state and await ℓ_delay, …).
    pub fn request(&self, req: Req) -> Result<Resp, ClusterError> {
        self.tx
            .send(Envelope {
                worker: self.worker,
                msg: EnvMsg::Payload { req, expects_reply: true },
            })
            .map_err(|_| ClusterError::Disconnected)?;
        self.reply_rx.recv().map_err(|_| ClusterError::Disconnected)
    }

    /// Fire-and-forget send (push gradients).
    pub fn send(&self, req: Req) -> Result<(), ClusterError> {
        self.tx
            .send(Envelope {
                worker: self.worker,
                msg: EnvMsg::Payload { req, expects_reply: false },
            })
            .map_err(|_| ClusterError::Disconnected)
    }

    /// This worker's rank.
    pub fn worker(&self) -> usize {
        self.worker
    }
}

impl<Req: Send, Resp: Send> WorkerLink<Req, Resp> for WorkerHandle<Req, Resp> {
    fn worker(&self) -> usize {
        self.worker
    }

    fn request(&mut self, req: Req) -> Result<Resp, ClusterError> {
        WorkerHandle::request(self, req)
    }

    fn send(&mut self, req: Req) -> Result<Option<Req>, ClusterError> {
        WorkerHandle::send(self, req).map(|()| None)
    }
}

// Crashes are injected before an op executes, so the channel never holds a
// stale in-flight reply at crash time: the default (do-nothing) crash hook
// and wall-clock delay hook are exactly right for an in-process transport.
impl<Req: Send, Resp: Send> FaultHooks for WorkerHandle<Req, Resp> {}

/// The real-thread backend: `m` OS threads against a serialized server
/// loop on the calling thread.
pub struct ThreadCluster {
    workers: usize,
    fault_plan: Option<FaultPlan>,
    shutdown_deadline: Duration,
    wire_codec: WireCodec,
}

impl ThreadCluster {
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        ThreadCluster {
            workers,
            fault_plan: None,
            shutdown_deadline: Duration::from_secs(30),
            wire_codec: WireCodec::F32,
        }
    }

    /// Selects the wire codec advertised to the protocol layer. This
    /// backend ships values over channels without serializing, but the
    /// protocol still quantizes dense payloads when asked — the lossy
    /// effect lives in the message variants, so a quantized run here
    /// matches a quantized run over TCP.
    pub fn with_wire_codec(mut self, codec: WireCodec) -> Self {
        self.wire_codec = codec;
        self
    }

    /// Attaches a fault schedule: each worker's link is wrapped in a
    /// [`FaultyLink`], and crashed workers restart after a wall-clock
    /// delay.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Caps how long `run` waits on crash-restart sleeps once every
    /// remaining worker is asleep. When the longest pending restart
    /// exceeds the deadline, the pending restarts are aborted (the
    /// sleeping threads wake immediately and exit) and the run returns —
    /// worker threads are always *joined*, never detached, so a plan with
    /// a pathological restart delay cannot leak threads past the run.
    pub fn with_shutdown_deadline(mut self, deadline: Duration) -> Self {
        self.shutdown_deadline = deadline;
        self
    }
}

impl ClusterBackend for ThreadCluster {
    fn workers(&self) -> usize {
        self.workers
    }

    fn wire_codec(&self) -> WireCodec {
        self.wire_codec
    }

    fn run<Req, Resp, S, W>(
        self,
        mut server_fn: S,
        worker_fn: W,
    ) -> Result<TransportStats, ClusterError>
    where
        Req: WireMsg + Send + 'static,
        Resp: WireMsg + Send + 'static,
        S: FnMut(usize, Req, &mut ServerCtx<Resp>),
        W: Fn(usize, &mut dyn WorkerLink<Req, Resp>) + Send + Sync,
    {
        let m = self.workers;
        let plan = self.fault_plan;
        let deadline = self.shutdown_deadline;
        let (tx, rx): (Sender<Envelope<Req>>, Receiver<Envelope<Req>>) = unbounded();
        // Persistent per-worker reply channels: capacity 1 suffices since a
        // worker has at most one outstanding blocking request.
        let mut reply_txs: Vec<Option<Sender<Resp>>> = Vec::with_capacity(m);
        let mut reply_rxs: Vec<Option<Receiver<Resp>>> = Vec::with_capacity(m);
        for _ in 0..m {
            let (rtx, rrx) = bounded(1);
            reply_txs.push(Some(rtx));
            reply_rxs.push(Some(rrx));
        }

        let mut stats = TransportStats::default();
        let mut awaiting = vec![false; m];
        let mut result = Ok(());
        let mut server_panic = None;
        let stop = StopSignal::default();

        thread::scope(|scope| {
            for (w, slot) in reply_rxs.iter_mut().enumerate() {
                let mut handle = WorkerHandle {
                    worker: w,
                    tx: tx.clone(),
                    reply_rx: slot.take().expect("reply receiver taken twice"),
                };
                let worker_fn = &worker_fn;
                let plan = plan.clone();
                let ctl = tx.clone();
                let stop = &stop;
                let learner = move || match plan {
                    None => worker_fn(w, &mut handle),
                    Some(plan) => {
                        let mut link = FaultyLink::new(handle, w, &plan);
                        let send = |msg| {
                            let _ = ctl.send(Envelope { worker: w, msg });
                        };
                        link.run_restarting(
                            |link| worker_fn(w, link),
                            |delay_ms| {
                                // Announce the sleep so the serve loop can
                                // distinguish "everyone mid-restart" from
                                // "messages in flight", then sleep
                                // interruptibly: a shutdown abort wakes the
                                // thread immediately and ends it.
                                send(EnvMsg::Sleeping { delay_ms });
                                let aborted = stop.wait(Duration::from_millis(u64::from(delay_ms)));
                                if !aborted {
                                    send(EnvMsg::Woke);
                                }
                                aborted
                            },
                        );
                        send(EnvMsg::Hangup);
                    }
                };
                thread::Builder::new()
                    .name(format!("learner-{w}"))
                    .spawn_scoped(scope, learner)
                    .expect("spawn a learner thread");
            }
            // Drop the original sender so the loop ends when workers do.
            drop(tx);

            // How long each recv waits before re-checking worker status.
            let tick = deadline.min(Duration::from_millis(20)).max(Duration::from_millis(1));
            let mut done = vec![false; m];
            let mut wake_at: Vec<Option<Instant>> = vec![None; m];

            'serve: loop {
                let env = match rx.recv_timeout(tick) {
                    Ok(env) => Some(env),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break 'serve,
                };
                if let Some(env) = env {
                    let w = env.worker;
                    match env.msg {
                        EnvMsg::Sleeping { delay_ms } => {
                            wake_at[w] =
                                Some(Instant::now() + Duration::from_millis(u64::from(delay_ms)));
                            continue;
                        }
                        EnvMsg::Woke => {
                            wake_at[w] = None;
                            continue;
                        }
                        EnvMsg::Hangup => {
                            done[w] = true;
                            wake_at[w] = None;
                            if done.iter().all(|&d| d) {
                                break 'serve;
                            }
                            continue;
                        }
                        EnvMsg::Payload { req, expects_reply } => {
                            if expects_reply {
                                awaiting[w] = true;
                                stats.requests += 1;
                            } else {
                                stats.oneways += 1;
                            }
                            let mut ctx = ServerCtx::new(w, expects_reply);
                            // A panicking server must not leave the workers
                            // blocked on replies, which the scope would wait
                            // for forever: unblock them (as below), and
                            // re-raise once they have joined.
                            let served =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    server_fn(w, req, &mut ctx)
                                }));
                            if let Err(panic) = served {
                                server_panic = Some(panic);
                                reply_txs.iter_mut().for_each(|t| *t = None);
                                break 'serve;
                            }
                            for (target, resp) in ctx.take_replies() {
                                if target >= m || !awaiting[target] {
                                    result = Err(ClusterError::Protocol(format!(
                                        "reply to worker {target}, which has no pending request"
                                    )));
                                    // Unblock everyone: dropping the reply
                                    // senders turns their pending recv()s
                                    // into Disconnected errors.
                                    reply_txs.iter_mut().for_each(|t| *t = None);
                                    break 'serve;
                                }
                                awaiting[target] = false;
                                let sender =
                                    reply_txs[target].as_ref().expect("reply sender present");
                                // The worker may have panicked; a closed
                                // channel here is its problem, not a
                                // server error.
                                let _ = sender.send(resp);
                            }
                        }
                    }
                }

                // Shutdown deadline: every remaining worker is asleep in a
                // crash-restart delay, and the longest pending sleep
                // overruns the deadline — abort the restarts so the run
                // (and the thread join below) can't stall arbitrarily.
                let now = Instant::now();
                let all_parked = done.iter().zip(&wake_at).all(|(&d, wake)| d || wake.is_some());
                if all_parked {
                    let worst =
                        wake_at.iter().flatten().map(|t| t.saturating_duration_since(now)).max();
                    if worst.is_some_and(|left| left > deadline) {
                        break 'serve;
                    }
                }
            }

            // Wake any threads still parked in restart sleeps; the scope
            // then joins every worker within one sleep-wakeup, never
            // detaching them.
            stop.stop();
        });

        if let Some(panic) = server_panic {
            std::panic::resume_unwind(panic);
        }
        result.map(|()| stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn counter_server_sums_worker_contributions() {
        let mut total = 0u64;
        let stats = ThreadCluster::new(4)
            .run(
                |_w, req: u64, _ctx: &mut ServerCtx<()>| {
                    total += req;
                },
                |_w, h| {
                    for i in 1..=10u64 {
                        h.send(i).unwrap();
                    }
                },
            )
            .unwrap();
        assert_eq!(total, 4 * 55);
        assert_eq!(stats.oneways, 40);
        assert_eq!(stats.requests, 0);
    }

    #[test]
    fn each_learner_runs_on_a_thread_named_after_its_rank() {
        let names = std::sync::Mutex::new(Vec::new());
        ThreadCluster::new(2)
            .run(
                |_w, _req: u8, _ctx: &mut ServerCtx<()>| {},
                |w, _h| {
                    let name = thread::current().name().map(str::to_owned);
                    names.lock().unwrap().push((w, name));
                },
            )
            .unwrap();
        let mut names = names.into_inner().unwrap();
        names.sort();
        assert_eq!(names[0], (0, Some("learner-0".to_owned())));
        assert_eq!(names[1], (1, Some("learner-1".to_owned())));
    }

    #[test]
    fn a_panicking_server_fails_the_run_instead_of_hanging_it() {
        let run = std::panic::catch_unwind(|| {
            ThreadCluster::new(3).run(
                |_w, _req: u8, _ctx: &mut ServerCtx<u8>| panic!("server invariant broken"),
                |_w, h| {
                    // The reply never comes: the request fails instead.
                    assert!(h.request(0).is_err());
                },
            )
        });
        let panic = run.expect_err("the server's panic reaches the caller");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"server invariant broken"));
    }

    #[test]
    fn request_reply_roundtrip() {
        let counter = AtomicUsize::new(0);
        let stats = ThreadCluster::new(3)
            .run(
                |w, _req: u32, ctx: &mut ServerCtx<u64>| ctx.reply(w as u64 * 100),
                |w, h| {
                    let resp = h.request(0).unwrap();
                    assert_eq!(resp, w as u64 * 100);
                    counter.fetch_add(1, Ordering::SeqCst);
                },
            )
            .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 3);
        assert_eq!(stats.requests, 3);
    }

    #[test]
    fn server_processes_sequentially() {
        // The server closure is FnMut with exclusive state: no locking
        // needed, by construction. Interleave blocking+nonblocking traffic.
        let mut log: Vec<(usize, u32)> = Vec::new();
        ThreadCluster::new(2)
            .run(
                |w, req: u32, ctx: &mut ServerCtx<u32>| {
                    log.push((w, req));
                    if ctx.expects_reply() {
                        ctx.reply(req * 2);
                    }
                },
                |_w, h| {
                    for i in 0..5 {
                        let r = h.request(i).unwrap();
                        assert_eq!(r, i * 2);
                        h.send(999).unwrap();
                    }
                },
            )
            .unwrap();
        assert_eq!(log.len(), 20);
    }

    #[test]
    fn worker_ranks_are_distinct() {
        let seen = parking_lot::Mutex::new(Vec::new());
        ThreadCluster::new(8)
            .run(
                |_w, _req: u8, ctx: &mut ServerCtx<u8>| ctx.reply(0),
                |w, h| {
                    assert_eq!(h.worker(), w);
                    seen.lock().push(w);
                    let _ = h.request(0).unwrap();
                },
            )
            .unwrap();
        let mut v = seen.into_inner();
        v.sort_unstable();
        assert_eq!(v, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn deferred_replies_implement_a_barrier() {
        // SSGD-style: nobody advances until every worker's message is in.
        let mut blocked: Vec<usize> = Vec::new();
        let rounds = 5u32;
        ThreadCluster::new(4)
            .run(
                |w, round: u32, ctx: &mut ServerCtx<u32>| {
                    blocked.push(w);
                    if blocked.len() == 4 {
                        for target in blocked.drain(..) {
                            ctx.reply_to(target, round);
                        }
                    }
                },
                |_w, h| {
                    for round in 0..rounds {
                        let r = h.request(round).unwrap();
                        assert_eq!(r, round);
                    }
                },
            )
            .unwrap();
    }

    #[test]
    fn reply_to_idle_worker_is_a_protocol_error() {
        let err = ThreadCluster::new(2)
            .run(
                |_w, _req: u8, ctx: &mut ServerCtx<u8>| {
                    // Worker 1 never sent a blocking request.
                    ctx.reply_to(1, 0);
                },
                |w, h| {
                    if w == 0 {
                        // Either an explicit error or a successful reply is
                        // acceptable here; the run itself must error.
                        let _ = h.request(0);
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(_)));
    }

    #[test]
    fn shutdown_deadline_aborts_pathological_restarts() {
        use crate::faults::{FaultKind, FaultPlan, FaultRecord};
        // Worker 0 crashes with a 60 s restart delay it will never serve
        // out: once worker 1 finishes, the serve loop sees everyone parked
        // past the 50 ms deadline, aborts the restart, and joins the
        // sleeping thread instead of waiting the minute (or detaching it).
        let plan =
            FaultPlan::new().with_event(0, 2, FaultKind::Crash { restart_after_ms: Some(60_000) });
        let t0 = Instant::now();
        ThreadCluster::new(2)
            .with_fault_plan(plan.clone())
            .with_shutdown_deadline(Duration::from_millis(50))
            .run(
                |_w, req: u32, ctx: &mut ServerCtx<u32>| {
                    if ctx.expects_reply() {
                        ctx.reply(req);
                    }
                },
                |_w, h| {
                    for i in 0..5u32 {
                        if h.request(i).is_err() {
                            return;
                        }
                    }
                },
            )
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10), "deadline must abort the 60s restart");
        assert_eq!(
            plan.records()
                .iter()
                .filter(|r| matches!(r, FaultRecord::WorkerRestarted { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn short_restarts_still_complete_under_the_deadline() {
        use crate::faults::{FaultKind, FaultPlan, FaultRecord};
        let plan =
            FaultPlan::new().with_event(0, 1, FaultKind::Crash { restart_after_ms: Some(5) });
        let completed = AtomicUsize::new(0);
        ThreadCluster::new(2)
            .with_fault_plan(plan.clone())
            .with_shutdown_deadline(Duration::from_secs(30))
            .run(
                |_w, req: u32, ctx: &mut ServerCtx<u32>| {
                    if ctx.expects_reply() {
                        ctx.reply(req);
                    }
                },
                |_w, h| {
                    for i in 0..3u32 {
                        if h.request(i).is_err() {
                            return;
                        }
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                },
            )
            .unwrap();
        // Worker 0's first incarnation dies at op 1, restarts after 5 ms,
        // and the fresh invocation completes all three requests.
        assert_eq!(completed.load(Ordering::SeqCst), 2);
        assert!(plan.records().iter().any(|r| matches!(r, FaultRecord::WorkerRestarted { .. })));
    }

    #[test]
    fn dead_server_surfaces_as_error_not_panic() {
        // After the protocol violation aborts the server loop, blocked and
        // future worker calls get Err(Disconnected) instead of panicking.
        let observed = parking_lot::Mutex::new(Vec::new());
        let err = ThreadCluster::new(2)
            .run(
                |w, _req: u8, ctx: &mut ServerCtx<u8>| {
                    if w == 0 {
                        ctx.reply_to(1, 0); // worker 1 has no pending request
                    }
                },
                |w, h| {
                    if w == 0 {
                        let r = h.request(0);
                        observed.lock().push(r.is_err());
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(_)));
        assert_eq!(observed.into_inner(), vec![true]);
    }
}
