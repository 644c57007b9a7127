//! [`ClusterBackend`] adapter for the discrete-event simulator.
//!
//! Workers run as real OS threads executing arbitrary `worker_fn` code,
//! while message *ordering* is decided by the simulator's virtual clock —
//! so algorithm code sees heterogeneous-cluster staleness (stragglers,
//! jitter, slow links) without the algorithm layer scheduling anything.
//!
//! The driver uses a conservative gate: a message is handed to the server
//! closure only once every live worker is either blocked on a reply or
//! finished. At that point the pending set is complete, so the earliest
//! virtual arrival is processed exactly as `ClusterSim`'s direct callers
//! would. Per-worker virtual clocks advance by sampled compute time (the
//! first message of each phase is charged [`ClusterSim::nominal_cost`])
//! plus sampled up/downlink latencies, all from the same per-worker RNG
//! streams as direct simulation.
//!
//! Payloads cross the thread boundary *encoded*, making the simulator a
//! faithful rehearsal of the TCP backend: byte counts in
//! [`TransportStats`] are real, and a codec bug fails here first.

use crate::backend::{
    ClockDomain, ClusterBackend, ClusterError, ServerCtx, TraceHook, TransportStats, WireMsg,
    WorkerLink,
};
use crate::faults::{FaultHooks, FaultyLink};
use crate::sim::ClusterSim;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use std::time::Instant;

/// The simulator payload used by backend-driven runs: an encoded message
/// plus its delivery kind.
pub struct SimPayload {
    bytes: Vec<u8>,
    expects_reply: bool,
}

enum WorkerEvent {
    Msg {
        worker: usize,
        bytes: Vec<u8>,
        expects_reply: bool,
    },
    Done {
        worker: usize,
    },
    /// An injected crash: the driver charges the restart delay to the
    /// worker's virtual clock (a permanent crash is followed by `Done`).
    Crashed {
        worker: usize,
        restart_after_ms: Option<u32>,
    },
    /// An injected link stall, charged in virtual seconds.
    Delay {
        worker: usize,
        seconds: f64,
    },
}

struct SimLink<Resp> {
    worker: usize,
    tx: Sender<WorkerEvent>,
    reply_rx: Receiver<Vec<u8>>,
    _resp: std::marker::PhantomData<Resp>,
}

impl<Req: WireMsg, Resp: WireMsg> WorkerLink<Req, Resp> for SimLink<Resp> {
    fn worker(&self) -> usize {
        self.worker
    }

    fn request(&mut self, req: Req) -> Result<Resp, ClusterError> {
        let msg =
            WorkerEvent::Msg { worker: self.worker, bytes: req.encoded(), expects_reply: true };
        self.tx.send(msg).map_err(|_| ClusterError::Disconnected)?;
        let bytes = self.reply_rx.recv().map_err(|_| ClusterError::Disconnected)?;
        Resp::decoded(&bytes)
    }

    fn send(&mut self, req: Req) -> Result<Option<Req>, ClusterError> {
        let msg =
            WorkerEvent::Msg { worker: self.worker, bytes: req.encoded(), expects_reply: false };
        self.tx.send(msg).map_err(|_| ClusterError::Disconnected)?;
        Ok(Some(req))
    }
}

impl<Resp> FaultHooks for SimLink<Resp> {
    fn fault_crash(&mut self, restart_after_ms: Option<u32>) {
        let _ = self.tx.send(WorkerEvent::Crashed { worker: self.worker, restart_after_ms });
    }

    fn fault_delay(&mut self, delay_ms: u32) {
        // Virtual, not wall-clock: the driver advances this worker's clock.
        let seconds = f64::from(delay_ms) / 1e3;
        let _ = self.tx.send(WorkerEvent::Delay { worker: self.worker, seconds });
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WState {
    /// Executing `worker_fn` code; may still produce messages.
    Running,
    /// Blocked in `request()` awaiting a reply.
    Awaiting,
    /// `worker_fn` returned.
    Done,
}

impl ClusterBackend for ClusterSim<SimPayload> {
    fn workers(&self) -> usize {
        self.num_workers()
    }

    fn clock_domain(&self) -> ClockDomain {
        ClockDomain::Virtual
    }

    fn attach_trace_hook(&mut self, hook: std::sync::Arc<dyn TraceHook>) {
        self.set_trace_hook(hook);
    }

    fn run<Req, Resp, S, W>(
        mut self,
        mut server_fn: S,
        worker_fn: W,
    ) -> Result<TransportStats, ClusterError>
    where
        Req: WireMsg + Send + 'static,
        Resp: WireMsg + Send + 'static,
        S: FnMut(usize, Req, &mut ServerCtx<Resp>),
        W: Fn(usize, &mut dyn WorkerLink<Req, Resp>) + Send + Sync,
    {
        let m = self.num_workers();
        let nominal = self.nominal_cost();
        let plan = self.fault_plan().cloned();
        let hook = self.trace_hook();
        let (tx, rx) = unbounded::<WorkerEvent>();
        let mut reply_txs: Vec<Option<Sender<Vec<u8>>>> = Vec::with_capacity(m);
        let mut reply_rxs: Vec<Option<Receiver<Vec<u8>>>> = Vec::with_capacity(m);
        for _ in 0..m {
            let (rtx, rrx) = bounded(1);
            reply_txs.push(Some(rtx));
            reply_rxs.push(Some(rrx));
        }

        let mut stats = TransportStats::default();
        let mut state = vec![WState::Running; m];
        // Virtual time at which each worker's current phase started.
        let mut vt = vec![0.0f64; m];
        // Virtual time each worker's outstanding request left the worker.
        let mut sent_at = vec![0.0f64; m];
        // Charge the nominal compute cost on the first message of each
        // phase (a phase begins when a reply is delivered); follow-up
        // messages in the same phase (e.g. grad push right after a state
        // push) only pay the wire.
        let mut charge_phase = vec![false; m];
        let mut result: Result<(), ClusterError> = Ok(());

        std::thread::scope(|scope| {
            for (w, slot) in reply_rxs.iter_mut().enumerate() {
                let mut link = SimLink {
                    worker: w,
                    tx: tx.clone(),
                    reply_rx: slot.take().expect("reply receiver taken twice"),
                    _resp: std::marker::PhantomData,
                };
                let worker_fn = &worker_fn;
                let done_tx = tx.clone();
                let plan = plan.clone();
                scope.spawn(move || {
                    // A panicking worker must still report Done, or the
                    // driver's gate would wait on it forever.
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        match plan {
                            None => worker_fn(w, &mut link),
                            Some(plan) => {
                                let mut link = FaultyLink::new(link, w, &plan);
                                loop {
                                    worker_fn(w, &mut link);
                                    if link.crashed_restart_ms().is_none() {
                                        break; // finished, or dead for good
                                    }
                                    // The restart delay is virtual (already
                                    // charged by the driver): re-invoke now.
                                    link.resume();
                                }
                            }
                        }
                    }));
                    let _ = done_tx.send(WorkerEvent::Done { worker: w });
                    if let Err(payload) = outcome {
                        std::panic::resume_unwind(payload);
                    }
                });
            }
            drop(tx);

            let mut running = m;
            let mut done = 0;
            'drive: loop {
                // Conservative gate: wait until no worker can still emit a
                // message for the current decision point.
                while running > 0 {
                    match rx.recv() {
                        Ok(WorkerEvent::Msg { worker: w, bytes, expects_reply }) => {
                            let cost = if charge_phase[w] { nominal } else { 0.0 };
                            charge_phase[w] = false;
                            stats.bytes_sent += bytes.len() as u64;
                            let dur =
                                self.submit(w, vt[w], cost, SimPayload { bytes, expects_reply });
                            if dur > 0.0 {
                                if let Some(h) = &hook {
                                    h.virt_span(Some(w), "compute", vt[w], dur);
                                }
                            }
                            vt[w] += dur;
                            if expects_reply {
                                sent_at[w] = vt[w];
                                state[w] = WState::Awaiting;
                                running -= 1;
                                stats.requests += 1;
                            } else {
                                stats.oneways += 1;
                            }
                        }
                        Ok(WorkerEvent::Done { worker: w }) => {
                            state[w] = WState::Done;
                            running -= 1;
                            done += 1;
                        }
                        Ok(WorkerEvent::Crashed { worker: w, restart_after_ms }) => {
                            // The worker stays `Running` (it re-invokes and
                            // keeps sending) and pays the outage virtually;
                            // a permanent crash is followed by `Done`.
                            if let Some(ms) = restart_after_ms {
                                let outage = f64::from(ms) / 1e3;
                                if let Some(h) = &hook {
                                    h.virt_span(Some(w), "fault_inject", vt[w], outage);
                                }
                                vt[w] += outage;
                            }
                        }
                        Ok(WorkerEvent::Delay { worker: w, seconds }) => {
                            if let Some(h) = &hook {
                                h.virt_span(Some(w), "fault_inject", vt[w], seconds);
                            }
                            vt[w] += seconds;
                        }
                        // All senders gone: every worker thread exited.
                        Err(_) => break,
                    }
                }

                let Some(arrival) = self.next_arrival() else {
                    if done == m {
                        break 'drive;
                    }
                    result = Err(ClusterError::Protocol(
                        "workers blocked on replies with an empty event queue".into(),
                    ));
                    break 'drive;
                };

                if let Some(h) = &hook {
                    h.virt_now(self.now());
                }
                let w = arrival.worker;
                let t0 = Instant::now();
                let req = match Req::decoded(&arrival.payload.bytes) {
                    Ok(req) => req,
                    Err(e) => {
                        result = Err(e);
                        break 'drive;
                    }
                };
                let decode = t0.elapsed().as_secs_f64();
                stats.serialize_seconds += decode;
                if let Some(h) = &hook {
                    h.wall_span(Some(w), "codec", t0, decode);
                }

                let mut ctx = ServerCtx::new(w, arrival.payload.expects_reply);
                server_fn(w, req, &mut ctx);

                for (target, resp) in ctx.take_replies() {
                    if target >= m || state[target] != WState::Awaiting {
                        result = Err(ClusterError::Protocol(format!(
                            "reply to worker {target}, which has no pending request"
                        )));
                        break 'drive;
                    }
                    let t0 = Instant::now();
                    let bytes = resp.encoded();
                    let encode = t0.elapsed().as_secs_f64();
                    stats.serialize_seconds += encode;
                    if let Some(h) = &hook {
                        h.wall_span(Some(target), "codec", t0, encode);
                    }
                    stats.bytes_received += bytes.len() as u64;

                    // The reply reaches the worker after a sampled downlink;
                    // that moment starts the worker's next compute phase.
                    let down = self.downlink(target);
                    let receive_at = self.now() + down;
                    stats.rtt.record((receive_at - sent_at[target]).max(0.0));
                    if let Some(h) = &hook {
                        // The request round trip, from the worker's view:
                        // uplink + server queueing/processing + downlink.
                        h.virt_span(
                            Some(target),
                            "comm",
                            sent_at[target],
                            (receive_at - sent_at[target]).max(0.0),
                        );
                        h.virt_now(receive_at);
                    }
                    vt[target] = receive_at;
                    charge_phase[target] = true;
                    state[target] = WState::Running;
                    running += 1;
                    let sender = reply_txs[target].as_ref().expect("reply sender present");
                    let _ = sender.send(bytes);
                }
            }

            // Unblock any workers still waiting (error paths), then drain
            // their remaining traffic so the scope can join.
            reply_txs.iter_mut().for_each(|t| *t = None);
            while rx.recv().is_ok() {}
        });

        result.map(|()| stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ClusterSpec;

    fn sim(m: usize, seed: u64) -> ClusterSim<SimPayload> {
        ClusterSim::new(ClusterSpec::heterogeneous(m, seed)).with_nominal_cost(1.0)
    }

    #[test]
    fn request_reply_over_virtual_time() {
        let mut served = 0u32;
        let stats = sim(4, 7)
            .run(
                |_w, _req: u32, ctx: &mut ServerCtx<u32>| {
                    served += 1;
                    ctx.reply(served)
                },
                |_w, h| {
                    let mut last = 0;
                    for _ in 0..5 {
                        let v = h.request(1).unwrap();
                        assert!(v > last, "server counter must increase");
                        last = v;
                    }
                },
            )
            .unwrap();
        assert_eq!(served, 20);
        assert_eq!(stats.requests, 20);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
        assert_eq!(stats.rtt.count(), 20);
        // Virtual RTTs include a ≥1s compute phase only on the send side
        // of the *next* request; the recorded RTT covers wire + queueing.
        assert!(stats.rtt.mean_seconds() > 0.0);
    }

    #[test]
    fn oneway_traffic_reaches_server() {
        let mut sum = 0u64;
        sim(3, 1)
            .run(
                |_w, req: u64, _ctx: &mut ServerCtx<()>| sum += req,
                |_w, h| {
                    for i in 1..=10u64 {
                        h.send(i).unwrap();
                    }
                },
            )
            .unwrap();
        assert_eq!(sum, 3 * 55);
    }

    #[test]
    fn phase_pattern_matches_trainer_protocol() {
        // pull (request) → grad (oneway) → pull … : the ASGD shape.
        let mut versions = 0u64;
        let mut grads = 0usize;
        sim(4, 3)
            .run(
                |_w, req: Vec<f32>, ctx: &mut ServerCtx<u64>| {
                    if req.is_empty() {
                        versions += 1;
                        ctx.reply(versions);
                    } else {
                        grads += 1;
                    }
                },
                |_w, h| {
                    for _ in 0..6 {
                        let _v = h.request(Vec::new()).unwrap();
                        h.send(vec![1.0, 2.0, 3.0]).unwrap();
                    }
                },
            )
            .unwrap();
        assert_eq!(versions, 24);
        assert_eq!(grads, 24);
    }

    #[test]
    fn deferred_barrier_over_virtual_time() {
        let mut waiting: Vec<usize> = Vec::new();
        sim(4, 9)
            .run(
                |w, _req: u8, ctx: &mut ServerCtx<u8>| {
                    waiting.push(w);
                    if waiting.len() == 4 {
                        for t in waiting.drain(..) {
                            ctx.reply_to(t, 1);
                        }
                    }
                },
                |_w, h| {
                    for _ in 0..3 {
                        assert_eq!(h.request(0).unwrap(), 1);
                    }
                },
            )
            .unwrap();
    }

    #[test]
    fn bad_reply_target_is_protocol_error() {
        let err = sim(2, 5)
            .run(
                |_w, _req: u8, ctx: &mut ServerCtx<u8>| ctx.reply_to(1, 0),
                |w, h| {
                    if w == 0 {
                        let _ = h.request(0);
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, ClusterError::Protocol(_)));
    }
}
