//! `ClusterSim`: the discrete-event engine tying worker compute phases,
//! link latencies and serialized server processing together.
//!
//! The simulator is generic over the message payload `T` so the algorithm
//! layer (lcasgd-core) owns all semantic state; this crate owns *time*.
//!
//! Protocol model: a worker finishes a local compute phase of some nominal
//! cost, then its message travels uplink to the server. The server
//! processes arrivals strictly in arrival order, one at a time (it may
//! charge processing time, e.g. LC-ASGD's predictor updates); a reply then
//! travels downlink and the worker starts its next phase. All of pull /
//! state-push / gradient-push map onto this one primitive. Each worker's
//! uplink is FIFO, as a channel or a TCP stream is: a message never
//! reaches the server before one its worker sent earlier.

use crate::event::{EventQueue, SimTime};
use crate::faults::FaultPlan;
use crate::models::ClusterSpec;
use lcasgd_tensor::Rng;

/// A message arrival at the server.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival<T> {
    /// Virtual time at which the server *starts processing* the message
    /// (≥ wire arrival when the server is busy).
    pub time: SimTime,
    /// Sender.
    pub worker: usize,
    /// Algorithm-defined payload.
    pub payload: T,
}

struct Pending<T> {
    worker: usize,
    payload: T,
}

/// Discrete-event cluster simulator.
pub struct ClusterSim<T> {
    spec: ClusterSpec,
    queue: EventQueue<Pending<T>>,
    /// Virtual time the server becomes free.
    server_free: SimTime,
    now: SimTime,
    /// One RNG stream per worker (adding workers never perturbs others),
    /// plus one for the server.
    worker_rngs: Vec<Rng>,
    /// Wire arrival of each worker's latest message: the next one arrives
    /// no earlier (FIFO uplink).
    last_arrival: Vec<SimTime>,
    /// Cumulative busy time charged to the server (overhead accounting).
    server_busy_total: SimTime,
    /// Fault schedule interpreted by the backend adapter (direct `submit`
    /// callers are unaffected); restarts and link stalls are charged in
    /// virtual time, keeping faulty runs bit-reproducible.
    fault_plan: Option<FaultPlan>,
    /// Span observer used by the backend adapter. Purely an observer: the
    /// hook never influences scheduling, so traced and untraced runs are
    /// bit-identical.
    trace_hook: Option<std::sync::Arc<dyn crate::backend::TraceHook>>,
}

impl<T> ClusterSim<T> {
    /// Builds a simulator for the given cluster.
    pub fn new(spec: ClusterSpec) -> Self {
        let mut root = Rng::seed_from_u64(spec.seed ^ 0xD15C_7E7E);
        let worker_rngs = (0..spec.num_workers()).map(|i| root.fork(i as u64)).collect();
        ClusterSim {
            last_arrival: vec![0.0; spec.num_workers()],
            spec,
            queue: EventQueue::new(),
            server_free: 0.0,
            now: 0.0,
            worker_rngs,
            server_busy_total: 0.0,
            fault_plan: None,
            trace_hook: None,
        }
    }

    /// Installs the span observer used by the backend adapter.
    pub fn set_trace_hook(&mut self, hook: std::sync::Arc<dyn crate::backend::TraceHook>) {
        self.trace_hook = Some(hook);
    }

    /// The installed span observer, if any.
    pub fn trace_hook(&self) -> Option<std::sync::Arc<dyn crate::backend::TraceHook>> {
        self.trace_hook.clone()
    }

    /// Attaches a fault schedule for backend-driven runs (see
    /// [`crate::faults::FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// The attached fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.spec.num_workers()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total server busy time charged so far.
    pub fn server_busy_total(&self) -> SimTime {
        self.server_busy_total
    }

    /// Worker `w` starts a compute phase of nominal cost `nominal` at
    /// virtual time `start`, then sends `payload` to the server. Returns
    /// the sampled compute duration.
    pub fn submit(&mut self, worker: usize, start: SimTime, nominal: f64, payload: T) -> SimTime {
        let compute = self.compute_time(worker, nominal);
        self.send(worker, start + compute, payload);
        compute
    }

    /// Samples how long worker `w`'s compute phase of nominal cost
    /// `nominal` takes: the first half of [`submit`](Self::submit).
    pub fn compute_time(&mut self, worker: usize, nominal: f64) -> SimTime {
        self.spec.workers[worker].sample_time(nominal, &mut self.worker_rngs[worker])
    }

    /// Worker `w` sends `payload` at virtual time `at`; it reaches the
    /// server after a sampled uplink, and not before the worker's previous
    /// message (ties pop in send order). The second half of
    /// [`submit`](Self::submit).
    pub fn send(&mut self, worker: usize, at: SimTime, payload: T) {
        let uplink = self.spec.link.sample_latency(&mut self.worker_rngs[worker]);
        let arrival = (at + uplink).max(self.last_arrival[worker]);
        self.last_arrival[worker] = arrival;
        self.queue.push(arrival, Pending { worker, payload });
    }

    /// Samples a downlink latency for a reply to `worker` (the caller adds
    /// it to the reply's processing-finish time to get the worker-side
    /// receive time).
    pub fn downlink(&mut self, worker: usize) -> SimTime {
        let rng = &mut self.worker_rngs[worker];
        self.spec.link.sample_latency(rng)
    }

    /// Charges `dur` seconds of processing to the server (advances both
    /// the server-free horizon and current time).
    pub fn charge_server(&mut self, dur: SimTime) {
        assert!(dur >= 0.0);
        self.server_free = self.now.max(self.server_free) + dur;
        self.now = self.server_free;
        self.server_busy_total += dur;
    }

    /// Pops the next message in server-processing order. Advances `now`
    /// to the moment the server picks the message up.
    pub fn next_arrival(&mut self) -> Option<Arrival<T>> {
        let (wire_time, p) = self.queue.pop()?;
        // The server is serial: processing starts when both the message
        // has arrived and the server is free.
        let start = wire_time.max(self.server_free);
        self.now = start;
        self.server_free = start;
        Some(Arrival { time: start, worker: p.worker, payload: p.payload })
    }

    /// Number of in-flight messages.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{ClusterSpec, WorkerModel};

    #[test]
    fn uniform_cluster_processes_in_submission_order() {
        let mut sim: ClusterSim<u32> = ClusterSim::new(ClusterSpec::uniform(3));
        for w in 0..3 {
            sim.submit(w, 0.0, 1.0, w as u32);
        }
        // Identical times → FIFO: worker 0, 1, 2.
        for expect in 0..3u32 {
            let a = sim.next_arrival().unwrap();
            assert_eq!(a.payload, expect);
            assert_eq!(a.time, 1.0 + 1e-3, "a 1 s phase, then the 1 ms base uplink");
        }
    }

    #[test]
    fn a_worker_s_messages_arrive_in_send_order() {
        let mut spec = ClusterSpec::uniform(1);
        spec.link.jitter_mean = 5e-3;
        let mut sim: ClusterSim<u32> = ClusterSim::new(spec);
        for i in 0..200 {
            sim.send(0, 0.0, i);
        }
        let order: Vec<u32> =
            std::iter::from_fn(|| sim.next_arrival()).map(|a| a.payload).collect();
        assert_eq!(order, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn slower_worker_arrives_later() {
        let mut spec = ClusterSpec::uniform(2);
        spec.workers[0] = WorkerModel { speed: 3.0, ..Default::default() };
        let mut sim: ClusterSim<&str> = ClusterSim::new(spec);
        sim.submit(0, 0.0, 1.0, "slow");
        sim.submit(1, 0.0, 1.0, "fast");
        assert_eq!(sim.next_arrival().unwrap().payload, "fast");
        assert_eq!(sim.next_arrival().unwrap().payload, "slow");
    }

    #[test]
    fn server_serialization_delays_processing() {
        let mut sim: ClusterSim<u32> = ClusterSim::new(ClusterSpec::uniform(2));
        sim.submit(0, 0.0, 1.0, 0);
        sim.submit(1, 0.0, 1.0, 1);
        let a0 = sim.next_arrival().unwrap();
        // Server takes 5 time units processing the first message.
        sim.charge_server(5.0);
        let a1 = sim.next_arrival().unwrap();
        assert!(a1.time >= a0.time + 5.0, "second message must wait for the busy server");
    }

    #[test]
    fn time_is_monotonic() {
        let mut sim: ClusterSim<usize> = ClusterSim::new(ClusterSpec::heterogeneous(4, 9));
        for w in 0..4 {
            sim.submit(w, 0.0, 1.0, w);
        }
        let mut last = 0.0;
        for _ in 0..20 {
            let Some(a) = sim.next_arrival() else { break };
            assert!(a.time >= last);
            last = a.time;
            // Round-trip: schedule the worker's next phase.
            let down = sim.downlink(a.worker);
            sim.submit(a.worker, a.time + down, 1.0, a.worker);
        }
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim: ClusterSim<usize> = ClusterSim::new(ClusterSpec::heterogeneous(4, 42));
            for w in 0..4 {
                sim.submit(w, 0.0, 1.0, w);
            }
            let mut trace = Vec::new();
            for _ in 0..50 {
                let a = sim.next_arrival().unwrap();
                trace.push((a.worker, (a.time * 1e9) as u64));
                let down = sim.downlink(a.worker);
                sim.submit(a.worker, a.time + down, 1.0, a.worker);
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn heterogeneous_staleness_emerges() {
        // With jitter, arrival order deviates from strict round-robin —
        // the raw material of the staleness the paper studies.
        let mut sim: ClusterSim<usize> = ClusterSim::new(ClusterSpec::heterogeneous(8, 5));
        for w in 0..8 {
            sim.submit(w, 0.0, 1.0, w);
        }
        let mut order = Vec::new();
        for _ in 0..200 {
            let a = sim.next_arrival().unwrap();
            order.push(a.worker);
            let down = sim.downlink(a.worker);
            sim.submit(a.worker, a.time + down, 1.0, a.worker);
        }
        // Count inversions vs. strict round robin of the first arrival order.
        let mut deviations = 0;
        for w in order.windows(16) {
            let first: Vec<usize> = w[..8].to_vec();
            let second: Vec<usize> = w[8..].to_vec();
            if first != second {
                deviations += 1;
            }
        }
        assert!(deviations > 0, "expected order variance under jitter");
    }

    #[test]
    fn server_busy_total_accumulates() {
        let mut sim: ClusterSim<()> = ClusterSim::new(ClusterSpec::uniform(1));
        sim.charge_server(1.5);
        sim.charge_server(0.5);
        assert!((sim.server_busy_total() - 2.0).abs() < 1e-12);
    }
}
