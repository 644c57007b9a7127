//! The worker half of the cluster engine: Algorithm 1 over a
//! [`WorkerLink`], plus [`RunEnv`], the part of a run every worker thread
//! and the server share.

use super::ModelFn;
use crate::algorithms::Algorithm;
use crate::comm::{CompressedGrad, Compression};
use crate::config::ExperimentConfig;
use crate::protocol::{ClusterReq, ClusterResp, PullDirective};
use crate::shard::{shard_wire_grads, ShardSpec};
use crate::supervisor::AlgoMode;
use crate::trace::{phase, ClockDomain, TraceSink};
use crate::worker::WorkerNode;
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_data::Dataset;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::WorkerLink;
use lcasgd_tensor::ops::tune::{band_budget, current_num_threads, with_num_threads};
use lcasgd_tensor::Rng;
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one run's worker threads, its server core and its shell share: the
/// read-only description of the run, and the two mutex-guarded tables
/// workers report into.
pub(super) struct RunEnv<'a> {
    pub cfg: &'a ExperimentConfig,
    pub train: &'a Dataset,
    /// The clock epoch records are stamped in, decided by the backend.
    pub clock: ClockDomain,
    /// The uplink scheme: the run's own, or — when it has none — the
    /// mirror of the backend's wire codec, so a quantized wire is
    /// quantized in both directions.
    pub compression: Compression,
    pub workers: usize,
    /// Kernel bands each worker's compute may fork, so that all of them
    /// together fit the threads the run was started with (DESIGN.md §8.3).
    bands: usize,
    pub spec: ShardSpec,
    /// The sink observes; it never feeds back into scheduling, so a traced
    /// run applies bit-identical updates to an untraced one.
    pub sink: TraceSink,
    /// Each worker's model replica and batch stream, parked here between
    /// incarnations (crash recovery re-invokes [`worker_loop`], which
    /// picks the replica back up), and how many times its process has
    /// started.
    nodes: Mutex<Vec<(Option<WorkerNode>, u32)>>,
    /// Latest (reshuffles, pos) each worker reported after pushing a
    /// gradient — what checkpoints record. Positions may lag the worker by
    /// one in-flight iteration: resuming re-computes that batch, which SGD
    /// tolerates (at-least-once semantics).
    pub batch_pos: Mutex<Vec<(u64, u64)>>,
}

/// Builds one replica per entry of `shards` (the example indices each worker
/// draws from), every one from the same seed so all start "based on the
/// same randomly initialized model" (§5).
pub(super) fn worker_nodes(
    cfg: &ExperimentConfig,
    build: ModelFn<'_>,
    shards: Vec<Vec<usize>>,
) -> Vec<WorkerNode> {
    shards
        .into_iter()
        .enumerate()
        .map(|(w, shard)| {
            let mut wrng = Rng::seed_from_u64(cfg.seed);
            WorkerNode::with_indices(
                build(&mut wrng),
                shard,
                cfg.batch_size,
                cfg.seed ^ (w as u64).wrapping_mul(0x517C) ^ 0xA1,
            )
        })
        .collect()
}

impl<'a> RunEnv<'a> {
    pub(super) fn new(
        cfg: &'a ExperimentConfig,
        train: &'a Dataset,
        nodes: Vec<WorkerNode>,
        spec: ShardSpec,
        clock: ClockDomain,
        compression: Compression,
        sink: TraceSink,
    ) -> Self {
        RunEnv {
            cfg,
            train,
            clock,
            compression,
            workers: nodes.len(),
            // Read here, on the thread that starts the run — where a
            // caller's `with_num_threads` applies — not on the workers'.
            bands: band_budget(current_num_threads(), nodes.len()),
            spec,
            sink,
            batch_pos: Mutex::new(nodes.iter().map(WorkerNode::batch_progress).collect()),
            nodes: Mutex::new(nodes.into_iter().map(|n| (Some(n), 0)).collect()),
        }
    }

    /// Checkpoint resume: fast-forwards every worker's batch stream to the
    /// position the checkpoint recorded.
    pub(super) fn replay_batches(&self, worker_batches: &[(u64, u64)]) {
        let mut nodes = self.nodes.lock();
        for (w, &(reshuffles, pos)) in worker_batches.iter().enumerate() {
            nodes[w].0.as_mut().expect("node present").replay_batches_to(reshuffles, pos);
        }
        *self.batch_pos.lock() = worker_batches.to_vec();
    }

    /// Worker-side phase spans only make sense on wall-clock backends: on
    /// the discrete-event simulator the worker's wall time is meaningless
    /// (the sim backend emits virtual compute/comm spans instead).
    fn span(&self, worker: usize, ph: &'static str, start: Instant) {
        if self.clock == ClockDomain::Wall {
            self.sink.wall_span_at(Some(worker), ph, start, start.elapsed().as_secs_f64());
        }
    }
}

/// One invocation of a worker process: runs Algorithm 1 against the server
/// behind `link` until it says stop or the link dies.
pub(super) fn worker_loop(
    w: usize,
    link: &mut dyn WorkerLink<ClusterReq, ClusterResp>,
    env: &RunEnv<'_>,
) {
    let (mut node, incarnation) = {
        let (node, started) = &mut env.nodes.lock()[w];
        *started += 1;
        (node.take().expect("worker slot empty"), *started - 1)
    };
    if incarnation > 0 {
        // This invocation is a restarted process rejoining after an
        // injected crash: announce it (fire-and-forget) so the server
        // resets this worker's arrival history and predictor stream.
        let _ = link.send(ClusterReq::Join { incarnation });
    }
    with_num_threads(env.bands, || {
        if env.cfg.algorithm == Algorithm::Ssgd {
            ssgd_loop(w, link, env, &mut node);
        } else {
            let seq_base = u64::from(incarnation) << 32;
            Session {
                w,
                link,
                env,
                weights: vec![0.0; env.spec.len()],
                residual: Vec::new(),
                last_t_comp: 0.0,
                srv_epoch: 0,
                seq_base,
                push_counter: 0,
                fenced_retries: 0,
            }
            .run(&mut node);
        }
    });
    // Return the replica to its slot: a restarted incarnation of this
    // worker (crash-recovery re-invokes `worker_loop`) picks it back up.
    env.batch_pos.lock()[w] = node.batch_progress();
    env.nodes.lock()[w].0 = Some(node);
}

/// SSGD's worker: one pull, then every push is a blocking request whose
/// reply — released when the whole round has arrived — is the next pull.
/// SSGD never runs fenced (no standby support): epoch 0, push_seq 0 (the
/// "no sequencing" sentinel).
fn ssgd_loop(
    w: usize,
    link: &mut dyn WorkerLink<ClusterReq, ClusterResp>,
    env: &RunEnv<'_>,
    node: &mut WorkerNode,
) {
    let mut weights = vec![0.0; env.spec.len()];
    let mut residual = Vec::new();
    let pull_start = Instant::now();
    let Ok(mut resp) = link.request(ClusterReq::Pull { epoch: 0, shard: 0 }) else { return };
    env.span(w, phase::PULL, pull_start);
    let whole = 0..weights.len();
    while let Ok((version, ..)) = install_reply(link, &mut weights, whole.clone(), resp) {
        let compute_start = Instant::now();
        let (loss, grads, batch_stats) = node.compute_gradient(&weights, env.train);
        env.span(w, phase::COMPUTE, compute_start);
        link.compute(env.cfg.cost.iteration());
        let (mut slices, spent) =
            shard_wire_grads(&env.compression, &env.spec, grads, &mut residual);
        if let Some(spent) = spent {
            node.recycle_grads(spent);
        }
        let grads = slices.pop().expect("SSGD runs one shard");
        let running = node.bn_running();
        // The barrier: this request blocks until the whole round has
        // arrived and the server releases the new weights.
        let push_start = Instant::now();
        resp = match link.request(ClusterReq::Grad {
            grads,
            pull_version: version,
            loss,
            batch_stats,
            running,
            epoch: 0,
            push_seq: 0,
            shard: 0,
        }) {
            Ok(r) => r,
            Err(_) => return,
        };
        env.span(w, phase::PUSH, push_start);
    }
}

/// Installs a weights reply, plain or packed, at `range` of `weights` —
/// the one way a worker consumes one — and returns the version, directive
/// and server epoch it carried. Any other reply, or one whose length is not
/// the range's, comes back as the error.
///
/// A plain vector the transport decoded for this worker alone goes back to
/// the transport for the next reply — and when it is the whole model it is
/// not even copied: it becomes `weights`, and the previous one goes back
/// instead. A packed reply is unpacked straight into the range; nothing of
/// it is the transport's to have back.
fn install_reply(
    link: &mut dyn WorkerLink<ClusterReq, ClusterResp>,
    weights: &mut Vec<f32>,
    range: Range<usize>,
    resp: ClusterResp,
) -> Result<(u64, Option<PullDirective>, u64), ClusterResp> {
    match resp {
        ClusterResp::Weights { flat, version, directive, epoch } if flat.len() == range.len() => {
            match Arc::try_unwrap(flat) {
                Ok(mut decoded) => {
                    if range.len() == weights.len() {
                        std::mem::swap(weights, &mut decoded);
                    } else {
                        weights[range].copy_from_slice(&decoded);
                    }
                    link.recycle(decoded);
                }
                Err(shared) => weights[range].copy_from_slice(&shared),
            }
            Ok((version, directive, epoch))
        }
        ClusterResp::QWeights { packed, version, directive, epoch }
            if packed.len() == range.len() =>
        {
            packed.unpack_into(&mut weights[range]);
            Ok((version, directive, epoch))
        }
        other => Err(other),
    }
}

/// What came with the weights [`Session::try_pull`] installed.
struct Pulled {
    version: u64,
    directive: Option<PullDirective>,
    /// Seconds the successful pull took on the link's clock, lead request
    /// to last slice: Algorithm 4's communication feature.
    t_comm: f32,
}

/// How one iteration ended.
enum Iteration {
    /// The gradient was pushed.
    Pushed,
    /// Failover landed mid-exchange: the iteration restarts against the
    /// promoted server.
    Abandoned,
    /// The link is dead or the server spoke out of protocol.
    Stop,
}

/// Outcome of one pull attempt.
enum Pull {
    Whole(Pulled),
    Fenced,
    Stop,
}

/// One incarnation of an asynchronous worker (ASGD / DC-ASGD / LC-ASGD)
/// and its conversation state with the server.
struct Session<'a> {
    w: usize,
    link: &'a mut dyn WorkerLink<ClusterReq, ClusterResp>,
    env: &'a RunEnv<'a>,
    /// This worker's copy of the model as last pulled: every reply's slice
    /// lands in its range of this one vector, pull after pull.
    weights: Vec<f32>,
    /// Error-feedback residual of the uplink compression.
    residual: Vec<f32>,
    /// Seconds the last iteration took on the link's clock, first compute
    /// to gradient: Algorithm 4's computation feature.
    last_t_comp: f32,
    // Failover routing state: the server epoch this worker last saw
    // (carried on every request), its per-push dedup sequence, and a
    // bounded count of consecutive fenced retries.
    srv_epoch: u64,
    seq_base: u64,
    push_counter: u64,
    fenced_retries: u32,
}

impl Session<'_> {
    fn run(&mut self, node: &mut WorkerNode) {
        let is_lc = self.env.cfg.algorithm == Algorithm::LcAsgd;
        while let Some(pulled) = self.pull_weights() {
            // Supervisor directives: a reassigned data shard takes effect
            // now, and the ladder rung decides whether this iteration runs
            // the LC two-phase exchange or a plain fused one.
            let directive = pulled.directive.as_ref();
            if let Some(shard) = directive.and_then(|d| d.shard.as_ref()) {
                node.set_shard(shard.iter().map(|&i| i as usize).collect());
            }
            let use_lc = directive.map_or(is_lc, |d| d.mode == AlgoMode::Lc);
            let outcome = if use_lc {
                self.two_phase_iteration(node, pulled)
            } else {
                self.fused_iteration(node, pulled)
            };
            match outcome {
                // Report the batch-stream position the next checkpoint
                // should record.
                Iteration::Pushed => self.env.batch_pos.lock()[self.w] = node.batch_progress(),
                Iteration::Abandoned => {}
                Iteration::Stop => break,
            }
        }
    }

    /// Algorithm 1 line 1, for the whole (possibly sharded) vector, retried
    /// (with bounded back-off) whenever a reply comes from behind a
    /// failover fence. Returns once the vector is assembled; `None` ends
    /// the worker.
    fn pull_weights(&mut self) -> Option<Pulled> {
        loop {
            match self.try_pull() {
                Pull::Whole(pulled) => {
                    self.fenced_retries = 0;
                    return Some(pulled);
                }
                // The primary this pull addressed is dead: restart it
                // against the promoted server's epoch, adopted from the
                // reply.
                Pull::Fenced => {
                    if !self.fenced_backoff() {
                        return None;
                    }
                }
                Pull::Stop => return None,
            }
        }
    }

    /// One attempt: one pull per shard, the lead first, each reply's slice
    /// installed in its range of `self.weights`. With a single shard the
    /// message sequence is exactly the unsharded protocol's.
    fn try_pull(&mut self) -> Pull {
        let pull_start = self.link.now();
        let mut lead = None;
        for sh in 0..self.env.spec.count() {
            let shard_start = Instant::now();
            let req = ClusterReq::Pull { epoch: self.srv_epoch, shard: sh as u32 };
            let Ok(resp) = self.link.request(req) else { return Pull::Stop };
            self.env.span(self.w, phase::PULL, shard_start);
            let range = self.env.spec.range(sh);
            let (version, directive) =
                match install_reply(self.link, &mut self.weights, range, resp) {
                    Ok((version, directive, epoch)) => {
                        self.srv_epoch = epoch;
                        (version, directive)
                    }
                    Err(ClusterResp::Fenced { epoch }) => {
                        self.srv_epoch = epoch;
                        return Pull::Fenced;
                    }
                    Err(_) => return Pull::Stop,
                };
            // The lead pull alone carries the version the gradient will be
            // measured against, and the supervisor's directive.
            if sh == 0 {
                lead = Some((version, directive));
            }
        }
        let (version, directive) = lead.expect("a partition has at least one shard");
        let t_comm = (self.link.now() - pull_start) as f32;
        Pull::Whole(Pulled { version, directive, t_comm })
    }

    /// Counts one more consecutive fenced reply and, while the bound
    /// holds, backs off before the retry (real time only: on the
    /// simulator a sleep would cost wall time and change nothing).
    /// `false` means give up.
    fn fenced_backoff(&mut self) -> bool {
        self.fenced_retries += 1;
        if self.fenced_retries > 64 {
            return false;
        }
        if self.env.clock == ClockDomain::Wall {
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Algorithm 1 as LC-ASGD runs it: push the forward state, receive
    /// ℓ_delay, backpropagate the compensated loss (Formula 5).
    fn two_phase_iteration(&mut self, node: &mut WorkerNode, pulled: Pulled) -> Iteration {
        let (env, w, cost) = (self.env, self.w, self.env.cfg.cost);
        let (clock_start, compute_start) = (self.link.now(), Instant::now());
        let (loss, batch_stats) = node.forward_phase(&self.weights, env.train);
        env.span(w, phase::COMPUTE, compute_start);
        self.link.compute(cost.forward);
        let running = node.bn_running();
        let state = ClusterReq::State {
            loss,
            running,
            batch_stats,
            t_comm: pulled.t_comm,
            t_comp: self.last_t_comp,
            epoch: self.srv_epoch,
        };
        let state_start = Instant::now();
        let (l_delay, one_step, km) = match self.link.request(state) {
            Ok(ClusterResp::Compensation { l_delay, one_step, km }) => (l_delay, one_step, km),
            Ok(ClusterResp::Fenced { epoch }) => {
                // The forward pass is abandoned with the dead primary.
                self.srv_epoch = epoch;
                return if self.fenced_backoff() { Iteration::Abandoned } else { Iteration::Stop };
            }
            _ => return Iteration::Stop,
        };
        env.span(w, phase::PUSH, state_start);
        let cfg = env.cfg;
        let seed = cfg.compensation.seed(loss, l_delay, one_step, km as usize, cfg.lambda);
        let backward_start = Instant::now();
        let grads = node.backward_phase(seed);
        env.span(w, phase::COMPUTE, backward_start);
        self.link.compute(cost.backward);
        self.last_t_comp = (self.link.now() - clock_start) as f32;
        // The server absorbed this iteration's BN statistics with the
        // state message; the push carries none.
        self.push_grads(node, grads, pulled.version, loss, None)
    }

    /// The fused iteration of ASGD, DC-ASGD and demoted LC workers.
    fn fused_iteration(&mut self, node: &mut WorkerNode, pulled: Pulled) -> Iteration {
        let (clock_start, compute_start) = (self.link.now(), Instant::now());
        let (loss, grads, batch_stats) = node.compute_gradient(&self.weights, self.env.train);
        self.env.span(self.w, phase::COMPUTE, compute_start);
        self.link.compute(self.env.cfg.cost.iteration());
        self.last_t_comp = (self.link.now() - clock_start) as f32;
        let bn = Some((batch_stats, node.bn_running()));
        self.push_grads(node, grads, pulled.version, loss, bn)
    }

    /// Algorithm 1 line 12: one fire-and-forget `Grad` per shard, all
    /// under one dedup sequence number. The BN payload rides only shard
    /// 0's slice; the other slices carry empty stats so the server absorbs
    /// it exactly once per push. The gradient's
    /// vector ends up back with `node`, as its next backward pass's arena,
    /// whenever the push leaves it behind: at once if the slices were
    /// compressed or copied out of it, after the send if it went out whole
    /// over a transport that only reads the message.
    fn push_grads(
        &mut self,
        node: &mut WorkerNode,
        grads: Vec<f32>,
        pull_version: u64,
        loss: f32,
        mut bn: Option<(Vec<BnBatchStats>, BnState)>,
    ) -> Iteration {
        let env = self.env;
        let (slices, spent) =
            shard_wire_grads(&env.compression, &env.spec, grads, &mut self.residual);
        if let Some(spent) = spent {
            node.recycle_grads(spent);
        }
        self.push_counter += 1;
        let push_seq = self.seq_base | self.push_counter;
        let push_start = Instant::now();
        for (sh, grads) in slices.into_iter().enumerate() {
            let (batch_stats, running) = bn.take().unwrap_or_default();
            let push = ClusterReq::Grad {
                grads,
                pull_version,
                loss,
                batch_stats,
                running,
                epoch: self.srv_epoch,
                push_seq,
                shard: sh as u32,
            };
            match self.link.send(push) {
                Ok(Some(ClusterReq::Grad { grads: CompressedGrad::Dense(sent), .. }))
                    if sent.len() == env.spec.len() =>
                {
                    node.recycle_grads(sent)
                }
                Ok(_) => {}
                Err(_) => return Iteration::Stop,
            }
        }
        env.span(self.w, phase::PUSH, push_start);
        Iteration::Pushed
    }
}
