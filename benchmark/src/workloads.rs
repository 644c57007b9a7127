//! The benchmark's workloads: which algorithm trains which model over
//! which backend, and the bands a correct run must land in.
//!
//! Two tasks, both batch 16 at `Scale::Small`:
//!
//! * **R** — ResNet-tiny (19 858 parameters, ≈ 80 KB per weights message)
//!   on the CIFAR-like synthetic images the repository's `Scenario::cifar`
//!   uses (noise 1.2, 8 % label noise, 960 train / 640 test), with the
//!   paper's step learning-rate recipe. Compute-bound: small frames, many
//!   round trips.
//! * **W** — `mlp(&[256, 1024, 1024, 10])` (1 323 018 parameters,
//!   ≈ 5.3 MB per message) on ten Gaussian blobs in 256 dimensions (160
//!   train / 640 test, spread 3.0), lr 0.003. Bandwidth-bound: the model
//!   fits the task within three epochs, so what the remaining epochs
//!   measure is moving and applying 5 MB vectors. Learning rate and target
//!   (0.02) are chosen so every seed crosses the target in the third
//!   epoch: at lr 0.01 the second epoch's mean loss ranged from 0.000 to
//!   2.9 across seeds, the crossing fell in epoch 2 or 3, and
//!   `time_to_target_s` spread 29 %.
//!
//! Every input is a function of the seed alone: the seed picks the data
//! set, the model initialisation and each worker's batch order.

use lc_asgd::data::synth::blobs_split;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::optimizer::LrSchedule;
use lc_asgd::nn::resnet::ResNetConfig;
use lc_asgd::nn::Network;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::WireCodec;

/// Mini-batch size of every workload (`Scale::Small`'s).
pub const BATCH: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Task R.
    ResnetTiny,
    /// Task W.
    WideMlp,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    Threads,
    Tcp,
}

/// One benchmark workload. `name` and `why` are the same strings
/// `BENCHMARK.json` lists (a unit test holds them together).
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub algorithm: Algorithm,
    pub workers: usize,
    pub model: Model,
    pub transport: Transport,
    pub codec: WireCodec,
    pub shards: usize,
    pub standby: bool,
    pub epochs: usize,
    /// `time_to_target_s` is the wall time at which the epoch-mean train
    /// loss first reaches this.
    pub target_loss: f32,
    /// Correctness band: the last epoch's mean train loss must be below
    /// this (and below the first epoch's).
    pub final_loss_max: f32,
    /// Correctness floor on `1 − final test error`.
    pub min_accuracy: f32,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sgd_1w",
        why: "single-worker SGD baseline of task R: tensor/autograd/nn do the work, server, predictors and transport none",
        algorithm: Algorithm::Sgd,
        workers: 1,
        model: Model::ResnetTiny,
        transport: Transport::Threads,
        codec: WireCodec::F32,
        shards: 1,
        standby: false,
        epochs: 16,
        target_loss: 0.5,
        final_loss_max: 0.45,
        min_accuracy: 0.80,
    },
    Workload {
        name: "lc_4w_threads",
        why: "the paper's LC-ASGD at M=4 with transport bypassed: serial LSTM predictors and worker blocking dominate beyond compute",
        algorithm: Algorithm::LcAsgd,
        workers: 4,
        model: Model::ResnetTiny,
        transport: Transport::Threads,
        codec: WireCodec::F32,
        shards: 1,
        standby: false,
        epochs: 16,
        target_loss: 0.5,
        final_loss_max: 0.45,
        min_accuracy: 0.80,
    },
    Workload {
        name: "lc_4w_tcp",
        why: "same run over loopback TCP f32: many small frames, three round trips per iteration; isolates what the wire costs the protocol",
        algorithm: Algorithm::LcAsgd,
        workers: 4,
        model: Model::ResnetTiny,
        transport: Transport::Tcp,
        codec: WireCodec::F32,
        shards: 1,
        standby: false,
        epochs: 16,
        target_loss: 0.5,
        final_loss_max: 0.45,
        min_accuracy: 0.80,
    },
    Workload {
        name: "asgd_2w_tcp_wide",
        why: "ASGD M=2 on a 5.3 MB model over TCP f32, one shard: bandwidth-bound, so encode/decode, CRC, frame I/O and server apply dominate",
        algorithm: Algorithm::Asgd,
        workers: 2,
        model: Model::WideMlp,
        transport: Transport::Tcp,
        codec: WireCodec::F32,
        shards: 1,
        standby: false,
        epochs: 12,
        target_loss: 0.02,
        final_loss_max: 0.02,
        min_accuracy: 0.90,
    },
    Workload {
        name: "lc_2w_tcp_wide_q",
        why: "LC-ASGD M=2, same model, int8 wire + 4 shards + WAL standby: the transport's other path, so an f32 single-shard gain that costs it shows",
        algorithm: Algorithm::LcAsgd,
        workers: 2,
        model: Model::WideMlp,
        transport: Transport::Tcp,
        codec: WireCodec::Int8,
        shards: 4,
        standby: true,
        epochs: 6,
        target_loss: 0.02,
        final_loss_max: 0.02,
        min_accuracy: 0.90,
    },
];

/// Updates a complete run applies: epochs × batches per epoch.
pub fn planned_updates(epochs: usize, train_len: usize) -> u64 {
    (epochs * train_len.div_ceil(BATCH)) as u64
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The cluster a run is driven over; `run_cluster_with` is generic in it,
/// so the two cases stay apart until the call.
pub enum Backend {
    Threads(ThreadCluster),
    Tcp(NetCluster),
}

/// Everything a run needs that is made from the seed before the timed
/// call: data, configuration, one built model and the backend.
pub struct Task {
    pub train: Dataset,
    pub test: Dataset,
    pub cfg: ExperimentConfig,
    /// The model as `cfg.seed` initialises it (the trainer rebuilds its
    /// own replicas through [`Workload::build_model`]).
    pub net: Network,
    pub backend: Backend,
}

impl Workload {
    pub fn build_model(&self, rng: &mut Rng) -> Network {
        match self.model {
            Model::ResnetTiny => ResNetConfig::tiny(3, 10).build(rng),
            Model::WideMlp => mlp(&[256, 1024, 1024, 10], false, rng),
        }
    }

    pub fn run_options(&self, trace: bool) -> RunOptions {
        RunOptions {
            trace,
            standby: self.standby.then(StandbyConfig::default),
            shards: self.shards,
            ..RunOptions::default()
        }
    }

    /// Makes the run's inputs from `seed`. `epochs` overrides the
    /// workload's own count (`--smoke` shortens runs).
    pub fn setup(&self, seed: u64, epochs: usize) -> Task {
        let (train, test) = match self.model {
            Model::ResnetTiny => {
                let scale = Scale::Small;
                let hw = scale.cifar_hw();
                SyntheticImageSpec {
                    noise: 1.2,
                    label_noise: 0.08,
                    seed,
                    ..SyntheticImageSpec::cifar10_like(
                        hw,
                        hw,
                        scale.cifar_train_per_class(),
                        scale.cifar_test_per_class(),
                    )
                }
                .generate()
            }
            Model::WideMlp => blobs_split(10, 256, 16, 64, 3.0, seed),
        };
        let mut cfg = ExperimentConfig::new(self.algorithm, self.workers, Scale::Small, seed);
        cfg.epochs = epochs;
        cfg.batch_size = BATCH;
        cfg.lr = match self.model {
            Model::ResnetTiny => LrSchedule::paper_step(Scale::Small.cifar_lr(), epochs),
            Model::WideMlp => LrSchedule::constant(0.003),
        };
        let net = self.build_model(&mut Rng::seed_from_u64(seed));
        let backend = match self.transport {
            Transport::Threads => Backend::Threads(ThreadCluster::new(self.workers)),
            Transport::Tcp => Backend::Tcp(
                NetCluster::new(self.workers)
                    .with_config(NetConfig { wire_codec: self.codec, ..NetConfig::default() }),
            ),
        };
        Task { train, test, cfg, net, backend }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for w in &WORKLOADS {
            let (a, b, c) = (w.setup(7, 2), w.setup(7, 2), w.setup(8, 2));
            assert_eq!(a.train.inputs.data(), b.train.inputs.data(), "{}", w.name);
            assert_eq!(a.train.labels, b.train.labels);
            assert_eq!(a.test.inputs.data(), b.test.inputs.data());
            assert_eq!(a.net.flat_params(), b.net.flat_params());
            assert_eq!(a.cfg.seed, 7);
            assert_ne!(a.train.inputs.data(), c.train.inputs.data(), "{}", w.name);
            assert_ne!(a.net.flat_params(), c.net.flat_params());
        }
    }

    #[test]
    fn tasks_have_the_documented_sizes() {
        let r = find("lc_4w_tcp").unwrap().setup(1, 16);
        assert_eq!(r.net.num_params(), 19_858);
        assert_eq!((r.train.len(), r.test.len()), (960, 640));
        assert_eq!(planned_updates(16, r.train.len()), 960);
        let w = find("asgd_2w_tcp_wide").unwrap().setup(1, 12);
        assert_eq!(w.net.num_params(), 1_323_018);
        assert_eq!(planned_updates(12, w.train.len()), 120);
    }

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(find("nope").is_none());
    }
}
