//! Full training-state checkpoints: everything a crashed or deliberately
//! restarted parameter server needs to resume a cluster run mid-stream.
//!
//! A model's weights and BN statistics alone are not enough for elastic
//! recovery: a resumed LC-ASGD server must also bring back the optimizer
//! bookkeeping (update counter, per-worker arrival history for `k_m`),
//! both online LSTM predictors *with their recurrent state*, the metrics
//! accumulated so far, and each worker's position in its private batch
//! stream — otherwise the resumed run re-sees examples and the predictors
//! re-learn from scratch, and the post-resume loss curve diverges from the
//! uninterrupted one. A model-only snapshot is this format with every
//! field but `weights` and `bn` at its default.
//!
//! ## Format
//!
//! A little-endian binary body framed by a magic string and a trailing
//! CRC-32 over everything before it. Corruption anywhere in the file —
//! a flipped bit, truncation, or a foreign file — fails the CRC (or the
//! structural parse) and [`TrainingCheckpoint::load`] returns an error
//! instead of resuming from garbage.
//!
//! [`TrainingCheckpoint::save`] is atomic and durable: the bytes are
//! written to a `<path>.tmp` sibling, fsynced, `rename(2)`d into place,
//! and the parent directory fsynced — a crash mid-write leaves the
//! previous checkpoint intact, and a crash after `save` returns cannot
//! leave a truncated "committed" file.

use crate::metrics::EpochRecord;
use crate::predictor::{LossPredictorSnapshot, StepPredictorSnapshot};
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::backend::wire;
use lcasgd_simcluster::codec::crc32;
use lcasgd_simcluster::{ClusterError, Window, WireReader, WireSink};
use lcasgd_tensor::Tensor;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"LCTRCK02";
/// Arrival-history sentinel for "no arrival yet" (`Option::None`).
const NO_ARRIVAL: u64 = u64::MAX;

/// The complete resumable state of a [`run_cluster`] training run.
///
/// [`run_cluster`]: crate::trainer::run_cluster
#[derive(Clone, Debug, Default)]
pub struct TrainingCheckpoint {
    /// Server's canonical flat weights `w_t`.
    pub weights: Vec<f32>,
    /// Server's global BN running statistics.
    pub bn: BnState,
    /// Server update counter `t`.
    pub version: u64,
    /// Applied-gradient count (the run's progress toward its target).
    pub applied: u64,
    /// Per-worker version at last arrival (`None` = no arrival yet).
    pub arrival: Vec<Option<u64>>,
    /// The server's `iter` arrival log.
    pub iter: Vec<usize>,
    /// Staleness samples accumulated so far.
    pub staleness: Vec<u32>,
    /// Losses of the in-progress epoch (cleared at each epoch record).
    pub epoch_losses: Vec<f32>,
    /// Completed epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Loss-predictor state (LC-ASGD only).
    pub loss_pred: Option<LossPredictorSnapshot>,
    /// Step-predictor state (LC-ASGD only).
    pub step_pred: Option<StepPredictorSnapshot>,
    /// Per-worker batch-stream position `(reshuffles, pos)`, see
    /// [`lcasgd_data::BatchIter::replay_to`]. Positions are sampled after
    /// each pushed gradient, so a resume may recompute a batch whose
    /// gradient was already applied — at-least-once semantics, which SGD
    /// tolerates (one extra sample of an example is noise).
    pub worker_batches: Vec<(u64, u64)>,
    /// Fencing epoch of the server that wrote this checkpoint (0 when the
    /// run has no standby). A standby bootstrapped from this snapshot
    /// promotes with `server_epoch + 1`.
    pub server_epoch: u64,
    /// Highest applied push sequence number per worker (0 = none yet),
    /// the at-most-once dedup state replayed into a promoted standby.
    pub push_seqs: Vec<u64>,
    /// The server's version once per shard of a sharded run (every push
    /// moves every shard, so the entries equal `version`). Empty for
    /// unsharded (shards = 1) runs; the shard layout is reconstructed as
    /// [`ShardSpec::even`] of the weight length by this list's length.
    ///
    /// [`ShardSpec::even`]: crate::shard::ShardSpec::even
    pub shard_versions: Vec<u64>,
}

// ------------------------------------------------------------- primitives
//
// The body uses the wire codec's conventions (little-endian, `u64` counts
// before `f32` runs), so it is written and parsed with the same bulk
// helpers as the network messages.

type Parse<T> = Result<T, ClusterError>;

fn bad(why: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why.to_string())
}

fn put_u64s(buf: &mut dyn WireSink, vals: impl ExactSizeIterator<Item = u64>) {
    wire::put_u64(buf, vals.len() as u64);
    vals.for_each(|v| wire::put_u64(buf, v));
}

fn get_u64s(r: &mut WireReader<'_>) -> Parse<Vec<u64>> {
    let n = r.len(8)?;
    Ok(r.bytes(n * 8)?.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect())
}

fn put_u32s(buf: &mut dyn WireSink, vals: impl ExactSizeIterator<Item = u32>) {
    wire::put_u64(buf, vals.len() as u64);
    vals.for_each(|v| wire::put_u32(buf, v));
}

fn get_u32s(r: &mut WireReader<'_>) -> Parse<Vec<u32>> {
    let n = r.len(4)?;
    Ok(r.bytes(n * 4)?.chunks_exact(4).map(|c| u32::from_le_bytes(c.try_into().unwrap())).collect())
}

fn put_lstm_state(buf: &mut dyn WireSink, layers: &[(Vec<f32>, Vec<f32>)]) {
    wire::put_u64(buf, layers.len() as u64);
    for (h, c) in layers {
        wire::put_vec_f32(buf, h);
        wire::put_vec_f32(buf, c);
    }
}

fn get_lstm_state(r: &mut WireReader<'_>) -> Parse<Vec<(Vec<f32>, Vec<f32>)>> {
    // Each layer is two length-prefixed runs: at least 16 bytes.
    let n = r.len(16)?;
    (0..n).map(|_| Ok((r.vec_f32()?, r.vec_f32()?))).collect()
}

fn put_opt_f32(buf: &mut dyn WireSink, v: Option<f32>) {
    wire::put_bool(buf, v.is_some());
    if let Some(x) = v {
        wire::put_f32(buf, x);
    }
}

fn get_opt_f32(r: &mut WireReader<'_>) -> Parse<Option<f32>> {
    Ok(if r.bool()? { Some(r.f32()?) } else { None })
}

// ------------------------------------------------------------ (de)coding

impl TrainingCheckpoint {
    /// Serializes the body (everything between magic and CRC).
    fn write_body(&self, w: &mut dyn WireSink) {
        wire::put_vec_f32(w, &self.weights);
        wire::put_u64(w, self.bn.means.len() as u64);
        for (mean, var) in self.bn.means.iter().zip(&self.bn.vars) {
            wire::put_vec_f32(w, mean.data());
            wire::put_vec_f32(w, var.data());
        }
        wire::put_u64(w, self.version);
        wire::put_u64(w, self.applied);
        put_u64s(w, self.arrival.iter().map(|a| a.unwrap_or(NO_ARRIVAL)));
        put_u32s(w, self.iter.iter().map(|&m| m as u32));
        put_u32s(w, self.staleness.iter().copied());
        wire::put_vec_f32(w, &self.epoch_losses);
        wire::put_u64(w, self.epochs.len() as u64);
        for e in &self.epochs {
            wire::put_u64(w, e.epoch as u64);
            wire::put_f64(w, e.time);
            wire::put_f32(w, e.train_error);
            wire::put_f32(w, e.test_error);
            wire::put_f32(w, e.train_loss);
            wire::put_f32(w, e.lr);
        }
        wire::put_bool(w, self.loss_pred.is_some());
        if let Some(lp) = &self.loss_pred {
            wire::put_vec_f32(w, &lp.params);
            put_lstm_state(w, &lp.state);
            put_opt_f32(w, lp.last_loss);
            put_opt_f32(w, lp.next_forecast);
            wire::put_u64(w, lp.train_steps);
        }
        wire::put_bool(w, self.step_pred.is_some());
        if let Some(sp) = &self.step_pred {
            wire::put_vec_f32(w, &sp.params);
            wire::put_u64(w, sp.streams.len() as u64);
            for (layers, prev) in &sp.streams {
                put_lstm_state(w, layers);
                wire::put_bool(w, prev.is_some());
                if let Some(obs) = prev {
                    wire::put_f32s(w, obs);
                }
            }
            wire::put_f64(w, sp.comm_scale);
            wire::put_f64(w, sp.comp_scale);
            wire::put_u64(w, sp.samples);
            wire::put_u64(w, sp.train_steps);
        }
        wire::put_u64(w, self.worker_batches.len() as u64);
        for &(reshuffles, pos) in &self.worker_batches {
            wire::put_u64(w, reshuffles);
            wire::put_u64(w, pos);
        }
        wire::put_u64(w, self.server_epoch);
        put_u64s(w, self.push_seqs.iter().copied());
        put_u64s(w, self.shard_versions.iter().copied());
    }

    fn read_body(r: &mut WireReader<'_>) -> Parse<Self> {
        let weights = r.vec_f32()?;
        // Each BN layer is two length-prefixed runs: at least 16 bytes.
        let layers = r.len(16)?;
        let mut bn = BnState::default();
        for _ in 0..layers {
            let mean = r.vec_f32()?;
            let var = r.vec_f32()?;
            if mean.len() != var.len() {
                return Err(ClusterError::Protocol("BN mean/var length mismatch".into()));
            }
            let c = mean.len();
            bn.means.push(Tensor::from_vec(mean, &[c]));
            bn.vars.push(Tensor::from_vec(var, &[c]));
        }
        let version = r.u64()?;
        let applied = r.u64()?;
        let arrival = get_u64s(r)?.into_iter().map(|v| (v != NO_ARRIVAL).then_some(v)).collect();
        let iter = get_u32s(r)?.into_iter().map(|m| m as usize).collect();
        let staleness = get_u32s(r)?;
        let epoch_losses = r.vec_f32()?;
        let n = r.len(32)?;
        let epochs = (0..n)
            .map(|_| {
                Ok(EpochRecord {
                    epoch: r.u64()? as usize,
                    time: r.f64()?,
                    train_error: r.f32()?,
                    test_error: r.f32()?,
                    train_loss: r.f32()?,
                    lr: r.f32()?,
                })
            })
            .collect::<Parse<_>>()?;
        let loss_pred = if r.bool()? {
            Some(LossPredictorSnapshot {
                params: r.vec_f32()?,
                state: get_lstm_state(r)?,
                last_loss: get_opt_f32(r)?,
                next_forecast: get_opt_f32(r)?,
                train_steps: r.u64()?,
            })
        } else {
            None
        };
        let step_pred = if r.bool()? {
            let params = r.vec_f32()?;
            // Each stream is at least a layer count and a presence byte.
            let n = r.len(9)?;
            let streams = (0..n)
                .map(|_| {
                    let layers = get_lstm_state(r)?;
                    let prev = if r.bool()? { Some([r.f32()?, r.f32()?, r.f32()?]) } else { None };
                    Ok((layers, prev))
                })
                .collect::<Parse<_>>()?;
            Some(StepPredictorSnapshot {
                params,
                streams,
                comm_scale: r.f64()?,
                comp_scale: r.f64()?,
                samples: r.u64()?,
                train_steps: r.u64()?,
            })
        } else {
            None
        };
        let n = r.len(16)?;
        let worker_batches = (0..n).map(|_| Ok((r.u64()?, r.u64()?))).collect::<Parse<_>>()?;
        let server_epoch = r.u64()?;
        let push_seqs = get_u64s(r)?;
        let shard_versions = get_u64s(r)?;
        Ok(TrainingCheckpoint {
            weights,
            bn,
            version,
            applied,
            arrival,
            iter,
            staleness,
            epoch_losses,
            epochs,
            loss_pred,
            step_pred,
            worker_batches,
            server_epoch,
            push_seqs,
            shard_versions,
        })
    }

    /// Serializes to `magic ‖ body ‖ crc32(magic ‖ body)`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut none = Vec::new();
        let mut count = Window::new(&mut none, 0, 0);
        self.write_body(&mut count);
        let mut buf = Vec::with_capacity(MAGIC.len() + count.seen() + 4);
        buf.extend_from_slice(MAGIC);
        self.write_body(&mut buf);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Parses bytes produced by [`TrainingCheckpoint::to_bytes`],
    /// rejecting anything whose CRC, magic, or structure does not check
    /// out.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        if bytes.len() < MAGIC.len() + 4 {
            return Err(bad("truncated checkpoint"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(bad("checkpoint CRC mismatch (corrupted or truncated)"));
        }
        if &body[..MAGIC.len()] != MAGIC {
            return Err(bad("not an LC-ASGD training checkpoint"));
        }
        let mut r = WireReader::new(&body[MAGIC.len()..]);
        let ck = Self::read_body(&mut r).map_err(|e| bad(&e.to_string()))?;
        r.finish().map_err(|e| bad(&e.to_string()))?;
        Ok(ck)
    }

    /// Atomically and durably saves to `path`: writes `<path>.tmp`, fsyncs
    /// it, renames over the destination, then fsyncs the parent directory.
    /// A crash mid-save never destroys the previous checkpoint, and a host
    /// crash right after `save` returns cannot leave a zero-length or
    /// truncated "committed" file — the data is on disk before the rename,
    /// and the rename is on disk before we return.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&self.to_bytes())?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::File::open(dir)?.sync_all()?;
        }
        Ok(())
    }

    /// Loads and integrity-checks a checkpoint file.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::from_bytes(&fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> TrainingCheckpoint {
        TrainingCheckpoint {
            weights: (0..40).map(|i| i as f32 * 0.25 - 3.0).collect(),
            bn: BnState {
                means: vec![Tensor::from_vec(vec![0.5, -1.5, 2.0], &[3])],
                vars: vec![Tensor::from_vec(vec![1.0, 0.25, 4.0], &[3])],
            },
            version: 321,
            applied: 300,
            arrival: vec![Some(319), None, Some(280)],
            iter: vec![0, 2, 0, 1, 2],
            staleness: vec![0, 1, 3, 2],
            epoch_losses: vec![0.9, 0.7],
            epochs: vec![EpochRecord {
                epoch: 1,
                time: 2.5,
                train_error: 0.3,
                test_error: 0.35,
                train_loss: 1.1,
                lr: 0.1,
            }],
            loss_pred: Some(LossPredictorSnapshot {
                params: vec![0.1, -0.2, 0.3],
                state: vec![(vec![0.5, 0.5], vec![-0.1, 0.2])],
                last_loss: Some(0.8),
                next_forecast: None,
                train_steps: 42,
            }),
            step_pred: Some(StepPredictorSnapshot {
                params: vec![1.0, 2.0],
                streams: vec![
                    (vec![(vec![0.0, 1.0], vec![2.0, 3.0])], Some([0.5, 0.01, 0.2])),
                    (vec![(vec![4.0, 5.0], vec![6.0, 7.0])], None),
                    (vec![(vec![0.0; 2], vec![0.0; 2])], None),
                ],
                comm_scale: 0.002,
                comp_scale: 0.04,
                samples: 99,
                train_steps: 77,
            }),
            worker_batches: vec![(1, 7), (2, 0), (1, 11)],
            server_epoch: 2,
            push_seqs: vec![(1 << 32) | 9, 0, 17],
            shard_versions: vec![321, 321, 321, 321],
        }
    }

    fn assert_same(a: &TrainingCheckpoint, b: &TrainingCheckpoint) {
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bn, b.bn);
        assert_eq!(a.version, b.version);
        assert_eq!(a.applied, b.applied);
        assert_eq!(a.arrival, b.arrival);
        assert_eq!(a.iter, b.iter);
        assert_eq!(a.staleness, b.staleness);
        assert_eq!(a.epoch_losses, b.epoch_losses);
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!((x.epoch, x.time, x.train_error), (y.epoch, y.time, y.train_error));
            assert_eq!((x.test_error, x.train_loss, x.lr), (y.test_error, y.train_loss, y.lr));
        }
        assert_eq!(a.loss_pred, b.loss_pred);
        assert_eq!(a.step_pred, b.step_pred);
        assert_eq!(a.worker_batches, b.worker_batches);
        assert_eq!(a.server_epoch, b.server_epoch);
        assert_eq!(a.push_seqs, b.push_seqs);
        assert_eq!(a.shard_versions, b.shard_versions);
    }

    #[test]
    fn roundtrip_through_bytes() {
        let ck = sample();
        let back = TrainingCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_same(&ck, &back);
    }

    #[test]
    fn roundtrip_without_predictors() {
        let mut ck = sample();
        ck.loss_pred = None;
        ck.step_pred = None;
        let back = TrainingCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_same(&ck, &back);
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let ck = sample();
        let path = std::env::temp_dir().join("lcasgd_train_ckpt_test.bin");
        ck.save(&path).unwrap();
        // The tmp sibling must not linger after a successful save.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        let back = TrainingCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_same(&ck, &back);
    }

    #[test]
    fn load_rejects_truncated_at_rename_file() {
        // The failure an unsynced rename can leave behind: the name is
        // committed but the data blocks never hit the disk, so the file
        // reads back short (or empty). Load must reject it, not resume.
        let ck = sample();
        let path = std::env::temp_dir().join("lcasgd_train_ckpt_trunc_test.bin");
        ck.save(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            assert!(
                TrainingCheckpoint::load(&path).is_err(),
                "a checkpoint truncated to {cut} bytes must not load"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_foreign_bytes() {
        assert!(TrainingCheckpoint::from_bytes(b"short").is_err());
        let mut fake = b"NOTACKPT".to_vec();
        fake.extend_from_slice(&[0u8; 64]);
        let crc = crc32(&fake);
        fake.extend_from_slice(&crc.to_le_bytes());
        // CRC is fine but the magic is wrong.
        assert!(TrainingCheckpoint::from_bytes(&fake).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any single flipped byte anywhere in the file must be detected:
        /// the CRC covers magic and body, and the CRC field itself no
        /// longer matches a clean body.
        #[test]
        fn any_flipped_byte_is_rejected(offset_pick in any::<u32>(), mask in 1u8..=255) {
            let mut bytes = sample().to_bytes();
            let off = offset_pick as usize % bytes.len();
            bytes[off] ^= mask;
            prop_assert!(TrainingCheckpoint::from_bytes(&bytes).is_err());
        }

        /// Truncation at any point must be detected.
        #[test]
        fn any_truncation_is_rejected(cut_pick in any::<u32>()) {
            let bytes = sample().to_bytes();
            let cut = cut_pick as usize % bytes.len();
            prop_assert!(TrainingCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }

        /// Corrupting a stored f32 and *recomputing* the CRC still parses
        /// (structure is intact) — demonstrating the CRC is what protects
        /// payload bits, not the structural checks.
        #[test]
        fn crc_refresh_restores_parseability(mask in 1u8..=255) {
            let ck = sample();
            let mut bytes = ck.to_bytes();
            // Flip a byte inside the weights payload (after magic + the
            // 8-byte length prefix).
            let off = MAGIC.len() + 8 + 2;
            bytes[off] ^= mask;
            let body_len = bytes.len() - 4;
            let crc = crc32(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
            let back = TrainingCheckpoint::from_bytes(&bytes).unwrap();
            prop_assert!(back.weights != ck.weights);
        }
    }
}
