//! Wire messages for backend-driven training.
//!
//! [`trainer::run_cluster`](crate::trainer::run_cluster) speaks Algorithm
//! 1's pull / push-state / push-grad protocol through the shared
//! [`ClusterBackend`](lcasgd_simcluster::ClusterBackend) contract, so the
//! payloads here must cross a real wire: every message implements
//! [`WireMsg`] with the codec conventions of the simcluster backend
//! (little-endian, `u64` counts, tag bytes for enums).
//!
//! The gradient travels as a [`CompressedGrad`], so an active compression
//! scheme shrinks the actual TCP bytes — the transport statistics in
//! [`RunResult`](crate::metrics::RunResult) then show the real ratio.

use crate::comm::CompressedGrad;
use crate::replication::ReplicaPayload;
use crate::supervisor::AlgoMode;
use lcasgd_autograd::ops::norm::BnBatchStats;
use lcasgd_nn::network::BnState;
use lcasgd_simcluster::backend::wire;
use lcasgd_simcluster::{ClusterError, PackedF32, WireCodec, WireMsg, WireReader};
use lcasgd_tensor::Tensor;
use std::sync::Arc;

/// Worker → server messages (Algorithm 1's uplink).
///
/// Every request the server's fence gates (`Pull`/`State`/`Grad`)
/// carries the sender's view of the server **epoch**; a fenced server
/// rejects requests addressed to a dead epoch (see
/// [`crate::replication::EpochFence`]). Runs without a standby leave the
/// epoch at 0 everywhere.
pub enum ClusterReq {
    /// Request the latest weights of one model shard (Algorithm 1
    /// line 1). Unsharded runs always address shard 0. Shard 0 is the
    /// *lead* pull of an iteration: it alone carries back the supervisor
    /// directive and the stop signal.
    Pull { epoch: u64, shard: u32 },
    /// LC-ASGD only: forward results pushed to the server, answered with
    /// the compensation inputs (Algorithm 1 line 8, Algorithm 2 lines
    /// 2–7). `t_comm`/`t_comp` are the worker's measured communication
    /// and compute seconds — the step predictor's input features.
    State {
        loss: f32,
        running: BnState,
        batch_stats: Vec<BnBatchStats>,
        t_comm: f32,
        t_comp: f32,
        epoch: u64,
    },
    /// Gradient push (Algorithm 1 line 12). Fire-and-forget. `push_seq`
    /// is the worker's monotonic push sequence number
    /// (`(incarnation << 32) | counter`; 0 when fencing is off) — the
    /// at-most-once dedup key. Under sharding the push fans out as one
    /// `Grad` per shard, all carrying the same `push_seq`; `grads` is the
    /// addressed shard's slice, and the BN payloads ride only on the
    /// shard-0 slice.
    Grad {
        grads: CompressedGrad,
        pull_version: u64,
        loss: f32,
        batch_stats: Vec<BnBatchStats>,
        running: BnState,
        epoch: u64,
        push_seq: u64,
        shard: u32,
    },
    /// A crashed worker rejoining after a restart (fire-and-forget).
    /// `incarnation` counts the worker's restarts (1 = first rejoin). The
    /// server resets the rank's per-worker bookkeeping — arrival history
    /// and step-predictor stream — so the fresh process's `k_m` accounting
    /// starts from scratch (Algorithm 2's per-worker state).
    Join { incarnation: u32 },
    /// Primary → standby replication traffic: a snapshot or a flushed
    /// batch of update-log records, answered with
    /// [`ClusterResp::ReplicaAck`].
    Replicate(ReplicaPayload),
}

/// Supervisor instructions piggybacked on a pull reply: which rung of
/// the fallback ladder the worker's next iteration runs on, and an
/// optional replacement data shard (straggler reassignment).
#[derive(Clone, Debug, PartialEq)]
pub struct PullDirective {
    /// The algorithm the worker should run this iteration.
    pub mode: AlgoMode,
    /// Replacement example subset, if the supervisor resharded this
    /// worker. `u64` on the wire; always small enough in practice.
    pub shard: Option<Vec<u64>>,
}

/// Server → worker replies (Algorithm 2's downlink).
pub enum ClusterResp {
    /// Current weights and their version (staleness is measured against
    /// it when the gradient comes back). `directive` is present only when
    /// a supervisor is active. `epoch` is the server's fencing epoch —
    /// how workers learn about a promotion. `flat` is shared, not owned:
    /// the server puts one snapshot per version into every reply at that
    /// version ([`ShardGroup::snapshot`](crate::shard::ShardGroup::snapshot)),
    /// and a transport that moves the message instead of encoding it
    /// delivers that very vector.
    Weights { flat: Arc<Vec<f32>>, version: u64, directive: Option<PullDirective>, epoch: u64 },
    /// Reply to `State`: everything the worker needs to build the
    /// compensated loss seed (Formula 5) locally.
    Compensation { l_delay: f32, one_step: f32, km: u32 },
    /// Training target reached; the worker should hang up.
    Stop,
    /// The request carried a dead epoch: the primary it was addressed to
    /// was fenced off and `epoch` is current. The worker re-pulls against
    /// the promoted server.
    Fenced { epoch: u64 },
    /// Standby → primary: records through log sequence `seq` (or the
    /// snapshot that precedes it) are durably applied on the replica.
    ReplicaAck { seq: u64 },
    /// `Weights` with the flat vector quantized by the run's wire codec
    /// (bf16 or int8-with-scale), the downlink half of the bandwidth
    /// saving. A worker unpacks it straight into its copy of the model
    /// ([`PackedF32::unpack_into`]), beside the plain variant's arm.
    QWeights { packed: PackedF32, version: u64, directive: Option<PullDirective>, epoch: u64 },
}

impl ClusterResp {
    /// Builds the weights reply a given wire codec calls for: plain
    /// `Weights` for f32, `QWeights` otherwise (quantizing `flat`).
    pub fn weights_for(
        codec: WireCodec,
        flat: impl Into<Arc<Vec<f32>>>,
        version: u64,
        directive: Option<PullDirective>,
        epoch: u64,
    ) -> ClusterResp {
        let flat = flat.into();
        match PackedF32::pack(codec, &flat) {
            Some(packed) => ClusterResp::QWeights { packed, version, directive, epoch },
            None => ClusterResp::Weights { flat, version, directive, epoch },
        }
    }
}

// ------------------------------------------------------- field helpers
//
// The `*_len` functions feed `WireMsg::size_hint`: the encoded size of the
// field they are named after, so a message's buffer is allocated once.

fn tensor_len(t: &Tensor) -> usize {
    16 + 8 * t.dims().len() + 4 * t.data().len()
}

pub(crate) fn bn_state_len(s: &BnState) -> usize {
    16 + s.means.iter().chain(&s.vars).map(tensor_len).sum::<usize>()
}

fn batch_stats_len(stats: &[BnBatchStats]) -> usize {
    8 + stats.iter().map(|s| tensor_len(&s.mean) + tensor_len(&s.var)).sum::<usize>()
}

fn directive_len(directive: &Option<PullDirective>) -> usize {
    let shard = directive.as_ref().and_then(|d| d.shard.as_ref());
    3 + shard.map_or(0, |s| 8 + 8 * s.len())
}

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    let dims = t.dims();
    wire::put_u64(buf, dims.len() as u64);
    for &d in dims {
        wire::put_u64(buf, d as u64);
    }
    wire::put_vec_f32(buf, t.data());
}

fn read_tensor(r: &mut WireReader<'_>) -> Result<Tensor, ClusterError> {
    let ndims = r.len(8)?;
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        dims.push(r.u64()? as usize);
    }
    let data = r.vec_f32()?;
    let numel: usize = dims.iter().product();
    if numel != data.len() {
        return Err(ClusterError::Protocol(format!(
            "tensor shape {dims:?} wants {numel} values, payload has {}",
            data.len()
        )));
    }
    Ok(Tensor::from_vec(data, &dims))
}

pub(crate) fn put_bn_state(buf: &mut Vec<u8>, s: &BnState) {
    wire::put_u64(buf, s.means.len() as u64);
    for t in &s.means {
        put_tensor(buf, t);
    }
    wire::put_u64(buf, s.vars.len() as u64);
    for t in &s.vars {
        put_tensor(buf, t);
    }
}

pub(crate) fn read_bn_state(r: &mut WireReader<'_>) -> Result<BnState, ClusterError> {
    let n = r.len(1)?;
    let means = (0..n).map(|_| read_tensor(r)).collect::<Result<_, _>>()?;
    let n = r.len(1)?;
    let vars = (0..n).map(|_| read_tensor(r)).collect::<Result<_, _>>()?;
    Ok(BnState { means, vars })
}

fn put_batch_stats(buf: &mut Vec<u8>, stats: &[BnBatchStats]) {
    wire::put_u64(buf, stats.len() as u64);
    for s in stats {
        put_tensor(buf, &s.mean);
        put_tensor(buf, &s.var);
    }
}

fn read_batch_stats(r: &mut WireReader<'_>) -> Result<Vec<BnBatchStats>, ClusterError> {
    let n = r.len(1)?;
    (0..n).map(|_| Ok(BnBatchStats { mean: read_tensor(r)?, var: read_tensor(r)? })).collect()
}

fn put_directive(buf: &mut Vec<u8>, directive: &Option<PullDirective>) {
    match directive {
        None => wire::put_u8(buf, 0),
        Some(d) => {
            wire::put_u8(buf, 1);
            wire::put_u8(buf, d.mode.as_u8());
            match &d.shard {
                None => wire::put_u8(buf, 0),
                Some(shard) => {
                    wire::put_u8(buf, 1);
                    wire::put_u64(buf, shard.len() as u64);
                    for &i in shard {
                        wire::put_u64(buf, i);
                    }
                }
            }
        }
    }
}

fn read_directive(r: &mut WireReader<'_>) -> Result<Option<PullDirective>, ClusterError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let tag = r.u8()?;
            let mode = AlgoMode::from_u8(tag)
                .ok_or_else(|| ClusterError::Protocol(format!("unknown AlgoMode tag {tag}")))?;
            let shard = match r.u8()? {
                0 => None,
                1 => {
                    let n = r.len(8)?;
                    Some((0..n).map(|_| r.u64()).collect::<Result<_, _>>()?)
                }
                b => return Err(ClusterError::Protocol(format!("bad shard presence byte {b}"))),
            };
            Ok(Some(PullDirective { mode, shard }))
        }
        b => Err(ClusterError::Protocol(format!("bad directive presence byte {b}"))),
    }
}

// ------------------------------------------------------------- WireMsg

impl WireMsg for ClusterReq {
    /// Valid-CRC payload corruption for fault injection: mutate the
    /// message *before* framing so every checksum still passes and only
    /// the supervisor's sentinels can catch it. NaN mode poisons the
    /// gradient and loss outright; bit-flip mode XORs each gradient
    /// value's sign bit, exponent LSB and mantissa (finite stays finite,
    /// magnitude within 2×, direction garbage — gradient *ascent*).
    /// Returns whether this variant had anything to corrupt.
    fn corrupt_payload(&mut self, seed: u64, nan: bool) -> bool {
        match self {
            ClusterReq::Grad { grads, loss, .. } => {
                let mut g = grads.decompress();
                if nan {
                    g.fill(f32::NAN);
                    *loss = f32::NAN;
                } else {
                    let mut s = seed | 1;
                    for v in &mut g {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        let mask = 0x8080_0000u32 | ((s as u32) & 0x007F_FFFF);
                        *v = f32::from_bits(v.to_bits() ^ mask);
                    }
                }
                *grads = CompressedGrad::Dense(g);
                true
            }
            ClusterReq::State { loss, .. } if nan => {
                *loss = f32::NAN;
                true
            }
            _ => false,
        }
    }

    fn size_hint(&self) -> usize {
        // Tag and scalar fields fit in the constant.
        64 + match self {
            ClusterReq::Pull { .. } | ClusterReq::Join { .. } => 0,
            ClusterReq::State { running, batch_stats, .. } => {
                bn_state_len(running) + batch_stats_len(batch_stats)
            }
            ClusterReq::Grad { grads, batch_stats, running, .. } => {
                grads.size_hint() + batch_stats_len(batch_stats) + bn_state_len(running)
            }
            ClusterReq::Replicate(payload) => payload.size_hint(),
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClusterReq::Pull { epoch, shard } => {
                wire::put_u8(buf, 0);
                wire::put_u64(buf, *epoch);
                wire::put_u32(buf, *shard);
            }
            ClusterReq::State { loss, running, batch_stats, t_comm, t_comp, epoch } => {
                wire::put_u8(buf, 1);
                wire::put_f32(buf, *loss);
                put_bn_state(buf, running);
                put_batch_stats(buf, batch_stats);
                wire::put_f32(buf, *t_comm);
                wire::put_f32(buf, *t_comp);
                wire::put_u64(buf, *epoch);
            }
            ClusterReq::Grad {
                grads,
                pull_version,
                loss,
                batch_stats,
                running,
                epoch,
                push_seq,
                shard,
            } => {
                wire::put_u8(buf, 2);
                grads.encode(buf);
                wire::put_u64(buf, *pull_version);
                wire::put_f32(buf, *loss);
                put_batch_stats(buf, batch_stats);
                put_bn_state(buf, running);
                wire::put_u64(buf, *epoch);
                wire::put_u64(buf, *push_seq);
                wire::put_u32(buf, *shard);
            }
            ClusterReq::Join { incarnation } => {
                wire::put_u8(buf, 3);
                wire::put_u32(buf, *incarnation);
            }
            ClusterReq::Replicate(payload) => {
                wire::put_u8(buf, 4);
                payload.encode(buf);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        match r.u8()? {
            0 => Ok(ClusterReq::Pull { epoch: r.u64()?, shard: r.u32()? }),
            1 => Ok(ClusterReq::State {
                loss: r.f32()?,
                running: read_bn_state(r)?,
                batch_stats: read_batch_stats(r)?,
                t_comm: r.f32()?,
                t_comp: r.f32()?,
                epoch: r.u64()?,
            }),
            2 => Ok(ClusterReq::Grad {
                grads: CompressedGrad::decode(r)?,
                pull_version: r.u64()?,
                loss: r.f32()?,
                batch_stats: read_batch_stats(r)?,
                running: read_bn_state(r)?,
                epoch: r.u64()?,
                push_seq: r.u64()?,
                shard: r.u32()?,
            }),
            3 => Ok(ClusterReq::Join { incarnation: r.u32()? }),
            4 => Ok(ClusterReq::Replicate(ReplicaPayload::decode(r)?)),
            tag => Err(ClusterError::Protocol(format!("unknown ClusterReq tag {tag}"))),
        }
    }
}

impl WireMsg for ClusterResp {
    fn size_hint(&self) -> usize {
        // Tag and scalar fields fit in the constant.
        32 + match self {
            ClusterResp::Weights { flat, directive, .. } => {
                4 * flat.len() + directive_len(directive)
            }
            ClusterResp::QWeights { packed, directive, .. } => {
                packed.size_hint() + directive_len(directive)
            }
            _ => 0,
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ClusterResp::Weights { flat, version, directive, epoch } => {
                wire::put_u8(buf, 0);
                wire::put_vec_f32(buf, flat);
                wire::put_u64(buf, *version);
                wire::put_u64(buf, *epoch);
                put_directive(buf, directive);
            }
            ClusterResp::Compensation { l_delay, one_step, km } => {
                wire::put_u8(buf, 1);
                wire::put_f32(buf, *l_delay);
                wire::put_f32(buf, *one_step);
                wire::put_u32(buf, *km);
            }
            ClusterResp::Stop => wire::put_u8(buf, 2),
            ClusterResp::Fenced { epoch } => {
                wire::put_u8(buf, 3);
                wire::put_u64(buf, *epoch);
            }
            ClusterResp::ReplicaAck { seq } => {
                wire::put_u8(buf, 4);
                wire::put_u64(buf, *seq);
            }
            ClusterResp::QWeights { packed, version, directive, epoch } => {
                wire::put_u8(buf, 5);
                packed.encode(buf);
                wire::put_u64(buf, *version);
                wire::put_u64(buf, *epoch);
                put_directive(buf, directive);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        match r.u8()? {
            0 => {
                let flat = r.bulk_vec_f32()?.into();
                let version = r.u64()?;
                let epoch = r.u64()?;
                let directive = read_directive(r)?;
                Ok(ClusterResp::Weights { flat, version, directive, epoch })
            }
            1 => Ok(ClusterResp::Compensation {
                l_delay: r.f32()?,
                one_step: r.f32()?,
                km: r.u32()?,
            }),
            2 => Ok(ClusterResp::Stop),
            3 => Ok(ClusterResp::Fenced { epoch: r.u64()? }),
            4 => Ok(ClusterResp::ReplicaAck { seq: r.u64()? }),
            5 => {
                let packed = PackedF32::decode(r)?;
                let version = r.u64()?;
                let epoch = r.u64()?;
                let directive = read_directive(r)?;
                Ok(ClusterResp::QWeights { packed, version, directive, epoch })
            }
            tag => Err(ClusterError::Protocol(format!("unknown ClusterResp tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bn_state() -> BnState {
        BnState {
            means: vec![Tensor::from_vec(vec![0.5, -1.0], &[2])],
            vars: vec![Tensor::from_vec(vec![1.0, 2.0], &[2])],
        }
    }

    fn batch_stats() -> Vec<BnBatchStats> {
        vec![BnBatchStats {
            mean: Tensor::from_vec(vec![0.1, 0.2, 0.3], &[3]),
            var: Tensor::from_vec(vec![1.0, 1.1, 1.2], &[3]),
        }]
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = [
            ClusterReq::Pull { epoch: 5, shard: 3 },
            ClusterReq::State {
                loss: 2.5,
                running: bn_state(),
                batch_stats: batch_stats(),
                t_comm: 0.01,
                t_comp: 0.2,
                epoch: 9,
            },
            ClusterReq::Grad {
                grads: CompressedGrad::Sparse { len: 4, entries: vec![(1, -3.0), (3, 0.5)] },
                pull_version: 42,
                loss: 1.25,
                batch_stats: Vec::new(),
                running: BnState::default(),
                epoch: 1,
                push_seq: (2u64 << 32) | 7,
                shard: 2,
            },
        ];
        for req in reqs {
            let back = ClusterReq::decoded(&req.encoded()).unwrap();
            match (&req, &back) {
                (
                    ClusterReq::Pull { epoch: a, shard: sa },
                    ClusterReq::Pull { epoch: b, shard: sb },
                ) => {
                    assert_eq!((a, sa), (b, sb));
                }
                (
                    ClusterReq::State {
                        loss: a,
                        t_comm: ta,
                        t_comp: ca,
                        running: ra,
                        batch_stats: ba,
                        epoch: ea,
                    },
                    ClusterReq::State {
                        loss: b,
                        t_comm: tb,
                        t_comp: cb,
                        running: rb,
                        batch_stats: bb,
                        epoch: eb,
                    },
                ) => {
                    assert_eq!(a, b);
                    assert_eq!(ta, tb);
                    assert_eq!(ca, cb);
                    assert_eq!(ea, eb);
                    assert_eq!(ra.means.len(), rb.means.len());
                    assert_eq!(ba.len(), bb.len());
                    assert_eq!(ba[0].mean.data(), bb[0].mean.data());
                }
                (
                    ClusterReq::Grad {
                        grads: ga,
                        pull_version: va,
                        loss: la,
                        epoch: ea,
                        push_seq: sa,
                        shard: ha,
                        ..
                    },
                    ClusterReq::Grad {
                        grads: gb,
                        pull_version: vb,
                        loss: lb,
                        epoch: eb,
                        push_seq: sb,
                        shard: hb,
                        ..
                    },
                ) => {
                    assert_eq!(va, vb);
                    assert_eq!(la, lb);
                    assert_eq!((ea, sa, ha), (eb, sb, hb));
                    assert_eq!(ga.decompress(), gb.decompress());
                }
                _ => panic!("variant changed across the wire"),
            }
        }
    }

    #[test]
    fn join_roundtrips() {
        let j = ClusterReq::Join { incarnation: 3 };
        match ClusterReq::decoded(&j.encoded()).unwrap() {
            ClusterReq::Join { incarnation } => assert_eq!(incarnation, 3),
            _ => panic!("variant changed"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let w = ClusterResp::Weights {
            flat: vec![1.0, -2.0, 3.5].into(),
            version: 7,
            directive: None,
            epoch: 2,
        };
        match ClusterResp::decoded(&w.encoded()).unwrap() {
            ClusterResp::Weights { flat, version, directive, epoch } => {
                assert_eq!(*flat, vec![1.0, -2.0, 3.5]);
                assert_eq!(version, 7);
                assert_eq!(directive, None);
                assert_eq!(epoch, 2);
            }
            _ => panic!("variant changed"),
        }
        let c = ClusterResp::Compensation { l_delay: 2.0, one_step: 1.5, km: 3 };
        match ClusterResp::decoded(&c.encoded()).unwrap() {
            ClusterResp::Compensation { l_delay, one_step, km } => {
                assert_eq!((l_delay, one_step, km), (2.0, 1.5, 3));
            }
            _ => panic!("variant changed"),
        }
        assert!(matches!(
            ClusterResp::decoded(&ClusterResp::Stop.encoded()),
            Ok(ClusterResp::Stop)
        ));
        assert!(matches!(
            ClusterResp::decoded(&ClusterResp::Fenced { epoch: 9 }.encoded()),
            Ok(ClusterResp::Fenced { epoch: 9 })
        ));
        assert!(matches!(
            ClusterResp::decoded(&ClusterResp::ReplicaAck { seq: 1234 }.encoded()),
            Ok(ClusterResp::ReplicaAck { seq: 1234 })
        ));
    }

    #[test]
    fn quantized_weights_roundtrip() {
        let flat = vec![1.0f32, -2.5, 0.125, 1000.0, -0.004];
        for codec in [WireCodec::Bf16, WireCodec::Int8] {
            let directive = Some(PullDirective { mode: AlgoMode::Asgd, shard: Some(vec![2, 7]) });
            let resp = ClusterResp::weights_for(codec, flat.clone(), 11, directive.clone(), 3);
            assert!(matches!(resp, ClusterResp::QWeights { .. }), "{codec} should quantize");
            match ClusterResp::decoded(&resp.encoded()).unwrap() {
                ClusterResp::QWeights { packed, version, directive: d, epoch } => {
                    assert_eq!((version, epoch), (11, 3));
                    assert_eq!(d, directive);
                    let got = packed.unpack();
                    assert_eq!(got.len(), flat.len());
                    for (a, b) in flat.iter().zip(got.iter()) {
                        // Both codecs bound relative error by their
                        // precision (bf16: 2⁻⁸; int8: max/127 per block).
                        assert!((a - b).abs() <= a.abs() / 100.0 + 8.0, "{codec}: {a} vs {b}");
                    }
                }
                _ => panic!("a quantized reply decodes as QWeights"),
            }
        }
        // F32 stays a plain Weights reply — bit-identical seed encoding.
        let resp = ClusterResp::weights_for(WireCodec::F32, flat.clone(), 11, None, 3);
        assert!(matches!(resp, ClusterResp::Weights { .. }));
        let plain =
            ClusterResp::Weights { flat: flat.into(), version: 11, directive: None, epoch: 3 };
        assert_eq!(resp.encoded(), plain.encoded());
    }

    #[test]
    fn truncated_qweights_are_rejected() {
        let resp = ClusterResp::weights_for(WireCodec::Int8, vec![0.5; 300], 1, None, 0);
        let bytes = resp.encoded();
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(ClusterResp::decoded(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn pull_directives_roundtrip() {
        for directive in [
            Some(PullDirective { mode: AlgoMode::Dc, shard: None }),
            Some(PullDirective { mode: AlgoMode::Asgd, shard: Some(vec![3, 1, 4, 15]) }),
        ] {
            let w = ClusterResp::Weights {
                flat: vec![0.5].into(),
                version: 99,
                directive: directive.clone(),
                epoch: 0,
            };
            match ClusterResp::decoded(&w.encoded()).unwrap() {
                ClusterResp::Weights { directive: back, .. } => assert_eq!(back, directive),
                _ => panic!("variant changed"),
            }
        }
    }

    #[test]
    fn corrupt_payload_nan_poisons_grad_and_loss() {
        let mut req = ClusterReq::Grad {
            grads: CompressedGrad::Dense(vec![1.0, -2.0]),
            pull_version: 1,
            loss: 0.5,
            batch_stats: Vec::new(),
            running: BnState::default(),
            epoch: 0,
            push_seq: 0,
            shard: 0,
        };
        assert!(req.corrupt_payload(7, true));
        match req {
            ClusterReq::Grad { grads, loss, .. } => {
                assert!(loss.is_nan());
                assert!(grads.decompress().iter().all(|v| v.is_nan()));
            }
            _ => panic!("variant changed"),
        }
    }

    #[test]
    fn corrupt_payload_bitflips_stay_finite_but_change_values() {
        let original = vec![1.0f32, -2.0, 0.25, 8.0];
        let mut req = ClusterReq::Grad {
            grads: CompressedGrad::Dense(original.clone()),
            pull_version: 1,
            loss: 0.5,
            batch_stats: Vec::new(),
            running: BnState::default(),
            epoch: 0,
            push_seq: 0,
            shard: 0,
        };
        assert!(req.corrupt_payload(0xDEAD_BEEF, false));
        match req {
            ClusterReq::Grad { grads, loss, .. } => {
                assert_eq!(loss, 0.5, "bit-flip mode leaves the loss alone");
                let g = grads.decompress();
                assert_ne!(g, original);
                for (a, b) in g.iter().zip(&original) {
                    assert!(a.is_finite());
                    // Sign + exponent-LSB + mantissa flips keep magnitude
                    // within a factor of 4 of the original.
                    assert!(a.abs() <= 4.0 * b.abs() && a.abs() >= b.abs() / 4.0);
                }
            }
            _ => panic!("variant changed"),
        }
        // Pulls and joins carry nothing corruptible.
        assert!(!ClusterReq::Pull { epoch: 0, shard: 0 }.corrupt_payload(1, true));
        assert!(!ClusterReq::Join { incarnation: 1 }.corrupt_payload(1, false));
    }

    #[test]
    fn replicate_roundtrips() {
        let rec = crate::replication::LogRecord {
            seq: 3,
            epoch: 1,
            worker: 2,
            push_seq: (1u64 << 32) | 5,
            version: 17,
            staleness: 4,
            loss: 0.75,
            delta: vec![0.5, -0.25],
            digest: crate::replication::LogRecord::digest_of(&[0.5, -0.25]),
            arrival: Some(17),
            bn: Some(bn_state()),
            shard: 1,
        };
        let req = ClusterReq::Replicate(ReplicaPayload::Records(vec![rec.clone()]));
        match ClusterReq::decoded(&req.encoded()).unwrap() {
            ClusterReq::Replicate(ReplicaPayload::Records(back)) => {
                assert_eq!(back, vec![rec]);
            }
            _ => panic!("variant changed"),
        }
        let snap =
            ClusterReq::Replicate(ReplicaPayload::Snapshot { next_seq: 8, blob: vec![9, 8, 7] });
        match ClusterReq::decoded(&snap.encoded()).unwrap() {
            ClusterReq::Replicate(ReplicaPayload::Snapshot { next_seq, blob }) => {
                assert_eq!((next_seq, blob), (8, vec![9, 8, 7]));
            }
            _ => panic!("variant changed"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Epoch-fenced requests round-trip for arbitrary epoch and
        /// push-sequence values (including the `(incarnation << 32)`
        /// high bits).
        #[test]
        fn fenced_variants_roundtrip(epoch in proptest::prelude::any::<u64>(),
                                     push_seq in proptest::prelude::any::<u64>(),
                                     seq in proptest::prelude::any::<u64>(),
                                     shard in proptest::prelude::any::<u32>()) {
            match ClusterReq::decoded(&ClusterReq::Pull { epoch, shard }.encoded()).unwrap() {
                ClusterReq::Pull { epoch: back, shard: sh } => {
                    proptest::prop_assert_eq!((back, sh), (epoch, shard));
                }
                _ => return Err(proptest::test_runner::TestCaseError::fail("variant changed")),
            }
            let grad = ClusterReq::Grad {
                grads: CompressedGrad::Dense(vec![1.0, -1.0]),
                pull_version: 3,
                loss: 0.1,
                batch_stats: Vec::new(),
                running: BnState::default(),
                epoch,
                push_seq,
                shard,
            };
            match ClusterReq::decoded(&grad.encoded()).unwrap() {
                ClusterReq::Grad { epoch: e, push_seq: s, shard: sh, .. } => {
                    proptest::prop_assert_eq!((e, s, sh), (epoch, push_seq, shard));
                }
                _ => return Err(proptest::test_runner::TestCaseError::fail("variant changed")),
            }
            match ClusterResp::decoded(&ClusterResp::Fenced { epoch }.encoded()).unwrap() {
                ClusterResp::Fenced { epoch: back } => proptest::prop_assert_eq!(back, epoch),
                _ => return Err(proptest::test_runner::TestCaseError::fail("variant changed")),
            }
            match ClusterResp::decoded(&ClusterResp::ReplicaAck { seq }.encoded()).unwrap() {
                ClusterResp::ReplicaAck { seq: back } => proptest::prop_assert_eq!(back, seq),
                _ => return Err(proptest::test_runner::TestCaseError::fail("variant changed")),
            }
        }

        /// Truncating an encoded Replicate message anywhere must fail the
        /// decode, never panic or mis-parse.
        #[test]
        fn truncated_replicate_is_rejected(cut_pick in proptest::prelude::any::<u32>()) {
            let delta = vec![1.0f32, -2.0, 0.5];
            let rec = crate::replication::LogRecord {
                seq: 1,
                epoch: 0,
                worker: 0,
                push_seq: 1,
                version: 1,
                staleness: 0,
                loss: 0.2,
                digest: crate::replication::LogRecord::digest_of(&delta),
                delta,
                arrival: None,
                bn: None,
                shard: 0,
            };
            let bytes = ClusterReq::Replicate(ReplicaPayload::Records(vec![rec])).encoded();
            let cut = cut_pick as usize % bytes.len();
            proptest::prop_assert!(ClusterReq::decoded(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn malformed_payloads_are_protocol_errors() {
        assert!(matches!(ClusterReq::decoded(&[77]), Err(ClusterError::Protocol(_))));
        assert!(matches!(ClusterResp::decoded(&[77]), Err(ClusterError::Protocol(_))));
        // A shape that disagrees with its data length.
        let mut buf = vec![1u8]; // State tag
        wire::put_f32(&mut buf, 1.0);
        wire::put_u64(&mut buf, 1); // one mean tensor…
        wire::put_u64(&mut buf, 1); // …with 1 dim
        wire::put_u64(&mut buf, 5); // claiming 5 elements
        wire::put_vec_f32(&mut buf, &[1.0, 2.0]); // but carrying 2
        assert!(matches!(ClusterReq::decoded(&buf), Err(ClusterError::Protocol(_))));
    }
}
