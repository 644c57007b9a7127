//! Golden byte-identity suite for the bulk codecs.
//!
//! The wire, WAL and checkpoint encoders write `f32` runs in bulk; this
//! file keeps the formats honest from the outside. A per-element
//! reference encoder (one `to_le_bytes` at a time, its own bit-at-a-time
//! CRC) is kept here and every model-sized message must encode to exactly
//! its bytes; bulk decoding must reproduce every bit pattern a
//! per-element decode does (NaN payloads, −0.0); corrupt lengths must be
//! refused before anything is allocated for them; and blobs written by
//! the commit before the bulk codecs must still load.
//!
//! One encoder serves every sink, so the sinks are held to the bytes of
//! `encoded()` too: windows of any size concatenate to them, the checksum
//! sink hashes exactly them, and a payload decoded as it streams in, in
//! pieces of any size, is the one decoded from the whole slice.

use lc_asgd::autograd::ops::norm::BnBatchStats;
use lc_asgd::core::comm::CompressedGrad;
use lc_asgd::core::metrics::EpochRecord;
use lc_asgd::core::predictor::{LossPredictorSnapshot, StepPredictorSnapshot};
use lc_asgd::core::protocol::{ClusterReq, ClusterResp, PullDirective};
use lc_asgd::core::replication::ReplicaPayload;
use lc_asgd::core::{Compression, LogRecord, TrainingCheckpoint};
use lc_asgd::netcluster::frame;
use lc_asgd::nn::network::BnState;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::codec::{Crc32, INT8_BLOCK};
use lc_asgd::simcluster::{ClusterError, PackedF32, Window, WireCodec, WireMsg, WireReader};

// ------------------------------------------------- reference encoders

/// Per-element little-endian writer: the format, spelled out.
#[derive(Default)]
struct Ref(Vec<u8>);

impl Ref {
    fn u8(&mut self, v: u8) -> &mut Self {
        self.0.push(v);
        self
    }
    fn u16(&mut self, v: u16) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u32(&mut self, v: u32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u64(&mut self, v: u64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn f32(&mut self, v: f32) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn f64(&mut self, v: f64) -> &mut Self {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn vec_f32(&mut self, v: &[f32]) -> &mut Self {
        self.u64(v.len() as u64);
        for &x in v {
            self.f32(x);
        }
        self
    }
    fn tensor(&mut self, t: &Tensor) -> &mut Self {
        self.u64(t.dims().len() as u64);
        for &d in t.dims() {
            self.u64(d as u64);
        }
        self.vec_f32(t.data())
    }
    fn bn_state(&mut self, s: &BnState) -> &mut Self {
        self.u64(s.means.len() as u64);
        for t in &s.means {
            self.tensor(t);
        }
        self.u64(s.vars.len() as u64);
        for t in &s.vars {
            self.tensor(t);
        }
        self
    }
    fn batch_stats(&mut self, stats: &[BnBatchStats]) -> &mut Self {
        self.u64(stats.len() as u64);
        for s in stats {
            self.tensor(&s.mean).tensor(&s.var);
        }
        self
    }
    fn directive(&mut self, d: &Option<PullDirective>) -> &mut Self {
        match d {
            None => self.u8(0),
            Some(d) => {
                self.u8(1).u8(d.mode.as_u8());
                match &d.shard {
                    None => self.u8(0),
                    Some(shard) => {
                        self.u8(1).u64(shard.len() as u64);
                        for &i in shard {
                            self.u64(i);
                        }
                        self
                    }
                }
            }
        }
    }
    fn packed(&mut self, p: &PackedF32) -> &mut Self {
        match p {
            PackedF32::Bf16(halves) => {
                self.u8(0).u64(halves.len() as u64);
                for &h in halves {
                    self.u16(h);
                }
            }
            PackedF32::Int8 { levels, scales } => {
                self.u8(1).u64(levels.len() as u64);
                for &l in levels {
                    self.u8(l as u8);
                }
                self.vec_f32(scales);
            }
        }
        self
    }
    fn compressed(&mut self, g: &CompressedGrad) -> &mut Self {
        match g {
            CompressedGrad::Dense(v) => {
                self.u8(0).vec_f32(v);
            }
            CompressedGrad::Quantized { scale, levels } => {
                self.u8(2).f32(*scale).u64(levels.len() as u64);
                for &l in levels {
                    self.u8(l as u8);
                }
            }
            CompressedGrad::Bf16(halves) => {
                self.u8(3).u64(halves.len() as u64);
                for &h in halves {
                    self.u16(h);
                }
            }
        }
        self
    }
    fn log_record(&mut self, r: &LogRecord) -> &mut Self {
        self.u64(r.seq).u64(r.epoch).u32(r.worker).u64(r.push_seq).u64(r.version);
        self.u32(r.staleness).f32(r.loss).vec_f32(&r.delta).u32(r.digest);
        match r.arrival {
            None => self.u8(0),
            Some(v) => self.u8(1).u64(v),
        };
        match &r.bn {
            None => self.u8(0),
            Some(bn) => self.u8(1).bn_state(bn),
        };
        self.u32(r.shard)
    }
    fn lstm_state(&mut self, layers: &[(Vec<f32>, Vec<f32>)]) -> &mut Self {
        self.u64(layers.len() as u64);
        for (h, c) in layers {
            self.vec_f32(h).vec_f32(c);
        }
        self
    }
    fn opt_f32(&mut self, v: Option<f32>) -> &mut Self {
        match v {
            None => self.u8(0),
            Some(x) => self.u8(1).f32(x),
        }
    }
}

/// Bit-at-a-time IEEE CRC-32: this file's own oracle.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

fn ref_checkpoint(ck: &TrainingCheckpoint) -> Vec<u8> {
    let mut r = Ref::default();
    r.0.extend_from_slice(b"LCTRCK02");
    r.vec_f32(&ck.weights).u64(ck.bn.means.len() as u64);
    for (mean, var) in ck.bn.means.iter().zip(&ck.bn.vars) {
        r.vec_f32(mean.data()).vec_f32(var.data());
    }
    r.u64(ck.version).u64(ck.applied).u64(ck.arrival.len() as u64);
    for a in &ck.arrival {
        r.u64(a.unwrap_or(u64::MAX));
    }
    r.u64(ck.iter.len() as u64);
    for &m in &ck.iter {
        r.u32(m as u32);
    }
    r.u64(ck.staleness.len() as u64);
    for &s in &ck.staleness {
        r.u32(s);
    }
    r.vec_f32(&ck.epoch_losses).u64(ck.epochs.len() as u64);
    for e in &ck.epochs {
        r.u64(e.epoch as u64).f64(e.time);
        r.f32(e.train_error).f32(e.test_error).f32(e.train_loss).f32(e.lr);
    }
    match &ck.loss_pred {
        None => r.u8(0),
        Some(lp) => {
            r.u8(1).vec_f32(&lp.params).lstm_state(&lp.state);
            r.opt_f32(lp.last_loss).opt_f32(lp.next_forecast).u64(lp.train_steps)
        }
    };
    match &ck.step_pred {
        None => r.u8(0),
        Some(sp) => {
            r.u8(1).vec_f32(&sp.params).u64(sp.streams.len() as u64);
            for (layers, prev) in &sp.streams {
                r.lstm_state(layers);
                match prev {
                    None => r.u8(0),
                    Some([a, b, c]) => r.u8(1).f32(*a).f32(*b).f32(*c),
                };
            }
            r.f64(sp.comm_scale).f64(sp.comp_scale).u64(sp.samples).u64(sp.train_steps)
        }
    };
    r.u64(ck.worker_batches.len() as u64);
    for &(reshuffles, pos) in &ck.worker_batches {
        r.u64(reshuffles).u64(pos);
    }
    r.u64(ck.server_epoch).u64(ck.push_seqs.len() as u64);
    for &s in &ck.push_seqs {
        r.u64(s);
    }
    r.u64(ck.shard_versions.len() as u64);
    for &v in &ck.shard_versions {
        r.u64(v);
    }
    let crc = crc32_bitwise(&r.0);
    r.u32(crc);
    r.0
}

// ------------------------------------------------------------ samples

/// Values whose bit patterns a sloppy codec would disturb, padded out
/// past two int8 blocks and a bulk-copy stride.
fn awkward(n: usize) -> Vec<f32> {
    let specials = [
        0.0f32,
        -0.0,
        1.0,
        -1.5,
        f32::MIN_POSITIVE,
        1e-42, // subnormal
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7FC0_0001), // quiet NaN with payload
        f32::from_bits(0xFFFF_FFFF), // negative NaN, all ones
        f32::from_bits(0x7F80_0001), // signaling NaN
    ];
    (0..n)
        .map(|i| match specials.get(i % 29) {
            Some(&s) => s,
            None => ((i * 37 % 101) as f32 - 50.0) * 0.173,
        })
        .collect()
}

/// Finite values only, for the lossy codecs.
fn smooth(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.173).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bn_state() -> BnState {
    BnState {
        means: vec![Tensor::from_vec(vec![0.5, -1.0, -0.0], &[3])],
        vars: vec![Tensor::from_vec(vec![1.0, 2.0, 0.25], &[3])],
    }
}

fn batch_stats() -> Vec<BnBatchStats> {
    vec![BnBatchStats {
        mean: Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4], &[2, 2]),
        var: Tensor::from_vec(vec![1.0, 1.1, 1.2, 1.3], &[2, 2]),
    }]
}

fn directive() -> Option<PullDirective> {
    Some(PullDirective { mode: AlgoMode::Dc, shard: Some(vec![3, 1, 4, 1 << 40]) })
}

fn log_record(delta: Vec<f32>) -> LogRecord {
    LogRecord {
        seq: 7,
        epoch: 1,
        worker: 2,
        push_seq: (1 << 32) | 7,
        version: 19,
        staleness: 3,
        loss: 0.5,
        digest: LogRecord::digest_of(&delta),
        delta,
        arrival: Some(18),
        bn: Some(bn_state()),
        shard: 1,
    }
}

fn checkpoint(weights: Vec<f32>) -> TrainingCheckpoint {
    TrainingCheckpoint {
        weights,
        bn: bn_state(),
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
            ],
            comm_scale: 0.002,
            comp_scale: 0.04,
            samples: 99,
            train_steps: 77,
        }),
        worker_batches: vec![(1, 7), (2, 0), (1, 11)],
        server_epoch: 2,
        push_seqs: vec![(1 << 32) | 9, 0, 17],
        shard_versions: vec![321, 321],
    }
}

// ------------------------------------------------- encode: byte identity

#[test]
fn weights_replies_encode_to_the_reference_bytes() {
    for n in [0, 1, 5, 1031] {
        let flat = awkward(n);
        for directive in [None, directive()] {
            let resp = ClusterResp::Weights {
                flat: flat.clone().into(),
                version: 77,
                directive,
                epoch: 3,
            };
            let ClusterResp::Weights { directive, .. } = &resp else { unreachable!() };
            let mut want = Ref::default();
            want.u8(0).vec_f32(&flat).u64(77).u64(3).directive(directive);
            assert_eq!(resp.encoded(), want.0, "n = {n}");
        }
    }
}

#[test]
fn quantized_weights_replies_encode_to_the_reference_bytes() {
    for codec in [WireCodec::Bf16, WireCodec::Int8] {
        for n in [0, 1, INT8_BLOCK, 2 * INT8_BLOCK + 17] {
            let packed = PackedF32::pack(codec, &smooth(n)).expect("a quantizing codec packs");
            let mut want = Ref::default();
            want.u8(5).packed(&packed).u64(9).u64(1).directive(&directive());
            let resp = ClusterResp::QWeights {
                packed: packed.clone(),
                version: 9,
                directive: directive(),
                epoch: 1,
            };
            assert_eq!(resp.encoded(), want.0, "{codec} n = {n}");
            // The packed vector on its own, too.
            let mut want = Ref::default();
            want.packed(&packed);
            assert_eq!(packed.encoded(), want.0, "{codec} n = {n}");
        }
    }
}

#[test]
fn gradient_pushes_encode_to_the_reference_bytes_for_every_compression() {
    let grads = smooth(700);
    let variants = [
        Compression::None.compress(&awkward(700), None),
        Compression::Int8.compress(&grads, None),
        Compression::Bf16.compress(&grads, None),
    ];
    let tags: Vec<u8> = variants.iter().map(|g| g.encoded()[0]).collect();
    assert_eq!(tags, [0, 2, 3], "one of each CompressedGrad variant");
    for grads in variants {
        let mut want = Ref::default();
        want.u8(2).compressed(&grads).u64(41).f32(1.25);
        want.batch_stats(&batch_stats()).bn_state(&bn_state());
        want.u64(2).u64((3 << 32) | 8).u32(1);
        let req = ClusterReq::Grad {
            grads,
            pull_version: 41,
            loss: 1.25,
            batch_stats: batch_stats(),
            running: bn_state(),
            epoch: 2,
            push_seq: (3 << 32) | 8,
            shard: 1,
        };
        assert_eq!(req.encoded(), want.0);
    }
}

#[test]
fn log_records_encode_to_the_reference_bytes_and_digest_the_le_bytes() {
    for n in [0, 3, 1025, 2500] {
        let rec = log_record(awkward(n));
        let mut want = Ref::default();
        want.log_record(&rec);
        assert_eq!(rec.encoded(), want.0, "n = {n}");
        let mut le = Ref::default();
        for &v in &rec.delta {
            le.f32(v);
        }
        assert_eq!(rec.digest, crc32_bitwise(&le.0), "n = {n}");
        assert!(rec.verify());
    }
}

#[test]
fn checkpoints_encode_to_the_reference_bytes() {
    for n in [0, 40, 3001] {
        let ck = checkpoint(awkward(n));
        assert_eq!(ck.to_bytes(), ref_checkpoint(&ck), "n = {n}");
    }
    let bare = TrainingCheckpoint { loss_pred: None, step_pred: None, ..checkpoint(smooth(9)) };
    assert_eq!(bare.to_bytes(), ref_checkpoint(&bare));
}

#[test]
fn frames_carry_the_reference_checksum() {
    let payload =
        ClusterResp::Weights { flat: awkward(5000).into(), version: 1, directive: None, epoch: 0 }
            .encoded();
    assert_eq!(frame::crc32(&payload), crc32_bitwise(&payload));
    let mut wire = Vec::new();
    frame::write_frame(&mut wire, &frame::Frame::new(frame::FrameKind::Reply, 5, payload.clone()))
        .unwrap();
    assert_eq!(wire[20..24], crc32_bitwise(&payload).to_le_bytes());
    assert_eq!(&wire[frame::HEADER_LEN..], &payload[..]);
    // Streaming in pieces is the same checksum.
    let mut crc = Crc32::new();
    for piece in payload.chunks(777) {
        crc.update(piece);
    }
    assert_eq!(crc.finish(), crc32_bitwise(&payload));
}

// ------------------------------------------- decode: bit-pattern identity

#[test]
fn bulk_decode_reproduces_every_bit_pattern_a_per_element_decode_does() {
    let vals = awkward(1031);
    let mut enc = Ref::default();
    enc.vec_f32(&vals);
    // Per element, through the scalar reader.
    let mut r = WireReader::new(&enc.0);
    let n = r.u64().unwrap() as usize;
    let one_by_one: Vec<f32> = (0..n).map(|_| r.f32().unwrap()).collect();
    r.finish().unwrap();
    // In bulk.
    let mut r = WireReader::new(&enc.0);
    let bulk = r.vec_f32().unwrap();
    r.finish().unwrap();
    assert_eq!(bits(&bulk), bits(&one_by_one));
    assert_eq!(bits(&bulk), bits(&vals));

    // The same through the messages that carry model-sized runs.
    let resp =
        ClusterResp::Weights { flat: vals.clone().into(), version: 1, directive: None, epoch: 0 };
    match ClusterResp::decoded(&resp.encoded()).unwrap() {
        ClusterResp::Weights { flat, .. } => assert_eq!(bits(&flat), bits(&vals)),
        _ => panic!("variant changed"),
    }
    let rec = log_record(vals.clone());
    assert_eq!(bits(&LogRecord::decoded(&rec.encoded()).unwrap().delta), bits(&vals));
    let ck = checkpoint(vals.clone());
    assert_eq!(bits(&TrainingCheckpoint::from_bytes(&ck.to_bytes()).unwrap().weights), bits(&vals));
}

#[test]
fn bulk_decode_of_quantized_runs_matches_per_element_decode() {
    let halves: Vec<u16> =
        (0..777u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 16) as u16).collect();
    let levels: Vec<i8> = (0..777i32).map(|i| (i * 37 % 256 - 128) as i8).collect();
    let scales = smooth(777usize.div_ceil(INT8_BLOCK));

    // Per element, through the scalar reader, off the reference bytes.
    let mut enc = Ref::default();
    enc.packed(&PackedF32::Bf16(halves.clone()));
    let mut r = WireReader::new(&enc.0);
    assert_eq!(r.u8().unwrap(), 0);
    let n = r.u64().unwrap() as usize;
    let one_by_one: Vec<u16> = (0..n).map(|_| r.u16().unwrap()).collect();
    assert_eq!(PackedF32::decoded(&enc.0).unwrap(), PackedF32::Bf16(one_by_one));

    let int8 = PackedF32::Int8 { levels: levels.clone(), scales };
    let mut enc = Ref::default();
    enc.packed(&int8);
    let mut r = WireReader::new(&enc.0);
    assert_eq!(r.u8().unwrap(), 1);
    let n = r.u64().unwrap() as usize;
    let one_by_one: Vec<i8> = (0..n).map(|_| r.u8().unwrap() as i8).collect();
    assert_eq!(one_by_one, levels);
    assert_eq!(PackedF32::decoded(&enc.0).unwrap(), int8);

    for grads in [
        CompressedGrad::Quantized { scale: 0.125, levels: levels.clone() },
        CompressedGrad::Bf16(halves.clone()),
    ] {
        let back = CompressedGrad::decoded(&grads.encoded()).unwrap();
        assert_eq!(back.encoded(), grads.encoded());
        assert_eq!(bits(&back.decompress()), bits(&grads.decompress()));
    }
}

// ------------------------------------- corrupt lengths: refused up front

#[test]
fn truncated_model_sized_messages_are_rejected() {
    let resp =
        ClusterResp::Weights { flat: smooth(300).into(), version: 1, directive: None, epoch: 0 }
            .encoded();
    let qresp = ClusterResp::weights_for(WireCodec::Int8, smooth(600), 1, None, 0).encoded();
    let rec = log_record(smooth(300)).encoded();
    for (what, bytes) in [("Weights", &resp), ("QWeights", &qresp)] {
        for cut in [1, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(ClusterResp::decoded(&bytes[..cut]).is_err(), "{what} cut at {cut}");
        }
    }
    for cut in [1, 40, rec.len() / 2, rec.len() - 1] {
        assert!(LogRecord::decoded(&rec[..cut]).is_err(), "LogRecord cut at {cut}");
    }
}

#[test]
fn oversize_length_prefixes_are_rejected_before_any_allocation() {
    // Every count below claims far more elements than the payload holds
    // (up to 2^64 − 1, which no allocator could serve): decoding must
    // fail on the length guard, not by trying.
    for claimed in [u64::MAX, u64::MAX / 4, 1 << 40, 1000] {
        let mut weights = Ref::default();
        weights.u8(0).u64(claimed).f32(1.0);
        assert!(ClusterResp::decoded(&weights.0).is_err(), "Weights claiming {claimed}");

        let mut bf16 = Ref::default();
        bf16.u8(5).u8(0).u64(claimed).u16(1);
        assert!(ClusterResp::decoded(&bf16.0).is_err(), "bf16 QWeights claiming {claimed}");

        let mut int8 = Ref::default();
        int8.u8(5).u8(1).u64(claimed).u8(1);
        assert!(ClusterResp::decoded(&int8.0).is_err(), "int8 QWeights claiming {claimed}");

        for tag in [0u8, 2, 3] {
            let mut grad = Ref::default();
            grad.u8(tag);
            if tag == 2 {
                grad.f32(1.0);
            }
            grad.u64(claimed).f32(1.0);
            assert!(CompressedGrad::decoded(&grad.0).is_err(), "grad tag {tag} claiming {claimed}");
        }

        // A checkpoint whose CRC is valid but whose weight count lies.
        let mut ck = Ref::default();
        ck.0.extend_from_slice(b"LCTRCK02");
        ck.u64(claimed).f32(1.0);
        let crc = crc32_bitwise(&ck.0);
        ck.u32(crc);
        assert!(TrainingCheckpoint::from_bytes(&ck.0).is_err(), "checkpoint claiming {claimed}");
    }
}

// ------------------------------------------ blobs from the parent commit

#[test]
fn a_checkpoint_written_by_the_parent_commit_still_loads() {
    // `TrainingCheckpoint::to_bytes()` of `checkpoint(…)`-shaped state,
    // captured at commit f88f165 (bit-at-a-time CRC, per-element writer).
    let blob = include_bytes!("fixtures/parent_checkpoint.bin");
    let ck = TrainingCheckpoint::from_bytes(blob).expect("parent-era checkpoint loads");
    assert_eq!(ck.weights, (0..37).map(|i| i as f32 * 0.25 - 3.0).collect::<Vec<_>>());
    assert_eq!((ck.version, ck.applied, ck.server_epoch), (321, 300, 2));
    assert_eq!(ck.arrival, vec![Some(319), None, Some(280)]);
    assert_eq!(ck.worker_batches, vec![(1, 7), (2, 0), (1, 11)]);
    assert_eq!(ck.step_pred.as_ref().map(|sp| sp.streams.len()), Some(2));
    // And re-encodes to the very same bytes.
    assert_eq!(ck.to_bytes(), blob);
}

#[test]
fn a_wal_record_written_by_the_parent_commit_still_verifies() {
    let blob = include_bytes!("fixtures/parent_log_record.bin");
    let rec = LogRecord::decoded(blob).expect("parent-era log record decodes");
    assert!(rec.verify(), "the parent's bitwise digest equals the streamed one");
    assert_eq!(bits(&rec.delta), bits(&[0.25, -1.0, 3.5, f32::MIN_POSITIVE, -0.0, 1e-30]));
    assert_eq!((rec.seq, rec.version, rec.shard), (7, 19, 1));
    assert_eq!(rec.encoded(), blob);
}

// ------------------------------------- sinks and the streaming reader

/// Every `ClusterReq` variant, each gradient compression, and every
/// replication payload, with model-sized runs of `n` values.
fn requests(n: usize) -> Vec<(String, ClusterReq)> {
    let grads = [
        Compression::None.compress(&awkward(n), None),
        Compression::Int8.compress(&smooth(n), None),
        Compression::Bf16.compress(&smooth(n), None),
    ];
    let mut reqs: Vec<(String, ClusterReq)> = grads
        .into_iter()
        .enumerate()
        .map(|(i, grads)| {
            let grad = ClusterReq::Grad {
                grads,
                pull_version: 41,
                loss: 1.25,
                batch_stats: batch_stats(),
                running: bn_state(),
                epoch: 2,
                push_seq: (3 << 32) | 8,
                shard: 1,
            };
            (format!("Grad #{i}"), grad)
        })
        .collect();
    let state = ClusterReq::State {
        loss: 2.5,
        running: bn_state(),
        batch_stats: batch_stats(),
        t_comm: 0.01,
        t_comp: 0.2,
        epoch: 9,
    };
    reqs.push(("Pull".into(), ClusterReq::Pull { epoch: 5, shard: 3 }));
    reqs.push(("State".into(), state));
    reqs.push(("Join".into(), ClusterReq::Join { incarnation: 2 }));
    reqs.extend(payloads(n).into_iter().map(|(what, p)| (what, ClusterReq::Replicate(p))));
    reqs
}

/// Every `ClusterResp` variant, f32 and both packed weights.
fn replies(n: usize) -> Vec<(String, ClusterResp)> {
    let weights = |directive| ClusterResp::Weights {
        flat: awkward(n).into(),
        version: 77,
        directive,
        epoch: 3,
    };
    vec![
        ("Weights".into(), weights(None)),
        ("Weights + directive".into(), weights(directive())),
        ("QWeights int8".into(), ClusterResp::weights_for(WireCodec::Int8, smooth(n), 9, None, 1)),
        ("QWeights bf16".into(), ClusterResp::weights_for(WireCodec::Bf16, smooth(n), 9, None, 1)),
        ("Compensation".into(), ClusterResp::Compensation { l_delay: 0.5, one_step: -0.25, km: 3 }),
        ("Stop".into(), ClusterResp::Stop),
        ("Fenced".into(), ClusterResp::Fenced { epoch: 4 }),
        ("ReplicaAck".into(), ClusterResp::ReplicaAck { seq: 99 }),
    ]
}

fn payloads(n: usize) -> Vec<(String, ReplicaPayload)> {
    vec![
        (
            "Snapshot".into(),
            ReplicaPayload::Snapshot { next_seq: 8, blob: checkpoint(awkward(n)).to_bytes() },
        ),
        (
            "Records".into(),
            ReplicaPayload::Records(vec![log_record(awkward(n)), log_record(smooth(3))]),
        ),
        ("Refresh".into(), ReplicaPayload::Refresh { seq: 7, blob: checkpoint(vec![]).to_bytes() }),
    ]
}

/// `msg` encoded through windows of `room` bytes, concatenated.
fn windowed(msg: &impl WireMsg, room: usize) -> Vec<u8> {
    let (mut whole, mut window) = (Vec::new(), Vec::new());
    loop {
        window.clear();
        msg.encode(&mut Window::new(&mut window, whole.len(), room));
        if window.is_empty() {
            return whole;
        }
        whole.extend_from_slice(&window);
    }
}

/// `bytes` decoded as they stream in, at most `piece` at a time, through
/// a block of `piece` bytes (8 at least: the widest scalar).
fn stream_decoded<M: WireMsg>(bytes: &[u8], piece: usize) -> M {
    let mut rest = bytes;
    let mut refill = |buf: &mut [u8]| {
        let n = buf.len().min(piece).min(rest.len());
        buf[..n].copy_from_slice(&rest[..n]);
        rest = &rest[n..];
        Ok(n)
    };
    let mut block = vec![0u8; piece.max(8)];
    let mut r = WireReader::streaming(&mut block, bytes.len(), &mut refill);
    let msg = M::decode(&mut r).expect("the stream decodes");
    r.finish().expect("and is consumed to the end");
    msg
}

/// Each sink against `encoded()`, for windows and stream pieces of every
/// size in `sizes` and of the whole message.
fn check_sinks<M: WireMsg>(msgs: Vec<(String, M)>, sizes: &[usize]) {
    for (what, msg) in msgs {
        let bytes = msg.encoded();
        for &size in sizes.iter().chain([&bytes.len()]) {
            assert_eq!(windowed(&msg, size), bytes, "{what}: windows of {size}");
            let back: M = stream_decoded(&bytes, size);
            assert_eq!(back.encoded(), bytes, "{what}: streamed in pieces of {size}");
            assert_eq!(
                M::decoded(&bytes).expect("decodes").encoded(),
                bytes,
                "{what}: slice decode"
            );
        }
        let mut crc = Crc32::new();
        msg.encode(&mut crc);
        assert_eq!(crc.hashed(), bytes.len(), "{what}: checksum sink length");
        assert_eq!(crc.finish(), crc32_bitwise(&bytes), "{what}: checksum sink value");
        assert_eq!(frame::checksum(&msg), (crc32_bitwise(&bytes), bytes.len()), "{what}");
    }
}

#[test]
fn every_message_encodes_the_same_bytes_through_every_sink_and_streams_back() {
    // Small runs through the narrowest windows and pieces, a run larger
    // than two of the widest through those.
    for (n, sizes) in [(1031, &[1, 7][..]), (40_000, &[4096, 65_536][..])] {
        check_sinks(requests(n), sizes);
        check_sinks(replies(n), sizes);
        check_sinks(payloads(n), sizes);
    }
}

/// A frame whose payload has one flipped byte fails as a frame — its
/// checksum — and not in the codec, although the payload is decoded as
/// it arrives: the rest is drained through the checksum first. A vector
/// lent for decoding comes back with the message that held it.
fn check_flips<M: WireMsg>(msgs: Vec<(String, M)>) -> usize {
    let mut stage = Vec::new();
    let mut returned = 0;
    for (what, msg) in msgs {
        let bytes = msg.encoded();
        let (crc, payload_len) = frame::checksum(&msg);
        let header =
            frame::ParsedHeader { kind: frame::FrameKind::Reply, seq: 1, payload_len, crc };
        let mut spent = Vec::new();
        let (sound, _) = frame::read_msg::<M>(&mut &bytes[..], &header, &mut stage, &mut spent)
            .expect("a sound frame reads");
        assert_eq!(sound.expect("and decodes").encoded(), bytes, "{what}");

        let stride = (bytes.len() / 23).max(1);
        for at in (0..bytes.len()).step_by(stride).chain([bytes.len() - 1]) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x5A;
            // Roomy enough for any run of the corpus: decoding into it
            // keeps its allocation.
            let lent = Vec::<f32>::with_capacity(bytes.len());
            let lent_at = lent.as_ptr();
            let mut spent = vec![lent];
            let Err(err) = frame::read_msg::<M>(&mut &bad[..], &header, &mut stage, &mut spent)
            else {
                panic!("{what}, byte {at} flipped: the corrupt frame read");
            };
            assert!(
                matches!(&err, ClusterError::Protocol(why) if why.contains("checksum")),
                "{what}, byte {at} flipped: {err:?}"
            );
            // Where the corrupt bytes still decode, the message held the
            // lent vector; it must be back.
            let mut probe = vec![Vec::new()];
            if M::decoded_reusing(&bad, &mut probe).is_ok() && probe.is_empty() {
                assert_eq!(spent.len(), 1, "{what}, byte {at} flipped: the lent vector is lost");
                assert_eq!(spent[0].as_ptr(), lent_at, "{what}, byte {at} flipped");
                returned += 1;
            }
        }
    }
    returned
}

#[test]
fn a_corrupt_frame_streamed_in_is_a_checksum_failure_and_returns_its_lent_vector() {
    let returned = check_flips(requests(3001)) + check_flips(replies(3001));
    let returned = returned + check_flips(payloads(3001));
    assert!(returned > 0, "no flip landed where the message held a lent vector");
}
