//! Quantized wire codec suite: property tests for the bf16 / int8
//! encodings (round-trip + precision bounds), CRC rejection of corrupted
//! or truncated quantized frames, the bitwise-invisibility of the `f32`
//! codec (quantization off is byte-identical to the plain protocol, on
//! every backend), and end-to-end convergence of quantized training runs
//! over both the in-process and TCP transports.

use lc_asgd::core::protocol::ClusterResp;
use lc_asgd::netcluster::frame;
use lc_asgd::nn::mlp::mlp;
use lc_asgd::nn::optimizer::LrSchedule;
use lc_asgd::prelude::*;
use lc_asgd::simcluster::codec::{bf16_decode, bf16_encode, int8_pack, int8_unpack, INT8_BLOCK};
use lc_asgd::simcluster::{ClusterSim, PackedF32, SimPayload, WireCodec, WireMsg, WireReader};
use proptest::prelude::*;

// ------------------------------------------------------ codec properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// bf16 truncates the mantissa to 8 bits with round-to-nearest-even:
    /// the round trip stays within 2^-8 relative error.
    #[test]
    fn bf16_roundtrip_is_bounded(vals in prop::collection::vec(-1e6f32..1e6, 0..200)) {
        for &v in &vals {
            let d = bf16_decode(bf16_encode(v));
            prop_assert!(
                (d - v).abs() <= v.abs() / 256.0 + f32::MIN_POSITIVE,
                "bf16 error too large: {v} -> {d}"
            );
        }
    }

    /// int8 quantization is block-scaled: each reconstructed value lands
    /// within half a quantization step of its source, where the step is
    /// the block's own max/127 scale.
    #[test]
    fn int8_roundtrip_is_bounded(vals in prop::collection::vec(-50f32..50.0, 0..600)) {
        let (levels, scales) = int8_pack(&vals);
        prop_assert_eq!(levels.len(), vals.len());
        prop_assert_eq!(scales.len(), vals.len().div_ceil(INT8_BLOCK));
        let dec = int8_unpack(&levels, &scales);
        prop_assert_eq!(dec.len(), vals.len());
        for (b, block) in vals.chunks(INT8_BLOCK).enumerate() {
            let bound = scales[b] * 0.5 + 1e-6;
            for (i, &v) in block.iter().enumerate() {
                let d = dec[b * INT8_BLOCK + i];
                prop_assert!(
                    (d - v).abs() <= bound,
                    "int8 error at block {b}: {v} -> {d} (bound {bound})"
                );
            }
        }
    }

    /// `PackedF32` preserves length and matches the raw codec functions;
    /// `F32` deliberately refuses to pack (the caller keeps the floats).
    #[test]
    fn packed_f32_matches_raw_codecs(vals in prop::collection::vec(-10f32..10.0, 1..300)) {
        prop_assert!(PackedF32::pack(WireCodec::F32, &vals).is_none());

        let bf = PackedF32::pack(WireCodec::Bf16, &vals).expect("bf16 packs");
        prop_assert_eq!(bf.len(), vals.len());
        let expect: Vec<f32> = vals.iter().map(|&v| bf16_decode(bf16_encode(v))).collect();
        prop_assert_eq!(bf.unpack(), expect);

        let i8p = PackedF32::pack(WireCodec::Int8, &vals).expect("int8 packs");
        prop_assert_eq!(i8p.len(), vals.len());
        let (levels, scales) = int8_pack(&vals);
        prop_assert_eq!(i8p.unpack(), int8_unpack(&levels, &scales));
    }

    /// With quantization off, `weights_for` must be *bitwise* the plain
    /// `Weights` encoding — the seed-parity guarantee every backend
    /// inherits, since they all share this one encode path.
    #[test]
    fn f32_codec_encodes_bitwise_identical_to_plain_weights(
        flat in prop::collection::vec(-3f32..3.0, 0..128),
        version in any::<u64>(),
        epoch in 0u64..1000,
    ) {
        let via_codec =
            ClusterResp::weights_for(WireCodec::F32, flat.clone(), version, None, epoch);
        let plain = ClusterResp::Weights { flat: flat.into(), version, directive: None, epoch };
        let mut a = Vec::new();
        let mut b = Vec::new();
        via_codec.encode(&mut a);
        plain.encode(&mut b);
        prop_assert_eq!(a, b);
    }

    /// A quantized reply inside a frame is CRC-protected: flipping any
    /// payload byte or cutting the stream short must be rejected by
    /// `read_frame`, never decoded into wrong weights.
    #[test]
    fn corrupted_or_truncated_quantized_frames_are_rejected(
        vals in prop::collection::vec(-2f32..2.0, 8..64),
        codec_int8 in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let codec = if codec_int8 { WireCodec::Int8 } else { WireCodec::Bf16 };
        let resp = ClusterResp::weights_for(codec, vals, 9, None, 1);
        let mut payload = Vec::new();
        resp.encode(&mut payload);

        let mut wire = Vec::new();
        frame::write_frame(&mut wire, &frame::Frame::new(frame::FrameKind::Reply, 3, payload))
            .expect("frame to memory");

        // Intact bytes round-trip (compared via re-encoding).
        let (f, _) = frame::read_frame(&mut &wire[..]).expect("intact frame reads");
        let back = ClusterResp::decode(&mut WireReader::new(&f.payload)).expect("decodes");
        let mut reenc = Vec::new();
        back.encode(&mut reenc);
        prop_assert_eq!(&reenc, &f.payload);

        // One flipped payload byte: CRC must catch it.
        let pos = frame::HEADER_LEN + (seed as usize) % (wire.len() - frame::HEADER_LEN);
        let mut flipped = wire.clone();
        flipped[pos] ^= 0x40;
        prop_assert!(
            frame::read_frame(&mut &flipped[..]).is_err(),
            "flipped byte at {pos} must fail CRC"
        );

        // Truncation anywhere (mid-header or mid-payload): hard error.
        let cut = 1 + (seed as usize).rotate_left(7) % (wire.len() - 1);
        prop_assert!(
            frame::read_frame(&mut &wire[..cut]).is_err(),
            "truncation at {cut}/{} must be rejected", wire.len()
        );
    }
}

// -------------------------------------------- end-to-end training parity

fn task() -> (Dataset, Dataset) {
    lc_asgd::data::synth::blobs_split(4, 6, 30, 12, 0.5, 33)
}

fn cfg(workers: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(Algorithm::Asgd, workers, Scale::Tiny, 23);
    cfg.epochs = 10;
    cfg.batch_size = 10;
    cfg.lr = LrSchedule::constant(0.1);
    cfg
}

fn build(rng: &mut Rng) -> lc_asgd::nn::Network {
    mlp(&[6, 16, 4], false, rng)
}

/// Quantization off: the simulator, the thread backend pinned to the
/// `f32` codec, and TCP with its default `f32` codec all drive the
/// trainer to the identical gradient-application target and the same
/// loss ballpark — the protocol path is one and the same.
#[test]
fn three_backends_agree_with_quantization_off() {
    let (train, test) = task();
    let c = cfg(4);
    let updates = c.epochs * train.len().div_ceil(c.batch_size);

    let sim_backend: ClusterSim<SimPayload> = ClusterSim::new(c.cluster.clone());
    let runs = [
        ("sim", run_cluster(sim_backend, &c, &build, &train, &test)),
        (
            "threads/f32",
            run_cluster(
                ThreadCluster::new(4).with_wire_codec(WireCodec::F32),
                &c,
                &build,
                &train,
                &test,
            ),
        ),
        (
            "tcp/f32",
            run_cluster(
                NetCluster::new(4).with_config(NetConfig::fast()),
                &c,
                &build,
                &train,
                &test,
            ),
        ),
    ];
    let mut errs = Vec::new();
    for (name, run) in runs {
        let r = run.unwrap_or_else(|e| panic!("{name} backend failed: {e}"));
        assert_eq!(r.iterations as usize, updates, "{name} must apply exactly the target");
        assert!(r.final_test_error() < 0.3, "{name} err {}", r.final_test_error());
        errs.push(r.final_test_error());
    }
    for w in errs.windows(2) {
        assert!((w[0] - w[1]).abs() < 0.25, "same protocol, same ballpark: {errs:?}");
    }
}

/// Quantized runs still train. The thread backend quantizes at protocol
/// construction (not transport encode), so this exercises the identical
/// lossy path a TCP run takes.
#[test]
fn quantized_thread_runs_converge() {
    let (train, test) = task();
    let c = cfg(4);
    for codec in [WireCodec::Bf16, WireCodec::Int8] {
        let r =
            run_cluster(ThreadCluster::new(4).with_wire_codec(codec), &c, &build, &train, &test)
                .unwrap_or_else(|e| panic!("{} run failed: {e}", codec.name()));
        assert!(
            r.final_test_error() < 0.35,
            "{} must still converge: err {}",
            codec.name(),
            r.final_test_error()
        );
    }
}

/// One full TCP run with bf16 on the wire: converges, and both directions
/// actually flow through the quantized encodings.
#[test]
fn bf16_over_tcp_converges() {
    let (train, test) = task();
    let c = cfg(4);
    let net_cfg = NetConfig { wire_codec: WireCodec::Bf16, ..NetConfig::fast() };
    let r = run_cluster(NetCluster::new(4).with_config(net_cfg), &c, &build, &train, &test)
        .expect("bf16 TCP run failed");
    assert!(r.final_test_error() < 0.35, "bf16/tcp err {}", r.final_test_error());
    let t = r.transport.as_ref().expect("tcp reports transport stats");
    assert!(t.bytes_sent > 0 && t.bytes_received > 0, "bytes must flow");
}
