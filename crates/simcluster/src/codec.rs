//! Quantized wire codecs for the weight downlink.
//!
//! The parameter server's dominant wire cost is the dense `f32` weight
//! vector it returns to every pull. [`WireCodec`] selects how that vector
//! travels: raw `f32` (the seed protocol, bit-exact), `bf16` (truncated
//! IEEE single precision, 2 bytes/entry, relative error ≤ 2⁻⁸), or
//! block-scaled `int8` (1 byte/entry plus one `f32` scale per
//! [`INT8_BLOCK`] entries, absolute error ≤ half a quantization step of
//! the block's max magnitude).
//!
//! The codec is negotiated at connection time (the TCP `Hello` frame
//! carries the worker's codec id and the server refuses a mismatch), and
//! `F32` encodes *byte-identically* to the seed protocol so turning
//! quantization off is bitwise-invisible on the wire.
//!
//! The gradient *uplink* is not encoded here: it already has a lossy path
//! with error feedback (`lcasgd-core`'s `CompressedGrad` residual
//! machinery), and the codec simply selects a matching scheme there. Both
//! directions quantize with the same two functions, [`max_abs_nan`] and
//! [`level`].

use crate::backend::{wire, ClusterError, WireMsg, WireReader, WireSink};
pub use crate::crc::{crc32, Crc32};

/// Entries per `int8` quantization block (one `f32` scale each).
pub const INT8_BLOCK: usize = 256;

/// How dense `f32` payloads are packed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Raw IEEE single precision — byte-identical to the seed protocol.
    #[default]
    F32,
    /// Upper 16 bits of the `f32`, round-to-nearest-even. Halves the
    /// downlink; relative error bounded by 2⁻⁸.
    Bf16,
    /// Block-scaled 8-bit quantization: per-[`INT8_BLOCK`] max-magnitude
    /// scale, levels in `[-127, 127]`. Quarters the downlink.
    Int8,
}

impl WireCodec {
    /// Stable wire id, carried in the `Hello` frame.
    pub fn id(self) -> u8 {
        match self {
            WireCodec::F32 => 0,
            WireCodec::Bf16 => 1,
            WireCodec::Int8 => 2,
        }
    }

    /// Inverse of [`WireCodec::id`].
    pub fn from_id(id: u8) -> Option<WireCodec> {
        Some(match id {
            0 => WireCodec::F32,
            1 => WireCodec::Bf16,
            2 => WireCodec::Int8,
            _ => return None,
        })
    }

    /// CLI-facing name.
    pub fn name(self) -> &'static str {
        match self {
            WireCodec::F32 => "f32",
            WireCodec::Bf16 => "bf16",
            WireCodec::Int8 => "int8",
        }
    }

    /// Parses the CLI-facing name.
    pub fn parse(s: &str) -> Option<WireCodec> {
        Some(match s {
            "f32" => WireCodec::F32,
            "bf16" => WireCodec::Bf16,
            "int8" => WireCodec::Int8,
            _ => return None,
        })
    }
}

impl std::fmt::Display for WireCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `f32` → `bf16` with round-to-nearest-even (the same rounding hardware
/// bf16 units use; plain truncation would bias every weight toward zero).
pub fn bf16_encode(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        // Preserve NaN-ness; quiet it so the low-half truncation cannot
        // turn a signaling payload into infinity.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bit = 0x0000_8000u32;
    let lsb = (bits >> 16) & 1;
    ((bits.wrapping_add(round_bit - 1 + lsb)) >> 16) as u16
}

/// `bf16` → `f32` (exact: every bf16 value is representable).
pub fn bf16_decode(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// Independent accumulators of [`max_abs_nan`]: one SSE register pair, so
/// the fold is two vector `max`es per eight entries, not a serial chain.
const LANES: usize = 8;

/// The largest `|v|` in `vals` (0 when there is none) with NaNs ignored
/// exactly as `f32::max` ignores them, and whether any entry is NaN.
///
/// Each lane keeps `if a > m { a } else { m }`, one `maxps`: a lane starts
/// at +0 and only ever takes a magnitude, so it is never NaN, and against a
/// non-NaN `m` that select is `m.max(a)`. Max is exact, so which lane saw
/// which entry cannot change the result.
pub fn max_abs_nan(vals: &[f32]) -> (f32, bool) {
    let mut max = [0.0f32; LANES];
    let mut nan = [false; LANES];
    let mut chunks = vals.chunks_exact(LANES);
    for chunk in &mut chunks {
        for ((m, n), &v) in max.iter_mut().zip(&mut nan).zip(chunk) {
            let a = v.abs();
            *m = if a > *m { a } else { *m };
            *n |= a.is_nan();
        }
    }
    let mut any_nan = nan.contains(&true);
    for &v in chunks.remainder() {
        max[0] = max[0].max(v.abs());
        any_nan |= v.is_nan();
    }
    (max.iter().fold(0.0, |m, &l| m.max(l)), any_nan)
}

/// [`max_abs_nan`]'s maximum: `vals.iter().fold(0.0, |m, v| m.max(v.abs()))`
/// bit for bit, in eight lanes.
pub fn max_abs(vals: &[f32]) -> f32 {
    max_abs_nan(vals).0
}

/// `q.round().clamp(-127.0, 127.0) as i8` for every `f32` `q`, from
/// operations that vectorize (`f32::round` is a libm call on baseline
/// x86-64, and a saturating `as i8` is a branch):
///
/// - NaN goes to 0, as the saturating cast sends it; then `q` is clamped
///   to `c` by comparison. Clamping first is the same as clamping after,
///   because `round` is monotone and the bounds are integers.
/// - `m = c + 1.5·2²³` lands in `[2²³, 2²⁴)`, where the float spacing is 1,
///   so the addition rounds `c` to an integer, half to even, and that
///   integer is `m`'s bit pattern less `1.5·2²³`'s.
/// - `d = c − (m − 1.5·2²³)` is exact, so the two ties that half-to-even
///   sends towards zero (`d = ±0.5`) are recognised and moved away from it.
///
/// DESIGN.md §12.3 has the exactness argument; the whole `f32` range is
/// checked against the libm expression by an ignored test in this module.
#[inline]
pub fn level(q: f32) -> i8 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³
    const LIM: f32 = 127.0;
    let c = if q.is_nan() { 0.0 } else { q.clamp(-LIM, LIM) };
    let m = c + MAGIC;
    let even = m.to_bits().wrapping_sub(MAGIC.to_bits()) as i32;
    let d = c - (m - MAGIC);
    let up = (d == 0.5 && c > 0.0) as i32;
    let down = (d == -0.5 && c < 0.0) as i32;
    (even + up - down) as i8
}

/// Quantizes `vals` into `int8` levels with one scale per
/// [`INT8_BLOCK`]-entry block. Returns `(levels, scales)`. A block whose
/// largest magnitude is 0 or not finite gets scale 1.
pub fn int8_pack(vals: &[f32]) -> (Vec<i8>, Vec<f32>) {
    let mut levels = vec![0i8; vals.len()];
    let mut scales = Vec::with_capacity(vals.len().div_ceil(INT8_BLOCK));
    for (block, out) in vals.chunks(INT8_BLOCK).zip(levels.chunks_mut(INT8_BLOCK)) {
        let max = max_abs(block);
        let scale = if max > 0.0 && max.is_finite() { max / 127.0 } else { 1.0 };
        scales.push(scale);
        out.iter_mut().zip(block).for_each(|(l, &v)| *l = level(v / scale));
    }
    (levels, scales)
}

/// Inverse of [`int8_pack`].
pub fn int8_unpack(levels: &[i8], scales: &[f32]) -> Vec<f32> {
    let mut vals = vec![0.0; levels.len()];
    int8_unpack_into(levels, scales, &mut vals);
    vals
}

fn int8_unpack_into(levels: &[i8], scales: &[f32], out: &mut [f32]) {
    let blocks = levels.chunks(INT8_BLOCK).zip(out.chunks_mut(INT8_BLOCK));
    for ((block, vals), &s) in blocks.zip(scales) {
        vals.iter_mut().zip(block).for_each(|(v, &l)| *v = l as f32 * s);
    }
}

/// A dense `f32` vector packed under a [`WireCodec`]. The `F32` case is
/// deliberately *not* representable here: callers keep using the seed
/// protocol's raw-vector encoding for it, so quantization-off stays
/// byte-identical to the seed wire format.
#[derive(Debug, Clone, PartialEq)]
pub enum PackedF32 {
    /// bf16 halves, one per entry.
    Bf16(Vec<u16>),
    /// Block-scaled int8: `scales[i]` covers `levels[i*INT8_BLOCK..]`.
    Int8 { levels: Vec<i8>, scales: Vec<f32> },
}

impl PackedF32 {
    /// Packs `vals` under `codec`. Returns `None` for [`WireCodec::F32`]
    /// (raw vectors never take this path).
    pub fn pack(codec: WireCodec, vals: &[f32]) -> Option<PackedF32> {
        match codec {
            WireCodec::F32 => None,
            WireCodec::Bf16 => {
                Some(PackedF32::Bf16(vals.iter().map(|&v| bf16_encode(v)).collect()))
            }
            WireCodec::Int8 => {
                let (levels, scales) = int8_pack(vals);
                Some(PackedF32::Int8 { levels, scales })
            }
        }
    }

    /// Reconstructs the (lossy) dense vector.
    pub fn unpack(&self) -> Vec<f32> {
        let mut vals = vec![0.0; self.len()];
        self.unpack_into(&mut vals);
        vals
    }

    /// [`unpack`](Self::unpack) written over `out`, which must have the
    /// packed vector's [`len`](Self::len) — a shard's range of a worker's
    /// copy of the model, for one.
    pub fn unpack_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "unpack buffer length mismatch");
        match self {
            PackedF32::Bf16(halves) => {
                out.iter_mut().zip(halves).for_each(|(v, &b)| *v = bf16_decode(b));
            }
            PackedF32::Int8 { levels, scales } => int8_unpack_into(levels, scales, out),
        }
    }

    /// Number of entries in the packed vector.
    pub fn len(&self) -> usize {
        match self {
            PackedF32::Bf16(halves) => halves.len(),
            PackedF32::Int8 { levels, .. } => levels.len(),
        }
    }

    /// Whether the packed vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl WireMsg for PackedF32 {
    fn encode(&self, buf: &mut dyn WireSink) {
        match self {
            PackedF32::Bf16(halves) => {
                wire::put_u8(buf, 0);
                wire::put_u64(buf, halves.len() as u64);
                wire::put_u16s(buf, halves);
            }
            PackedF32::Int8 { levels, scales } => {
                wire::put_u8(buf, 1);
                wire::put_u64(buf, levels.len() as u64);
                wire::put_i8s(buf, levels);
                wire::put_vec_f32(buf, scales);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        match r.u8()? {
            0 => {
                let n = r.len(2)?;
                Ok(PackedF32::Bf16(r.u16s(n)?))
            }
            1 => {
                let n = r.len(1)?;
                let levels = r.i8s(n)?;
                let ns = r.len(4)?;
                if ns != n.div_ceil(INT8_BLOCK) {
                    return Err(ClusterError::Protocol(format!(
                        "int8 payload of {n} levels wants {} scales, got {ns}",
                        n.div_ceil(INT8_BLOCK)
                    )));
                }
                let scales = r.f32s(ns)?;
                Ok(PackedF32::Int8 { levels, scales })
            }
            tag => Err(ClusterError::Protocol(format!("unknown PackedF32 tag {tag}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_ids_and_names_roundtrip() {
        for c in [WireCodec::F32, WireCodec::Bf16, WireCodec::Int8] {
            assert_eq!(WireCodec::from_id(c.id()), Some(c));
            assert_eq!(WireCodec::parse(c.name()), Some(c));
        }
        assert_eq!(WireCodec::from_id(9), None);
        assert_eq!(WireCodec::parse("fp64"), None);
        assert_eq!(WireCodec::default(), WireCodec::F32);
    }

    #[test]
    fn bf16_bounds_and_specials() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.1, std::f32::consts::PI, 1e-20, -1e20, 255.5] {
            let back = bf16_decode(bf16_encode(v));
            assert!((v - back).abs() <= v.abs() / 256.0, "bf16 error out of bounds: {v} -> {back}");
        }
        assert_eq!(bf16_decode(bf16_encode(f32::INFINITY)), f32::INFINITY);
        assert!(bf16_decode(bf16_encode(f32::NAN)).is_nan());
        // Round-to-nearest-even: 1.0 + 2⁻⁹ rounds down to 1.0 (even),
        // 1.0 + 3·2⁻⁹ rounds up.
        assert_eq!(bf16_decode(bf16_encode(1.0 + 1.0 / 512.0)), 1.0);
        assert_eq!(bf16_decode(bf16_encode(1.0 + 3.0 / 512.0)), 1.0 + 1.0 / 128.0);
    }

    #[test]
    fn int8_block_bounds() {
        let vals: Vec<f32> = (0..600).map(|i| ((i * 37) % 101) as f32 / 10.0 - 5.0).collect();
        let (levels, scales) = int8_pack(&vals);
        assert_eq!(levels.len(), 600);
        assert_eq!(scales.len(), 3);
        let back = int8_unpack(&levels, &scales);
        for (block, (orig, rec)) in vals.chunks(INT8_BLOCK).zip(back.chunks(INT8_BLOCK)).enumerate()
        {
            let max = orig.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let step = if max > 0.0 { max / 127.0 } else { 1.0 };
            for (a, b) in orig.iter().zip(rec) {
                assert!((a - b).abs() <= step / 2.0 + 1e-6, "block {block}: {a} vs {b}");
            }
        }
    }

    /// What [`level`] replaces: libm's `roundf`, then a saturating cast.
    fn libm_level(q: f32) -> i8 {
        q.round().clamp(-127.0, 127.0) as i8
    }

    /// Bit patterns `0, stride, 2·stride, …` below 2³² that `level`
    /// quantizes differently from [`libm_level`], split across the cores.
    fn level_mismatches(stride: u64) -> Vec<u32> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        let per = (1u64 << 32).div_ceil(threads * stride) * stride;
        std::thread::scope(|s| {
            let parts: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let end = ((t + 1) * per).min(1 << 32);
                        (t * per..end)
                            .step_by(stride as usize)
                            .map(|b| b as u32)
                            .filter(|&b| {
                                let q = f32::from_bits(b);
                                level(q) != libm_level(q)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            parts.into_iter().flat_map(|p| p.join().unwrap()).collect()
        })
    }

    #[test]
    #[ignore = "all 2³² inputs: run in release with -- --ignored"]
    fn level_equals_round_clamp_cast_for_every_f32() {
        assert_eq!(level_mismatches(1), Vec::<u32>::new());
    }

    #[test]
    fn level_equals_round_clamp_cast_on_a_stride_and_every_tie() {
        assert_eq!(level_mismatches(4096), Vec::<u32>::new());
        // The inputs a stride can step over: ties on both sides of every
        // level, their neighbours, the bounds, the non-finite values.
        let mut qs = vec![0.0f32, -0.0, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        qs.extend([f32::MIN_POSITIVE, 1e-45, -1e-45, f32::MAX, f32::MIN, 0.49999997, -0.49999997]);
        for k in -130..=130 {
            let t = k as f32 + 0.5;
            qs.extend([t, t.next_down(), t.next_up(), k as f32]);
        }
        for &q in &qs {
            assert_eq!(level(q), libm_level(q), "q {q:e}");
        }
    }

    #[test]
    fn max_abs_ignores_nans_as_f32_max_does() {
        let serial = |v: &[f32]| v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        for n in [0usize, 1, 7, 8, 9, 255, 256, 257] {
            let mut vals: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
            assert_eq!(max_abs_nan(&vals), (serial(&vals), false), "len {n}");
            for at in [0, n / 2, n.saturating_sub(1)].into_iter().filter(|_| n > 0) {
                let mut v = vals.clone();
                v[at] = f32::NAN;
                assert_eq!(max_abs_nan(&v), (serial(&v), true), "len {n}, NaN at {at}");
            }
            if n > 0 {
                vals[n - 1] = f32::NEG_INFINITY;
                assert_eq!(max_abs(&vals), f32::INFINITY);
            }
        }
        assert_eq!(max_abs(&[f32::NAN, -0.0]).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn packed_roundtrips_the_wire() {
        let vals: Vec<f32> = (0..300).map(|i| (i as f32 - 150.0) / 7.0).collect();
        for codec in [WireCodec::Bf16, WireCodec::Int8] {
            let packed = PackedF32::pack(codec, &vals).unwrap();
            assert_eq!(packed.len(), vals.len());
            let back = PackedF32::decoded(&packed.encoded()).unwrap();
            assert_eq!(back, packed);
            assert_eq!(back.unpack(), packed.unpack());
        }
        assert!(PackedF32::pack(WireCodec::F32, &vals).is_none());
    }

    #[test]
    fn corrupt_packed_payloads_are_rejected() {
        assert!(matches!(PackedF32::decoded(&[7]), Err(ClusterError::Protocol(_))));
        let ok = PackedF32::Bf16(vec![1, 2, 3]).encoded();
        assert!(PackedF32::decoded(&ok[..ok.len() - 1]).is_err());
        // Scale count disagreeing with the level count.
        let mut buf = Vec::new();
        wire::put_u8(&mut buf, 1);
        wire::put_u64(&mut buf, 2); // 2 levels → 1 block
        wire::put_u8(&mut buf, 5);
        wire::put_u8(&mut buf, 6);
        wire::put_u64(&mut buf, 2); // but 2 scales
        wire::put_f32(&mut buf, 1.0);
        wire::put_f32(&mut buf, 1.0);
        assert!(matches!(PackedF32::decoded(&buf), Err(ClusterError::Protocol(_))));
    }
}
