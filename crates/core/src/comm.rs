//! The worker→server gradient push at the precision of the backend's wire
//! codec: dense `f32` (the paper's setting), bf16 or int8. The codec is
//! the one setting that makes the uplink lossy; [`Compression::for_codec`]
//! maps it to the push's encoding.
//!
//! The lossy encodings run with ECQ-SGD-style *error feedback* (the
//! paper's related work): the quantization residual is accumulated per
//! worker and added to the next gradient before encoding, so the error is
//! compensated over time instead of lost.

use lcasgd_simcluster::backend::wire;
use lcasgd_simcluster::codec::{bf16_decode, bf16_encode, level, max_abs_nan};
use lcasgd_simcluster::{ClusterError, WireCodec, WireMsg, WireReader};

/// How a gradient push is encoded: one variant per [`WireCodec`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compression {
    /// Dense `f32` (the paper's own setting).
    None,
    /// Every entry rounded to bf16 (round-to-nearest-even). Halves the
    /// uplink with a scale-free relative error ≤ 2⁻⁸.
    Bf16,
    /// Every entry quantized to one of the 255 levels `−127..=127`, scaled
    /// by the max magnitude (no stochastic rounding, which would break
    /// replayability).
    Int8,
}

/// A compressed gradient message.
#[derive(Clone, Debug)]
pub enum CompressedGrad {
    Dense(Vec<f32>),
    /// Quantized levels plus the scale: value = level · scale.
    Quantized {
        scale: f32,
        levels: Vec<i8>,
    },
    /// bf16 halves, one per entry.
    Bf16(Vec<u16>),
}

impl CompressedGrad {
    /// Approximate wire size in bytes (for compression-ratio reporting).
    pub fn wire_bytes(&self) -> usize {
        match self {
            CompressedGrad::Dense(v) => v.len() * 4,
            CompressedGrad::Quantized { levels, .. } => 4 + levels.len(),
            CompressedGrad::Bf16(halves) => halves.len() * 2,
        }
    }

    /// Entries of the dense gradient this message stands for.
    pub fn len(&self) -> usize {
        match self {
            CompressedGrad::Dense(v) => v.len(),
            CompressedGrad::Quantized { levels, .. } => levels.len(),
            CompressedGrad::Bf16(halves) => halves.len(),
        }
    }

    /// Whether the message stands for an empty gradient.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the dense gradient.
    pub fn decompress(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.decompress_into(&mut out);
        out
    }

    /// [`decompress`](Self::decompress) written over `out`, which must have
    /// the gradient's [`len`](Self::len).
    pub fn decompress_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "decompression buffer length mismatch");
        match self {
            CompressedGrad::Dense(v) => out.copy_from_slice(v),
            CompressedGrad::Quantized { scale, levels } => {
                out.iter_mut().zip(levels).for_each(|(o, &l)| *o = l as f32 * scale);
            }
            CompressedGrad::Bf16(halves) => {
                out.iter_mut().zip(halves).for_each(|(o, &b)| *o = bf16_decode(b));
            }
        }
    }

    /// [`CompressedGrad::decompress`] for an owner: a dense gradient is
    /// handed over as is instead of being copied.
    pub fn into_dense(self) -> Vec<f32> {
        match self {
            CompressedGrad::Dense(v) => v,
            packed => packed.decompress(),
        }
    }
}

/// Wire encoding: `CompressedGrad` is the payload of the gradient push in
/// backend-driven runs, so the on-wire byte count shrinks with the codec
/// (tag byte, then the variant's fields; all little-endian, `u64` counts —
/// the shared codec conventions). Tag 1 is unassigned and refused.
impl WireMsg for CompressedGrad {
    fn size_hint(&self) -> usize {
        17 + self.wire_bytes()
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CompressedGrad::Dense(v) => {
                wire::put_u8(buf, 0);
                wire::put_vec_f32(buf, v);
            }
            CompressedGrad::Quantized { scale, levels } => {
                wire::put_u8(buf, 2);
                wire::put_f32(buf, *scale);
                wire::put_u64(buf, levels.len() as u64);
                wire::put_i8s(buf, levels);
            }
            CompressedGrad::Bf16(halves) => {
                wire::put_u8(buf, 3);
                wire::put_u64(buf, halves.len() as u64);
                wire::put_u16s(buf, halves);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, ClusterError> {
        match r.u8()? {
            0 => Ok(CompressedGrad::Dense(r.bulk_vec_f32()?)),
            2 => {
                let scale = r.f32()?;
                let n = r.len(1)?;
                Ok(CompressedGrad::Quantized { scale, levels: r.i8s(n)? })
            }
            3 => {
                let n = r.len(2)?;
                Ok(CompressedGrad::Bf16(r.u16s(n)?))
            }
            tag => Err(ClusterError::Protocol(format!("unknown CompressedGrad tag {tag}"))),
        }
    }
}

impl Compression {
    /// Compresses `grads`, folding in and updating the worker's error-
    /// feedback residual when one is provided (`residual.len()` must match
    /// `grads.len()`; pass `None` to disable compensation).
    pub fn compress(&self, grads: &[f32], residual: Option<&mut Vec<f32>>) -> CompressedGrad {
        self.compress_slice(grads, residual.map(Vec::as_mut_slice))
    }

    /// [`compress`](Self::compress) against a residual that is a range of
    /// a longer one (a shard's slice of the worker's).
    pub(crate) fn compress_slice(
        &self,
        grads: &[f32],
        residual: Option<&mut [f32]>,
    ) -> CompressedGrad {
        if let Some(r) = residual.as_deref() {
            assert_eq!(r.len(), grads.len(), "residual length mismatch");
        }
        match *self {
            Compression::None => dense(grads, residual),
            Compression::Bf16 => bf16(grads, residual),
            Compression::Int8 => int8(grads, residual),
        }
    }

    /// The push encoding of a wire codec: the uplink mirrors the codec's
    /// precision, so a quantized wire is quantized end to end (downlink
    /// weights via the codec's packed reply, uplink gradients via the
    /// matching residual-compensated encoding).
    pub fn for_codec(codec: WireCodec) -> Compression {
        match codec {
            WireCodec::F32 => Compression::None,
            WireCodec::Bf16 => Compression::Bf16,
            WireCodec::Int8 => Compression::Int8,
        }
    }
}

// The three encodings. With error feedback the residual buffer doubles as the
// signal: e ← e + g in place, compress it, then e ← e − decompress(out),
// each entry's subtraction exactly what subtracting the decompressed vector
// would do. No model-sized temporary is allocated beyond the output itself.

fn dense(grads: &[f32], residual: Option<&mut [f32]>) -> CompressedGrad {
    let Some(r) = residual else { return CompressedGrad::Dense(grads.to_vec()) };
    r.iter_mut().zip(grads).for_each(|(e, g)| *e += g);
    let out = r.to_vec();
    r.iter_mut().zip(&out).for_each(|(e, a)| *e -= a);
    CompressedGrad::Dense(out)
}

/// Entries of the residual folded in per step of `int8`'s first pass,
/// then scanned while they are still in L1.
const FOLD_BLOCK: usize = 1024;

/// Two passes: fold the residual in and scan the signal for its largest
/// magnitude and any NaN; then quantize each entry and take what was sent
/// off the residual. Both with `codec`'s quantizer, the downlink's.
///
/// A non-finite signal goes out as scale NaN, so the receiver decompresses
/// a non-finite gradient — as the `f32` path would deliver — and its NaN
/// sentinel can fire; the residual restarts from zero. (Quantized against
/// an infinite scale every level would be 0 and `e − 0·∞` would turn the
/// whole residual NaN, and every later push would be finite zeros.)
fn int8(grads: &[f32], mut residual: Option<&mut [f32]>) -> CompressedGrad {
    let (max, nan) = match residual.as_deref_mut() {
        Some(r) => r.chunks_mut(FOLD_BLOCK).zip(grads.chunks(FOLD_BLOCK)).fold(
            (0.0f32, false),
            |(max, nan), (e, g)| {
                e.iter_mut().zip(g).for_each(|(e, g)| *e += g);
                let (block_max, block_nan) = max_abs_nan(e);
                (max.max(block_max), nan | block_nan)
            },
        ),
        None => max_abs_nan(grads),
    };
    let mut levels = vec![0i8; grads.len()];
    if nan || !max.is_finite() {
        if let Some(r) = residual {
            r.fill(0.0);
        }
        return CompressedGrad::Quantized { scale: f32::NAN, levels };
    }
    let scale = if max > 0.0 { max / 127.0 } else { 1.0 };
    match residual {
        Some(r) => levels.iter_mut().zip(r).for_each(|(l, e)| {
            *l = level(*e / scale);
            *e -= *l as f32 * scale;
        }),
        None => levels.iter_mut().zip(grads).for_each(|(l, &g)| *l = level(g / scale)),
    }
    CompressedGrad::Quantized { scale, levels }
}

/// One pass: fold, encode, take the decoded value off the residual.
fn bf16(grads: &[f32], residual: Option<&mut [f32]>) -> CompressedGrad {
    let mut halves = vec![0u16; grads.len()];
    match residual {
        Some(r) => halves.iter_mut().zip(r).zip(grads).for_each(|((h, e), g)| {
            *e += g;
            *h = bf16_encode(*e);
            *e -= bf16_decode(*h);
        }),
        None => halves.iter_mut().zip(grads).for_each(|(h, &g)| *h = bf16_encode(g)),
    }
    CompressedGrad::Bf16(halves)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Compression; 3] = [Compression::None, Compression::Bf16, Compression::Int8];

    fn sample() -> Vec<f32> {
        vec![0.1, -3.0, 0.02, 2.0, -0.5, 0.0, 1.0, -0.01]
    }

    #[test]
    fn none_is_lossless() {
        let g = sample();
        let c = Compression::None.compress(&g, None);
        assert_eq!(c.decompress(), g);
    }

    #[test]
    fn int8_quantization_bounded_error() {
        let g = sample();
        let c = Compression::Int8.compress(&g, None);
        let d = c.decompress();
        let max = 3.0f32;
        let step = max / 127.0;
        for (a, b) in g.iter().zip(&d) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn error_feedback_recovers_dropped_mass() {
        // Entries below half an int8 level quantize to 0 every round —
        // without feedback they never reach the server; with feedback the
        // residual accumulates until it crosses half a level.
        let g = vec![1.0, 0.001, -0.002, 0.003];
        let mut residual = vec![0.0; 4];
        let mut delivered = [0.0f64; 4];
        for _ in 0..2000 {
            let c = Compression::Int8.compress(&g, Some(&mut residual));
            for (d, v) in delivered.iter_mut().zip(c.decompress()) {
                *d += f64::from(v);
            }
        }
        let plain = Compression::Int8.compress(&g, None).decompress();
        assert_eq!(&plain[1..], [0.0; 3], "below half a level, a push without feedback drops them");
        // Every coordinate's delivered mass is 2000·g_i, less the final
        // residual (at most half a level).
        for (i, (&d, &gi)) in delivered.iter().zip(&g).enumerate() {
            let expect = 2000.0 * f64::from(gi);
            assert!((d - expect).abs() <= 0.01, "coord {i}: delivered {d} vs {expect}");
        }
    }

    /// The residual update as first written: materialize the signal and
    /// the decompressed message, subtract element by element.
    fn reference_residual(grads: &[f32], residual: &[f32], out: &CompressedGrad) -> Vec<f32> {
        let approx = out.decompress();
        grads.iter().zip(residual).zip(&approx).map(|((g, e), a)| (g + e) - a).collect()
    }

    #[test]
    fn in_place_error_feedback_matches_the_materialized_reference_bit_for_bit() {
        let n = 1000;
        let grads: Vec<f32> = (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.013).collect();
        let carried: Vec<f32> = (0..n).map(|i| ((i * 53 % 89) as f32 - 44.0) * 1e-3).collect();
        let folded: Vec<f32> = grads.iter().zip(&carried).map(|(g, e)| g + e).collect();
        for scheme in ALL {
            let mut residual = carried.clone();
            let out = scheme.compress(&grads, Some(&mut residual));
            // The message is what compressing the folded signal gives…
            let plain = scheme.compress(&folded, None);
            assert_eq!(out.encoded(), plain.encoded(), "{scheme:?}");
            // …and the residual is what the reference computes.
            let want = reference_residual(&grads, &carried, &out);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&residual), bits(&want), "{scheme:?}");
        }
    }

    #[test]
    fn a_non_finite_entry_reaches_the_server_and_leaves_no_trace_in_the_residual() {
        let finite = sample();
        let scheme = Compression::Int8;
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut residual: Vec<f32> = (0..8).map(|i| i as f32 * 1e-3).collect();
            scheme.compress(&finite, Some(&mut residual));
            let mut grads = finite.clone();
            grads[3] = poison;
            for fed_back in [true, false] {
                let out = scheme.compress(&grads, fed_back.then_some(&mut residual));
                // The server sees a non-finite gradient, as f32 would
                // deliver, off the wire as much as in memory.
                let back = CompressedGrad::decoded(&out.encoded()).unwrap();
                assert!(back.decompress().iter().any(|g| !g.is_finite()), "{poison}");
            }
            assert!(residual.iter().all(|e| e.is_finite()), "{poison}: {residual:?}");
            // The next finite push is what a fresh residual gives.
            let next = scheme.compress(&finite, Some(&mut residual));
            let mut fresh = vec![0.0; 8];
            let want = scheme.compress(&finite, Some(&mut fresh));
            assert_eq!(next.encoded(), want.encoded(), "{poison}");
            assert_eq!(residual, fresh, "{poison}");
        }
    }

    #[test]
    fn wire_sizes() {
        let g = vec![1.0; 1000];
        let bytes = ALL.map(|scheme| scheme.compress(&g, None).wire_bytes());
        assert_eq!(bytes, [4000, 2000, 1004]);
    }

    #[test]
    fn bf16_compression_bounded_relative_error() {
        let g = sample();
        let c = Compression::Bf16.compress(&g, None);
        assert_eq!(c.wire_bytes(), g.len() * 2);
        for (a, b) in g.iter().zip(c.decompress()) {
            // bf16 keeps 8 mantissa bits: relative error ≤ 2⁻⁸.
            assert!((a - b).abs() <= a.abs() / 256.0 + 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn codec_derived_compression_matches_wire_precision() {
        assert_eq!(Compression::for_codec(WireCodec::F32), Compression::None);
        assert_eq!(Compression::for_codec(WireCodec::Bf16), Compression::Bf16);
        assert_eq!(Compression::for_codec(WireCodec::Int8), Compression::Int8);
    }

    #[test]
    fn quantized_roundtrip_zero_vector() {
        let g = vec![0.0; 5];
        let c = Compression::Int8.compress(&g, None);
        assert_eq!(c.decompress(), g);
    }

    #[test]
    fn compressed_grads_roundtrip_the_wire() {
        let g = sample();
        for scheme in ALL {
            let c = scheme.compress(&g, None);
            let back = CompressedGrad::decoded(&c.encoded()).unwrap();
            assert_eq!(back.decompress(), c.decompress(), "{scheme:?}");
        }
    }

    #[test]
    fn corrupt_compressed_grads_are_rejected() {
        // Unknown tags, the unassigned tag 1 among them: a well-formed
        // (length, count, index, value) payload behind it is refused too.
        assert!(matches!(CompressedGrad::decoded(&[9]), Err(ClusterError::Protocol(_))));
        let mut tag1 = vec![1];
        wire::put_u64(&mut tag1, 2);
        wire::put_u64(&mut tag1, 1);
        wire::put_u32(&mut tag1, 0);
        wire::put_f32(&mut tag1, 1.0);
        assert!(matches!(CompressedGrad::decoded(&tag1), Err(ClusterError::Protocol(_))));
        // Truncated dense payload.
        let ok = CompressedGrad::Dense(vec![1.0, 2.0]).encoded();
        assert!(CompressedGrad::decoded(&ok[..ok.len() - 2]).is_err());
    }
}
