//! Gradient compression for the worker→server push — the
//! communication-efficiency axis of the paper's related work (QSGD [2],
//! TernGrad [22], ECQ-SGD [23]) implemented as an optional extension so it
//! can be combined with any of the algorithms and ablated.
//!
//! Two schemes plus ECQ-style *error feedback*: the compression residual
//! is accumulated per worker and added to the next gradient before
//! compressing, so quantization error is compensated over time instead of
//! lost (the mechanism behind ECQ-SGD's convergence speedup).

use lcasgd_simcluster::backend::wire;
use lcasgd_simcluster::codec::{bf16_decode, bf16_encode, level, max_abs_nan};
use lcasgd_simcluster::{ClusterError, WireCodec, WireMsg, WireReader};

/// A gradient compression scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Compression {
    /// No compression (the paper's own setting).
    None,
    /// Keep only the largest-magnitude `k_frac` fraction of entries.
    TopK {
        /// Fraction of entries kept, in `(0, 1]`.
        k_frac: f32,
    },
    /// Uniform stochastic-free quantization to `2^bits − 1` levels per
    /// sign, scaled by the max magnitude (QSGD-style without the
    /// stochastic rounding, which would break replayability).
    Uniform {
        /// Bits per entry (2..=8).
        bits: u8,
    },
    /// Every entry truncated to bf16 (round-to-nearest-even). Halves the
    /// uplink with a scale-free relative error ≤ 2⁻⁸; like the other lossy
    /// schemes it runs through the error-feedback residual.
    Bf16,
}

/// A compressed gradient message.
#[derive(Clone, Debug)]
pub enum CompressedGrad {
    Dense(Vec<f32>),
    /// Sparse (index, value) pairs.
    Sparse {
        len: usize,
        entries: Vec<(u32, f32)>,
    },
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
            CompressedGrad::Sparse { entries, .. } => 8 + entries.len() * 8,
            CompressedGrad::Quantized { levels, .. } => 4 + levels.len(),
            CompressedGrad::Bf16(halves) => halves.len() * 2,
        }
    }

    /// Entries of the dense gradient this message stands for.
    pub fn len(&self) -> usize {
        match self {
            CompressedGrad::Dense(v) => v.len(),
            CompressedGrad::Sparse { len, .. } => *len,
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
            CompressedGrad::Sparse { entries, .. } => {
                out.fill(0.0);
                for &(i, v) in entries {
                    out[i as usize] = v;
                }
            }
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
/// backend-driven runs, so the on-wire byte count actually shrinks when a
/// compression scheme is active (tag byte, then the variant's fields; all
/// little-endian, `u64` counts — the shared codec conventions).
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
            CompressedGrad::Sparse { len, entries } => {
                wire::put_u8(buf, 1);
                wire::put_u64(buf, *len as u64);
                wire::put_u64(buf, entries.len() as u64);
                for &(i, v) in entries {
                    wire::put_u32(buf, i);
                    wire::put_f32(buf, v);
                }
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
            1 => {
                let len = r.u64()? as usize;
                // Indices are u32, so a valid dense length fits in one;
                // anything larger is a corrupt count, rejected before it
                // can size a decompression buffer.
                if len > u32::MAX as usize {
                    return Err(ClusterError::Protocol(format!(
                        "sparse gradient claims {len} dense entries"
                    )));
                }
                let n = r.len(8)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let i = r.u32()?;
                    if i as usize >= len {
                        return Err(ClusterError::Protocol(format!(
                            "sparse index {i} out of range for dense length {len}"
                        )));
                    }
                    entries.push((i, r.f32()?));
                }
                Ok(CompressedGrad::Sparse { len, entries })
            }
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
            Compression::TopK { k_frac } => top_k(k_frac, grads, residual),
            Compression::Uniform { bits } => uniform(bits, grads, residual),
            Compression::Bf16 => bf16(grads, residual),
        }
    }

    /// The compression a wire codec implies when the run has none of its
    /// own: the uplink mirrors the codec's precision so a quantized wire
    /// is quantized end to end (downlink weights via the codec's packed
    /// reply, uplink gradients via the matching residual-compensated
    /// scheme).
    pub fn for_codec(codec: WireCodec) -> Compression {
        match codec {
            WireCodec::F32 => Compression::None,
            WireCodec::Bf16 => Compression::Bf16,
            WireCodec::Int8 => Compression::Uniform { bits: 8 },
        }
    }

    /// Compression ratio (dense bytes / wire bytes) for `n` entries.
    pub fn ratio(&self, n: usize) -> f32 {
        let dense = (n * 4) as f32;
        let probe = self.compress(&vec![1.0; n.max(1)], None);
        dense / probe.wire_bytes() as f32
    }
}

// The four schemes. With error feedback the residual buffer doubles as the
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

fn top_k(k_frac: f32, grads: &[f32], mut residual: Option<&mut [f32]>) -> CompressedGrad {
    assert!(k_frac > 0.0 && k_frac <= 1.0, "k_frac out of range");
    if let Some(r) = residual.as_deref_mut() {
        r.iter_mut().zip(grads).for_each(|(e, g)| *e += g);
    }
    let signal: &[f32] = residual.as_deref().map_or(grads, |r| r);
    let k = ((grads.len() as f32 * k_frac).ceil() as usize).clamp(1, grads.len());
    // Partial select by magnitude.
    let mut idx: Vec<u32> = (0..grads.len() as u32).collect();
    idx.select_nth_unstable_by(k - 1, |&a, &b| {
        signal[b as usize]
            .abs()
            .partial_cmp(&signal[a as usize].abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut entries: Vec<(u32, f32)> = idx[..k].iter().map(|&i| (i, signal[i as usize])).collect();
    entries.sort_unstable_by_key(|&(i, _)| i);
    // Entries absent from the message decompress to +0.0, and `e − 0.0` is
    // `e` for every `e`: only the kept ones move.
    if let Some(r) = residual {
        for &(i, a) in &entries {
            r[i as usize] -= a;
        }
    }
    CompressedGrad::Sparse { len: grads.len(), entries }
}

/// Entries of the residual folded in per step of `uniform`'s first pass,
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
fn uniform(bits: u8, grads: &[f32], mut residual: Option<&mut [f32]>) -> CompressedGrad {
    assert!((2..=8).contains(&bits), "bits out of range");
    let lim = ((1u32 << (bits - 1)) - 1) as f32;
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
    let scale = if max > 0.0 { max / lim } else { 1.0 };
    match residual {
        Some(r) => levels.iter_mut().zip(r).for_each(|(l, e)| {
            *l = level(*e / scale, lim);
            *e -= *l as f32 * scale;
        }),
        None => levels.iter_mut().zip(grads).for_each(|(l, &g)| *l = level(g / scale, lim)),
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
    fn topk_keeps_largest_magnitudes() {
        let g = sample();
        let c = Compression::TopK { k_frac: 0.25 }.compress(&g, None);
        let d = c.decompress();
        // 2 of 8 kept: -3.0 and 2.0.
        assert_eq!(d[1], -3.0);
        assert_eq!(d[3], 2.0);
        assert_eq!(d.iter().filter(|&&v| v != 0.0).count(), 2);
    }

    #[test]
    fn uniform_quantization_bounded_error() {
        let g = sample();
        let c = Compression::Uniform { bits: 8 }.compress(&g, None);
        let d = c.decompress();
        let max = 3.0f32;
        let step = max / 127.0;
        for (a, b) in g.iter().zip(&d) {
            assert!((a - b).abs() <= step / 2.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn error_feedback_recovers_dropped_mass() {
        // A constant small gradient is entirely dropped by top-k each
        // round — without feedback it never reaches the server; with
        // feedback the residual accumulates until it wins a slot.
        let g = vec![1.0, 0.001, 0.001, 0.001];
        let scheme = Compression::TopK { k_frac: 0.25 };
        let mut residual = vec![0.0; 4];
        let mut delivered = [0.0f32; 4];
        for _ in 0..2000 {
            let c = scheme.compress(&g, Some(&mut residual));
            for (d, v) in delivered.iter_mut().zip(c.decompress()) {
                *d += v;
            }
        }
        // Every coordinate's delivered mass approaches 2000·g_i.
        for (i, (&d, &gi)) in delivered.iter().zip(&g).enumerate() {
            let expect = 2000.0 * gi;
            assert!(
                (d - expect).abs() <= expect * 0.5 + 1.0,
                "coord {i}: delivered {d} vs {expect}"
            );
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
        for scheme in [
            Compression::None,
            Compression::TopK { k_frac: 0.1 },
            Compression::Uniform { bits: 8 },
            Compression::Uniform { bits: 3 },
            Compression::Bf16,
        ] {
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
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for bits in [2, 8] {
                let scheme = Compression::Uniform { bits };
                let mut residual: Vec<f32> = (0..8).map(|i| i as f32 * 1e-3).collect();
                scheme.compress(&finite, Some(&mut residual));
                let mut grads = finite.clone();
                grads[3] = poison;
                for fed_back in [true, false] {
                    let out = scheme.compress(&grads, fed_back.then_some(&mut residual));
                    // The server sees a non-finite gradient, as f32 would
                    // deliver, off the wire as much as in memory.
                    let back = CompressedGrad::decoded(&out.encoded()).unwrap();
                    assert!(back.decompress().iter().any(|g| !g.is_finite()), "{poison} {bits}");
                }
                assert!(residual.iter().all(|e| e.is_finite()), "{poison} {bits}: {residual:?}");
                // The next finite push is what a fresh residual gives.
                let next = scheme.compress(&finite, Some(&mut residual));
                let mut fresh = vec![0.0; 8];
                let want = scheme.compress(&finite, Some(&mut fresh));
                assert_eq!(next.encoded(), want.encoded(), "{poison} {bits}");
                assert_eq!(residual, fresh, "{poison} {bits}");
            }
        }
    }

    #[test]
    fn wire_sizes_and_ratio() {
        let n = 1000;
        assert!(Compression::TopK { k_frac: 0.01 }.ratio(n) > 10.0);
        assert!((Compression::Uniform { bits: 8 }.ratio(n) - 3.98).abs() < 0.1);
        assert!((Compression::None.ratio(n) - 1.0).abs() < 1e-6);
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
        assert_eq!(Compression::for_codec(WireCodec::Int8), Compression::Uniform { bits: 8 });
    }

    #[test]
    fn quantized_roundtrip_zero_vector() {
        let g = vec![0.0; 5];
        let c = Compression::Uniform { bits: 4 }.compress(&g, None);
        assert_eq!(c.decompress(), g);
    }

    #[test]
    #[should_panic(expected = "k_frac out of range")]
    fn topk_validates_fraction() {
        Compression::TopK { k_frac: 0.0 }.compress(&[1.0], None);
    }

    #[test]
    fn compressed_grads_roundtrip_the_wire() {
        let g = sample();
        for scheme in [
            Compression::None,
            Compression::TopK { k_frac: 0.25 },
            Compression::Uniform { bits: 6 },
            Compression::Bf16,
        ] {
            let c = scheme.compress(&g, None);
            let back = CompressedGrad::decoded(&c.encoded()).unwrap();
            assert_eq!(back.decompress(), c.decompress(), "{scheme:?}");
        }
    }

    #[test]
    fn corrupt_compressed_grads_are_rejected() {
        // Unknown tag.
        assert!(matches!(CompressedGrad::decoded(&[9]), Err(ClusterError::Protocol(_))));
        // Sparse entry indexing past the declared dense length.
        let bad = CompressedGrad::Sparse { len: 2, entries: vec![(5, 1.0)] };
        assert!(matches!(CompressedGrad::decoded(&bad.encoded()), Err(ClusterError::Protocol(_))));
        // Truncated dense payload.
        let ok = CompressedGrad::Dense(vec![1.0, 2.0]).encoded();
        assert!(CompressedGrad::decoded(&ok[..ok.len() - 2]).is_err());
    }
}
