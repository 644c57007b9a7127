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
use lcasgd_simcluster::codec::{bf16_decode, bf16_encode};
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

    /// `signal ← signal − decompress(self)`, element for element what
    /// subtracting the decompressed vector would give, without building it.
    fn subtract_from(&self, signal: &mut [f32]) {
        match self {
            CompressedGrad::Dense(v) => {
                for (s, a) in signal.iter_mut().zip(v) {
                    *s -= a;
                }
            }
            CompressedGrad::Sparse { entries, .. } => {
                // Entries absent from the message decompress to +0.0, and
                // `s − 0.0` is `s` for every `s`: only the kept ones move.
                for &(i, a) in entries {
                    signal[i as usize] -= a;
                }
            }
            CompressedGrad::Quantized { scale, levels } => {
                for (s, &l) in signal.iter_mut().zip(levels) {
                    *s -= l as f32 * scale;
                }
            }
            CompressedGrad::Bf16(halves) => {
                for (s, &h) in signal.iter_mut().zip(halves) {
                    *s -= bf16_decode(h);
                }
            }
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
        mut residual: Option<&mut [f32]>,
    ) -> CompressedGrad {
        // With error feedback the residual buffer doubles as the signal:
        // e ← g + e in place, compress it, then e ← e − decompress(out).
        // No model-sized temporary is allocated beyond the output itself.
        if let Some(r) = residual.as_deref_mut() {
            assert_eq!(r.len(), grads.len(), "residual length mismatch");
            for (e, g) in r.iter_mut().zip(grads) {
                *e += g;
            }
        }
        let signal: &[f32] = residual.as_deref().map_or(grads, |r| r);

        let out = match *self {
            Compression::None => CompressedGrad::Dense(signal.to_vec()),
            Compression::TopK { k_frac } => {
                assert!(k_frac > 0.0 && k_frac <= 1.0, "k_frac out of range");
                let k = ((grads.len() as f32 * k_frac).ceil() as usize).clamp(1, grads.len());
                // Partial select by magnitude.
                let mut idx: Vec<u32> = (0..grads.len() as u32).collect();
                idx.select_nth_unstable_by(k - 1, |&a, &b| {
                    signal[b as usize]
                        .abs()
                        .partial_cmp(&signal[a as usize].abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut entries: Vec<(u32, f32)> =
                    idx[..k].iter().map(|&i| (i, signal[i as usize])).collect();
                entries.sort_unstable_by_key(|&(i, _)| i);
                CompressedGrad::Sparse { len: grads.len(), entries }
            }
            Compression::Uniform { bits } => {
                assert!((2..=8).contains(&bits), "bits out of range");
                let max = signal.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let levels_per_sign = ((1u32 << (bits - 1)) - 1) as f32;
                let scale = if max > 0.0 { max / levels_per_sign } else { 1.0 };
                let levels: Vec<i8> = signal
                    .iter()
                    .map(|&v| (v / scale).round().clamp(-levels_per_sign, levels_per_sign) as i8)
                    .collect();
                CompressedGrad::Quantized { scale, levels }
            }
            Compression::Bf16 => {
                CompressedGrad::Bf16(signal.iter().map(|&v| bf16_encode(v)).collect())
            }
        };

        if let Some(r) = residual {
            out.subtract_from(r);
        }
        out
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

/// Compresses a gradient for the wire, maintaining the worker's error-
/// feedback residual. `Compression::None` short-circuits to a dense
/// payload without touching the residual. The co-simulator's only (it
/// goes when `trainer/cosim.rs` does): the engine's push path is
/// [`shard_wire_grads`](crate::shard::shard_wire_grads), whose one-shard
/// case is this and which also hands the gradient's vector back.
pub(crate) fn wire_grads(
    scheme: &Compression,
    grads: Vec<f32>,
    residual: &mut Vec<f32>,
) -> CompressedGrad {
    if *scheme == Compression::None {
        return CompressedGrad::Dense(grads);
    }
    if residual.len() != grads.len() {
        *residual = vec![0.0; grads.len()];
    }
    scheme.compress(&grads, Some(residual))
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
