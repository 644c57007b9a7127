//! The workspace's one checksum: IEEE CRC-32 (the zlib/Ethernet
//! polynomial, reflected), as carried by every TCP frame, every
//! replication-log record and the training-checkpoint trailer.
//!
//! Two implementations behind one entry point, chosen per call from what
//! the code can observe (CPU features, input length):
//!
//! * **portable** — slicing-by-16 over `const`-built tables: sixteen
//!   independent table lookups per 16 input bytes instead of one dependent
//!   lookup per byte;
//! * **PCLMULQDQ** — carry-less-multiply folding (Gopal et al., "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   Intel 2009): four 128-bit lanes folded forward 64 bytes at a time,
//!   then reduced 512 → 128 → 64 → 32 bits. Used for inputs of at least
//!   64 bytes on x86-64 hosts that report the feature.
//!
//! Both produce the same value for every input (the differential tests
//! below pin them to a bit-at-a-time oracle), so which one ran is never
//! observable on the wire or on disk.

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]` is the CRC state contribution of byte `b` followed by
/// `k` zero bytes; `TABLES[0]` is the classic byte-at-a-time table.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Advances the raw (pre-inversion) CRC state over `data`, 16 bytes per
/// step.
fn update_portable(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let word = |c: &[u8], at: usize| u32::from_le_bytes([c[at], c[at + 1], c[at + 2], c[at + 3]]);
    let mut chunks = data.chunks_exact(16);
    for c in &mut chunks {
        let w = [word(c, 0) ^ state, word(c, 4), word(c, 8), word(c, 12)];
        state = 0;
        for (i, w) in w.iter().enumerate() {
            let base = 12 - 4 * i;
            state ^= t[base + 3][(w & 0xFF) as usize]
                ^ t[base + 2][((w >> 8) & 0xFF) as usize]
                ^ t[base + 1][((w >> 16) & 0xFF) as usize]
                ^ t[base][(w >> 24) as usize];
        }
    }
    for &b in chunks.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Shortest input the folding path takes: it needs four 16-byte lanes to
/// start from.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN: usize = 64;

/// Runtime CPUID probe, cached: every thread sees the same answer.
#[cfg(target_arch = "x86_64")]
fn clmul_available() -> bool {
    use std::sync::OnceLock;
    static AVAIL: OnceLock<bool> = OnceLock::new();
    *AVAIL.get_or_init(|| {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
    })
}

/// Advances the raw CRC state over `data` by carry-less-multiply folding.
/// Whole 16-byte blocks go through the fold; the tail (< 16 bytes) is
/// finished by the table path.
///
/// The fold constants are `x^n mod P(x)` for the distances named beside
/// them, bit-reflected and shifted left one (the form `PCLMULQDQ` wants
/// for a reflected CRC); `P_X` and `MU` are the polynomial and its
/// Barrett reciprocal `⌊x^64 / P(x)⌋` in the same form.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
fn update_clmul(state: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::*;

    const K1: i64 = 0x1_5444_2BD4; // x^(4·128+32)
    const K2: i64 = 0x1_C6E4_1596; // x^(4·128−32)
    const K3: i64 = 0x1_7519_97D0; // x^(128+32)
    const K4: i64 = 0x0_CCAA_009E; // x^(128−32)
    const K5: i64 = 0x1_63CD_6124; // x^64
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let (lo, hi) = block.split_at(8);
        _mm_set_epi64x(
            i64::from_le_bytes(hi.try_into().expect("16-byte block")),
            i64::from_le_bytes(lo.try_into().expect("16-byte block")),
        )
    }

    /// `acc` moved forward by the distance `keys` encodes, onto `next`.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    debug_assert!(data.len() >= CLMUL_MIN);
    let mut blocks = data.chunks_exact(16);
    let mut next = || load(blocks.next().expect("length checked by the caller"));

    // Four lanes, 64 bytes apart; the incoming state rides the first four
    // message bytes.
    let mut x = [next(), next(), next(), next()];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut left = data.len() / 16 - 4;
    while left >= 4 {
        for lane in &mut x {
            *lane = fold(*lane, next(), k1k2);
        }
        left -= 4;
    }

    // 512 → 128 bits, then any remaining whole blocks one at a time.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(x[0], x[1], k3k4);
    acc = fold(acc, x[2], k3k4);
    acc = fold(acc, x[3], k3k4);
    while left > 0 {
        acc = fold(acc, next(), k3k4);
        left -= 1;
    }

    // 128 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
    acc = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(acc, 4),
    );

    // Barrett reduction, 64 → 32 bits.
    let pmu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
    let folded = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;

    update_portable(folded, blocks.remainder())
}

fn update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN && clmul_available() {
        // SAFETY: guarded by the CPUID probe above; `update_clmul` has no
        // other precondition (it touches memory only through slices).
        return unsafe { update_clmul(state, data) };
    }
    update_portable(state, data)
}

/// IEEE CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Streaming IEEE CRC-32: feed the message in any number of pieces, split
/// anywhere; [`Crc32::finish`] equals [`crc32`] of the concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Feeds the little-endian bytes of `vals` — what
    /// `wire::put_f32s` would have written — without materializing them:
    /// the values are staged through a fixed stack block, so hashing a
    /// model-sized vector allocates nothing.
    pub fn update_f32_le(&mut self, vals: &[f32]) {
        const BLOCK: usize = 1024;
        let mut bytes = [0u8; BLOCK * 4];
        for chunk in vals.chunks(BLOCK) {
            let staged = &mut bytes[..chunk.len() * 4];
            for (dst, v) in staged.chunks_exact_mut(4).zip(chunk) {
                dst.copy_from_slice(&v.to_le_bytes());
            }
            self.update(staged);
        }
    }

    pub fn finish(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The differential oracle: one bit at a time, straight from the
    /// definition.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    fn crc32_portable(data: &[u8]) -> u32 {
        !update_portable(!0, data)
    }

    /// Deterministic filler, different at every offset.
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn check_values() {
        for crc in [crc32, crc32_portable, crc32_bitwise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    #[test]
    fn every_short_length_agrees_with_the_oracle() {
        // Covers the table tail (< 16), the fold entry (64), every
        // remainder class of the 64- and 16-byte loops, and their seams.
        let data = bytes(600, 7);
        for len in 0..=data.len() {
            let want = crc32_bitwise(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "dispatched, len {len}");
            assert_eq!(crc32_portable(&data[..len]), want, "portable, len {len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Dispatched ≡ forced-portable ≡ bitwise, at any length and from
        /// any (unaligned) starting offset.
        #[test]
        fn implementations_agree(len in 0usize..70_000, start in 0usize..64, seed in any::<u64>()) {
            let data = bytes(start + len, seed);
            let data = &data[start..];
            let want = crc32_bitwise(data);
            prop_assert_eq!(crc32(data), want);
            prop_assert_eq!(crc32_portable(data), want);
        }

        /// Streaming over arbitrary split points equals the one-shot hash.
        #[test]
        fn streaming_splits_anywhere(len in 0usize..70_000, seed in any::<u64>(),
                                     cuts in prop::collection::vec(any::<u32>(), 0..6)) {
            let data = bytes(len, seed);
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                crc.update(&data[at..cut]);
                at = cut;
            }
            crc.update(&data[at..]);
            prop_assert_eq!(crc.finish(), crc32_bitwise(&data));
        }

        /// `update_f32_le` hashes exactly the staged little-endian bytes,
        /// for any bit pattern (NaN payloads and −0.0 included) and across
        /// the stack-block boundary.
        #[test]
        fn f32_streaming_matches_staged_bytes(n in 0usize..5_000, seed in any::<u64>()) {
            let raw = bytes(n * 4, seed);
            let vals: Vec<f32> = raw
                .chunks_exact(4)
                .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
                .collect();
            let staged: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut crc = Crc32::new();
            crc.update(b"prefix");
            crc.update_f32_le(&vals);
            let mut want = b"prefix".to_vec();
            want.extend_from_slice(&staged);
            prop_assert_eq!(crc.finish(), crc32_bitwise(&want));
        }
    }
}
