//! The SplitMix64 finalizer: the crate's only randomness source.
//!
//! The workspace vendors no `rand`; determinism is the whole point here,
//! so randomness is a tiny, fully specified bit mixer (Steele, Lea &
//! Flood's SplitMix64 finalizer) applied to the inputs of each decision.
//! Identical seeds produce identical decisions on every platform — no
//! floating-point, no platform-dependent hashing.

/// The SplitMix64 finalizer: a bijective avalanche mixer. Exposed so the
/// injector can derive *order-independent* decisions by mixing
/// `(seed, class, site, attempt)` directly instead of drawing from a
/// shared sequential stream.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform double in `[0, 1)` from one mixed word.
pub fn mix_f64(z: u64) -> f64 {
    (mix(z) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_stable() {
        // Pin the mixer's output so a silent change to the constants
        // (which would silently change every fault schedule) fails loudly.
        assert_eq!(mix(0), 0);
        assert_eq!(mix(1), 0x5692_161D_100B_05E5);
        assert_eq!(mix(0x9E37_79B9_7F4A_7C15), 0xE220_A839_7B1D_CDAF);
    }
}
