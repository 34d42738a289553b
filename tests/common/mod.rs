//! Shared helpers for the integration-test binaries.
//!
//! Each file under `tests/` compiles as its own crate, so this module is
//! pulled in per binary via `mod common;` — one implementation of the
//! deterministic xorshift generator instead of a drifting copy per test.

// Each test binary uses a subset of the helpers; the unused remainder is
// expected, not dead weight to warn about.
#![allow(dead_code)]

/// Deterministic xorshift64 stream (the in-repo property-test generator).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw from `lo..hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}
