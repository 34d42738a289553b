//! Seeded right-hand sides. Every input the solvers see is generated here
//! from `(seed, call, case)`, so a seed fixes a run's inputs and nothing
//! else does.

/// xorshift64* generator.
pub struct XorShift(u64);

impl XorShift {
    /// Generator for stream `(seed, call, case)`; streams are decorrelated
    /// by splitmix64 so neighbouring indices do not start alike.
    pub fn stream(seed: u64, call: u64, case: u64) -> Self {
        let mut s = splitmix(seed);
        s = splitmix(s ^ call);
        s = splitmix(s ^ case);
        XorShift(s | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[-1, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` independent uniform values of stream `(seed, call, case)`: the
/// nodal loads on a plate's free dofs, in the plate's natural numbering.
pub fn field(seed: u64, call: u64, case: u64, n: usize) -> Vec<f64> {
    let mut g = XorShift::stream(seed, call, case);
    (0..n).map(|_| g.uniform()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_stream_same_values_other_stream_other_values() {
        assert_eq!(field(3, 1, 2, 64), field(3, 1, 2, 64));
        assert_ne!(field(3, 1, 2, 64), field(4, 1, 2, 64));
        assert_ne!(field(3, 1, 2, 64), field(3, 2, 2, 64));
        assert_ne!(field(3, 1, 2, 64), field(3, 1, 3, 64));
    }

    #[test]
    fn values_are_in_range_and_spread() {
        let v = field(1, 0, 0, 10_000);
        assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }
}
