//! Sample series and the benchmark's small deterministic RNG.

use std::time::Instant;

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    rnn_heatmap::core::clock::now().duration_since(t0).as_secs_f64() * 1e3
}

/// A series of samples (one per operation).
#[derive(Default, Clone)]
pub struct Series(Vec<f64>);

impl Series {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// The `q`-quantile (0..=1), linearly interpolated between order
    /// statistics; 0 for an empty series.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut s = self.0.clone();
        s.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }
}

/// SplitMix64: tour, edit and script generation from the workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the bit patterns of `values`: bit-identity probe for
/// frames kept for a later check.
pub fn hash_f64(values: &[f64]) -> u64 {
    hash_bytes_iter(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// FNV-1a over raw bytes.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    hash_bytes_iter(bytes.iter().copied())
}

fn hash_bytes_iter(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
