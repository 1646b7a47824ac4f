//! Percentiles, medians, a seeded mixer and a content hash — the harness's
//! own arithmetic, independent of the crates it measures.

/// A percentile level, held as the share of samples beyond it so that
/// ranks are whole-number arithmetic: p99 is `Level { beyond: 100 }`, one
/// sample in a hundred lies beyond it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Level {
    pub name: &'static str,
    beyond: usize,
}

pub const P50: Level = Level {
    name: "p50",
    beyond: 2,
};

pub const P90: Level = Level {
    name: "p90",
    beyond: 10,
};

/// The level a tail is reported at: p90 once ten of `n` samples lie beyond
/// it, the median before. Higher levels have the samples (p99 of the
/// minute commits is a checkpoint-bearing minute) but single out one
/// operation whose time page faults set, and did not repeat from run to
/// run; what they showed is in the per-layer ledger.
pub fn tail_level(n: usize) -> Level {
    if n / P90.beyond >= 10 {
        P90
    } else {
        P50
    }
}

/// Nearest-rank percentile of `samples` (any order); 0 when empty.
pub fn percentile(samples: &[f64], level: Level) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = sorted.len() - sorted.len() / level.beyond;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, P50)
}

/// Op by op, the fastest time among the passes (`passes[p][i]` is op `i` of
/// pass `p`; every pass runs the same ops). The machine adds delays, never
/// removes work: memory the guest had returned to its host faults back in
/// at many times the usual cost, a neighbour takes the core. Such delays
/// land on other ops in every pass, so the op-by-op minimum is what the
/// code itself costs, and it repeats from run to run where means, medians
/// and pooled percentiles of the raw samples do not.
pub fn floor_profile(passes: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes.first().map_or(0, Vec::len);
    (0..ops)
        .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// splitmix64: every seeded draw of the load generator goes through this.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A draw in `0..1000` from `seed` and up to three coordinates.
pub fn permille(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    mix(seed ^ mix(a ^ mix(b ^ mix(c)))) % 1000
}

/// Incremental FNV-1a 64: fingerprints of generated inputs and of outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_needs_ten_samples_beyond() {
        assert_eq!(tail_level(5), P50);
        assert_eq!(tail_level(99), P50);
        assert_eq!(tail_level(100), P90);
        assert_eq!(tail_level(100_000), P90);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, P50), 50.0);
        assert_eq!(percentile(&v, P90), 90.0);
        let v: Vec<f64> = (1..=1_005).map(f64::from).collect();
        assert_eq!(percentile(&v, P90), 905.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], P90), 0.0);
    }

    #[test]
    fn floor_profile_keeps_the_fastest_pass_of_each_op() {
        let passes = [
            vec![3.0, 9.0, 5.0],
            vec![4.0, 2.0, 5.5],
            vec![3.5, 2.5, 4.0],
        ];
        assert_eq!(floor_profile(&passes), vec![3.0, 2.0, 4.0]);
        assert!(floor_profile(&[]).is_empty());
    }

    #[test]
    fn fingerprints_are_stable() {
        // Known FNV-1a vectors: a regression here would silently change
        // every recorded input fingerprint.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(mix(0), 0xe220_a839_7b1d_cdaf);
    }
}
