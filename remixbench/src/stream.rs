//! Seeded request streams: which pool input each request carries.
//!
//! The workload seed decides the order of the requests, never which inputs
//! are popular: the program under test sees nothing but the inputs these
//! streams pick, and every seed offers it the same mix.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Back-to-back seeded permutations of `0..pool`: every input appears once
/// per pass, in an order the seed decides.
pub fn permutation_stream(pool: usize, len: usize, seed: u64) -> Vec<usize> {
    assert!(pool > 0, "empty pool");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len + pool);
    let mut pass: Vec<usize> = (0..pool).collect();
    while out.len() < len {
        pass.shuffle(&mut rng);
        out.extend_from_slice(&pass);
    }
    out.truncate(len);
    out
}

/// Seed of the rank assignment in `zipf_stream`, fixed so that every
/// workload seed has the same hot set, and with it the same miss share and
/// the same verdict mix behind the misses.
const RANK_SEED: u64 = 0x7a69_7066_7261_6e6b;

/// Zipf-like skewed repetition: the input of popularity rank `r` is drawn
/// with weight `1 / (r + 1)^exponent`. Ranks are assigned to inputs once,
/// with a fixed seed; `seed` drives only the draws.
pub fn zipf_stream(pool: usize, exponent: f64, len: usize, seed: u64) -> Vec<usize> {
    assert!(pool > 0, "empty pool");
    let mut by_rank: Vec<usize> = (0..pool).collect();
    by_rank.shuffle(&mut StdRng::seed_from_u64(RANK_SEED));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cdf = Vec::with_capacity(pool);
    let mut total = 0.0f64;
    for r in 0..pool {
        total += 1.0 / ((r + 1) as f64).powf(exponent);
        cdf.push(total);
    }
    (0..len)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            let r = cdf.partition_point(|&c| c <= u).min(pool - 1);
            by_rank[r]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(
            permutation_stream(50, 500, 7),
            permutation_stream(50, 500, 7)
        );
        assert_ne!(
            permutation_stream(50, 500, 7),
            permutation_stream(50, 500, 8)
        );
        assert_eq!(
            zipf_stream(300, 1.0, 2000, 7),
            zipf_stream(300, 1.0, 2000, 7)
        );
        assert_ne!(
            zipf_stream(300, 1.0, 2000, 7),
            zipf_stream(300, 1.0, 2000, 8)
        );
    }

    #[test]
    fn permutation_passes_cover_the_pool() {
        let s = permutation_stream(40, 120, 3);
        for pass in s.chunks(40) {
            let mut p = pass.to_vec();
            p.sort_unstable();
            assert_eq!(p, (0..40).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_repeats_popular_inputs() {
        let s = zipf_stream(1000, 1.0, 5000, 1);
        assert!(s.iter().all(|&i| i < 1000));
        let mut counts = vec![0usize; 1000];
        for &i in &s {
            counts[i] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The most popular input is drawn far more often than a uniform
        // stream would draw any (5 per input).
        assert!(counts[0] > 100, "top count {}", counts[0]);
        assert!(counts.iter().filter(|&&c| c > 0).count() < 1000);
    }

    #[test]
    fn zipf_hot_set_does_not_depend_on_the_seed() {
        let top = |seed| {
            let mut counts = vec![0usize; 500];
            for i in zipf_stream(500, 1.0, 20_000, seed) {
                counts[i] += 1;
            }
            (0..500).max_by_key(|&i| counts[i]).unwrap()
        };
        assert_eq!(top(1), top(2));
        assert_eq!(top(1), top(3));
    }
}
