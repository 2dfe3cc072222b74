//! Deterministic request mixes for serving-layer tests: a pool of
//! distinct query *shapes* plus a skewed arrival schedule over them.
//!
//! A serving test needs two knobs a plain query generator does not
//! have: how many distinct shapes the traffic contains, and how strongly
//! arrivals repeat the hot shapes. Both are fixed by the seed — the same
//! `(MixConfig, requests, seed)` triple always produces bit-identical
//! queries in the same order, so a plan cache keyed on the query shape
//! sees an exactly reproducible hit/miss sequence.

use crate::randquery::{generate_query, GenConfig};
use dpnext_query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape-pool configuration of a request mix.
#[derive(Debug, Clone)]
pub struct MixConfig {
    /// Distinct query shapes in the pool (1 = every request identical).
    pub shapes: usize,
    /// Relations per shape.
    pub n: usize,
    /// Probability that a request re-draws the *hot* shape (shape 0)
    /// instead of a uniform pool member: `0.0` is uniform traffic,
    /// `1.0` hammers a single shape.
    pub hot_fraction: f64,
}

impl MixConfig {
    /// Uniform traffic over `shapes` distinct shapes of `n` relations.
    pub fn uniform(shapes: usize, n: usize) -> MixConfig {
        MixConfig {
            shapes,
            n,
            hot_fraction: 0.0,
        }
    }

    /// Cache-friendly traffic: 90% of requests hit one hot shape, the
    /// rest spread uniformly over the pool.
    pub fn hot(shapes: usize, n: usize) -> MixConfig {
        MixConfig {
            hot_fraction: 0.9,
            ..MixConfig::uniform(shapes, n)
        }
    }
}

/// A materialized request mix: the shape pool and the arrival schedule.
#[derive(Debug, Clone)]
pub struct RequestMix {
    shapes: Vec<Query>,
    schedule: Vec<usize>,
}

impl RequestMix {
    /// The distinct query shapes, indexed by the values in
    /// [`RequestMix::schedule`].
    pub fn shapes(&self) -> &[Query] {
        &self.shapes
    }

    /// Shape index of each request, in arrival order.
    pub fn schedule(&self) -> &[usize] {
        &self.schedule
    }
}

/// Generate `requests` arrivals over a pool described by `cfg`.
///
/// Shape `i` is the paper-methodology query
/// ([`GenConfig::paper`]) for `cfg.n` relations with a per-shape seed
/// derived from `seed`, so distinct shapes differ in both structure and
/// statistics while repeated draws of one shape are bit-identical.
pub fn request_mix(cfg: &MixConfig, requests: usize, seed: u64) -> RequestMix {
    assert!(cfg.shapes > 0, "a request mix needs at least one shape");
    assert!(cfg.n >= 2, "a shape needs at least two relations");
    let n = cfg.n;
    let shapes: Vec<Query> = (0..cfg.shapes)
        .map(|i| {
            // The bench sweep's per-cell schedule, reused so shape pools
            // and sweep queries stay disjoint across unrelated seeds.
            let shape_seed = seed
                .wrapping_add((n as u64).wrapping_mul(1_000_003))
                .wrapping_add((i as u64).wrapping_mul(7_919));
            generate_query(&GenConfig::paper(n), shape_seed)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_5eed_5eed_5eed);
    let schedule = (0..requests)
        .map(|_| {
            if cfg.shapes == 1 {
                return 0;
            }
            if rng.gen_range(0.0..1.0) < cfg.hot_fraction {
                0
            } else {
                rng.gen_range(0..cfg.shapes)
            }
        })
        .collect();
    RequestMix { shapes, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_shape_stable() {
        let cfg = MixConfig::hot(4, 4);
        let a = request_mix(&cfg, 64, 7);
        let b = request_mix(&cfg, 64, 7);
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.shapes().len(), 4);
        for (qa, qb) in a.shapes().iter().zip(b.shapes()) {
            assert_eq!(qa.table_count(), qb.table_count());
        }
    }

    #[test]
    fn hot_fraction_skews_schedule() {
        let mix = request_mix(&MixConfig::hot(8, 3), 400, 11);
        let hot = mix.schedule().iter().filter(|&&s| s == 0).count();
        // 90% hot + 1/8 of the uniform remainder; allow generous slack.
        assert!(hot > 300, "hot shape drawn only {hot}/400 times");
        assert!(mix.schedule().iter().any(|&s| s != 0));
    }

    #[test]
    fn uniform_covers_pool() {
        let mix = request_mix(&MixConfig::uniform(5, 3), 200, 3);
        for s in 0..5 {
            assert!(mix.schedule().contains(&s), "shape {s} never drawn");
        }
    }
}
