//! Deterministic inputs. Every point set is a pure function of the
//! run's `--seed` and its position in the schedule, so a replay (the
//! output check's library twins) regenerates exactly what the system
//! was sent, and the system under test only ever sees these points.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbc::{GridParams, Point};

/// Mixes a run seed with schedule coordinates into one RNG seed.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [a, b] {
        x = (x ^ v).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 31;
    }
    x
}

/// `n` points of a `k`-cluster Gaussian mixture (σ = 6% of Δ) in random
/// order — the streams' arrival order must not be cluster-sorted.
pub fn mixture(gp: GridParams, n: usize, seed: u64) -> Vec<Point> {
    let mut pts = sbc::geometry::dataset::gaussian_mixture(gp, n, 4, 0.06, seed);
    pts.shuffle(&mut StdRng::seed_from_u64(seed ^ 1));
    pts
}

/// A small batch around one of a tenant's own cluster centers: each
/// tenant has 3 fixed centers (from its id), and every batch draws its
/// points from one of them.
pub fn tenant_batch(gp: GridParams, seed: u64, tenant: u64, index: u64, len: usize) -> Vec<Point> {
    let delta = gp.delta as f64;
    let mut centers_rng = StdRng::seed_from_u64(mix(seed, tenant, u64::MAX));
    let centers: Vec<Vec<f64>> = (0..3)
        .map(|_| {
            (0..gp.d)
                .map(|_| centers_rng.gen_range(0.2 * delta..0.8 * delta))
                .collect()
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, tenant, index));
    let spread = 0.08 * delta;
    (0..len)
        .map(|_| {
            let c = &centers[rng.gen_range(0..centers.len())];
            Point::from_raw(
                c.iter()
                    .map(|&x| {
                        let v = x + rng.gen_range(-spread..spread) + rng.gen_range(-spread..spread);
                        v.round().clamp(1.0, delta) as u32
                    })
                    .collect(),
            )
        })
        .collect()
}
