//! Output quality, counted the way constrained-coreset evaluations do:
//! capacitated cost of the coreset at the relaxed capacity `(1+η)·t`
//! against the full point set's at a binding capacity `t = |Q|/k`, over
//! a fixed seeded set of k-means++ center sets.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::clustering::kmeanspp_seeds;
use sbc::{capacitated_cost, CoresetParams, Point};

/// A coreset and the net point set it summarizes, captured mid-run and
/// evaluated after the timed phase.
pub struct Capture {
    /// The net (live) points at capture time, as a multiset.
    pub net: Vec<Point>,
    /// Coreset points.
    pub points: Vec<Point>,
    /// Coreset weights.
    pub weights: Vec<f64>,
}

/// Collapses a multiset into distinct points with multiplicities. The
/// fractional capacitated cost is unchanged (identical sources can
/// share one transport row) and it is much cheaper on a small grid.
fn aggregate(points: &[Point]) -> (Vec<Point>, Vec<f64>) {
    let mut m: BTreeMap<&[u32], (usize, f64)> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        m.entry(p.coords()).or_insert((i, 0.0)).1 += 1.0;
    }
    m.into_values().map(|(i, w)| (points[i].clone(), w)).unzip()
}

/// The worst side of the strong-coreset sandwich over the center sets:
/// the larger of `cost_{(1+η)t}(Q′) / cost_t(Q)` and
/// `cost_{(1+η)t}(Q) / cost_t(Q′)`, each of which the guarantee bounds
/// by `1+ε`. `None` when a cost is not finite (an infeasible capacity),
/// which the caller counts as a failed check.
pub fn cost_ratio(c: &Capture, params: &CoresetParams, sets: u64, seed: u64) -> Option<f64> {
    let (pts, ws) = aggregate(&c.net);
    let n = c.net.len() as f64;
    let k = params.k;
    let t = n / k as f64;
    let mut worst: f64 = 0.0;
    for s in 0..sets {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(s));
        let centers = kmeanspp_seeds(&pts, Some(&ws), k, params.r, &mut rng);
        let relaxed = (1.0 + params.eta) * t;
        let full = |cap| capacitated_cost(&pts, Some(&ws), &centers, cap, params.r);
        let core = |cap| capacitated_cost(&c.points, Some(&c.weights), &centers, cap, params.r);
        let (full_t, core_eta) = (full(t), core(relaxed));
        // `t = |Q|/k` makes `cost_t(Q)` feasible, so the upper side must
        // be finite. The lower side's `cost_t(Q′)` is infinite when the
        // coreset's total weight exceeds `k·t`; the ratio is then 0 and
        // the bound holds trivially.
        if !(full_t.is_finite() && core_eta.is_finite()) {
            return None;
        }
        if full_t > 0.0 {
            worst = worst.max(core_eta / full_t);
        }
        let core_t = core(t);
        if core_t.is_finite() && core_t > 0.0 {
            worst = worst.max(full(relaxed) / core_t);
        }
    }
    Some(worst)
}
