//! Randomly shifted hierarchical grids (§3.1).
//!
//! The space `[Δ]^d` (with `Δ = 2^L`) is partitioned by `L + 2` nested
//! grids `G₋₁, G₀, …, G_L`. Grid `Gᵢ` has cells of side `gᵢ = Δ/2^i`
//! aligned so that one cell corner sits at the (negated) random shift
//! vector `v ∈ [0, Δ)^d` drawn once per hierarchy:
//!
//! ```text
//! Gᵢ = { [gᵢt₁−v₁, gᵢ(t₁+1)−v₁) × … × [gᵢt_d−v_d, gᵢ(t_d+1)−v_d) : t ∈ ℤ^d }
//! ```
//!
//! (Shifting the grid by `−v` rather than `+v` is the convention that
//! makes the paper's Fact A.1 literally true: the `G₋₁` cell `t = 0`,
//! namely `[−v, 2Δ−v)^d`, always contains all of `[Δ]^d` because
//! `v ∈ [0, Δ)`. The two conventions describe the same distribution over
//! grids.) `G_L` has side 1, so each of its cells contains at most one
//! integer point. Cells are identified by their integer index vector `t`
//! ([`CellId`]), and the parent of a level-`i` cell in `G_{i−1}` is
//! obtained by flooring each index halved — no geometry needed. With this
//! convention every cell containing a point of `[Δ]^d` has non-negative
//! indices (`t ∈ [0, 2^{i+1}]` at level `i ≥ 0`; `t = 0` at level `−1`).

use crate::point::Point;
use rand::Rng;

/// Static parameters of a grid hierarchy: the cube `[Δ]^d` with `Δ = 2^L`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridParams {
    /// Coordinate range `Δ` (must be a power of two, `Δ = 2^L`).
    pub delta: u64,
    /// `L = log₂ Δ`.
    pub l: u32,
    /// Dimension `d`.
    pub d: usize,
}

impl GridParams {
    /// Builds parameters from `L` and `d` (`Δ = 2^L`).
    pub fn from_log_delta(l: u32, d: usize) -> Self {
        assert!(l <= 40, "Δ = 2^L with L ≤ 40 supported");
        assert!(d >= 1);
        Self {
            delta: 1u64 << l,
            l,
            d,
        }
    }

    /// Builds parameters from `Δ` (must be a power of two) and `d`.
    pub fn from_delta(delta: u64, d: usize) -> Self {
        assert!(delta.is_power_of_two(), "the paper assumes Δ = 2^L");
        Self::from_log_delta(delta.trailing_zeros(), d)
    }

    /// Side length `gᵢ = Δ/2^i` of level-`i` cells (`i ∈ {−1, …, L}`).
    pub fn side_len(&self, level: i32) -> f64 {
        assert!(level >= -1 && level <= self.l as i32);
        if level < 0 {
            (self.delta * 2) as f64
        } else {
            (self.delta as f64) / (1u64 << level) as f64
        }
    }

    /// Number of grid levels excluding `G₋₁` (i.e. `L + 1` levels `0..=L`).
    pub fn num_levels(&self) -> usize {
        self.l as usize + 1
    }
}

/// Identifier of one grid cell: its level and integer index vector `t`.
///
/// Ordered lexicographically (level first) so `BTreeMap` iteration is
/// deterministic across runs — important for reproducible coresets.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Grid level `i ∈ {−1, 0, …, L}`.
    pub level: i32,
    /// Integer index vector `t ∈ ℤ^d` of the cell in `Gᵢ`.
    pub coords: Vec<i64>,
}

impl CellId {
    /// The parent cell in `G_{level−1}`.
    ///
    /// Because consecutive grids share the corner `v` and halve/double the
    /// side length, the parent index is the floored half of the child
    /// index: `t' = ⌊t/2⌋` (Euclidean division, correct for negatives).
    ///
    /// # Panics
    /// Panics when called on a `G₋₁` cell (which has no parent).
    pub fn parent(&self) -> CellId {
        assert!(self.level >= 0, "G₋₁ cells have no parent");
        CellId {
            level: self.level - 1,
            coords: self.coords.iter().map(|c| c.div_euclid(2)).collect(),
        }
    }

    /// Packs the cell into a `u128` when it fits: 6 bits of level followed
    /// by `d` fixed-width offset indices. Returns `None` when
    /// `6 + d·(level+2) > 128`.
    ///
    /// For a level-`i` cell containing a point of `[Δ]^d` the index lies in
    /// `[−2^i, 2^i]`, so `i + 2` bits per coordinate (after offsetting by
    /// `2^i`) are always sufficient; level −1 needs one bit.
    ///
    /// Hidden from the documented surface: the packing is an ingest-kernel
    /// implementation detail (arena table keys), not a stable identifier
    /// format.
    #[doc(hidden)]
    pub fn pack(&self) -> Option<u128> {
        debug_assert!({
            let width = if self.level >= 0 { self.level + 2 } else { 1 };
            self.coords
                .iter()
                .all(|&c| c >= 0 && (c as u128) < (1u128 << (width + 1)))
        });
        Self::pack_coords(self.level, &self.coords)
    }

    /// [`Self::pack`] over a bare level and coordinate slice: `None` when
    /// the level is outside `[−1, 62]`, the packing is wider than 128
    /// bits, or an index is out of range. Checkpoint restore packs
    /// untrusted snapshot columns straight into table keys through this.
    #[doc(hidden)]
    pub fn pack_coords(level: i32, coords: &[i64]) -> Option<u128> {
        if !(-1..=62).contains(&level) {
            return None;
        }
        let width: u32 = if level >= 0 { (level + 2) as u32 } else { 1 };
        if 6 + width as usize * coords.len() > 128 {
            return None;
        }
        let mut key: u128 = (level + 1) as u128; // level ∈ [−1, L] → [0, L+1]
        for &c in coords {
            if c < 0 || (c as u128) >= (1u128 << width) {
                return None; // out of the expected index range — refuse to truncate
            }
            key = (key << width) | (c as u128);
        }
        Some(key)
    }

    /// Inverts [`Self::pack`] given the cell's level and dimension.
    /// Returns `None` for keys that are not valid packings (stray bits or
    /// mismatched embedded level).
    pub fn unpack(key: u128, level: i32, d: usize) -> Option<CellId> {
        let mut coords = vec![0i64; d];
        Self::unpack_coords_into(key, level, &mut coords).then_some(CellId { level, coords })
    }

    /// [`Self::unpack`] into a caller-owned slice whose length is `d`:
    /// the snapshot writer unpacks keys straight into its coordinate
    /// column. Returns `false` (leaving `out` unspecified) for keys that
    /// are not valid packings.
    pub fn unpack_coords_into(key: u128, level: i32, out: &mut [i64]) -> bool {
        let width: u32 = if level >= 0 { (level + 2) as u32 } else { 1 };
        if !(-1..=62).contains(&level) || 6 + width as usize * out.len() > 128 {
            return false;
        }
        let mask = (1u128 << width) - 1;
        let mut k = key;
        for slot in out.iter_mut().rev() {
            *slot = (k & mask) as i64;
            k >>= width;
        }
        k == (level + 1) as u128 // embedded level must match
    }

    /// A 128-bit key: injective packing when it fits, otherwise a mixing
    /// hash (collisions ≈ 2⁻¹²⁸ per pair; see DESIGN.md §2.8).
    pub fn key128(&self) -> u128 {
        self.pack().unwrap_or_else(|| {
            let mut acc: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C834;
            let mut step = |v: u64| {
                let mut z = (acc as u64) ^ v;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                acc = (acc << 23) ^ (acc >> 105) ^ (z as u128) ^ ((z as u128) << 61);
            };
            step(self.level as u64);
            for &c in &self.coords {
                step(c as u64);
            }
            acc
        })
    }
}

/// A randomly shifted grid hierarchy over `[Δ]^d`.
#[derive(Clone, Debug)]
pub struct GridHierarchy {
    params: GridParams,
    /// The random shift `v ∈ [0, Δ)^d` (paper: i.i.d. uniform entries).
    shift: Vec<f64>,
}

impl GridHierarchy {
    /// Draws a fresh random shift from `rng` (entries i.i.d. uniform on
    /// `[0, Δ)`).
    pub fn new<R: Rng + ?Sized>(params: GridParams, rng: &mut R) -> Self {
        let shift = (0..params.d)
            .map(|_| rng.gen_range(0.0..params.delta as f64))
            .collect();
        Self { params, shift }
    }

    /// Builds a hierarchy with an explicit shift (tests, distributed
    /// machines that must agree on the coordinator's shift).
    pub fn with_shift(params: GridParams, shift: Vec<f64>) -> Self {
        assert_eq!(shift.len(), params.d);
        assert!(shift
            .iter()
            .all(|&s| (0.0..params.delta as f64).contains(&s)));
        Self { params, shift }
    }

    /// The zero-shift hierarchy (deterministic; degrades the guarantees in
    /// adversarial cases, useful for illustrative tests).
    pub fn unshifted(params: GridParams) -> Self {
        Self {
            params,
            shift: vec![0.0; params.d],
        }
    }

    /// The hierarchy's parameters.
    pub fn params(&self) -> GridParams {
        self.params
    }

    /// The shift vector `v`.
    pub fn shift(&self) -> &[f64] {
        &self.shift
    }

    /// `L = log₂ Δ`.
    pub fn l(&self) -> u32 {
        self.params.l
    }

    /// Side length `gᵢ` of level-`i` cells.
    pub fn side_len(&self, level: i32) -> f64 {
        self.params.side_len(level)
    }

    /// The cell `cᵢ(p) ∈ Gᵢ` containing `p`.
    pub fn cell_of(&self, p: &Point, level: i32) -> CellId {
        let mut coords = Vec::with_capacity(self.params.d);
        self.cell_coords_into(p, level, &mut coords);
        CellId { level, coords }
    }

    /// Allocation-free variant of [`Self::cell_of`]: writes the index
    /// vector into `out` (cleared first). Hot path of the streaming
    /// update loop.
    pub fn cell_coords_into(&self, p: &Point, level: i32, out: &mut Vec<i64>) {
        debug_assert_eq!(p.dim(), self.params.d, "dimension mismatch");
        debug_assert!(level >= -1 && level <= self.params.l as i32);
        let g = self.side_len(level);
        out.clear();
        for (j, &c) in p.coords().iter().enumerate() {
            // Cell index t with p ∈ [g·t − v, g·(t+1) − v).
            let t = ((c as f64 + self.shift[j]) / g).floor() as i64;
            out.push(t);
        }
    }

    /// Cells of `p` at every level `−1..=L`, root first.
    pub fn cells_of(&self, p: &Point) -> Vec<CellId> {
        (-1..=self.params.l as i32)
            .map(|i| self.cell_of(p, i))
            .collect()
    }

    /// Euclidean distance from a point to (the closure of) a cell: 0 when
    /// the point is inside, otherwise distance to the nearest face. Used
    /// by the center-cell analysis (Lemma 3.2) in tests & experiments.
    pub fn dist_point_cell(&self, p: &Point, cell: &CellId) -> f64 {
        let g = self.side_len(cell.level);
        let mut acc = 0.0;
        for (j, (&c, &t)) in p.coords().iter().zip(&cell.coords).enumerate() {
            let lo = g * t as f64 - self.shift[j];
            let hi = lo + g;
            let x = c as f64;
            let gap = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += gap * gap;
        }
        acc.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pt(cs: &[u32]) -> Point {
        Point::new(cs.to_vec())
    }

    #[test]
    fn side_lengths_halve_per_level() {
        let gp = GridParams::from_log_delta(4, 2); // Δ = 16
        assert_eq!(gp.side_len(-1), 32.0);
        assert_eq!(gp.side_len(0), 16.0);
        assert_eq!(gp.side_len(1), 8.0);
        assert_eq!(gp.side_len(4), 1.0);
    }

    #[test]
    fn root_cell_contains_whole_cube() {
        // Fact A.1: a single G₋₁ cell contains all of [Δ]^d.
        let gp = GridParams::from_log_delta(5, 3);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let grid = GridHierarchy::new(gp, &mut rng);
            let corner_lo = pt(&[1, 1, 1]);
            let corner_hi = pt(&[32, 32, 32]);
            assert_eq!(grid.cell_of(&corner_lo, -1), grid.cell_of(&corner_hi, -1));
        }
    }

    #[test]
    fn parent_matches_direct_computation() {
        let gp = GridParams::from_log_delta(6, 2);
        let mut rng = StdRng::seed_from_u64(42);
        let grid = GridHierarchy::new(gp, &mut rng);
        let mut prng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let p = pt(&[
                rand::Rng::gen_range(&mut prng, 1..=64u32),
                rand::Rng::gen_range(&mut prng, 1..=64u32),
            ]);
            for level in 0..=6i32 {
                let child = grid.cell_of(&p, level);
                let parent_direct = grid.cell_of(&p, level - 1);
                assert_eq!(child.parent(), parent_direct, "level {level} point {p:?}");
            }
        }
    }

    #[test]
    fn level_l_cells_hold_at_most_one_point() {
        let gp = GridParams::from_log_delta(3, 2); // Δ = 8 → 64 points
        let mut rng = StdRng::seed_from_u64(3);
        let grid = GridHierarchy::new(gp, &mut rng);
        let mut seen = std::collections::HashSet::new();
        for a in 1..=8u32 {
            for b in 1..=8u32 {
                let cell = grid.cell_of(&pt(&[a, b]), 3);
                assert!(seen.insert(cell), "two points share a G_L cell");
            }
        }
    }

    #[test]
    fn pack_roundtrip_unique() {
        let gp = GridParams::from_log_delta(5, 2);
        let mut rng = StdRng::seed_from_u64(11);
        let grid = GridHierarchy::new(gp, &mut rng);
        let mut keys = std::collections::HashMap::new();
        for a in 1..=32u32 {
            for b in 1..=32u32 {
                for level in -1..=5i32 {
                    let cell = grid.cell_of(&pt(&[a, b]), level);
                    let key = cell.pack().expect("fits in 128 bits");
                    if let Some(prev) = keys.insert(key, cell.clone()) {
                        assert_eq!(prev, cell, "pack collision between distinct cells");
                    }
                }
            }
        }
    }

    #[test]
    fn dist_point_cell_zero_inside() {
        let gp = GridParams::from_log_delta(4, 2);
        let grid = GridHierarchy::unshifted(gp);
        let p = pt(&[3, 3]);
        let cell = grid.cell_of(&p, 2); // side 4 cell [0,4)×[0,4)
        assert_eq!(grid.dist_point_cell(&p, &cell), 0.0);
        let far = pt(&[9, 3]);
        // far is 5 to the right of the cell's high x-face at 4.
        assert!((grid.dist_point_cell(&far, &cell) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cells_of_returns_all_levels() {
        let gp = GridParams::from_log_delta(4, 1);
        let grid = GridHierarchy::unshifted(gp);
        let cells = grid.cells_of(&pt(&[5]));
        assert_eq!(cells.len(), 6); // levels −1..=4
        assert_eq!(cells[0].level, -1);
        assert_eq!(cells[5].level, 4);
    }
}
