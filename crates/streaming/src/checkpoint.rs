//! Versioned, self-describing checkpoints of the streaming builder.
//!
//! A [`Snapshot`] captures *everything* that determines the rest of a
//! run: the coreset and stream parameters, the grid shift, the three
//! hash-polynomial coefficient families, the net point count, the
//! builder's RNG state, every `Storing` instance's cells and counters,
//! and (when the `obs` feature is on) the metrics registry. Restoring a
//! snapshot in a fresh process and continuing the stream is
//! **bit-identical** to the uninterrupted run — property-tested in
//! `tests/checkpoint_determinism.rs`, including runs with injected
//! mid-stream store deaths and the sharded parallel path.
//!
//! The byte format reuses the little-endian [`crate::codec`] and adds an
//! 8-byte magic plus a `u32` version so stale files fail loudly instead
//! of decoding garbage. Collections are canonically ordered (sorted by
//! packed key at snapshot time), so encode → decode → encode is the
//! identity on bytes.
//!
//! In memory a store's cells are flat columns
//! ([`crate::storing::CellColumns`]); on the wire they are the v3
//! per-cell records, written from and read into the columns directly.
//! The store decoder rejects shapes the columns cannot hold, and
//! [`crate::storing::Storing::load_snapshot`] rejects cells and points
//! that contradict the rebuilt ladder, both as
//! [`CheckpointError::Malformed`].
//!
//! The exact and arena store backends checkpoint; a ladder with
//! sketch-backed stores yields [`CheckpointError::UnsupportedBackend`].

use sbc_core::{ConstantsProfile, CoresetParams};
use sbc_geometry::GridParams;
use sbc_obs::fault::{FaultPlan, StoreFaultKind};
use sbc_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::codec::{Decode, Encode};
use crate::coreset_stream::StreamParams;
use crate::storing::{CellColumns, StoreDeath, StoringSnapshot};

/// File magic: identifies a byte buffer as an sbc checkpoint.
pub const MAGIC: [u8; 8] = *b"SBCCKPT\0";

/// Current checkpoint format version. Version 2 added [`Snapshot::ops_seen`]
/// so a restored run's trace stitches onto the pre-cut one at the right
/// stream-op index. Version 3 added [`Snapshot::merge_depth`] and
/// `StreamParams::shards`, so a merge-tree node can checkpoint/restore
/// mid-fold with its ε-budget accounting intact.
pub const VERSION: u32 = 3;

/// Why a checkpoint could not be taken, serialized, or restored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// A store uses the sketch backend, whose probed bucket rows have no
    /// canonical serialization. Configure exact stores to checkpoint.
    UnsupportedBackend,
    /// The buffer does not start with the checkpoint magic.
    BadMagic,
    /// The buffer's format version is not [`VERSION`].
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The body failed to decode (truncation, bad tags, or a shape that
    /// contradicts the embedded parameters).
    Malformed,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::UnsupportedBackend => {
                write!(f, "sketch-backed stores cannot be checkpointed")
            }
            CheckpointError::BadMagic => write!(f, "not an sbc checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "checkpoint version {found} unsupported (expected {VERSION})"
                )
            }
            CheckpointError::Malformed => write!(f, "malformed checkpoint body"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One `o`-instance's store states: roles h, h′ and ĥ in ladder order.
/// Realized rates and acceptance thresholds are *not* stored — they are
/// pure functions of the parameters and are rebuilt on restore.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceCheckpoint {
    /// Role h, levels `−1..=L−1`.
    pub h: Vec<StoringSnapshot>,
    /// Role h′, levels `0..=L`.
    pub hp: Vec<StoringSnapshot>,
    /// Role ĥ, levels `0..=L` (`None` where `Tᵢ(o) ≤ 1`).
    pub hhat: Vec<Option<StoringSnapshot>>,
}

/// A complete, restartable image of a [`crate::StreamCoresetBuilder`].
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Coreset construction parameters.
    pub params: CoresetParams,
    /// Streaming knobs (including the fault-injection plan, so a
    /// restored run keeps the same failure schedule).
    pub sparams: StreamParams,
    /// The grid hierarchy's random shift vector.
    pub shift: Vec<f64>,
    /// Role-h hash coefficients, one polynomial per level.
    pub h_coeffs: Vec<Vec<u64>>,
    /// Role-h′ hash coefficients.
    pub hp_coeffs: Vec<Vec<u64>>,
    /// Role-ĥ hash coefficients.
    pub hhat_coeffs: Vec<Vec<u64>>,
    /// Net number of live points (`#inserts − #deletes`).
    pub net_count: i64,
    /// Total stream operations absorbed (inserts + deletes, gross).
    /// Restores the trace recorder's causal op index so the post-restore
    /// timeline continues where the pre-cut one stopped.
    pub ops_seen: u64,
    /// Merge-tree height of the builder (`0` = leaf, never merged) —
    /// preserved so a restored node keeps charging the per-level
    /// ε-budget schedule from where it stopped.
    pub merge_depth: u32,
    /// The builder's xoshiro256++ state (drives end-of-stream assembly).
    pub rng_state: [u64; 4],
    /// Per-`o`-instance store states, ascending `o`.
    pub instances: Vec<InstanceCheckpoint>,
    /// Metrics registry at checkpoint time, merged back on restore so
    /// counters survive the restart. Empty unless recording was enabled
    /// when the checkpoint was cut: the registry is process-global, so
    /// an unguarded capture would leak the host's unrelated lazy
    /// registrations into the byte stream and break checkpoint
    /// canonicality across hosts and feature states.
    pub metrics: MetricsSnapshot,
}

impl Snapshot {
    /// Serializes the snapshot with its magic/version header.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Checkpoint);
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        VERSION.encode(&mut buf);
        self.encode(&mut buf);
        buf
    }

    /// Parses a snapshot, checking magic and version and requiring every
    /// byte be consumed.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, CheckpointError> {
        if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let _mem = sbc_obs::alloc::scope(sbc_obs::alloc::Component::Checkpoint);
        let mut cursor = MAGIC.len();
        let version = u32::decode(buf, &mut cursor).ok_or(CheckpointError::Malformed)?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let snap = Snapshot::decode(buf, &mut cursor).ok_or(CheckpointError::Malformed)?;
        (cursor == buf.len())
            .then_some(snap)
            .ok_or(CheckpointError::Malformed)
    }
}

// ---------------------------------------------------------------------
// Codec impls. `Encode`/`Decode` are local traits, so implementing them
// for foreign parameter types is orphan-rule-safe.
// ---------------------------------------------------------------------

impl Encode for GridParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.delta.encode(buf);
        self.l.encode(buf);
        self.d.encode(buf);
    }
}
impl Decode for GridParams {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let delta = u64::decode(buf, cursor)?;
        let l = u32::decode(buf, cursor)?;
        let d = usize::decode(buf, cursor)?;
        (delta.is_power_of_two() && delta == 1u64 << l && l <= 40 && d >= 1).then_some(GridParams {
            delta,
            l,
            d,
        })
    }
}

impl Encode for ConstantsProfile {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ConstantsProfile::PaperFaithful => 0u8.encode(buf),
            ConstantsProfile::Practical {
                samples_per_part,
                gamma,
                lambda,
                max_heavy_factor,
                max_level_mass_factor,
                select_heavy_factor,
            } => {
                1u8.encode(buf);
                samples_per_part.encode(buf);
                gamma.encode(buf);
                lambda.encode(buf);
                max_heavy_factor.encode(buf);
                max_level_mass_factor.encode(buf);
                select_heavy_factor.encode(buf);
            }
        }
    }
}
impl Decode for ConstantsProfile {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(ConstantsProfile::PaperFaithful),
            1 => Some(ConstantsProfile::Practical {
                samples_per_part: f64::decode(buf, cursor)?,
                gamma: f64::decode(buf, cursor)?,
                lambda: usize::decode(buf, cursor)?,
                max_heavy_factor: f64::decode(buf, cursor)?,
                max_level_mass_factor: f64::decode(buf, cursor)?,
                select_heavy_factor: f64::decode(buf, cursor)?,
            }),
            _ => None,
        }
    }
}

impl Encode for CoresetParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.k.encode(buf);
        self.r.encode(buf);
        self.eps.encode(buf);
        self.eta.encode(buf);
        self.grid.encode(buf);
        self.profile.encode(buf);
    }
}
impl Decode for CoresetParams {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(CoresetParams {
            k: usize::decode(buf, cursor)?,
            r: f64::decode(buf, cursor)?,
            eps: f64::decode(buf, cursor)?,
            eta: f64::decode(buf, cursor)?,
            grid: GridParams::decode(buf, cursor)?,
            profile: ConstantsProfile::decode(buf, cursor)?,
        })
    }
}

impl Encode for StoreFaultKind {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreFaultKind::RunawayKill => 0u8.encode(buf),
            StoreFaultKind::SketchOverflow => 1u8.encode(buf),
        }
    }
}
impl Decode for StoreFaultKind {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(StoreFaultKind::RunawayKill),
            1 => Some(StoreFaultKind::SketchOverflow),
            _ => None,
        }
    }
}

impl Encode for FaultPlan {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.seed.encode(buf);
        self.store_kill_at.encode(buf);
        self.store_kill_permille.encode(buf);
        self.store_fault_kind.encode(buf);
        self.drop_every.encode(buf);
        self.dup_every.encode(buf);
        self.max_retries.encode(buf);
    }
}
impl Decode for FaultPlan {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(FaultPlan {
            seed: u64::decode(buf, cursor)?,
            store_kill_at: Option::decode(buf, cursor)?,
            store_kill_permille: u16::decode(buf, cursor)?,
            store_fault_kind: StoreFaultKind::decode(buf, cursor)?,
            drop_every: Option::decode(buf, cursor)?,
            dup_every: Option::decode(buf, cursor)?,
            max_retries: u32::decode(buf, cursor)?,
        })
    }
}

impl Encode for StreamParams {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.est_rate.encode(buf);
        self.alpha_factor.encode(buf);
        self.rows.encode(buf);
        self.cap_cells.encode(buf);
        self.o_ladder_max.encode(buf);
        self.parallel.encode(buf);
        self.threads.encode(buf);
        self.shards.encode(buf);
        self.faults.encode(buf);
    }
}
impl Decode for StreamParams {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(StreamParams {
            // Not serialized: the kernel is an execution strategy, not
            // logical state (both kernels resume a snapshot to
            // bit-identical outputs), so a restored builder re-derives
            // it from the restoring host's environment.
            kernel: crate::coreset_stream::Kernel::env_default(),
            est_rate: f64::decode(buf, cursor)?,
            alpha_factor: f64::decode(buf, cursor)?,
            rows: usize::decode(buf, cursor)?,
            cap_cells: usize::decode(buf, cursor)?,
            o_ladder_max: Option::decode(buf, cursor)?,
            parallel: bool::decode(buf, cursor)?,
            threads: usize::decode(buf, cursor)?,
            shards: usize::decode(buf, cursor)?,
            faults: FaultPlan::decode(buf, cursor)?,
        })
    }
}

impl Encode for StoreDeath {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            StoreDeath::RunawayKill => 0u8.encode(buf),
            StoreDeath::SketchOverflow => 1u8.encode(buf),
        }
    }
}
impl Decode for StoreDeath {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        match u8::decode(buf, cursor)? {
            0 => Some(StoreDeath::RunawayKill),
            1 => Some(StoreDeath::SketchOverflow),
            _ => None,
        }
    }
}

// A store's cells go on the wire exactly as the v3 per-cell records
// (level, coordinate vector, count, dirty flag, then a vector of
// `(point coordinate vector, multiplicity)` pairs), written from and
// read into the flat columns directly: no per-cell or per-point heap
// objects in between.

/// The next `n` bytes of `buf`, advancing `cursor`.
fn take<'a>(buf: &'a [u8], cursor: &mut usize, n: usize) -> Option<&'a [u8]> {
    let bytes = buf.get(*cursor..cursor.checked_add(n)?)?;
    *cursor += n;
    Some(bytes)
}

/// Bytes one cell record takes besides its points.
fn cell_record_bytes(dim: usize) -> usize {
    4 + 8 + 8 * dim + 8 + 1 + 8
}

/// Bytes one point record takes.
fn point_record_bytes(dim: usize) -> usize {
    8 + 4 * dim + 8
}

impl Encode for StoringSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.updates.encode(buf);
        self.death.encode(buf);
        self.injected.encode(buf);
        self.peak_cells.encode(buf);
        let cols = &self.cells;
        let dim = cols.dim();
        buf.reserve(
            8 + cols.len() * cell_record_bytes(dim) + cols.num_points() * point_record_bytes(dim),
        );
        cols.len().encode(buf);
        for cell in cols.iter() {
            cell.level.encode(buf);
            cell.coords.encode(buf);
            cell.count.encode(buf);
            cell.dirty.encode(buf);
            cell.points().len().encode(buf);
            for (coords, mult) in cell.points() {
                coords.encode(buf);
                mult.encode(buf);
            }
        }
    }
}
impl Decode for StoringSnapshot {
    /// Rejects, besides truncation and bad tags, any shape the columns
    /// cannot hold: a zero-dimension cell or point, cells or points of
    /// differing dimension, and zero point coordinates. Lengths are
    /// checked against the remaining bytes before anything is reserved.
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let updates = u64::decode(buf, cursor)?;
        let death = Option::decode(buf, cursor)?;
        let injected = bool::decode(buf, cursor)?;
        let peak_cells = u64::decode(buf, cursor)?;
        let remaining = |cursor: usize| buf.len().saturating_sub(cursor);
        let len = usize::decode(buf, cursor)?;
        let mut cols = CellColumns::default();
        let mut dim = 0usize;
        for i in 0..len {
            let level = i32::decode(buf, cursor)?;
            let cell_dim = usize::decode(buf, cursor)?;
            if i == 0 {
                // The first record fixes the width; every record is at
                // least one cell record of that width (12 bytes of
                // this one are read already).
                if cell_dim == 0 || cell_dim > remaining(*cursor) / 8 {
                    return None;
                }
                if len.checked_mul(cell_record_bytes(cell_dim))? > remaining(*cursor) + 12 {
                    return None;
                }
                dim = cell_dim;
                cols = CellColumns::with_capacity(len, 0, dim);
            } else if cell_dim != dim {
                return None;
            }
            let raw = take(buf, cursor, 8 * dim)?;
            let count = i64::decode(buf, cursor)?;
            let dirty = bool::decode(buf, cursor)?;
            let slot = cols.push_cell_with(level, count, dirty, dim);
            for (c, b) in slot.iter_mut().zip(raw.chunks_exact(8)) {
                *c = i64::from_le_bytes(b.try_into().ok()?);
            }
            let points = usize::decode(buf, cursor)?;
            if points > remaining(*cursor) / point_record_bytes(dim) {
                return None;
            }
            cols.reserve_points(points);
            for _ in 0..points {
                if usize::decode(buf, cursor)? != dim {
                    return None;
                }
                let raw = take(buf, cursor, 4 * dim)?;
                let mult = i64::decode(buf, cursor)?;
                let slot = cols.push_point_with(mult, dim);
                for (c, b) in slot.iter_mut().zip(raw.chunks_exact(4)) {
                    *c = u32::from_le_bytes(b.try_into().ok()?);
                    if *c == 0 {
                        return None;
                    }
                }
            }
        }
        Some(StoringSnapshot {
            updates,
            death,
            injected,
            peak_cells,
            cells: cols,
        })
    }
}

impl Encode for InstanceCheckpoint {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.h.encode(buf);
        self.hp.encode(buf);
        self.hhat.encode(buf);
    }
}
impl Decode for InstanceCheckpoint {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(InstanceCheckpoint {
            h: Vec::decode(buf, cursor)?,
            hp: Vec::decode(buf, cursor)?,
            hhat: Vec::decode(buf, cursor)?,
        })
    }
}

impl Encode for HistogramSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.count.encode(buf);
        self.sum.encode(buf);
        self.buckets.encode(buf);
    }
}
impl Decode for HistogramSnapshot {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(HistogramSnapshot {
            count: u64::decode(buf, cursor)?,
            sum: u64::decode(buf, cursor)?,
            buckets: Vec::decode(buf, cursor)?,
        })
    }
}

impl Encode for MetricsSnapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.feature_enabled.encode(buf);
        self.counters.encode(buf);
        self.histograms.encode(buf);
    }
}
impl Decode for MetricsSnapshot {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        Some(MetricsSnapshot {
            feature_enabled: bool::decode(buf, cursor)?,
            counters: Vec::decode(buf, cursor)?,
            histograms: Vec::decode(buf, cursor)?,
        })
    }
}

impl Encode for Snapshot {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.params.encode(buf);
        self.sparams.encode(buf);
        self.shift.encode(buf);
        self.h_coeffs.encode(buf);
        self.hp_coeffs.encode(buf);
        self.hhat_coeffs.encode(buf);
        self.net_count.encode(buf);
        self.ops_seen.encode(buf);
        self.merge_depth.encode(buf);
        self.rng_state.encode(buf);
        self.instances.encode(buf);
        self.metrics.encode(buf);
    }
}
impl Decode for Snapshot {
    fn decode(buf: &[u8], cursor: &mut usize) -> Option<Self> {
        let snap = Snapshot {
            params: CoresetParams::decode(buf, cursor)?,
            sparams: StreamParams::decode(buf, cursor)?,
            shift: Vec::decode(buf, cursor)?,
            h_coeffs: Vec::decode(buf, cursor)?,
            hp_coeffs: Vec::decode(buf, cursor)?,
            hhat_coeffs: Vec::decode(buf, cursor)?,
            net_count: i64::decode(buf, cursor)?,
            ops_seen: u64::decode(buf, cursor)?,
            merge_depth: u32::decode(buf, cursor)?,
            rng_state: <[u64; 4]>::decode(buf, cursor)?,
            instances: Vec::decode(buf, cursor)?,
            metrics: MetricsSnapshot::decode(buf, cursor)?,
        };
        // Shape checks that don't need the rebuilt ladder: the shift must
        // match the grid's dimension and lie in [0, Δ).
        let gp = snap.params.grid;
        (snap.shift.len() == gp.d
            && snap
                .shift
                .iter()
                .all(|&s| (0.0..gp.delta as f64).contains(&s)))
        .then_some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::to_bytes;

    #[test]
    fn params_roundtrip() {
        let gp = GridParams::from_log_delta(6, 2);
        let params = CoresetParams::builder(3, gp).build().unwrap();
        let bytes = to_bytes(&params);
        let mut cursor = 0;
        let back = CoresetParams::decode(&bytes, &mut cursor).expect("decodes");
        assert_eq!(cursor, bytes.len());
        assert_eq!(back, params);
    }

    #[test]
    fn stream_params_roundtrip_with_faults() {
        let sp = StreamParams {
            faults: FaultPlan::parse("chaos@42").unwrap(),
            o_ladder_max: Some(1e9),
            parallel: true,
            threads: 3,
            ..StreamParams::default()
        };
        let bytes = to_bytes(&sp);
        let mut cursor = 0;
        let back = StreamParams::decode(&bytes, &mut cursor).expect("decodes");
        assert_eq!(cursor, bytes.len());
        assert_eq!(back.faults, sp.faults);
        assert_eq!(back.o_ladder_max, sp.o_ladder_max);
        assert!(back.parallel);
    }

    #[test]
    fn header_is_checked() {
        assert_eq!(
            Snapshot::from_bytes(b"junk"),
            Err(CheckpointError::BadMagic)
        );
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        99u32.encode(&mut buf);
        assert_eq!(
            Snapshot::from_bytes(&buf),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        );
        let mut buf2 = Vec::new();
        buf2.extend_from_slice(&MAGIC);
        VERSION.encode(&mut buf2);
        assert_eq!(Snapshot::from_bytes(&buf2), Err(CheckpointError::Malformed));
    }

    /// One cell record: level, index vector, point records.
    type RawCell = (i32, Vec<i64>, Vec<(Vec<u32>, i64)>);

    /// The v3 bytes of one live store holding `cells`, written record
    /// by record with the generic codec (not through the columns).
    fn raw_store(cells: &[RawCell]) -> Vec<u8> {
        let mut buf = Vec::new();
        7u64.encode(&mut buf); // updates
        None::<StoreDeath>.encode(&mut buf);
        false.encode(&mut buf); // injected
        (cells.len() as u64).encode(&mut buf); // peak cells
        cells.len().encode(&mut buf);
        for (level, coords, points) in cells {
            level.encode(&mut buf);
            coords.encode(&mut buf);
            points.iter().map(|p| p.1).sum::<i64>().encode(&mut buf);
            false.encode(&mut buf); // dirty
            points.encode(&mut buf);
        }
        buf
    }

    fn decode_store(bytes: &[u8]) -> Option<StoringSnapshot> {
        crate::codec::from_bytes(bytes)
    }

    /// A checkpoint of a small d = 2 builder (Δ = 64).
    fn sample_snapshot() -> Snapshot {
        use rand::SeedableRng;
        let gp = GridParams::from_log_delta(6, 2);
        let params = CoresetParams::builder(2, gp).build().unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut b = crate::StreamCoresetBuilder::new(params, StreamParams::default(), &mut rng);
        b.insert_batch(&sbc_geometry::dataset::gaussian_mixture(
            gp, 300, 2, 0.05, 5,
        ));
        b.checkpoint().expect("checkpoints")
    }

    /// `snap`'s bytes with the first store (instance 0, role h, level −1)
    /// replaced by `raw`.
    fn with_raw_store(snap: &Snapshot, raw: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        VERSION.encode(&mut buf);
        snap.params.encode(&mut buf);
        snap.sparams.encode(&mut buf);
        snap.shift.encode(&mut buf);
        snap.h_coeffs.encode(&mut buf);
        snap.hp_coeffs.encode(&mut buf);
        snap.hhat_coeffs.encode(&mut buf);
        snap.net_count.encode(&mut buf);
        snap.ops_seen.encode(&mut buf);
        snap.merge_depth.encode(&mut buf);
        snap.rng_state.encode(&mut buf);
        snap.instances.len().encode(&mut buf);
        let first = &snap.instances[0];
        first.h.len().encode(&mut buf);
        buf.extend_from_slice(raw);
        for st in &first.h[1..] {
            st.encode(&mut buf);
        }
        first.hp.encode(&mut buf);
        first.hhat.encode(&mut buf);
        for inst in &snap.instances[1..] {
            inst.encode(&mut buf);
        }
        snap.metrics.encode(&mut buf);
        buf
    }

    /// Decodes and restores `bytes`, folding both failure points into one.
    fn restore_bytes(bytes: &[u8]) -> Result<(), CheckpointError> {
        let snap = Snapshot::from_bytes(bytes)?;
        crate::StreamCoresetBuilder::restore(&snap).map(|_| ())
    }

    #[test]
    fn columns_decode_the_record_bytes() {
        let cells: Vec<RawCell> = vec![
            (3, vec![1, 2], vec![(vec![9, 17], 1), (vec![10, 17], 2)]),
            (3, vec![4, 0], vec![]),
            (3, vec![5, 7], vec![(vec![40, 60], 3)]),
        ];
        let bytes = raw_store(&cells);
        let snap = decode_store(&bytes).expect("decodes");
        assert_eq!(crate::codec::to_bytes(&snap), bytes, "same bytes back");
        assert_eq!((snap.cells.len(), snap.cells.dim()), (3, 2));
        assert_eq!(snap.cells.num_points(), 3);
        for (got, want) in snap.cells.iter().zip(&cells) {
            assert_eq!((got.level, got.coords), (want.0, &want.1[..]));
            let points: Vec<(Vec<u32>, i64)> = got.points().map(|(c, m)| (c.to_vec(), m)).collect();
            assert_eq!(points, want.2);
        }
    }

    #[test]
    fn empty_store_round_trips_structurally() {
        // An empty store has column width 0 however wide its grid is,
        // so the decoded snapshot equals the encoded one.
        let empty = StoringSnapshot::default();
        let back = decode_store(&crate::codec::to_bytes(&empty)).expect("decodes");
        assert_eq!(back, empty);
        assert_eq!(back.cells.dim(), 0);
    }

    #[test]
    fn hostile_store_shapes_are_rejected() {
        let hostile: [(&str, Vec<RawCell>); 5] = [
            (
                "point wider than its cell",
                vec![(3, vec![1, 2], vec![(vec![9, 17, 3], 1)])],
            ),
            (
                "point narrower than its cell",
                vec![(3, vec![1, 2], vec![(vec![9], 1)])],
            ),
            (
                "zero-dimension point",
                vec![(3, vec![1, 2], vec![(vec![], 1)])],
            ),
            ("zero-dimension cell", vec![(3, vec![], vec![])]),
            (
                "cells of different widths",
                vec![(3, vec![1, 2], vec![]), (3, vec![1, 2, 3], vec![])],
            ),
        ];
        let snap = sample_snapshot();
        for (what, cells) in &hostile {
            let raw = raw_store(cells);
            assert_eq!(decode_store(&raw), None, "{what}");
            assert_eq!(
                Snapshot::from_bytes(&with_raw_store(&snap, &raw)),
                Err(CheckpointError::Malformed),
                "{what}"
            );
        }
        let zero = raw_store(&[(3, vec![1, 2], vec![(vec![0, 17], 1)])]);
        assert_eq!(decode_store(&zero), None, "zero point coordinate");
    }

    #[test]
    fn hostile_lengths_fail_without_allocating() {
        // Absurd cell and point counts are refused against the bytes
        // left before anything is reserved (an allocation that size
        // would abort the process).
        let mut cells = raw_store(&[]);
        let at = cells.len() - 8;
        cells[at..].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert_eq!(decode_store(&cells), None);
        let mut points = raw_store(&[(3, vec![1, 2], vec![])]);
        let at = points.len() - 8;
        points[at..].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert_eq!(decode_store(&points), None);
        let mut dim = raw_store(&[(3, vec![1, 2], vec![])]);
        let at = 8 + 1 + 1 + 8 + 8 + 4;
        dim[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert_eq!(decode_store(&dim), None);
        // Many cells of a wide first record: each count alone fits the
        // buffer, their product (the coordinate column) does not.
        let wide: Vec<RawCell> = (0..40).map(|_| (3, vec![1], vec![])).collect();
        let mut wide = raw_store(&wide);
        let at = 8 + 1 + 1 + 8 + 8 + 4;
        wide[at..at + 8].copy_from_slice(&100u64.to_le_bytes());
        assert_eq!(decode_store(&wide), None);
    }

    #[test]
    fn stores_contradicting_the_ladder_are_malformed() {
        let snap = sample_snapshot();
        // The splice itself is faithful.
        let own = crate::codec::to_bytes(&snap.instances[0].h[0]);
        assert_eq!(with_raw_store(&snap, &own), snap.to_bytes());
        assert_eq!(restore_bytes(&snap.to_bytes()), Ok(()));
        // The first store summarizes level −1: one bit per index.
        let hostile: [(&str, Vec<RawCell>); 7] = [
            ("cell of another level", vec![(3, vec![1, 1], vec![])]),
            ("index that does not pack", vec![(-1, vec![5, 0], vec![])]),
            ("negative index", vec![(-1, vec![-1, 0], vec![])]),
            (
                "point outside the cube",
                vec![(-1, vec![0, 0], vec![(vec![65, 1], 1)])],
            ),
            (
                "duplicate cell",
                vec![(-1, vec![0, 0], vec![]), (-1, vec![0, 0], vec![])],
            ),
            (
                "cells out of key order",
                vec![(-1, vec![0, 1], vec![]), (-1, vec![0, 0], vec![])],
            ),
            (
                "duplicate point",
                vec![(-1, vec![0, 0], vec![(vec![3, 4], 1), (vec![3, 4], 1)])],
            ),
        ];
        for (what, cells) in &hostile {
            let bytes = with_raw_store(&snap, &raw_store(cells));
            assert!(Snapshot::from_bytes(&bytes).is_ok(), "{what}: decodes");
            assert_eq!(
                restore_bytes(&bytes),
                Err(CheckpointError::Malformed),
                "{what}"
            );
        }
        // A cell of the wrong width decodes but contradicts the grid.
        let wide = with_raw_store(&snap, &raw_store(&[(-1, vec![0, 0, 0], vec![])]));
        assert_eq!(restore_bytes(&wide), Err(CheckpointError::Malformed));
    }

    #[test]
    fn grid_params_decode_validates() {
        // delta must equal 2^l.
        let mut buf = Vec::new();
        3u64.encode(&mut buf); // not a power of two
        2u32.encode(&mut buf);
        2usize.encode(&mut buf);
        let mut cursor = 0;
        assert!(GridParams::decode(&buf, &mut cursor).is_none());
    }
}
