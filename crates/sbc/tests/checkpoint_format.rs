//! Pins the v3 checkpoint byte format.
//!
//! Each case builds a fixed-seed builder, cuts a checkpoint and hashes
//! `Snapshot::to_bytes()` with 64-bit FNV-1a. The expected fingerprints
//! were captured before the store snapshot became columnar; any change
//! to how stores, cells or points are laid out on the wire shows up
//! here as a mismatch. A deliberate format change must bump
//! `checkpoint::VERSION` and re-pin these values.
//!
//! The metrics section is cleared before hashing: it is empty unless
//! recording is on, and these fingerprints must hold in both obs feature
//! states.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::ShardedIngest;
use sbc_core::CoresetParams;
use sbc_geometry::dataset::{gaussian_mixture, two_phase_dynamic};
use sbc_geometry::GridParams;
use sbc_obs::fault::FaultPlan;
use sbc_obs::MetricsSnapshot;
use sbc_streaming::checkpoint::VERSION;
use sbc_streaming::model::{interleaved_stream, StreamOp};
use sbc_streaming::{Snapshot, StreamCoresetBuilder, StreamParams};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint and length of a snapshot's bytes, with the metrics
/// section cleared. Also checks the bytes decode back to themselves.
fn fingerprint(mut snap: Snapshot) -> (u64, usize) {
    snap.metrics = MetricsSnapshot::default();
    let bytes = snap.to_bytes();
    let back = Snapshot::from_bytes(&bytes).expect("decodes");
    assert_eq!(back.to_bytes(), bytes, "encode → decode → encode");
    (fnv1a(&bytes), bytes.len())
}

fn builder(params: CoresetParams, sparams: StreamParams, seed: u64) -> StreamCoresetBuilder {
    let mut rng = StdRng::seed_from_u64(seed);
    StreamCoresetBuilder::new(params, sparams, &mut rng)
}

/// Inserts then deletes every third point, so stores hold churned cells.
fn churn(n: usize, gp: GridParams, seed: u64) -> Vec<StreamOp> {
    let pts = gaussian_mixture(gp, n, 3, 0.05, seed);
    let mut ops: Vec<StreamOp> = pts.iter().cloned().map(StreamOp::Insert).collect();
    ops.extend(pts.iter().step_by(3).cloned().map(StreamOp::Delete));
    ops
}

#[test]
fn version_is_three() {
    assert_eq!(VERSION, 3);
}

#[test]
fn arena_d2_bytes_are_pinned() {
    let gp = GridParams::from_log_delta(6, 2);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let mut b = builder(params, StreamParams::default(), 41);
    b.process_all(&churn(600, gp, 41));
    assert_eq!(
        fingerprint(b.checkpoint().unwrap()),
        (1_603_782_390_707_482_856, 1_457_938),
        "d = 2 arena checkpoint bytes changed"
    );
}

#[test]
fn exact_d8_bytes_are_pinned() {
    let gp = GridParams::from_log_delta(6, 8);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let mut b = builder(params, StreamParams::default(), 43);
    b.process_all(&churn(300, gp, 43));
    assert_eq!(
        fingerprint(b.checkpoint().unwrap()),
        (17_183_391_630_795_954_516, 7_355_870),
        "d = 8 exact checkpoint bytes changed"
    );
}

#[test]
fn fault_killed_store_bytes_are_pinned() {
    let gp = GridParams::from_log_delta(7, 2);
    let params = CoresetParams::builder(3, gp).build().unwrap();
    let sp = StreamParams {
        faults: FaultPlan::parse("kill-early@3").unwrap(),
        ..StreamParams::default()
    };
    let ds = two_phase_dynamic(gp, 500, 300, 3, 9);
    let mut rng = StdRng::seed_from_u64(9);
    let ops = interleaved_stream(&ds.kept, &ds.churn, &mut rng);
    let mut b = builder(params, sp, 9);
    b.process_all(&ops[..ops.len() / 2]);
    assert!(
        b.space_report().dead_stores > 0,
        "the plan must kill stores"
    );
    assert_eq!(
        fingerprint(b.checkpoint().unwrap()),
        (14_032_021_212_054_607_925, 1_313_217),
        "checkpoint bytes with killed stores changed"
    );
}

#[test]
fn sharded_tenant_bytes_are_pinned() {
    let gp = GridParams::from_log_delta(6, 2);
    let params = CoresetParams::builder(2, gp).build().unwrap();
    let sp = StreamParams {
        shards: 3,
        ..StreamParams::default()
    };
    let mut s = ShardedIngest::new(params, sp, 47).unwrap();
    s.process_all(&churn(900, gp, 47));
    let got: Vec<(u64, usize)> = (0..s.shards())
        .map(|i| fingerprint(s.checkpoint_shard(i).unwrap()))
        .collect();
    let want = vec![
        (4_099_534_527_767_724_211, 971_737),
        (495_152_708_823_116_483, 772_150),
        (14_511_603_760_299_070_628, 849_061),
    ];
    assert_eq!(got, want, "sharded checkpoint bytes changed");
}
