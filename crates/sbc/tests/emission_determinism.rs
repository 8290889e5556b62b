//! Emission is a pure function of builder state: two `finish_ref` calls
//! on one builder, and on its checkpoint → bytes → restore twin, return
//! bit-identical coresets — weights included, to the last bit.
//!
//! Local emission decodes guesses lazily and stops at the accepted one;
//! it must return exactly what the eager coordinator path
//! (`finish_from_summaries(&export_summaries())`) returns, failures
//! included.
//!
//! Part and level masses are float sums over cells; summed in hash-map
//! order they differed between calls in the low bits, which reached
//! the per-part sampling rates and so the weights.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::api::{tenant_pipeline, TenantSpec};
use sbc::{
    Coreset, FailReason, FaultPlan, Kernel, ShardedIngest, Snapshot, StreamCoresetBuilder,
    StreamOp, StreamParams,
};
use sbc_geometry::dataset::gaussian_mixture;

/// One coreset entry: point coordinates, weight bits, level, part.
type EntryBits = (Vec<u32>, u64, i32, usize);

/// Everything an emission reports, with floats as bit patterns.
fn bits(c: &Coreset) -> (u64, Vec<EntryBits>) {
    let entries = c
        .entries()
        .iter()
        .map(|e| {
            (
                e.point.coords().to_vec(),
                e.weight.to_bits(),
                e.level,
                e.part,
            )
        })
        .collect();
    (c.o.to_bits(), entries)
}

#[test]
fn finish_ref_is_bit_identical_across_calls_and_restore() {
    for (dims, n) in [(2u32, 40_960usize), (3, 8_192)] {
        let spec = TenantSpec {
            dims,
            ..TenantSpec::default()
        };
        let (params, sparams) = tenant_pipeline(&spec).expect("serving profile");
        let pts = gaussian_mixture(params.grid, n, 4, 0.05, 71 + dims as u64);
        let mut b = StreamCoresetBuilder::new(params, sparams, &mut StdRng::seed_from_u64(7));
        for chunk in pts.chunks(4096) {
            b.insert_batch(chunk);
        }
        let deletes: Vec<StreamOp> = pts[..n * 3 / 10]
            .iter()
            .cloned()
            .map(StreamOp::Delete)
            .collect();
        b.process_all(&deletes);

        let first = bits(&b.finish_ref().expect("emits"));
        for _ in 0..3 {
            assert_eq!(bits(&b.finish_ref().expect("emits")), first, "d = {dims}");
        }
        let bytes = b.checkpoint().expect("checkpoints").to_bytes();
        let twin = StreamCoresetBuilder::restore(&Snapshot::from_bytes(&bytes).expect("decodes"))
            .expect("restores");
        for _ in 0..3 {
            assert_eq!(
                bits(&twin.finish_ref().expect("emits")),
                first,
                "restored twin, d = {dims}"
            );
        }
    }
}

/// What an emission returns, floats as bit patterns, failures as values.
type Outcome = Result<(u64, Vec<EntryBits>), FailReason>;

fn outcome(r: Result<Coreset, FailReason>) -> Outcome {
    r.map(|c| bits(&c))
}

/// A checkpoint → bytes → restore twin of `b`.
fn twin(b: &StreamCoresetBuilder) -> StreamCoresetBuilder {
    let bytes = b.checkpoint().expect("checkpoints").to_bytes();
    StreamCoresetBuilder::restore(&Snapshot::from_bytes(&bytes).expect("decodes"))
        .expect("restores")
}

/// The lazy emission paths against the eager oracle: `finish_ref()` on
/// `b` and `finish()` on a twin must both equal
/// `finish_from_summaries(&export_summaries())` on another twin — the
/// coreset bit for bit, or the same `FailReason`.
fn assert_lazy_matches_eager(b: &StreamCoresetBuilder, label: &str) -> Outcome {
    let mut eager_twin = twin(b);
    let summaries = eager_twin.export_summaries();
    let eager = outcome(eager_twin.finish_from_summaries(&summaries));
    assert_eq!(outcome(b.finish_ref()), eager, "{label}: finish_ref");
    assert_eq!(outcome(twin(b).finish()), eager, "{label}: finish");
    eager
}

/// A serving-profile builder at dimension `dims`, its stream parameters
/// adjusted by `tweak`, fed a Gaussian mixture of `n` points with the
/// first 30% deleted again.
fn fed_builder(dims: u32, n: usize, tweak: impl FnOnce(&mut StreamParams)) -> StreamCoresetBuilder {
    let spec = TenantSpec {
        dims,
        ..TenantSpec::default()
    };
    let (params, mut sparams) = tenant_pipeline(&spec).expect("serving profile");
    tweak(&mut sparams);
    let pts = gaussian_mixture(params.grid, n, 4, 0.05, 91 + dims as u64);
    let mut b = StreamCoresetBuilder::new(params, sparams, &mut StdRng::seed_from_u64(13));
    for chunk in pts.chunks(1024) {
        b.insert_batch(chunk);
    }
    let deletes: Vec<StreamOp> = pts[..n * 3 / 10]
        .iter()
        .cloned()
        .map(StreamOp::Delete)
        .collect();
    b.process_all(&deletes);
    b
}

#[test]
fn lazy_emission_matches_the_eager_coordinator_path() {
    // The packed kernel is requested explicitly so the d = 2 case runs
    // the arena even under `SBC_FORCE_SCALAR`; d = 8 does not pack.
    let simd = |sp: &mut StreamParams| sp.kernel = Kernel::Simd;
    let b = fed_builder(2, 8_192, simd);
    assert!(b.space_report().arena_slots > 0, "d = 2 runs the arena");
    assert!(assert_lazy_matches_eager(&b, "d = 2 arena").is_ok());

    let b = fed_builder(8, 2_048, simd);
    assert_eq!(b.space_report().arena_slots, 0, "d = 8 does not pack");
    assert!(assert_lazy_matches_eager(&b, "d = 8 exact").is_ok());

    let b = fed_builder(2, 8_192, |sp| {
        simd(sp);
        sp.faults = FaultPlan::parse("kill-early").expect("profile");
    });
    assert!(b.space_report().dead_stores > 0, "the plan killed stores");
    let _ = assert_lazy_matches_eager(&b, "kill-early");

    let spec = TenantSpec {
        shards: 3,
        ..TenantSpec::default()
    };
    let (params, sparams) = tenant_pipeline(&spec).expect("serving profile");
    let pts = gaussian_mixture(params.grid, 6_000, 4, 0.05, 17);
    let mut ingest = ShardedIngest::new(params, sparams, 5).expect("shards");
    ingest.insert_batch(&pts);
    let merged = ingest.into_merged().expect("merges");
    assert!(merged.merge_depth() > 0);
    assert!(assert_lazy_matches_eager(&merged, "merge_many").is_ok());

    // A ladder capped far below OPT: every guess's role-h stores hold
    // more cells than their budget, so no guess can be assembled and
    // the top guess's reason comes back.
    let b = fed_builder(2, 4_096, |sp| sp.o_ladder_max = Some(1024.0));
    let err = assert_lazy_matches_eager(&b, "every guess fails").expect_err("no guess survives");
    let FailReason::Storage(text) = err else {
        panic!("expected a store FAIL, got {err:?}");
    };
    assert!(
        text.starts_with("o=1.024e3 h "),
        "the top guess's reason: {text}"
    );
}
