//! Emission is a pure function of builder state: two `finish_ref` calls
//! on one builder, and on its checkpoint → bytes → restore twin, return
//! bit-identical coresets — weights included, to the last bit.
//!
//! Part and level masses are float sums over cells; summed in hash-map
//! order they differed between calls in the low bits, which reached
//! the per-part sampling rates and so the weights.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::api::{tenant_pipeline, TenantSpec};
use sbc::{Coreset, Snapshot, StreamCoresetBuilder, StreamOp};
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
