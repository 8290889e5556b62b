//! `bulk-ingest` and `wide-ingest`: one library builder on the serving
//! profile, driven in episodes. Each episode builds a fresh builder,
//! inserts a Gaussian-mixture stream in 4096-point batches, deletes the
//! first ~30% of it, and emits one coreset with `finish_ref`. Episodes
//! repeat until the timed phase is over, so every run measures the same
//! kind of stream however fast the system is.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::api::{tenant_pipeline, TenantSpec};
use sbc::{Coreset, Snapshot, StreamCoresetBuilder, StreamOp};

use crate::data::{mix, mixture};
use crate::quality::Capture;
use crate::stats::{median, peak_rss_mb, Stopwatch};
use crate::trace::Tracer;
use crate::{compare, entries, Agreement, Config, Pass, Scale};

/// Points per write call.
fn batch(scale: Scale) -> usize {
    match scale {
        Scale::Full => 4096,
        Scale::Tiny => 256,
    }
}

/// Share of an episode's inserts deleted again.
const DELETE_FRAC: f64 = 0.3;

/// Points inserted per episode.
fn episode_points(dims: u32, scale: Scale) -> usize {
    match (scale, dims) {
        (Scale::Full, 2) => 10 * batch(scale),
        // d = 8 ingests ~10x slower: one batch keeps ≥20 episodes a run.
        (Scale::Full, _) => batch(scale),
        (Scale::Tiny, _) => 2 * batch(scale),
    }
}

/// Episodes whose first batch is captured for the quality figure, and
/// center sets per capture. One 4096-point evaluation at d = 8 costs
/// seconds of min-cost flow; at d = 2 the grid collapses it to a few
/// hundred distinct points.
fn quality_budget(dims: u32) -> (u64, u64) {
    if dims == 2 {
        (3, 2)
    } else {
        (1, 1)
    }
}

/// One pass of a library workload at dimension `dims`.
pub fn run(cfg: &Config, dims: u32, tr: &mut Tracer) -> Pass {
    let spec = TenantSpec {
        dims,
        ..TenantSpec::default()
    };
    let (params, sparams) = tenant_pipeline(&spec).expect("serving profile is valid");
    let gp = params.grid;
    let n = episode_points(dims, cfg.scale);
    let batch = batch(cfg.scale);
    let n_delete = (n as f64 * DELETE_FRAC) as usize;
    let mut pass = Pass::new(params.clone());
    // The first episode also pays for the process's first touch of its
    // memory.
    pass.warmup_slices = 1;
    let (capture_episodes, center_sets) = quality_budget(dims);
    pass.center_sets = center_sets;
    let mut sw = Stopwatch::start();
    sw.pause();
    // The current episode's builder, and its coreset once the episode
    // is complete: the output check's subject. Only one builder is alive
    // at a time, so every episode starts from the same process state.
    let mut held: Option<StreamCoresetBuilder> = None;
    let mut emitted: Option<Coreset> = None;
    let (mut insert_ns, mut delete_ns, mut inserted, mut deleted) = (0u64, 0u64, 0u64, 0u64);
    let (mut export_ns, mut assemble_ns, mut instances, mut waste) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut bytes_pp, mut load, mut live, mut dead, mut report_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut episode = 0u64;
    'episodes: while sw.secs() < cfg.seconds {
        (held, emitted) = (None, None);
        let points = mixture(gp, n, mix(cfg.seed, 1, episode));
        let deletes: Vec<StreamOp> = points[..n_delete]
            .iter()
            .map(|p| StreamOp::Delete(p.clone()))
            .collect();
        tr.next_request();
        let t0 = Instant::now();
        let b = held.insert(tr.span("streaming.new", || {
            StreamCoresetBuilder::new(
                params.clone(),
                sparams,
                &mut StdRng::seed_from_u64(mix(cfg.seed, 2, episode)),
            )
        }));
        pass.setups_s.push(t0.elapsed().as_secs_f64());
        for (i, chunk) in points.chunks(batch).enumerate() {
            if sw.secs() >= cfg.seconds {
                break 'episodes;
            }
            let id = tr.next_request();
            sw.resume();
            let t0 = Instant::now();
            tr.span("streaming.insert_batch", || b.insert_batch(chunk));
            let ns = t0.elapsed().as_nanos() as u64;
            sw.pause();
            pass.write_ns.push(ns);
            pass.ops += chunk.len() as u64;
            pass.attempted += 1;
            insert_ns += ns;
            inserted += chunk.len() as u64;
            if tr.on() {
                pass.requests.push((id, ns));
            }
            if i == 0 && episode < capture_episodes && !tr.on() {
                // The non-perturbing emission at the first ~4k net points.
                match b.finish_ref() {
                    Ok(cs) => {
                        let (points, weights) = cs.split();
                        pass.captures.push(Capture {
                            net: chunk.to_vec(),
                            points,
                            weights,
                        });
                    }
                    Err(_) => pass.failed += 1,
                }
            }
        }
        for chunk in deletes.chunks(batch) {
            if sw.secs() >= cfg.seconds {
                break 'episodes;
            }
            let id = tr.next_request();
            sw.resume();
            let t0 = Instant::now();
            tr.span("streaming.process_all", || b.process_all(chunk));
            let ns = t0.elapsed().as_nanos() as u64;
            sw.pause();
            pass.write_ns.push(ns);
            pass.ops += chunk.len() as u64;
            pass.attempted += 1;
            delete_ns += ns;
            deleted += chunk.len() as u64;
            if tr.on() {
                pass.requests.push((id, ns));
            }
        }
        let id = tr.next_request();
        sw.resume();
        let t0 = Instant::now();
        let out = tr.span("streaming.finish_ref", || b.finish_ref());
        let ns = t0.elapsed().as_nanos() as u64;
        sw.pause();
        pass.query_ns.push(ns);
        pass.attempted += 1;
        if tr.on() {
            pass.requests.push((id, ns));
        }
        let Ok(cs) = out else {
            pass.failed += 1;
            episode += 1;
            continue;
        };
        pass.coreset_sizes.push(cs.len() as u64);
        if tr.on() {
            // Export alone on the same state: assembly is the remainder.
            tr.next_request();
            let t0 = Instant::now();
            let summaries = tr.span("streaming.export_summaries", || b.export_summaries());
            let ex = t0.elapsed().as_nanos() as u64;
            export_ns.push(ex);
            assemble_ns.push(ns.saturating_sub(ex));
            instances.push(summaries.len() as f64);
            waste.push(
                summaries.iter().filter(|s| s.o > cs.o).count() as f64
                    / summaries.len().max(1) as f64,
            );
            tr.next_request();
            let t0 = Instant::now();
            let sr = tr.span("storing.space_report", || b.space_report());
            report_ns.push(t0.elapsed().as_nanos() as u64);
            bytes_pp.push(sr.measured_bytes as f64 / b.net_count().max(1) as f64);
            load.push(sr.arena_entries as f64 / sr.arena_slots.max(1) as f64);
            live.push(sr.live_stores as f64);
            dead.push(sr.dead_stores as f64);
        }
        pass.close_slice(sw.secs());
        emitted = Some(cs);
        episode += 1;
    }
    pass.peak_rss_mb = peak_rss_mb();

    // Output check: the final emission must survive checkpoint → bytes →
    // restore. A run that ended inside an episode emits from where it
    // stopped.
    let Some(b) = held else {
        pass.check(Agreement::Different, "no episode started");
        return pass;
    };
    let Some(cs) = emitted.or_else(|| b.finish_ref().ok()) else {
        pass.check(Agreement::Different, "final emission failed");
        return pass;
    };
    tr.next_request();
    let t0 = Instant::now();
    let bytes = tr.span("streaming.checkpoint", || {
        b.checkpoint().map(|s| s.to_bytes())
    });
    let ckpt_ns = t0.elapsed().as_nanos() as u64;
    let Ok(bytes) = bytes else {
        pass.check(Agreement::Different, "checkpoint failed");
        return pass;
    };
    tr.next_request();
    let t0 = Instant::now();
    let twin = tr.span("streaming.restore", || {
        Snapshot::from_bytes(&bytes).and_then(|s| StreamCoresetBuilder::restore(&s))
    });
    let restore_ns = t0.elapsed().as_nanos() as u64;
    pass.check(
        match twin.ok().and_then(|t| t.finish_ref().ok()) {
            Some(again) => compare(again.o, &entries(&again), cs.o, &entries(&cs)),
            None => Agreement::Different,
        },
        "final emission vs its checkpoint-restore twin",
    );

    if tr.on() {
        let net = b.net_count().max(1) as f64;
        pass.set(
            "streaming.new_ms",
            median(&pass.setups_s).map(|s| s * 1e3),
            pass.setups_s.len(),
        );
        pass.set(
            "streaming.insert_ns_per_op",
            (inserted > 0).then(|| insert_ns as f64 / inserted as f64),
            inserted as usize,
        );
        pass.set(
            "streaming.delete_ns_per_op",
            (deleted > 0).then(|| delete_ns as f64 / deleted as f64),
            deleted as usize,
        );
        pass.set_median_ns("streaming.export_ms", &export_ns, 1e6);
        pass.set_median_ns("streaming.assemble_ms", &assemble_ns, 1e6);
        pass.set("streaming.instances", median(&instances), instances.len());
        pass.set("streaming.export_waste_frac", median(&waste), waste.len());
        pass.set("streaming.checkpoint_ms", Some(ckpt_ns as f64 / 1e6), 1);
        pass.set("streaming.restore_ms", Some(restore_ns as f64 / 1e6), 1);
        pass.set(
            "streaming.snapshot_bytes_per_point",
            Some(bytes.len() as f64 / net),
            1,
        );
        pass.set(
            "storing.measured_bytes_per_point",
            median(&bytes_pp),
            bytes_pp.len(),
        );
        pass.set("storing.arena_load_factor", median(&load), load.len());
        pass.set("storing.live_stores", median(&live), live.len());
        pass.set("storing.dead_stores", median(&dead), dead.len());
        pass.set_median_ns("storing.space_report_us", &report_ns, 1e3);
    }
    pass
}
