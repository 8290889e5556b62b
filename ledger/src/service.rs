//! `tenant-churn` and `query-poll`: the service driven through the wire
//! format from one client thread. Each client call takes the byte path
//! `Client<InProcess>` takes (`frame_requests` → `unframe_requests` →
//! `CoresetService::handle` → `frame_responses` → `unframe_responses`),
//! written out here so each step can be timed as its own span.
//!
//! Every tenant's traffic is a pure function of the run seed and the
//! tenant's position in its schedule, so the output check can rebuild
//! any sampled tenant as a library twin (`sbc::api::tenant_pipeline`,
//! seeded exactly as the service seeds it) and compare coresets bit for
//! bit.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sbc::api::{
    frame_requests, frame_responses, tenant_pipeline, unframe_requests, unframe_responses,
    ApiRequest, ApiResponse, CoresetPoint, TenantSpec, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
use sbc::{Coreset, GridParams, Point, Snapshot, StreamCoresetBuilder, StreamOp};
use sbc_serve::{CoresetService, OverloadPolicy, ServeConfig};

use crate::data::{mix, tenant_batch};
use crate::quality::Capture;
use crate::stats::{median, peak_rss_mb, Stopwatch};
use crate::trace::Tracer;
use crate::{compare, entries, Agreement, Config, Entry, Pass, Scale};

/// Points per write request.
pub const WRITE_POINTS: usize = 16;

/// Served coresets captured for the quality figure.
const CAPTURES: usize = 8;

/// What one client call saw.
struct Call {
    /// The decoded reply (`None` if the reply frame did not decode).
    resp: Option<ApiResponse>,
    /// Frame out to reply decoded.
    ns: u64,
    /// `CoresetService::handle` alone (traced pass only).
    handle_ns: Option<u64>,
    /// Request id shared by the call's spans.
    id: u64,
    request_bytes: usize,
    reply_bytes: usize,
}

impl Call {
    /// The call failed: no reply, or an error / refusal record.
    fn failed(&self) -> bool {
        !matches!(
            self.resp,
            Some(
                ApiResponse::HelloAck { .. }
                    | ApiResponse::Opened { .. }
                    | ApiResponse::Applied { .. }
                    | ApiResponse::CoresetReply { .. }
                    | ApiResponse::ServerStatsReply { .. }
            )
        )
    }
}

/// One client call under a root span named `root`.
fn call(svc: &mut CoresetService, tr: &mut Tracer, root: &'static str, req: ApiRequest) -> Call {
    let id = tr.next_request();
    let t0 = Instant::now();
    let top = tr.enter(root);
    let frame = tr.span("api.frame_requests", || {
        frame_requests(std::slice::from_ref(&req))
    });
    let decoded = tr.span("api.unframe_requests", || unframe_requests(&frame));
    let h = tr.enter("service.handle");
    let resp = match decoded.as_deref() {
        Ok([r]) => svc.handle(r),
        _ => ApiResponse::Error {
            code: 0,
            message: "request frame did not round-trip".into(),
        },
    };
    tr.exit(h);
    let reply = tr.span("api.frame_responses", || {
        frame_responses(std::slice::from_ref(&resp))
    });
    let back = tr.span("api.unframe_responses", || unframe_responses(&reply));
    tr.exit(top);
    let ns = t0.elapsed().as_nanos() as u64;
    Call {
        resp: back
            .ok()
            .and_then(|mut v| (v.len() == 1).then(|| v.remove(0))),
        ns,
        handle_ns: tr.dur(h),
        id,
        request_bytes: frame.len(),
        reply_bytes: reply.len(),
    }
}

/// `(evictions, restores, overloaded)` so far.
fn counters(svc: &CoresetService, tr: &mut Tracer) -> (u64, u64, u64) {
    tr.next_request();
    let s = tr.span("service.server_stats", || svc.server_stats());
    (s.evictions, s.restores, s.overloaded)
}

/// Builds a service and opens `specs` through the wire, timing the
/// whole set-up. Returns the service, the seconds it took, and the
/// `Open` handle times.
fn set_up(
    tr: &mut Tracer,
    config: &ServeConfig,
    specs: &[(u64, TenantSpec)],
    pass: &mut Pass,
) -> (CoresetService, f64, Vec<u64>) {
    let t0 = Instant::now();
    let mut svc = CoresetService::new(config.clone());
    let hello = call(
        &mut svc,
        tr,
        "client.hello",
        ApiRequest::Hello {
            min_version: MIN_SUPPORTED_VERSION,
            max_version: PROTOCOL_VERSION,
        },
    );
    pass.attempted += 1;
    pass.failed += u64::from(hello.failed());
    let mut open_ns = Vec::new();
    for &(tenant, spec) in specs {
        let c = call(
            &mut svc,
            tr,
            "client.open",
            ApiRequest::Open { tenant, spec },
        );
        pass.attempted += 1;
        pass.failed += u64::from(c.failed());
        open_ns.extend(c.handle_ns);
    }
    (svc, t0.elapsed().as_secs_f64(), open_ns)
}

/// The builder the service builds for `spec` (the same seeding as the
/// service's single-shard backend).
fn twin(spec: &TenantSpec) -> StreamCoresetBuilder {
    let (params, sparams) = tenant_pipeline(spec).expect("valid spec");
    StreamCoresetBuilder::new(params, sparams, &mut StdRng::seed_from_u64(spec.seed))
}

fn write_request(tenant: u64, delete: bool, points: &[Point]) -> ApiRequest {
    let points = points.to_vec();
    if delete {
        ApiRequest::Delete { tenant, points }
    } else {
        ApiRequest::Insert { tenant, points }
    }
}

fn delete_ops(points: &[Point]) -> Vec<StreamOp> {
    points.iter().map(|p| StreamOp::Delete(p.clone())).collect()
}

fn served(points: &[CoresetPoint]) -> Vec<Entry<'_>> {
    points
        .iter()
        .map(|p| (&p.point, p.weight, p.level, p.part))
        .collect()
}

/// A served reply against a library twin's emission.
fn against_twin(
    o: f64,
    points: &[CoresetPoint],
    twin: Result<Coreset, sbc::FailReason>,
) -> Agreement {
    match twin {
        Ok(cs) => compare(o, &served(points), cs.o, &entries(&cs)),
        Err(_) => Agreement::Different,
    }
}

fn capture(net: Vec<Point>, served: &[CoresetPoint]) -> Capture {
    Capture {
        net,
        points: served.iter().map(|p| p.point.clone()).collect(),
        weights: served.iter().map(|p| p.weight).collect(),
    }
}

/// A served coreset kept for the output check: tenant, how far into its
/// schedule the tenant was, and the reply.
struct Sample {
    tenant: u64,
    step: u64,
    o: f64,
    points: Vec<CoresetPoint>,
}

/// Per-layer bookkeeping shared by the service workloads' traced pass.
#[derive(Default)]
struct LayerLog {
    encode_ns: Vec<u64>,
    decode_ns: Vec<u64>,
    reply_encode_ns: Vec<u64>,
    reply_decode_ns: Vec<u64>,
    write_handle_ns: Vec<u64>,
    query_handle_ns: Vec<u64>,
    query_reply_bytes: Vec<f64>,
    self_write_ns: Vec<u64>,
    restore_write_ns: Vec<u64>,
    shed_write_ns: Vec<u64>,
    admission_ns: Vec<u64>,
    twin_insert: (u64, u64),
    twin_delete: (u64, u64),
    twin_new_ns: Vec<u64>,
    export_ns: Vec<u64>,
    assemble_ns: Vec<u64>,
    instances: Vec<f64>,
    waste: Vec<f64>,
    checkpoint_ns: Vec<u64>,
    restore_ns: Vec<u64>,
    snapshot_bpp: Vec<f64>,
    report_ns: Vec<u64>,
    bytes_pp: Vec<f64>,
    load: Vec<f64>,
    live: Vec<f64>,
    dead: Vec<f64>,
}

impl LayerLog {
    /// Times one library-twin write (`delete` selects the delete path).
    fn twin_write(
        &mut self,
        tr: &mut Tracer,
        b: &mut StreamCoresetBuilder,
        pts: &[Point],
        delete: bool,
    ) -> u64 {
        tr.next_request();
        let t0 = Instant::now();
        if delete {
            let ops = delete_ops(pts);
            tr.span("streaming.process_all", || b.process_all(&ops));
        } else {
            tr.span("streaming.insert_batch", || b.insert_batch(pts));
        }
        let ns = t0.elapsed().as_nanos() as u64;
        let acc = if delete {
            &mut self.twin_delete
        } else {
            &mut self.twin_insert
        };
        acc.0 += ns;
        acc.1 += pts.len() as u64;
        ns
    }

    /// Times export and the full emission on a twin's current state.
    fn twin_query(&mut self, tr: &mut Tracer, b: &StreamCoresetBuilder) {
        tr.next_request();
        let t0 = Instant::now();
        let summaries = tr.span("streaming.export_summaries", || b.export_summaries());
        let ex = t0.elapsed().as_nanos() as u64;
        tr.next_request();
        let t0 = Instant::now();
        let out = tr.span("streaming.finish_ref", || b.finish_ref());
        let full = t0.elapsed().as_nanos() as u64;
        if let Ok(cs) = out {
            self.export_ns.push(ex);
            self.assemble_ns.push(full.saturating_sub(ex));
            self.instances.push(summaries.len() as f64);
            self.waste.push(
                summaries.iter().filter(|s| s.o > cs.o).count() as f64
                    / summaries.len().max(1) as f64,
            );
        }
    }

    /// Times one `space_report()` on a twin and keeps its store figures.
    fn twin_report(&mut self, tr: &mut Tracer, b: &StreamCoresetBuilder) {
        tr.next_request();
        let t0 = Instant::now();
        let sr = tr.span("storing.space_report", || b.space_report());
        self.report_ns.push(t0.elapsed().as_nanos() as u64);
        self.bytes_pp
            .push(sr.measured_bytes as f64 / b.net_count().max(1) as f64);
        self.load
            .push(sr.arena_entries as f64 / sr.arena_slots.max(1) as f64);
        self.live.push(sr.live_stores as f64);
        self.dead.push(sr.dead_stores as f64);
    }

    /// Checkpoints a twin to bytes and restores it (what eviction and
    /// restore-on-demand do inside the service), replacing it.
    fn twin_roundtrip(&mut self, tr: &mut Tracer, b: &mut StreamCoresetBuilder) -> bool {
        tr.next_request();
        let t0 = Instant::now();
        let bytes = tr.span("streaming.checkpoint", || {
            b.checkpoint().map(|s| s.to_bytes())
        });
        self.checkpoint_ns.push(t0.elapsed().as_nanos() as u64);
        let Ok(bytes) = bytes else { return false };
        tr.next_request();
        let t0 = Instant::now();
        let restored = tr.span("streaming.restore", || {
            Snapshot::from_bytes(&bytes).and_then(|s| StreamCoresetBuilder::restore(&s))
        });
        self.restore_ns.push(t0.elapsed().as_nanos() as u64);
        let Ok(restored) = restored else { return false };
        self.snapshot_bpp
            .push(bytes.len() as f64 / b.net_count().max(1) as f64);
        *b = restored;
        true
    }

    /// Logs a query call: its codec spans, handle time and reply size.
    fn query(&mut self, tr: &Tracer, c: &Call) {
        self.call(tr, c);
        self.query_handle_ns.extend(c.handle_ns);
        self.query_reply_bytes.push(c.reply_bytes as f64);
    }

    /// Splits a client call's spans into the codec logs.
    fn call(&mut self, tr: &Tracer, c: &Call) {
        for s in tr.spans().iter().rev().take_while(|s| s.request == c.id) {
            let v = s.dur_ns();
            match s.name {
                "api.frame_requests" => self.encode_ns.push(v),
                "api.unframe_requests" => self.decode_ns.push(v),
                "api.frame_responses" => self.reply_encode_ns.push(v),
                "api.unframe_responses" => self.reply_decode_ns.push(v),
                _ => {}
            }
        }
    }

    fn write_into(self, pass: &mut Pass, tr: &Tracer, open_ns: &[u64], req_bytes: u64) {
        let ops = pass.ops;
        pass.set_median_ns("api.encode_ns_per_req", &self.encode_ns, 1.0);
        pass.set_median_ns("api.decode_ns_per_req", &self.decode_ns, 1.0);
        pass.set_median_ns("api.reply_encode_us", &self.reply_encode_ns, 1e3);
        pass.set_median_ns("api.reply_decode_us", &self.reply_decode_ns, 1e3);
        pass.set(
            "api.request_bytes_per_op",
            (ops > 0).then(|| req_bytes as f64 / ops as f64),
            ops as usize,
        );
        pass.set(
            "api.query_reply_bytes",
            median(&self.query_reply_bytes),
            self.query_reply_bytes.len(),
        );
        pass.set_median_ns("service.open_ms", open_ns, 1e6);
        pass.set_median_ns("service.handle_write_p50_us", &self.write_handle_ns, 1e3);
        pass.set_quantile_ns(
            "service.handle_write_p99_us",
            &self.write_handle_ns,
            0.99,
            1e3,
        );
        pass.set_median_ns("service.self_us_per_write", &self.self_write_ns, 1e3);
        pass.set_median_ns("service.restore_write_us", &self.restore_write_ns, 1e3);
        pass.set_median_ns("service.shed_write_us", &self.shed_write_ns, 1e3);
        pass.set_quantile_ns("service.admission_p99_ns", &self.admission_ns, 0.99, 1.0);
        pass.set_median_ns("service.handle_query_p50_ms", &self.query_handle_ns, 1e6);
        pass.set_quantile_ns(
            "service.handle_query_p99_ms",
            &self.query_handle_ns,
            0.99,
            1e6,
        );
        pass.set_median_ns("streaming.new_ms", &self.twin_new_ns, 1e6);
        let per_op = |(ns, n): (u64, u64)| (n > 0).then(|| ns as f64 / n as f64);
        pass.set(
            "streaming.insert_ns_per_op",
            per_op(self.twin_insert),
            self.twin_insert.1 as usize,
        );
        pass.set(
            "streaming.delete_ns_per_op",
            per_op(self.twin_delete),
            self.twin_delete.1 as usize,
        );
        pass.set_median_ns("streaming.export_ms", &self.export_ns, 1e6);
        pass.set_median_ns("streaming.assemble_ms", &self.assemble_ns, 1e6);
        pass.set(
            "streaming.instances",
            median(&self.instances),
            self.instances.len(),
        );
        pass.set(
            "streaming.export_waste_frac",
            median(&self.waste),
            self.waste.len(),
        );
        pass.set_median_ns("streaming.checkpoint_ms", &self.checkpoint_ns, 1e6);
        pass.set_median_ns("streaming.restore_ms", &self.restore_ns, 1e6);
        pass.set(
            "streaming.snapshot_bytes_per_point",
            median(&self.snapshot_bpp),
            self.snapshot_bpp.len(),
        );
        pass.set_median_ns("storing.space_report_us", &self.report_ns, 1e3);
        pass.set(
            "storing.measured_bytes_per_point",
            median(&self.bytes_pp),
            self.bytes_pp.len(),
        );
        pass.set(
            "storing.arena_load_factor",
            median(&self.load),
            self.load.len(),
        );
        pass.set("storing.live_stores", median(&self.live), self.live.len());
        pass.set("storing.dead_stores", median(&self.dead), self.dead.len());
        // Layer shares of the client requests' wall time.
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for root in ["client.write", "client.query"] {
            for (layer, (ns, _)) in tr.layer_self_ns(root) {
                *by_layer.entry(layer).or_default() += ns;
            }
        }
        let total: u64 = by_layer.values().sum();
        if total > 0 {
            let share = |l: &str| by_layer.get(l).copied().unwrap_or(0) as f64 / total as f64;
            let n = pass.write_ns.len() + pass.query_ns.len();
            pass.set("api.self_share", Some(share("api")), n);
            pass.set("service.self_share", Some(share("service")), n);
        }
    }
}

/// `tenant-churn` sizes.
struct ChurnSize {
    tenants: u64,
    /// Consecutive turns a tenant gets per visit.
    turns_per_visit: u64,
    /// A tenant deletes the batch it inserted this many turns earlier.
    window: u64,
    /// A query every this many visits.
    query_every: u64,
    /// Visits per throughput slice.
    slice_visits: u64,
    /// Library twins mirror every this-many-th tenant (traced pass).
    mirror_every: u64,
    setups: usize,
}

fn churn_size(scale: Scale) -> ChurnSize {
    match scale {
        Scale::Full => ChurnSize {
            tenants: 128,
            turns_per_visit: 4,
            window: 8,
            query_every: 2,
            slice_visits: 16,
            mirror_every: 8,
            setups: 5,
        },
        Scale::Tiny => ChurnSize {
            tenants: 9,
            turns_per_visit: 2,
            window: 1,
            query_every: 1,
            slice_visits: 3,
            mirror_every: 2,
            setups: 2,
        },
    }
}

fn churn_spec(seed: u64, tenant: u64) -> TenantSpec {
    TenantSpec {
        seed: mix(seed, 3, tenant),
        ..TenantSpec::default()
    }
}

/// The points a churn tenant holds after `turns` turns.
fn churn_net(gp: GridParams, seed: u64, tenant: u64, turns: u64, window: u64) -> Vec<Point> {
    (turns.saturating_sub(window)..turns)
        .flat_map(|i| tenant_batch(gp, seed, tenant, i, WRITE_POINTS))
        .collect()
}

/// One pass of `tenant-churn`.
pub fn churn(cfg: &Config, tr: &mut Tracer) -> Pass {
    let sz = churn_size(cfg.scale);
    let spec0 = churn_spec(cfg.seed, 0);
    let (params, _) = tenant_pipeline(&spec0).expect("valid spec");
    let gp = params.grid;
    let mut pass = Pass::new(params);
    // Warm-up: the first visit to each tenant, before the budget binds
    // and restores start.
    pass.warmup_slices = (sz.tenants / sz.slice_visits) as usize;
    // Budget: a third of the unconstrained footprint, sized from a
    // fresh tenant's measured bytes.
    let fresh = twin(&spec0).space_report().measured_bytes;
    let config = ServeConfig {
        budget_bytes: sz.tenants as usize * fresh / 3,
        policy: OverloadPolicy::Shed,
        spill_dir: None,
        ..ServeConfig::default()
    };
    let specs: Vec<(u64, TenantSpec)> = (0..sz.tenants)
        .map(|t| (t, churn_spec(cfg.seed, t)))
        .collect();
    let mut svc = None;
    let mut open_ns = Vec::new();
    for _ in 0..sz.setups {
        drop(svc.take());
        let (s, secs, ns) = set_up(tr, &config, &specs, &mut pass);
        pass.setups_s.push(secs);
        open_ns.extend(ns);
        svc = Some(s);
    }
    let mut svc = svc.expect("at least one set-up");

    let mut log = LayerLog::default();
    let mut twins: HashMap<u64, StreamCoresetBuilder> = HashMap::new();
    if tr.on() {
        for t in (0..sz.tenants).step_by(sz.mirror_every as usize) {
            tr.next_request();
            let t0 = Instant::now();
            let b = tr.span("streaming.new", || twin(&churn_spec(cfg.seed, t)));
            log.twin_new_ns.push(t0.elapsed().as_nanos() as u64);
            twins.insert(t, b);
        }
    }
    let mut turns = vec![0u64; sz.tenants as usize];
    let mut samples: Vec<Sample> = Vec::new();
    let mut req_bytes = 0u64;
    let mut mirrored = 0u64;
    let before = counters(&svc, tr);
    let mut sw = Stopwatch::start();
    sw.pause();
    let mut visit = 0u64;
    while sw.secs() < cfg.seconds {
        let t = visit % sz.tenants;
        for _ in 0..sz.turns_per_visit {
            let i = turns[t as usize];
            let mut writes = vec![(false, tenant_batch(gp, cfg.seed, t, i, WRITE_POINTS))];
            if i >= sz.window {
                writes.push((
                    true,
                    tenant_batch(gp, cfg.seed, t, i - sz.window, WRITE_POINTS),
                ));
            }
            for (delete, points) in writes {
                let stats_before = tr.on().then(|| counters(&svc, tr));
                let req = write_request(t, delete, &points);
                sw.resume();
                let c = call(&mut svc, tr, "client.write", req);
                sw.pause();
                pass.write_ns.push(c.ns);
                pass.ops += points.len() as u64;
                pass.attempted += 1;
                pass.failed += u64::from(c.failed());
                req_bytes += c.request_bytes as u64;
                if !tr.on() {
                    continue;
                }
                pass.requests.push((c.id, c.ns));
                log.call(tr, &c);
                let handle = c.handle_ns.unwrap_or(0);
                log.write_handle_ns.push(handle);
                let (ev0, re0, _) = stats_before.unwrap_or_default();
                let (ev1, re1, _) = counters(&svc, tr);
                if re1 > re0 {
                    log.restore_write_ns.push(handle);
                }
                if ev1 > ev0 {
                    log.shed_write_ns.push(handle);
                }
                if let Some(b) = twins.get_mut(&t) {
                    let twin_ns = log.twin_write(tr, b, &points, delete);
                    if re1 == re0 && ev1 == ev0 {
                        log.self_write_ns.push(handle.saturating_sub(twin_ns));
                    }
                    mirrored += 1;
                    if mirrored.is_multiple_of(4) {
                        log.twin_report(tr, b);
                    }
                    if mirrored.is_multiple_of(32) {
                        let restored = if log.twin_roundtrip(tr, b) {
                            Agreement::Exact
                        } else {
                            Agreement::Different
                        };
                        pass.check(restored, "twin checkpoint → restore");
                    }
                }
                if pass.write_ns.len().is_multiple_of(256) {
                    tr.next_request();
                    let adm = tr.span("service.take_admission_ns", || svc.take_admission_ns());
                    log.admission_ns.extend(adm);
                }
            }
            turns[t as usize] += 1;
        }
        if visit.is_multiple_of(sz.query_every) {
            let q = t;
            sw.resume();
            let c = call(
                &mut svc,
                tr,
                "client.query",
                ApiRequest::Query { tenant: q },
            );
            sw.pause();
            pass.query_ns.push(c.ns);
            pass.attempted += 1;
            pass.failed += u64::from(c.failed());
            if tr.on() {
                pass.requests.push((c.id, c.ns));
                log.query(tr, &c);
                if let Some(b) = twins.get(&q) {
                    log.twin_query(tr, b);
                }
            }
            if let Some(ApiResponse::CoresetReply { o, points, .. }) = c.resp {
                pass.coreset_sizes.push(points.len() as u64);
                // Quality captures come from tenants past their warm-up,
                // whose net set is a full window.
                if pass.captures.len() < CAPTURES && turns[q as usize] >= sz.window && !tr.on() {
                    let net = churn_net(gp, cfg.seed, q, turns[q as usize], sz.window);
                    pass.captures.push(capture(net, &points));
                }
                samples.push(Sample {
                    tenant: q,
                    step: turns[q as usize],
                    o,
                    points,
                });
            }
        }
        visit += 1;
        if visit.is_multiple_of(sz.slice_visits) {
            pass.close_slice(sw.secs());
        }
    }
    pass.peak_rss_mb = peak_rss_mb();
    let after = counters(&svc, tr);

    // Output check: every sampled reply against a library twin replaying
    // the tenant's schedule up to the same turn.
    let mut by_tenant: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in &samples {
        by_tenant.entry(s.tenant).or_default().push(s);
    }
    for (t, list) in by_tenant {
        let mut b = twin(&churn_spec(cfg.seed, t));
        let mut done = 0u64;
        for s in list {
            while done < s.step {
                b.insert_batch(&tenant_batch(gp, cfg.seed, t, done, WRITE_POINTS));
                if done >= sz.window {
                    let old = tenant_batch(gp, cfg.seed, t, done - sz.window, WRITE_POINTS);
                    b.process_all(&delete_ops(&old));
                }
                done += 1;
            }
            pass.check(
                against_twin(s.o, &s.points, b.finish_ref()),
                &format!("tenant {t} step {} vs its library twin", s.step),
            );
        }
    }

    if tr.on() {
        pass.set("service.evictions", Some((after.0 - before.0) as f64), 1);
        pass.set("service.restores", Some((after.1 - before.1) as f64), 1);
        pass.set("service.overloaded", Some((after.2 - before.2) as f64), 1);
        log.write_into(&mut pass, tr, &open_ns, req_bytes);
    }
    pass
}

/// `query-poll` sizes.
struct PollSize {
    tenants: u64,
    /// Points each tenant holds before timing starts.
    grown: usize,
    /// Every this-many-th query is kept for the output check.
    check_every: u64,
    /// Rounds per throughput slice.
    slice_rounds: u64,
    /// Slices of warm-up: the tenants' first rounds of insert/delete
    /// cycles after pre-growth answer faster than the steady pattern.
    warmup_slices: usize,
    /// The traced pass times twin export/assembly every this-many-th query.
    twin_every: u64,
    setups: usize,
}

fn poll_size(scale: Scale) -> PollSize {
    match scale {
        Scale::Full => PollSize {
            tenants: 8,
            grown: 2048,
            check_every: 16,
            slice_rounds: 4,
            warmup_slices: 8,
            twin_every: 4,
            setups: 9,
        },
        Scale::Tiny => PollSize {
            tenants: 2,
            grown: 256,
            check_every: 2,
            slice_rounds: 1,
            warmup_slices: 0,
            twin_every: 1,
            setups: 2,
        },
    }
}

/// Pre-growth comes in 256-point batches indexed below this offset;
/// round writes use indices from it on.
const ROUND_INDEX: u64 = 1 << 32;
const GROW_BATCH: usize = 256;

fn poll_spec(seed: u64, tenant: u64) -> TenantSpec {
    TenantSpec {
        seed: mix(seed, 4, tenant),
        ..TenantSpec::default()
    }
}

/// Round `r`'s write for a tenant: even rounds insert a fresh batch,
/// odd rounds delete the one the round before inserted.
fn poll_write(gp: GridParams, seed: u64, tenant: u64, round: u64) -> (bool, Vec<Point>) {
    let delete = round % 2 == 1;
    let index = ROUND_INDEX + round - u64::from(delete);
    (delete, tenant_batch(gp, seed, tenant, index, WRITE_POINTS))
}

fn poll_grown(gp: GridParams, seed: u64, tenant: u64, grown: usize) -> Vec<Vec<Point>> {
    (0..(grown / GROW_BATCH) as u64)
        .map(|g| tenant_batch(gp, seed, tenant, g, GROW_BATCH))
        .collect()
}

/// One pass of `query-poll`.
pub fn poll(cfg: &Config, tr: &mut Tracer) -> Pass {
    let sz = poll_size(cfg.scale);
    let (params, _) = tenant_pipeline(&poll_spec(cfg.seed, 0)).expect("valid spec");
    let gp = params.grid;
    let mut pass = Pass::new(params);
    pass.warmup_slices = sz.warmup_slices;
    let config = ServeConfig::default();
    let specs: Vec<(u64, TenantSpec)> = (0..sz.tenants)
        .map(|t| (t, poll_spec(cfg.seed, t)))
        .collect();
    let mut svc = None;
    let mut open_ns = Vec::new();
    for _ in 0..sz.setups {
        drop(svc.take());
        let (s, secs, ns) = set_up(tr, &config, &specs, &mut pass);
        pass.setups_s.push(secs);
        open_ns.extend(ns);
        svc = Some(s);
    }
    let mut svc = svc.expect("at least one set-up");

    // Pre-growth: not set-up, not timed.
    let mut log = LayerLog::default();
    let mut twins: Vec<StreamCoresetBuilder> = Vec::new();
    for t in 0..sz.tenants {
        let batches = poll_grown(gp, cfg.seed, t, sz.grown);
        for b in &batches {
            let c = call(
                &mut svc,
                tr,
                "client.grow",
                ApiRequest::Insert {
                    tenant: t,
                    points: b.clone(),
                },
            );
            pass.attempted += 1;
            pass.failed += u64::from(c.failed());
        }
        if tr.on() {
            tr.next_request();
            let t0 = Instant::now();
            let mut b = tr.span("streaming.new", || twin(&poll_spec(cfg.seed, t)));
            log.twin_new_ns.push(t0.elapsed().as_nanos() as u64);
            for batch in &batches {
                b.insert_batch(batch);
            }
            twins.push(b);
        }
    }

    let mut samples: Vec<Sample> = Vec::new();
    let mut last: Vec<Option<(f64, Vec<CoresetPoint>)>> = vec![None; sz.tenants as usize];
    let mut req_bytes = 0u64;
    let mut queries = 0u64;
    let mut sw = Stopwatch::start();
    sw.pause();
    let mut round = 0u64;
    while sw.secs() < cfg.seconds {
        for t in 0..sz.tenants {
            let (delete, points) = poll_write(gp, cfg.seed, t, round);
            let req = write_request(t, delete, &points);
            sw.resume();
            let c = call(&mut svc, tr, "client.write", req);
            sw.pause();
            pass.write_ns.push(c.ns);
            pass.ops += points.len() as u64;
            pass.attempted += 1;
            pass.failed += u64::from(c.failed());
            req_bytes += c.request_bytes as u64;
            if tr.on() {
                pass.requests.push((c.id, c.ns));
                log.call(tr, &c);
                let handle = c.handle_ns.unwrap_or(0);
                log.write_handle_ns.push(handle);
                let b = &mut twins[t as usize];
                let twin_ns = log.twin_write(tr, b, &points, delete);
                log.self_write_ns.push(handle.saturating_sub(twin_ns));
                if round.is_multiple_of(8) {
                    log.twin_report(tr, b);
                }
            }
            sw.resume();
            let c = call(
                &mut svc,
                tr,
                "client.query",
                ApiRequest::Query { tenant: t },
            );
            sw.pause();
            queries += 1;
            pass.query_ns.push(c.ns);
            pass.attempted += 1;
            pass.failed += u64::from(c.failed());
            if tr.on() {
                pass.requests.push((c.id, c.ns));
                log.query(tr, &c);
                if queries.is_multiple_of(sz.twin_every) {
                    log.twin_query(tr, &twins[t as usize]);
                }
            }
            if let Some(ApiResponse::CoresetReply { o, points, .. }) = c.resp {
                pass.coreset_sizes.push(points.len() as u64);
                if round == 0 && (t as usize) < CAPTURES && !tr.on() {
                    let mut net: Vec<Point> = poll_grown(gp, cfg.seed, t, sz.grown).concat();
                    net.extend(poll_write(gp, cfg.seed, t, 0).1);
                    pass.captures.push(capture(net, &points));
                }
                if queries.is_multiple_of(sz.check_every) {
                    samples.push(Sample {
                        tenant: t,
                        step: round + 1,
                        o,
                        points: points.clone(),
                    });
                }
                last[t as usize] = Some((o, points));
            }
        }
        if round % 2 == 1 {
            // An immediate repeat on a tenant nothing has touched since
            // its last query: it must answer the same coreset.
            let u = (round / 2) % sz.tenants;
            sw.resume();
            let c = call(
                &mut svc,
                tr,
                "client.query",
                ApiRequest::Query { tenant: u },
            );
            sw.pause();
            pass.query_ns.push(c.ns);
            if tr.on() {
                pass.requests.push((c.id, c.ns));
                log.query(tr, &c);
            }
            let agreement = match (&c.resp, &last[u as usize]) {
                (Some(ApiResponse::CoresetReply { o, points, .. }), Some((o0, p0))) => {
                    pass.coreset_sizes.push(points.len() as u64);
                    compare(*o, &served(points), *o0, &served(p0))
                }
                _ => Agreement::Different,
            };
            pass.check(agreement, &format!("repeat query on unchanged tenant {u}"));
        }
        round += 1;
        if round.is_multiple_of(sz.slice_rounds) {
            pass.close_slice(sw.secs());
        }
    }
    pass.peak_rss_mb = peak_rss_mb();

    // Output check: sampled replies against library twins replaying the
    // same schedule.
    let mut by_tenant: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for s in &samples {
        by_tenant.entry(s.tenant).or_default().push(s);
    }
    for (t, list) in by_tenant {
        let mut b = twin(&poll_spec(cfg.seed, t));
        for batch in poll_grown(gp, cfg.seed, t, sz.grown) {
            b.insert_batch(&batch);
        }
        let mut done = 0u64;
        for s in list {
            while done < s.step {
                let (delete, points) = poll_write(gp, cfg.seed, t, done);
                if delete {
                    b.process_all(&delete_ops(&points));
                } else {
                    b.insert_batch(&points);
                }
                done += 1;
            }
            pass.check(
                against_twin(s.o, &s.points, b.finish_ref()),
                &format!("tenant {t} step {} vs its library twin", s.step),
            );
        }
    }

    if tr.on() {
        log.write_into(&mut pass, tr, &open_ns, req_bytes);
    }
    pass
}
