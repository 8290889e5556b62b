//! Layer-attributed benchmark for the streaming balanced clustering
//! workspace.
//!
//! One run drives one named workload for a fixed time from a single
//! client thread (closed loop, no think time), checks the system's
//! outputs, and reports either the end-to-end metrics (untraced) or the
//! per-layer metrics (traced). Layers are named after the modules whose
//! public calls the benchmark times: `api` (wire codec), `service`
//! (`sbc_serve::CoresetService`), `streaming` (`StreamCoresetBuilder`)
//! and `storing` (the Storing stores, seen through `space_report()`).
//! See `README.md` for the layer → metric → workload map.

pub mod data;
pub mod library;
pub mod quality;
pub mod service;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

use sbc::{Coreset, CoresetParams, Point};

use crate::quality::Capture;
use crate::stats::{mean_u64, median, median_u64, quantile};
use crate::trace::Tracer;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One library builder, d = 2, long insert stream then ~30% deletes.
    BulkIngest,
    /// The same at d = 8 (the geometry the packed kernel cannot take).
    WideIngest,
    /// Hundreds of tenants through the service under a shed budget.
    TenantChurn,
    /// A few large tenants, written a little and queried every round.
    QueryPoll,
}

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkIngest,
        Workload::WideIngest,
        Workload::TenantChurn,
        Workload::QueryPoll,
    ];

    /// The workloads `BENCHMARK.json` lists. `wide-ingest` and
    /// `query-poll` spread too much from run to run on a shared host to
    /// be gated; they run by hand (see `README.md`).
    pub const LISTED: [Workload; 2] = [Workload::BulkIngest, Workload::TenantChurn];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkIngest => "bulk-ingest",
            Workload::WideIngest => "wide-ingest",
            Workload::TenantChurn => "tenant-churn",
            Workload::QueryPoll => "query-poll",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: the benchmark's own (`Full`) or a seconds-long smoke
/// size (`Tiny`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Tiny inputs for the smoke test.
    Tiny,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// How a coreset compares with its reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agreement {
    /// Bit-identical.
    Exact,
    /// Same guess `o`, points, levels and parts; weights differ only
    /// below a relative 1e-9 (float summation order).
    Rounding,
    /// Anything else: a failed output check.
    Different,
}

/// One coreset entry as the output check sees it.
pub type Entry<'a> = (&'a Point, f64, i32, u64);

/// The entries of a library coreset.
pub fn entries(cs: &Coreset) -> Vec<Entry<'_>> {
    cs.entries()
        .iter()
        .map(|e| (&e.point, e.weight, e.level, e.part as u64))
        .collect()
}

/// Compares two emissions entry by entry.
pub fn compare(o: f64, a: &[Entry<'_>], ref_o: f64, b: &[Entry<'_>]) -> Agreement {
    if o.to_bits() != ref_o.to_bits() || a.len() != b.len() {
        eprintln!("  o {o} vs {ref_o}, {} vs {} entries", a.len(), b.len());
        return Agreement::Different;
    }
    let mut exact = true;
    for (x, y) in a.iter().zip(b) {
        if x.0 != y.0 || x.2 != y.2 || x.3 != y.3 {
            eprintln!("  entry {x:?} vs {y:?}");
            return Agreement::Different;
        }
        if x.1.to_bits() != y.1.to_bits() {
            exact = false;
            if (x.1 - y.1).abs() > 1e-9 * x.1.abs().max(y.1.abs()) {
                eprintln!("  weight {} vs {}", x.1, y.1);
                return Agreement::Different;
            }
        }
    }
    if exact {
        Agreement::Exact
    } else {
        Agreement::Rounding
    }
}

/// One slice of the timed phase: a fixed amount of work (an episode,
/// or a fixed number of visits or rounds).
pub struct Slice {
    /// Point ops in the slice.
    pub ops: u64,
    /// Seconds in the slice.
    pub secs: f64,
    /// `write_ns.len()` at the slice's end.
    pub writes: usize,
    /// `query_ns.len()` at the slice's end.
    pub queries: usize,
}

/// The measured part of a pass's timed phase.
pub struct Measured<'a> {
    /// Slices in it.
    pub slices: usize,
    /// Point ops in it.
    pub ops: u64,
    /// Its seconds.
    pub secs: f64,
    /// Its write call latencies (ns).
    pub writes: &'a [u64],
    /// Its query call latencies (ns).
    pub queries: &'a [u64],
}

/// What one pass over a workload measured. The untraced pass fills the
/// end-to-end fields; the traced pass also fills `layer`.
pub struct Pass {
    /// Seconds of each system set-up (constructors / `Open` requests).
    pub setups_s: Vec<f64>,
    /// Point inserts + deletes applied in the timed phase.
    pub ops: u64,
    /// The timed phase cut into slices (episodes or groups of rounds).
    pub slices: Vec<Slice>,
    /// Leading slices left out of the timing figures: the workload's
    /// warm-up, before its state reaches the steady pattern.
    pub warmup_slices: usize,
    /// Write call latencies (ns).
    pub write_ns: Vec<u64>,
    /// Query call latencies (ns).
    pub query_ns: Vec<u64>,
    /// `VmHWM` at the end of the timed phase.
    pub peak_rss_mb: f64,
    /// Coresets captured for the quality figure.
    pub captures: Vec<Capture>,
    /// k-means++ center sets each capture is evaluated on.
    pub center_sets: u64,
    /// Sizes of every coreset emitted in the timed phase.
    pub coreset_sizes: Vec<u64>,
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Requests that errored or were refused, plus failed checks.
    pub failed: u64,
    /// Output checks made (coreset comparisons).
    pub checks: u64,
    /// Checks that agreed only up to float summation order.
    pub rounding: u64,
    /// Per-layer figures (traced pass only): name -> (value, samples).
    pub layer: BTreeMap<&'static str, (f64, u64)>,
    /// Client requests as `(request id, measured ns)`, traced pass only:
    /// what the span tree of each request must add up to.
    pub requests: Vec<(u64, u64)>,
    /// Coreset parameters of the workload's pipeline.
    pub params: CoresetParams,
}

impl Pass {
    /// An empty pass for a pipeline with these parameters.
    pub fn new(params: CoresetParams) -> Pass {
        Pass {
            setups_s: Vec::new(),
            ops: 0,
            slices: Vec::new(),
            warmup_slices: 0,
            write_ns: Vec::new(),
            query_ns: Vec::new(),
            peak_rss_mb: 0.0,
            captures: Vec::new(),
            center_sets: 2,
            coreset_sizes: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: 0,
            rounding: 0,
            layer: BTreeMap::new(),
            requests: Vec::new(),
            params,
        }
    }

    /// Closes a slice at the stopwatch's current reading.
    pub fn close_slice(&mut self, timed_s: f64) {
        let (ops, secs) = self
            .slices
            .iter()
            .fold((0, 0.0), |(o, t), s| (o + s.ops, t + s.secs));
        if timed_s > secs {
            self.slices.push(Slice {
                ops: self.ops - ops,
                secs: timed_s - secs,
                writes: self.write_ns.len(),
                queries: self.query_ns.len(),
            });
        }
    }

    /// The measured part of the timed phase: the slices past the warm-up
    /// (all of them in a run too short to have any). A slice left
    /// unfinished when time ran out is not measured.
    pub fn measured(&self) -> Option<Measured<'_>> {
        let last = self.slices.last()?;
        let skip = self.warmup_slices.min(self.slices.len() - 1);
        let (w, q) = match skip {
            0 => (0, 0),
            k => (self.slices[k - 1].writes, self.slices[k - 1].queries),
        };
        let slices = &self.slices[skip..];
        Some(Measured {
            slices: slices.len(),
            ops: slices.iter().map(|s| s.ops).sum(),
            secs: slices.iter().map(|s| s.secs).sum(),
            writes: &self.write_ns[w..last.writes],
            queries: &self.query_ns[q..last.queries],
        })
    }

    /// Counts one output check of `what`; a failure is also reported
    /// on standard error.
    pub fn check(&mut self, a: Agreement, what: &str) {
        self.attempted += 1;
        self.checks += 1;
        match a {
            Agreement::Exact => {}
            Agreement::Rounding => self.rounding += 1,
            Agreement::Different => {
                eprintln!("output check failed: {what}");
                self.failed += 1;
            }
        }
    }

    /// Records a per-layer figure.
    pub fn set(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        if let Some(v) = value {
            self.layer.insert(name, (v, samples as u64));
        }
    }

    /// Records the median of `ns` samples, scaled by `per`.
    pub fn set_median_ns(&mut self, name: &'static str, ns: &[u64], per: f64) {
        self.set(name, median_u64(ns).map(|v| v / per), ns.len());
    }

    /// Records a tail quantile of `ns` samples, scaled by `per`.
    pub fn set_quantile_ns(&mut self, name: &'static str, ns: &[u64], q: f64, per: f64) {
        self.set(name, quantile(ns, q).map(|v| v / per), ns.len());
    }

    /// Mean client-call nanoseconds per point op: the figure the traced
    /// and untraced passes are compared on.
    fn call_ns_per_op(&self) -> f64 {
        let total: u64 = self.write_ns.iter().chain(&self.query_ns).sum();
        total as f64 / self.ops.max(1) as f64
    }
}

/// A metric's catalog entry.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_ops_per_s", "1/s"),
    m("write_us", "us"),
    m("query_ms", "ms"),
    m("peak_rss_mb", "MiB"),
    m("coreset_cost_ratio", "ratio"),
    m("coreset_points", "count"),
];

/// Per-layer metrics, reported by every traced run. A metric whose
/// layer the workload does not exercise (or whose tail has fewer than
/// ten samples beyond it) reads 0 with 0 samples.
pub const PER_LAYER: &[MetricDef] = &[
    m("client.write_p99_us", "us"),
    m("client.query_p99_ms", "ms"),
    m("trace_overhead_frac", "frac"),
    m("api.encode_ns_per_req", "ns"),
    m("api.decode_ns_per_req", "ns"),
    m("api.reply_encode_us", "us"),
    m("api.reply_decode_us", "us"),
    m("api.request_bytes_per_op", "B"),
    m("api.query_reply_bytes", "B"),
    m("api.self_share", "frac"),
    m("service.open_ms", "ms"),
    m("service.handle_write_p50_us", "us"),
    m("service.handle_write_p99_us", "us"),
    m("service.self_us_per_write", "us"),
    m("service.restore_write_us", "us"),
    m("service.shed_write_us", "us"),
    m("service.evictions", "count"),
    m("service.restores", "count"),
    m("service.overloaded", "count"),
    m("service.admission_p99_ns", "ns"),
    m("service.handle_query_p50_ms", "ms"),
    m("service.handle_query_p99_ms", "ms"),
    m("service.self_share", "frac"),
    m("streaming.new_ms", "ms"),
    m("streaming.insert_ns_per_op", "ns"),
    m("streaming.delete_ns_per_op", "ns"),
    m("streaming.export_ms", "ms"),
    m("streaming.assemble_ms", "ms"),
    m("streaming.instances", "count"),
    m("streaming.export_waste_frac", "frac"),
    m("streaming.checkpoint_ms", "ms"),
    m("streaming.restore_ms", "ms"),
    m("streaming.snapshot_bytes_per_point", "B"),
    m("streaming.emission_rounding_frac", "frac"),
    m("storing.measured_bytes_per_point", "B"),
    m("storing.arena_load_factor", "frac"),
    m("storing.live_stores", "count"),
    m("storing.dead_stores", "count"),
    m("storing.space_report_us", "us"),
];

/// A reported metric.
#[derive(Clone, Debug)]
pub struct Reported {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind the value (0: not exercised by this workload).
    pub samples: u64,
}

/// One run's result.
pub struct Outcome {
    /// Every output check passed and no request failed.
    pub correct: bool,
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Requests that errored or were refused, plus failed checks.
    pub failed: u64,
    /// The catalog's metrics, in catalog order.
    pub metrics: Vec<Reported>,
    /// The traced pass's spans (traced runs only).
    pub tracer: Option<Tracer>,
    /// Client requests of the traced pass, `(request id, measured ns)`.
    pub requests: Vec<(u64, u64)>,
}

fn drive(cfg: &Config, tracer: &mut Tracer) -> Pass {
    match cfg.workload {
        Workload::BulkIngest => library::run(cfg, 2, tracer),
        Workload::WideIngest => library::run(cfg, 8, tracer),
        Workload::TenantChurn => service::churn(cfg, tracer),
        Workload::QueryPoll => service::poll(cfg, tracer),
    }
}

fn report(defs: &[MetricDef], got: &BTreeMap<&'static str, (f64, u64)>) -> Vec<Reported> {
    defs.iter()
        .map(|d| {
            let (value, samples) = got.get(d.name).copied().unwrap_or((0.0, 0));
            Reported {
                name: d.name,
                unit: d.unit,
                value,
                samples,
            }
        })
        .collect()
}

/// Runs one workload. An untraced run makes one pass and reports the
/// end-to-end metrics. A traced run makes the same untraced pass (for
/// the tails and the overhead baseline), then a traced pass that
/// supplies the per-layer metrics.
pub fn run(cfg: &Config) -> Outcome {
    let base = drive(cfg, &mut Tracer::new(false));
    let mut attempted = base.attempted;
    let mut failed = base.failed;
    let mut correct = base.failed == 0;
    let mut got: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    if !cfg.trace {
        let n = |v: &[u64]| v.len() as u64;
        let mut put = |name, v: Option<f64>, samples| {
            if let Some(v) = v {
                got.insert(name, (v, samples));
            }
        };
        put(
            "setup_s",
            median(&base.setups_s),
            base.setups_s.len() as u64,
        );
        if let Some(m) = base.measured() {
            put(
                "throughput_ops_per_s",
                Some(m.ops as f64 / m.secs),
                m.slices as u64,
            );
            put("write_us", mean_u64(m.writes).map(|v| v / 1e3), n(m.writes));
            put(
                "query_ms",
                mean_u64(m.queries).map(|v| v / 1e6),
                n(m.queries),
            );
        }
        put("peak_rss_mb", Some(base.peak_rss_mb), 1);
        put(
            "coreset_points",
            median_u64(&base.coreset_sizes),
            n(&base.coreset_sizes),
        );
        let mut worst: f64 = 0.0;
        for (i, c) in base.captures.iter().enumerate() {
            attempted += 1;
            match quality::cost_ratio(
                c,
                &base.params,
                base.center_sets,
                data::mix(cfg.seed, 9, i as u64),
            ) {
                Some(r) => worst = worst.max(r),
                None => {
                    eprintln!("quality check failed: capture {i} has an infinite cost");
                    failed += 1;
                    correct = false;
                }
            }
        }
        put(
            "coreset_cost_ratio",
            (!base.captures.is_empty()).then_some(worst),
            base.captures.len() as u64,
        );
        let metrics = report(END_TO_END, &got);
        correct &= metrics.iter().all(|m| m.samples > 0);
        return Outcome {
            correct,
            attempted,
            failed,
            metrics,
            tracer: None,
            requests: Vec::new(),
        };
    }
    let mut tracer = Tracer::new(true);
    let traced = drive(cfg, &mut tracer);
    attempted += traced.attempted;
    failed += traced.failed;
    correct &= traced.failed == 0;
    got = traced.layer.clone();
    let tail = |ns: &[u64], per: f64| quantile(ns, 0.99).map(|v| (v / per, ns.len() as u64));
    if let Some(v) = tail(&base.write_ns, 1e3) {
        got.insert("client.write_p99_us", v);
    }
    if let Some(v) = tail(&base.query_ns, 1e6) {
        got.insert("client.query_p99_ms", v);
    }
    let checks = base.checks + traced.checks;
    if checks > 0 {
        got.insert(
            "streaming.emission_rounding_frac",
            (
                (base.rounding + traced.rounding) as f64 / checks as f64,
                checks,
            ),
        );
    }
    got.insert(
        "trace_overhead_frac",
        (
            traced.call_ns_per_op() / base.call_ns_per_op().max(1e-9) - 1.0,
            traced.ops,
        ),
    );
    Outcome {
        correct,
        attempted,
        failed,
        metrics: report(PER_LAYER, &got),
        tracer: Some(tracer),
        requests: traced.requests,
    }
}
