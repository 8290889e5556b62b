//! Runs every workload at a tiny size, untraced and traced, and checks
//! the benchmark's own contract: every named metric is emitted with its
//! unit, outputs check out, spans nest, and each client request's layer
//! self times add up to the request time measured around the call.

use sbc_ledger::{run, Config, Scale, Workload, END_TO_END, PER_LAYER};

/// A request's layer self times may fall short of the time measured
/// around the call by the tracer's own bookkeeping: at most this share
/// of the request plus a fixed allowance, on at least 95% of requests
/// and over all requests together.
const SLACK_FRAC: f64 = 0.05;
const SLACK_NS: u64 = 50_000;

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.3,
        trace,
        scale: Scale::Tiny,
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for w in Workload::ALL {
        let out = run(&tiny(w, false));
        assert!(out.correct, "{}: output check failed", w.name());
        assert_eq!(out.failed, 0, "{}", w.name());
        assert!(out.attempted > 0, "{}", w.name());
        assert_eq!(out.metrics.len(), END_TO_END.len());
        for (m, def) in out.metrics.iter().zip(END_TO_END) {
            assert_eq!((m.name, m.unit), (def.name, def.unit));
            assert!(
                m.samples > 0 && m.value.is_finite() && m.value > 0.0,
                "{}: {} = {} from {} samples",
                w.name(),
                m.name,
                m.value,
                m.samples
            );
        }
    }
}

#[test]
fn traced_runs_emit_every_layer_metric_and_consistent_spans() {
    for w in Workload::ALL {
        let out = run(&tiny(w, true));
        assert!(out.correct, "{}: output check failed", w.name());
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        for (m, def) in out.metrics.iter().zip(PER_LAYER) {
            assert_eq!((m.name, m.unit), (def.name, def.unit));
            assert!(m.value.is_finite(), "{}: {}", w.name(), m.name);
        }
        let exercised = |name: &str| out.metrics.iter().any(|m| m.name == name && m.samples > 0);
        for name in [
            "trace_overhead_frac",
            "streaming.insert_ns_per_op",
            "streaming.export_ms",
            "streaming.assemble_ms",
            "storing.space_report_us",
        ] {
            assert!(exercised(name), "{}: {name} not measured", w.name());
        }
        if matches!(w, Workload::TenantChurn | Workload::QueryPoll) {
            for name in [
                "api.encode_ns_per_req",
                "service.handle_write_p50_us",
                "service.self_us_per_write",
                "service.handle_query_p50_ms",
            ] {
                assert!(exercised(name), "{}: {name} not measured", w.name());
            }
        }

        let tr = out.tracer.as_ref().expect("a traced run keeps its spans");
        let spans = tr.spans();
        assert!(!spans.is_empty());
        for s in spans {
            assert!(
                s.start_ns <= s.end_ns,
                "{}: {} ends first",
                w.name(),
                s.name
            );
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{}: {} not inside {}",
                    w.name(),
                    s.name,
                    parent.name
                );
                assert_eq!(
                    parent.request,
                    s.request,
                    "{}: request ids differ",
                    w.name()
                );
            }
        }

        let selfs = tr.self_times();
        assert!(!out.requests.is_empty(), "{}: no client requests", w.name());
        let (mut within, mut self_total, mut measured_total) = (0usize, 0u64, 0u64);
        for &(id, measured) in &out.requests {
            let sum: u64 = spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.request == id)
                .map(|(_, &ns)| ns)
                .sum();
            assert!(
                sum <= measured,
                "{}: request {id} spans outlast it",
                w.name()
            );
            let slack = (measured as f64 * SLACK_FRAC) as u64 + SLACK_NS;
            within += usize::from(measured - sum <= slack);
            self_total += sum;
            measured_total += measured;
        }
        // A preemption between the client's clock read and the first
        // span lands outside every layer; allow it on a few requests.
        assert!(
            within * 100 >= out.requests.len() * 95,
            "{}: only {within} of {} requests add up within the slack",
            w.name(),
            out.requests.len()
        );
        assert!(
            self_total as f64 >= measured_total as f64 * (1.0 - SLACK_FRAC),
            "{}: layer self times cover {self_total} of {measured_total} ns",
            w.name()
        );
    }
}

/// `BENCHMARK.json` at the repository root lists exactly the catalog's
/// listed workloads and its metrics, with the same units.
#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let unit_of = |name: &str| -> Option<String> {
        let at = text.find(&format!("\"name\": \"{name}\""))?;
        let entry = &text[at..at + text[at..].find('}')?];
        let u = entry.find("\"unit\": \"")? + "\"unit\": \"".len();
        Some(entry[u..u + entry[u..].find('"')?].to_string())
    };
    for w in Workload::ALL {
        assert_eq!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            Workload::LISTED.contains(&w),
            "workload {}",
            w.name()
        );
    }
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert_eq!(unit_of(def.name).as_deref(), Some(def.unit), "{}", def.name);
    }
    let names = text.matches("\"name\":").count();
    assert_eq!(
        names,
        Workload::LISTED.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
