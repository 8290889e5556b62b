//! `ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints one JSON object as the last line of
//! standard output: `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics untraced, per-layer metrics traced). A
//! human-readable table with each metric's sample count goes to
//! standard error. A traced run also writes its spans to
//! `ledger/out/<workload>-seed<n>.spans.json`.

use std::process::ExitCode;

use sbc_ledger::{run, Config, Outcome, Scale, Workload};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => workload = it.next().and_then(|v| Workload::parse(v)),
            "--seed" => seed = it.next().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = it.next().and_then(|v| v.parse::<f64>().ok()),
            "--trace" => trace = it.next().and_then(|v| v.parse::<u8>().ok()),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace @ (0 | 1))) =
        (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if !seconds.is_finite() || seconds <= 0.0 {
        return usage();
    }
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace: trace == 1,
        scale: Scale::Full,
    };
    let out = run(&cfg);
    for m in &out.metrics {
        eprintln!(
            "{:<40} {:>16.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(tr) = &out.tracer {
        let path = format!("ledger/out/{}-seed{}.spans.json", workload.name(), seed);
        let path = std::path::Path::new(&path);
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, tr.to_json()) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{}", json(&out));
    ExitCode::SUCCESS
}
