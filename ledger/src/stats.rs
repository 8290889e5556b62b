//! Sample summaries and the pausable stopwatch behind the timed phase.

use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `xs` by nearest rank, or `None` when
/// fewer than ten samples lie beyond it (too few for the tail to be a
/// measurement rather than a single outlier).
pub fn quantile(xs: &[u64], q: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || ((n as f64) * (1.0 - q)).floor() < 10.0 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(v[rank - 1] as f64)
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    })
}

/// Mean of integer samples.
pub fn mean_u64(xs: &[u64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<u64>() as f64 / xs.len() as f64)
}

/// Median of integer samples.
pub fn median_u64(xs: &[u64]) -> Option<f64> {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// Accumulates wall time only while running, so bookkeeping the
/// benchmark does between calls (input generation, quality capture,
/// library twins) stays out of the timed phase.
pub struct Stopwatch {
    since: Option<Instant>,
    acc: Duration,
}

impl Stopwatch {
    /// A running stopwatch.
    pub fn start() -> Stopwatch {
        Stopwatch {
            since: Some(Instant::now()),
            acc: Duration::ZERO,
        }
    }

    /// Stops accumulating.
    pub fn pause(&mut self) {
        if let Some(t) = self.since.take() {
            self.acc += t.elapsed();
        }
    }

    /// Resumes accumulating.
    pub fn resume(&mut self) {
        if self.since.is_none() {
            self.since = Some(Instant::now());
        }
    }

    /// Accumulated seconds.
    pub fn secs(&self) -> f64 {
        (self.acc + self.since.map_or(Duration::ZERO, |t| t.elapsed())).as_secs_f64()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
