//! Benchmark-side spans: every public call the benchmark makes into the
//! system can be wrapped in a span that records its name, start, end,
//! parent span and the client request it belongs to. Spans live in
//! memory until the run ends; with tracing off, `enter`/`exit` record
//! nothing and cost one branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `api.frame_requests`.
    pub name: &'static str,
    /// Client request this span belongs to (shared by all its spans).
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Token returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<usize>);

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a new request id; spans entered from now on share it.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        // Grow the buffers before reading the clock, so a reallocation
        // lands in the parent's self time (tracer overhead), not here.
        self.spans.reserve(1);
        self.stack.reserve(1);
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` (which must be the innermost one).
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost-first");
        }
    }

    /// Duration of a closed span (`None` with tracing off).
    pub fn dur(&self, open: Open) -> Option<u64> {
        open.0.map(|i| self.spans[i].dur_ns())
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// All recorded spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                out[p] = out[p].saturating_sub(s.dur_ns());
            }
        }
        out
    }

    /// Self time per layer over the spans of requests whose root span is
    /// named `root`: `layer -> (self ns, spans)`.
    pub fn layer_self_ns(&self, root: &str) -> BTreeMap<&'static str, (u64, u64)> {
        let selfs = self.self_times();
        let roots: std::collections::HashSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| s.request)
            .collect();
        let mut out = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&selfs) {
            if roots.contains(&s.request) {
                let e = out.entry(s.layer()).or_insert((0, 0));
                e.0 += ns;
                e.1 += 1;
            }
        }
        out
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            ));
        }
        out.push(']');
        out
    }
}
