//! The benchmark's own spans and sample statistics.
//!
//! A span records one call into a layer: name, start, end, the span that
//! enclosed it, and the request it belongs to. Spans live in memory and
//! are written out as JSONL when the run ends, so recording one costs a
//! clock read and a `Vec` push.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `stepper.drive`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span served.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag every span opened from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one; returns
    /// its duration in milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ms()
    }

    /// Close every open span (after a request failed part-way).
    pub fn close_all(&mut self) {
        while let Some(id) = self.open.last().copied() {
            self.end(id);
        }
    }

    /// Run `f` inside a span; returns its result and the span's ms.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// The time of span `id` that none of its direct children covers.
    pub fn uncovered_ms(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum();
        self.spans[id].ms() - children
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics, as `statistics.quantiles(method="inclusive")` does).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}
