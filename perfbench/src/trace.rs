//! Spans around the benchmark's calls into each layer of the library.
//!
//! A [`Tracer`] records one [`Span`] per timed call: its name, start and
//! end, the span that caused it and the request it belongs to. Spans stay
//! in memory; [`chrome_trace`] renders them once, at the end of a run, as
//! Chrome trace-event JSON, and [`self_times`] folds them into per-layer
//! self time. A disabled tracer still times the call (the untraced run
//! needs the durations) but records nothing.

use std::time::{Duration, Instant};

/// Index of a recorded span, or [`NONE`] when the tracer is off or the
/// span has no parent.
pub type SpanId = usize;

/// The "no span" id.
pub const NONE: SpanId = usize::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `nnc.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// The causing span (index into the same tracer), or [`NONE`].
    pub parent: SpanId,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Thread lane (0 = main thread, then one per reader thread).
    pub lane: u32,
}

/// An open span: its id (or [`NONE`]) and start instant.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The span's id, [`NONE`] when the tracer is off.
    pub id: SpanId,
    start: Instant,
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer for `lane` whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant, lane: u32) -> Self {
        Tracer {
            enabled,
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Switches recording on or off (the traced run's untraced passes).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span named `name` under `parent`; the call it covers runs
    /// until the matching [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> Open {
        let start = Instant::now();
        let id = if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(start),
                parent,
                request,
                lane: self.lane,
            });
            self.spans.len() - 1
        } else {
            NONE
        };
        Open { id, start }
    }

    /// Closes `span` and returns its duration.
    pub fn close(&mut self, span: Open) -> Duration {
        let end = Instant::now();
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.get_mut(span.id) {
            s.end_ns = end_ns;
        }
        end - span.start
    }

    /// Runs `f` inside a span; returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let span = self.open(name, parent, request);
        let out = f();
        (out, self.close(span))
    }

    /// Records an interval timed elsewhere (inside a closure handed to the
    /// library) as a span under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent,
                request,
                lane: self.lane,
            });
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: `(name, calls, total self ms)`, sorted by name.
/// A span's self time is its duration minus the part of it that its
/// children cover. Spans of several tracers are passed lane by lane,
/// since parent ids index within one tracer.
pub fn self_times(lanes: &[Vec<Span>]) -> Vec<(&'static str, u64, f64)> {
    let mut acc: Vec<(&'static str, u64, f64)> = Vec::new();
    for spans in lanes {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        for (s, kids) in spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*kids) as f64 / 1e6;
            match acc.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += own;
                }
                None => acc.push((s.name, 1, own)),
            }
        }
    }
    acc.sort_by(|a, b| a.0.cmp(b.0));
    acc
}

/// Chrome trace-event JSON (`"ph":"X"` complete events, microseconds),
/// one `tid` per lane; `args` carries the request id and the parent's
/// event index within its lane.
pub fn chrome_trace(lanes: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for spans in lanes {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.request
            ));
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
