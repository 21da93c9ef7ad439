//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the harness around its own calls into a layer's
//! public functions (tracing inside the program is a later change). Each
//! thread owns a [`Tracer`]; the run merges them and writes one JSON-lines
//! file when it ends. With tracing off every method is a branch on a bool.

use std::fmt::Write as _;
use std::time::Instant;

use crate::metrics::Row;

/// Index of a span inside its tracer, plus one; 0 means "no parent".
pub type SpanId = u32;
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    /// Request the span belongs to (0 = none); spans of one request share it.
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls the span covers: probes of nanosecond-scale functions time a
    /// batch under one span, because a span per call would cost more than
    /// the call.
    pub calls: u32,
}

pub struct Tracer {
    on: bool,
    /// Whether [`Tracer::begin_round`] flips `on`.
    alternating: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Spans a recording tracer has room for before its vector first grows, so
/// that no timed operation pays for a reallocation.
const PREALLOCATED: usize = 1 << 16;

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        let spans = Vec::with_capacity(if on { PREALLOCATED } else { 0 });
        Tracer { on, alternating: false, epoch, spans }
    }

    /// The tracer of a traced run: it records every other round, starting
    /// with the first, so that rounds with spans and rounds without see the
    /// same store at the same time of day and their rates can be compared
    /// (`harness.trace_overhead_share`).
    pub fn alternating(epoch: Instant) -> Self {
        Tracer { on: false, alternating: true, ..Tracer::new(true, epoch) }
    }

    /// Called by a workload as each round starts; whether this round records.
    pub fn begin_round(&mut self) -> bool {
        if self.alternating {
            self.on = !self.on;
        }
        self.on
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, parent, req, start_ns, dur_ns: 0, calls: 1 });
        self.spans.len() as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.close_calls(id, 1);
    }

    /// Closes a span that covered `calls` calls of the named function.
    pub fn close_calls(&mut self, id: SpanId, calls: u32) {
        if !self.on || id == ROOT {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize - 1];
        s.dur_ns = now.saturating_sub(s.start_ns);
        s.calls = calls;
    }

    /// Records a finished span from timestamps the caller already took
    /// (the workloads time every operation anyway, traced or not).
    #[inline]
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        dur_ns: u64,
    ) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, parent, req, start_ns, dur_ns, calls: 1 });
        self.spans.len() as SpanId
    }

    /// Records one span for `calls` back-to-back calls of a function too
    /// short to afford a span each: it starts with the first call and lasts
    /// the sum of the calls' own durations.
    #[inline]
    pub fn leaf_calls(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        dur_ns: u64,
        calls: u32,
    ) {
        let id = self.leaf(name, parent, 0, start, dur_ns);
        if id != ROOT {
            self.spans[id as usize - 1].calls = calls;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once, and a
/// child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // (parent, start, end) of every child, clipped; sorted, a parent's
    // children are together and in start order.
    let mut kids: Vec<(SpanId, u64, u64)> = spans
        .iter()
        .filter(|s| s.parent != ROOT)
        .filter_map(|s| {
            let p = &spans[s.parent as usize - 1];
            let lo = s.start_ns.max(p.start_ns);
            let hi = (s.start_ns + s.dur_ns).min(p.start_ns + p.dur_ns);
            (hi > lo).then_some((s.parent, lo, hi))
        })
        .collect();
    kids.sort_unstable();
    let mut covered = vec![0u64; spans.len()];
    let (mut parent, mut reach) = (ROOT, 0u64);
    for (p, lo, hi) in kids {
        if p != parent {
            (parent, reach) = (p, 0);
        }
        let lo = lo.max(reach);
        if hi > lo {
            covered[p as usize - 1] += hi - lo;
            reach = hi;
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.dur_ns.saturating_sub(c)).collect()
}

/// Totals per span name, in first-seen order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTotal {
    pub name: &'static str,
    pub spans: u64,
    pub calls: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> Vec<NameTotal> {
    let selfs = self_times(spans);
    let mut out: Vec<NameTotal> = Vec::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let slot = out.iter().position(|t| t.name == s.name).unwrap_or_else(|| {
            out.push(NameTotal { name: s.name, spans: 0, calls: 0, dur_ns: 0, self_ns: 0 });
            out.len() - 1
        });
        let t = &mut out[slot];
        t.spans += 1;
        t.calls += u64::from(s.calls);
        t.dur_ns += s.dur_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Spans written in full; a longer trace is cut here and says so in its
/// header (the per-name totals always cover every span).
const MAX_SPAN_LINES: usize = 200_000;

/// Renders the trace as JSON lines: a header, the per-name totals, the
/// per-layer numbers, then the spans.
pub fn render(workload: &str, seed: u64, spans: &[Span], per_layer: &[Row]) -> String {
    let written = spans.len().min(MAX_SPAN_LINES);
    let mut out = String::with_capacity(256 + written * 96);
    let _ = writeln!(
        out,
        "{{\"trace\":\"li-perf\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{},\"spans_written\":{written}}}",
        spans.len()
    );
    for t in totals(spans) {
        let _ = writeln!(
            out,
            "{{\"total\":\"{}\",\"spans\":{},\"calls\":{},\"dur_ns\":{},\"self_ns\":{}}}",
            t.name, t.spans, t.calls, t.dur_ns, t.self_ns
        );
    }
    for Row { name, value, unit, .. } in per_layer {
        let _ = writeln!(out, "{{\"metric\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    for (i, s) in spans.iter().take(written).enumerate() {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
            i + 1,
            s.parent,
            s.req,
            s.name,
            s.start_ns,
            s.dur_ns,
            s.calls
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, dur_ns: u64) -> Span {
        Span { name, parent, req: 0, start_ns, dur_ns, calls: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("request", ROOT, 100, 100), // [100, 200)
            span("send", 1, 110, 20),        // [110, 130)
            span("recv", 1, 120, 30),        // [120, 150) overlaps send
            span("late", 1, 190, 50),        // clipped to [190, 200)
            span("decode", 3, 125, 5),       // grandchild: only recv's self time
        ];
        let st = self_times(&spans);
        // request: 100 - ([110,150) = 40) - ([190,200) = 10) = 50
        assert_eq!(st, vec![50, 20, 25, 50, 5]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans =
            [span("rep", ROOT, 0, 100), span("store.get", 1, 10, 30), span("store.get", 1, 50, 40)];
        let t = totals(&spans);
        assert_eq!(t.len(), 2);
        assert_eq!((t[0].name, t[0].self_ns, t[0].dur_ns), ("rep", 30, 100));
        assert_eq!((t[1].name, t[1].spans, t[1].dur_ns, t[1].self_ns), ("store.get", 2, 70, 70));
    }

    #[test]
    fn absorb_rebases_parents_and_off_records_nothing() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let root = a.open("a", ROOT, 0);
        a.close(root);
        let mut b = Tracer::new(true, epoch);
        let p = b.open("b", ROOT, 7);
        let c = b.open("b.child", p, 7);
        b.close_calls(c, 16);
        b.close(p);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent, s[2].calls, s[2].req), (ROOT, 2, 16, 7));

        let mut off = Tracer::new(false, epoch);
        let id = off.open("x", ROOT, 0);
        off.close(id);
        off.leaf("y", ROOT, 0, epoch, 5);
        assert!(!off.begin_round() && off.spans().is_empty());
    }

    #[test]
    fn alternating_records_every_other_round() {
        let mut t = Tracer::alternating(Instant::now());
        let recorded: Vec<bool> = (0..4)
            .map(|_| {
                let on = t.begin_round();
                t.leaf("op", ROOT, 0, t.epoch(), 1);
                on
            })
            .collect();
        assert_eq!(recorded, [true, false, true, false]);
        assert_eq!(t.spans().len(), 2);
    }
}
