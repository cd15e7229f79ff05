//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end on a
//! monotonic clock, the span that was open when it started, and the
//! grid point it served. Spans stay in memory until the run ends, when
//! they are aggregated into per-layer self times and written out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `"sim.run"`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to `start_ns` while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Grid-point id within the pass (`u32::MAX` for pass-level spans).
    pub point: u32,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Grid-point id of spans that belong to a whole file, not one point.
pub const NO_POINT: u32 = u32::MAX;

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name` for grid point `point`.
    pub fn span<T>(&mut self, name: &'static str, point: u32, f: impl FnOnce() -> T) -> T {
        let index = self.enter(name, point);
        let out = f();
        self.exit(index);
        out
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, point: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            point,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut total = 0;
            let mut cursor = span.start_ns;
            for (start, end) in covered {
                let start = start.clamp(cursor, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                total += end - start;
                cursor = end;
            }
            span.duration_ns() - total
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTotal {
    /// Number of spans.
    pub calls: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Summed wall duration.
    pub total_ns: u64,
}

/// Sums calls, self time and duration by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.calls += 1;
        entry.self_ns += self_ns;
        entry.total_ns += span.duration_ns();
    }
    totals
}

/// Renders spans as JSON lines: one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, span) in spans.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let point = if span.point == NO_POINT {
            "null".to_string()
        } else {
            span.point.to_string()
        };
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"point\":{point}}}",
            span.name, span.start_ns, span.end_ns
        )
        .expect("writing to a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            point: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", 10, 25, None)];
        assert_eq!(self_times(&spans), vec![15]);
    }

    #[test]
    fn parent_self_time_excludes_direct_children_only() {
        // root [0,100) holds a [10,40) and b [50,70); a holds c [20,30).
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("c", 20, 30, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let sum: u64 = self_times(&spans).iter().sum();
        assert_eq!(sum, 100, "self times partition the root interval");
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 130, Some(0)),
        ];
        // Covered: [10,80) and [90,100) = 80 ns; self = 20 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_spans_and_totals_by_name() {
        let mut tracer = Tracer::new();
        let outer = tracer.enter("outer", 3);
        tracer.span("inner", 3, || std::hint::black_box(1 + 1));
        tracer.span("inner", 3, || ());
        tracer.exit(outer);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let totals = totals_by_name(spans);
        assert_eq!(totals["inner"].calls, 2);
        assert_eq!(
            totals["outer"].self_ns + totals["inner"].self_ns,
            totals["outer"].total_ns
        );
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut tracer = Tracer::new();
        let a = tracer.enter("a", 0);
        let _b = tracer.enter("b", 0);
        tracer.exit(a);
    }
}
