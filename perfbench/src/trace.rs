//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer of the program, held in memory, and written out as
//! JSONL when the run ends. A span's *self time* is its duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `nn.train`.
    pub name: &'static str,
    /// Index of the parent span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one request (0 = none).
    pub trace: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name rollup of a tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// A span recorder. Not shared between threads: each client thread
/// owns one over a common epoch and [`Tracer::absorb`] merges them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// ns since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span and returns its
    /// handle for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, trace: u64) -> usize {
        let start_ns = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            trace,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `handle` (and any span left open inside it).
    pub fn exit(&mut self, handle: usize) {
        let end_ns = self.now_ns();
        while let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end_ns;
            if index == handle {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let handle = self.enter(name, 0);
        let out = f();
        self.exit(handle);
        out
    }

    /// Records an already-measured child interval of `parent`: the
    /// program reported its duration, and the child starts
    /// `offset_ns` after the parent does.
    pub fn record_child(
        &mut self,
        parent: usize,
        name: &'static str,
        offset_ns: u64,
        duration_ns: u64,
    ) {
        let p = self.spans[parent];
        let start_ns = p.start_ns.saturating_add(offset_ns).min(p.end_ns);
        self.spans.push(Span {
            name,
            parent: Some(parent),
            trace: p.trace,
            start_ns,
            end_ns: start_ns.saturating_add(duration_ns).min(p.end_ns),
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, index-aligned with [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.duration_ns() - covered_ns(span, kids))
            .collect()
    }

    /// Count, wall and self time per span name.
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let r = out.entry(span.name).or_default();
            r.count += 1;
            r.total_ns += span.duration_ns();
            r.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (i, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.trace, span.name, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Writes a traced-versus-untraced table: `(metric, untraced, traced)`.
pub fn write_overhead(path: &Path, rows: &[(&str, f64, f64)]) -> Result<(), String> {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, untraced, traced)| {
            format!(
                "\"{name}\":{{\"untraced\":{untraced:?},\"traced\":{traced:?},\
                 \"overhead_pct\":{:?}}}",
                (traced - untraced) / untraced * 100.0
            )
        })
        .collect();
    std::fs::write(path, format!("{{{}}}\n", body.join(",")))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Length of the union of `kids` clipped to `span`.
fn covered_ns(span: &Span, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            trace: 0,
            start_ns,
            end_ns,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let t = tracer(vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 90),
            span("a.inner", Some(1), 12, 20),
        ]);
        assert_eq!(t.self_times_ns(), vec![40, 12, 40, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let t = tracer(vec![
            span("root", None, 100, 200),
            span("x", Some(0), 90, 150),
            span("y", Some(0), 140, 160),
            span("z", Some(0), 190, 260),
        ]);
        // Covered: [100, 160) ∪ [190, 200) = 70.
        assert_eq!(t.self_times_ns()[0], 30);
        let rollup = t.rollup();
        assert_eq!(rollup["root"].self_ns, 30);
        assert_eq!(rollup["x"].total_ns, 60);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_the_root_wall() {
        let t = tracer(vec![
            span("root", None, 0, 1000),
            span("s1", Some(0), 0, 400),
            span("s2", Some(0), 400, 1000),
            span("s2.a", Some(2), 450, 700),
            span("s2.b", Some(2), 700, 990),
        ]);
        let total: u64 = t.self_times_ns().iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn nested_enter_exit_links_parents_and_absorb_rebases() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.exit(outer);
        t.record_child(outer, "reported", 0, u64::MAX);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].end_ns, t.spans()[0].end_ns);
        let mut merged = Tracer::new(epoch);
        merged.span("first", || ());
        merged.absorb(t);
        assert_eq!(merged.spans()[2].parent, Some(1));
        assert_eq!(merged.spans().len(), 4);
    }
}
