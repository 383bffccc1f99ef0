//! Benchmark-owned spans, recorded around calls into the program's
//! public functions (spans inside the program are a later change).
//!
//! Spans stay in memory and are written out once, at exit. A layer's
//! self time is its span minus the part of that interval its child spans
//! cover; a round span whose children cover under
//! [`MIN_ATTRIBUTION`] of it means the trace no longer explains the
//! round, and fails the run.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Least share of a round span its children must cover.
pub const MIN_ATTRIBUTION: f64 = 0.90;
/// Name of the span the harness opens around every benchmark round.
pub const ROUND: &str = "round";

/// One timed interval. `parent == 0` marks a root; `count` is the work
/// the span did, in the unit its name implies (updates, messages, rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn ms(&self) -> f64 {
        self.ns() as f64 / 1e6
    }

    /// Which tracer recorded it: 0 is the main thread's.
    pub fn lane(&self) -> u32 {
        self.id >> 28
    }
}

/// Handle of an open span; `None` while the gate is shut.
pub type Open = Option<usize>;

/// A per-thread span recorder. Tracers forked from one root share its
/// clock and its gate, so one switch turns every thread's recording on
/// or off between rounds.
pub struct Tracer {
    gate: Arc<AtomicBool>,
    epoch: Instant,
    /// High bits of every id this tracer hands out: ids stay unique
    /// across threads without coordination.
    lane: u32,
    round: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// The main thread's tracer.
    pub fn root(on: bool) -> Self {
        Self {
            gate: Arc::new(AtomicBool::new(on)),
            epoch: Instant::now(),
            lane: 0,
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer for another thread, on the same clock and gate.
    pub fn fork(&self, lane: u32) -> Self {
        assert!((1..16).contains(&lane), "lane {lane} out of range");
        Self {
            gate: Arc::clone(&self.gate),
            epoch: self.epoch,
            lane,
            round: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_on(&self, on: bool) {
        // Flipped between rounds only; spans publish nothing through it.
        self.gate.store(on, Ordering::Relaxed);
    }

    pub fn on(&self) -> bool {
        self.gate.load(Ordering::Relaxed)
    }

    /// Round stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on() {
            return None;
        }
        let idx = self.spans.len();
        let id = (self.lane << 28) | (idx as u32 + 1);
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, name, round: self.round, start_ns, end_ns: start_ns, count: 0 });
        self.stack.push(id);
        Some(idx)
    }

    /// Closes the innermost span, which must be `open`.
    pub fn close(&mut self, open: Open, count: u64) {
        let Some(idx) = open else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.count = count;
        assert_eq!(self.stack.pop(), Some(span.id), "span {} closed out of order", span.name);
    }

    /// Times a call that opens no spans of its own.
    pub fn time<R>(&mut self, name: &'static str, count: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open, count);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "tracer dropped with {} spans open", self.stack.len());
        self.spans
    }
}

/// Parent → children lookup over a finished span list.
pub struct SpanTree<'a> {
    spans: &'a [Span],
    children: HashMap<u32, Vec<usize>>,
}

impl<'a> SpanTree<'a> {
    pub fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        Self { spans, children }
    }

    /// Nanoseconds of `span` covered by the union of its children.
    pub fn covered_ns(&self, span: &Span) -> u64 {
        let Some(kids) = self.children.get(&span.id) else { return 0 };
        let mut iv: Vec<(u64, u64)> = kids
            .iter()
            .map(|&i| (self.spans[i].start_ns.max(span.start_ns), self.spans[i].end_ns.min(span.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        iv.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (s, e) in iv {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        covered
    }

    /// Span duration minus what its children cover.
    pub fn self_ns(&self, span: &Span) -> u64 {
        span.ns() - self.covered_ns(span)
    }

    /// Share of all `name` spans' time their children cover.
    pub fn coverage(&self, name: &str) -> f64 {
        let (mut total, mut covered) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            total += s.ns();
            covered += self.covered_ns(s);
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Worst single-span child coverage among `name` spans.
    pub fn min_coverage(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.ns() > 0)
            .map(|s| self.covered_ns(s) as f64 / s.ns() as f64)
            .fold(1.0, f64::min)
    }
}

/// Duration in ms of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Per round, the summed duration in ms of the spans called `name`,
/// in round order.
pub fn per_round_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_round: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_round.entry(s.round).or_default() += s.ms();
    }
    by_round.into_values().collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"round\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.id, s.parent, s.name, s.round, s.start_ns, s.end_ns, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, round: 0, start_ns, end_ns, count: 0 }
    }

    #[test]
    fn self_time_and_coverage_on_a_hand_built_tree() {
        // round [0,100): a [10,40), b [30,60) overlaps a, c [70,90);
        // a has one child a1 [15,25).
        let spans = vec![
            span(1, 0, ROUND, 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 60),
            span(4, 1, "c", 70, 90),
            span(5, 2, "a1", 15, 25),
        ];
        let tree = SpanTree::new(&spans);
        // Union of children: [10,60) + [70,90) = 70.
        assert_eq!(tree.covered_ns(&spans[0]), 70);
        assert_eq!(tree.self_ns(&spans[0]), 30);
        assert_eq!(tree.self_ns(&spans[1]), 20);
        assert_eq!(tree.self_ns(&spans[4]), 10);
        assert!((tree.coverage(ROUND) - 0.70).abs() < 1e-12);
        assert!(tree.coverage(ROUND) < MIN_ATTRIBUTION);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span(1, 0, ROUND, 10, 20), span(2, 1, "x", 0, 15), span(3, 1, "y", 18, 99)];
        let tree = SpanTree::new(&spans);
        assert_eq!(tree.covered_ns(&spans[0]), 5 + 2);
    }

    #[test]
    fn min_coverage_finds_the_one_unexplained_round() {
        let spans = vec![
            span(1, 0, ROUND, 0, 100),
            span(2, 1, "x", 0, 100),
            span(3, 0, ROUND, 100, 200),
            span(4, 3, "x", 100, 150),
        ];
        let tree = SpanTree::new(&spans);
        assert!((tree.coverage(ROUND) - 0.75).abs() < 1e-12);
        assert!((tree.min_coverage(ROUND) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_gates() {
        let mut tr = Tracer::root(true);
        tr.set_round(7);
        let round = tr.open(ROUND);
        tr.time("inner", 3, || ());
        tr.close(round, 1);
        tr.set_on(false);
        let shut = tr.open(ROUND);
        assert!(shut.is_none());
        tr.time("inner", 0, || ());
        tr.close(shut, 0);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].round), (ROUND, 0, 7));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].count), ("inner", spans[0].id, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn forked_tracers_hand_out_disjoint_ids() {
        let root = Tracer::root(true);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        a.time("x", 0, || ());
        b.time("x", 0, || ());
        assert_ne!(a.into_spans()[0].id, b.into_spans()[0].id);
    }

    #[test]
    fn per_round_sums_group_by_round() {
        let mut s1 = span(1, 0, "h", 0, 2_000_000);
        let mut s2 = span(2, 0, "h", 0, 3_000_000);
        let mut s3 = span(3, 0, "h", 0, 1_000_000);
        (s1.round, s2.round, s3.round) = (1, 1, 2);
        assert_eq!(per_round_ms(&[s1, s2, s3], "h"), vec![5.0, 1.0]);
    }
}
