//! Structured event tracing: causally-ordered span trees with exact
//! latency attribution.
//!
//! A [`Span`] is a named interval of simulated time with an optional
//! parent, and [`SpanRecorder`] is the ring buffer instrumented code
//! records them into. Simulator code opens a root span per transaction walk,
//! nests component spans underneath (ring hops, QPI serialization, snoop
//! round trips, directory and HitME lookups, DRAM accesses …), and
//! closes the walk with [`SpanRecorder::record_walk`].
//!
//! Two invariants make the traces trustworthy:
//!
//! 1. **Well-formed trees.** Instrumented code runs sequentially even
//!    when the *simulated* intervals overlap, so the recorder maintains a
//!    parent stack: `begin` pushes, `end` pops. Child starts are clamped
//!    to their parent's start, and a child's end is propagated into every
//!    ancestor, so a child interval always nests inside its parent.
//! 2. **Exact attribution.** [`SpanRecorder::attribution`] partitions the
//!    walk's `[issued, done]` interval — integer picoseconds — among the
//!    *innermost* span covering each sub-interval. Because it is a true
//!    partition, the per-component durations sum to the reported latency
//!    exactly, with no rounding residue, even when parallel protocol
//!    actions (a snoop racing the speculative DRAM read) overlap in time.
//!
//! Exporters: [`SpanRecorder::chrome_json`] emits Chrome trace-event /
//! Perfetto JSON (validated by [`validate_trace_json`]) and
//! [`SpanRecorder::waterfall`] renders a terminal view of one walk.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Attribution bucket for time inside a walk not covered by any
/// component span (queueing between instrumented stages).
pub const GAP: &str = "(uninstrumented gap)";

/// Identifier of a recorded span: a monotonically increasing sequence
/// number, unique within one [`SpanRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// One named interval of simulated time in a causally-ordered tree.
#[derive(Debug, Clone)]
pub struct Span {
    /// Sequence number (also encodes causal order of emission).
    pub id: SpanId,
    /// Enclosing span, `None` for a walk root.
    pub parent: Option<SpanId>,
    /// Component name, e.g. `"dram_row"`.
    pub name: &'static str,
    /// Coarse category, e.g. `"mem"`, `"qpi"`, `"coherence"`.
    pub cat: &'static str,
    /// Interval start (clamped to not precede the parent's start).
    pub start: SimTime,
    /// Interval end (raised to cover every child).
    pub end: SimTime,
    /// Free-form annotation (e.g. `"row=hit ch=2"`).
    pub detail: Option<String>,
    /// Latest end among direct children, folded in while they close.
    max_child_end: SimTime,
    /// Still on the open stack.
    open: bool,
}

/// One completed transaction walk: its root span and the latency
/// interval the simulator reported for it.
#[derive(Debug, Clone, Copy)]
pub struct WalkRecord {
    /// Root span of the walk's tree.
    pub root: SpanId,
    /// When the access was issued (root span start).
    pub issued: SimTime,
    /// When the data was delivered — the *reported* completion. Children
    /// of the root may end later (off-critical-path protocol cleanup).
    pub done: SimTime,
}

impl WalkRecord {
    /// The end-to-end latency the simulator reported.
    pub fn latency(&self) -> SimDuration {
        SimDuration(self.done.0 - self.issued.0)
    }
}

/// One row of an attribution table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrRow {
    /// Component name ([`GAP`] for uncovered time).
    pub name: &'static str,
    /// Component category (empty for [`GAP`]).
    pub cat: &'static str,
    /// Exact simulated time charged to this component.
    pub time: SimDuration,
}

/// A full attribution: rows sum to `total` exactly (see
/// [`SpanRecorder::attribution`]).
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Per-component rows, largest first.
    pub rows: Vec<AttrRow>,
    /// The walk's end-to-end latency (always the exact row sum).
    pub total: SimDuration,
}

/// Ring buffer of recorded spans.
///
/// Instrumented code records through [`begin`](Self::begin) /
/// [`end`](Self::end), which must bracket like a stack (the recorder
/// tolerates and repairs mismatches, but attribution quality degrades),
/// and [`leaf`](Self::leaf), which records a span whose full interval is
/// known at one code point.
///
/// Holds up to `capacity` spans; when full, spans of *earlier* walks are
/// evicted oldest-first. Spans belonging to the walk currently being
/// recorded are never evicted, so the most recent tree is always intact
/// (the buffer grows past `capacity` if a single walk exceeds it).
#[derive(Debug, Default)]
pub struct SpanRecorder {
    spans: VecDeque<Span>,
    /// Id of `spans.front()`; ids below this were evicted.
    base: u64,
    next: u64,
    stack: Vec<SpanId>,
    walks: VecDeque<WalkRecord>,
    capacity: usize,
    /// Spans evicted by the ring so far.
    pub dropped: u64,
}

impl SpanRecorder {
    /// A recorder keeping roughly the last `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanRecorder { capacity: capacity.max(16), ..Default::default() }
    }

    fn get(&self, id: SpanId) -> Option<&Span> {
        id.0.checked_sub(self.base).and_then(|i| self.spans.get(i as usize))
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        id.0.checked_sub(self.base).and_then(|i| self.spans.get_mut(i as usize))
    }

    /// Lowest id that must not be evicted: the oldest still-open span.
    fn protect_floor(&self) -> u64 {
        self.stack.first().map_or(self.next, |id| id.0)
    }

    fn evict_to_capacity(&mut self) {
        let floor = self.protect_floor();
        while self.spans.len() > self.capacity && self.base < floor {
            self.spans.pop_front();
            self.base += 1;
            self.dropped += 1;
        }
        while let Some(w) = self.walks.front() {
            if w.root.0 < self.base {
                self.walks.pop_front();
            } else {
                break;
            }
        }
    }

    /// Close the current walk: `root` must be the span returned by the
    /// opening [`begin`](Self::begin). Records the reported
    /// `[issued, done]` latency interval for attribution.
    pub fn record_walk(&mut self, root: SpanId, issued: SimTime, done: SimTime) {
        self.walks.push_back(WalkRecord { root, issued, done });
        if self.walks.len() > self.capacity {
            self.walks.pop_front();
        }
    }

    /// Completed walks still fully resident in the ring, oldest first.
    pub fn walks(&self) -> impl Iterator<Item = &WalkRecord> {
        self.walks.iter()
    }

    /// The most recently completed walk, if any survives in the ring.
    pub fn last_walk(&self) -> Option<WalkRecord> {
        self.walks.back().copied()
    }

    /// Every span resident in the ring, in emission (causal) order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Look up one span by id (None if evicted or never recorded).
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.get(id)
    }

    /// Depth of `id` below its tree root (root = 0). `None` if the chain
    /// was partially evicted.
    fn depth_of(&self, id: SpanId) -> Option<u32> {
        let mut depth = 0;
        let mut cur = self.get(id)?;
        while let Some(p) = cur.parent {
            cur = self.get(p)?;
            depth += 1;
        }
        Some(depth)
    }

    /// Whether `root` is an ancestor of (or equal to) `id`.
    fn in_tree(&self, id: SpanId, root: SpanId) -> bool {
        let mut cur = id;
        loop {
            if cur == root {
                return true;
            }
            match self.get(cur).and_then(|s| s.parent) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// All spans of the tree rooted at `walk.root`, in emission order.
    pub fn tree(&self, walk: &WalkRecord) -> Vec<&Span> {
        self.spans
            .iter()
            .filter(|s| s.id.0 >= walk.root.0 && self.in_tree(s.id, walk.root))
            .collect()
    }

    /// Check the structural invariants of one walk's span tree: the root
    /// is resident and closed, every other span's parent is resident,
    /// causally earlier, and temporally encloses it.
    pub fn validate_walk(&self, walk: &WalkRecord) -> Result<(), String> {
        let root = self
            .get(walk.root)
            .ok_or_else(|| format!("root span {:?} evicted", walk.root))?;
        if root.open {
            return Err(format!("root span {:?} still open", walk.root));
        }
        if root.start > walk.issued || root.end < walk.done {
            return Err(format!(
                "root [{}, {}] does not cover reported [{}, {}]",
                root.start, root.end, walk.issued, walk.done
            ));
        }
        for s in self.tree(walk) {
            if s.open {
                return Err(format!("span {} ({:?}) still open", s.name, s.id));
            }
            if s.start > s.end {
                return Err(format!("span {} has start after end", s.name));
            }
            let Some(pid) = s.parent else { continue };
            let p = self
                .get(pid)
                .ok_or_else(|| format!("span {} orphaned: parent {:?} missing", s.name, pid))?;
            if pid.0 >= s.id.0 {
                return Err(format!("span {} precedes its parent {}", s.name, p.name));
            }
            if s.start < p.start || s.end > p.end {
                return Err(format!(
                    "span {} [{}, {}] escapes parent {} [{}, {}]",
                    s.name, s.start, s.end, p.name, p.start, p.end
                ));
            }
        }
        Ok(())
    }

    /// Exact per-component latency attribution for one walk.
    ///
    /// Partitions `[issued, done]` into elementary segments bounded by
    /// span starts/ends and charges each segment to the *innermost* span
    /// covering it (ties: deepest, then latest-starting, then youngest).
    /// Segments covered only by the root are charged to [`GAP`]. The row
    /// sum equals `walk.latency()` exactly, by construction.
    pub fn attribution(&self, walk: &WalkRecord) -> Attribution {
        let total = walk.latency();
        // Clip every non-root tree span to the reported interval.
        let mut clipped: Vec<(&Span, u64, u64, u32)> = Vec::new();
        for s in self.tree(walk) {
            if s.id == walk.root {
                continue;
            }
            let a = s.start.0.max(walk.issued.0);
            let b = s.end.0.min(walk.done.0);
            if a < b {
                let depth = self.depth_of(s.id).unwrap_or(1);
                clipped.push((s, a, b, depth));
            }
        }
        let mut bounds: Vec<u64> = vec![walk.issued.0, walk.done.0];
        for &(_, a, b, _) in &clipped {
            bounds.push(a);
            bounds.push(b);
        }
        bounds.sort_unstable();
        bounds.dedup();

        let mut rows: Vec<AttrRow> = Vec::new();
        let mut charge = |name: &'static str, cat: &'static str, ps: u64| {
            if let Some(r) = rows.iter_mut().find(|r| r.name == name && r.cat == cat) {
                r.time += SimDuration(ps);
            } else {
                rows.push(AttrRow { name, cat, time: SimDuration(ps) });
            }
        };
        for seg in bounds.windows(2) {
            let (a, b) = (seg[0], seg[1]);
            let winner = clipped
                .iter()
                .filter(|&&(_, sa, sb, _)| sa <= a && sb >= b)
                .max_by_key(|&&(s, sa, _, depth)| (depth, sa, s.id.0));
            match winner {
                Some(&(s, ..)) => charge(s.name, s.cat, b - a),
                None => charge(GAP, "", b - a),
            }
        }
        rows.sort_by(|x, y| y.time.cmp(&x.time).then(x.name.cmp(y.name)));
        debug_assert_eq!(rows.iter().map(|r| r.time.0).sum::<u64>(), total.0);
        Attribution { rows, total }
    }

    /// Chrome trace-event / Perfetto JSON for every resident span.
    ///
    /// Spans become `"ph": "X"` complete events with `ts`/`dur` in
    /// microseconds; walk roots carry the reported latency in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let ts = s.start.0 as f64 / 1e6;
            let dur = (s.end.0.saturating_sub(s.start.0)) as f64 / 1e6;
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \
                 \"ts\": {ts:.6}, \"dur\": {dur:.6}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"id\": {}",
                esc(s.name),
                esc(s.cat),
                s.id.0,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ", \"parent\": {}", p.0);
            }
            if let Some(d) = &s.detail {
                let _ = write!(out, ", \"detail\": \"{}\"", esc(d));
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }

    /// Terminal waterfall view of one walk's span tree.
    pub fn waterfall(&self, walk: &WalkRecord) -> String {
        const BAR: usize = 40;
        let tree = self.tree(walk);
        let Some(root) = self.get(walk.root) else {
            return "trace evicted\n".to_string();
        };
        let t0 = root.start.0;
        let t1 = root.end.0.max(walk.done.0).max(t0 + 1);
        let scale = |ps: u64| ((ps - t0) as u128 * BAR as u128 / (t1 - t0) as u128) as usize;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "walk: {} .. {} ({} reported)",
            walk.issued,
            walk.done,
            walk.latency()
        );
        // Depth-first in causal order: children always follow parents.
        let mut lines: Vec<(u32, &Span)> = Vec::new();
        for s in &tree {
            let depth = self.depth_of(s.id).unwrap_or(0);
            lines.push((depth, s));
        }
        for (depth, s) in lines {
            let lo = scale(s.start.0.clamp(t0, t1));
            let hi = scale(s.end.0.clamp(t0, t1)).max(lo + 1).min(BAR);
            let mut bar = String::with_capacity(BAR);
            for c in 0..BAR {
                bar.push(if c >= lo && c < hi { '█' } else { '·' });
            }
            let label = format!("{}{}", "  ".repeat(depth as usize), s.name);
            let _ = writeln!(
                out,
                "  {label:<28} |{bar}| {:>9.3} ns  {}",
                (s.end.0 - s.start.0) as f64 / 1e3,
                s.detail.as_deref().unwrap_or(""),
            );
        }
        out
    }

    /// Open a span starting at `at` under the currently open span.
    pub fn begin(&mut self, name: &'static str, cat: &'static str, at: SimTime) -> SpanId {
        let id = SpanId(self.next);
        self.next += 1;
        let parent = self.stack.last().copied();
        // A child cannot causally start before the span that spawned it.
        let start = parent
            .and_then(|p| self.get(p))
            .map_or(at, |p| at.max(p.start));
        self.spans.push_back(Span {
            id,
            parent,
            name,
            cat,
            start,
            end: start,
            detail: None,
            max_child_end: SimTime::ZERO,
            open: true,
        });
        self.stack.push(id);
        self.evict_to_capacity();
        id
    }

    /// Close span `id` at `at` (raised to cover its children).
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        // Repair mismatched brackets: close everything opened after `id`.
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            let stale: Vec<SpanId> = self.stack.split_off(pos + 1);
            self.stack.pop();
            for &sid in stale.iter().rev() {
                let Some(s) = self.get_mut(sid) else { continue };
                s.end = at.max(s.start).max(s.max_child_end);
                s.open = false;
                let (parent, end) = (s.parent, s.end);
                if let Some(p) = parent {
                    if let Some(ps) = self.get_mut(p) {
                        ps.max_child_end = ps.max_child_end.max(end);
                    }
                }
            }
        }
        let Some(s) = self.get_mut(id) else { return };
        s.end = at.max(s.start).max(s.max_child_end);
        s.open = false;
        let (parent, end) = (s.parent, s.end);
        // Propagate so ancestors always temporally enclose descendants.
        if let Some(p) = parent {
            if let Some(ps) = self.get_mut(p) {
                ps.max_child_end = ps.max_child_end.max(end);
            }
        }
    }

    /// Attach or replace the free-form annotation on `id`.
    pub fn detail(&mut self, id: SpanId, detail: String) {
        if let Some(s) = self.get_mut(id) {
            s.detail = Some(detail);
        }
    }

    /// Record a complete child span of the currently open span.
    pub fn leaf(
        &mut self,
        name: &'static str,
        cat: &'static str,
        start: SimTime,
        end: SimTime,
    ) -> SpanId {
        let id = self.begin(name, cat, start);
        self.end(id, end);
        id
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Validate Chrome trace-event JSON against the constraints of
/// `schemas/trace-event.schema.json`: a `traceEvents` array of complete
/// (`"ph": "X"`) events, each carrying `name`, `cat`, `ts`, `dur`,
/// `pid`, and `tid`. Hand-rolled (the workspace has no JSON parser);
/// understands exactly the subset our exporter emits.
pub fn validate_trace_json(text: &str) -> Result<(), String> {
    let trimmed = text.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return Err("not a JSON object".into());
    }
    let arr_key = "\"traceEvents\"";
    let start = trimmed
        .find(arr_key)
        .ok_or_else(|| "missing traceEvents".to_string())?;
    let after = &trimmed[start + arr_key.len()..];
    let open = after
        .find('[')
        .ok_or_else(|| "traceEvents is not an array".to_string())?;
    let body = &after[open + 1..];

    // Walk the array splitting top-level objects by brace depth,
    // ignoring braces inside string literals.
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let mut obj_start = None;
    let mut count = 0usize;
    for (i, c) in body.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => {
                if depth == 0 {
                    obj_start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                if depth == 0 {
                    return Err("unbalanced braces in traceEvents".into());
                }
                depth -= 1;
                if depth == 0 {
                    let obj = &body[obj_start.take().unwrap()..=i];
                    validate_event(obj, count)?;
                    count += 1;
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err("truncated traceEvents array".into());
    }
    if count == 0 {
        return Err("traceEvents is empty".into());
    }
    Ok(())
}

fn validate_event(obj: &str, idx: usize) -> Result<(), String> {
    for key in ["\"name\"", "\"cat\"", "\"ph\"", "\"ts\"", "\"dur\"", "\"pid\"", "\"tid\""] {
        if !obj.contains(key) {
            return Err(format!("event {idx} missing required key {key}"));
        }
    }
    if !obj.contains("\"ph\": \"X\"") && !obj.contains("\"ph\":\"X\"") {
        return Err(format!("event {idx} is not a complete (ph=X) event"));
    }
    for num_key in ["\"ts\": -", "\"dur\": -"] {
        if obj.contains(num_key) {
            return Err(format!("event {idx} has a negative time field"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime(ns * 1_000)
    }

    /// A small two-level walk: root over [0, 100] ns, children covering
    /// [10, 40] and [30, 80] (overlapping), grandchild [35, 60].
    fn sample() -> (SpanRecorder, WalkRecord) {
        let mut r = SpanRecorder::with_capacity(64);
        let root = r.begin("walk", "walk", t(0));
        let a = r.begin("ring", "uncore", t(10));
        r.end(a, t(40));
        let b = r.begin("snoop", "coherence", t(30));
        let g = r.begin("qpi", "qpi", t(35));
        r.end(g, t(60));
        r.end(b, t(80));
        r.end(root, t(100));
        r.record_walk(root, t(0), t(100));
        let w = r.last_walk().unwrap();
        (r, w)
    }

    #[test]
    fn tree_is_well_formed() {
        let (r, w) = sample();
        r.validate_walk(&w).unwrap();
    }

    #[test]
    fn attribution_is_exact_partition() {
        let (r, w) = sample();
        let attr = r.attribution(&w);
        let sum: u64 = attr.rows.iter().map(|row| row.time.0).sum();
        assert_eq!(sum, attr.total.0);
        assert_eq!(attr.total, w.latency());
        // [0,10) gap, [10,30) ring, [30,35) snoop, [35,60) qpi (innermost),
        // [60,80) snoop, [80,100) gap.
        let by_name = |n: &str| attr.rows.iter().find(|r| r.name == n).unwrap().time.0;
        assert_eq!(by_name("ring"), 20_000);
        assert_eq!(by_name("snoop"), 25_000);
        assert_eq!(by_name("qpi"), 25_000);
        assert_eq!(by_name(GAP), 30_000);
    }

    #[test]
    fn child_start_clamped_and_parent_end_raised() {
        let mut r = SpanRecorder::with_capacity(64);
        let root = r.begin("walk", "walk", t(50));
        // Child claims to start before its parent and end after it.
        let c = r.begin("late", "x", t(10));
        r.end(c, t(200));
        r.end(root, t(100));
        r.record_walk(root, t(50), t(100));
        let w = r.last_walk().unwrap();
        r.validate_walk(&w).unwrap();
        let root_span = r.span(w.root).unwrap();
        let child = r.span(c).unwrap();
        assert_eq!(child.start, t(50), "start clamped to parent");
        assert_eq!(root_span.end, t(200), "parent end raised over child");
    }

    #[test]
    fn mismatched_end_closes_inner_spans() {
        let mut r = SpanRecorder::with_capacity(64);
        let root = r.begin("walk", "walk", t(0));
        let a = r.begin("outer", "x", t(1));
        let _b = r.begin("inner", "x", t(2));
        r.end(a, t(10)); // forgot to close `inner`
        r.end(root, t(20));
        r.record_walk(root, t(0), t(20));
        r.validate_walk(&r.last_walk().unwrap()).unwrap();
    }

    #[test]
    fn ring_evicts_old_walks_but_never_current() {
        let mut r = SpanRecorder::with_capacity(16);
        for i in 0..40u64 {
            let root = r.begin("walk", "walk", t(i * 100));
            let c = r.begin("leaf", "x", t(i * 100 + 1));
            r.end(c, t(i * 100 + 2));
            r.end(root, t(i * 100 + 50));
            r.record_walk(root, t(i * 100), t(i * 100 + 50));
        }
        assert!(r.dropped > 0);
        assert!(r.spans.len() <= 16);
        let w = r.last_walk().unwrap();
        r.validate_walk(&w).unwrap();
        assert_eq!(r.tree(&w).len(), 2);
    }

    #[test]
    fn one_walk_larger_than_capacity_stays_intact() {
        let mut r = SpanRecorder::with_capacity(16);
        let root = r.begin("walk", "walk", t(0));
        for i in 0..40u64 {
            let c = r.begin("leaf", "x", t(i));
            r.end(c, t(i + 1));
        }
        r.end(root, t(100));
        r.record_walk(root, t(0), t(100));
        let w = r.last_walk().unwrap();
        r.validate_walk(&w).unwrap();
        assert_eq!(r.tree(&w).len(), 41, "current walk must not be evicted");
    }

    #[test]
    fn chrome_json_validates() {
        let (r, _) = sample();
        let json = r.chrome_json();
        validate_trace_json(&json).unwrap();
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"qpi\""));
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_trace_json("[]").is_err());
        assert!(validate_trace_json("{\"traceEvents\": []}").is_err());
        assert!(
            validate_trace_json("{\"traceEvents\": [{\"name\": \"x\"}]}")
                .unwrap_err()
                .contains("missing required key")
        );
        // Flow events (`"ph": "s"` / `"f"`) are not part of the format.
        let flow = "{\"traceEvents\": [{\"name\": \"x\", \"cat\": \"c\", \"ph\": \"s\", \
                    \"ts\": 1, \"dur\": 0, \"pid\": 1, \"tid\": 1}]}";
        assert!(validate_trace_json(flow).unwrap_err().contains("not a complete"));
    }

    #[test]
    fn waterfall_renders_every_span() {
        let (r, w) = sample();
        let text = r.waterfall(&w);
        for name in ["walk", "ring", "snoop", "qpi"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn detail_escaped_in_json() {
        let mut r = SpanRecorder::with_capacity(16);
        let root = r.begin("walk", "walk", t(0));
        r.detail(root, "quote \" backslash \\".into());
        r.end(root, t(1));
        let json = r.chrome_json();
        validate_trace_json(&json).unwrap();
        assert!(json.contains("quote \\\" backslash \\\\"));
    }
}
