//! Hierarchical span profiles: the one clock of the trace document.
//!
//! A [`SpanTree`] answers attribution questions a flat per-phase total
//! cannot — "separation round 7 spent 80% of its LP time in
//! refactorization" needs a parent/child structure, not a sum. The flat
//! `time.*` phase totals are derived from the tree ([`PHASE_SPANS`]), so
//! the two views always agree. The tree splits along the same
//! determinism seam as the rest of the trace document (DESIGN.md §16):
//!
//! * **Shape** — span *paths*, per-span *hit counts*, and child *order*
//!   (children are kept name-sorted) — is part of the deterministic
//!   section and must be byte-identical across thread counts and across
//!   profiled/unprofiled runs of the same instance.
//! * **Durations** (`total_ns`) are wall clock and live with `time.*` in
//!   the determinism-exempt section.
//!
//! Two export formats turn a tree into standard profiler input:
//! [`SpanTree::to_chrome_trace`] emits trace-event JSON that loads in
//! `chrome://tracing` / Perfetto, and [`SpanTree::to_folded`] emits
//! collapsed-stack lines for `flamegraph.pl` / inferno. Both are derived
//! views; the tree itself is what travels inside a
//! [`crate::SolveTrace`].

use std::collections::BTreeMap;

use crate::json::json_escape;

/// The `time.*` phase totals and the span name each one is derived from.
/// [`crate::TraceRecorder::snapshot`] fills
/// [`crate::SolveTrace::timings_ns`] from this table: each key is the
/// summed wall clock of the outermost spans of its name, and a key whose
/// span never ran is absent.
pub(crate) const PHASE_SPANS: [(&str, &str); 6] = [
    ("time.lp", "lp"),
    ("time.separation", "separate"),
    ("time.audit", "audit"),
    ("time.embed", "embed"),
    ("time.dp", "dp"),
    ("time.serve.request", "request"),
];

/// One node of a span profile: a named scope, how many times it was
/// entered, the total wall clock spent inside it, and its name-sorted
/// children.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanNode {
    /// Scope name (one path segment; `/` and whitespace are the caller's
    /// responsibility to avoid — exporters sanitize defensively).
    pub name: String,
    /// Number of times the scope was entered (deterministic).
    pub hits: u64,
    /// Total wall-clock nanoseconds inside the scope (determinism-exempt).
    pub total_ns: u64,
    /// Child scopes, sorted by name. Name-sorted order — not first-entry
    /// order — is what keeps the shape identical across thread counts
    /// when several workers grow one shared tree.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn new(name: &str) -> Self {
        SpanNode {
            name: name.to_string(),
            hits: 0,
            total_ns: 0,
            children: Vec::new(),
        }
    }

    /// Index of the child named `name`, inserting an empty one at the
    /// sorted position when absent.
    fn child_index(&mut self, name: &str) -> usize {
        match self
            .children
            .binary_search_by(|c| c.name.as_str().cmp(name))
        {
            Ok(i) => i,
            Err(i) => {
                self.children.insert(i, SpanNode::new(name));
                i
            }
        }
    }

    /// Wall clock inside this node but outside every child, clamped at
    /// zero (children measured on other stacks can transiently exceed the
    /// parent by scheduling noise).
    pub fn self_ns(&self) -> u64 {
        let child_total: u64 = self.children.iter().map(|c| c.total_ns).sum();
        self.total_ns.saturating_sub(child_total)
    }

    fn merge_from(&mut self, other: &SpanNode) {
        self.hits = self.hits.saturating_add(other.hits);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        for child in &other.children {
            let i = self.child_index(&child.name);
            self.children[i].merge_from(child);
        }
    }
}

/// A forest of [`SpanNode`]s — the span profile of one solve, one serve
/// request, or a whole batch (shared-recorder trees accumulate).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SpanTree {
    /// Top-level spans, sorted by name.
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    /// An empty tree.
    pub fn new() -> Self {
        SpanTree::default()
    }

    /// `true` when no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    fn root_index(&mut self, name: &str) -> usize {
        match self.roots.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                self.roots.insert(i, SpanNode::new(name));
                i
            }
        }
    }

    /// Adds `hits` entries and `nanos` of wall clock to the span at
    /// `path` (`/`-separated, e.g. `"solve/round.0007/lp"`), creating
    /// intermediate nodes as needed. Intermediate nodes get no hits of
    /// their own.
    pub fn record(&mut self, path: &str, hits: u64, nanos: u64) {
        let mut segs = path.split('/').filter(|s| !s.is_empty());
        let Some(first) = segs.next() else {
            return;
        };
        let mut node = {
            let i = self.root_index(first);
            &mut self.roots[i]
        };
        for seg in segs {
            let i = node.child_index(seg);
            node = &mut node.children[i];
        }
        node.hits = node.hits.saturating_add(hits);
        node.total_ns = node.total_ns.saturating_add(nanos);
    }

    /// Folds `other` into `self` (hit counts and durations add; the shape
    /// union stays name-sorted). Merging is order-independent, which is
    /// what makes per-instance trees and one shared accumulating tree
    /// produce the same shape.
    pub fn merge(&mut self, other: &SpanTree) {
        for root in &other.roots {
            let i = self.root_index(&root.name);
            self.roots[i].merge_from(root);
        }
    }

    /// Summed `total_ns` of the outermost spans named `name`: a span
    /// nested inside another of the same name is already part of its
    /// ancestor's total, so it is not added again. `None` when no span
    /// has that name.
    pub(crate) fn outermost_total_ns(&self, name: &str) -> Option<u64> {
        fn walk(node: &SpanNode, name: &str, sum: &mut Option<u64>) {
            if node.name == name {
                *sum = Some(sum.unwrap_or(0).saturating_add(node.total_ns));
            } else {
                for c in &node.children {
                    walk(c, name, sum);
                }
            }
        }
        let mut sum = None;
        for r in &self.roots {
            walk(r, name, &mut sum);
        }
        sum
    }

    /// The [`PHASE_SPANS`] totals of this tree, keyed `time.*`.
    pub(crate) fn phase_timings(&self) -> BTreeMap<String, u64> {
        PHASE_SPANS
            .iter()
            .filter_map(|&(key, span)| Some((key.to_string(), self.outermost_total_ns(span)?)))
            .collect()
    }

    /// Depth-first `(path, hits, total_ns)` rows, parents before
    /// children, siblings in name order.
    pub fn flatten(&self) -> Vec<(String, u64, u64)> {
        fn walk(node: &SpanNode, prefix: &str, out: &mut Vec<(String, u64, u64)>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}/{}", node.name)
            };
            out.push((path.clone(), node.hits, node.total_ns));
            for c in &node.children {
                walk(c, &path, out);
            }
        }
        let mut out = Vec::new();
        for r in &self.roots {
            walk(r, "", &mut out);
        }
        out
    }

    /// The deterministic *shape* of the tree as text: one `"<path> <hits>"`
    /// line per span in depth-first order. This is the artifact the CI
    /// determinism job `cmp`s across thread counts — it deliberately
    /// contains no durations.
    pub fn shape_text(&self) -> String {
        let mut s = String::new();
        for (path, hits, _) in self.flatten() {
            s.push_str(&path);
            s.push(' ');
            s.push_str(&hits.to_string());
            s.push('\n');
        }
        s
    }

    /// A human-readable indented rendering with durations (for
    /// `lubt profile --format tree`).
    pub fn render_text(&self) -> String {
        fn walk(node: &SpanNode, depth: usize, out: &mut String) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(&format!(
                "{}  hits={}  total={}ns  self={}ns\n",
                node.name,
                node.hits,
                node.total_ns,
                node.self_ns()
            ));
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        let mut s = String::new();
        for r in &self.roots {
            walk(r, 0, &mut s);
        }
        s
    }

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` envelope of
    /// `chrome://tracing` / Perfetto). Each span becomes one complete
    /// (`"ph": "X"`) event on a synthetic timeline: a parent starts where
    /// its caller placed it and its children are laid out sequentially
    /// from the parent's start, so nesting in the viewer mirrors the call
    /// tree even though the tree stores totals, not raw timestamps.
    /// Timestamps and durations are microseconds with nanosecond decimals.
    pub fn to_chrome_trace(&self) -> String {
        fn micros(ns: u64) -> String {
            format!("{}.{:03}", ns / 1_000, ns % 1_000)
        }
        fn walk(node: &SpanNode, path: &str, start_ns: u64, first: &mut bool, out: &mut String) {
            let path = if path.is_empty() {
                node.name.clone()
            } else {
                format!("{path}/{}", node.name)
            };
            if *first {
                *first = false;
            } else {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"hits\": {}, \"path\": \"{}\"}}}}",
                json_escape(&node.name),
                micros(start_ns),
                micros(node.total_ns),
                node.hits,
                json_escape(&path)
            ));
            let mut cursor = start_ns;
            for c in &node.children {
                walk(c, &path, cursor, first, out);
                cursor = cursor.saturating_add(c.total_ns);
            }
        }
        let mut s = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
        let mut first = true;
        let mut cursor = 0u64;
        for r in &self.roots {
            walk(r, "", cursor, &mut first, &mut s);
            cursor = cursor.saturating_add(r.total_ns);
        }
        if !first {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }

    /// Collapsed-stack ("folded") text for `flamegraph.pl` / inferno:
    /// one `frame;frame;frame <count>` line per span with nonzero self
    /// time, counts in nanoseconds. Frame names are sanitized (spaces and
    /// semicolons would corrupt the format) and zero-self-time spans are
    /// skipped — folded counts must be positive integers.
    pub fn to_folded(&self) -> String {
        fn frame(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c == ';' || c.is_whitespace() {
                        '_'
                    } else {
                        c
                    }
                })
                .collect()
        }
        fn walk(node: &SpanNode, stack: &str, out: &mut String) {
            let stack = if stack.is_empty() {
                frame(&node.name)
            } else {
                format!("{stack};{}", frame(&node.name))
            };
            let self_ns = node.self_ns();
            if self_ns > 0 {
                out.push_str(&format!("{stack} {self_ns}\n"));
            }
            for c in &node.children {
                walk(c, &stack, out);
            }
        }
        let mut s = String::new();
        for r in &self.roots {
            walk(r, "", &mut s);
        }
        s
    }
}

/// Lints a collapsed-stack document: every non-empty line must be
/// `frame(;frame)* <count>` with no spaces inside frames and a strictly
/// positive integer count. Returns the first violation.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn lint_folded(text: &str) -> Result<(), String> {
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no count field: {:?}", lineno + 1, line));
        };
        if stack.is_empty() {
            return Err(format!("line {}: empty stack: {:?}", lineno + 1, line));
        }
        if stack.contains(' ') {
            return Err(format!(
                "line {}: space inside a frame name: {:?}",
                lineno + 1,
                line
            ));
        }
        if stack.split(';').any(|f| f.is_empty()) {
            return Err(format!("line {}: empty frame: {:?}", lineno + 1, line));
        }
        match count.parse::<u64>() {
            Ok(n) if n > 0 => {}
            _ => {
                return Err(format!(
                    "line {}: count must be a positive integer, got {:?}",
                    lineno + 1,
                    count
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    fn sample() -> SpanTree {
        let mut t = SpanTree::new();
        t.record("solve", 1, 1_000_000);
        t.record("solve/round.0001", 1, 600_000);
        t.record("solve/round.0001/lp", 1, 400_000);
        t.record("solve/round.0001/separate", 1, 150_000);
        t.record("solve/round.0002", 1, 300_000);
        t.record("solve/round.0002/lp", 1, 290_000);
        t.record("embed", 1, 50_000);
        t
    }

    #[test]
    fn record_builds_sorted_paths() {
        let t = sample();
        let rows = t.flatten();
        let paths: Vec<&str> = rows.iter().map(|r| r.0.as_str()).collect();
        assert_eq!(
            paths,
            [
                "embed",
                "solve",
                "solve/round.0001",
                "solve/round.0001/lp",
                "solve/round.0001/separate",
                "solve/round.0002",
                "solve/round.0002/lp",
            ]
        );
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = SpanTree::new();
        a.record("solve/lp", 2, 10);
        a.record("solve", 1, 30);
        let mut b = SpanTree::new();
        b.record("solve/separate", 1, 5);
        b.record("embed", 1, 7);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.shape_text(), ba.shape_text());
    }

    #[test]
    fn shape_text_has_hits_but_no_durations() {
        let shape = sample().shape_text();
        assert!(shape.contains("solve/round.0001/lp 1\n"), "{shape}");
        assert!(!shape.contains("000000"), "durations leaked: {shape}");
    }

    #[test]
    fn chrome_trace_is_strict_json_with_nested_timeline() {
        let doc = sample().to_chrome_trace();
        validate(&doc).unwrap_or_else(|e| panic!("invalid chrome trace: {e}\n{doc}"));
        assert!(doc.contains("\"ph\": \"X\""));
        // The embed root precedes solve (name order) and solve's first
        // child starts at embed's end (50us).
        assert!(doc.contains("\"name\": \"embed\", \"ph\": \"X\", \"ts\": 0.000"));
        assert!(doc.contains("\"name\": \"solve\", \"ph\": \"X\", \"ts\": 50.000"));
        assert!(doc.contains("\"path\": \"solve/round.0001/lp\""));
    }

    #[test]
    fn empty_tree_exports_are_valid() {
        let t = SpanTree::new();
        assert!(t.is_empty());
        validate(&t.to_chrome_trace()).unwrap();
        assert_eq!(t.to_folded(), "");
        lint_folded(&t.to_folded()).unwrap();
        assert_eq!(t.shape_text(), "");
    }

    #[test]
    fn folded_output_passes_the_linter_and_uses_self_time() {
        let t = sample();
        let folded = t.to_folded();
        lint_folded(&folded).unwrap_or_else(|e| panic!("{e}\n{folded}"));
        // round.0001 self time = 600k - (400k + 150k) = 50k.
        assert!(folded.contains("solve;round.0001 50000\n"), "{folded}");
        // round.0002/lp is a leaf: self == total.
        assert!(folded.contains("solve;round.0002;lp 290000\n"), "{folded}");
    }

    #[test]
    fn folded_sanitizes_hostile_frame_names() {
        let mut t = SpanTree::new();
        t.record("bad name with spaces", 1, 10);
        let folded = t.to_folded();
        lint_folded(&folded).unwrap_or_else(|e| panic!("{e}\n{folded}"));
        assert!(folded.contains("bad_name_with_spaces 10"), "{folded}");
    }

    #[test]
    fn folded_linter_rejects_malformed_documents() {
        assert!(lint_folded("no-count-here\n").is_err());
        assert!(lint_folded("a;b 0\n").is_err());
        assert!(lint_folded("a;b -3\n").is_err());
        assert!(lint_folded("a; b 5\n").is_err());
        assert!(lint_folded("a;;b 5\n").is_err());
        assert!(lint_folded(" 5\n").is_err());
        lint_folded("a;b 5\nc 1\n\n").unwrap();
        lint_folded("").unwrap();
    }

    #[test]
    fn phase_timings_sum_outermost_spans_of_each_name() {
        let mut t = SpanTree::new();
        t.record("solve/lp", 1, 100);
        t.record("solve/round.0001/lp", 2, 30);
        // A namesake nested inside `lp` is already inside its total.
        t.record("solve/round.0001/lp/lp", 1, 7);
        t.record("request/solve/separate", 3, 40);
        let timings = t.phase_timings();
        assert_eq!(timings["time.lp"], 130);
        assert_eq!(timings["time.separation"], 40);
        // No `audit` span ran, so there is no `time.audit` key.
        assert!(!timings.contains_key("time.audit"));

        // Every table entry maps its span, and only its span, to its key.
        for (i, &(key, span)) in PHASE_SPANS.iter().enumerate() {
            let mut t = SpanTree::new();
            t.record(&format!("solve/{span}"), 1, 10 + i as u64);
            let expected = BTreeMap::from([(key.to_string(), 10 + i as u64)]);
            assert_eq!(t.phase_timings(), expected, "{span}");
        }
    }

    #[test]
    fn self_time_clamps_when_children_exceed_parent() {
        let mut t = SpanTree::new();
        t.record("p", 1, 100);
        t.record("p/c", 1, 150);
        assert_eq!(t.roots[0].self_ns(), 0);
        lint_folded(&t.to_folded()).unwrap();
    }
}
