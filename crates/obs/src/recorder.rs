//! The [`Recorder`] trait and the two recorders shipped with the crate.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

use crate::span::{SpanNode, SpanTree};
use crate::trace::{SolveTrace, TraceEvent};

/// Sink for solve-path instrumentation.
///
/// Implementations must be cheap and thread-safe: the simplex inner loop,
/// the separation oracle, and every claim-loop worker call into the same
/// recorder concurrently. Keys are dotted paths (`"simplex.pivots"`,
/// `"ebf.rounds"`, `"par.assist.claims"`); the instrumented code owns the
/// namespace, the recorder just accumulates. Wall clock is recorded only
/// through the span methods.
///
/// The `Debug` supertrait keeps `#[derive(Debug)]` working on solver
/// structs that hold an `Arc<dyn Recorder>`.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// `true` when the recorder actually stores anything. Hot paths may
    /// skip formatting work (per-worker keys, event messages) when this
    /// is `false`.
    fn enabled(&self) -> bool;

    /// Adds `delta` to the monotonic counter `key`.
    fn incr(&self, key: &str, delta: u64);

    /// Raises the running maximum `key` to at least `value`.
    fn record_max(&self, key: &str, value: u64);

    /// Sets the gauge `key` to `value` (last write wins).
    fn gauge(&self, key: &str, value: f64);

    /// Appends a message to the bounded event log. Once the log is full
    /// further events are counted but dropped.
    fn event(&self, key: &str, message: &str);

    /// Opens a named child span under the calling thread's current span
    /// (or at the root when none is open). Callers should pair this with
    /// [`Recorder::span_exit`] — or better, use [`SpanGuard::enter`],
    /// which also skips both calls entirely on a disabled recorder.
    ///
    /// Defaults to a no-op so third-party recorders keep compiling.
    fn span_enter(&self, _name: &str) {}

    /// Closes the calling thread's innermost span, attributing
    /// `elapsed_ns` of wall clock to it.
    fn span_exit(&self, _elapsed_ns: u64) {}

    /// Records `hits` entries and `nanos` of wall clock under the
    /// `/`-separated `path`, resolved relative to the calling thread's
    /// current span. This is the bulk interface for phases measured
    /// elsewhere (queue waits stamped on another thread, DP phase totals)
    /// or aggregated locally before one recorder call (simplex
    /// inner-loop phases).
    fn span_record(&self, _path: &str, _hits: u64, _nanos: u64) {}
}

/// Shared handle to the recorder that ignores everything.
pub fn noop() -> Arc<dyn Recorder> {
    Arc::new(NoopRecorder)
}

/// The default recorder: every call is a no-op, [`Recorder::enabled`] is
/// `false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn enabled(&self) -> bool {
        false
    }
    fn incr(&self, _key: &str, _delta: u64) {}
    fn record_max(&self, _key: &str, _value: u64) {}
    fn gauge(&self, _key: &str, _value: f64) {}
    fn event(&self, _key: &str, _message: &str) {}
}

/// How many events a [`TraceRecorder`] keeps before it starts dropping
/// (the drop count is reported in the trace).
pub const DEFAULT_EVENT_CAP: usize = 256;

/// One node of the recorder's internal span arena. Children are kept in
/// a name-keyed `BTreeMap` so the exported [`SpanTree`] is name-sorted
/// regardless of which thread first entered which scope.
#[derive(Debug)]
struct SpanArenaNode {
    name: String,
    hits: u64,
    total_ns: u64,
    children: BTreeMap<String, usize>,
}

impl SpanArenaNode {
    fn new(name: &str) -> Self {
        SpanArenaNode {
            name: name.to_string(),
            hits: 0,
            total_ns: 0,
            children: BTreeMap::new(),
        }
    }
}

#[derive(Debug)]
struct TraceInner {
    counters: BTreeMap<String, u64>,
    maxima: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    events: Vec<TraceEvent>,
    events_dropped: u64,
    /// Span arena; node 0 is a synthetic root that never appears in the
    /// exported tree.
    span_nodes: Vec<SpanArenaNode>,
    /// Per-thread stack of open span indices. A `HashMap` because
    /// `ThreadId` is not `Ord`; iteration order never matters — stacks
    /// are only ever read through the calling thread's own key.
    span_stacks: HashMap<ThreadId, Vec<usize>>,
}

impl Default for TraceInner {
    fn default() -> Self {
        TraceInner {
            counters: BTreeMap::new(),
            maxima: BTreeMap::new(),
            gauges: BTreeMap::new(),
            events: Vec::new(),
            events_dropped: 0,
            span_nodes: vec![SpanArenaNode::new("")],
            span_stacks: HashMap::new(),
        }
    }
}

impl TraceInner {
    /// The calling thread's innermost open span (the synthetic root when
    /// none is open).
    fn current(&self, tid: ThreadId) -> usize {
        self.span_stacks
            .get(&tid)
            .and_then(|s| s.last())
            .copied()
            .unwrap_or(0)
    }

    /// Index of `parent`'s child named `name`, creating it when absent.
    fn child_of(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&i) = self.span_nodes[parent].children.get(name) {
            return i;
        }
        let i = self.span_nodes.len();
        self.span_nodes.push(SpanArenaNode::new(name));
        self.span_nodes[parent].children.insert(name.to_string(), i);
        i
    }

    fn span_tree(&self) -> SpanTree {
        fn build(inner: &TraceInner, idx: usize) -> SpanNode {
            let n = &inner.span_nodes[idx];
            SpanNode {
                name: n.name.clone(),
                hits: n.hits,
                total_ns: n.total_ns,
                children: n.children.values().map(|&c| build(inner, c)).collect(),
            }
        }
        SpanTree {
            roots: self.span_nodes[0]
                .children
                .values()
                .map(|&c| build(self, c))
                .collect(),
        }
    }
}

/// Accumulating recorder behind a mutex; snapshots into a [`SolveTrace`].
///
/// Contention is not a concern at the granularity the workspace records
/// (per solve phase / per round / per worker-exit), so a plain mutex over
/// `BTreeMap`s keeps the crate dependency-free and the key order sorted
/// for stable JSON output.
#[derive(Debug)]
pub struct TraceRecorder {
    inner: Mutex<TraceInner>,
    event_cap: usize,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// An empty recorder with the default event cap.
    pub fn new() -> Self {
        Self::with_event_cap(DEFAULT_EVENT_CAP)
    }

    /// An empty recorder keeping at most `cap` events.
    pub fn with_event_cap(cap: usize) -> Self {
        TraceRecorder {
            inner: Mutex::new(TraceInner::default()),
            event_cap: cap,
        }
    }

    /// Locks the state, recovering from poisoning. A worker that panics
    /// while holding the lock leaves behind an ordinary (if possibly
    /// mid-update) map; degrading to whatever was recorded beats turning
    /// one panic into a recorder panic on every other thread during
    /// unwind.
    fn locked(&self) -> MutexGuard<'_, TraceInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copies the current state into an immutable [`SolveTrace`], with
    /// the `time.*` phase totals derived from the span tree.
    pub fn snapshot(&self) -> SolveTrace {
        let inner = self.locked();
        let spans = inner.span_tree();
        SolveTrace {
            counters: inner.counters.clone(),
            maxima: inner.maxima.clone(),
            gauges: inner.gauges.clone(),
            timings_ns: spans.phase_timings(),
            events: inner.events.clone(),
            events_dropped: inner.events_dropped,
            spans,
        }
    }
}

impl Recorder for TraceRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn incr(&self, key: &str, delta: u64) {
        let mut inner = self.locked();
        let slot = inner.counters.entry(key.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn record_max(&self, key: &str, value: u64) {
        let mut inner = self.locked();
        let slot = inner.maxima.entry(key.to_string()).or_insert(0);
        *slot = (*slot).max(value);
    }

    fn gauge(&self, key: &str, value: f64) {
        let mut inner = self.locked();
        inner.gauges.insert(key.to_string(), value);
    }

    fn event(&self, key: &str, message: &str) {
        let mut inner = self.locked();
        if inner.events.len() < self.event_cap {
            inner.events.push(TraceEvent {
                key: key.to_string(),
                message: message.to_string(),
            });
        } else {
            inner.events_dropped += 1;
        }
    }

    fn span_enter(&self, name: &str) {
        let tid = std::thread::current().id();
        let mut inner = self.locked();
        let parent = inner.current(tid);
        let idx = inner.child_of(parent, name);
        inner.span_nodes[idx].hits = inner.span_nodes[idx].hits.saturating_add(1);
        inner.span_stacks.entry(tid).or_default().push(idx);
    }

    fn span_exit(&self, elapsed_ns: u64) {
        let tid = std::thread::current().id();
        let mut inner = self.locked();
        if let Some(idx) = inner.span_stacks.get_mut(&tid).and_then(Vec::pop) {
            inner.span_nodes[idx].total_ns =
                inner.span_nodes[idx].total_ns.saturating_add(elapsed_ns);
        }
    }

    fn span_record(&self, path: &str, hits: u64, nanos: u64) {
        let tid = std::thread::current().id();
        let mut inner = self.locked();
        let mut idx = inner.current(tid);
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            idx = inner.child_of(idx, seg);
        }
        if idx == 0 {
            return; // empty path: nothing to attribute
        }
        inner.span_nodes[idx].hits = inner.span_nodes[idx].hits.saturating_add(hits);
        inner.span_nodes[idx].total_ns = inner.span_nodes[idx].total_ns.saturating_add(nanos);
    }
}

/// RAII scope for one span: [`Recorder::span_enter`] on construction,
/// [`Recorder::span_exit`] with the elapsed wall clock on drop. The span
/// must be entered and exited on the same thread — the recorder keys its
/// open-span stacks by thread id (the guard is `!Send` by construction,
/// holding a `&dyn` borrow used on drop).
///
/// On a disabled recorder the guard is fully disarmed: no recorder calls,
/// no `Instant::now`, so untraced hot paths pay one virtual call. Spans
/// are the only clock: a snapshot derives its `time.*` phase totals from
/// span durations.
///
/// # Example
///
/// ```
/// use lubt_obs::{SpanGuard, TraceRecorder};
/// let rec = TraceRecorder::new();
/// {
///     let _solve = SpanGuard::enter(&rec, "solve");
///     let _lp = SpanGuard::enter(&rec, "lp");
/// }
/// let trace = rec.snapshot();
/// assert_eq!(trace.spans.shape_text(), "solve 1\nsolve/lp 1\n");
/// // The `lp` span also gives the `time.lp` phase total.
/// assert!(trace.timings_ns.contains_key("time.lp"));
/// ```
pub struct SpanGuard<'a> {
    rec: Option<&'a dyn Recorder>,
    start: Instant,
}

impl<'a> SpanGuard<'a> {
    /// Enters the span `name` on `rec`; disarmed when `rec` is disabled.
    pub fn enter(rec: &'a dyn Recorder, name: &str) -> Self {
        if rec.enabled() {
            rec.span_enter(name);
            SpanGuard {
                rec: Some(rec),
                start: Instant::now(),
            }
        } else {
            SpanGuard {
                rec: None,
                start: Instant::now(),
            }
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(rec) = self.rec {
            let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            rec.span_exit(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_maxima_track() {
        let rec = TraceRecorder::new();
        rec.incr("a", 2);
        rec.incr("a", 3);
        rec.record_max("m", 7);
        rec.record_max("m", 4);
        rec.gauge("g", 0.5);
        rec.gauge("g", 0.25);
        let t = rec.snapshot();
        assert_eq!(t.counter("a"), 5);
        assert_eq!(t.maximum("m"), 7);
        assert_eq!(t.gauge("g"), Some(0.25));
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn event_log_is_bounded() {
        let rec = TraceRecorder::with_event_cap(2);
        for i in 0..5 {
            rec.event("k", &format!("event {i}"));
        }
        let t = rec.snapshot();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events_dropped, 3);
    }

    #[test]
    fn noop_records_nothing_and_reports_disabled() {
        let rec = NoopRecorder;
        assert!(!rec.enabled());
        rec.incr("a", 1);
        rec.event("k", "m");
        // Nothing to snapshot; the contract is just that calls are cheap
        // and side-effect free.
    }

    #[test]
    fn span_guards_nest_per_thread_and_merge_by_name() {
        let rec = Arc::new(TraceRecorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    let _solve = SpanGuard::enter(rec.as_ref(), "solve");
                    for _ in 0..3 {
                        let _lp = SpanGuard::enter(rec.as_ref(), "lp");
                    }
                });
            }
        });
        let spans = rec.snapshot().spans;
        assert_eq!(spans.shape_text(), "solve 4\nsolve/lp 12\n");
    }

    #[test]
    fn span_record_resolves_relative_to_the_open_span() {
        let rec = TraceRecorder::new();
        {
            let _req = SpanGuard::enter(&rec, "request");
            rec.span_record("queue_wait", 1, 500);
            rec.span_record("solve/dp", 2, 100);
        }
        rec.span_record("idle", 1, 9);
        let spans = rec.snapshot().spans;
        assert_eq!(
            spans.shape_text(),
            "idle 1\nrequest 1\nrequest/queue_wait 1\nrequest/solve 0\nrequest/solve/dp 2\n"
        );
    }

    #[test]
    fn disarmed_guard_on_noop_recorder_records_nothing() {
        let rec = NoopRecorder;
        let _g = SpanGuard::enter(&rec, "solve");
        rec.span_record("x", 1, 1);
        // NoopRecorder has no state; the contract is just that the calls
        // are no-ops and the guard never calls span_exit.
    }

    #[test]
    fn poisoned_recorder_degrades_instead_of_cascading() {
        let rec = Arc::new(TraceRecorder::new());
        rec.incr("before", 1);
        let poisoner = Arc::clone(&rec);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("worker dies while holding the recorder lock");
        })
        .join();
        // Every entry point must keep working on the poisoned mutex.
        rec.incr("after", 1);
        rec.record_max("m", 3);
        rec.gauge("g", 1.5);
        rec.event("k", "still alive");
        rec.span_enter("s");
        rec.span_exit(5);
        rec.span_record("s/child", 1, 2);
        rec.span_record("lp", 1, 10);
        let t = rec.snapshot();
        assert_eq!(t.counter("before"), 1);
        assert_eq!(t.counter("after"), 1);
        assert_eq!(t.spans.shape_text(), "lp 1\ns 1\ns/child 1\n");
        assert_eq!(t.timing_ns("time.lp"), 10);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Arc::new(TraceRecorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    for _ in 0..100 {
                        rec.incr("hits", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counter("hits"), 400);
    }
}
