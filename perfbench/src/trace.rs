//! The traced run's bookkeeping: the benchmark's own spans around each
//! public call, and the per-layer ledger built from them and from the
//! span trees and counters the program already returns.

use std::collections::BTreeMap;
use std::time::Instant;

use lubt_core::EbfReport;
use lubt_obs::json::json_escape;
use lubt_obs::prometheus::metric_name;
use lubt_obs::SolveTrace;

use crate::stats::{self, PathTable};

/// One span recorded by the benchmark around a call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `"topology"`.
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request or net the span belongs to.
    pub request: String,
}

/// In-memory span log of one thread; written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// An empty log timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span `name` for `request`; spans `f` opens on
    /// the log become its children.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: &str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: request.to_string(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Records an already measured interval as a root span.
    pub fn record(&mut self, name: &'static str, request: &str, start: Instant, end: Instant) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request: request.to_string(),
        });
    }

    /// Summed self time, in seconds, of every span named `name`; `None`
    /// when no such span was recorded.
    pub fn self_seconds(&self, name: &str) -> Option<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut found = false;
        let mut ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                found = true;
                ns += stats::self_time(s.start_ns, s.end_ns, &children[i]);
            }
        }
        found.then_some(ns as f64 * 1e-9)
    }

    /// The log as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":\"{}\"}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    json_escape(&s.request)
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// Every per-layer metric, with its unit, as `BENCHMARK.json` lists
/// them. A traced run reports all of them; the ones its workload does
/// not exercise are 0 and named in the report.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("data.parse_s", "s"),
    ("topology.s", "s"),
    ("lint.s", "s"),
    ("ebf.s", "s"),
    ("ebf.assembly_s", "s"),
    ("separation.s", "s"),
    ("separation.rounds", "count"),
    ("separation.rows_scanned", "count"),
    ("separation.reuse_ratio", "ratio"),
    ("separation.cuts", "count"),
    ("steiner.row_ratio", "ratio"),
    ("lp.s", "s"),
    ("lp.pricing_s", "s"),
    ("lp.ratio_test_s", "s"),
    ("lp.eta_apply_s", "s"),
    ("lp.refactor_s", "s"),
    ("lp.pivot_s", "s"),
    ("lp.dual_s", "s"),
    ("lp.pivots", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.priced_columns", "count"),
    ("lp.refactorizations", "count"),
    ("lp.nondegenerate_ratio", "ratio"),
    ("par.assist_loops", "count"),
    ("par.join_ratio", "ratio"),
    ("par.assist_call_us", "us"),
    ("embed.s", "s"),
    ("verify.s", "s"),
    ("serialize.s", "s"),
    ("audit.s", "s"),
    ("audit.failures", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.tail", "ms"),
    ("serve.service_ms.p50", "ms"),
    ("serve.service_ms.tail", "ms"),
    ("serve.wire_ms.p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cold_solves", "count"),
    ("serve.errors", "count"),
    ("gen.late_ms.tail", "ms"),
    ("gen.backlog", "count"),
    ("trace_overhead_ratio", "ratio"),
];

/// The per-layer ledger of one traced run. Times and counts are per net
/// solved (per request answered on `serve-mixed`) unless a metric says
/// otherwise; a metric whose span the workload expects but the program
/// did not emit is recorded as missing.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    missing: Vec<String>,
}

impl Layers {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.values.insert(name, value);
    }

    /// Sets `name` from an optional measurement, or records it missing.
    pub fn set_or_missing(&mut self, name: &'static str, value: Option<f64>, what: &str) {
        match value {
            Some(v) => self.set(name, v),
            None => self.missing.push(format!("{name} ({what} not found)")),
        }
    }

    /// Total time of program spans ending in `suffix`, per `per` units.
    pub fn span_total(&mut self, name: &'static str, table: &PathTable, suffix: &str, per: f64) {
        let v = table.total_ns(suffix).map(|ns| ns as f64 * 1e-9 / per);
        self.set_or_missing(name, v, &format!("span path */{suffix}"));
    }

    /// Self time of program spans ending in `suffix`, per `per` units.
    pub fn span_self(&mut self, name: &'static str, table: &PathTable, suffix: &str, per: f64) {
        let v = table.self_ns(suffix).map(|ns| ns as f64 * 1e-9 / per);
        self.set_or_missing(name, v, &format!("span path */{suffix}"));
    }

    /// Counter `key` per `per` units, or missing when never emitted.
    pub fn counter_per(&mut self, name: &'static str, counters: &Counters, key: &str, per: f64) {
        let v = counters.get(key).map(|c| c as f64 / per);
        self.set_or_missing(name, v, &format!("counter {key}"));
    }

    /// Self time of the benchmark's own spans called `span`, per `per`.
    pub fn bench_self(&mut self, name: &'static str, spans: &Spans, span: &str, per: f64) {
        let v = spans.self_seconds(span).map(|s| s / per);
        self.set_or_missing(name, v, &format!("benchmark span {span}"));
    }

    /// Metrics that could not be measured because a span was missing.
    pub fn missing(&self) -> &[String] {
        &self.missing
    }

    /// Every metric of [`LAYER_METRICS`] in order, unexercised ones as 0,
    /// plus the names of those.
    pub fn finish(&self) -> (Vec<(&'static str, f64, &'static str)>, Vec<&'static str>) {
        let mut idle = Vec::new();
        let metrics = LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or_else(|| {
                    idle.push(name);
                    0.0
                });
                (name, v, unit)
            })
            .collect();
        (metrics, idle)
    }
}

/// Counter totals the program emitted, keyed by their Prometheus base
/// name (`lubt_lp_pivots`), so that the counters of a returned trace and
/// of a `/metrics` scrape read alike. A counter the program never emitted
/// reads as `None`, never as 0: a counter renamed by a later change is
/// reported missing instead of silently becoming zero.
#[derive(Debug, Default, Clone)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Adds `value` to the dotted counter `key` (`"lp.pivots"`).
    pub fn add(&mut self, key: &str, value: u64) {
        *self.0.entry(metric_name(key)).or_default() += value;
    }

    /// The `_total` counters of a Prometheus text exposition.
    pub fn from_exposition(text: &str) -> Self {
        let mut counters = Counters::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let parsed = line.rsplit_once(' ').and_then(|(name, value)| {
                Some((name.strip_suffix("_total")?, value.parse::<f64>().ok()?))
            });
            if let Some((name, value)) = parsed {
                *counters.0.entry(name.to_string()).or_default() += value as u64;
            }
        }
        counters
    }

    /// The total of the dotted counter `key`; `None` when never emitted.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.get(&metric_name(key)).copied()
    }

    /// Whether any counter under the dotted namespace `ns` was emitted.
    pub fn has_namespace(&self, ns: &str) -> bool {
        let prefix = format!("{}_", metric_name(ns));
        self.0.keys().any(|k| k.starts_with(&prefix))
    }
}

/// Which simplex backends a traced run used, told from the counters the
/// run left behind rather than from the workload's configuration: the
/// revised backend counts under `lp.*` (`lp.priced_columns`, with
/// `lp/refactor` spans), the dense tableau under `simplex.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backends {
    /// The revised simplex ran.
    pub revised: bool,
    /// The dense tableau simplex ran.
    pub dense: bool,
}

impl Backends {
    /// The backends `counters` show.
    pub fn of(counters: &Counters) -> Self {
        Backends {
            revised: counters.has_namespace("lp"),
            dense: counters.has_namespace("simplex"),
        }
    }

    /// The counter namespaces of the backends that ran.
    fn namespaces(self) -> Vec<&'static str> {
        [(self.revised, "lp"), (self.dense, "simplex")]
            .into_iter()
            .filter_map(|(ran, ns)| ran.then_some(ns))
            .collect()
    }
}

/// The sum of counter `key` over the namespaces `nss`; `None` when any of
/// them lacks it (or there are none).
fn summed(counters: &Counters, nss: &[&str], key: &str) -> Option<u64> {
    if nss.is_empty() {
        return None;
    }
    nss.iter()
        .map(|ns| counters.get(&format!("{ns}.{key}")))
        .sum()
}

/// The EBF, separation and LP layers from one program span tree and its
/// counters, per `nets`. The LP metric set follows the backends the
/// counters show; both backends' pivot counters add up under one name.
pub fn solver_layers(layers: &mut Layers, table: &PathTable, counters: &Counters, nets: f64) {
    layers.span_self("lint.s", table, "solve/lint", nets);
    // The solve span's own time plus its per-round grouping spans: model
    // assembly and Steiner row appends.
    let assembly = table
        .self_ns("solve")
        .map(|s| s + table.self_ns("solve/round.*").unwrap_or(0));
    layers.set_or_missing(
        "ebf.assembly_s",
        assembly.map(|ns| ns as f64 * 1e-9 / nets),
        "span path solve",
    );
    layers.span_self("separation.s", table, "separate", nets);
    layers.span_total("lp.s", table, "lp", nets);
    layers.span_total("lp.pricing_s", table, "lp/pricing", nets);
    layers.span_total("lp.ratio_test_s", table, "lp/ratio_test", nets);
    let backends = Backends::of(counters);
    let nss = backends.namespaces();
    if nss.is_empty() {
        layers.set_or_missing("lp.pivots", None, "lp.* or simplex.* counters");
    }
    if backends.revised {
        layers.span_total("lp.eta_apply_s", table, "lp/eta_apply", nets);
        layers.span_total("lp.refactor_s", table, "lp/refactor", nets);
        layers.counter_per("lp.priced_columns", counters, "lp.priced_columns", nets);
        layers.counter_per("lp.refactorizations", counters, "lp.refactorizations", nets);
    }
    if backends.dense {
        layers.span_total("lp.pivot_s", table, "lp/pivot", nets);
        layers.span_total("lp.dual_s", table, "lp/dual", nets);
    }
    if !nss.is_empty() {
        let pivots = summed(counters, &nss, "pivots");
        let per = |c: Option<u64>| c.map(|c| c as f64 / nets);
        layers.set_or_missing("lp.pivots", per(pivots), "counter <backend>.pivots");
        layers.set_or_missing(
            "lp.dual_pivots",
            per(summed(counters, &nss, "dual_pivots")),
            "counter <backend>.dual_pivots",
        );
        match (pivots, summed(counters, &nss, "degenerate_pivots")) {
            (Some(p), Some(d)) if p > 0 => {
                layers.set("lp.nondegenerate_ratio", 1.0 - d as f64 / p as f64)
            }
            (Some(_), Some(_)) => {}
            _ => layers.set_or_missing(
                "lp.nondegenerate_ratio",
                None,
                "counters <backend>.pivots, <backend>.degenerate_pivots",
            ),
        }
    }
    layers.counter_per("separation.rounds", counters, "ebf.rounds", nets);
    let scanned = counters.get("ebf.sep_rows_scanned");
    layers.set_or_missing(
        "separation.rows_scanned",
        scanned.map(|s| s as f64 / nets),
        "counter ebf.sep_rows_scanned",
    );
    match scanned.zip(counters.get("ebf.sep_rows_reused")) {
        Some((s, r)) if s + r > 0 => {
            layers.set("separation.reuse_ratio", r as f64 / (s + r) as f64)
        }
        Some(_) => {}
        None => layers.set_or_missing(
            "separation.reuse_ratio",
            None,
            "counters ebf.sep_rows_scanned, ebf.sep_rows_reused",
        ),
    }
    layers.counter_per("separation.cuts", counters, "ebf.cuts_added", nets);
}

/// `steiner.row_ratio`: Steiner rows materialized over all sink pairs.
pub fn row_ratio(rows: usize, pairs: usize) -> Option<f64> {
    (pairs > 0).then(|| rows as f64 / pairs as f64)
}

/// The program's own span trees and counters over a traced replay, with
/// the Steiner row totals of the solves behind them.
#[derive(Debug, Default)]
pub struct Program {
    rows: Vec<(String, u64, u64)>,
    counters: Counters,
    steiner_rows: usize,
    pairs: usize,
}

impl Program {
    /// Adds one returned trace.
    pub fn add_trace(&mut self, trace: SolveTrace) {
        self.rows.extend(trace.spans.flatten());
        for (k, v) in trace.counters {
            self.counters.add(&k, v);
        }
    }

    /// Adds one solve's Steiner rows and sink pairs.
    pub fn add_report(&mut self, report: &EbfReport) {
        self.steiner_rows += report.steiner_rows;
        self.pairs += report.total_pairs;
    }

    /// The merged span paths.
    pub fn table(&self) -> PathTable {
        PathTable::new(self.rows.iter().cloned())
    }

    /// Sets the EBF, separation, LP and `par` layers per `nets`, for
    /// solves at `width` workers each.
    pub fn layers(&self, layers: &mut Layers, nets: f64, width: usize, nproc: usize) {
        solver_layers(layers, &self.table(), &self.counters, nets);
        layers.set_or_missing(
            "steiner.row_ratio",
            row_ratio(self.steiner_rows, self.pairs),
            "Steiner row count",
        );
        par_layers(layers, &self.counters, nets, width, nproc);
    }
}

/// The `par.*` layer: assisted loops per net, helper joins per possible
/// join given the intra-solve `width` (at width 1 no helper can join and
/// the program counts no joins), and the dispatch cost of one assisted
/// loop at `nproc` workers.
pub fn par_layers(layers: &mut Layers, counters: &Counters, nets: f64, width: usize, nproc: usize) {
    let loops = counters.get("par.assist.loops");
    layers.counter_per("par.assist_loops", counters, "par.assist.loops", nets);
    if width > 1 {
        match loops.zip(counters.get("par.assist.joins")) {
            Some((l, j)) if l > 0 => {
                layers.set("par.join_ratio", j as f64 / (l as f64 * (width - 1) as f64))
            }
            Some(_) => {}
            None => layers.set_or_missing(
                "par.join_ratio",
                None,
                "counters par.assist.loops, par.assist.joins",
            ),
        }
    }
    layers.set("par.assist_call_us", assist_call_us(nproc));
}

/// Median wall time, in microseconds, of one public `assist_reduce` call
/// at `threads` workers over a pricing-window-sized range with a trivial
/// body: the cost of dispatching an assisted loop.
fn assist_call_us(threads: usize) -> f64 {
    const RANGE: usize = 256;
    const GRAIN: usize = 32;
    const CALLS: usize = 400;
    let call = || {
        lubt_par::assist_reduce(threads, RANGE, GRAIN, |r| r.len(), |a, b| a + b)
            .expect("non-empty range")
    };
    for _ in 0..CALLS / 4 {
        std::hint::black_box(call());
    }
    let samples: Vec<f64> = (0..CALLS)
        .map(|_| {
            let t = Instant::now();
            let n = std::hint::black_box(call());
            assert_eq!(n, RANGE, "assist_reduce covered the range");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples).expect("samples were taken")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&str, u64)]) -> Counters {
        let mut c = Counters::default();
        for &(k, v) in pairs {
            c.add(k, v);
        }
        c
    }

    fn idle(layers: &Layers) -> Vec<&'static str> {
        layers.finish().1
    }

    #[test]
    fn an_absent_counter_is_missing_not_zero() {
        let c = counters(&[("ebf.rounds", 0), ("serve.cold_solves", 12)]);
        assert_eq!(c.get("ebf.rounds"), Some(0));
        assert_eq!(c.get("ebf.cuts_added"), None);
        let mut layers = Layers::default();
        layers.counter_per("separation.rounds", &c, "ebf.rounds", 4.0);
        layers.counter_per("serve.cold_solves", &c, "serve.cold_solves", 1.0);
        assert!(layers.missing().is_empty());
        // A counter emitted as 0 is a measured 0, not "not exercised".
        assert!(!idle(&layers).contains(&"separation.rounds"));
        // A renamed counter is reported missing, not as 0.
        layers.counter_per("separation.cuts", &c, "ebf.cuts_added", 4.0);
        assert_eq!(layers.missing().len(), 1);
        assert!(layers.missing()[0].contains("ebf.cuts_added"));
    }

    #[test]
    fn exposition_counters_read_like_trace_counters() {
        let text = "# TYPE lubt_lp_pivots_total counter\nlubt_lp_pivots_total 42\n\
                    lubt_lp_pivots_max 7\nlubt_serve_cold_solves_total 3\n\
                    lubt_x_per_solve_bucket{le=\"1\"} 2\n";
        let c = Counters::from_exposition(text);
        assert_eq!(c.get("lp.pivots"), Some(42));
        assert_eq!(c.get("serve.cold_solves"), Some(3));
        assert_eq!(c.get("lp.degenerate_pivots"), None);
        assert!(c.has_namespace("lp"));
        assert!(!c.has_namespace("simplex"));
    }

    /// Counters both backends emit on every solve, under namespace `ns`.
    fn lp_counters(ns: &str, revised: bool) -> Vec<(String, u64)> {
        let mut v = vec![
            (format!("{ns}.pivots"), 40),
            (format!("{ns}.dual_pivots"), 60),
            (format!("{ns}.degenerate_pivots"), 10),
        ];
        if revised {
            v.push(("lp.priced_columns".to_string(), 900));
            v.push(("lp.refactorizations".to_string(), 5));
        }
        v
    }

    fn ebf_counters() -> Vec<(String, u64)> {
        [
            ("ebf.rounds", 6),
            ("ebf.sep_rows_scanned", 30),
            ("ebf.sep_rows_reused", 10),
            ("ebf.cuts_added", 20),
        ]
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect()
    }

    fn solve_tree(lp_children: &[&str]) -> PathTable {
        let mut rows = vec![
            ("solve".to_string(), 2, 1000),
            ("solve/lint".to_string(), 2, 10),
            ("solve/round.0001".to_string(), 2, 900),
            ("solve/round.0001/separate".to_string(), 2, 100),
            ("solve/round.0001/lp".to_string(), 2, 700),
        ];
        for child in ["pricing", "ratio_test"].iter().chain(lp_children) {
            rows.push((format!("solve/round.0001/lp/{child}"), 2, 50));
        }
        PathTable::new(rows)
    }

    fn run(table: &PathTable, pairs: Vec<(String, u64)>) -> Layers {
        let mut c = Counters::default();
        for (k, v) in pairs {
            c.add(&k, v);
        }
        let mut layers = Layers::default();
        solver_layers(&mut layers, table, &c, 2.0);
        layers
    }

    #[test]
    fn the_lp_metric_set_follows_the_backend_that_ran() {
        // Dense: pivot and dual spans, simplex.* counters.
        let dense = run(
            &solve_tree(&["pivot", "dual"]),
            [lp_counters("simplex", false), ebf_counters()].concat(),
        );
        assert!(dense.missing().is_empty(), "{:?}", dense.missing());
        let (metrics, unexercised) = dense.finish();
        assert!(unexercised.contains(&"lp.refactor_s"));
        assert!(unexercised.contains(&"lp.priced_columns"));
        let value = |m: &[(&str, f64, &str)], n: &str| m.iter().find(|x| x.0 == n).unwrap().1;
        assert_eq!(value(&metrics, "lp.pivots"), 20.0);
        assert_eq!(value(&metrics, "lp.nondegenerate_ratio"), 0.75);
        assert_eq!(value(&metrics, "separation.reuse_ratio"), 0.25);

        // Revised: eta_apply and refactor spans, lp.* counters; no dense
        // spans are asked for.
        let revised = run(
            &solve_tree(&["eta_apply", "refactor"]),
            [lp_counters("lp", true), ebf_counters()].concat(),
        );
        assert!(revised.missing().is_empty(), "{:?}", revised.missing());
        assert!(idle(&revised).contains(&"lp.pivot_s"));

        // The same workload switching backend is measured, not broken;
        // but a backend whose spans vanished is reported missing.
        let switched = run(
            &solve_tree(&["pivot", "dual"]),
            [lp_counters("lp", true), ebf_counters()].concat(),
        );
        assert!(switched.missing().iter().any(|m| m.contains("lp/refactor")));

        // No backend counters at all: the LP layer is missing.
        let none = run(&solve_tree(&["pivot", "dual"]), ebf_counters());
        assert!(none.missing().iter().any(|m| m.contains("lp.pivots")));
    }

    #[test]
    fn both_backends_add_up_under_one_name() {
        let both = run(
            &solve_tree(&["pivot", "dual", "eta_apply", "refactor"]),
            [
                lp_counters("lp", true),
                lp_counters("simplex", false),
                ebf_counters(),
            ]
            .concat(),
        );
        assert!(both.missing().is_empty(), "{:?}", both.missing());
        let (metrics, _) = both.finish();
        let pivots = metrics.iter().find(|m| m.0 == "lp.pivots").unwrap().1;
        assert_eq!(pivots, 40.0);
    }

    #[test]
    fn join_ratio_needs_its_counters_only_above_width_one() {
        let c = counters(&[("par.assist.loops", 10)]);
        let mut wide = Layers::default();
        par_layers(&mut wide, &c, 1.0, 2, 2);
        assert!(wide
            .missing()
            .iter()
            .any(|m| m.contains("par.assist.joins")));
        let mut narrow = Layers::default();
        par_layers(&mut narrow, &c, 1.0, 1, 2);
        assert!(narrow.missing().is_empty());
        assert!(idle(&narrow).contains(&"par.join_ratio"));
        let mut gone = Layers::default();
        par_layers(&mut gone, &Counters::default(), 1.0, 1, 2);
        assert!(gone
            .missing()
            .iter()
            .any(|m| m.contains("par.assist.loops")));
    }
}
