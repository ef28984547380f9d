//! `lubt report`: diff two `lubt-bench-v1` documents and decide whether
//! the current run regressed against the baseline.
//!
//! The comparison mirrors the document's determinism split. Everything
//! under `"deterministic"` — per-instance rows and the aggregate's
//! counters/maxima — is compared *exactly*: any increase in a work
//! counter (pivots, separation rounds, Steiner rows) or in tree cost is
//! a regression, any decrease an improvement worth refreshing the
//! baseline for. Wall-clock totals under `"determinism_exempt"` are
//! compared as ratios against a slack threshold, because clocks are
//! noisy where counters are not.

use std::collections::BTreeMap;

use lubt_obs::json::{self, json_escape, json_f64, Value};

/// How a single finding affects the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// A deterministic metric got worse; fails the gate.
    Regression,
    /// A wall-clock total got worse past the threshold; fails the gate
    /// unless timings are ignored.
    TimingRegression,
    /// A metric got better; never fails, suggests a baseline refresh.
    Improvement,
    /// Structural or informational difference (added/removed keys).
    Note,
}

impl Severity {
    fn label(self) -> &'static str {
        match self {
            Severity::Regression => "regression",
            Severity::TimingRegression => "timing-regression",
            Severity::Improvement => "improvement",
            Severity::Note => "note",
        }
    }
}

/// One observed difference between baseline and current.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Verdict contribution.
    pub severity: Severity,
    /// What differs (e.g. `instance u10/simplex lp_iterations`).
    pub subject: String,
    /// Human-readable delta.
    pub detail: String,
}

/// Comparison options.
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Relative slack for wall-clock comparisons: current is a timing
    /// regression when it exceeds `baseline * (1 + threshold)`.
    pub timing_threshold: f64,
    /// When `true`, timing regressions are reported but never fail.
    pub ignore_timings: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            timing_threshold: 0.25,
            ignore_timings: false,
        }
    }
}

/// The outcome of comparing two benchmark documents.
#[derive(Debug, Clone)]
pub struct Report {
    /// Labels of the two documents.
    pub baseline_label: String,
    /// Label of the current document.
    pub current_label: String,
    /// Every difference found, in comparison order.
    pub findings: Vec<Finding>,
    /// Deterministic metrics compared and found identical.
    pub unchanged: usize,
    /// Whether timing regressions count toward [`Report::failed`].
    pub gate_timings: bool,
}

impl Report {
    fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Deterministic regressions found.
    pub fn regressions(&self) -> usize {
        self.count(Severity::Regression)
    }

    /// Wall-clock regressions found.
    pub fn timing_regressions(&self) -> usize {
        self.count(Severity::TimingRegression)
    }

    /// `true` when the gate should fail (nonzero exit).
    pub fn failed(&self) -> bool {
        self.regressions() > 0 || (self.gate_timings && self.timing_regressions() > 0)
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "bench report: baseline \"{}\" vs current \"{}\"\n",
            self.baseline_label, self.current_label
        );
        for f in &self.findings {
            s.push_str(&format!(
                "  {:<18} {}: {}\n",
                f.severity.label(),
                f.subject,
                f.detail
            ));
        }
        s.push_str(&format!(
            "  {} deterministic metric(s) unchanged\n",
            self.unchanged
        ));
        if self.count(Severity::Improvement) > 0 {
            s.push_str("  improvements present: consider refreshing the committed baseline\n");
        }
        s.push_str(&format!(
            "verdict: {} ({} regression(s), {} timing regression(s){})\n",
            if self.failed() { "REGRESSION" } else { "PASS" },
            self.regressions(),
            self.timing_regressions(),
            if self.gate_timings {
                ""
            } else {
                ", timings not gating"
            }
        ));
        s
    }

    /// Renders the report as one strict-JSON document
    /// (`lubt-report-v1`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"lubt-report-v1\",\n");
        s.push_str(&format!(
            "  \"baseline\": \"{}\",\n  \"current\": \"{}\",\n",
            json_escape(&self.baseline_label),
            json_escape(&self.current_label)
        ));
        s.push_str(&format!(
            "  \"failed\": {},\n  \"regressions\": {},\n  \
             \"timing_regressions\": {},\n  \"unchanged\": {},\n  \
             \"gate_timings\": {},\n",
            self.failed(),
            self.regressions(),
            self.timing_regressions(),
            self.unchanged,
            self.gate_timings
        ));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str(&format!(
                "    {{\"severity\": \"{}\", \"subject\": \"{}\", \"detail\": \"{}\"}}",
                f.severity.label(),
                json_escape(&f.subject),
                json_escape(&f.detail)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

fn str_at<'a>(doc: &'a Value, path: &[&str]) -> Result<&'a str, String> {
    doc.get_path(path)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string at {}", path.join(".")))
}

/// Flattens `<root>.aggregate.{counters,maxima}` into `counters.<key>` /
/// `maxima.<key>` entries, plus events and solve totals.
fn scalars_under(doc: &Value, root: &[&str]) -> Result<BTreeMap<String, u64>, String> {
    let path = |tail: &str| -> String { format!("{}.{tail}", root.join(".")) };
    let mut agg_path = root.to_vec();
    agg_path.push("aggregate");
    let agg = doc
        .get_path(&agg_path)
        .ok_or_else(|| format!("missing {}", path("aggregate")))?;
    let mut out = BTreeMap::new();
    for section in ["counters", "maxima"] {
        let Some(pairs) = agg.get(section).and_then(Value::as_object) else {
            return Err(format!("missing {}.{section}", path("aggregate")));
        };
        for (k, v) in pairs {
            let n = v
                .as_u64()
                .ok_or_else(|| format!("non-integer value for {section}.{k}"))?;
            out.insert(format!("{section}.{k}"), n);
        }
    }
    for key in ["events", "events_dropped"] {
        if let Some(n) = agg.get(key).and_then(Value::as_u64) {
            out.insert(key.to_string(), n);
        }
    }
    let mut solves_path = root.to_vec();
    solves_path.push("solves");
    if let Some(n) = doc.get_path(&solves_path).and_then(Value::as_u64) {
        out.insert("solves".to_string(), n);
    }
    Ok(out)
}

fn deterministic_scalars(doc: &Value) -> Result<BTreeMap<String, u64>, String> {
    scalars_under(doc, &["deterministic"])
}

/// The `"deterministic".extended` scalars, when the document carries the
/// section (documents predating the revised backend do not).
fn extended_scalars(doc: &Value) -> Result<Option<BTreeMap<String, u64>>, String> {
    if doc.get_path(&["deterministic", "extended"]).is_none() {
        return Ok(None);
    }
    scalars_under(doc, &["deterministic", "extended"]).map(Some)
}

/// Exact comparison of two scalar maps under a subject prefix; shared by
/// the core and extended aggregates.
fn compare_scalars(
    report: &mut Report,
    prefix: &str,
    base: &BTreeMap<String, u64>,
    cur: &BTreeMap<String, u64>,
) {
    for (key, &bv) in base {
        match cur.get(key) {
            Some(&cv) if cv == bv => report.unchanged += 1,
            Some(&cv) => report.findings.push(Finding {
                severity: if cv > bv {
                    Severity::Regression
                } else {
                    Severity::Improvement
                },
                subject: format!("{prefix} {key}"),
                detail: format!("{bv} -> {cv} ({})", pct(bv as f64, cv as f64)),
            }),
            None => report.findings.push(Finding {
                severity: Severity::Regression,
                subject: format!("{prefix} {key}"),
                detail: "present in baseline, missing in current".to_string(),
            }),
        }
    }
    for key in cur.keys() {
        if !base.contains_key(key) {
            report.findings.push(Finding {
                severity: Severity::Note,
                subject: format!("{prefix} {key}"),
                detail: "new in current (absent from baseline)".to_string(),
            });
        }
    }
}

/// Indexes instance rows by `name/backend`; values are the row's numeric
/// fields (`cost` carried as its exact `f64`).
type RowFields = BTreeMap<String, f64>;

fn instance_rows(doc: &Value) -> Result<BTreeMap<String, RowFields>, String> {
    let rows = doc
        .get_path(&["deterministic", "instances"])
        .and_then(Value::as_array)
        .ok_or("missing deterministic.instances")?;
    let mut out = BTreeMap::new();
    for row in rows {
        let name = str_at(row, &["name"])?;
        let backend = str_at(row, &["backend"])?;
        let mut fields = BTreeMap::new();
        for key in [
            "sinks",
            "cost",
            "lp_iterations",
            "separation_rounds",
            "steiner_rows",
            "total_pairs",
        ] {
            let v = row
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("row {name}/{backend}: missing {key}"))?;
            fields.insert(key.to_string(), v);
        }
        let truncated = match row.get("truncated") {
            Some(Value::Bool(b)) => *b,
            _ => return Err(format!("row {name}/{backend}: missing truncated")),
        };
        fields.insert("truncated".to_string(), f64::from(u8::from(truncated)));
        out.insert(format!("{name}/{backend}"), fields);
    }
    Ok(out)
}

fn wall_timings(doc: &Value) -> BTreeMap<String, u64> {
    doc.get_path(&["determinism_exempt", "suite_wall_ns"])
        .and_then(Value::as_object)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default()
}

fn pct(baseline: f64, current: f64) -> String {
    if baseline == 0.0 {
        "from zero".to_string()
    } else {
        format!("{:+.1}%", (current / baseline - 1.0) * 100.0)
    }
}

/// Compares two benchmark documents.
///
/// # Errors
///
/// Fails on malformed JSON, schema/suite mismatches, and structurally
/// incomparable documents (different instance sets are reported as
/// findings, not errors).
pub fn compare(baseline: &str, current: &str, opts: &ReportOptions) -> Result<Report, String> {
    let base = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = json::parse(current).map_err(|e| format!("current: {e}"))?;
    for (doc, which) in [(&base, "baseline"), (&cur, "current")] {
        let schema = str_at(doc, &["schema"])?;
        if schema != crate::suite::BENCH_SCHEMA {
            return Err(format!(
                "{which}: unsupported schema \"{schema}\" (want \"{}\")",
                crate::suite::BENCH_SCHEMA
            ));
        }
    }
    let (base_suite, cur_suite) = (
        str_at(&base, &["suite", "name"])?,
        str_at(&cur, &["suite", "name"])?,
    );
    if base_suite != cur_suite {
        return Err(format!(
            "suite mismatch: baseline ran \"{base_suite}\", current ran \"{cur_suite}\" — \
             the runs are not comparable"
        ));
    }

    let mut report = Report {
        baseline_label: str_at(&base, &["label"])?.to_string(),
        current_label: str_at(&cur, &["label"])?.to_string(),
        findings: Vec::new(),
        unchanged: 0,
        gate_timings: !opts.ignore_timings,
    };

    // Per-instance rows: exact field-by-field comparison.
    let base_rows = instance_rows(&base)?;
    let cur_rows = instance_rows(&cur)?;
    for (key, bfields) in &base_rows {
        let Some(cfields) = cur_rows.get(key) else {
            report.findings.push(Finding {
                severity: Severity::Regression,
                subject: format!("instance {key}"),
                detail: "present in baseline, missing in current".to_string(),
            });
            continue;
        };
        for (field, &bv) in bfields {
            let cv = cfields.get(field).copied().unwrap_or(f64::NAN);
            if cv == bv {
                report.unchanged += 1;
            } else {
                report.findings.push(Finding {
                    severity: if cv > bv || cv.is_nan() {
                        Severity::Regression
                    } else {
                        Severity::Improvement
                    },
                    subject: format!("instance {key} {field}"),
                    detail: format!("{} -> {} ({})", json_f64(bv), json_f64(cv), pct(bv, cv)),
                });
            }
        }
    }
    for key in cur_rows.keys() {
        if !base_rows.contains_key(key) {
            report.findings.push(Finding {
                severity: Severity::Note,
                subject: format!("instance {key}"),
                detail: "new in current (absent from baseline)".to_string(),
            });
        }
    }

    // Aggregate deterministic scalars: exact comparison.
    let base_scalars = deterministic_scalars(&base)?;
    let cur_scalars = deterministic_scalars(&cur)?;
    compare_scalars(&mut report, "aggregate", &base_scalars, &cur_scalars);

    // Extended scope (revised backend, --full sizes): exact comparison
    // when both documents carry it; one-sided presence is structural.
    match (extended_scalars(&base)?, extended_scalars(&cur)?) {
        (Some(b), Some(c)) => compare_scalars(&mut report, "extended", &b, &c),
        (None, Some(_)) => report.findings.push(Finding {
            severity: Severity::Note,
            subject: "extended".to_string(),
            detail: "current carries an extended scope the baseline predates".to_string(),
        }),
        (Some(_), None) => report.findings.push(Finding {
            severity: Severity::Regression,
            subject: "extended".to_string(),
            detail: "present in baseline, missing in current".to_string(),
        }),
        (None, None) => {}
    }

    // Wall clock: ratio comparison with slack; only keys present in both
    // legs are comparable (thread counts may differ between machines).
    let base_wall = wall_timings(&base);
    let cur_wall = wall_timings(&cur);
    for (key, &bns) in &base_wall {
        let Some(&cns) = cur_wall.get(key) else {
            continue;
        };
        if bns == 0 {
            continue;
        }
        let ratio = cns as f64 / bns as f64;
        if ratio > 1.0 + opts.timing_threshold {
            report.findings.push(Finding {
                severity: Severity::TimingRegression,
                subject: format!("wall {key}"),
                detail: format!(
                    "{bns} ns -> {cns} ns ({}, threshold {:+.1}%)",
                    pct(bns as f64, cns as f64),
                    opts.timing_threshold * 100.0
                ),
            });
        } else if ratio < 1.0 / (1.0 + opts.timing_threshold) {
            report.findings.push(Finding {
                severity: Severity::Improvement,
                subject: format!("wall {key}"),
                detail: format!("{bns} ns -> {cns} ns ({})", pct(bns as f64, cns as f64)),
            });
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{self, SuiteConfig};
    use lubt_obs::json::validate;

    fn doc() -> String {
        suite::run(&SuiteConfig {
            label: "base".to_string(),
            threads: 1,
            sizes: vec![5],
            full: false,
            audit: false,
            serve: false,
            profile: false,
            par_intra: false,
        })
        .unwrap()
        .to_json()
    }

    #[test]
    fn identical_documents_pass_with_zero_findings() {
        let d = doc();
        let report = compare(&d, &d, &ReportOptions::default()).unwrap();
        assert!(!report.failed());
        assert_eq!(report.regressions(), 0);
        assert!(report.unchanged > 0);
        assert!(report.to_text().contains("verdict: PASS"));
        validate(&report.to_json()).unwrap();
    }

    #[test]
    fn counter_increase_is_a_regression_and_decrease_an_improvement() {
        let d = doc();
        let base = json::parse(&d).unwrap();
        let pivots = base
            .get_path(&["deterministic", "aggregate", "counters"])
            .and_then(|c| c.as_object())
            .and_then(|pairs| pairs.iter().find(|(k, _)| k.contains("pivots")))
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
            .expect("suite records a pivot counter");
        let worse = d.replacen(
            &format!("\"{}\": {}", pivots.0, pivots.1),
            &format!("\"{}\": {}", pivots.0, pivots.1 + 1),
            1,
        );
        assert_ne!(worse, d, "perturbation must hit the document");
        let report = compare(&d, &worse, &ReportOptions::default()).unwrap();
        assert!(report.failed(), "{}", report.to_text());
        assert!(report.to_text().contains("verdict: REGRESSION"));

        // The mirror image: the perturbed file as baseline is an
        // improvement, which passes.
        let report = compare(&worse, &d, &ReportOptions::default()).unwrap();
        assert!(!report.failed());
        assert!(report
            .to_text()
            .contains("refreshing the committed baseline"));
    }

    #[test]
    fn timing_regressions_gate_only_when_asked() {
        let d = doc();
        let base = json::parse(&d).unwrap();
        let (key, ns) = base
            .get_path(&["determinism_exempt", "suite_wall_ns"])
            .and_then(|w| w.as_object())
            .and_then(|pairs| pairs.first())
            .map(|(k, v)| (k.clone(), v.as_u64().unwrap()))
            .expect("suite records wall clock");
        let slower = d.replacen(
            &format!("\"{key}\": {ns}"),
            &format!("\"{key}\": {}", ns * 10),
            1,
        );
        assert_ne!(slower, d);
        let gated = compare(&d, &slower, &ReportOptions::default()).unwrap();
        assert_eq!(gated.timing_regressions(), 1);
        assert!(gated.failed());
        let ungated = compare(
            &d,
            &slower,
            &ReportOptions {
                ignore_timings: true,
                ..ReportOptions::default()
            },
        )
        .unwrap();
        assert_eq!(ungated.timing_regressions(), 1);
        assert!(!ungated.failed());
    }

    #[test]
    fn baseline_without_extended_scope_still_passes() {
        // A baseline recorded before the revised backend existed has no
        // "deterministic".extended member; a current run that carries one
        // must compare clean (structural note, no regression) — this is
        // the BENCH_seed.json gate after the kernel landed.
        let d = doc();
        let start = d.find(",\n    \"extended\"").expect("extended member");
        let end = d
            .find("\n  },\n  \"determinism_exempt\"")
            .expect("deterministic close");
        let old = format!("{}{}", &d[..start], &d[end..]);
        validate(&old).unwrap();
        let report = compare(&old, &d, &ReportOptions::default()).unwrap();
        assert!(!report.failed(), "{}", report.to_text());
        assert!(report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Note && f.subject == "extended"));
        // The reverse direction loses coverage and must fail.
        let report = compare(&d, &old, &ReportOptions::default()).unwrap();
        assert!(report.failed());
    }

    #[test]
    fn schema_and_suite_mismatches_are_errors() {
        let d = doc();
        assert!(compare(&d, "{}", &ReportOptions::default()).is_err());
        let other = d.replace("pinned-v1", "pinned-v2");
        let err = compare(&d, &other, &ReportOptions::default()).unwrap_err();
        assert!(err.contains("not comparable"), "{err}");
    }
}
