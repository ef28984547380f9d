//! The benchmark's own arithmetic: percentiles, the tail rule, the
//! ladder search and rate selection, and span self time. Pure functions, unit-tested below.

/// Fewest samples a reported tail percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Smallest of `values`; `None` when there are none.
pub fn min(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    values.into_iter().min_by(f64::total_cmp)
}

/// Largest of `values`; `None` when there are none.
pub fn max(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    values.into_iter().max_by(f64::total_cmp)
}

/// A tail latency together with the percentile it sits at and the
/// number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile in `0..100`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `samples` that still has at least
/// [`MIN_BEYOND`] samples above it (nearest rank): with `n` samples that
/// is the `n - 10`-th smallest, at percentile `100 (n - 10) / n`. `None`
/// when there are too few samples for any percentile to qualify.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: 100.0 * (n - MIN_BEYOND) as f64 / n as f64,
        value: v[n - MIN_BEYOND - 1],
        samples: n,
    })
}

/// [`tail`] when its percentile is at least the median, otherwise (fewer
/// than 20 samples) the maximum, recorded as percentile 100: for
/// generator lateness, where any late send counts.
pub fn tail_or_max(samples: &[f64]) -> Option<Tail> {
    tail(samples).filter(|t| t.percentile >= 50.0).or_else(|| {
        let max = samples.iter().copied().max_by(f64::total_cmp)?;
        Some(Tail {
            percentile: 100.0,
            value: max,
            samples: samples.len(),
        })
    })
}

/// What one rate step of the open-loop ladder observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests the schedule sent.
    pub sent: usize,
    /// Requests answered correctly.
    pub ok: usize,
    /// Requests that failed, were refused or were never answered.
    pub failed: usize,
    /// Tail of the latencies of the answered requests (`None` when too
    /// few were answered for the tail rule).
    pub tail_ms: Option<f64>,
    /// Requests still waiting client-side when the last one fell due.
    pub backlog: usize,
    /// How fast the client-side backlog (requests due but not answered)
    /// grew over the step, requests per second: its least-squares slope.
    pub backlog_growth: f64,
    /// Tail of how late the generator itself sent requests that were not
    /// held back by busy connections.
    pub late_ms: Option<f64>,
}

/// Generator lateness above which a step says nothing about the server.
pub const MAX_GENERATOR_LATE_MS: f64 = 10.0;

/// Backlog growth, as a share of the offered rate, above which the daemon
/// did not keep up.
pub const MAX_BACKLOG_GROWTH: f64 = 0.05;

impl Step {
    /// The generator could not keep its own schedule: the step is
    /// invalid, neither a pass nor a failure of the server.
    pub fn invalid(&self) -> bool {
        self.late_ms.is_some_and(|l| l > MAX_GENERATOR_LATE_MS)
    }

    /// Every request answered correctly, the tail within `limit_ms` and
    /// no backlog build-up. A failed or refused request is a miss, so any
    /// failure fails the step whatever the latencies of the others.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.ok == self.sent
            && self.tail_ms.is_some_and(|t| t <= limit_ms)
            && self.backlog_growth <= MAX_BACKLOG_GROWTH * self.rate
    }
}

/// Least-squares slope of `y` over `x`; `None` for fewer than two
/// distinct `x`.
pub fn slope(points: &[(f64, f64)]) -> Option<f64> {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    (sxx > 0.0).then(|| sxy / sxx)
}

/// The highest ladder rate among the valid steps that pass; invalid
/// steps count neither way. `None` when no step passes.
pub fn max_rps(steps: &[Step], limit_ms: f64) -> Option<f64> {
    steps
        .iter()
        .filter(|s| !s.invalid() && s.passes(limit_ms))
        .map(|s| s.rate)
        .max_by(f64::total_cmp)
}

/// The search of the rate ladder behind `serve_max_rps`. The ladder is
/// every multiple of `resolution` req/s up to `cap`. Fed the steps run so
/// far, the search climbs from `start` a `rung` at a time until a step
/// misses, then bisects between the highest passing rate and the lowest
/// missing one until they are one `resolution` apart. Finer rates than a
/// fixed ladder of equal rungs, in fewer steps. A step whose generator ran
/// late counts neither way, so the same rate is offered again; the caller
/// bounds the number of steps. A step that misses is offered once more at
/// the same rate, and only a second miss there counts: like a slower pass
/// of the same work, a single miss near the knee can come from
/// interference from outside the program. A miss with no pass below it
/// (the nominal step failing twice) ends the search: there is nothing to
/// bisect.
#[derive(Debug, Clone)]
pub struct RateSearch {
    rung: f64,
    resolution: f64,
    cap: f64,
    climb: f64,
    pass: Option<f64>,
    miss: Option<f64>,
    /// A rate that missed once and is offered again.
    again: Option<f64>,
}

impl RateSearch {
    /// A search whose climb starts at `start`.
    pub fn new(start: f64, rung: f64, resolution: f64, cap: f64) -> Self {
        RateSearch {
            rung,
            resolution,
            cap,
            climb: start,
            pass: None,
            miss: None,
            again: None,
        }
    }

    /// The rate of the next step; `None` when the search is over.
    pub fn next_rate(&self) -> Option<f64> {
        if self.again.is_some() {
            return self.again;
        }
        match (self.pass, self.miss) {
            (_, None) => (self.climb <= self.cap).then_some(self.climb),
            (Some(lo), Some(hi)) => {
                let mid = ((lo + hi) / 2.0 / self.resolution).round() * self.resolution;
                (mid > lo && mid < hi).then_some(mid)
            }
            (None, Some(_)) => None,
        }
    }

    /// Takes in a step run at any rate (the nominal step too).
    pub fn record(&mut self, step: &Step, limit_ms: f64) {
        if step.invalid() {
            return;
        }
        let second_try = self.again.take() == Some(step.rate);
        if step.passes(limit_ms) {
            self.pass = Some(self.pass.map_or(step.rate, |p| p.max(step.rate)));
            if self.miss.is_none() {
                self.climb = self.climb.max(step.rate + self.rung);
            }
        } else if second_try {
            self.miss = Some(self.miss.map_or(step.rate, |m| m.min(step.rate)));
        } else {
            self.again = Some(step.rate);
        }
    }
}

/// Self time of a span over `[start, end)`: its duration minus the part
/// of it that its children cover. Children may overlap each other (then
/// the union counts once) or stick out of the parent (then only the
/// inside part counts).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut inside: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    inside.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in inside {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// A span tree given as `(path, hits, total_ns)` rows, `/`-separated
/// paths, with numbered separation rounds (`round.0007`) folded into one
/// `round.*` path.
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    rows: Vec<(String, u64, u64)>,
}

impl PathTable {
    /// Builds the table, merging rows that fold onto the same path.
    pub fn new(rows: impl IntoIterator<Item = (String, u64, u64)>) -> Self {
        let mut merged: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
        for (path, hits, ns) in rows {
            let folded = path
                .split('/')
                .map(|seg| {
                    if seg.starts_with("round.") {
                        "round.*"
                    } else {
                        seg
                    }
                })
                .collect::<Vec<_>>()
                .join("/");
            let e = merged.entry(folded).or_default();
            e.0 += hits;
            e.1 += ns;
        }
        PathTable {
            rows: merged.into_iter().map(|(p, (h, n))| (p, h, n)).collect(),
        }
    }

    fn matching<'a>(&'a self, suffix: &'a str) -> impl Iterator<Item = &'a (String, u64, u64)> {
        self.rows
            .iter()
            .filter(move |(p, _, _)| p == suffix || p.ends_with(&format!("/{suffix}")))
    }

    /// Summed total time of every path ending in `suffix` (whole
    /// segments). `None` when no such path exists: a missing span is
    /// reported as missing, never as zero time.
    pub fn total_ns(&self, suffix: &str) -> Option<u64> {
        let mut found = false;
        let mut sum = 0;
        for (_, _, ns) in self.matching(suffix) {
            found = true;
            sum += ns;
        }
        found.then_some(sum)
    }

    /// Summed self time (total minus the totals of direct children) of
    /// every path ending in `suffix`; `None` when no such path exists.
    pub fn self_ns(&self, suffix: &str) -> Option<u64> {
        let mut found = false;
        let mut sum = 0u64;
        for (path, _, ns) in self.matching(suffix) {
            found = true;
            let prefix = format!("{path}/");
            let children: u64 = self
                .rows
                .iter()
                .filter(|(p, _, _)| {
                    p.strip_prefix(&prefix)
                        .is_some_and(|rest| !rest.contains('/'))
                })
                .map(|(_, _, n)| n)
                .sum();
            sum += ns.saturating_sub(children);
        }
        found.then_some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn min_and_max_of_some_and_none() {
        assert_eq!(min([3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(min([]), None);
        assert_eq!(max([3.0, 1.5, 2.0]), Some(3.0));
        assert_eq!(max([]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.samples, 200);
        assert!((t.percentile - 95.0).abs() < 1e-12);
        assert_eq!(t.value, 190.0);
        let beyond = samples.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, MIN_BEYOND);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
        let m = tail_or_max(&ten).unwrap();
        assert_eq!((m.value, m.percentile, m.samples), (10.0, 100.0, 10));
        // Below 20 samples the rule's percentile would sit under the median.
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_or_max(&nineteen).unwrap().value, 19.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail_or_max(&twenty).unwrap();
        assert_eq!((t.value, t.percentile), (10.0, 50.0));
        assert_eq!(tail_or_max(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut samples: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let a = tail(&samples).unwrap();
        samples.reverse();
        assert_eq!(tail(&samples), Some(a));
        assert_eq!(a.value, 89.0);
    }

    fn step(rate: f64, failed: usize, tail_ms: f64) -> Step {
        Step {
            rate,
            sent: 100,
            ok: 100 - failed,
            failed,
            tail_ms: Some(tail_ms),
            backlog: 0,
            backlog_growth: 0.5,
            late_ms: Some(0.1),
        }
    }

    #[test]
    fn max_rps_is_the_highest_passing_rate() {
        let steps = [
            step(10.0, 0, 50.0),
            step(20.0, 0, 90.0),
            step(30.0, 0, 150.0),
            step(40.0, 0, 95.0),
            step(50.0, 0, 180.0),
        ];
        assert_eq!(max_rps(&steps, 100.0), Some(40.0));
        assert_eq!(max_rps(&steps, 40.0), None);
        let mut rev = steps.to_vec();
        rev.reverse();
        assert_eq!(max_rps(&rev, 100.0), Some(40.0));
    }

    #[test]
    fn a_failed_or_refused_request_counts_as_a_miss() {
        // Fast tail, but one request failed: the step misses.
        let steps = [step(10.0, 0, 50.0), step(20.0, 1, 10.0)];
        assert_eq!(max_rps(&steps, 100.0), Some(10.0));
        assert_eq!(max_rps(&steps[1..], 100.0), None);
        // A request never answered is neither ok nor counted as failed
        // by the client: sent != ok still fails the step.
        let mut unanswered = step(10.0, 0, 50.0);
        unanswered.ok = 99;
        assert_eq!(max_rps(&[unanswered], 100.0), None);
        // Too few answers for a tail at all also misses.
        let mut no_tail = step(10.0, 0, 50.0);
        no_tail.tail_ms = None;
        assert!(!no_tail.passes(100.0));
    }

    #[test]
    fn backlog_growth_fails_and_generator_lateness_invalidates() {
        let mut grown = step(20.0, 0, 50.0);
        grown.backlog_growth = 2.0;
        assert!(!grown.passes(100.0), "growing by 10% of the rate");
        assert_eq!(max_rps(&[step(10.0, 0, 50.0), grown], 100.0), Some(10.0));
        let mut late = step(20.0, 0, 500.0);
        late.late_ms = Some(MAX_GENERATOR_LATE_MS * 2.0);
        assert!(late.invalid());
        // The invalid step is skipped, not treated as the server passing.
        let steps = [step(10.0, 0, 50.0), late];
        assert_eq!(max_rps(&steps, 1000.0), Some(10.0));
    }

    /// Runs a search against a daemon that sustains `knee` req/s; a
    /// step at `fail_at` fails one request. Returns the rates visited and
    /// the resulting `serve_max_rps`.
    fn search(knee: f64, fail_at: Option<f64>) -> (Vec<f64>, Option<f64>) {
        let mut s = RateSearch::new(40.0, 16.0, 2.0, 400.0);
        let mut steps = vec![step(20.0, 0, 50.0)];
        s.record(&steps[0], 100.0);
        while let Some(rate) = s.next_rate() {
            let failed = usize::from(fail_at == Some(rate));
            let st = step(rate, failed, if rate <= knee { 50.0 } else { 150.0 });
            s.record(&st, 100.0);
            steps.push(st);
            assert!(steps.len() < 40, "the search ends");
        }
        let rates = steps.iter().map(|s| s.rate).collect();
        (rates, max_rps(&steps, 100.0))
    }

    #[test]
    fn the_rate_search_climbs_then_bisects_to_the_resolution() {
        let (rates, max) = search(77.0, None);
        // Each miss is offered a second time before it counts.
        assert_eq!(
            rates,
            [20.0, 40.0, 56.0, 72.0, 88.0, 88.0, 80.0, 80.0, 76.0, 78.0, 78.0].to_vec()
        );
        assert_eq!(max, Some(76.0));
        // Every knee is found to within one resolution step.
        for knee in [41.0, 50.0, 63.0, 90.0, 131.0] {
            let max = search(knee, None).1.unwrap();
            assert!(max <= knee && knee - max < 2.0, "knee {knee}: {max}");
        }
        // A daemon that keeps up everywhere tops out at the ladder's cap.
        assert_eq!(search(1e9, None).1, Some(392.0));
    }

    #[test]
    fn a_failed_request_is_a_miss_in_the_rate_search() {
        // Fast enough at 72, but one request failed there: 72 is a miss
        // and the search bisects below it.
        let (rates, max) = search(77.0, Some(72.0));
        assert_eq!(
            rates,
            [20.0, 40.0, 56.0, 72.0, 72.0, 64.0, 68.0, 70.0].to_vec()
        );
        assert_eq!(max, Some(70.0));
        // A nominal step failing twice leaves nothing to bisect.
        let mut s = RateSearch::new(40.0, 16.0, 2.0, 400.0);
        s.record(&step(20.0, 1, 10.0), 100.0);
        assert_eq!(s.next_rate(), Some(20.0));
        s.record(&step(20.0, 1, 10.0), 100.0);
        assert_eq!(s.next_rate(), None);
    }

    #[test]
    fn a_single_miss_is_offered_again_and_a_pass_there_counts() {
        let mut s = RateSearch::new(40.0, 16.0, 2.0, 400.0);
        s.record(&step(20.0, 0, 50.0), 100.0);
        s.record(&step(40.0, 0, 500.0), 100.0);
        assert_eq!(s.next_rate(), Some(40.0));
        s.record(&step(40.0, 0, 50.0), 100.0);
        assert_eq!(s.next_rate(), Some(56.0));
    }

    #[test]
    fn an_invalid_step_is_offered_again() {
        let mut s = RateSearch::new(40.0, 16.0, 2.0, 400.0);
        s.record(&step(20.0, 0, 50.0), 100.0);
        let mut late = step(40.0, 0, 500.0);
        late.late_ms = Some(MAX_GENERATOR_LATE_MS * 2.0);
        s.record(&late, 100.0);
        assert_eq!(s.next_rate(), Some(40.0));
        s.record(&step(40.0, 0, 50.0), 100.0);
        assert_eq!(s.next_rate(), Some(56.0));
    }

    #[test]
    fn slope_fits_a_line_and_ignores_jitter() {
        let line: Vec<(f64, f64)> = (0..10)
            .map(|i| (f64::from(i), 3.0 * f64::from(i) + 1.0))
            .collect();
        assert!((slope(&line).unwrap() - 3.0).abs() < 1e-12);
        let flat: Vec<(f64, f64)> = (0..100)
            .map(|i| (f64::from(i), f64::from(i % 2) * 4.0))
            .collect();
        assert!(slope(&flat).unwrap().abs() < 0.01);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 5.0)]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (40, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 50)]), 60);
        // A child sticking out of the parent counts only inside it.
        assert_eq!(self_time(10, 100, &[(0, 20), (90, 130)]), 70);
        // Fully covered parent has no self time.
        assert_eq!(self_time(0, 100, &[(0, 60), (50, 100)]), 0);
    }

    fn table() -> PathTable {
        PathTable::new([
            ("solve".to_string(), 2, 1000),
            ("solve/lint".to_string(), 2, 50),
            ("solve/lp".to_string(), 2, 200),
            ("solve/lp/pricing".to_string(), 10, 120),
            ("solve/round.0001".to_string(), 2, 500),
            ("solve/round.0001/lp".to_string(), 2, 300),
            ("solve/round.0001/separate".to_string(), 2, 100),
            ("solve/round.0002".to_string(), 1, 100),
            ("solve/round.0002/separate".to_string(), 1, 40),
        ])
    }

    #[test]
    fn path_self_time_subtracts_direct_children_only() {
        let t = table();
        // 1000 - (50 + 200 + 600): grandchildren are not subtracted twice.
        assert_eq!(t.self_ns("solve"), Some(150));
        // Rounds fold into one path: 600 - (300 + 140).
        assert_eq!(t.self_ns("round.*"), Some(160));
        assert_eq!(t.self_ns("separate"), Some(140));
        // Every lp span wherever it sits: 200 + 300.
        assert_eq!(t.total_ns("lp"), Some(500));
        assert_eq!(t.total_ns("lp/pricing"), Some(120));
    }

    #[test]
    fn a_missing_span_path_is_missing_not_zero() {
        let t = table();
        assert_eq!(t.total_ns("lp/refactor"), None);
        assert_eq!(t.self_ns("embed"), None);
        // Suffixes match whole segments only.
        assert_eq!(t.total_ns("int"), None);
        // A span that exists with zero time is zero, not missing.
        let zero = PathTable::new([("solve/embed".to_string(), 1, 0)]);
        assert_eq!(zero.total_ns("embed"), Some(0));
    }
}
