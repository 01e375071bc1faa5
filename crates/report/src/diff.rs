//! Baseline-vs-candidate regression comparison over two `BENCH_pins.json`
//! reports. This is the CI gate: `pins-report --diff OLD NEW` exits
//! non-zero when any benchmark regressed past the threshold.

use crate::bench::BenchRow;

/// Severity of one observed change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Past the threshold, or a deterministic counter that differs from the
    /// baseline — fails the gate.
    Regression,
    /// Got meaningfully better; informational.
    Improvement,
    /// Within the threshold, or below the noise floor.
    Unchanged,
}

/// One per-benchmark, per-metric comparison.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Benchmark name.
    pub benchmark: String,
    /// Metric compared (`wall_ms`, `smt_queries`, `verdict`, ...).
    pub metric: &'static str,
    /// Baseline value rendered for display.
    pub old: String,
    /// Candidate value rendered for display.
    pub new: String,
    /// Relative change in percent (`+25.0` = 25% worse), when numeric.
    pub delta_pct: Option<f64>,
    /// How the change is classified.
    pub severity: Severity,
}

impl DiffEntry {
    /// True when this entry is a deterministic counter that differs from
    /// the baseline.
    pub fn is_counter_mismatch(&self) -> bool {
        self.severity == Severity::Regression
            && EXACT_COUNTERS.iter().any(|(name, _)| *name == self.metric)
    }
}

/// The full comparison: every entry plus overall verdict helpers.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// All compared metrics, benchmark order preserved from the baseline.
    pub entries: Vec<DiffEntry>,
    /// Benchmarks present in only one of the two reports.
    pub unmatched: Vec<String>,
}

impl DiffReport {
    /// True when any metric regressed (the gate should fail).
    pub fn has_regressions(&self) -> bool {
        self.entries
            .iter()
            .any(|e| e.severity == Severity::Regression)
    }

    /// The regression entries only.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries
            .iter()
            .filter(|e| e.severity == Severity::Regression)
    }
}

/// Noise floor for `wall_ms`: it must move by at least this much
/// *absolutely* before the relative threshold applies. CI machines jitter;
/// a 3 ms → 5 ms swing on a trivial benchmark is not a 66% regression worth
/// failing on.
const WALL_MS_FLOOR: f64 = 100.0;

/// Reads one counter of a row.
type CounterOf = fn(&BenchRow) -> u64;

/// Deterministic counters: the same code and configuration reproduce them
/// exactly on any machine, so a difference from the baseline in either
/// direction fails the gate.
const EXACT_COUNTERS: [(&str, CounterOf); 5] = [
    ("smt_queries", |r| r.smt_queries),
    ("feasibility_queries", |r| r.feasibility_queries),
    ("cache_hits", |r| r.cache_hits),
    ("cache_misses", |r| r.cache_misses),
    ("budget_steps", |r| r.budget_steps),
];

/// Compares candidate rows against baseline rows. `threshold_pct` is the
/// allowed relative growth of `wall_ms` (e.g. `20.0` = +20%); past it the
/// row regresses. The [`EXACT_COUNTERS`] regress on any change, and any
/// verdict downgrade regresses (solved → anything else, regardless of
/// timing).
pub fn diff(old: &[BenchRow], new: &[BenchRow], threshold_pct: f64) -> DiffReport {
    let mut report = DiffReport::default();
    for o in old {
        let Some(n) = new.iter().find(|n| n.benchmark == o.benchmark) else {
            report
                .unmatched
                .push(format!("{} (baseline only)", o.benchmark));
            continue;
        };
        compare_verdict(&mut report, o, n);
        compare_num(
            &mut report,
            &o.benchmark,
            "wall_ms",
            o.wall_ms,
            n.wall_ms,
            threshold_pct,
            WALL_MS_FLOOR,
        );
        for (metric, value) in EXACT_COUNTERS {
            compare_exact(&mut report, &o.benchmark, metric, value(o), value(n));
        }
    }
    for n in new {
        if !old.iter().any(|o| o.benchmark == n.benchmark) {
            report
                .unmatched
                .push(format!("{} (candidate only)", n.benchmark));
        }
    }
    report
}

fn compare_verdict(report: &mut DiffReport, o: &BenchRow, n: &BenchRow) {
    let severity = if o.verdict == n.verdict {
        Severity::Unchanged
    } else if o.verdict == "solved" {
        Severity::Regression
    } else if n.verdict == "solved" {
        Severity::Improvement
    } else {
        Severity::Unchanged
    };
    report.entries.push(DiffEntry {
        benchmark: o.benchmark.clone(),
        metric: "verdict",
        old: o.verdict.clone(),
        new: n.verdict.clone(),
        delta_pct: None,
        severity,
    });
}

fn compare_num(
    report: &mut DiffReport,
    benchmark: &str,
    metric: &'static str,
    old: f64,
    new: f64,
    threshold_pct: f64,
    floor: f64,
) {
    let delta_pct = if old > 0.0 {
        Some(100.0 * (new - old) / old)
    } else {
        None
    };
    let past_floor = (new - old).abs() >= floor;
    let severity = match delta_pct {
        Some(pct) if past_floor && pct > threshold_pct => Severity::Regression,
        Some(pct) if past_floor && pct < -threshold_pct => Severity::Improvement,
        // zero baseline: there is no percentage to divide by, but cost
        // appearing from nothing past the noise floor is a regression, not
        // a silent pass
        None if past_floor && new > old => Severity::Regression,
        _ => Severity::Unchanged,
    };
    report.entries.push(DiffEntry {
        benchmark: benchmark.to_string(),
        metric,
        old: format!("{old:.1}"),
        new: format!("{new:.1}"),
        delta_pct,
        severity,
    });
}

fn compare_exact(
    report: &mut DiffReport,
    benchmark: &str,
    metric: &'static str,
    old: u64,
    new: u64,
) {
    report.entries.push(DiffEntry {
        benchmark: benchmark.to_string(),
        metric,
        old: old.to_string(),
        new: new.to_string(),
        delta_pct: (old > 0).then(|| 100.0 * (new as f64 - old as f64) / old as f64),
        severity: if old == new {
            Severity::Unchanged
        } else {
            Severity::Regression
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, verdict: &str, wall_ms: f64, queries: u64) -> BenchRow {
        BenchRow {
            benchmark: name.to_string(),
            verdict: verdict.to_string(),
            wall_ms,
            smt_queries: queries,
            ..BenchRow::default()
        }
    }

    #[test]
    fn identical_runs_have_no_regressions() {
        let rows = vec![row("Σi", "solved", 900.0, 120)];
        let report = diff(&rows, &rows.clone(), 20.0);
        assert!(!report.has_regressions());
        assert!(report.unmatched.is_empty());
    }

    #[test]
    fn wall_time_regression_past_threshold_and_floor_fails() {
        let old = vec![row("Σi", "solved", 1000.0, 120)];
        let new = vec![row("Σi", "solved", 1500.0, 120)];
        let report = diff(&old, &new, 20.0);
        assert!(report.has_regressions());
        let r = report.regressions().next().unwrap();
        assert_eq!(r.metric, "wall_ms");
        assert!((r.delta_pct.unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn small_absolute_jitter_is_ignored_even_at_high_percentages() {
        // 3ms → 5ms is +66% but far below the noise floor
        let old = vec![row("Σi", "solved", 3.0, 120)];
        let new = vec![row("Σi", "solved", 5.0, 120)];
        assert!(!diff(&old, &new, 20.0).has_regressions());
    }

    #[test]
    fn query_count_growth_regresses() {
        // any change fails, however small and in either direction
        for queries in [101, 99] {
            let old = vec![row("Σi", "solved", 1000.0, 100)];
            let new = vec![row("Σi", "solved", 1000.0, queries)];
            let report = diff(&old, &new, 20.0);
            let r = report.regressions().next().expect("a mismatch fails");
            assert_eq!(r.metric, "smt_queries");
            assert!(r.is_counter_mismatch());
            assert_eq!(report.regressions().count(), 1);
        }
    }

    #[test]
    fn every_deterministic_counter_is_compared_exactly() {
        let old = vec![row("Σi", "solved", 1000.0, 100)];
        let mut new = old.clone();
        new[0].feasibility_queries = 1;
        new[0].cache_hits = 1;
        new[0].cache_misses = 1;
        new[0].budget_steps = 1;
        let report = diff(&old, &new, 20.0);
        let metrics: Vec<&str> = report.regressions().map(|r| r.metric).collect();
        assert_eq!(
            metrics,
            [
                "feasibility_queries",
                "cache_hits",
                "cache_misses",
                "budget_steps"
            ]
        );
        // the rendered report names the counter and the fix
        let text = crate::render::diff_report(&report, 20.0);
        assert!(
            text.contains("MISMATCH: Σi cache_hits"),
            "rendered:\n{text}"
        );
        assert!(
            text.contains("regenerate ci/BENCH_baseline.json"),
            "rendered:\n{text}"
        );
    }

    #[test]
    fn verdict_downgrade_always_regresses() {
        let old = vec![row("Σi", "solved", 1000.0, 100)];
        let new = vec![row("Σi", "budget-exhausted", 500.0, 50)];
        let report = diff(&old, &new, 20.0);
        assert!(report.has_regressions());
        assert_eq!(report.regressions().next().unwrap().metric, "verdict");
    }

    /// Regression test: a zero-baseline metric that grows past the noise
    /// floor must fail the gate, not divide by zero or silently pass.
    #[test]
    fn growth_from_a_zero_baseline_regresses_instead_of_passing_silently() {
        let old = vec![row("Σi", "solved", 0.0, 0)];
        let new = vec![row("Σi", "solved", 500.0, 200)];
        let report = diff(&old, &new, 20.0);
        let metrics: Vec<&str> = report.regressions().map(|r| r.metric).collect();
        assert!(metrics.contains(&"wall_ms"), "got {metrics:?}");
        assert!(metrics.contains(&"smt_queries"), "got {metrics:?}");
        for r in report.regressions() {
            assert_eq!(r.delta_pct, None, "no finite percentage from zero");
        }
        // the rendered row must show the undefined delta, not panic or "-"
        let text = crate::render::diff_report(&report, 20.0);
        assert!(text.contains("+inf%"), "rendered:\n{text}");
    }

    /// Zero-baseline wall-time growth below the noise floor stays
    /// unchanged; a counter growing from zero has no floor.
    #[test]
    fn zero_baseline_jitter_below_the_floor_is_ignored() {
        let old = vec![row("Σi", "solved", 0.0, 0)];
        let new = vec![row("Σi", "solved", 50.0, 0)];
        assert!(!diff(&old, &new, 20.0).has_regressions());
        let new = vec![row("Σi", "solved", 50.0, 10)];
        let report = diff(&old, &new, 20.0);
        let metrics: Vec<&str> = report.regressions().map(|r| r.metric).collect();
        assert_eq!(metrics, ["smt_queries"]);
    }

    /// Unmatched benchmarks must surface as a prominent warning in the
    /// rendered report, not a footnote that is easy to miss.
    #[test]
    fn unmatched_benchmarks_render_a_warning() {
        let old = vec![row("Σi", "solved", 1000.0, 100)];
        let new = vec![
            row("Σi", "solved", 1000.0, 100),
            row("Vector shift", "solved", 100.0, 10),
        ];
        let report = diff(&old, &new, 20.0);
        let text = crate::render::diff_report(&report, 20.0);
        assert!(
            text.contains("WARNING") && text.contains("NOT gated"),
            "rendered:\n{text}"
        );
        assert!(text.contains("Vector shift (candidate only)"));
    }

    #[test]
    fn improvements_and_unmatched_rows_do_not_fail_the_gate() {
        let old = vec![row("Σi", "no-solution", 2000.0, 400)];
        let new = vec![
            row("Σi", "solved", 800.0, 400),
            row("Vector shift", "solved", 100.0, 10),
        ];
        let report = diff(&old, &new, 20.0);
        assert!(!report.has_regressions());
        assert_eq!(report.unmatched, vec!["Vector shift (candidate only)"]);
    }
}
