//! Turns measured passes into named metrics with units.

use std::time::Duration;

use pins_trace::HistSnapshot;

use crate::pass::ProgramRun;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// A metric named `name`, measured in `unit`.
pub fn m(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sum_ms(pass: &[ProgramRun], f: impl Fn(&ProgramRun) -> Duration) -> f64 {
    pass.iter().map(|r| ms(f(r))).sum()
}

fn sum_reg(pass: &[ProgramRun], key: &str) -> f64 {
    pass.iter().map(|r| r.registry.get(key) as f64).sum()
}

fn sum_reg_prefix(pass: &[ProgramRun], prefix: &str) -> f64 {
    pass.iter()
        .flat_map(|r| r.registry.snapshot_prefixed(prefix).into_values())
        .map(|v| v as f64)
        .sum()
}

fn merged_hist(pass: &[ProgramRun], key: &str) -> HistSnapshot {
    let mut h = HistSnapshot::empty();
    for r in pass {
        h.merge(&r.registry.histogram_snapshot(key));
    }
    h
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The value of the metric named `name` in `metrics`.
pub fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|x| x.name == name)
        .map_or(f64::NAN, |x| x.value)
}

/// Solutions returned and solutions that failed the round trip.
fn solutions(pass: &[ProgramRun]) -> (u64, u64) {
    pass.iter().fold((0, 0), |(s, w), r| {
        (s + r.counts.solutions, w + r.counts.wrong)
    })
}

/// End-to-end metrics that are printed but not exported: they are 0 on
/// workloads that return no solution, and exported metrics are never 0.
pub const PRINTED_ONLY: [&str; 2] = ["validate_s", "wrong_solution_share"];

/// The end-to-end metrics of one pass, measured in the process that ran it.
pub fn end_to_end(pass: &[ProgramRun]) -> Vec<Metric> {
    let synth_s = sum_ms(pass, |r| r.synth) / 1e3;
    let validate_s = sum_ms(pass, ProgramRun::validate) / 1e3;
    let log_sum: f64 = pass.iter().map(|r| ms(r.synth).ln()).sum();
    let (sols, wrong) = solutions(pass);
    vec![
        m("synth_s", "s", synth_s),
        m(
            "synth_geomean_ms",
            "ms",
            (log_sum / pass.len() as f64).exp(),
        ),
        m("validate_s", "s", validate_s),
        m("operation_s", "s", synth_s + validate_s),
        m("setup_s", "s", sum_ms(pass, |r| r.setup) / 1e3),
        m(
            "wrong_solution_share",
            "ratio",
            ratio(wrong as f64, sols as f64),
        ),
        m("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// The per-layer metrics one timed pass gives, read from the registries
/// `Pins::run_with` recorded into and from the benchmark's own timers.
pub fn layers(pass: &[ProgramRun]) -> Vec<Metric> {
    let queries = sum_reg(pass, "smt.queries");
    let smt_hist = merged_hist(pass, "smt.query_ns");
    let feas_hist = merged_hist(pass, "feas.query_ns");
    let (sols, wrong) = solutions(pass);
    let count = |f: fn(&ProgramRun) -> u64| pass.iter().map(f).sum::<u64>() as f64;
    vec![
        m("suite.session_ms", "ms", sum_ms(pass, |r| r.setup)),
        m(
            "suite.wrong_solution_share",
            "ratio",
            ratio(wrong as f64, sols as f64),
        ),
        m(
            "core.phase.smt_reduction_ms",
            "ms",
            sum_reg(pass, "phase.smt_reduction") / 1e6,
        ),
        m("core.phase.sat_ms", "ms", sum_reg(pass, "phase.sat") / 1e6),
        m(
            "core.phase.pickone_ms",
            "ms",
            sum_reg(pass, "phase.pickone") / 1e6,
        ),
        m("core.iterations", "count", count(|r| r.counts.iterations)),
        m("solve.sat_size", "count", sum_reg(pass, "solve.sat_size")),
        m(
            "solve.candidates",
            "count",
            sum_reg(pass, "solve.candidates"),
        ),
        m("smt.queries", "count", queries),
        m("smt.cache_hits", "count", sum_reg(pass, "smt.cache_hits")),
        m(
            "smt.hit_ratio",
            "ratio",
            ratio(sum_reg(pass, "smt.cache_hits"), queries),
        ),
        m(
            "smt.miss.first_seen",
            "count",
            sum_reg(pass, "smt.miss.first_seen"),
        ),
        m(
            "smt.miss.near_miss",
            "count",
            sum_reg(pass, "smt.miss.near_miss"),
        ),
        m("smt.query_us.p50", "us", smt_hist.p50() as f64 / 1e3),
        m("smt.query_us.p99", "us", smt_hist.p99() as f64 / 1e3),
        m(
            "smt.audit.warm_share",
            "ratio",
            ratio(
                sum_reg(pass, "smt.audit.warm_ns"),
                sum_reg(pass, "smt.audit.solve_ns"),
            ),
        ),
        m(
            "smt.unknowns",
            "count",
            sum_reg_prefix(pass, "smt.unknown."),
        ),
        m(
            "smt.cache_entries",
            "count",
            pass.iter().map(|r| r.cache_entries).max().unwrap_or(0) as f64,
        ),
        m("feas.queries", "count", sum_reg(pass, "feas.queries")),
        m("feas.cache_hits", "count", sum_reg(pass, "feas.cache_hits")),
        m(
            "feas.query_ms",
            "ms",
            sum_reg_prefix(pass, "feas.query_ns.phase.") / 1e6,
        ),
        m("feas.query_us.p99", "us", feas_hist.p99() as f64 / 1e3),
        m(
            "symexec.explore_ms",
            "ms",
            sum_reg(pass, "phase.symexec") / 1e6,
        ),
        m("bmc.check_ms", "ms", sum_ms(pass, |r| r.bmc)),
        m("bmc.paths", "count", count(|r| r.bmc_paths)),
        m("interp.round_trip_ms", "ms", sum_ms(pass, |r| r.round_trip)),
        m("budget.steps", "count", count(|r| r.counts.steps)),
    ]
}

/// The per-metric median over passes (the mean of the middle two for an
/// even count). Every pass must list the same metrics in the same order.
pub fn median(passes: &[Vec<Metric>]) -> Vec<Metric> {
    let first = &passes[0];
    (0..first.len())
        .map(|i| {
            let mut values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
            values.sort_by(f64::total_cmp);
            let n = values.len();
            let value = if n % 2 == 1 {
                values[n / 2]
            } else {
                (values[n / 2 - 1] + values[n / 2]) / 2.0
            };
            Metric {
                value,
                ..first[i].clone()
            }
        })
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`); NaN where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The result line: one JSON object with the run's verdict and metrics.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
