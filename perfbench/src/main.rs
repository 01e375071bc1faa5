//! The PINS benchmark: runs one workload of suite programs through the
//! public entry points (set-up, `Pins::run_with`, round trip and BMC) for a
//! fixed number of seconds and prints end-to-end or per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload small-queries --seed 0 --seconds 40 --trace 0
//! ```
//!
//! Every pass runs in a fresh child process of this binary (`--pass`), so
//! each one starts from the process state a user's run starts from. The
//! last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. See README.md.

mod metrics;
mod pass;
mod report;
mod traced;
mod workload;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use metrics::{m, result_json, Metric};
use report::{PassReport, Row};
use workload::{Settings, Workload};

const USAGE: &str = "usage: pins-perfbench --workload <small-queries|axioms-bmc|capped-search> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Which pass a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PassKind {
    Timed,
    Traced,
}

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process: run this one pass and report it.
    pass: Option<PassKind>,
}

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let value = value.ok_or_else(|| format!("{flag} takes a value"))?;
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag}: not a whole number: {value}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 40;
    let mut trace = false;
    let mut pass = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name = args.next().ok_or("--workload takes a name")?;
                workload =
                    Some(workload::find(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = parse_u64(&flag, args.next())?,
            "--seconds" => seconds = parse_u64(&flag, args.next())?,
            "--trace" => {
                trace = match parse_u64(&flag, args.next())? {
                    0 => false,
                    1 => true,
                    n => return Err(format!("--trace takes 0 or 1, not {n}")),
                }
            }
            "--pass" => {
                pass = match args.next().as_deref() {
                    Some("timed") => Some(PassKind::Timed),
                    Some("traced") => Some(PassKind::Traced),
                    _ => return Err("--pass takes timed or traced".to_string()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        pass,
    })
}

/// Runs one pass in this process and reports it.
fn run_one_pass(args: &Args, kind: PassKind) -> PassReport {
    let workload = args.workload;
    let settings = Settings::new(workload, args.seed);
    let (runs, trace, mut problems) = match kind {
        PassKind::Timed => {
            let runs: Vec<_> = workload
                .entries
                .iter()
                .map(|entry| pass::run_program(entry, &settings))
                .collect();
            (runs, Vec::new(), Vec::new())
        }
        PassKind::Traced => {
            let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("{}.spans.jsonl", workload.name));
            match traced::run(workload, &settings, &spans_path) {
                Ok(t) => (t.pass, t.metrics, t.problems),
                Err(e) => {
                    let problem = format!("writing {}: {e}", spans_path.display());
                    (Vec::new(), Vec::new(), vec![problem])
                }
            }
        }
    };
    let end_to_end = metrics::end_to_end(&runs);
    if !metrics::value(&end_to_end, "peak_rss_mb").is_finite() {
        problems.push("peak RSS unavailable: /proc/self/status has no VmHWM".to_string());
    }
    PassReport {
        rows: runs.iter().map(Row::of).collect(),
        end_to_end,
        layers: metrics::layers(&runs),
        trace,
        problems,
    }
}

/// Runs one pass in a fresh child process and waits for it to end.
fn spawn_pass(args: &Args, kind: PassKind) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args([
            "--pass",
            match kind {
                PassKind::Timed => "timed",
                PassKind::Traced => "traced",
            },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a pass process: {e}"))?;
    if !out.status.success() {
        return Err(format!("a pass process ended with {}", out.status));
    }
    PassReport::parse(&String::from_utf8_lossy(&out.stdout))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for x in metrics {
        println!("  {:<30} {:>16.4} {}", x.name, x.value, x.unit);
    }
}

/// One row per program: the counts of the first pass, and the median,
/// minimum and maximum synthesis time over all passes given.
fn print_rows(passes: &[&PassReport]) {
    println!(
        "{:<14} {:<14} {:<12} {:>9} {:>9} {:>9} {:>9} {:>5} {:>5} {:>4} {:>8} {:>8} {:>5} {:>5}",
        "program",
        "cap",
        "end",
        "synth_ms",
        "min_ms",
        "max_ms",
        "valid_ms",
        "sols",
        "wrong",
        "bmc",
        "steps",
        "queries",
        "feas",
        "iters"
    );
    for (i, r) in passes[0].rows.iter().enumerate() {
        let mut synth: Vec<f64> = passes.iter().map(|p| p.rows[i].synth_ms).collect();
        synth.sort_by(f64::total_cmp);
        let c = &r.counts;
        println!(
            "{:<14} {:<14} {:<12} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>5} {:>5} {:>4} {:>8} {:>8} {:>5} {:>5}",
            r.name,
            r.cap,
            r.end,
            synth[synth.len() / 2],
            synth[0],
            synth[synth.len() - 1],
            r.validate_ms,
            c.solutions,
            c.wrong,
            r.bmc,
            c.steps,
            c.smt_queries,
            c.feas_queries,
            c.iterations,
        );
    }
    for r in passes.iter().flat_map(|p| p.rows.iter()) {
        if let Some(why) = &r.failure {
            println!("  FAILED {}: {why}", r.name);
        }
    }
}

/// Compares every program's counts in `other` with those in `reference`;
/// returns one line per mismatch.
fn determinism_problems(reference: &PassReport, other: &PassReport, label: &str) -> Vec<String> {
    reference
        .rows
        .iter()
        .zip(&other.rows)
        .filter(|(a, b)| a.counts != b.counts)
        .map(|(a, b)| {
            format!(
                "{}: {label} differs from pass 1\n    pass 1: {:?}\n    {label}: {:?}",
                a.name, a.counts, b.counts
            )
        })
        .collect()
}

/// Per-metric medians over passes of the metrics `pick` selects.
fn median_of(passes: &[PassReport], pick: fn(&PassReport) -> &Vec<Metric>) -> Vec<Metric> {
    metrics::median(&passes.iter().map(|p| pick(p).clone()).collect::<Vec<_>>())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = args.pass {
        print!("{}", run_one_pass(&args, kind).render());
        return ExitCode::SUCCESS;
    }
    let workload = args.workload;
    let settings = Settings::new(workload, args.seed);
    println!("settings (rows are comparable only when these lines match):");
    for line in settings.describe(workload) {
        println!("  {line}");
    }

    // every operation of every pass counts as attempted; a pass process
    // that crashes or reports too few rows fails the operations it lost
    let programs = workload.entries.len();
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems: Vec<String> = Vec::new();
    let mut record = |result: Result<PassReport, String>, problems: &mut Vec<String>| {
        attempted += programs;
        match result {
            Ok(report) if report.rows.len() == programs => {
                failed += report.rows.iter().filter(|r| r.failure.is_some()).count();
                problems.extend(report.problems.iter().cloned());
                Some(report)
            }
            Ok(report) => {
                failed += programs;
                problems.extend(report.problems);
                problems.push(format!(
                    "a pass process reported {} of {programs} programs",
                    report.rows.len()
                ));
                None
            }
            Err(e) => {
                failed += programs;
                problems.push(e);
                None
            }
        }
    };

    // timed passes: no recorder installed; stop once another pass (and,
    // with --trace 1, the traced pass) would overrun the time asked for
    let limit = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<PassReport> = Vec::new();
    loop {
        let t0 = Instant::now();
        passes.extend(record(spawn_pass(&args, PassKind::Timed), &mut problems));
        let took = t0.elapsed();
        let reserve = if args.trace { took } else { Duration::ZERO };
        if start.elapsed() + took + reserve > limit {
            break;
        }
    }
    let traced = if args.trace {
        record(spawn_pass(&args, PassKind::Traced), &mut problems)
    } else {
        None
    };

    let mut exported = Vec::new();
    if !passes.is_empty() {
        println!("\n{} timed passes, each in a fresh process:", passes.len());
        print_rows(&passes.iter().collect::<Vec<_>>());
        for (i, p) in passes.iter().enumerate().skip(1) {
            problems.extend(determinism_problems(
                &passes[0],
                p,
                &format!("pass {}", i + 1),
            ));
        }
        let per_pass: Vec<String> = passes
            .iter()
            .map(|p| format!("{:.4}", metrics::value(&p.end_to_end, "synth_s")))
            .collect();
        println!("synth_s per pass: {}", per_pass.join(" "));
        let e2e = median_of(&passes, |p| &p.end_to_end);
        print_metrics("\nend-to-end (median over timed passes):", &e2e);
        if !args.trace {
            exported = e2e
                .iter()
                .filter(|x| !metrics::PRINTED_ONLY.contains(&x.name.as_str()))
                .cloned()
                .collect();
        } else if let Some(traced) = &traced {
            println!(
                "\ntraced pass (spans in perfbench/out/{}.spans.jsonl):",
                workload.name
            );
            print_rows(&[traced]);
            problems.extend(determinism_problems(&passes[0], traced, "traced pass"));
            let timed_synth = metrics::value(&e2e, "synth_s");
            let traced_synth = metrics::value(&traced.end_to_end, "synth_s");
            let overhead = 100.0 * (traced_synth - timed_synth) / timed_synth;
            println!(
                "tracing overhead: synth_s {traced_synth:.4} traced vs {timed_synth:.4} untraced \
                 ({overhead:+.1}%); peak RSS of the traced pass {:.1} MB",
                metrics::value(&traced.end_to_end, "peak_rss_mb")
            );
            let mut layers = median_of(&passes, |p| &p.layers);
            layers.extend(traced.trace.iter().cloned());
            layers.push(m("trace.overhead_pct", "%", overhead));
            print_metrics(
                "\nper-layer (timed-pass medians; trace-derived from the traced pass):",
                &layers,
            );
            exported = layers;
        }
    }

    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let correct = failed == 0 && problems.is_empty() && !exported.is_empty();
    println!("{}", result_json(correct, attempted, failed, &exported));
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
