//! The `pins-report` command-line tool.
//!
//! ```text
//! pins-report TRACE.jsonl...            analyze one or more trace files
//!   --bench-json FILE                   also summarize a profile report
//!   --top K                             top-K expensive queries (default 10)
//!   --folded FILE                       write folded stacks ('-' = stdout)
//!
//! pins-report --diff OLD.json NEW.json  regression-gate two profile reports
//!   --threshold PCT                     allowed growth in % (default 20)
//!
//! pins-report --fuzz REPORT.jsonl       summarize a pins-fuzz report
//!
//! pins-report --xray TRACE.jsonl...     solver forensics from a trace
//!   --delta-k N                         scoreboard delta bound (default 4)
//!   --xray-json FILE                    also write the JSON artifact
//!   --top K                             top-K unsat cores (default 10)
//! ```
//!
//! Exit codes: `0` success / no regressions or violations, `1` regressions
//! or fuzz violations found, `2` usage or IO error.

use pins_report::{analyze::Analysis, bench, diff, fuzz, ingest::Trace, render, xray};

struct Cli {
    traces: Vec<String>,
    bench_json: Option<String>,
    top: usize,
    folded: Option<String>,
    diff: Option<(String, String)>,
    threshold: f64,
    fuzz: Option<String>,
    xray: bool,
    delta_k: u64,
    xray_json: Option<String>,
}

const USAGE: &str = "usage: pins-report [--bench-json FILE] [--top K] [--folded FILE] TRACE.jsonl...\n       pins-report --diff OLD.json NEW.json [--threshold PCT]\n       pins-report --fuzz REPORT.jsonl\n       pins-report --xray [--delta-k N] [--xray-json FILE] [--top K] TRACE.jsonl...";

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        traces: Vec::new(),
        bench_json: None,
        top: 10,
        folded: None,
        diff: None,
        threshold: 20.0,
        fuzz: None,
        xray: false,
        delta_k: pins_report::xray::DEFAULT_DELTA_K,
        xray_json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--bench-json" => {
                cli.bench_json = Some(args.next().ok_or("--bench-json takes a path")?);
            }
            "--top" => {
                cli.top = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--top takes a count")?;
            }
            "--folded" => {
                cli.folded = Some(args.next().ok_or("--folded takes a path (or '-')")?);
            }
            "--threshold" => {
                cli.threshold = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threshold takes a percentage")?;
            }
            "--diff" => {
                let old = args.next().ok_or("--diff takes OLD and NEW paths")?;
                let new = args.next().ok_or("--diff takes OLD and NEW paths")?;
                cli.diff = Some((old, new));
            }
            "--fuzz" => {
                cli.fuzz = Some(args.next().ok_or("--fuzz takes a report path")?);
            }
            "--xray" => cli.xray = true,
            "--delta-k" => {
                cli.delta_k = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--delta-k takes an atom count")?;
            }
            "--xray-json" => {
                cli.xray_json = Some(args.next().ok_or("--xray-json takes a path")?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}\n{USAGE}"));
            }
            path => cli.traces.push(path.to_string()),
        }
    }
    if cli.diff.is_none() && cli.fuzz.is_none() && cli.traces.is_empty() && cli.bench_json.is_none()
    {
        return Err(USAGE.to_string());
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<i32, String> {
    if let Some(path) = &cli.fuzz {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = fuzz::parse_report(&text);
        print!("{}", fuzz::render(&report));
        return Ok(if report.has_violations() { 1 } else { 0 });
    }

    if let Some((old_path, new_path)) = &cli.diff {
        let old = bench::read(old_path)?;
        let new = bench::read(new_path)?;
        let report = diff::diff(&old, &new, cli.threshold);
        print!("{}", render::diff_report(&report, cli.threshold));
        return Ok(if report.has_regressions() { 1 } else { 0 });
    }

    let mut trace = Trace::default();
    for path in &cli.traces {
        trace.merge(Trace::from_file(path)?);
    }

    if cli.xray {
        let report = xray::XrayReport::from_trace(&trace, cli.delta_k);
        print!("{}", xray::render(&report, cli.top));
        if let Some(path) = &cli.xray_json {
            let text = report.to_json(cli.top);
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote xray JSON to {path}");
        }
        return Ok(0);
    }

    let bench_rows = match &cli.bench_json {
        Some(path) => bench::read(path)?,
        None => Vec::new(),
    };
    let analysis = Analysis::from_trace(&trace, cli.top);
    print!(
        "{}",
        render::analysis_report(&analysis, &trace.stats, &bench_rows)
    );
    if let Some(path) = &cli.folded {
        let text = analysis.folded_text();
        if path == "-" {
            print!("{text}");
        } else {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote folded stacks to {path}");
        }
    }
    Ok(0)
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match run(&cli) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("pins-report: {msg}");
            std::process::exit(2);
        }
    }
}
