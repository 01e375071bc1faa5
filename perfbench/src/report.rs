//! What one pass process reports to the run that started it, as
//! tab-separated lines on its standard output.
//!
//! Each pass runs in a fresh process: the process-wide query cache, its
//! miss-forensics index and the heap all start as a user's run does.

use crate::metrics::{m, Metric};
use crate::pass::{Counts, ProgramRun};

/// One program's outcome in one pass.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub cap: String,
    pub end: String,
    pub synth_ms: f64,
    pub validate_ms: f64,
    /// `ok`, `cex` or `-` (BMC did not run).
    pub bmc: String,
    pub counts: Counts,
    /// Why the operation failed, if it did.
    pub failure: Option<String>,
}

impl Row {
    /// The row for a measured operation.
    pub fn of(run: &ProgramRun) -> Row {
        Row {
            name: run.name.to_string(),
            cap: run.cap.to_string(),
            end: format!("{:?}", run.end),
            synth_ms: run.synth.as_secs_f64() * 1e3,
            validate_ms: run.validate().as_secs_f64() * 1e3,
            bmc: match run.bmc_verified {
                Some(true) => "ok",
                Some(false) => "cex",
                None => "-",
            }
            .to_string(),
            counts: run.counts,
            failure: run.failure.clone(),
        }
    }
}

/// Everything one pass process measured.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    pub rows: Vec<Row>,
    /// End-to-end metrics of the pass.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics read from the registries and the benchmark's timers.
    pub layers: Vec<Metric>,
    /// Per-layer metrics read from the trace (traced pass only).
    pub trace: Vec<Metric>,
    /// Checks the pass process itself failed (trace completeness).
    pub problems: Vec<String>,
}

/// Tabs and newlines would break the line format.
fn clean(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

impl PassReport {
    /// Renders the report as lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let counts: Vec<String> = r.counts.to_array().iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "row\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                clean(&r.name),
                r.cap,
                r.end,
                r.synth_ms,
                r.validate_ms,
                r.bmc,
                counts.join(" "),
                clean(r.failure.as_deref().unwrap_or(""))
            ));
        }
        for (kind, metrics) in [
            ("e2e", &self.end_to_end),
            ("layer", &self.layers),
            ("trace", &self.trace),
        ] {
            for x in metrics {
                out.push_str(&format!(
                    "metric\t{kind}\t{}\t{}\t{}\n",
                    x.name, x.unit, x.value
                ));
            }
        }
        for p in &self.problems {
            out.push_str(&format!("problem\t{}\n", clean(p)));
        }
        out
    }

    /// Parses what [`render`](Self::render) wrote.
    pub fn parse(text: &str) -> Result<PassReport, String> {
        let mut report = PassReport::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            let num = |s: &str| {
                s.parse::<f64>()
                    .map_err(|_| format!("bad number in {line:?}"))
            };
            match f.as_slice() {
                ["row", name, cap, end, synth, validate, bmc, counts, failure] => {
                    let counts: Vec<u64> = counts
                        .split(' ')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| format!("bad counts in {line:?}"))?;
                    let counts: [u64; 10] = counts
                        .try_into()
                        .map_err(|_| format!("wrong number of counts in {line:?}"))?;
                    report.rows.push(Row {
                        name: name.to_string(),
                        cap: cap.to_string(),
                        end: end.to_string(),
                        synth_ms: num(synth)?,
                        validate_ms: num(validate)?,
                        bmc: bmc.to_string(),
                        counts: Counts::from_array(counts),
                        failure: (!failure.is_empty()).then(|| failure.to_string()),
                    });
                }
                ["metric", kind, name, unit, value] => {
                    let metric = m(name, unit, num(value)?);
                    match *kind {
                        "e2e" => report.end_to_end.push(metric),
                        "layer" => report.layers.push(metric),
                        "trace" => report.trace.push(metric),
                        _ => return Err(format!("unknown metric kind in {line:?}")),
                    }
                }
                ["problem", text] => report.problems.push(text.to_string()),
                _ => return Err(format!("unexpected line {line:?}")),
            }
        }
        Ok(report)
    }
}
