//! The traced run: one more pass with a ring recorder installed, from
//! which per-layer self time and the solver's own counts are read.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

use pins_trace::{Event, EventKind, FieldValue, Recorder};

use crate::metrics::{m, Metric};
use crate::pass::{run_program, ProgramRun};
use crate::workload::{Settings, Workload};

/// Events one program may emit before the ring starts dropping them.
const RING_CAPACITY: usize = 4_000_000;

/// Span kinds whose self time is reported, with the metric name for each.
const SELF_TIMES: [(&str, &str); 5] = [
    ("pins.run", "core.run.self_ms"),
    ("pins.iteration", "core.iteration.self_ms"),
    ("symexec.", "symexec.self_ms"),
    ("smt.query", "smt.query.self_ms"),
    ("smt.check", "smt.check.self_ms"),
];

/// What the traced pass measured.
#[derive(Debug)]
pub struct Traced {
    /// The pass itself (with the recorder installed).
    pub pass: Vec<ProgramRun>,
    /// Per-layer metrics read from the spans.
    pub metrics: Vec<Metric>,
    /// Failed completeness checks: dropped events, or a program whose
    /// trace lacks its `pins.run` span or `trace.summary`.
    pub problems: Vec<String>,
}

/// Which part of the program a span or point belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    /// Inside `pins.run` but not under `symexec.*`: validity queries,
    /// `pickOne` and test generation.
    Synthesis,
    /// Under a `symexec.*` span inside `pins.run` (feasibility queries).
    Feasibility,
    /// Outside `pins.run`: the benchmark's own spans and BMC.
    Other,
}

#[derive(Default)]
struct Totals {
    self_us: [u64; SELF_TIMES.len()],
    check_us: u64,
    check_fields: [u64; 4],
    sat: [u64; 3],
}

fn field_u64(fields: &[(&'static str, FieldValue)], key: &str) -> u64 {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0, |(_, v)| match v {
            FieldValue::U64(n) => *n,
            _ => 0,
        })
}

/// Walks up from `span` (itself included) to find whether it runs inside
/// `pins.run`, and if so whether under a `symexec.*` span.
fn region_of(mut span: u64, spans: &HashMap<u64, (&'static str, u64)>) -> Region {
    let mut in_symexec = false;
    while let Some(&(name, parent)) = spans.get(&span) {
        if name == "pins.run" {
            return if in_symexec {
                Region::Feasibility
            } else {
                Region::Synthesis
            };
        }
        in_symexec |= name.starts_with("symexec.");
        span = parent;
    }
    Region::Other
}

fn tally(events: &[Event], totals: &mut Totals) {
    let spans: HashMap<u64, (&'static str, u64)> = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd)
        .map(|e| (e.span, (e.name, e.parent)))
        .collect();
    let mut child_us: HashMap<u64, u64> = HashMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::SpanEnd) {
        *child_us.entry(e.parent).or_default() += e.dur_us.unwrap_or(0);
    }
    for e in events {
        match e.kind {
            EventKind::SpanEnd => {
                let region = region_of(e.span, &spans);
                if region == Region::Other {
                    continue;
                }
                let dur = e.dur_us.unwrap_or(0);
                let own = dur.saturating_sub(child_us.get(&e.span).copied().unwrap_or(0));
                for (i, (prefix, _)) in SELF_TIMES.iter().enumerate() {
                    let hit = if prefix.ends_with('.') {
                        e.name.starts_with(prefix)
                    } else {
                        e.name == *prefix
                    };
                    if hit {
                        totals.self_us[i] += own;
                    }
                }
                if e.name == "smt.check" && region == Region::Synthesis {
                    totals.check_us += dur;
                    for (i, key) in ["sat_rounds", "instances", "lemmas", "theory_conflicts"]
                        .iter()
                        .enumerate()
                    {
                        totals.check_fields[i] += field_u64(&e.fields, key);
                    }
                }
            }
            EventKind::Point if e.name == "sat.solve" => {
                if matches!(
                    region_of(e.parent, &spans),
                    Region::Synthesis | Region::Feasibility
                ) {
                    totals.sat[0] += 1;
                    totals.sat[1] += field_u64(&e.fields, "conflicts");
                    totals.sat[2] += field_u64(&e.fields, "propagations");
                }
            }
            _ => {}
        }
    }
}

/// Runs one traced pass over `workload`, one fresh ring recorder per
/// program, and writes every span (plus each program's `trace.summary`)
/// to `spans_path` as JSON Lines.
pub fn run(workload: &Workload, settings: &Settings, spans_path: &Path) -> std::io::Result<Traced> {
    if let Some(dir) = spans_path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(spans_path)?);
    let mut totals = Totals::default();
    let mut dropped = 0;
    let mut pass = Vec::new();
    let mut problems = Vec::new();
    for entry in workload.entries {
        let recorder = Recorder::ring(RING_CAPACITY);
        let guard = pins_trace::install(recorder.clone());
        let run = run_program(entry, settings);
        drop(guard);
        let events = recorder.events();
        let summary_dropped = events
            .iter()
            .rev()
            .find(|e| e.kind == EventKind::Point && e.name == "trace.summary")
            .map(|e| field_u64(&e.fields, "dropped"));
        let has_run = events
            .iter()
            .any(|e| e.kind == EventKind::SpanEnd && e.name == "pins.run");
        dropped += recorder.dropped().max(summary_dropped.unwrap_or(0));
        if summary_dropped.is_none() || !has_run {
            problems.push(format!(
                "{}: trace lacks its pins.run span or trace.summary",
                run.name
            ));
        }
        tally(&events, &mut totals);
        for e in events.iter().filter(|e| {
            e.kind == EventKind::SpanEnd
                || (e.kind == EventKind::Point && e.name == "trace.summary")
        }) {
            writeln!(out, "{}", e.to_json())?;
        }
        pass.push(run);
    }
    out.flush()?;

    let ms = |us: u64| us as f64 / 1e3;
    let mut metrics: Vec<Metric> = SELF_TIMES
        .iter()
        .zip(totals.self_us)
        .map(|(&(_, name), us)| m(name, "ms", ms(us)))
        .collect();
    let [sat_rounds, instances, lemmas, theory_conflicts] = totals.check_fields.map(|n| n as f64);
    let [solves, conflicts, propagations] = totals.sat.map(|n| n as f64);
    metrics.extend([
        m("smt.check.ms", "ms", ms(totals.check_us)),
        m("smt.check.sat_rounds", "count", sat_rounds),
        m("smt.check.instances", "count", instances),
        m("smt.check.lemmas", "count", lemmas),
        m("smt.check.theory_conflicts", "count", theory_conflicts),
        m("sat.solves", "count", solves),
        m("sat.conflicts", "count", conflicts),
        m("sat.propagations", "count", propagations),
        m("trace.dropped", "count", dropped as f64),
    ]);
    if dropped > 0 {
        problems.push(format!("the trace dropped {dropped} events"));
    }
    Ok(Traced {
        pass,
        metrics,
        problems,
    })
}
