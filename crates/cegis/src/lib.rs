//! A finitized CEGIS baseline — the stand-in for the paper's Sketch
//! comparison (§4.3, Tables 3 and 5).
//!
//! Like Sketch, the baseline requires the problem to be *finitized*: inputs
//! are drawn from a bounded domain (array lengths and element values are
//! capped), and a candidate counts as verified when it inverts the original
//! program on every test in the bounded battery. The loop is classic
//! counterexample-guided inductive synthesis:
//!
//! 1. propose a template instantiation consistent with the accumulated
//!    counterexample set (SAT enumeration over indicator variables);
//! 2. check it against the battery by concrete execution;
//! 3. on failure, record the failing input as a counterexample and block
//!    the candidate.
//!
//! Differences from Sketch worth noting when reading the reproduction
//! numbers: verification here is concrete re-execution rather than
//! bit-blasted bounded model checking, and external functions are executed
//! through their host semantics (Sketch has no axiom mechanism at all, so
//! the paper could only run it on the 6 axiom-free benchmarks).

use std::time::{Duration, Instant};

use pins_budget::Budget;
use pins_core::{build_domains, resolve_solution, DomainConfig, Session, Solution, SpecItem};
use pins_ir::{run, ExternEnv, Program, Store, Value};
use pins_sat::{Lit, SolveResult, Solver as SatSolver, Var};

/// Finitization and search bounds.
#[derive(Debug, Clone)]
pub struct CegisConfig {
    /// Cap on proposed candidates before giving up.
    pub max_candidates: u64,
    /// Interpreter fuel per run.
    pub fuel: u64,
    /// Maximum atoms per predicate-hole conjunction (same encoding as PINS).
    pub pred_subset_max: usize,
    /// Wall-clock budget.
    pub time_budget: Option<Duration>,
}

impl Default for CegisConfig {
    fn default() -> Self {
        CegisConfig {
            max_candidates: 2_000_000,
            fuel: 100_000,
            pred_subset_max: 1,
            time_budget: Some(Duration::from_secs(600)),
        }
    }
}

/// The outcome of a CEGIS run.
#[derive(Debug, Clone)]
pub struct CegisReport {
    /// The synthesized inverse, if found.
    pub solution: Option<Program>,
    /// Candidates proposed by the SAT enumerator.
    pub candidates_tried: u64,
    /// Counterexamples accumulated.
    pub counterexamples: usize,
    /// Wall-clock time.
    pub time: Duration,
    /// Final SAT formula size (vars + literal occurrences) — Table 5's
    /// `|SAT|` analogue.
    pub sat_size: usize,
    /// Why the run stopped without a solution, if it did.
    pub failure: Option<String>,
}

/// Runs finitized CEGIS over the session's template and candidate sets.
/// `battery` is the bounded input domain: a candidate that inverts the
/// original on every battery element is accepted (the Sketch-style bounded
/// guarantee).
pub fn synthesize(
    session: &Session,
    env: &ExternEnv,
    battery: &[Store],
    config: CegisConfig,
) -> CegisReport {
    let mut span = pins_trace::span("cegis.synthesize");
    let report = synthesize_inner(session, env, battery, config);
    if span.is_active() {
        span.record("solved", report.solution.is_some());
        span.record_u64("candidates", report.candidates_tried);
        span.record_u64("counterexamples", report.counterexamples as u64);
        span.record_u64("sat_size", report.sat_size as u64);
        if let Some(f) = &report.failure {
            span.record_str("failure", f);
        }
    }
    report
}

fn synthesize_inner(
    session: &Session,
    env: &ExternEnv,
    battery: &[Store],
    config: CegisConfig,
) -> CegisReport {
    let start = Instant::now();
    // CEGIS verifies concretely (no SmtSession), but the provenance context
    // still tags the run's trace points with the benchmark and the
    // counterexample round, mirroring the engine's attribution scheme.
    let prov = pins_trace::ProvenanceCtx::new(&session.original.name);
    let _phase = prov.enter_phase(pins_trace::Phase::Cegis);
    let domains = build_domains(
        session,
        DomainConfig {
            pred_subset_max: config.pred_subset_max,
        },
    );

    // run the original once per battery input
    let mut forwards: Vec<(Store, Store)> = Vec::new();
    for input in battery {
        match run(&session.original, input, env, config.fuel) {
            Ok(mid) => forwards.push((input.clone(), mid)),
            Err(_) => continue, // outside the precondition
        }
    }
    if forwards.is_empty() {
        return CegisReport {
            solution: None,
            candidates_tried: 0,
            counterexamples: 0,
            time: start.elapsed(),
            sat_size: 0,
            failure: Some("empty battery after preconditions".into()),
        };
    }

    // indicator encoding (template holes only need checking concretely, but
    // synthetic rank/invariant holes exist in the domain table: fix them to
    // their first candidate, since termination is enforced by fuel here)
    let mut sat = SatSolver::new();
    // the wall-clock budget also interrupts a runaway SAT solve mid-search,
    // not just between candidates
    sat.set_budget(Budget::with_limits(config.time_budget, None));
    let evars: Vec<Vec<Var>> = domains
        .exprs
        .iter()
        .map(|dom| {
            let vars: Vec<Var> = dom.iter().map(|_| sat.new_var()).collect();
            exactly_one(&mut sat, &vars);
            vars
        })
        .collect();
    let pvars: Vec<Vec<Var>> = domains
        .preds
        .iter()
        .map(|dom| {
            let vars: Vec<Var> = dom.iter().map(|_| sat.new_var()).collect();
            exactly_one(&mut sat, &vars);
            vars
        })
        .collect();
    // synthetic ranking/invariant holes don't affect concrete execution:
    // pin them so the enumeration covers template holes only (termination
    // of candidates is enforced by interpreter fuel instead)
    for &(_, h) in &domains.rank_holes {
        if let Some(&v) = evars[h.0 as usize].first() {
            sat.add_clause(&[Lit::pos(v)]);
        }
    }
    for &(_, h) in &domains.inv_holes {
        if let Some(&v) = pvars[h.0 as usize].first() {
            sat.add_clause(&[Lit::pos(v)]);
        }
    }

    // CEGIS state: counterexamples are indices into `forwards`
    let mut active: Vec<usize> = vec![0];
    let mut tried = 0u64;
    loop {
        if tried >= config.max_candidates {
            return report(
                start,
                None,
                tried,
                active.len(),
                &sat,
                Some("candidate budget".into()),
            );
        }
        if let Some(budget) = config.time_budget {
            if start.elapsed() > budget {
                return report(
                    start,
                    None,
                    tried,
                    active.len(),
                    &sat,
                    Some("timeout".into()),
                );
            }
        }
        match sat.solve() {
            SolveResult::Interrupted(reason) => {
                return report(
                    start,
                    None,
                    tried,
                    active.len(),
                    &sat,
                    Some(format!("interrupted: {reason}")),
                );
            }
            SolveResult::Unsat => {
                return report(
                    start,
                    None,
                    tried,
                    active.len(),
                    &sat,
                    Some("no candidate passes the counterexamples".into()),
                );
            }
            SolveResult::Sat => {
                tried += 1;
                let solution = Solution {
                    exprs: evars.iter().map(|vars| pick(&sat, vars)).collect(),
                    preds: pvars.iter().map(|vars| pick(&sat, vars)).collect(),
                };
                let resolved = resolve_solution(session, &domains, &solution);
                let inverse = &resolved.inverse;
                // check against the active counterexample set first
                let mut failed = false;
                for &t in &active {
                    if !passes(session, inverse, env, &forwards[t], config.fuel) {
                        failed = true;
                        break;
                    }
                }
                if !failed {
                    // bounded verification over the whole battery
                    let mut cex = None;
                    for (t, fw) in forwards.iter().enumerate() {
                        if !passes(session, inverse, env, fw, config.fuel) {
                            cex = Some(t);
                            break;
                        }
                    }
                    match cex {
                        None => {
                            let inv = inverse.clone();
                            return report(start, Some(inv), tried, active.len(), &sat, None);
                        }
                        Some(t) => {
                            if !active.contains(&t) {
                                active.push(t);
                                prov.set_cegis_round(active.len() as u64);
                                pins_trace::point("cegis.cex", || {
                                    vec![
                                        ("bench", prov.benchmark().as_ref().into()),
                                        ("round", (active.len() as u64).into()),
                                        ("candidate", tried.into()),
                                        ("battery_index", (t as u64).into()),
                                    ]
                                });
                            }
                        }
                    }
                }
                // block this exact assignment
                let mut clause = Vec::new();
                for (h, &choice) in solution.exprs.iter().enumerate() {
                    if choice != usize::MAX {
                        clause.push(Lit::neg(evars[h][choice]));
                    }
                }
                for (h, &choice) in solution.preds.iter().enumerate() {
                    if choice != usize::MAX {
                        clause.push(Lit::neg(pvars[h][choice]));
                    }
                }
                if !sat.add_clause(&clause) {
                    return report(
                        start,
                        None,
                        tried,
                        active.len(),
                        &sat,
                        Some("search space exhausted".into()),
                    );
                }
            }
        }
    }
}

fn report(
    start: Instant,
    solution: Option<Program>,
    tried: u64,
    cex: usize,
    sat: &SatSolver,
    failure: Option<String>,
) -> CegisReport {
    CegisReport {
        solution,
        candidates_tried: tried,
        counterexamples: cex,
        time: start.elapsed(),
        sat_size: sat.formula_size(),
        failure,
    }
}

fn pick(sat: &SatSolver, vars: &[Var]) -> usize {
    vars.iter()
        .position(|&v| sat.value(v) == Some(true))
        .unwrap_or(usize::MAX)
}

fn exactly_one(sat: &mut SatSolver, vars: &[Var]) {
    if vars.is_empty() {
        return;
    }
    let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
    sat.add_clause(&lits);
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            sat.add_clause(&[Lit::neg(vars[i]), Lit::neg(vars[j])]);
        }
    }
}

/// Runs the candidate inverse after the original and checks the spec
/// concretely.
fn passes(
    session: &Session,
    inverse: &Program,
    env: &ExternEnv,
    (orig_inputs, mid): &(Store, Store),
    fuel: u64,
) -> bool {
    // inverse inputs come from the original's final store (shared names)
    let mut inv_inputs = Store::new();
    for &(v, mode) in &inverse.params {
        if matches!(mode, pins_ir::Mode::In | pins_ir::Mode::InOut) {
            let name = &inverse.var(v).name;
            if let Some(ov) = session.original.var_by_name(name) {
                if let Some(val) = mid.get(&ov) {
                    inv_inputs.insert(v, val.clone());
                }
            }
        }
    }
    let Ok(out) = run(inverse, &inv_inputs, env, fuel) else {
        return false;
    };
    check_spec(session, inverse, env, orig_inputs, mid, &out)
}

fn check_spec(
    session: &Session,
    inverse: &Program,
    env: &ExternEnv,
    orig_inputs: &Store,
    mid: &Store,
    out: &Store,
) -> bool {
    let orig = &session.original;
    // spec items refer to composed-program variable ids; translate by name
    let composed = &session.composed;
    let by_name = |v: pins_ir::VarId| composed.var(v).name.clone();
    let orig_val = |name: &str, store: &Store| -> Option<Value> {
        orig.var_by_name(name).and_then(|v| store.get(&v).cloned())
    };
    let out_val = |name: &str| -> Option<Value> {
        inverse.var_by_name(name).and_then(|v| out.get(&v).cloned())
    };
    for item in &session.spec.items {
        let ok = match item {
            SpecItem::IntEq { input, output } | SpecItem::AbsEq { input, output } => {
                orig_val(&by_name(*input), orig_inputs) == out_val(&by_name(*output))
            }
            SpecItem::IntEqFinal { left, right } => {
                orig_val(&by_name(*left), mid) == out_val(&by_name(*right))
            }
            SpecItem::ArrayEq { input, output, len } => {
                let n = orig_val(&by_name(*len), orig_inputs)
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(0);
                match (
                    orig_val(&by_name(*input), orig_inputs),
                    out_val(&by_name(*output)),
                ) {
                    (Some(a), Some(b)) => a.arr_prefix(n).ok() == b.arr_prefix(n).ok(),
                    _ => false,
                }
            }
            SpecItem::ArrayEqFinalLen { input, output, len } => {
                let n = orig_val(&by_name(*len), mid)
                    .and_then(|v| v.as_int().ok())
                    .unwrap_or(0);
                match (
                    orig_val(&by_name(*input), orig_inputs),
                    out_val(&by_name(*output)),
                ) {
                    (Some(a), Some(b)) => a.arr_prefix(n).ok() == b.arr_prefix(n).ok(),
                    _ => false,
                }
            }
            SpecItem::ObsEq {
                input,
                output,
                len_fun,
                obs_fun,
            } => {
                match (
                    orig_val(&by_name(*input), orig_inputs),
                    out_val(&by_name(*output)),
                ) {
                    (Some(a), Some(b)) => {
                        let la = env.try_call(len_fun, std::slice::from_ref(&a)).ok();
                        let lb = env.try_call(len_fun, std::slice::from_ref(&b)).ok();
                        match (la, lb) {
                            (Some(Value::Int(la)), Some(Value::Int(lb))) if la == lb => (0..la)
                                .all(|j| {
                                    env.try_call(obs_fun, &[a.clone(), Value::Int(j)]).ok()
                                        == env.try_call(obs_fun, &[b.clone(), Value::Int(j)]).ok()
                                }),
                            _ => false,
                        }
                    }
                    _ => false,
                }
            }
        };
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests;
