//! The `solve` procedure (§2.3): reduces the synthesis constraints to SAT
//! over indicator variables and enumerates up to `m` verified solutions.
//!
//! Each unknown gets an exactly-one block of indicator variables over its
//! finite domain. The loop is a lazy CEGIS over indicators: a SAT model
//! proposes a full assignment; every constraint is verified by SMT validity
//! queries under that assignment; a failed constraint contributes a blocking
//! clause over exactly the holes that occur in it — the generalization that
//! makes the search converge.
//!
//! A constraint with a conjunctive goal is checked as one obligation per
//! conjunct, each with the hypotheses its slice keeps (see the `slice`
//! module), when that shrinks some obligation's hole set. Verdicts are
//! memoized per obligation, keyed on the restricted assignment of the
//! obligation's holes, so a conjunct refuted once settles every candidate
//! that agrees on those holes without another query. The blocking clause
//! still covers the whole constraint, so the SAT search is the same as with
//! unsliced checks.
//!
//! Verification goes through a persistent [`SmtSession`] owned by the
//! engine: the session carries the library axioms and the normalized-query
//! cache, so repeated validity checks across PINS iterations short-circuit.
//! Verification is serial: constraints are checked in index order and the
//! first failing one supplies the blocking clause.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pins_budget::StopReason;

use pins_ir::{EHoleId, PHoleId, Program};
use pins_logic::TermId;
use pins_sat::{Lit, SolveResult, Solver as SatSolver, Var};
use pins_smt::SmtSession;
use pins_symexec::{apply_filler_term, MapFiller, SymCtx};
use pins_trace::{Counter, MetricsRegistry};

use crate::constraints::Constraint;
use crate::domains::HoleDomains;
use crate::session::Session;
use crate::slice::{obligations, HoleSet, Obligation};

/// A full assignment: per hole, the index of the chosen candidate in its
/// domain (`usize::MAX` marks an empty-domain hole, treated as unfilled).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Solution {
    /// Per expression hole.
    pub exprs: Vec<usize>,
    /// Per predicate hole.
    pub preds: Vec<usize>,
}

impl Solution {
    /// Converts to a hole filler using the domain table.
    pub fn to_filler(&self, domains: &HoleDomains) -> MapFiller {
        let mut filler = MapFiller::default();
        for (h, &choice) in self.exprs.iter().enumerate() {
            if choice != usize::MAX {
                filler
                    .exprs
                    .insert(EHoleId(h as u32), domains.exprs[h][choice].clone());
            }
        }
        for (h, &choice) in self.preds.iter().enumerate() {
            if choice != usize::MAX {
                filler
                    .preds
                    .insert(PHoleId(h as u32), domains.preds[h][choice].clone());
            }
        }
        filler
    }
}

/// A registered constraint: the holes occurring in it (the blocking
/// clause's support) and the obligations it is verified as, in goal order.
struct Registered {
    holes: HoleSet,
    parts: Vec<Obligation>,
}

/// Timing and counting statistics from `solve`.
#[derive(Debug, Clone, Default)]
pub struct SolveStats {
    /// Time in SAT solving.
    pub sat_time: Duration,
    /// Time in SMT validity checking (the paper's "SMT reduction").
    pub smt_time: Duration,
    /// Number of SMT validity queries issued (excluding local memo hits).
    pub smt_queries: u64,
    /// Number of candidate assignments proposed by SAT.
    pub candidates_proposed: u64,
    /// Final SAT formula size (vars + literal occurrences).
    pub sat_size: usize,
    /// Normalized-query cache hits attributable to `solve`.
    pub cache_hits: u64,
    /// Normalized-query cache misses attributable to `solve`.
    pub cache_misses: u64,
    /// Number of `solve` calls that reused solver/session state built by an
    /// earlier call (incremental reuse across PINS iterations).
    pub sessions_reused: u64,
    /// Verification queries that panicked and were degraded to "constraint
    /// unverified" instead of aborting the search.
    pub verify_panics: u64,
    /// Candidate-enumeration SAT solves interrupted by the shared budget.
    pub sat_interrupts: u64,
    /// The budget stop that ended the most recent `solve` call early, if any.
    pub last_stop: Option<StopReason>,
}

impl SolveStats {
    /// Reconstructs the `solve`-attributable statistics from a
    /// [`MetricsRegistry`] that a [`HoleSolver`] was bound to with
    /// [`HoleSolver::bind_metrics`]. `last_stop` is not a counter and comes
    /// back `None`; everything else mirrors the live struct.
    pub fn from_registry(registry: &MetricsRegistry) -> SolveStats {
        SolveStats {
            sat_time: registry.duration("phase.sat"),
            smt_time: registry.duration("phase.smt_reduction"),
            smt_queries: registry.get("solve.smt_queries"),
            candidates_proposed: registry.get("solve.candidates"),
            sat_size: registry.get("solve.sat_size") as usize,
            cache_hits: registry.get("solve.cache_hits"),
            cache_misses: registry.get("solve.cache_misses"),
            sessions_reused: registry.get("solve.sessions_reused"),
            verify_panics: registry.get("solve.verify_panics"),
            sat_interrupts: registry.get("solve.sat_interrupts"),
            last_stop: None,
        }
    }
}

/// Registry handles for the counters `solve` maintains. Detached by default
/// (every operation is a plain atomic bump on a private cell); bound to
/// shared registry cells by [`HoleSolver::bind_metrics`].
#[derive(Default)]
struct SolveMetrics {
    sat_time: Counter,
    smt_time: Counter,
    smt_queries: Counter,
    candidates: Counter,
    sat_size: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    sessions_reused: Counter,
    verify_panics: Counter,
    sat_interrupts: Counter,
}

impl SolveMetrics {
    fn bind(registry: &MetricsRegistry) -> SolveMetrics {
        SolveMetrics {
            sat_time: registry.counter("phase.sat"),
            smt_time: registry.counter("phase.smt_reduction"),
            smt_queries: registry.counter("solve.smt_queries"),
            candidates: registry.counter("solve.candidates"),
            sat_size: registry.counter("solve.sat_size"),
            cache_hits: registry.counter("solve.cache_hits"),
            cache_misses: registry.counter("solve.cache_misses"),
            sessions_reused: registry.counter("solve.sessions_reused"),
            verify_panics: registry.counter("solve.verify_panics"),
            sat_interrupts: registry.counter("solve.sat_interrupts"),
        }
    }
}

/// Runs [`verify_one`] with panic isolation: a query that panics (e.g. a
/// poisoned constraint hitting an encoder `panic!`) degrades to `None`
/// ("unverified") instead of tearing down the solve.
fn verify_one_isolated(
    ctx: &mut SymCtx,
    program: &Program,
    smt: &mut SmtSession,
    obligation: &Obligation,
    filler: &MapFiller,
) -> Option<bool> {
    catch_unwind(AssertUnwindSafe(|| {
        verify_one(ctx, program, smt, obligation, filler)
    }))
    .ok()
}

/// Verifies a single obligation under a filled-in candidate: substitutes the
/// filler into the hypotheses and goal, then asks the session for validity.
fn verify_one(
    ctx: &mut SymCtx,
    program: &Program,
    smt: &mut SmtSession,
    obligation: &Obligation,
    filler: &MapFiller,
) -> bool {
    let hyps: Vec<TermId> = obligation
        .hyps
        .iter()
        .map(|&h| apply_filler_term(ctx, program, h, filler))
        .collect();
    let goal = apply_filler_term(ctx, program, obligation.goal, filler);
    smt.entails(&mut ctx.arena, &hyps, goal)
}

/// A solution's choices restricted to a set of holes:
/// `(is_expr, hole id, chosen candidate)` triples.
pub(crate) type RestrictedKey = Vec<(bool, u32, usize)>;

pub(crate) fn restricted_key(holes: &HoleSet, s: &Solution) -> RestrictedKey {
    let mut key = Vec::with_capacity(holes.eholes.len() + holes.pholes.len());
    for &h in &holes.eholes {
        key.push((true, h, s.exprs[h as usize]));
    }
    for &h in &holes.pholes {
        key.push((false, h, s.preds[h as usize]));
    }
    key
}

/// The incremental hole solver, persistent across PINS iterations
/// (blocking clauses learned from old constraints remain valid as the
/// constraint set grows).
pub struct HoleSolver {
    sat: SatSolver,
    evars: Vec<Vec<Var>>,
    pvars: Vec<Vec<Var>>,
    /// `(constraint index, part index, restricted assignment) -> verified?`
    cache: HashMap<(usize, usize, RestrictedKey), bool>,
    constraints: Vec<Registered>,
    /// Statistics accumulated across calls.
    pub stats: SolveStats,
    /// Registry handles mirroring `stats`; detached until
    /// [`bind_metrics`](HoleSolver::bind_metrics) is called.
    metrics: SolveMetrics,
}

impl HoleSolver {
    /// Builds the indicator encoding for the domain table.
    pub fn new(domains: &HoleDomains) -> Self {
        let mut sat = SatSolver::new();
        let mut evars = Vec::new();
        for dom in &domains.exprs {
            let vars: Vec<Var> = dom.iter().map(|_| sat.new_var()).collect();
            exactly_one(&mut sat, &vars);
            evars.push(vars);
        }
        let mut pvars = Vec::new();
        for dom in &domains.preds {
            let vars: Vec<Var> = dom.iter().map(|_| sat.new_var()).collect();
            exactly_one(&mut sat, &vars);
            pvars.push(vars);
        }
        HoleSolver {
            sat,
            evars,
            pvars,
            cache: HashMap::new(),
            constraints: Vec::new(),
            stats: SolveStats::default(),
            metrics: SolveMetrics::default(),
        }
    }

    /// Binds the solver's counters to shared cells in `registry` (keys
    /// `phase.sat`, `phase.smt_reduction`, `solve.*`). Subsequent `solve`
    /// calls bump those cells at event time, so the registry and the typed
    /// [`SolveStats`] stay consistent.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = SolveMetrics::bind(registry);
    }

    /// Registers constraint `idx` (call once per new constraint, in order):
    /// records its holes and slices it into obligations.
    pub fn register_constraint(
        &mut self,
        ctx: &SymCtx,
        program: &Program,
        idx: usize,
        c: &Constraint,
    ) {
        assert_eq!(
            idx,
            self.constraints.len(),
            "constraints must register in order"
        );
        let (holes, parts) = obligations(ctx, program, c);
        self.constraints.push(Registered { holes, parts });
    }

    fn extract_solution(sat: &SatSolver, evars: &[Vec<Var>], pvars: &[Vec<Var>]) -> Solution {
        let pick = |vars: &Vec<Var>| -> usize {
            vars.iter()
                .position(|&v| sat.value(v) == Some(true))
                .unwrap_or(usize::MAX)
        };
        Solution {
            exprs: evars.iter().map(pick).collect(),
            preds: pvars.iter().map(pick).collect(),
        }
    }

    /// Verifies constraint `c` under `solution`. A part the memo table knows
    /// to fail settles it without a query; otherwise the parts not yet known
    /// are queried in goal order, stopping at the first failure, and each
    /// verdict is memoized.
    fn verify(
        &mut self,
        ctx: &mut SymCtx,
        program: &Program,
        c: usize,
        solution: &Solution,
        domains: &HoleDomains,
        smt: &mut SmtSession,
    ) -> bool {
        let mut pending = Vec::new();
        for (p, part) in self.constraints[c].parts.iter().enumerate() {
            let key = restricted_key(&part.holes, solution);
            match self.cache.get(&(c, p, key.clone())) {
                Some(false) => return false,
                Some(true) => {}
                None => pending.push((p, key)),
            }
        }
        if pending.is_empty() {
            return true;
        }
        let filler = solution.to_filler(domains);
        let t0 = Instant::now();
        let mut valid = true;
        let mut queries = 0;
        let mut panics = 0;
        for (p, key) in pending {
            let part = &self.constraints[c].parts[p];
            queries += 1;
            valid = verify_one_isolated(ctx, program, smt, part, &filler).unwrap_or_else(|| {
                panics += 1;
                false
            });
            self.cache.insert((c, p, key), valid);
            if !valid {
                break;
            }
        }
        let dt = t0.elapsed();
        self.stats.smt_time += dt;
        self.metrics.smt_time.add_duration(dt);
        self.stats.smt_queries += queries;
        self.metrics.smt_queries.add(queries);
        self.stats.verify_panics += panics;
        self.metrics.verify_panics.add(panics);
        valid
    }

    /// Adds a blocking clause rejecting the restricted assignment of
    /// constraint `c` under `s` (every extension of that assignment fails
    /// the constraint too).
    fn block(&mut self, c: usize, s: &Solution, into_main: bool, snapshot: &mut SatSolver) {
        let holes = self.constraints[c].holes.clone();
        let mut clause = Vec::new();
        for &h in &holes.eholes {
            let choice = s.exprs[h as usize];
            if choice != usize::MAX {
                clause.push(Lit::neg(self.evars[h as usize][choice]));
            }
        }
        for &h in &holes.pholes {
            let choice = s.preds[h as usize];
            if choice != usize::MAX {
                clause.push(Lit::neg(self.pvars[h as usize][choice]));
            }
        }
        // an empty clause (no holes occur in the constraint) correctly makes
        // the system unsatisfiable: the constraint fails unconditionally
        snapshot.add_clause(&clause);
        if into_main {
            self.sat.add_clause(&clause);
        }
    }

    /// Finds up to `m` solutions satisfying all constraints (Algorithm 1's
    /// `solve(C, Δp, Δe, m)`).
    ///
    /// `smt` is the engine's persistent session (it already carries the
    /// library axioms).
    pub fn solve(
        &mut self,
        ctx: &mut SymCtx,
        session: &Session,
        domains: &HoleDomains,
        constraints: &[Constraint],
        m: usize,
        smt: &mut SmtSession,
    ) -> Vec<Solution> {
        if self.stats.smt_queries > 0 || self.stats.candidates_proposed > 0 {
            self.stats.sessions_reused += 1;
            self.metrics.sessions_reused.inc();
        }
        let before = smt.stats;
        // register any new constraints
        for (idx, constraint) in constraints.iter().enumerate().skip(self.constraints.len()) {
            self.register_constraint(ctx, &session.composed, idx, constraint);
        }
        let mut found = Vec::new();
        self.stats.last_stop = None;
        let mut snapshot = self.sat.clone();
        // candidate enumeration runs under the session's shared budget, so a
        // deadline or cancellation interrupts SAT search too, not just SMT
        snapshot.set_budget(smt.budget().clone());
        loop {
            let t0 = Instant::now();
            let res = snapshot.solve();
            let dt = t0.elapsed();
            self.stats.sat_time += dt;
            self.metrics.sat_time.add_duration(dt);
            self.stats.sat_size = self.stats.sat_size.max(snapshot.formula_size());
            self.metrics
                .sat_size
                .record_max(snapshot.formula_size() as u64);
            match res {
                SolveResult::Unsat => break,
                SolveResult::Interrupted(reason) => {
                    self.stats.sat_interrupts += 1;
                    self.metrics.sat_interrupts.inc();
                    self.stats.last_stop = Some(reason);
                    break;
                }
                SolveResult::Sat => {
                    let s = Self::extract_solution(&snapshot, &self.evars, &self.pvars);
                    self.stats.candidates_proposed += 1;
                    self.metrics.candidates.inc();
                    // the first failing constraint, in index order, supplies
                    // the blocking clause
                    let program = &session.composed;
                    if let Some(c) = (0..constraints.len())
                        .find(|&c| !self.verify(ctx, program, c, &s, domains, smt))
                    {
                        self.block(c, &s, true, &mut snapshot);
                        continue;
                    }
                    // verified: block the exact full assignment in the
                    // snapshot only (the solution remains globally valid)
                    let mut clause = Vec::new();
                    for (h, &choice) in s.exprs.iter().enumerate() {
                        if choice != usize::MAX {
                            clause.push(Lit::neg(self.evars[h][choice]));
                        }
                    }
                    for (h, &choice) in s.preds.iter().enumerate() {
                        if choice != usize::MAX {
                            clause.push(Lit::neg(self.pvars[h][choice]));
                        }
                    }
                    found.push(s);
                    if found.len() >= m || clause.is_empty() {
                        break;
                    }
                    snapshot.add_clause(&clause);
                }
            }
        }
        let hits = smt.stats.cache_hits - before.cache_hits;
        let misses = smt.stats.cache_misses - before.cache_misses;
        self.stats.cache_hits += hits;
        self.metrics.cache_hits.add(hits);
        self.stats.cache_misses += misses;
        self.metrics.cache_misses.add(misses);
        found
    }
}

fn exactly_one(sat: &mut SatSolver, vars: &[Var]) {
    if vars.is_empty() {
        return; // empty-domain hole: left unconstrained (unfilled)
    }
    let lits: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
    sat.add_clause(&lits);
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            sat.add_clause(&[Lit::neg(vars[i]), Lit::neg(vars[j])]);
        }
    }
}
