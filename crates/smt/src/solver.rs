//! The DPLL(T) main loop: Tseitin CNF over theory atoms, lazy theory
//! checking of full SAT models, lemmas on demand (array read-over-write,
//! integer disequality splits, model-based theory combination) and
//! conflict-driven refinement.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use pins_budget::{Budget, StopReason};
use pins_logic::{Sort, Term, TermArena, TermId};
use pins_sat::{Lit, SolveResult, Solver as SatSolver, Var};

use crate::ematch::{ematch_round, EmatchConfig};
use crate::euf::Euf;
use crate::inst::{instantiate, InstConfig};
use crate::linear::{linearize, LinExpr};
use crate::model::Model;
use crate::prep::{preprocess, Prepped};
use crate::rational::Rat;
use crate::simplex::{Conflict, Lia};

/// Tags above this base index into the synthetic-reason table (explanations
/// of EUF-propagated equalities); below it they are SAT literal codes.
const SYNTH_BASE: u32 = 1 << 30;

/// Solver configuration knobs.
#[derive(Debug, Clone, Copy)]
pub struct SmtConfig {
    /// Quantifier-instantiation budget.
    pub inst: InstConfig,
    /// Outer SAT-round budget before answering `Unknown`.
    pub max_theory_rounds: usize,
    /// Branch-and-bound depth for integer feasibility.
    pub bb_depth: u32,
    /// Per-query wall-clock limit (layered over any shared budget).
    pub time_limit: Option<Duration>,
    /// Per-query step limit over conflicts + pivots + instantiation rounds.
    pub step_limit: Option<u64>,
    /// Whether a session retries a budget-limited `Unknown` once with
    /// doubled budgets before giving up.
    pub retry_unknown: bool,
    /// Whether asserts registered through
    /// [`Smt::assert_term_tracked`] are guarded by assumption literals so
    /// every `Unsat` answer carries an unsat core of assert provenance ids
    /// ([`Smt::unsat_core`]). Tracking costs one selector variable and one
    /// extra literal per tracked root clause.
    pub track_cores: bool,
}

impl Default for SmtConfig {
    fn default() -> Self {
        SmtConfig {
            inst: InstConfig::default(),
            max_theory_rounds: 5000,
            bb_depth: 40,
            time_limit: None,
            step_limit: None,
            retry_unknown: true,
            track_cores: true,
        }
    }
}

impl SmtConfig {
    /// The escalated configuration a session retries with after a
    /// budget-limited `Unknown`: every budget knob doubled.
    pub fn escalate(&self) -> SmtConfig {
        SmtConfig {
            inst: InstConfig {
                max_rounds: self.inst.max_rounds.saturating_mul(2),
                max_instances: self.inst.max_instances.saturating_mul(2),
            },
            max_theory_rounds: self.max_theory_rounds.saturating_mul(2),
            bb_depth: self.bb_depth.saturating_mul(2),
            time_limit: self.time_limit.map(|d| d.saturating_mul(2)),
            step_limit: self.step_limit.map(|s| s.saturating_mul(2)),
            retry_unknown: false, // one escalation only
            track_cores: self.track_cores,
        }
    }
}

/// The verdict of a `check` call.
#[derive(Debug)]
pub enum SmtResult {
    /// Satisfiable, with a model. If [`Model::complete`] is false the answer
    /// is "satisfiable modulo the grounded approximation" (quantifier or
    /// branching budget was hit).
    Sat(Model),
    /// Proven unsatisfiable (trustworthy even with axioms: instantiation
    /// only strengthens refutations).
    Unsat,
    /// No verdict: the budget ran out, the query was cancelled, or theory
    /// arithmetic overflowed. The payload says which.
    Unknown(StopReason),
}

impl SmtResult {
    /// Whether the result proves unsatisfiability.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SmtResult::Unsat)
    }

    /// Whether the result is (possibly approximately) satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SmtResult::Sat(_))
    }
}

/// Counters for the instrumentation PINS reports in Table 4.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmtStats {
    /// SAT solver invocations.
    pub sat_rounds: u64,
    /// Theory conflicts fed back as blocking clauses.
    pub theory_conflicts: u64,
    /// Theory lemmas (array, diseq-split) added.
    pub lemmas: u64,
    /// Quantifier instances generated.
    pub instances: u64,
    /// Final SAT formula size (vars + literal occurrences).
    pub formula_size: usize,
    /// Time in CNF preparation: quantifier grounding, preprocessing and
    /// Tseitin encoding of the asserted formulas.
    pub prep_time: Duration,
    /// Time inside the SAT core across all rounds.
    pub sat_time: Duration,
    /// Time in the EUF engine (congruence closure + array lemma scan).
    pub euf_time: Duration,
    /// Time in the simplex/branch-and-bound LIA engine (including
    /// model-based theory combination, which reads LIA values).
    pub lia_time: Duration,
    /// Time in congruence-aware e-matching rounds.
    pub ematch_time: Duration,
    /// Simplex pivots, including those of abandoned branch-and-bound
    /// branches.
    pub lia_pivots: u64,
}

enum Outcome {
    Ok(Box<Model>),
    Conflict(Vec<u32>),
    Progress(Vec<TermId>, Vec<TermId>),
    Stopped(StopReason),
}

/// Bound on the iterative core-refinement passes after an assumption-level
/// `Unsat`: each pass re-solves under only the current core, which lets
/// conflict analysis shrink it further. Refinement re-uses the learnt
/// clause database, so a pass is normally pure propagation.
const CORE_REFINE_ROUNDS: usize = 3;

/// The unsat core of the most recent `Unsat` answer, as the provenance ids
/// passed to [`Smt::assert_term_tracked`].
#[derive(Debug, Clone, Default)]
pub struct TrackedCore {
    /// Sorted, deduplicated provenance ids whose conjunction (with the
    /// untracked asserts and axioms) is unsatisfiable.
    pub ids: Vec<u32>,
    /// Whether the ids were extracted from conflict analysis (`true`) or
    /// are a sound over-approximation — every tracked id — taken when the
    /// refutation closed through a hard theory clause before the assumption
    /// layer could attribute it (`false`).
    pub exact: bool,
}

/// A one-shot SMT solver instance: assert formulas, then call
/// [`Smt::check`].
pub struct Smt {
    config: SmtConfig,
    sat: SatSolver,
    lit_of: HashMap<TermId, Lit>,
    atom_var: HashMap<TermId, Var>,
    var_atoms: Vec<(TermId, Var)>,
    /// Ground roots to assert, each with the provenance id of the tracked
    /// assert it came from (`None` = hard, untracked).
    ground: Vec<(TermId, Option<u32>)>,
    axioms: Vec<TermId>,
    /// Selector literals guarding tracked roots, in first-use order.
    selectors: Vec<(u32, Lit)>,
    /// Tracked asserts that lifted quantified axioms during preprocessing:
    /// their axiom halves are untracked, so they are forced into every core.
    forced_core: Vec<u32>,
    /// Core of the most recent `Unsat` answer (see [`Smt::unsat_core`]).
    last_core: Option<TrackedCore>,
    exact: bool,
    true_lit: Option<Lit>,
    diseq_split: HashSet<TermId>,
    array_done: HashSet<(TermId, TermId)>,
    mbtc_done: HashSet<(TermId, TermId)>,
    ematch_done: HashSet<(TermId, Vec<TermId>)>,
    ematch_count: usize,
    /// Linear form (`lhs - rhs`) of each arithmetic atom, memoised for this
    /// instance: terms are hash-consed and immutable, so theory rounds
    /// after the first reuse it instead of re-linearising.
    atom_lin: HashMap<TermId, LinExpr>,
    /// Linear form of each integer term (EUF class members, model
    /// evaluation), memoised like `atom_lin`.
    term_lin: HashMap<TermId, LinExpr>,
    /// Shared budget; `check` layers the config's per-query limits on top.
    budget: Budget,
    /// Statistics for the current instance.
    pub stats: SmtStats,
}

impl Smt {
    /// Creates a solver with the given configuration.
    pub fn new(config: SmtConfig) -> Self {
        Smt {
            config,
            sat: SatSolver::new(),
            lit_of: HashMap::new(),
            atom_var: HashMap::new(),
            var_atoms: Vec::new(),
            ground: Vec::new(),
            axioms: Vec::new(),
            selectors: Vec::new(),
            forced_core: Vec::new(),
            last_core: None,
            exact: true,
            true_lit: None,
            diseq_split: HashSet::new(),
            array_done: HashSet::new(),
            mbtc_done: HashSet::new(),
            ematch_done: HashSet::new(),
            ematch_count: 0,
            atom_lin: HashMap::new(),
            term_lin: HashMap::new(),
            budget: Budget::unlimited(),
            stats: SmtStats::default(),
        }
    }

    /// Attaches a shared budget. `check` derives a per-query child from it
    /// using the config's `time_limit`/`step_limit`.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Asserts a formula (conjunction semantics across calls). `Forall`
    /// subformulas in positive positions are registered as axioms to be
    /// instantiated; negated universals are skolemized.
    pub fn assert_term(&mut self, arena: &mut TermArena, t: TermId) {
        self.assert_with_prov(arena, t, None);
    }

    /// Asserts a formula labelled with a caller-chosen provenance id. When
    /// [`SmtConfig::track_cores`] is on, every ground root of the formula is
    /// guarded by an assumption literal, so an `Unsat` answer reports (via
    /// [`Smt::unsat_core`]) which tracked asserts the refutation used.
    pub fn assert_term_tracked(&mut self, arena: &mut TermArena, t: TermId, prov: u32) {
        self.assert_with_prov(arena, t, Some(prov));
    }

    fn assert_with_prov(&mut self, arena: &mut TermArena, t: TermId, prov: Option<u32>) {
        let mut prep = Prepped::default();
        let exact = preprocess(arena, t, &mut prep);
        if !exact && !prep.axioms.is_empty() {
            // positive forall was lifted: sat answers are approximate
            self.exact = false;
        }
        if let Some(p) = prov {
            if !prep.axioms.is_empty() {
                // the quantified half is instantiated untracked; keeping the
                // assert in every core keeps cores sound (over-approximate)
                self.forced_core.push(p);
            }
        }
        self.ground
            .extend(prep.ground.into_iter().map(|g| (g, prov)));
        self.axioms.extend(prep.axioms);
    }

    /// The unsat core of the most recent `Unsat` answer from
    /// [`Smt::check`], as provenance ids of tracked asserts. `None` when no
    /// `Unsat` has been produced or tracking is off. An empty id list means
    /// the untracked asserts and axioms are unsatisfiable on their own.
    pub fn unsat_core(&self) -> Option<&TrackedCore> {
        self.last_core.as_ref()
    }

    fn true_lit(&mut self) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let v = self.sat.new_var();
        let l = Lit::pos(v);
        self.sat.add_clause(&[l]);
        self.true_lit = Some(l);
        l
    }

    fn atom_lit(&mut self, t: TermId) -> Lit {
        if let Some(&v) = self.atom_var.get(&t) {
            return Lit::pos(v);
        }
        let v = self.sat.new_var();
        self.atom_var.insert(t, v);
        self.var_atoms.push((t, v));
        Lit::pos(v)
    }

    /// Tseitin-encodes boolean structure, returning the defining literal.
    fn encode(&mut self, arena: &mut TermArena, t: TermId) -> Lit {
        if let Some(&l) = self.lit_of.get(&t) {
            return l;
        }
        let lit = match arena.term(t).clone() {
            Term::BoolConst(b) => {
                let tl = self.true_lit();
                if b {
                    tl
                } else {
                    !tl
                }
            }
            Term::Var {
                sort: Sort::Bool, ..
            } => self.atom_lit(t),
            Term::Eq(a, b) if arena.sort(a).is_bool() => {
                let la = self.encode(arena, a);
                let lb = self.encode(arena, b);
                let v = self.sat.new_var();
                let lv = Lit::pos(v);
                self.sat.add_clause(&[!lv, !la, lb]);
                self.sat.add_clause(&[!lv, la, !lb]);
                self.sat.add_clause(&[lv, la, lb]);
                self.sat.add_clause(&[lv, !la, !lb]);
                lv
            }
            Term::Eq(..) | Term::Le(..) | Term::Lt(..) => self.atom_lit(t),
            Term::App(..) => {
                debug_assert!(arena.sort(t).is_bool(), "non-atom App in boolean position");
                self.atom_lit(t)
            }
            Term::Not(a) => {
                let la = self.encode(arena, a);
                !la
            }
            Term::And(kids) => {
                let lits: Vec<Lit> = kids.iter().map(|&k| self.encode(arena, k)).collect();
                let v = self.sat.new_var();
                let lv = Lit::pos(v);
                let mut back = vec![lv];
                for &l in &lits {
                    self.sat.add_clause(&[!lv, l]);
                    back.push(!l);
                }
                self.sat.add_clause(&back);
                lv
            }
            Term::Or(kids) => {
                let lits: Vec<Lit> = kids.iter().map(|&k| self.encode(arena, k)).collect();
                let v = self.sat.new_var();
                let lv = Lit::pos(v);
                let mut fwd = vec![!lv];
                for &l in &lits {
                    self.sat.add_clause(&[lv, !l]);
                    fwd.push(l);
                }
                self.sat.add_clause(&fwd);
                lv
            }
            Term::Forall(..) => {
                // residual nested quantifier: weaken to a free variable
                self.exact = false;
                Lit::pos(self.sat.new_var())
            }
            other => panic!("cannot encode non-boolean term {other:?}"),
        };
        self.lit_of.insert(t, lit);
        lit
    }

    fn assert_root(&mut self, arena: &mut TermArena, t: TermId) {
        let l = self.encode(arena, t);
        self.sat.add_clause(&[l]);
    }

    /// The selector literal guarding the tracked assert `prov`, allocated on
    /// first use. Selector variables only ever occur negatively in clauses,
    /// so a SAT-level refutation at decision level 0 is independent of every
    /// tracked assert (the empty core is sound).
    fn selector(&mut self, prov: u32) -> Lit {
        if let Some(&(_, l)) = self.selectors.iter().find(|&&(p, _)| p == prov) {
            return l;
        }
        let l = Lit::pos(self.sat.new_var());
        self.selectors.push((prov, l));
        l
    }

    /// Maps the SAT layer's failed-assumption set back to provenance ids,
    /// after bounded iterative refinement: re-solving under only the current
    /// core lets conflict analysis shrink it, and the persistent learnt
    /// clauses make each pass near-free propagation in the common case.
    fn extract_core(&mut self) -> TrackedCore {
        let mut core_lits = self.sat.assumption_core().to_vec();
        for _ in 0..CORE_REFINE_ROUNDS {
            if core_lits.len() <= 1 {
                break;
            }
            match self.sat.solve_with_assumptions(&core_lits) {
                SolveResult::Unsat => {
                    let smaller = self.sat.assumption_core().to_vec();
                    if smaller.len() < core_lits.len() {
                        core_lits = smaller;
                    } else {
                        break;
                    }
                }
                // interrupted (budget) or — defensively — sat: the previous
                // core is already sound, keep it
                _ => break,
            }
        }
        let mut ids: Vec<u32> = core_lits
            .iter()
            .filter_map(|l| {
                self.selectors
                    .iter()
                    .find(|&&(_, s)| s == *l)
                    .map(|&(p, _)| p)
            })
            .collect();
        ids.extend(self.forced_core.iter().copied());
        ids.sort_unstable();
        ids.dedup();
        TrackedCore { ids, exact: true }
    }

    /// Every tracked id: the sound over-approximation recorded when a hard
    /// theory clause closed the refutation below the assumption layer.
    fn fallback_core(&self) -> TrackedCore {
        let mut ids: Vec<u32> = self.selectors.iter().map(|&(p, _)| p).collect();
        ids.extend(self.forced_core.iter().copied());
        ids.sort_unstable();
        ids.dedup();
        TrackedCore { ids, exact: false }
    }

    /// Runs the decision procedure.
    pub fn check(&mut self, arena: &mut TermArena) -> SmtResult {
        // layer the per-query limits over the shared budget
        let budget = self
            .budget
            .child(self.config.time_limit, self.config.step_limit);
        let mut span = pins_trace::span("smt.check");
        if span.is_active() {
            if let Some(t) = budget.time_left() {
                span.record_u64("budget_ms_left", t.as_millis() as u64);
            }
            if let Some(s) = budget.steps_left() {
                span.record_u64("budget_steps_left", s);
            }
        }
        let before = self.stats;
        let result = self.check_inner(arena, &budget);
        if span.is_active() {
            span.record_str(
                "verdict",
                match &result {
                    SmtResult::Sat(_) => "sat",
                    SmtResult::Unsat => "unsat",
                    SmtResult::Unknown(_) => "unknown",
                },
            );
            if let SmtResult::Unknown(reason) = &result {
                span.record_str("stop_reason", &reason.to_string());
            }
            span.record_u64("sat_rounds", self.stats.sat_rounds - before.sat_rounds);
            span.record_u64(
                "theory_conflicts",
                self.stats.theory_conflicts - before.theory_conflicts,
            );
            span.record_u64("lemmas", self.stats.lemmas - before.lemmas);
            span.record_u64(
                "instances",
                self.stats.instances.saturating_sub(before.instances),
            );
            span.record_u64("formula_size", self.stats.formula_size as u64);
            let s = &self.stats;
            span.record_duration("prep_us", s.prep_time - before.prep_time);
            span.record_duration("sat_us", s.sat_time - before.sat_time);
            span.record_duration("euf_us", s.euf_time - before.euf_time);
            span.record_duration("lia_us", s.lia_time - before.lia_time);
            span.record_duration("ematch_us", s.ematch_time - before.ematch_time);
            span.record_u64("lia_pivots", s.lia_pivots - before.lia_pivots);
        }
        result
    }

    fn check_inner(&mut self, arena: &mut TermArena, budget: &Budget) -> SmtResult {
        self.sat.set_budget(budget.clone());
        self.last_core = None;
        // ground the axioms against the asserted formulas
        let t_prep = Instant::now();
        let roots = self.ground.clone();
        let root_terms: Vec<TermId> = roots.iter().map(|&(g, _)| g).collect();
        let out = instantiate(arena, &self.axioms, &root_terms, self.config.inst, budget);
        if out.truncated {
            self.exact = false;
        }
        if let Some(reason) = out.stopped {
            self.stats.prep_time += t_prep.elapsed();
            self.stats.formula_size = self.sat.formula_size();
            return SmtResult::Unknown(reason);
        }
        self.stats.instances = out.instances.len() as u64;
        let mut to_assert = roots;
        for inst in out.instances {
            let mut prep = Prepped::default();
            preprocess(arena, inst, &mut prep);
            to_assert.extend(prep.ground.into_iter().map(|g| (g, None)));
            // nested axioms inside instances are not supported
            if !prep.axioms.is_empty() {
                self.exact = false;
            }
        }
        let track = self.config.track_cores;
        for (g, prov) in to_assert {
            match prov {
                Some(p) if track => {
                    // guarded root: selector => root, so the root is only
                    // required while its selector is assumed true
                    let s = self.selector(p);
                    let l = self.encode(arena, g);
                    self.sat.add_clause(&[!s, l]);
                }
                _ => self.assert_root(arena, g),
            }
        }
        let sels: Vec<Lit> = self.selectors.iter().map(|&(_, l)| l).collect();
        self.stats.prep_time += t_prep.elapsed();

        for _round in 0..self.config.max_theory_rounds {
            if let Err(reason) = budget.charge(1) {
                self.stats.formula_size = self.sat.formula_size();
                return SmtResult::Unknown(reason);
            }
            self.stats.sat_rounds += 1;
            let t_sat = Instant::now();
            let sat_verdict = self.sat.solve_with_assumptions(&sels);
            self.stats.sat_time += t_sat.elapsed();
            match sat_verdict {
                SolveResult::Unsat => {
                    if track {
                        self.last_core = Some(self.extract_core());
                    }
                    self.stats.formula_size = self.sat.formula_size();
                    return SmtResult::Unsat;
                }
                SolveResult::Interrupted(reason) => {
                    self.stats.formula_size = self.sat.formula_size();
                    return SmtResult::Unknown(reason);
                }
                SolveResult::Sat => {
                    let assignment: Vec<(TermId, bool, Lit)> = self
                        .var_atoms
                        .iter()
                        .map(|&(t, v)| {
                            let val = self.sat.value(v).unwrap_or(false);
                            (t, val, Lit::new(v, val))
                        })
                        .collect();
                    match self.theory_check(arena, &assignment, budget) {
                        Outcome::Stopped(reason) => {
                            self.stats.formula_size = self.sat.formula_size();
                            return SmtResult::Unknown(reason);
                        }
                        Outcome::Ok(mut model) => {
                            model.complete = model.complete && self.exact;
                            self.stats.formula_size = self.sat.formula_size();
                            return SmtResult::Sat(*model);
                        }
                        Outcome::Conflict(tags) => {
                            self.stats.theory_conflicts += 1;
                            // timeline sample: every 16th theory conflict
                            if self.stats.theory_conflicts & 0xF == 1 {
                                pins_trace::point("smt.theory_conflict", || {
                                    vec![
                                        ("count", self.stats.theory_conflicts.into()),
                                        ("atoms", (tags.len() as u64).into()),
                                    ]
                                });
                            }
                            let blocking: Vec<Lit> =
                                tags.iter().map(|&t| !Lit::from_code(t)).collect();
                            if !self.sat.add_clause(&blocking) {
                                if track {
                                    // the refutation closed through a hard
                                    // clause at level 0: attribute it to
                                    // every tracked assert (sound, inexact)
                                    self.last_core = Some(self.fallback_core());
                                }
                                self.stats.formula_size = self.sat.formula_size();
                                return SmtResult::Unsat;
                            }
                        }
                        Outcome::Progress(lemmas, atoms) => {
                            self.stats.lemmas += lemmas.len() as u64;
                            pins_trace::point("smt.lemma", || {
                                vec![
                                    ("count", (lemmas.len() as u64).into()),
                                    ("new_atoms", (atoms.len() as u64).into()),
                                    ("total", self.stats.lemmas.into()),
                                ]
                            });
                            for lem in lemmas {
                                self.assert_root(arena, lem);
                            }
                            for a in atoms {
                                let _ = self.atom_lit(a); // register; SAT decides it
                            }
                        }
                    }
                }
            }
        }
        self.stats.formula_size = self.sat.formula_size();
        SmtResult::Unknown(StopReason::StepLimit)
    }

    /// Validates one full SAT model against the theories.
    fn theory_check(
        &mut self,
        arena: &mut TermArena,
        assignment: &[(TermId, bool, Lit)],
        budget: &Budget,
    ) -> Outcome {
        let t_euf = Instant::now();
        let mut euf = Euf::new();
        let mut lemmas: Vec<TermId> = Vec::new();
        // lemmas are marked as emitted only when actually returned; a theory
        // conflict in this round must not swallow them for future rounds
        let mut pending_splits: Vec<TermId> = Vec::new();
        let tt = arena.mk_true();

        // ---- EUF pass -----------------------------------------------------
        for &(atom, value, lit) in assignment {
            let tag = lit.code();
            match arena.term(atom).clone() {
                Term::Eq(a, b) if !arena.sort(a).is_bool() => {
                    if value {
                        euf.assert_eq(arena, a, b, tag);
                    } else {
                        euf.assert_neq(arena, a, b, tag);
                        if arena.sort(a).is_int() && !self.diseq_split.contains(&atom) {
                            // integer disequality split: !(a=b) => a<b \/ b<a
                            let lt1 = arena.mk_lt(a, b);
                            let lt2 = arena.mk_lt(b, a);
                            let lemma = arena.mk_or(vec![atom, lt1, lt2]);
                            lemmas.push(lemma);
                            pending_splits.push(atom);
                        }
                    }
                }
                Term::App(..) if arena.sort(atom).is_bool() => {
                    if value {
                        euf.assert_eq(arena, atom, tt, tag);
                    } else {
                        euf.assert_neq(arena, atom, tt, tag);
                    }
                }
                Term::Le(a, b) | Term::Lt(a, b) => {
                    // register operands so congruence sees their subterms
                    euf.add_term(arena, a);
                    euf.add_term(arena, b);
                }
                _ => {}
            }
        }
        if let Err(tags) = euf.check() {
            // the pending split lemmas are intentionally NOT marked done:
            // they were not asserted and must be re-generated next time
            self.stats.euf_time += t_euf.elapsed();
            return Outcome::Conflict(tags);
        }
        self.diseq_split.extend(pending_splits);

        // ---- array lemmas on demand ----------------------------------------
        let class_terms = euf.class_of_terms();
        let mut sels: Vec<(TermId, TermId, TermId)> = Vec::new();
        let mut upds: Vec<(TermId, TermId, TermId, TermId)> = Vec::new();
        for &(t, _) in &class_terms {
            match arena.term(t) {
                Term::Sel(a, i) => sels.push((t, *a, *i)),
                Term::Upd(b, j, v) => upds.push((t, *b, *j, *v)),
                _ => {}
            }
        }
        for &(s, a, i) in &sels {
            let ra = euf.root_of(a);
            for &(u, b, j, v) in &upds {
                if euf.root_of(u) != ra {
                    continue;
                }
                if !self.array_done.insert((s, u)) {
                    continue;
                }
                let guard = arena.mk_eq(a, u);
                let ij = arena.mk_eq(i, j);
                let sv = arena.mk_eq(s, v);
                let then_case = arena.mk_and(vec![ij, sv]);
                let nij = arena.mk_not(ij);
                let sel_b = arena.mk_sel(b, i);
                let sb = arena.mk_eq(s, sel_b);
                let else_case = arena.mk_and(vec![nij, sb]);
                let body = arena.mk_or(vec![then_case, else_case]);
                let lemma = arena.mk_implies(guard, body);
                if lemma != arena.mk_true() {
                    lemmas.push(lemma);
                }
            }
        }
        self.stats.euf_time += t_euf.elapsed();
        if !lemmas.is_empty() {
            return Outcome::Progress(lemmas, vec![]);
        }

        // ---- congruence-aware axiom instantiation ---------------------------
        if !self.axioms.is_empty() && self.ematch_count < self.config.inst.max_instances {
            let t_ematch = Instant::now();
            let axioms = self.axioms.clone();
            let new_instances = ematch_round(
                arena,
                &mut euf,
                &axioms,
                &mut self.ematch_done,
                self.ematch_count,
                EmatchConfig {
                    max_instances: self.config.inst.max_instances,
                    max_branches: 64,
                },
                budget,
            );
            if !new_instances.is_empty() {
                self.ematch_count += new_instances.len();
                self.stats.instances += new_instances.len() as u64;
                pins_trace::point("smt.ematch.round", || {
                    vec![
                        ("instances", (new_instances.len() as u64).into()),
                        ("total", (self.ematch_count as u64).into()),
                    ]
                });
                let mut ground = Vec::new();
                for inst in new_instances {
                    let mut prep = Prepped::default();
                    preprocess(arena, inst, &mut prep);
                    ground.extend(prep.ground);
                }
                if !ground.is_empty() {
                    self.stats.ematch_time += t_ematch.elapsed();
                    return Outcome::Progress(ground, vec![]);
                }
            }
            self.stats.ematch_time += t_ematch.elapsed();
        }

        let t_lia = Instant::now();
        let out = self.lia_and_model(arena, assignment, &mut euf, &class_terms, &sels, budget);
        self.stats.lia_time += t_lia.elapsed();
        out
    }

    /// The arithmetic back half of [`Smt::theory_check`]: the simplex/LIA
    /// pass, model-based theory combination, and model construction. Split
    /// out so the caller can attribute its time to the simplex accumulator.
    fn lia_and_model(
        &mut self,
        arena: &mut TermArena,
        assignment: &[(TermId, bool, Lit)],
        euf: &mut Euf,
        class_terms: &[(TermId, u32)],
        sels: &[(TermId, TermId, TermId)],
        budget: &Budget,
    ) -> Outcome {
        // ---- LIA pass -------------------------------------------------------
        let mut lia = Lia::new();
        lia.set_budget(budget.clone());
        let mut lvar: HashMap<TermId, usize> = HashMap::new();
        // EUF -> LIA merges `(pivot, member)`, tagged `SYNTH_BASE + index`;
        // a merge is explained only if a conflict cites its tag
        let mut merges: Vec<(TermId, TermId)> = Vec::new();

        for &(atom, value, lit) in assignment {
            // each bound is `sign * (lhs - rhs) <= k`, given as `(sign, k)`
            let bounds: &[(i64, i64)] = match arena.term(atom) {
                Term::Le(..) if value => &[(1, 0)],
                Term::Le(..) => &[(-1, -1)],
                Term::Lt(..) if value => &[(1, -1)],
                Term::Lt(..) => &[(-1, 0)],
                // a false integer equality is handled by the split lemma + EUF
                Term::Eq(a, _) if value && arena.sort(*a).is_int() => &[(1, 0), (-1, 0)],
                _ => continue,
            };
            let e = atom_form(&mut self.atom_lin, arena, atom);
            for &(sign, k) in bounds {
                match assert_le(&mut lia, &mut lvar, e, sign, k, lit.code()) {
                    Ok(()) => {}
                    Err(Conflict::Infeasible(tags)) => {
                        return Outcome::Conflict(expand(tags, &merges, euf));
                    }
                    Err(Conflict::Stopped(reason)) => return Outcome::Stopped(reason),
                }
            }
        }

        // EUF -> LIA equality propagation: merge arithmetic views of
        // congruent integer terms.
        // assert the merges in a fixed root order: assertion order shapes
        // slack creation and pivoting, so hash-map order would make the
        // model depend on the process. First-appearance order in
        // `class_terms` keeps the merges adjacent to the assertions that
        // produced the classes.
        let mut by_root: HashMap<u32, Vec<TermId>> = HashMap::new();
        let mut roots: Vec<u32> = Vec::new();
        for &(t, root) in class_terms {
            if arena.sort(t).is_int() {
                let members = by_root.entry(root).or_default();
                if members.is_empty() {
                    roots.push(root);
                }
                members.push(t);
            }
        }
        for root in roots {
            let members = &by_root[&root];
            if members.len() < 2 {
                continue;
            }
            let pivot = members[0];
            for &m in &members[1..] {
                let mut e = term_form(&mut self.term_lin, arena, pivot).clone();
                e.sub_assign(term_form(&mut self.term_lin, arena, m));
                if e.coeffs.is_empty() && e.constant == 0 {
                    continue;
                }
                let reason = SYNTH_BASE + merges.len() as u32;
                merges.push((pivot, m));
                let r = assert_le(&mut lia, &mut lvar, &e, 1, 0, reason)
                    .and_then(|()| assert_le(&mut lia, &mut lvar, &e, -1, 0, reason));
                match r {
                    Ok(()) => {}
                    Err(Conflict::Infeasible(tags)) => {
                        return Outcome::Conflict(expand(tags, &merges, euf));
                    }
                    Err(Conflict::Stopped(reason)) => return Outcome::Stopped(reason),
                }
            }
        }

        let checked = lia.check_int(self.config.bb_depth);
        self.stats.lia_pivots += lia.pivots();
        match checked {
            Ok(()) => {}
            Err(Conflict::Infeasible(tags)) => {
                return Outcome::Conflict(expand(tags, &merges, euf));
            }
            Err(Conflict::Stopped(reason)) => return Outcome::Stopped(reason),
        }
        let int_exact = !lia.int_incomplete;

        // ---- model-based theory combination ---------------------------------
        // integer terms under uninterpreted/array operators whose LIA values
        // coincide but whose EUF classes differ get a fresh equality atom.
        // The kids need not be opaque `lvar` atoms: `f(x)` with `x = 2` must
        // merge with `f(2)`, and `sel(a, y - z)` with `y - z = 3` must merge
        // with `sel(a, 3)` — any kid whose linear form evaluates under the
        // LIA assignment takes part. Pairs are restricted to kids that can
        // occupy *corresponding* congruence positions (same function symbol
        // and argument index; all array indices together; all update values
        // together): a merge across unrelated slots can never complete a
        // congruence, and value-coincidence is transitive, so any pair a
        // later round needs is regenerated within its own slot.
        const SLOT_SEL_UPD_IDX: u64 = 1;
        const SLOT_UPD_VAL: u64 = 2;
        const SLOT_APP_BASE: u64 = 3;
        let mut shared: Vec<(u64, i64, TermId)> = Vec::new();
        {
            let mut seen = HashSet::new();
            let memo = &mut self.term_lin;
            let mut add = |arena: &TermArena, slot: u64, k: TermId, seen: &mut HashSet<_>| {
                if arena.sort(k).is_int() && seen.insert((slot, k)) {
                    if let Some(v) = eval_int(arena, k, memo, &lvar, &lia) {
                        shared.push((slot, v, k));
                    }
                }
            };
            for &(t, _) in class_terms {
                match arena.term(t) {
                    Term::App(f, args) => {
                        let (f, args) = (*f, args.clone());
                        for (pos, k) in args.into_iter().enumerate() {
                            let slot = SLOT_APP_BASE + ((f.index() as u64) << 16) + pos as u64;
                            add(arena, slot, k, &mut seen);
                        }
                    }
                    Term::Sel(_, i) => add(arena, SLOT_SEL_UPD_IDX, *i, &mut seen),
                    Term::Upd(_, i, v) => {
                        let (i, v) = (*i, *v);
                        add(arena, SLOT_SEL_UPD_IDX, i, &mut seen);
                        add(arena, SLOT_UPD_VAL, v, &mut seen);
                    }
                    _ => continue,
                }
            }
        }
        shared.sort_unstable();
        let mut new_atoms = Vec::new();
        for i in 0..shared.len() {
            for j in (i + 1)..shared.len() {
                let (slot_s, val_s, s) = shared[i];
                let (slot_t, val_t, t) = shared[j];
                if slot_s != slot_t || val_s != val_t {
                    break; // sorted: the (slot, value) group ends here
                }
                if s == t || euf.same_class(s, t) {
                    continue;
                }
                let key = (s.min(t), s.max(t));
                if !self.mbtc_done.insert(key) {
                    continue;
                }
                let eq = arena.mk_eq(s, t);
                if !self.atom_var.contains_key(&eq) {
                    new_atoms.push(eq);
                }
            }
        }
        if !new_atoms.is_empty() {
            return Outcome::Progress(vec![], new_atoms);
        }

        // ---- build the model -------------------------------------------------
        let mut model = Model {
            complete: int_exact,
            ..Default::default()
        };
        for (&t, &v) in &lvar {
            if let Some(val) = lia.value(v).to_i64() {
                model.ints.insert(t, val);
            } else {
                // saturate instead of truncating bits on out-of-range values
                let f = lia.value(v).floor();
                let clamped = i64::try_from(f).unwrap_or(if f < 0 { i64::MIN } else { i64::MAX });
                model.ints.insert(t, clamped);
                model.complete = false;
            }
        }
        // nonlinear products enter LIA as opaque atoms with no product
        // axioms, so the assignment may give one a value unrelated to its
        // operands' actual product; a model where that happens only
        // satisfies the linear abstraction, not the formula
        for &t in lvar.keys() {
            if let Term::Mul(a, b) = arena.term(t) {
                let (a, b) = (*a, *b);
                let got = model.ints.get(&t).copied();
                let product = match (
                    eval_lin(arena, a, &mut self.term_lin, &lvar, &lia),
                    eval_lin(arena, b, &mut self.term_lin, &lvar, &lia),
                ) {
                    (Some(va), Some(vb)) => va.checked_mul(vb),
                    _ => None,
                };
                if product.is_none() || product != got {
                    model.complete = false;
                }
            }
        }
        for &(atom, value, _) in assignment {
            model.bools.insert(atom, value);
        }
        // array contents: group sel values under each array-variable class
        let mut arrays: HashMap<u32, Vec<(i64, i64)>> = HashMap::new();
        for &(s, a, i) in sels {
            if let (Some(root), Some(&sv)) = (euf.root_of(a), lvar.get(&s)) {
                let idx = eval_lin(arena, i, &mut self.term_lin, &lvar, &lia);
                if let (Some(idx), Some(val)) = (idx, lia.value(sv).to_i64()) {
                    arrays.entry(root).or_default().push((idx, val));
                }
            }
        }
        for &(t, root) in class_terms {
            if arena.sort(t).is_array() && matches!(arena.term(t), Term::Var { .. }) {
                if let Some(entries) = arrays.get(&root) {
                    let mut e = entries.clone();
                    e.sort_unstable();
                    e.dedup_by_key(|p| p.0);
                    model.arrays.insert(t, e);
                }
            }
        }
        for &(t, root) in class_terms {
            if matches!(arena.sort(t), Sort::Unint(_)) {
                model.unints.insert(t, root as u64);
            }
        }
        Outcome::Ok(Box::new(model))
    }
}

/// Replaces synthetic merge tags (`SYNTH_BASE + i`) in a LIA explanation by
/// the EUF explanation of merge `i`; sorted and deduplicated.
fn expand(tags: Vec<u32>, merges: &[(TermId, TermId)], euf: &mut Euf) -> Vec<u32> {
    let mut out = Vec::new();
    for t in tags {
        if t >= SYNTH_BASE {
            let (pivot, m) = merges[(t - SYNTH_BASE) as usize];
            out.extend(euf.explain_terms(pivot, m));
        } else {
            out.push(t);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Asserts `sign * expr <= k` (`sign` is ±1) with reason tag `reason`; the
/// expression's own constant is folded into the bound.
fn assert_le(
    lia: &mut Lia,
    lvar: &mut HashMap<TermId, usize>,
    expr: &LinExpr,
    sign: i64,
    k: i64,
    reason: u32,
) -> Result<(), Conflict> {
    // a linearization that overflowed i64 has unreliable numbers, and so
    // does the negation of an `i64::MIN`: degrade the whole query rather
    // than assert garbage bounds
    let negation_overflows =
        sign < 0 && (expr.constant == i64::MIN || expr.coeffs.values().any(|&c| c == i64::MIN));
    if expr.overflowed || negation_overflows {
        return Err(Conflict::Stopped(StopReason::Overflow));
    }
    let constant = sign * expr.constant;
    if expr.coeffs.is_empty() {
        return if constant <= k {
            Ok(())
        } else {
            Err(Conflict::Infeasible(vec![reason]))
        };
    }
    let terms: Vec<(usize, i64)> = expr
        .coeffs
        .iter()
        .map(|(&t, &c)| (*lvar.entry(t).or_insert_with(|| lia.new_var()), sign * c))
        .collect();
    let s = lia.slack_for(&terms)?;
    lia.assert_upper(s, Rat::from_int128(k as i128 - constant as i128), reason)
}

/// The memoised `lhs - rhs` of an arithmetic atom `lhs ⋈ rhs`.
fn atom_form<'m>(
    memo: &'m mut HashMap<TermId, LinExpr>,
    arena: &TermArena,
    atom: TermId,
) -> &'m LinExpr {
    memo.entry(atom).or_insert_with(|| match arena.term(atom) {
        Term::Le(a, b) | Term::Lt(a, b) | Term::Eq(a, b) => {
            let mut e = linearize(arena, *a);
            e.sub_assign(&linearize(arena, *b));
            e
        }
        _ => unreachable!("not an arithmetic atom"),
    })
}

/// The memoised linear form of an integer term.
fn term_form<'m>(
    memo: &'m mut HashMap<TermId, LinExpr>,
    arena: &TermArena,
    t: TermId,
) -> &'m LinExpr {
    memo.entry(t).or_insert_with(|| linearize(arena, t))
}

/// Evaluates an integer term *semantically* under the LIA assignment:
/// arithmetic is computed structurally (so a nonlinear product evaluates to
/// the actual product of its operands, not to whatever value its opaque LIA
/// atom happened to receive), and only true leaves — variables, `sel`s,
/// applications — read the assignment through their linear form. Model-based
/// theory combination must use this view, because the independent model
/// evaluation it guards against computes products the same way.
fn eval_int(
    arena: &TermArena,
    t: TermId,
    memo: &mut HashMap<TermId, LinExpr>,
    lvar: &HashMap<TermId, usize>,
    lia: &Lia,
) -> Option<i64> {
    match arena.term(t) {
        Term::IntConst(v) => Some(*v),
        Term::Add(a, b) => {
            let (a, b) = (*a, *b);
            eval_int(arena, a, memo, lvar, lia)?.checked_add(eval_int(arena, b, memo, lvar, lia)?)
        }
        Term::Sub(a, b) => {
            let (a, b) = (*a, *b);
            eval_int(arena, a, memo, lvar, lia)?.checked_sub(eval_int(arena, b, memo, lvar, lia)?)
        }
        Term::Mul(a, b) => {
            let (a, b) = (*a, *b);
            eval_int(arena, a, memo, lvar, lia)?.checked_mul(eval_int(arena, b, memo, lvar, lia)?)
        }
        _ => eval_lin(arena, t, memo, lvar, lia),
    }
}

/// Evaluates an integer term's linear form under the LIA assignment.
fn eval_lin(
    arena: &TermArena,
    t: TermId,
    memo: &mut HashMap<TermId, LinExpr>,
    lvar: &HashMap<TermId, usize>,
    lia: &Lia,
) -> Option<i64> {
    let e = term_form(memo, arena, t);
    if e.overflowed {
        return None;
    }
    let mut acc = Rat::from_int(e.constant);
    for (&term, &c) in &e.coeffs {
        let v = lvar.get(&term)?;
        acc = acc.checked_add(Rat::from_int(c).checked_mul(lia.value(*v))?)?;
    }
    acc.to_i64()
}
