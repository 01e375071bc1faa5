//! Goal slicing: splits a constraint whose goal is a conjunction into one
//! verification obligation per conjunct, each keeping only the hypotheses
//! that can matter to it.
//!
//! A hypothesis `v = t` is an *unconstrained definition* of `v` when `v` is a
//! variable, `v` does not occur in `t`, no other kept formula mentions `v`,
//! and no hole occurrence in a kept formula can read `v` (a hole reads every
//! program variable at the version its occurrence's version map gives, so
//! after filling it may mention any of them). Such a hypothesis can be
//! dropped exactly: `∃v. v = t ∧ φ ≡ φ`, so the sliced and the whole
//! implication are valid for the same fillings — including when the
//! hypotheses are unsatisfiable. Dropping repeats until nothing more drops.
//!
//! Slicing only reads the arena: variables are compared as
//! `(symbol, version)` and no term is interned, so the term ids of every
//! later query (which order the simplex columns) are unaffected.

use std::collections::{HashMap, HashSet};

use pins_ir::{Program, VarId};
use pins_logic::{Symbol, Term, TermArena, TermId, BOUND_VERSION};
use pins_symexec::{version_of, HoleKind, SymCtx};

use crate::constraints::Constraint;

/// The holes occurring in a set of formulas, sorted and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct HoleSet {
    pub(crate) eholes: Vec<u32>,
    pub(crate) pholes: Vec<u32>,
}

impl HoleSet {
    fn len(&self) -> usize {
        self.eholes.len() + self.pholes.len()
    }
}

/// One validity check a constraint reduces to: `(/\ hyps) => goal`, whose
/// verdict depends only on the choices for `holes`.
#[derive(Debug, Clone)]
pub(crate) struct Obligation {
    pub(crate) hyps: Vec<TermId>,
    pub(crate) goal: TermId,
    pub(crate) holes: HoleSet,
}

/// The free variables (as `(symbol, version)`) and hole occurrences of one
/// formula.
#[derive(Default)]
struct Mentions {
    vars: HashSet<(Symbol, u32)>,
    occs: HashSet<u32>,
}

fn mentions(arena: &TermArena, t: TermId) -> Mentions {
    let mut out = Mentions::default();
    let mut seen = HashSet::new();
    let mut stack = vec![t];
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        match *arena.term(id) {
            Term::Var { sym, version, .. } if version != BOUND_VERSION => {
                out.vars.insert((sym, version));
            }
            Term::Hole(occ, _) => {
                out.occs.insert(occ);
            }
            _ => stack.extend(arena.children(id)),
        }
    }
    out
}

/// The holes occurring in `formulas`.
pub(crate) fn holes_in(ctx: &SymCtx, formulas: &[TermId]) -> HoleSet {
    let mut eholes = HashSet::new();
    let mut pholes = HashSet::new();
    for &f in formulas {
        for occ in mentions(&ctx.arena, f).occs {
            match ctx.occurrence(occ).kind {
                HoleKind::Expr(e) => eholes.insert(e.0),
                HoleKind::Pred(p) => pholes.insert(p.0),
            };
        }
    }
    let mut eholes: Vec<u32> = eholes.into_iter().collect();
    let mut pholes: Vec<u32> = pholes.into_iter().collect();
    eholes.sort_unstable();
    pholes.sort_unstable();
    HoleSet { eholes, pholes }
}

/// The holes occurring in `c` and the obligations whose conjunction is `c`,
/// in goal order.
///
/// A constraint splits into one obligation per goal conjunct only when some
/// conjunct's sliced hole set is strictly smaller than the whole
/// constraint's: a split that shrinks no memo key only adds queries.
/// Otherwise the single obligation is the original check.
pub(crate) fn obligations(
    ctx: &SymCtx,
    program: &Program,
    c: &Constraint,
) -> (HoleSet, Vec<Obligation>) {
    let mut formulas = c.hyps.clone();
    formulas.push(c.goal);
    let holes = holes_in(ctx, &formulas);
    let whole = Obligation {
        hyps: c.hyps.clone(),
        goal: c.goal,
        holes: holes.clone(),
    };
    let Term::And(conjuncts) = ctx.arena.term(c.goal) else {
        return (holes, vec![whole]);
    };
    let parts: Vec<Obligation> = conjuncts
        .iter()
        .map(|&goal| {
            let hyps = slice_hyps(ctx, program, &c.hyps, goal);
            let mut formulas = hyps.clone();
            formulas.push(goal);
            let holes = holes_in(ctx, &formulas);
            Obligation { hyps, goal, holes }
        })
        .collect();
    if parts.iter().any(|p| p.holes.len() < holes.len()) {
        (holes, parts)
    } else {
        (holes, vec![whole])
    }
}

/// The hypotheses of `hyps` that remain once every unconstrained definition
/// (see the module docs) has been dropped, relative to `goal`, in their
/// original order.
pub(crate) fn slice_hyps(
    ctx: &SymCtx,
    program: &Program,
    hyps: &[TermId],
    goal: TermId,
) -> Vec<TermId> {
    let arena = &ctx.arena;
    let program_var: HashMap<Symbol, VarId> = (0..program.vars.len() as u32)
        .map(|i| (ctx.var_sym(VarId(i)), VarId(i)))
        .collect();
    let hyp_mentions: Vec<Mentions> = hyps.iter().map(|&h| mentions(arena, h)).collect();
    // how many kept formulas mention each variable / hole occurrence
    let mut var_refs: HashMap<(Symbol, u32), usize> = HashMap::new();
    let mut occ_refs: HashMap<u32, usize> = HashMap::new();
    for m in hyp_mentions
        .iter()
        .chain(std::iter::once(&mentions(arena, goal)))
    {
        for &v in &m.vars {
            *var_refs.entry(v).or_default() += 1;
        }
        for &o in &m.occs {
            *occ_refs.entry(o).or_default() += 1;
        }
    }
    let readable = |occ_refs: &HashMap<u32, usize>, (sym, version): (Symbol, u32)| {
        program_var.get(&sym).is_some_and(|&var| {
            occ_refs
                .keys()
                .any(|&o| version_of(&ctx.occurrence(o).vmap, var) == version)
        })
    };
    let mut kept = vec![true; hyps.len()];
    loop {
        let mut dropped_any = false;
        for (i, &h) in hyps.iter().enumerate() {
            if !kept[i] {
                continue;
            }
            let Term::Eq(a, b) = *arena.term(h) else {
                continue;
            };
            let defines_free_var = [(a, b), (b, a)].into_iter().any(|(v, t)| {
                let Term::Var { sym, version, .. } = *arena.term(v) else {
                    return false;
                };
                let key = (sym, version);
                version != BOUND_VERSION
                    // `h` itself is the only kept formula mentioning `v`
                    && var_refs[&key] == 1
                    && !readable(&occ_refs, key)
                    && !mentions(arena, t).vars.contains(&key)
            });
            if !defines_free_var {
                continue;
            }
            kept[i] = false;
            dropped_any = true;
            for v in &hyp_mentions[i].vars {
                *var_refs.get_mut(v).unwrap() -= 1;
            }
            for o in &hyp_mentions[i].occs {
                let n = occ_refs.get_mut(o).unwrap();
                *n -= 1;
                if *n == 0 {
                    occ_refs.remove(o);
                }
            }
        }
        if !dropped_any {
            break;
        }
    }
    hyps.iter()
        .zip(kept)
        .filter_map(|(&h, keep)| keep.then_some(h))
        .collect()
}
