use pins_ir::{
    parse_expr_in, parse_pred_in, program_to_string, run, ExternEnv, Store, Type, Value,
};
use pins_logic::{Term, TermId};

use crate::*;

/// Synthesize the inverse of `y := x + 7`.
fn add7_session() -> Session {
    let mut s = Session::from_sources(
        "proc add7(in x: int, out y: int) { y := x + 7; }",
        "proc add7_inv(in y: int, out xI: int) { xI := ?e1; }",
    );
    let c = s.composed.clone();
    s.expr_candidates = vec![
        parse_expr_in(&c, "y + 7").unwrap(),
        parse_expr_in(&c, "y - 7").unwrap(),
        parse_expr_in(&c, "0").unwrap(),
        parse_expr_in(&c, "y").unwrap(),
    ];
    s.spec = Spec {
        items: vec![SpecItem::IntEq {
            input: c.var_by_name("x").unwrap(),
            output: c.var_by_name("xI").unwrap(),
        }],
    };
    s
}

#[test]
fn add7_inverse_synthesized() {
    let mut session = add7_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    assert_eq!(
        outcome.solutions.len(),
        1,
        "exactly one inverse should survive"
    );
    let inv = &outcome.solutions[0].inverse;
    let printed = program_to_string(inv);
    assert!(printed.contains("y - 7"), "got:\n{printed}");
    assert!(outcome.converged);
    assert!(outcome.paths_explored >= 1);
}

#[test]
fn add7_concrete_tests_generated() {
    let mut session = add7_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    assert!(!outcome.tests.is_empty());
    // each test assigns the input x
    for t in &outcome.tests {
        assert!(t.inputs.iter().any(|(n, _)| n == "x"));
    }
}

#[test]
fn no_solution_when_candidates_insufficient() {
    let mut session = add7_session();
    let c = session.composed.clone();
    session.expr_candidates = vec![
        parse_expr_in(&c, "y + 7").unwrap(), // wrong direction only
        parse_expr_in(&c, "0").unwrap(),
    ];
    let err = Pins::new(PinsConfig::default())
        .run(&mut session)
        .unwrap_err();
    assert!(matches!(err, PinsError::NoSolution { .. }), "{err:?}");
}

/// `m := 2 * n` by repeated addition; inverse halves by counting.
fn double_session() -> Session {
    let mut s = Session::from_sources(
        r#"
proc double(in n: int, out m: int) {
  local i: int;
  assume(n >= 0);
  i := 0; m := 0;
  while (i < n) {
    m, i := m + 2, i + 1;
  }
}
"#,
        r#"
proc double_inv(in m: int, out nI: int) {
  local j: int;
  j, nI := ?e1, ?e2;
  while (?p1) {
    nI, j := ?e3, ?e4;
  }
}
"#,
    );
    let c = s.composed.clone();
    s.expr_candidates = ["0", "m", "nI + 1", "nI - 1", "j + 2", "j + 1", "j - 2"]
        .iter()
        .map(|src| parse_expr_in(&c, src).unwrap())
        .collect();
    s.pred_candidates = ["j < m", "nI < m", "j < nI"]
        .iter()
        .map(|src| parse_pred_in(&c, src).unwrap())
        .collect();
    s.spec = Spec {
        items: vec![SpecItem::IntEq {
            input: c.var_by_name("n").unwrap(),
            output: c.var_by_name("nI").unwrap(),
        }],
    };
    s
}

#[test]
fn double_inverse_synthesized_and_correct() {
    let mut session = double_session();
    let config = PinsConfig {
        max_iterations: 40,
        ..PinsConfig::default()
    };
    let outcome = Pins::new(config).run(&mut session).unwrap();
    assert!(
        !outcome.solutions.is_empty() && outcome.solutions.len() <= 4,
        "expected a small surviving set, got {}",
        outcome.solutions.len()
    );

    // validate all surviving solutions by concrete round-trips
    let env = ExternEnv::new();
    let orig = &session.original;
    let mut correct = 0;
    for sol in &outcome.solutions {
        let inv = &sol.inverse;
        let mut ok = true;
        for n in 0..8i64 {
            let mut inputs = Store::new();
            inputs.insert(orig.var_by_name("n").unwrap(), Value::Int(n));
            let mid = run(orig, &inputs, &env, 10_000).unwrap();
            let m = mid[&orig.var_by_name("m").unwrap()].clone();
            let mut inv_inputs = Store::new();
            inv_inputs.insert(inv.var_by_name("m").unwrap(), m);
            match run(inv, &inv_inputs, &env, 10_000) {
                Ok(out) => {
                    if out[&inv.var_by_name("nI").unwrap()] != Value::Int(n) {
                        ok = false;
                    }
                }
                Err(_) => ok = false,
            }
        }
        if ok {
            correct += 1;
        }
    }
    assert!(
        correct >= 1,
        "at least one surviving solution must be a true inverse"
    );
}

#[test]
fn iterations_match_small_path_bound_hypothesis() {
    let mut session = double_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    // the paper reports 1..14 iterations across all benchmarks
    assert!(
        outcome.iterations <= 20,
        "too many iterations: {}",
        outcome.iterations
    );
    assert!(outcome.paths_explored <= 20);
}

#[test]
fn random_pickone_also_converges() {
    let mut session = double_session();
    let config = PinsConfig {
        pick_random: true,
        seed: 7,
        ..PinsConfig::default()
    };
    let outcome = Pins::new(config).run(&mut session).unwrap();
    assert!(!outcome.solutions.is_empty());
}

#[test]
fn stats_are_populated() {
    let mut session = double_session();
    let outcome = Pins::new(PinsConfig::default()).run(&mut session).unwrap();
    let s = outcome.stats();
    assert!(s.total_time.as_nanos() > 0);
    assert!(s.smt_queries > 0);
    assert!(s.sat_size > 0);
    assert!(s.smt_reduction_time.as_nanos() > 0);
    // every query on the engine's session is either a hit or a miss
    assert_eq!(
        s.smt_cache_hits + s.smt_cache_misses,
        outcome.metrics().get("smt.queries")
    );
}

// ---------------- unit-level checks ----------------

#[test]
fn rank_candidates_derived_from_inequalities() {
    let s = double_session();
    let ranks = derive_rank_candidates(&s.pred_candidates);
    // j < m and nI < m and j < nI each yield a candidate
    assert_eq!(ranks.len(), 3);
    for r in &ranks {
        assert_eq!(type_of_expr(&s.composed, r), Type::Int);
    }
}

#[test]
fn ehole_types_inferred_from_targets() {
    let s = Session::from_sources(
        "proc f(in A: int[], in n: int, out B: int[]) { B := upd(B, 0, A[0]); }",
        "proc g(in B: int[], out AI: int[], out k: int) { AI := ?e1; k := ?e2; }",
    );
    let types = ehole_types(&s.composed);
    assert_eq!(types, vec![Type::IntArray, Type::Int]);
}

#[test]
fn pred_subsets_bounded() {
    let s = double_session();
    let singles = pred_subset_candidates(&s.pred_candidates, 1, true);
    assert_eq!(singles.len(), 1 + 3);
    let pairs = pred_subset_candidates(&s.pred_candidates, 2, true);
    assert_eq!(pairs.len(), 1 + 3 + 3);
}

#[test]
fn search_space_accounting() {
    let session = double_session();
    let domains = build_domains(&session, DomainConfig::default());
    // paper-comparable space: 4 int-expr holes over 7 candidates each plus
    // one predicate hole over 2^3 subsets
    let expected = 4.0 * (7.0f64).log2() + 3.0;
    assert!((domains.paper_search_space_log2 - expected).abs() < 1e-9);
    assert!(domains.encoded_search_space_log2 > 0.0);
}

#[test]
fn axiom_def_round_trip() {
    use pins_ir::ExternDecl;
    let externs = vec![ExternDecl {
        name: "strlen".into(),
        args: vec![Type::Abstract("Str".into())],
        ret: Type::Int,
        returns_bool: false,
    }];
    let ax = AxiomDef::parse(
        &externs,
        &[("s", Type::Abstract("Str".into()))],
        "strlen(s) >= 0",
    );
    let mut arena = pins_logic::TermArena::new();
    let t = ax.to_term(&mut arena);
    let shown = arena.display(t).to_string();
    assert!(shown.contains("forall"), "{shown}");
    assert!(shown.contains("strlen"), "{shown}");
}

#[test]
fn terminate_constraints_generated_per_template_loop() {
    let session = double_session();
    let domains = build_domains(&session, DomainConfig::default());
    let mut ctx = pins_symexec::SymCtx::new(&session.composed);
    let cs = terminate_constraints(&session, &domains, &mut ctx);
    // one bounded + per body path (1) a decrease and an inv-maintain
    assert_eq!(cs.len(), 3);
    assert!(cs
        .iter()
        .any(|c| matches!(c.label, ConstraintLabel::Bounded(_))));
    assert!(cs
        .iter()
        .any(|c| matches!(c.label, ConstraintLabel::Decrease(_))));
    assert!(cs
        .iter()
        .any(|c| matches!(c.label, ConstraintLabel::InvMaintain(_))));
}

/// The suite's LU decomp benchmark (2x2 Doolittle decomposition and its
/// re-multiplication), rebuilt here because `pins-suite` depends on this
/// crate.
fn lu_session() -> Session {
    let mut s = Session::from_sources(
        r#"
extern mul(int, int): int;
extern div(int, int): int;
proc lu2(inout a: int, inout b: int, inout c: int, inout d: int) {
  assume(a != 0);
  c := div(c, a);
  d := d - mul(c, b);
}
"#,
        r#"
extern mul(int, int): int;
extern div(int, int): int;
proc lu2_inv(in a: int, in b: int, in c: int, in d: int, out aI: int, out bI: int, out cI: int, out dI: int) {
  aI := ?e1;
  bI := ?e2;
  cI := ?e3;
  dI := ?e4;
}
"#,
    );
    let c = s.composed.clone();
    s.expr_candidates = [
        "a",
        "b",
        "c",
        "d",
        "mul(c, a)",
        "mul(c, b)",
        "d + mul(c, b)",
        "d - mul(c, b)",
        "div(c, a)",
    ]
    .iter()
    .map(|src| parse_expr_in(&c, src).unwrap())
    .collect();
    s.spec = Spec {
        items: ["a", "b", "c", "d"]
            .iter()
            .map(|v| SpecItem::IntEq {
                input: c.var_by_name(v).unwrap(),
                output: c.var_by_name(&format!("{v}I")).unwrap(),
            })
            .collect(),
    };
    s.axioms = vec![AxiomDef::parse(
        &c.externs,
        &[("x", Type::Int), ("y", Type::Int)],
        "y = 0 || mul(div(x, y), y) = x",
    )];
    s
}

/// LU's only constraint: the `safepath` constraint of its single path.
fn lu_constraint(session: &Session) -> (pins_symexec::SymCtx, Constraint) {
    let mut ctx = pins_symexec::SymCtx::new(&session.composed);
    let config = pins_symexec::ExploreConfig {
        check_feasibility: false,
        ..Default::default()
    };
    let paths = pins_symexec::Explorer::new(&session.composed, config).enumerate(
        &mut ctx,
        &pins_symexec::EmptyFiller,
        4,
    );
    assert_eq!(paths.len(), 1, "LU decomp is straight-line code");
    let c = safepath_constraint(session, &session.spec, &mut ctx, &paths[0]);
    (ctx, c)
}

/// The hypothesis of `c` that defines variable `name` at `version`.
fn definition_of(
    ctx: &pins_symexec::SymCtx,
    session: &Session,
    c: &Constraint,
    name: &str,
    version: u32,
) -> pins_logic::TermId {
    let sym = ctx.var_sym(session.composed.var_by_name(name).unwrap());
    let is_var = |t| {
        matches!(*ctx.arena.term(t), Term::Var { sym: s, version: v, .. }
            if s == sym && v == version)
    };
    *c.hyps
        .iter()
        .find(|&&h| matches!(*ctx.arena.term(h), Term::Eq(a, b) if is_var(a) || is_var(b)))
        .unwrap_or_else(|| panic!("no definition of {name}@{version}"))
}

#[test]
fn lu_goal_splits_into_parts_with_growing_hole_sets() {
    let session = lu_session();
    let (ctx, c) = lu_constraint(&session);
    let arena_len = ctx.arena.len();
    let (holes, parts) = crate::slice::obligations(&ctx, &session.composed, &c);
    assert_eq!(ctx.arena.len(), arena_len, "slicing must intern no terms");
    assert_eq!(holes.eholes, vec![0, 1, 2, 3]);
    let part_holes: Vec<Vec<u32>> = parts.iter().map(|p| p.holes.eholes.clone()).collect();
    assert_eq!(
        part_holes,
        vec![vec![0], vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3]]
    );
    assert!(parts.iter().all(|p| p.holes.pholes.is_empty()));
}

#[test]
fn definition_readable_by_a_hole_is_kept() {
    let session = lu_session();
    let (ctx, c) = lu_constraint(&session);
    let p = &session.composed;
    let Term::And(goals) = ctx.arena.term(c.goal).clone() else {
        panic!("LU's goal is a conjunction");
    };
    let a_def = definition_of(&ctx, &session, &c, "aI", 1);
    let b_def = definition_of(&ctx, &session, &c, "bI", 1);
    // `bI := ?e2` runs after `aI := ?e1`, so ?e2 may read aI@1: the goal
    // on b keeps aI's definition although the goal itself never mentions aI
    let b_part = crate::slice::slice_hyps(&ctx, p, &c.hyps, goals[1]);
    assert!(b_part.contains(&a_def) && b_part.contains(&b_def));
    // ... while no kept hole can read bI@1 in the goal on a, so its
    // definition goes
    let a_part = crate::slice::slice_hyps(&ctx, p, &c.hyps, goals[0]);
    assert!(a_part.contains(&a_def) && !a_part.contains(&b_def));
}

#[test]
fn cyclic_definition_is_kept() {
    let session = lu_session();
    let (mut ctx, c) = lu_constraint(&session);
    let a0 = ctx.var_term(session.composed.var_by_name("a").unwrap(), 0);
    let mul = ctx.arena.symbols().get("mul").unwrap();
    let z = ctx.arena.symbols_mut().fresh("z");
    let z0 = ctx.arena.mk_var(z, 0, pins_logic::Sort::Int);
    let z_times_a = ctx.arena.mk_app(mul, vec![z0, a0]);
    let cyclic = ctx.arena.mk_eq(z0, z_times_a);
    let acyclic_rhs = ctx.arena.mk_app(mul, vec![a0, a0]);
    let acyclic = ctx.arena.mk_eq(z0, acyclic_rhs);
    let Term::And(goals) = ctx.arena.term(c.goal).clone() else {
        panic!("LU's goal is a conjunction");
    };
    for (extra, kept) in [(cyclic, true), (acyclic, false)] {
        let mut hyps = c.hyps.clone();
        hyps.push(extra);
        let sliced = crate::slice::slice_hyps(&ctx, &session.composed, &hyps, goals[0]);
        assert_eq!(
            sliced.contains(&extra),
            kept,
            "{}",
            ctx.arena.display(extra)
        );
    }
}

#[test]
fn constraint_whose_key_does_not_shrink_stays_whole() {
    let session = lu_session();
    let (mut ctx, c) = lu_constraint(&session);
    let p = &session.composed;
    // both conjuncts read aI@1, so both keep its definition and both parts
    // would have the constraint's own hole set {?e1}
    let a_def = definition_of(&ctx, &session, &c, "aI", 1);
    let a0 = ctx.var_term(p.var_by_name("a").unwrap(), 0);
    let b0 = ctx.var_term(p.var_by_name("b").unwrap(), 0);
    let ai1 = ctx.var_term(p.var_by_name("aI").unwrap(), 1);
    let eq = ctx.arena.mk_eq(a0, ai1);
    let le = ctx.arena.mk_le(b0, ai1);
    let goal = ctx.arena.mk_and(vec![eq, le]);
    let hyps = vec![a_def];
    let whole = Constraint {
        hyps: hyps.clone(),
        goal,
        label: ConstraintLabel::SafePath,
    };
    let (holes, parts) = crate::slice::obligations(&ctx, p, &whole);
    assert_eq!(holes.eholes, vec![0]);
    assert_eq!(parts.len(), 1, "no part shrinks the key: one query");
    assert_eq!((parts[0].hyps.clone(), parts[0].goal), (hyps, goal));
}

#[test]
fn sliced_verdicts_match_whole_constraint_on_lu_candidates() {
    use pins_smt::{QueryCache, SmtConfig, SmtSession};
    use std::sync::Arc;

    let session = lu_session();
    let (mut ctx, c) = lu_constraint(&session);
    let program = session.composed.clone();
    let domains = build_domains(&session, DomainConfig::default());
    let (_, parts) = crate::slice::obligations(&ctx, &program, &c);
    assert_eq!(parts.len(), 4);
    let mut smt = SmtSession::with_cache(SmtConfig::default(), Arc::new(QueryCache::new()));
    for ax in session.axiom_terms(&mut ctx.arena) {
        smt.assert_axiom(ax);
    }
    let mut entails = |ctx: &mut pins_symexec::SymCtx,
                       hyps: &[TermId],
                       goal: TermId,
                       filler: &pins_symexec::MapFiller| {
        let hyps: Vec<TermId> = hyps
            .iter()
            .map(|&h| pins_symexec::apply_filler_term(ctx, &program, h, filler))
            .collect();
        let goal = pins_symexec::apply_filler_term(ctx, &program, goal, filler);
        smt.entails(&mut ctx.arena, &hyps, goal)
    };
    // the inverse (a, b, mul(c, a), d + mul(c, b)), its one-hole variations,
    // and a random sample of the other 9^4 candidates
    let mut candidates = vec![vec![0, 1, 4, 6]];
    for h in 0..4 {
        for choice in [2, 5, 8] {
            let mut s = candidates[0].clone();
            s[h] = choice;
            candidates.push(s);
        }
    }
    let mut rng = pins_prng::SplitMix64::new(0x1u64);
    for _ in 0..40 {
        candidates.push((0..4).map(|_| rng.gen_index(9)).collect());
    }
    let mut valid = 0;
    for exprs in candidates {
        let filler = Solution {
            exprs: exprs.clone(),
            preds: vec![],
        }
        .to_filler(&domains);
        let whole = entails(&mut ctx, &c.hyps, c.goal, &filler);
        let sliced = parts
            .iter()
            .all(|p| entails(&mut ctx, &p.hyps, p.goal, &filler));
        assert_eq!(sliced, whole, "candidate {exprs:?}");
        valid += whole as usize;
    }
    assert_eq!(valid, 1, "only the inverse itself is valid");
}
