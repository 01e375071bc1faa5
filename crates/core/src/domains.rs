//! Finite hole domains built from the candidate sets Δe and Δp.
//!
//! * each expression hole ranges over the type-compatible subset of Δe;
//! * each predicate hole ranges over conjunctions of up to
//!   `pred_subset_max` predicates from Δp (the paper allows arbitrary
//!   subsets — we enumerate bounded subsets, which covers every solution
//!   the paper reports while keeping the indicator encoding small; the
//!   paper-comparable full-subset search-space size is still reported);
//! * each template loop gets a synthetic *ranking* expression hole over Δr
//!   (derived from the inequalities of Δp, §2.3) and a synthetic
//!   *invariant* predicate hole over the same bounded subsets of Δp.

use pins_ir::{CmpOp, EHoleId, Expr, LoopId, PHoleId, Pred, Program, Stmt, Type, VarId};

use crate::session::Session;

/// The finite domain of every unknown, template and synthetic alike.
#[derive(Debug, Clone, Default)]
pub struct HoleDomains {
    /// Per expression hole: candidate expressions.
    pub exprs: Vec<Vec<Expr>>,
    /// Per predicate hole: candidate predicates (bounded conjunctions).
    pub preds: Vec<Vec<Pred>>,
    /// Synthetic ranking hole per template loop: `(loop, hole)`.
    pub rank_holes: Vec<(LoopId, EHoleId)>,
    /// Synthetic invariant hole per template loop: `(loop, hole)`.
    pub inv_holes: Vec<(LoopId, PHoleId)>,
    /// log2 of the paper-comparable search-space size (expression choices
    /// times `2^|Δp|` per predicate hole).
    pub paper_search_space_log2: f64,
    /// log2 of the actual encoded search space.
    pub encoded_search_space_log2: f64,
}

/// Domain-construction options.
#[derive(Debug, Clone, Copy)]
pub struct DomainConfig {
    /// Maximum number of Δp atoms conjoined per predicate-hole candidate.
    pub pred_subset_max: usize,
}

impl Default for DomainConfig {
    fn default() -> Self {
        DomainConfig { pred_subset_max: 1 }
    }
}

/// Infers the type of a candidate expression over `program`'s variables.
pub fn type_of_expr(program: &Program, e: &Expr) -> Type {
    match e {
        Expr::Int(_) | Expr::Add(..) | Expr::Sub(..) | Expr::Mul(..) | Expr::Sel(..) => Type::Int,
        Expr::Var(v) => program.var(*v).ty.clone(),
        Expr::Upd(..) => Type::IntArray,
        Expr::Call(f, _) => program
            .extern_by_name(f)
            .map(|d| d.ret.clone())
            .unwrap_or(Type::Int),
        Expr::Hole(_) => Type::Int,
    }
}

/// The expected type of each expression hole, inferred from assignment
/// targets in the program body.
pub fn ehole_types(program: &Program) -> Vec<Type> {
    let mut types = vec![Type::Int; program.num_eholes as usize];
    fn scan(program: &Program, stmts: &[Stmt], types: &mut Vec<Type>) {
        for s in stmts {
            match s {
                Stmt::Assign(pairs) => {
                    for (v, e) in pairs {
                        if let Expr::Hole(h) = e {
                            types[h.0 as usize] = program.var(*v).ty.clone();
                        }
                    }
                }
                Stmt::If(_, t, e) => {
                    scan(program, t, types);
                    scan(program, e, types);
                }
                Stmt::While(_, _, b) => scan(program, b, types),
                _ => {}
            }
        }
    }
    scan(program, &program.body, &mut types);
    types
}

/// Derives the ranking-candidate set Δr from the inequalities of Δp
/// (paper §2.3: each inequality is converted to an `e >= 0` form).
pub fn derive_rank_candidates(preds: &[Pred]) -> Vec<Expr> {
    let mut out: Vec<Expr> = Vec::new();
    for p in preds {
        let Pred::Cmp(op, a, b) = p else { continue };
        let e = match op {
            // a < b  ->  b - a - 1 >= 0
            CmpOp::Lt => Expr::Sub(
                Box::new(Expr::Sub(Box::new(b.clone()), Box::new(a.clone()))),
                Box::new(Expr::Int(1)),
            ),
            // a <= b  ->  b - a >= 0
            CmpOp::Le => Expr::Sub(Box::new(b.clone()), Box::new(a.clone())),
            // a > b  ->  a - b - 1 >= 0
            CmpOp::Gt => Expr::Sub(
                Box::new(Expr::Sub(Box::new(a.clone()), Box::new(b.clone()))),
                Box::new(Expr::Int(1)),
            ),
            // a >= b  ->  a - b >= 0
            CmpOp::Ge => Expr::Sub(Box::new(a.clone()), Box::new(b.clone())),
            CmpOp::Eq | CmpOp::Ne => continue,
        };
        if !out.contains(&e) {
            out.push(e);
        }
    }
    out
}

/// Builds bounded-conjunction predicate candidates from Δp.
pub fn pred_subset_candidates(preds: &[Pred], max_size: usize, include_true: bool) -> Vec<Pred> {
    let mut out = Vec::new();
    if include_true {
        out.push(Pred::Bool(true));
    }
    // singletons
    out.extend(preds.iter().cloned());
    if max_size >= 2 {
        for i in 0..preds.len() {
            for j in (i + 1)..preds.len() {
                out.push(Pred::And(vec![preds[i].clone(), preds[j].clone()]));
            }
        }
    }
    out
}

/// Builds the complete domain table for a session.
pub fn build_domains(session: &Session, config: DomainConfig) -> HoleDomains {
    let program = &session.composed;
    let mut domains = HoleDomains::default();

    // template expression holes, filtered by type
    let types = ehole_types(program);
    for ty in &types {
        let dom: Vec<Expr> = session
            .expr_candidates
            .iter()
            .filter(|e| &type_of_expr(program, e) == ty)
            .cloned()
            .collect();
        domains.exprs.push(dom);
    }

    // template predicate holes: bounded conjunctions, without `true`
    // (a trivially-true loop guard yields divergent programs; the paper's
    // termination constraints would reject it anyway, this just prunes)
    let guard_cands =
        pred_subset_candidates(&session.pred_candidates, config.pred_subset_max, false);
    for _ in 0..program.num_pholes {
        domains.preds.push(guard_cands.clone());
    }

    // synthetic holes for template loops
    let rank_cands = derive_rank_candidates(&session.pred_candidates);
    // invariant holes include `true` (the empty conjunction)
    let inv_cands = pred_subset_candidates(&session.pred_candidates, config.pred_subset_max, true);
    let mut next_e = program.num_eholes;
    let mut next_p = program.num_pholes;
    #[allow(clippy::explicit_counter_loop)] // next_e/next_p allocate fresh hole ids
    for &(loop_id, _) in &session.template_loops {
        let eh = EHoleId(next_e);
        next_e += 1;
        domains.exprs.push(rank_cands.clone());
        domains.rank_holes.push((loop_id, eh));
        let ph = PHoleId(next_p);
        next_p += 1;
        domains.preds.push(inv_cands.clone());
        domains.inv_holes.push((loop_id, ph));
    }

    // search-space accounting
    let mut paper = 0.0_f64;
    let mut encoded = 0.0_f64;
    for (h, dom) in domains.exprs.iter().enumerate() {
        let n = dom.len().max(1) as f64;
        encoded += n.log2();
        // synthetic rank holes are not part of the paper's reported space
        if (h as u32) < program.num_eholes {
            paper += n.log2();
        }
    }
    let full_subset_bits = session.pred_candidates.len() as f64;
    for h in 0..domains.preds.len() {
        encoded += (domains.preds[h].len().max(1) as f64).log2();
        if (h as u32) < program.num_pholes {
            paper += full_subset_bits;
        }
    }
    domains.paper_search_space_log2 = paper;
    domains.encoded_search_space_log2 = encoded;
    domains
}

/// A variable-usage helper: all variables mentioned by an expression.
pub fn expr_vars(e: &Expr, out: &mut Vec<VarId>) {
    match e {
        Expr::Int(_) | Expr::Hole(_) => {}
        Expr::Var(v) => {
            if !out.contains(v) {
                out.push(*v);
            }
        }
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Sel(a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
        Expr::Upd(a, b, c) => {
            expr_vars(a, out);
            expr_vars(b, out);
            expr_vars(c, out);
        }
        Expr::Call(_, args) => {
            for a in args {
                expr_vars(a, out);
            }
        }
    }
}
