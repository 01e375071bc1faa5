//! A Dutertre–de Moura style simplex core for linear *integer* arithmetic.
//!
//! All atoms PINS generates compare integer-sorted terms, so strict
//! inequalities are tightened to non-strict ones over the integers before
//! they reach this module (`x < y` becomes `x + 1 <= y`); no
//! delta-rationals are needed. Rational relaxation is solved with the
//! classic bounds-aware simplex; integrality is restored by branch-and-bound
//! with explanation propagation.
//!
//! Every pivot and every branch-and-bound node charges the attached
//! [`Budget`], and all rational arithmetic is checked: a deadline, step
//! limit, cancellation, or overflow surfaces as [`Conflict::Stopped`]
//! rather than a hang or a panic.

use std::collections::HashMap;

use pins_budget::{Budget, StopReason};

use crate::rational::Rat;

/// A reason tag attached to an asserted bound. The SMT layer uses SAT
/// literal codes; branch-and-bound uses private marker tags above
/// [`MARKER_BASE`], which never leak out of [`Lia::check_int`].
pub type Reason = u32;

const MARKER_BASE: Reason = u32::MAX / 2;

/// Why a theory operation failed to make progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conflict {
    /// The asserted bounds are jointly infeasible; the payload is an
    /// explanation over the caller's reason tags.
    Infeasible(Vec<Reason>),
    /// Work was cut short — budget exhaustion, cancellation, or rational
    /// overflow. No verdict; the caller degrades to `Unknown`.
    Stopped(StopReason),
}

impl Conflict {
    /// The infeasibility explanation; panics on `Stopped` (test helper).
    pub fn reasons(self) -> Vec<Reason> {
        match self {
            Conflict::Infeasible(r) => r,
            Conflict::Stopped(s) => panic!("expected infeasibility, got stop: {s}"),
        }
    }
}

const OVERFLOW: Conflict = Conflict::Stopped(StopReason::Overflow);

fn add(a: Rat, b: Rat) -> Result<Rat, Conflict> {
    a.checked_add(b).ok_or(OVERFLOW)
}

fn sub(a: Rat, b: Rat) -> Result<Rat, Conflict> {
    a.checked_sub(b).ok_or(OVERFLOW)
}

fn mul(a: Rat, b: Rat) -> Result<Rat, Conflict> {
    a.checked_mul(b).ok_or(OVERFLOW)
}

fn div(a: Rat, b: Rat) -> Result<Rat, Conflict> {
    a.checked_div(b).ok_or(OVERFLOW)
}

fn gcd_u128(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[derive(Debug, Clone, Copy)]
struct Bound {
    value: Rat,
    reason: Reason,
}

#[derive(Debug, Clone)]
struct Row {
    basic: usize,
    /// `basic = sum coeffs[j] * x_j` over non-basic `j`, sorted by `j`,
    /// with no zero coefficients.
    coeffs: Vec<(usize, Rat)>,
}

impl Row {
    fn coeff(&self, v: usize) -> Option<Rat> {
        self.coeffs
            .binary_search_by_key(&v, |&(u, _)| u)
            .ok()
            .map(|i| self.coeffs[i].1)
    }
}

/// Adds row `i` to a column's ascending row list.
fn col_insert(col: &mut Vec<usize>, i: usize) {
    if let Err(pos) = col.binary_search(&i) {
        col.insert(pos, i);
    }
}

/// Removes row `i` from a column's ascending row list.
fn col_remove(col: &mut Vec<usize>, i: usize) {
    if let Ok(pos) = col.binary_search(&i) {
        col.remove(pos);
    }
}

/// An incremental linear-integer-arithmetic solver.
///
/// Usage: create variables, assert bounds on linear expressions (a slack
/// variable is introduced per distinct expression), then call
/// [`Lia::check_int`]. Bound assertions and checks return [`Conflict`]s:
/// either infeasibility *explanations* (sets of reason tags whose bounds
/// are jointly integer-infeasible) or an early stop.
///
/// The tableau is sparse: each row keeps its non-zero coefficients sorted
/// by variable, and a column index lists, per non-basic variable, the rows
/// that mention it. Bound updates and pivots touch only those rows, and a
/// pivot substitutes into each of them with one sorted merge. Pivot choice
/// (Bland's rule) and the arithmetic are exact and independent of storage
/// order, so the representation changes only the time a check takes.
/// A solver that returned [`Conflict::Stopped`] may be left mid-pivot and
/// must be discarded.
#[derive(Debug, Clone, Default)]
pub struct Lia {
    values: Vec<Rat>,
    lower: Vec<Option<Bound>>,
    upper: Vec<Option<Bound>>,
    rows: Vec<Row>,
    /// var -> row index if basic
    row_of: Vec<Option<usize>>,
    /// var -> ascending indices of the rows whose coefficients mention it
    /// (empty for basic variables)
    cols: Vec<Vec<usize>>,
    /// memo: normalised expression -> slack var
    slack_of: HashMap<Vec<(usize, i64)>, usize>,
    /// every slack with its normalised expression, in creation (and so
    /// ascending variable) order; used for GCD bound tightening
    expr_of_slack: Vec<(usize, Vec<(usize, i64)>)>,
    next_marker: Reason,
    /// Pivots performed, including those of abandoned branch-and-bound
    /// branches.
    pivots: u64,
    /// Work budget charged per pivot and per branch-and-bound node. Clones
    /// (including branch-and-bound's) share the same counters.
    budget: Budget,
    /// Set when branch-and-bound hit its depth budget and answered "sat"
    /// without restoring integrality; the SMT layer reports `Unknown`.
    pub int_incomplete: bool,
}

impl Lia {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Lia {
            next_marker: MARKER_BASE,
            ..Default::default()
        }
    }

    /// Attaches the work budget charged by pivots and branching.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Allocates a fresh integer variable.
    pub fn new_var(&mut self) -> usize {
        let v = self.values.len();
        self.values.push(Rat::ZERO);
        self.lower.push(None);
        self.upper.push(None);
        self.row_of.push(None);
        self.cols.push(Vec::new());
        v
    }

    /// Number of variables (including slacks).
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Current (rational) value of `v`.
    pub fn value(&self, v: usize) -> Rat {
        self.values[v]
    }

    /// Pivots performed so far.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Returns the slack variable standing for the linear expression, creating
    /// its defining row on first use. `expr` maps variables to coefficients;
    /// it must be non-empty and is normalised by sorting.
    pub fn slack_for(&mut self, expr: &[(usize, i64)]) -> Result<usize, Conflict> {
        let mut key: Vec<(usize, i64)> = expr.to_vec();
        key.sort_unstable();
        if let Some(&s) = self.slack_of.get(&key) {
            return Ok(s);
        }
        let s = self.new_var();
        // express the row over non-basic variables only
        let mut terms: Vec<(usize, Rat)> = Vec::new();
        for &(v, c) in &key {
            let c = Rat::from_int(c);
            match self.row_of[v] {
                Some(r) => {
                    for &(u, cu) in &self.rows[r].coeffs {
                        terms.push((u, mul(c, cu)?));
                    }
                }
                None => terms.push((v, c)),
            }
        }
        terms.sort_by_key(|&(u, _)| u);
        let mut coeffs: Vec<(usize, Rat)> = Vec::with_capacity(terms.len());
        for (u, c) in terms {
            match coeffs.last_mut() {
                Some((last, acc)) if *last == u => *acc = add(*acc, c)?,
                _ => coeffs.push((u, c)),
            }
        }
        coeffs.retain(|&(_, c)| !c.is_zero());
        // value of the slack = current value of the expression
        let mut val = Rat::ZERO;
        for &(u, cu) in &coeffs {
            val = add(val, mul(cu, self.values[u])?)?;
        }
        self.values[s] = val;
        let row_idx = self.rows.len();
        for &(u, _) in &coeffs {
            self.cols[u].push(row_idx); // the newest row has the largest index
        }
        self.rows.push(Row { basic: s, coeffs });
        self.row_of[s] = Some(row_idx);
        self.slack_of.insert(key.clone(), s);
        self.expr_of_slack.push((s, key));
        Ok(s)
    }

    /// GCD-based bound tightening: a slack `s = sum c_i * x_i` over integer
    /// variables is always a multiple of `g = gcd(c_i)`, so its bounds can be
    /// rounded inward to multiples of `g`. Detects e.g. `2x - 2y = 1`
    /// directly, which plain branch-and-bound diverges on.
    fn gcd_tighten(&mut self) -> Result<(), Conflict> {
        // tightening can pivot, so its order shapes the final vertex: it
        // runs in ascending slack order
        for k in 0..self.expr_of_slack.len() {
            let s = self.expr_of_slack[k].0;
            let g = self.expr_of_slack[k]
                .1
                .iter()
                .fold(0, |g, &(_, c)| gcd_u128(g, (c as i128).unsigned_abs()));
            if g <= 1 {
                continue;
            }
            let gr = Rat::from_int128(g as i128);
            if let Some(lb) = self.lower[s] {
                // round up to the next multiple of g
                let q = div(lb.value, gr)?.ceil();
                let tight = mul(gr, Rat::from_int128(q))?;
                if tight > lb.value {
                    self.assert_lower(s, tight, lb.reason)?;
                }
            }
            if let Some(ub) = self.upper[s] {
                let q = div(ub.value, gr)?.floor();
                let tight = mul(gr, Rat::from_int128(q))?;
                if tight < ub.value {
                    self.assert_upper(s, tight, ub.reason)?;
                }
            }
        }
        Ok(())
    }

    /// Asserts `v >= c`. On immediate conflict with the existing upper bound,
    /// returns the two reasons.
    pub fn assert_lower(&mut self, v: usize, c: Rat, reason: Reason) -> Result<(), Conflict> {
        if let Some(lb) = self.lower[v] {
            if c <= lb.value {
                return Ok(());
            }
        }
        if let Some(ub) = self.upper[v] {
            if c > ub.value {
                return Err(Conflict::Infeasible(vec![reason, ub.reason]));
            }
        }
        self.lower[v] = Some(Bound { value: c, reason });
        if self.row_of[v].is_none() && self.values[v] < c {
            self.update_nonbasic(v, c)?;
        }
        Ok(())
    }

    /// Asserts `v <= c`.
    pub fn assert_upper(&mut self, v: usize, c: Rat, reason: Reason) -> Result<(), Conflict> {
        if let Some(ub) = self.upper[v] {
            if c >= ub.value {
                return Ok(());
            }
        }
        if let Some(lb) = self.lower[v] {
            if c < lb.value {
                return Err(Conflict::Infeasible(vec![reason, lb.reason]));
            }
        }
        self.upper[v] = Some(Bound { value: c, reason });
        if self.row_of[v].is_none() && self.values[v] > c {
            self.update_nonbasic(v, c)?;
        }
        Ok(())
    }

    /// Adds `coeff(x) * delta` to the basic variable of every row that
    /// mentions `x`, except row `skip`.
    fn shift_basics(&mut self, x: usize, delta: Rat, skip: Option<usize>) -> Result<(), Conflict> {
        for &i in &self.cols[x] {
            if Some(i) == skip {
                continue;
            }
            let row = &self.rows[i];
            let c = row
                .coeff(x)
                .expect("column index lists only rows mentioning the variable");
            self.values[row.basic] = add(self.values[row.basic], mul(c, delta)?)?;
        }
        Ok(())
    }

    fn update_nonbasic(&mut self, v: usize, c: Rat) -> Result<(), Conflict> {
        let delta = sub(c, self.values[v])?;
        self.values[v] = c;
        self.shift_basics(v, delta, None)
    }

    fn violation(&self) -> Option<(usize, bool)> {
        // Bland's rule: smallest violating basic variable; `true` = below lower.
        let mut best: Option<(usize, bool)> = None;
        for row in &self.rows {
            let b = row.basic;
            let val = self.values[b];
            let viol = if self.lower[b].is_some_and(|lb| val < lb.value) {
                Some((b, true))
            } else if self.upper[b].is_some_and(|ub| val > ub.value) {
                Some((b, false))
            } else {
                None
            };
            if let Some(v) = viol {
                if best.is_none_or(|(bv, _)| v.0 < bv) {
                    best = Some(v);
                }
            }
        }
        best
    }

    /// Restores the rational feasibility invariant. On infeasibility, returns
    /// an explanation (set of bound reasons).
    pub fn check(&mut self) -> Result<(), Conflict> {
        loop {
            self.budget.charge(1).map_err(Conflict::Stopped)?;
            let Some((xi, below)) = self.violation() else {
                return Ok(());
            };
            let r = self.row_of[xi].expect("violating var must be basic");
            let target = if below {
                self.lower[xi].unwrap().value
            } else {
                self.upper[xi].unwrap().value
            };
            // find pivot column (Bland: smallest suitable non-basic var;
            // the row is sorted by variable)
            let pivot = self.rows[r].coeffs.iter().find_map(|&(j, a)| {
                let can_rise = self.upper[j].is_none_or(|ub| self.values[j] < ub.value);
                let can_fall = self.lower[j].is_none_or(|lb| self.values[j] > lb.value);
                let suitable = if below {
                    (a > Rat::ZERO && can_rise) || (a < Rat::ZERO && can_fall)
                } else {
                    (a < Rat::ZERO && can_rise) || (a > Rat::ZERO && can_fall)
                };
                suitable.then_some(j)
            });
            match pivot {
                Some(xj) => self.pivot_and_update(r, xi, xj, target)?,
                None => {
                    // infeasible: collect the explanation from the row
                    let mut expl = Vec::new();
                    if below {
                        expl.push(self.lower[xi].unwrap().reason);
                        for &(j, a) in &self.rows[r].coeffs {
                            if a > Rat::ZERO {
                                expl.push(self.upper[j].expect("bound must exist").reason);
                            } else {
                                expl.push(self.lower[j].expect("bound must exist").reason);
                            }
                        }
                    } else {
                        expl.push(self.upper[xi].unwrap().reason);
                        for &(j, a) in &self.rows[r].coeffs {
                            if a > Rat::ZERO {
                                expl.push(self.lower[j].expect("bound must exist").reason);
                            } else {
                                expl.push(self.upper[j].expect("bound must exist").reason);
                            }
                        }
                    }
                    expl.sort_unstable();
                    expl.dedup();
                    return Err(Conflict::Infeasible(expl));
                }
            }
        }
    }

    /// Pivot basic `xi` (row `r`) with non-basic `xj`, setting `xi` to `target`.
    fn pivot_and_update(
        &mut self,
        r: usize,
        xi: usize,
        xj: usize,
        target: Rat,
    ) -> Result<(), Conflict> {
        self.pivots += 1;
        let a_ij = self.rows[r].coeff(xj).expect("pivot column is in the row");
        let theta = div(sub(target, self.values[xi])?, a_ij)?;
        self.values[xi] = target;
        self.values[xj] = add(self.values[xj], theta)?;
        self.shift_basics(xj, theta, Some(r))?;
        // rewrite row r: xi = a_ij * xj + rest  =>  xj = (xi - rest) / a_ij
        let inv = a_ij.checked_recip().ok_or(OVERFLOW)?;
        let old = std::mem::take(&mut self.rows[r].coeffs);
        let mut subst: Vec<(usize, Rat)> = Vec::with_capacity(old.len());
        for &(k, c) in &old {
            if k != xj {
                subst.push((k, div(c, a_ij)?.checked_neg().ok_or(OVERFLOW)?));
            }
        }
        let at = subst.partition_point(|&(k, _)| k < xi);
        subst.insert(at, (xi, inv));
        self.row_of[xi] = None;
        self.row_of[xj] = Some(r);
        self.rows[r].basic = xj;
        col_insert(&mut self.cols[xi], r);
        // substitute xj in every other row that mentions it; afterwards no
        // row does, so its column empties
        let touched = std::mem::take(&mut self.cols[xj]);
        let mut merged: Vec<(usize, Rat)> = Vec::new();
        for i in touched {
            if i == r {
                continue;
            }
            let c = self.rows[i]
                .coeff(xj)
                .expect("column index lists only rows mentioning the variable");
            let row = &mut self.rows[i].coeffs;
            merged.clear();
            let (mut a, mut b) = (0, 0);
            while a < row.len() || b < subst.len() {
                let ka = row.get(a).map_or(usize::MAX, |e| e.0);
                let kb = subst.get(b).map_or(usize::MAX, |e| e.0);
                if ka == xj {
                    a += 1;
                } else if ka < kb {
                    merged.push(row[a]);
                    a += 1;
                } else if kb < ka {
                    // both factors are non-zero, so the new entry is too
                    merged.push((kb, mul(c, subst[b].1)?));
                    col_insert(&mut self.cols[kb], i);
                    b += 1;
                } else {
                    let v = add(row[a].1, mul(c, subst[b].1)?)?;
                    if v.is_zero() {
                        col_remove(&mut self.cols[ka], i);
                    } else {
                        merged.push((ka, v));
                    }
                    a += 1;
                    b += 1;
                }
            }
            // exact growth: a doubled buffer per row would cost memory in
            // every branch-and-bound clone
            row.clear();
            row.reserve_exact(merged.len());
            row.extend_from_slice(&merged);
        }
        self.rows[r].coeffs = subst;
        Ok(())
    }

    /// Checks satisfiability over the *integers* via branch-and-bound.
    ///
    /// On success the internal assignment is integral (unless the depth
    /// budget ran out, flagged by `int_incomplete`). On failure returns an
    /// explanation over the caller's reason tags, or an early stop.
    pub fn check_int(&mut self, max_depth: u32) -> Result<(), Conflict> {
        self.budget.charge(1).map_err(Conflict::Stopped)?;
        self.gcd_tighten()?;
        self.check()?;
        let frac = (0..self.values.len()).find(|&v| !self.values[v].is_integer());
        let Some(x) = frac else {
            return Ok(());
        };
        if max_depth == 0 {
            self.int_incomplete = true;
            return Ok(());
        }
        let val = self.values[x];
        let marker = self.next_marker;
        self.next_marker += 1;

        let mut left = self.clone();
        let left_result = left
            .assert_upper(x, Rat::from_int128(val.floor()), marker)
            .and_then(|()| left.check_int(max_depth - 1));
        self.pivots = left.pivots;
        match left_result {
            Ok(()) => {
                *self = left;
                Ok(())
            }
            Err(Conflict::Stopped(s)) => Err(Conflict::Stopped(s)),
            Err(Conflict::Infeasible(e1)) => {
                if !e1.contains(&marker) {
                    return Err(Conflict::Infeasible(e1)); // independent of the branch
                }
                let mut right = self.clone();
                let right_result = right
                    .assert_lower(x, Rat::from_int128(val.ceil()), marker)
                    .and_then(|()| right.check_int(max_depth - 1));
                self.pivots = right.pivots;
                match right_result {
                    Ok(()) => {
                        *self = right;
                        Ok(())
                    }
                    Err(Conflict::Stopped(s)) => Err(Conflict::Stopped(s)),
                    Err(Conflict::Infeasible(e2)) => {
                        if !e2.contains(&marker) {
                            return Err(Conflict::Infeasible(e2));
                        }
                        let mut expl: Vec<Reason> =
                            e1.into_iter().chain(e2).filter(|&t| t != marker).collect();
                        expl.sort_unstable();
                        expl.dedup();
                        Err(Conflict::Infeasible(expl))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pins_prng::SplitMix64;

    fn r(v: i64) -> Rat {
        Rat::from_int(v)
    }

    impl Lia {
        /// Checks the tableau's structural invariants: rows sorted and
        /// zero-free over non-basic variables, `row_of` and the column index
        /// consistent with the rows, and every basic value equal to its
        /// row's value.
        fn assert_invariants(&self) {
            let mut cols = vec![Vec::new(); self.num_vars()];
            for (i, row) in self.rows.iter().enumerate() {
                assert_eq!(self.row_of[row.basic], Some(i), "row {i}'s basic");
                assert!(
                    row.coeffs.windows(2).all(|w| w[0].0 < w[1].0),
                    "row {i} is not strictly sorted: {:?}",
                    row.coeffs
                );
                let mut val = Rat::ZERO;
                for &(j, c) in &row.coeffs {
                    assert!(!c.is_zero(), "row {i} stores a zero for x{j}");
                    assert!(self.row_of[j].is_none(), "row {i} mentions basic x{j}");
                    cols[j].push(i);
                    val = val + c * self.values[j];
                }
                assert_eq!(self.values[row.basic], val, "row {i}'s basic value");
            }
            assert_eq!(self.cols, cols, "column index does not match the rows");
        }
    }

    /// A random tableau: `n` integer variables, slack rows over them, and
    /// bounds `(variable, is_lower, value)` whose reason tag is their index.
    struct Tableau {
        n: usize,
        exprs: Vec<Vec<(usize, i64)>>,
        specs: Vec<(usize, bool, i64)>,
    }

    impl Tableau {
        /// 6–10 variables, 8–16 slack rows over 2–4 of them with
        /// coefficients in [-3, 3], and random bounds on variables and
        /// slacks.
        fn random(seed: u64) -> Tableau {
            let mut rng = SplitMix64::new(0x51ea_0000 + seed);
            let n = rng.gen_range_inclusive(6..=10) as usize;
            let mut exprs = Vec::new();
            for _ in 0..rng.gen_range_inclusive(8..=16) {
                let mut vars: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut vars);
                let width = rng.gen_range_inclusive(2..=4) as usize;
                let expr: Vec<(usize, i64)> = vars[..width]
                    .iter()
                    .map(|&v| {
                        let c = rng.gen_range_inclusive(1..=3);
                        (v, if rng.gen_bool(0.5) { c } else { -c })
                    })
                    .collect();
                exprs.push(expr);
            }
            let mut t = Tableau {
                n,
                exprs,
                specs: Vec::new(),
            };
            // the slacks follow the n variables, one per distinct expression
            for v in 0..t.build().num_vars() {
                let (span, p) = if v < n { (6, 0.6) } else { (12, 0.35) };
                let lo = rng.gen_range_inclusive(-span..=span);
                if rng.gen_bool(p) {
                    t.specs.push((v, true, lo));
                }
                if rng.gen_bool(p) {
                    t.specs
                        .push((v, false, lo + rng.gen_range_inclusive(0..=span)));
                }
            }
            rng.shuffle(&mut t.specs);
            t
        }

        /// A fresh solver holding the variables and slack rows.
        fn build(&self) -> Lia {
            let mut lia = Lia::new();
            for _ in 0..self.n {
                lia.new_var();
            }
            for e in &self.exprs {
                lia.slack_for(e).unwrap();
            }
            lia
        }

        /// Asserts the bounds whose tag `keep` accepts on a fresh solver,
        /// stopping at the first conflict, then runs branch-and-bound.
        fn solve(&self, keep: impl Fn(Reason) -> bool) -> (Lia, Result<(), Conflict>) {
            let mut lia = self.build();
            for (tag, &(v, lower, c)) in self.specs.iter().enumerate() {
                let tag = tag as Reason;
                if !keep(tag) {
                    continue;
                }
                let res = if lower {
                    lia.assert_lower(v, r(c), tag)
                } else {
                    lia.assert_upper(v, r(c), tag)
                };
                lia.assert_invariants();
                if res.is_err() {
                    return (lia, res);
                }
            }
            let res = lia.check_int(40);
            (lia, res)
        }
    }

    #[test]
    fn random_tableaux_give_valid_models_and_explanations() {
        let (mut sat, mut unsat) = (0, 0);
        for seed in 0..crate::tests::cases(300, 3000) as u64 {
            let t = Tableau::random(seed);
            let (lia, res) = t.solve(|_| true);
            lia.assert_invariants();
            match res {
                Ok(()) => {
                    sat += 1;
                    for &(v, lower, c) in &t.specs {
                        let val = lia.value(v);
                        assert!(
                            if lower { val >= r(c) } else { val <= r(c) },
                            "seed {seed}: x{v} = {val} breaks {}{c}",
                            if lower { ">=" } else { "<=" }
                        );
                    }
                    for (s, expr) in &lia.expr_of_slack {
                        let sum = expr
                            .iter()
                            .fold(Rat::ZERO, |acc, &(v, c)| acc + r(c) * lia.value(v));
                        assert_eq!(lia.value(*s), sum, "seed {seed}: slack x{s}");
                    }
                    if !lia.int_incomplete {
                        assert!((0..lia.num_vars()).all(|v| lia.value(v).is_integer()));
                    }
                }
                Err(Conflict::Infeasible(expl)) => {
                    unsat += 1;
                    assert!(expl.iter().all(|&tag| (tag as usize) < t.specs.len()));
                    let (_, res) = t.solve(|tag| expl.contains(&tag));
                    assert!(
                        matches!(res, Err(Conflict::Infeasible(_))),
                        "seed {seed}: explanation {expl:?} alone gave {res:?}"
                    );
                }
                Err(Conflict::Stopped(s)) => panic!("seed {seed}: unexpected stop {s}"),
            }
        }
        assert!(sat > 0 && unsat > 0, "{sat} feasible, {unsat} infeasible");
    }

    #[test]
    fn random_tableaux_pivot_exactly_as_recorded() {
        // pivot counts and final assignments recorded from the hash-map
        // tableau this one replaced; the sparse rows must not move them
        let recorded: [(u64, u64, &str); 3] = [
            (1, 23, "3 -9 3 0 -2 -1 -1 -19 2 -6 -8 6 -33 -4 0 4"),
            (
                7,
                13,
                "3 1 3 0 6 -6 -5 2 2 -18 -2 -12 5 12 -11 3 -3 15 -23 -8 6 7 -10 -4",
            ),
            (38, 16, "2 0 6 -2 -4 3 5 0 4 -4 2 7 1 3 -4 14 -9"),
        ];
        for (seed, pivots, assignment) in recorded {
            let (lia, res) = Tableau::random(seed).solve(|_| true);
            assert!(res.is_ok(), "seed {seed}: {res:?}");
            let got: Vec<String> = (0..lia.num_vars())
                .map(|v| lia.value(v).to_string())
                .collect();
            assert_eq!(
                (lia.pivots(), got.join(" ").as_str()),
                (pivots, assignment),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn feasible_box() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        lia.assert_lower(x, r(1), 0).unwrap();
        lia.assert_upper(x, r(5), 1).unwrap();
        lia.assert_lower(y, r(2), 2).unwrap();
        lia.assert_upper(y, r(3), 3).unwrap();
        assert!(lia.check_int(20).is_ok());
        assert!(lia.value(x) >= r(1) && lia.value(x) <= r(5));
        assert!(lia.value(y) >= r(2) && lia.value(y) <= r(3));
    }

    #[test]
    fn direct_bound_clash() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        lia.assert_lower(x, r(5), 7).unwrap();
        let e = lia.assert_upper(x, r(4), 9).unwrap_err().reasons();
        assert!(e.contains(&7) && e.contains(&9));
    }

    #[test]
    fn sum_constraint_infeasible() {
        // x + y >= 10, x <= 3, y <= 3
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 1), (y, 1)]).unwrap();
        lia.assert_lower(s, r(10), 0).unwrap();
        lia.assert_upper(x, r(3), 1).unwrap();
        lia.assert_upper(y, r(3), 2).unwrap();
        let e = lia.check_int(20).unwrap_err().reasons();
        assert_eq!(e, vec![0, 1, 2]);
    }

    #[test]
    fn sum_constraint_feasible_model() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 1), (y, 1)]).unwrap();
        lia.assert_lower(s, r(10), 0).unwrap();
        lia.assert_upper(x, r(7), 1).unwrap();
        lia.assert_upper(y, r(7), 2).unwrap();
        assert!(lia.check_int(20).is_ok());
        let (vx, vy) = (lia.value(x), lia.value(y));
        assert!(vx + vy >= r(10));
        assert!(vx <= r(7) && vy <= r(7));
        assert!(vx.is_integer() && vy.is_integer());
    }

    #[test]
    fn integrality_requires_branching() {
        // 2x = 1 has a rational solution but no integer one.
        let mut lia = Lia::new();
        let x = lia.new_var();
        let s = lia.slack_for(&[(x, 2)]).unwrap();
        lia.assert_lower(s, r(1), 0).unwrap();
        lia.assert_upper(s, r(1), 1).unwrap();
        let e = lia.check_int(20).unwrap_err().reasons();
        assert!(!e.is_empty());
        assert!(
            e.iter().all(|&t| t < MARKER_BASE),
            "markers must not leak: {e:?}"
        );
    }

    #[test]
    fn integral_branching_succeeds() {
        // 2x + 3y = 7 with 0 <= x,y <= 5 has integer solutions (2,1).
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s = lia.slack_for(&[(x, 2), (y, 3)]).unwrap();
        lia.assert_lower(s, r(7), 0).unwrap();
        lia.assert_upper(s, r(7), 1).unwrap();
        for (v, lo_r, hi_r) in [(x, 2, 3), (y, 4, 5)] {
            lia.assert_lower(v, r(0), lo_r).unwrap();
            lia.assert_upper(v, r(5), hi_r).unwrap();
        }
        assert!(lia.check_int(30).is_ok());
        let (vx, vy) = (
            lia.value(x).to_i64().unwrap(),
            lia.value(y).to_i64().unwrap(),
        );
        assert_eq!(2 * vx + 3 * vy, 7);
    }

    #[test]
    fn slack_reuse() {
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let s1 = lia.slack_for(&[(x, 1), (y, -1)]).unwrap();
        let s2 = lia.slack_for(&[(y, -1), (x, 1)]).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn equality_chain() {
        // x = y, y = z, x >= 3, z <= 2 -> infeasible
        let mut lia = Lia::new();
        let x = lia.new_var();
        let y = lia.new_var();
        let z = lia.new_var();
        let xy = lia.slack_for(&[(x, 1), (y, -1)]).unwrap();
        let yz = lia.slack_for(&[(y, 1), (z, -1)]).unwrap();
        lia.assert_lower(xy, r(0), 0).unwrap();
        lia.assert_upper(xy, r(0), 1).unwrap();
        lia.assert_lower(yz, r(0), 2).unwrap();
        lia.assert_upper(yz, r(0), 3).unwrap();
        lia.assert_lower(x, r(3), 4).unwrap();
        lia.assert_upper(z, r(2), 5).unwrap();
        assert!(lia.check_int(20).is_err());
    }

    #[test]
    fn step_limit_stops_branching() {
        let mut lia = Lia::new();
        lia.set_budget(Budget::with_limits(None, Some(1)));
        let x = lia.new_var();
        let s = lia.slack_for(&[(x, 2)]).unwrap();
        lia.assert_lower(s, r(1), 0).unwrap();
        lia.assert_upper(s, r(1), 1).unwrap();
        match lia.check_int(20) {
            Err(Conflict::Stopped(StopReason::StepLimit)) => {}
            other => panic!("expected step-limit stop, got {other:?}"),
        }
    }

    #[test]
    fn overflow_degrades_to_stop() {
        // chain x1 = K*x0, x2 = K*x1, ... with K = 2^62 and x0 >= 3 forces
        // values past i128 range during bound propagation
        let mut lia = Lia::new();
        let k = 1i64 << 62;
        let mut prev = lia.new_var();
        lia.assert_lower(prev, r(3), 0).unwrap();
        let mut tag = 1;
        let mut stopped = false;
        for _ in 0..4 {
            let next = lia.new_var();
            let s = match lia.slack_for(&[(next, 1), (prev, -k)]) {
                Ok(s) => s,
                Err(Conflict::Stopped(StopReason::Overflow)) => {
                    stopped = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            };
            let res = lia
                .assert_lower(s, r(0), tag)
                .and_then(|()| lia.assert_upper(s, r(0), tag + 1))
                .and_then(|()| lia.check_int(10));
            match res {
                Ok(()) => {}
                Err(Conflict::Stopped(StopReason::Overflow)) => {
                    stopped = true;
                    break;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
            tag += 2;
            prev = next;
        }
        assert!(stopped, "expected an overflow stop, not a panic");
    }
}
