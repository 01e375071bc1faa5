//! A persistent, incremental solver session with a process-wide query cache.
//!
//! PINS's inner loop (§2.3 of the paper) issues thousands of SMT validity
//! queries per synthesis run, and the vast majority are repeats: the same
//! path condition re-checked under a slightly different candidate, the same
//! infeasibility probe issued by `pickOne` across iterations, the same axiom
//! set asserted before every query. The historical free-function entry
//! points (`check_formulas`, `is_unsat`, `is_valid`, removed in 0.2) rebuilt
//! everything from scratch each call.
//!
//! [`SmtSession`] replaces them. A session holds
//!
//! * a persistent **assertion set** with [`push`](SmtSession::push) /
//!   [`pop`](SmtSession::pop) scopes and a separate **axiom set** (quantified
//!   library facts that get trigger-instantiated rather than asserted),
//! * **assumption-based checks** ([`check_under`](SmtSession::check_under),
//!   [`verdict_under`](SmtSession::verdict_under)): extra conjuncts for one
//!   query only, without disturbing the persistent scope, and
//! * a shared, process-wide **normalized-query cache** mapping a structural
//!   fingerprint of (config, axioms, assertions ∪ assumptions) to the
//!   verdict, with hit/miss counters.
//!
//! # Normalization and soundness
//!
//! Cache keys are 128-bit structural fingerprints over the term DAG that
//! hash symbol *names* (not arena-local ids), SSA versions, and sorts, with
//! the assertion multiset sorted and deduplicated. Two queries that denote
//! the same conjunction therefore share a key even when issued from
//! different [`TermArena`]s or in a different assertion order. Only the
//! *verdict* is cached — never a model, since model term-ids are only
//! meaningful in the arena that produced them. When a caller needs a model
//! for a formula whose verdict is already cached as satisfiable, the session
//! re-solves ([`SessionStats::sat_resolves`]); verdict-only callers
//! (feasibility probes, validity checks) short-circuit entirely.
//!
//! `Unsat` verdicts from the underlying solver are always sound, and
//! `Sat`/`Unknown` ones record their completeness, so replaying a cached
//! verdict is exactly as trustworthy as re-running the solver with the same
//! (fingerprinted) configuration.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use pins_budget::{Budget, StopReason};
use pins_logic::{Sort, SymbolTable, Term, TermArena, TermId};
use pins_trace::{Counter, Histogram, MetricsRegistry, Phase, ProvenanceCtx, PHASES};

use crate::solver::{Smt, SmtConfig, SmtResult, TrackedCore};

// ---------------------------------------------------------------------------
// fingerprints
// ---------------------------------------------------------------------------

/// splitmix64's finalizer: a bijective 64-bit mix.
fn fmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines two 128-bit values non-commutatively.
fn mix(acc: u128, v: u128) -> u128 {
    let lo = fmix((acc as u64).wrapping_add(fmix(v as u64)));
    let hi = fmix(
        ((acc >> 64) as u64)
            .rotate_left(17)
            .wrapping_add(fmix((v >> 64) as u64))
            .wrapping_add(0x9E37_79B9_7F4A_7C15),
    );
    ((hi as u128) << 64) | lo as u128
}

fn mix_u64(acc: u128, v: u64) -> u128 {
    mix(acc, v as u128)
}

fn mix_str(acc: u128, s: &str) -> u128 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the bytes
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(acc, ((s.len() as u128) << 64) | h as u128)
}

fn mix_sort(acc: u128, sort: &Sort, syms: &SymbolTable) -> u128 {
    match sort {
        Sort::Bool => mix_u64(acc, 0x0b01),
        Sort::Int => mix_u64(acc, 0x1217),
        Sort::IntArray => mix_u64(acc, 0xa55a),
        Sort::Unint(s) => mix_str(mix_u64(acc, 0x0111), syms.name(*s)),
    }
}

/// Arbitrary distinct seed (pi's hex digits), so an empty combination is not 0.
const FP_SEED: u128 = 0x243F_6A88_85A3_08D3_1319_8A2E_0370_7344;

fn node_tag(tag: u64) -> u128 {
    mix_u64(FP_SEED, tag)
}

/// Fingerprint of the node at `id`, assuming every child is already in `memo`.
fn fp_node(arena: &TermArena, id: TermId, memo: &HashMap<TermId, u128>) -> u128 {
    let syms = arena.symbols();
    match arena.term(id) {
        Term::IntConst(v) => mix_u64(node_tag(1), *v as u64),
        Term::BoolConst(b) => mix_u64(node_tag(2), *b as u64),
        Term::Var { sym, version, sort } => {
            let h = mix_str(node_tag(3), syms.name(*sym));
            let h = mix_u64(h, *version as u64);
            mix_sort(h, sort, syms)
        }
        Term::Add(a, b) => mix(mix(node_tag(4), memo[a]), memo[b]),
        Term::Sub(a, b) => mix(mix(node_tag(5), memo[a]), memo[b]),
        Term::Mul(a, b) => mix(mix(node_tag(6), memo[a]), memo[b]),
        Term::Sel(a, b) => mix(mix(node_tag(7), memo[a]), memo[b]),
        Term::Upd(a, b, c) => mix(mix(mix(node_tag(8), memo[a]), memo[b]), memo[c]),
        Term::App(f, args) => {
            let mut h = mix_str(node_tag(9), syms.name(*f));
            for a in args {
                h = mix(h, memo[a]);
            }
            mix_u64(h, args.len() as u64)
        }
        Term::Eq(a, b) => mix(mix(node_tag(10), memo[a]), memo[b]),
        Term::Le(a, b) => mix(mix(node_tag(11), memo[a]), memo[b]),
        Term::Lt(a, b) => mix(mix(node_tag(12), memo[a]), memo[b]),
        Term::Not(a) => mix(node_tag(13), memo[a]),
        Term::And(kids) => {
            let mut h = node_tag(14);
            for k in kids {
                h = mix(h, memo[k]);
            }
            mix_u64(h, kids.len() as u64)
        }
        Term::Or(kids) => {
            let mut h = node_tag(15);
            for k in kids {
                h = mix(h, memo[k]);
            }
            mix_u64(h, kids.len() as u64)
        }
        Term::Ite(c, t, e) => mix(mix(mix(node_tag(16), memo[c]), memo[t]), memo[e]),
        Term::Forall(vars, body) => {
            let mut h = node_tag(17);
            for (sym, sort) in vars {
                h = mix_sort(mix_str(h, syms.name(*sym)), sort, syms);
            }
            mix(h, memo[body])
        }
        Term::Hole(occ, sort) => mix_sort(mix_u64(node_tag(18), *occ as u64), sort, syms),
    }
}

/// Structural fingerprint of `root`, memoized over the DAG. Iterative
/// post-order so deeply nested path conditions cannot overflow the stack.
fn fingerprint(arena: &TermArena, root: TermId, memo: &mut HashMap<TermId, u128>) -> u128 {
    if let Some(&h) = memo.get(&root) {
        return h;
    }
    let mut stack = vec![root];
    while let Some(&id) = stack.last() {
        if memo.contains_key(&id) {
            stack.pop();
            continue;
        }
        let mut ready = true;
        for k in arena.children(id) {
            if !memo.contains_key(&k) {
                stack.push(k);
                ready = false;
            }
        }
        if ready {
            let h = fp_node(arena, id, memo);
            memo.insert(id, h);
            stack.pop();
        }
    }
    memo[&root]
}

// ---------------------------------------------------------------------------
// verdicts and the cache
// ---------------------------------------------------------------------------

/// The model-free outcome of a query: what the cache stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The conjunction is provably unsatisfiable (always sound).
    Unsat,
    /// A satisfying assignment was found; `complete` records whether the
    /// solver ran within all budgets (see [`crate::Model::complete`]).
    Sat {
        /// Whether the answer is exact rather than budget-limited.
        complete: bool,
    },
    /// The solver gave up within its budgets; `reason` records which budget
    /// tripped (deadline, cancellation, step limit, or arithmetic overflow).
    Unknown {
        /// Why the solver stopped short of a definitive verdict.
        reason: StopReason,
    },
}

impl Verdict {
    /// The verdict of a full solver result, dropping the model.
    pub fn of(result: &SmtResult) -> Verdict {
        match result {
            SmtResult::Unsat => Verdict::Unsat,
            SmtResult::Sat(m) => Verdict::Sat {
                complete: m.complete,
            },
            SmtResult::Unknown(reason) => Verdict::Unknown { reason: *reason },
        }
    }

    /// Whether the verdict is `Unsat`.
    pub fn is_unsat(self) -> bool {
        matches!(self, Verdict::Unsat)
    }

    /// Whether the verdict is `Sat` (complete or not).
    pub fn is_sat(self) -> bool {
        matches!(self, Verdict::Sat { .. })
    }

    /// Whether the verdict pins down an answer: `Unsat` (always sound) or a
    /// complete `Sat`. Budget-degraded results (`Unknown`, incomplete
    /// `Sat`) are not definitive.
    pub fn is_definitive(self) -> bool {
        matches!(self, Verdict::Unsat | Verdict::Sat { complete: true })
    }

    /// Whether two verdicts for the *same query* are mutually consistent.
    /// Non-definitive results are compatible with anything; two definitive
    /// results must agree on sat-vs-unsat. Differential harnesses
    /// (`pins-fuzz`) flag exactly the pairs for which this is `false` —
    /// any such pair witnesses a soundness bug in at least one of the runs.
    pub fn agrees_with(self, other: Verdict) -> bool {
        !(self.is_definitive() && other.is_definitive() && self.is_unsat() != other.is_unsat())
    }
}

/// Why a normalized-query cache miss happened — the pins-xray miss
/// taxonomy. Every miss is exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissCause {
    /// No structurally equal query was ever solved through this cache.
    FirstSeen,
    /// The same assertion set was solved before under a *different*
    /// configuration fingerprint, and every verdict it reached there was
    /// definitive or sat — the miss is pure config churn.
    ConfigMismatch,
    /// The same assertion set was solved before under a different config
    /// and was budget-limited (`Unknown`) at least once: the miss belongs
    /// to a budget-escalation ladder (sessions retrying at doubled budgets).
    BudgetRetry,
    /// No structural match, but some cached query differs from this one by
    /// at most [`NEAR_MISS_DELTA`] assertions — the key smell that warm
    /// starting (ROADMAP item 1) would pay off.
    NearMiss,
}

impl MissCause {
    /// Stable tag used in trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            MissCause::FirstSeen => "first_seen",
            MissCause::ConfigMismatch => "config_mismatch",
            MissCause::BudgetRetry => "budget_retry",
            MissCause::NearMiss => "near_miss",
        }
    }
}

/// Maximum assertion-set delta (|added| + |removed|) for a miss to count as
/// a structural near-miss.
pub const NEAR_MISS_DELTA: usize = 4;

/// Bound on how many structural keys the per-assertion inverted index keeps
/// per fingerprint; beyond it an assertion is too common to vote usefully.
const INVERTED_CAP: usize = 8;

/// The unsat core stored alongside a cached `Unsat` verdict: the member
/// formulas' structural fingerprints (a subset of the query's normalized
/// assertion set, so any session that hits the entry can resolve them back
/// to its own assert indices).
#[derive(Debug, Clone)]
pub struct CachedCore {
    /// Sorted structural fingerprints of the core members.
    pub fps: Vec<u128>,
    /// Whether the core came from conflict analysis rather than the
    /// all-asserts fallback over-approximation.
    pub exact: bool,
}

/// What the cache stores per normalized key.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The model-free verdict.
    pub verdict: Verdict,
    /// For `Unsat` verdicts produced with core tracking on: the core.
    pub core: Option<Arc<CachedCore>>,
}

/// What one structural query looked like when it was last solved; the
/// forensics side-index is keyed by config-independent structural keys.
#[derive(Debug, Default)]
struct StructuralSeen {
    /// Whether any config reached only a budget-limited verdict here.
    any_unknown: bool,
    /// Normalized assertion count (for near-miss delta computation).
    atoms: u32,
}

#[derive(Debug, Default)]
struct ForensicsIndex {
    /// Structural key (config-independent) → what was seen there.
    structural: HashMap<u128, StructuralSeen>,
    /// Assertion fingerprint → structural keys containing it (each list
    /// capped at [`INVERTED_CAP`]): the near-miss voting index.
    inverted: HashMap<u128, Vec<u128>>,
}

/// A process-wide map from normalized query fingerprints to verdicts,
/// shared by every session that opts in (all of them by default).
///
/// The map is guarded by a [`Mutex`] — queries take microseconds to
/// milliseconds, so contention on the lock is negligible next to solving —
/// and the counters are lock-free atomics so hot paths can report stats
/// without taking the lock. A second mutex guards the miss-forensics
/// side-index (structural keys and the near-miss inverted index), touched
/// only on the miss path.
#[derive(Debug, Default)]
pub struct QueryCache {
    map: Mutex<HashMap<u128, CacheEntry>>,
    forensics: Mutex<ForensicsIndex>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl QueryCache {
    /// An empty cache.
    pub fn new() -> QueryCache {
        QueryCache::default()
    }

    /// Looks up a fingerprint, bumping the hit or miss counter. The entry
    /// carries the verdict plus, for tracked `Unsat` results, its core.
    pub fn lookup(&self, key: u128) -> Option<CacheEntry> {
        let got = self.map.lock().unwrap().get(&key).cloned();
        match got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Records a verdict for a fingerprint (no core).
    pub fn insert(&self, key: u128, verdict: Verdict) {
        self.insert_entry(key, verdict, None);
    }

    /// Records a verdict and (for `Unsat` with tracking) its core.
    pub fn insert_entry(&self, key: u128, verdict: Verdict, core: Option<Arc<CachedCore>>) {
        self.map
            .lock()
            .unwrap()
            .insert(key, CacheEntry { verdict, core });
    }

    /// Classifies why `structural_key` (with normalized assertion
    /// fingerprints `sorted_fps`) missed the cache. Returns the cause and,
    /// for near-misses, the assertion-set delta to the closest cached query.
    pub fn classify_miss(&self, structural_key: u128, sorted_fps: &[u128]) -> (MissCause, u64) {
        let f = self.forensics.lock().unwrap();
        if let Some(seen) = f.structural.get(&structural_key) {
            return if seen.any_unknown {
                (MissCause::BudgetRetry, 0)
            } else {
                (MissCause::ConfigMismatch, 0)
            };
        }
        // near-miss vote: count shared assertions per candidate structural
        // key through the inverted index, then take the smallest delta
        let mut shared: HashMap<u128, usize> = HashMap::new();
        for fp in sorted_fps {
            if let Some(keys) = f.inverted.get(fp) {
                for &k in keys {
                    *shared.entry(k).or_insert(0) += 1;
                }
            }
        }
        let n = sorted_fps.len();
        let mut best: Option<usize> = None;
        for (k, s) in &shared {
            let atoms = f.structural.get(k).map_or(0, |i| i.atoms as usize);
            let delta = atoms.saturating_sub(*s) + n.saturating_sub(*s);
            if best.is_none_or(|b| delta < b) {
                best = Some(delta);
            }
        }
        match best {
            Some(delta) if delta <= NEAR_MISS_DELTA => (MissCause::NearMiss, delta as u64),
            _ => (MissCause::FirstSeen, 0),
        }
    }

    /// Records a solved query into the forensics side-index so later misses
    /// can be classified against it.
    pub fn note_solved(&self, structural_key: u128, sorted_fps: &[u128], verdict: Verdict) {
        let mut f = self.forensics.lock().unwrap();
        let is_new = !f.structural.contains_key(&structural_key);
        if is_new {
            f.structural.insert(
                structural_key,
                StructuralSeen {
                    any_unknown: false,
                    atoms: sorted_fps.len() as u32,
                },
            );
            for fp in sorted_fps {
                let keys = f.inverted.entry(*fp).or_default();
                if keys.len() < INVERTED_CAP && !keys.contains(&structural_key) {
                    keys.push(structural_key);
                }
            }
        }
        if matches!(verdict, Verdict::Unknown { .. }) {
            if let Some(seen) = f.structural.get_mut(&structural_key) {
                seen.any_unknown = true;
            }
        }
    }

    /// Cache hits since creation (or the last [`reset_counters`](Self::reset_counters)).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses since creation (or the last [`reset_counters`](Self::reset_counters)).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cached queries.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries and the miss-forensics index built from them, so a
    /// later miss is classified as if the cache were new (counters are
    /// kept).
    pub fn clear(&self) {
        self.map.lock().unwrap().clear();
        *self.forensics.lock().unwrap() = ForensicsIndex::default();
    }

    /// Zeroes the hit/miss counters (entries are kept). Benchmarks use this
    /// to attribute traffic to a single run of the process-wide cache.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// The process-wide cache used by [`SmtSession::new`] and the deprecated
/// free-function shims.
pub fn global_cache() -> &'static Arc<QueryCache> {
    static CACHE: OnceLock<Arc<QueryCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(QueryCache::new()))
}

// ---------------------------------------------------------------------------
// unsat cores at the session level
// ---------------------------------------------------------------------------

/// Which session-level formula an unsat-core member refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreSlot {
    /// Index into [`SmtSession::assertions`] at query time.
    Assertion(usize),
    /// Index into the assumption slice the query was issued with.
    Assumption(usize),
}

/// One member of an unsat core: a position in the query plus the structural
/// fingerprint of the formula there (stable across arenas and sessions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreMember {
    /// Where the formula sat in the query.
    pub slot: CoreSlot,
    /// Structural fingerprint of the formula.
    pub fingerprint: u128,
}

/// The unsat core attached to an `Unsat` verdict: a subset of the query's
/// asserted formulas that is already unsatisfiable (together with any
/// quantified axioms in scope — axiom instances are never tracked, so a core
/// is relative to the axiom set).
#[derive(Debug, Clone)]
pub struct UnsatCore {
    /// Core members in query order.
    pub members: Vec<CoreMember>,
    /// Whether the core came from conflict analysis (`true`) or is the
    /// all-asserts fallback over-approximation (`false`).
    pub exact: bool,
    /// Content id: a hash of the member fingerprints, stable across runs,
    /// sessions, and arenas — what `pins-report --xray` aggregates on.
    pub id: u64,
}

impl UnsatCore {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the core has no members (unsatisfiability came from the
    /// axioms alone).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// Content id over a sorted, deduplicated fingerprint set.
fn core_id(fps: &[u128]) -> u64 {
    let mut h = mix_u64(FP_SEED, 0xc04e);
    for &fp in fps {
        h = mix(h, fp);
    }
    (h as u64) ^ ((h >> 64) as u64)
}

// ---------------------------------------------------------------------------
// query shapes
// ---------------------------------------------------------------------------

/// The normalized fingerprints of one query, computed once and reused for
/// the cache key, the structural (config-independent) forensics key, core
/// provenance mapping, and the incrementality audit.
#[derive(Debug)]
struct QueryShape {
    /// Assertion then assumption fingerprints in query order (not
    /// deduplicated): index = core provenance id.
    ordered: Vec<u128>,
    /// Sorted, deduplicated assertion ∪ assumption fingerprints.
    sorted: Vec<u128>,
    /// Sorted, deduplicated axiom fingerprints.
    ax: Vec<u128>,
}

impl QueryShape {
    /// The cache key under `config_fp` (a config fingerprint or the
    /// structural seed).
    fn key_for(&self, config_fp: u128) -> u128 {
        let mut key = config_fp;
        key = mix_u64(key, self.ax.len() as u64);
        for &h in &self.ax {
            key = mix(key, h);
        }
        key = mix_u64(key, self.sorted.len() as u64);
        for &h in &self.sorted {
            key = mix(key, h);
        }
        key
    }

    /// The config-independent key the miss-forensics index is built on:
    /// same hash chain as a cache key but seeded with a distinct constant,
    /// so structural keys never collide with real cache keys by accident.
    fn structural_key(&self) -> u128 {
        self.key_for(mix_u64(FP_SEED, 0x57ac))
    }
}

/// What the incrementality audit measured for one consecutive-query pair.
#[derive(Debug, Clone, Copy)]
struct AuditDelta {
    /// Length of the shared ordered prefix with the previous query.
    shared_prefix: u64,
    /// Atoms in this query but not the previous one.
    added: u64,
    /// Atoms in the previous query but not this one.
    removed: u64,
    /// Total atoms in this query (ordered, with duplicates).
    atoms: u64,
}

/// How [`SmtSession::query`] answered: a cached verdict, or a fresh
/// solver result (a miss, or a sat re-solve for a model).
enum Answer {
    Cached(Verdict),
    Solved(SmtResult),
}

// ---------------------------------------------------------------------------
// the session
// ---------------------------------------------------------------------------

/// Declares the session counters once: each field of the typed
/// [`SessionStats`] view, the [`Counter`] a session bumps for it, and the
/// registry key (below the session's prefix) both are read from.
macro_rules! session_counters {
    ($($(#[$doc:meta])* $field:ident: $key:literal,)*) => {
        /// Per-session query counters: a snapshot read from the counter
        /// cells sessions bump at event time (see [`SmtSession::stats`] and
        /// [`SessionStats::from_registry`]).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SessionStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl SessionStats {
            /// Reads the counters from `registry` cells under `prefix`
            /// (e.g. `"smt"`): the totals of every session bound there with
            /// [`SmtSession::bind_metrics`].
            pub fn from_registry(registry: &MetricsRegistry, prefix: &str) -> SessionStats {
                SessionStats {
                    $($field: registry.get(&format!("{prefix}.{}", $key)),)*
                }
            }
        }

        /// The [`Counter`] behind each [`SessionStats`] field.
        #[derive(Debug, Default)]
        struct SessionCounters {
            $($field: Counter,)*
        }

        impl SessionCounters {
            fn bind(registry: &MetricsRegistry, prefix: &str) -> SessionCounters {
                SessionCounters {
                    $($field: registry.counter(&format!("{prefix}.{}", $key)),)*
                }
            }

            fn read(&self) -> SessionStats {
                SessionStats {
                    $($field: self.$field.get(),)*
                }
            }
        }
    };
}

session_counters! {
    /// Total queries issued through this session.
    queries: "queries",
    /// Queries answered from the shared cache without solving.
    cache_hits: "cache_hits",
    /// Queries that required an actual solve.
    cache_misses: "cache_misses",
    /// Model-producing checks whose verdict was cached as satisfiable and
    /// therefore had to re-solve to recover a model for this arena.
    sat_resolves: "sat_resolves",
    /// Budget-limited `Unknown` results retried once at doubled budgets.
    retries: "retries",
    /// Cached budget-limited `Unknown` entries replaced in place because a
    /// retry at larger budgets reached a definitive verdict.
    cache_upgrades: "cache_upgrades",
    /// Final `Unknown` answers (after any retry) that hit the wall-clock
    /// deadline.
    unknown_deadline: "unknown.deadline",
    /// Final `Unknown` answers caused by an external cancellation.
    unknown_cancelled: "unknown.cancelled",
    /// Final `Unknown` answers that exhausted a step or round limit.
    unknown_step_limit: "unknown.step_limit",
    /// Final `Unknown` answers degraded from an arithmetic overflow in the
    /// exact rational LIA core.
    unknown_overflow: "unknown.overflow",
    /// Misses classified [`MissCause::FirstSeen`].
    miss_first_seen: "miss.first_seen",
    /// Misses classified [`MissCause::ConfigMismatch`].
    miss_config_mismatch: "miss.config_mismatch",
    /// Misses classified [`MissCause::BudgetRetry`].
    miss_budget_retry: "miss.budget_retry",
    /// Misses classified [`MissCause::NearMiss`].
    miss_near_miss: "miss.near_miss",
    /// Consecutive-query pairs measured by the incrementality audit.
    audit_pairs: "audit.pairs",
    /// Summed shared-prefix length (atoms) over audited pairs.
    audit_shared_prefix: "audit.shared_prefix",
    /// Summed atoms added relative to the previous query.
    audit_added: "audit.added",
    /// Summed atoms removed relative to the previous query.
    audit_removed: "audit.removed",
    /// Audited pairs that only *extended* the previous query (removed = 0):
    /// exactly the queries a push-scoped warm start would serve.
    audit_pure_extensions: "audit.pure_extensions",
    /// `Unsat` verdicts that carried an unsat core (fresh or cached).
    cores: "cores",
    /// Cores that were fallback over-approximations rather than exact.
    cores_inexact: "cores.inexact",
}

impl SessionStats {
    /// Queries attributed to `phase` — the `{prefix}.queries.phase.{tag}`
    /// cell bound sessions write through. The cells over all of
    /// [`PHASES`] partition `{prefix}.queries`.
    pub fn phase_queries(registry: &MetricsRegistry, prefix: &str, phase: Phase) -> u64 {
        registry.get(&format!("{prefix}.queries.phase.{}", phase.as_str()))
    }

    /// Nanoseconds of solver time attributed to `phase` — the
    /// `{prefix}.query_ns.phase.{tag}` cell.
    pub fn phase_query_ns(registry: &MetricsRegistry, prefix: &str, phase: Phase) -> u64 {
        registry.get(&format!("{prefix}.query_ns.phase.{}", phase.as_str()))
    }
}

/// The handles a session counts through, each bumped once *at event
/// time*. Several sessions bound to the same registry and prefix (for
/// example, one per thread) add into the same cells instead of being summed
/// after the fact.
///
/// The default handles are detached (not in any registry): an unbound
/// session counts into cells of its own, and binding swaps in shared ones.
#[derive(Debug, Default)]
struct SessionMetrics {
    /// The counters [`SessionStats`] reads.
    counts: SessionCounters,
    /// Summed nanoseconds spent in uncached solves — cache misses and sat
    /// re-solves (the audit's denominator for projected warm-start savings).
    audit_solve_ns: Counter,
    /// Projected nanoseconds a warm-started solver would have saved:
    /// `solve_ns x shared_prefix / atoms` summed over audited misses.
    audit_warm_ns: Counter,
    /// Log-scaled assertion-set delta (added + removed atoms) between
    /// consecutive queries. Bound as `{prefix}.audit.delta_atoms`.
    audit_delta_atoms: Histogram,
    /// Log-scaled end-to-end query latency (nanoseconds, cache hits
    /// included). Bound as `{prefix}.query_ns`; sessions bound to the same
    /// registry and prefix share the buckets.
    query_ns: Histogram,
    /// Query count per originating [`Phase`] (`{prefix}.queries.phase.{tag}`).
    queries_by_phase: [Counter; PHASES.len()],
    /// Summed query nanoseconds per originating phase
    /// (`{prefix}.query_ns.phase.{tag}`) — the cost-attribution numerator.
    query_ns_by_phase: [Counter; PHASES.len()],
}

impl SessionMetrics {
    fn bind(registry: &MetricsRegistry, prefix: &str) -> SessionMetrics {
        let c = |name: &str| registry.counter(&format!("{prefix}.{name}"));
        SessionMetrics {
            counts: SessionCounters::bind(registry, prefix),
            audit_solve_ns: c("audit.solve_ns"),
            audit_warm_ns: c("audit.warm_ns"),
            audit_delta_atoms: registry.histogram(&format!("{prefix}.audit.delta_atoms")),
            query_ns: registry.histogram(&format!("{prefix}.query_ns")),
            queries_by_phase: std::array::from_fn(|i| {
                c(&format!("queries.phase.{}", PHASES[i].as_str()))
            }),
            query_ns_by_phase: std::array::from_fn(|i| {
                c(&format!("query_ns.phase.{}", PHASES[i].as_str()))
            }),
        }
    }

    fn note_unknown(&self, reason: StopReason) {
        let c = &self.counts;
        match reason {
            StopReason::Deadline => c.unknown_deadline.inc(),
            StopReason::Cancelled => c.unknown_cancelled.inc(),
            StopReason::StepLimit => c.unknown_step_limit.inc(),
            StopReason::Overflow => c.unknown_overflow.inc(),
        }
    }

    /// Bumps the total and per-phase query counters (one query issued).
    fn note_query(&self, phase: Phase) {
        self.counts.queries.inc();
        self.queries_by_phase[phase as usize].inc();
    }

    /// Records one query's end-to-end latency into the histogram and the
    /// per-phase attribution cell. Relaxed atomic adds only.
    fn note_latency(&self, phase: Phase, d: Duration) {
        self.query_ns.record_duration(d);
        self.query_ns_by_phase[phase as usize].add_duration(d);
    }
}

/// Explicit fingerprint of every [`SmtConfig`] field. The configuration
/// changes what a verdict means (budgets can turn `Unsat` into `Unknown`),
/// so it is part of every cache key. Each field is hashed individually —
/// hashing a `Debug` rendering instead would quietly merge configs whenever
/// a field (e.g. a budget knob) was missing from the derived output.
fn config_fingerprint(config: &SmtConfig) -> u128 {
    let mut h = mix_u64(FP_SEED, 0xc0f1);
    h = mix_u64(h, config.inst.max_rounds as u64);
    h = mix_u64(h, config.inst.max_instances as u64);
    h = mix_u64(h, config.max_theory_rounds as u64);
    h = mix_u64(h, config.bb_depth as u64);
    // Options hash a presence tag before the value so `None` and
    // `Some(0)` stay distinct.
    h = mix_u64(h, config.time_limit.is_some() as u64);
    h = mix_u64(h, config.time_limit.map_or(0, |d| d.as_nanos() as u64));
    h = mix_u64(h, config.step_limit.is_some() as u64);
    h = mix_u64(h, config.step_limit.unwrap_or(0));
    h = mix_u64(h, config.retry_unknown as u64);
    mix_u64(h, config.track_cores as u64)
}

/// A persistent solver session: scoped assertions, assumption-based checks,
/// and a shared normalized-query cache. See the [module docs](self).
#[derive(Debug)]
pub struct SmtSession {
    config: SmtConfig,
    config_fp: u128,
    /// Persistent ground assertions, in assertion order.
    assertions: Vec<TermId>,
    /// Quantified library axioms, instantiated rather than asserted.
    axioms: Vec<TermId>,
    /// Scope marks: (assertions.len(), axioms.len()) at each `push`.
    frames: Vec<(usize, usize)>,
    /// Memoized term fingerprints, valid for the arena this session is used
    /// with (term ids are append-only, so the memo survives arena growth).
    fp_memo: HashMap<TermId, u128>,
    cache: Arc<QueryCache>,
    /// Shared cancellation/deadline budget every solve runs under. Not part
    /// of the cache key: it is external state (a caller-owned kill switch),
    /// not part of what the query *means*.
    budget: Budget,
    /// The counters for this session's traffic (detached until
    /// [`bind_metrics`](Self::bind_metrics)).
    metrics: SessionMetrics,
    /// Where queries come from: the engine mutates this shared context as
    /// the run moves through iterations/phases/paths, and every query span
    /// and per-phase counter reads it.
    prov: ProvenanceCtx,
    /// The unsat core of the most recent query, when that query was `Unsat`
    /// and core tracking was on (fresh solve or cache hit with a stored
    /// core). Reset at the start of every query.
    last_core: Option<UnsatCore>,
    /// Previous query's assertion fingerprints in assertion order — the
    /// incrementality audit's shared-prefix baseline.
    last_ordered: Vec<u128>,
    /// Previous query's sorted, deduplicated assertion fingerprints — the
    /// audit's added/removed baseline.
    last_sorted: Vec<u128>,
    /// Whether `last_ordered`/`last_sorted` describe a real previous query
    /// (the audit skips the session's first query).
    audit_primed: bool,
}

impl SmtSession {
    /// A session over the process-wide [`global_cache`].
    pub fn new(config: SmtConfig) -> SmtSession {
        SmtSession::with_cache(config, Arc::clone(global_cache()))
    }

    /// A session over an explicit cache — tests use a private cache for
    /// isolation, and sessions on several threads can share one.
    pub fn with_cache(config: SmtConfig, cache: Arc<QueryCache>) -> SmtSession {
        let config_fp = config_fingerprint(&config);
        SmtSession {
            config,
            config_fp,
            assertions: Vec::new(),
            axioms: Vec::new(),
            frames: Vec::new(),
            fp_memo: HashMap::new(),
            cache,
            budget: Budget::unlimited(),
            metrics: SessionMetrics::default(),
            prov: ProvenanceCtx::default(),
            last_core: None,
            last_ordered: Vec::new(),
            last_sorted: Vec::new(),
            audit_primed: false,
        }
    }

    /// Binds this session's counters to `registry` cells under `prefix`
    /// (e.g. `"smt"` yields `smt.queries`, `smt.cache_hits`, ...). Sessions
    /// bound to the same registry and prefix count into the same cells at
    /// event time; read the totals back with [`SessionStats::from_registry`].
    /// Counts made before binding stay in the session's old cells.
    pub fn bind_metrics(&mut self, registry: &MetricsRegistry, prefix: &str) {
        self.metrics = SessionMetrics::bind(registry, prefix);
    }

    /// The counters this session counts into. For an unbound session these
    /// are its own traffic. Once bound, they are the shared registry cells,
    /// so the values include every other session bound to the same registry
    /// and prefix (the same as [`SessionStats::from_registry`]).
    pub fn stats(&self) -> SessionStats {
        self.metrics.counts.read()
    }

    /// Installs the shared provenance context queries are attributed to.
    /// The handle is shared, so the engine's phase and iteration updates are
    /// visible to this session's query spans.
    pub fn set_provenance(&mut self, prov: ProvenanceCtx) {
        self.prov = prov;
    }

    /// The provenance context this session attributes queries to.
    pub fn provenance(&self) -> &ProvenanceCtx {
        &self.prov
    }

    /// Installs the shared budget every subsequent solve runs under.
    /// Cancelling it (from any clone, any thread) makes in-flight and future
    /// queries return `Unknown(Cancelled)`.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The shared budget this session's solves run under.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The solver configuration used for every check.
    pub fn config(&self) -> SmtConfig {
        self.config
    }

    /// The cache this session reads and writes.
    pub fn cache(&self) -> &Arc<QueryCache> {
        &self.cache
    }

    /// The unsat core of the most recent query, when that query's verdict
    /// was `Unsat` and core tracking ([`SmtConfig::track_cores`]) was on.
    /// Cache hits resolve the stored core against the current query's
    /// assertion/assumption positions. `None` after any non-`Unsat` query,
    /// and after an `Unsat` cache hit whose entry predates core tracking.
    pub fn last_unsat_core(&self) -> Option<&UnsatCore> {
        self.last_core.as_ref()
    }

    /// Adds a persistent assertion to the current scope.
    pub fn assert(&mut self, t: TermId) {
        self.assertions.push(t);
    }

    /// Adds a quantified axiom to the current scope. Axioms are handed to
    /// the solver for trigger-based instantiation ahead of the assertions.
    pub fn assert_axiom(&mut self, t: TermId) {
        self.axioms.push(t);
    }

    /// The current persistent assertions, oldest first.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// The current axioms, oldest first.
    pub fn axioms(&self) -> &[TermId] {
        &self.axioms
    }

    /// Opens a new assertion scope.
    pub fn push(&mut self) {
        self.frames.push((self.assertions.len(), self.axioms.len()));
    }

    /// Closes the innermost scope, dropping every assertion and axiom added
    /// since the matching [`push`](Self::push).
    ///
    /// # Panics
    ///
    /// Panics when there is no open scope.
    pub fn pop(&mut self) {
        let (na, nx) = self
            .frames
            .pop()
            .expect("SmtSession::pop without matching push");
        self.assertions.truncate(na);
        self.axioms.truncate(nx);
    }

    /// How many scopes are open.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The normalized shape of the current scope plus `assumptions`: every
    /// fingerprint a query needs, computed once. `ordered` holds the
    /// assertion-then-assumption fingerprints in query order (positions
    /// double as core provenance ids); `sorted` is the deduplicated
    /// conjunction multiset the cache keys hash.
    fn query_shape(&mut self, arena: &TermArena, assumptions: &[TermId]) -> QueryShape {
        let mut ordered: Vec<u128> = Vec::with_capacity(self.assertions.len() + assumptions.len());
        for i in 0..self.assertions.len() {
            let t = self.assertions[i];
            ordered.push(fingerprint(arena, t, &mut self.fp_memo));
        }
        for &t in assumptions {
            ordered.push(fingerprint(arena, t, &mut self.fp_memo));
        }
        // conjunction: order and multiplicity are irrelevant to the key
        let mut sorted = ordered.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let mut ax: Vec<u128> = Vec::with_capacity(self.axioms.len());
        for i in 0..self.axioms.len() {
            let t = self.axioms[i];
            ax.push(fingerprint(arena, t, &mut self.fp_memo));
        }
        ax.sort_unstable();
        ax.dedup();
        QueryShape {
            ordered,
            sorted,
            ax,
        }
    }

    /// Runs the underlying solver on the current scope plus `assumptions`,
    /// under `config` and the session's shared budget. When
    /// [`SmtConfig::track_cores`] is set, every assertion and assumption is
    /// tracked under its position in the query (the same positions as
    /// [`QueryShape::ordered`]) and an `Unsat` answer returns the tracked
    /// core alongside the result.
    fn solve(
        &mut self,
        arena: &mut TermArena,
        assumptions: &[TermId],
        config: SmtConfig,
    ) -> (SmtResult, Option<TrackedCore>) {
        let mut smt = Smt::new(config);
        smt.set_budget(self.budget.clone());
        for i in 0..self.axioms.len() {
            let ax = self.axioms[i];
            smt.assert_term(arena, ax);
        }
        let track = config.track_cores;
        for i in 0..self.assertions.len() {
            let t = self.assertions[i];
            if track {
                smt.assert_term_tracked(arena, t, i as u32);
            } else {
                smt.assert_term(arena, t);
            }
        }
        let base = self.assertions.len();
        for (j, &t) in assumptions.iter().enumerate() {
            if track {
                smt.assert_term_tracked(arena, t, (base + j) as u32);
            } else {
                smt.assert_term(arena, t);
            }
        }
        let result = smt.check(arena);
        let core = match result {
            SmtResult::Unsat => smt.unsat_core().cloned(),
            _ => None,
        };
        (result, core)
    }

    /// The cacheable form of a tracked core: its members' structural
    /// fingerprints, sorted and deduplicated.
    fn cached_core(&self, shape: &QueryShape, tracked: &TrackedCore) -> CachedCore {
        let mut fps: Vec<u128> = tracked
            .ids
            .iter()
            .filter_map(|&p| shape.ordered.get(p as usize).copied())
            .collect();
        fps.sort_unstable();
        fps.dedup();
        CachedCore {
            fps,
            exact: tracked.exact,
        }
    }

    /// The session-level view of a tracked core: provenance ids mapped back
    /// to assertion/assumption slots.
    fn core_of_tracked(&self, shape: &QueryShape, tracked: &TrackedCore) -> UnsatCore {
        let n = self.assertions.len();
        let members: Vec<CoreMember> = tracked
            .ids
            .iter()
            .filter_map(|&p| {
                let p = p as usize;
                shape.ordered.get(p).map(|&fp| CoreMember {
                    slot: if p < n {
                        CoreSlot::Assertion(p)
                    } else {
                        CoreSlot::Assumption(p - n)
                    },
                    fingerprint: fp,
                })
            })
            .collect();
        let mut fps: Vec<u128> = members.iter().map(|m| m.fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        UnsatCore {
            members,
            exact: tracked.exact,
            id: core_id(&fps),
        }
    }

    /// Resolves a cache-hit core's fingerprints back to this query's slots.
    /// Key equality implies the cached core's fingerprints are a subset of
    /// this query's normalized assertion set, so every member resolves; the
    /// first matching position is taken when a formula occurs twice.
    fn core_of_cached(&self, shape: &QueryShape, cached: &CachedCore) -> UnsatCore {
        let n = self.assertions.len();
        let members: Vec<CoreMember> = cached
            .fps
            .iter()
            .filter_map(|&fp| {
                shape
                    .ordered
                    .iter()
                    .position(|&o| o == fp)
                    .map(|p| CoreMember {
                        slot: if p < n {
                            CoreSlot::Assertion(p)
                        } else {
                            CoreSlot::Assumption(p - n)
                        },
                        fingerprint: fp,
                    })
            })
            .collect();
        UnsatCore {
            members,
            exact: cached.exact,
            id: core_id(&cached.fps),
        }
    }

    /// Books an `Unsat` verdict's core into `last_core`, the counters, and
    /// (when tracing) the query span.
    fn note_core(&mut self, core: UnsatCore, span: &mut pins_trace::Span) {
        self.metrics.counts.cores.inc();
        if !core.exact {
            self.metrics.counts.cores_inexact.inc();
        }
        if span.is_active() {
            span.record_u64("core_size", core.members.len() as u64);
            span.record_str("core_id", &format!("{:016x}", core.id));
            span.record("core_exact", core.exact);
        }
        self.last_core = Some(core);
    }

    /// Measures this query against the previous one for the incrementality
    /// audit and advances the baseline. Returns the delta for span stamping
    /// and warm-start projection (`None` on the session's first query).
    fn note_audit(&mut self, shape: &QueryShape) -> Option<AuditDelta> {
        let delta = if self.audit_primed {
            let shared_prefix = shape
                .ordered
                .iter()
                .zip(self.last_ordered.iter())
                .take_while(|(a, b)| a == b)
                .count() as u64;
            // merge-walk the sorted fingerprint sets for the symmetric delta
            let (a, b) = (&shape.sorted, &self.last_sorted);
            let (mut i, mut j) = (0usize, 0usize);
            let (mut added, mut removed) = (0u64, 0u64);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => {
                        added += 1;
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        removed += 1;
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            added += (a.len() - i) as u64;
            removed += (b.len() - j) as u64;
            let c = &self.metrics.counts;
            c.audit_pairs.inc();
            c.audit_shared_prefix.add(shared_prefix);
            c.audit_added.add(added);
            c.audit_removed.add(removed);
            if removed == 0 {
                c.audit_pure_extensions.inc();
            }
            self.metrics.audit_delta_atoms.record(added + removed);
            Some(AuditDelta {
                shared_prefix,
                added,
                removed,
                atoms: shape.ordered.len() as u64,
            })
        } else {
            None
        };
        self.last_ordered.clone_from(&shape.ordered);
        self.last_sorted.clone_from(&shape.sorted);
        self.audit_primed = true;
        delta
    }

    /// Stamps the audit fields onto the query span.
    fn stamp_audit(
        &self,
        span: &mut pins_trace::Span,
        shape: &QueryShape,
        delta: Option<&AuditDelta>,
    ) {
        if span.is_active() {
            span.record_u64("atoms", shape.ordered.len() as u64);
            if let Some(d) = delta {
                span.record_u64("shared_prefix", d.shared_prefix);
                span.record_u64("delta_added", d.added);
                span.record_u64("delta_removed", d.removed);
            }
        }
    }

    /// Books a cache miss: classifies it against the forensics index, bumps
    /// the per-cause counters, stamps the query span, and emits the per-miss
    /// trace point.
    fn note_miss(&mut self, shape: &QueryShape, span: &mut pins_trace::Span) {
        let c = &self.metrics.counts;
        c.cache_misses.inc();
        let (cause, near_delta) = self
            .cache
            .classify_miss(shape.structural_key(), &shape.sorted);
        match cause {
            MissCause::FirstSeen => c.miss_first_seen.inc(),
            MissCause::ConfigMismatch => c.miss_config_mismatch.inc(),
            MissCause::BudgetRetry => c.miss_budget_retry.inc(),
            MissCause::NearMiss => c.miss_near_miss.inc(),
        }
        if span.is_active() {
            span.record_str("miss_cause", cause.as_str());
            if cause == MissCause::NearMiss {
                span.record_u64("near_delta", near_delta);
            }
        }
        let atoms = shape.sorted.len() as u64;
        pins_trace::point("smt.cache.miss", || {
            vec![
                ("cause", cause.as_str().into()),
                ("near_delta", near_delta.into()),
                ("atoms", atoms.into()),
            ]
        });
    }

    /// Books the warm-start projection for a solved miss: the audit's upper
    /// bound on what a warm-started theory state could have saved, assuming
    /// savings proportional to the shared prefix.
    fn note_warm_projection(&mut self, delta: Option<&AuditDelta>, solve_ns: u64) {
        self.metrics.audit_solve_ns.add(solve_ns);
        if let Some(d) = delta {
            if d.atoms > 0 {
                let warm = ((solve_ns as u128 * d.shared_prefix as u128) / d.atoms as u128) as u64;
                self.metrics.audit_warm_ns.add(warm);
            }
        }
    }

    /// Solves on a cache miss: one attempt at the session config, plus (when
    /// [`SmtConfig::retry_unknown`] is set) one retry at doubled budgets if
    /// the first attempt was stopped by a recoverable budget. The final
    /// result is cached at `key`; a definitive retry result is additionally
    /// cached at the escalated config's own key, and its write to `key`
    /// upgrades the would-be `Unknown` entry in place
    /// ([`SessionStats::cache_upgrades`]). An `Unsat` result's tracked core
    /// is cached alongside the verdict and surfaced through
    /// [`last_unsat_core`](Self::last_unsat_core).
    fn solve_and_cache(
        &mut self,
        arena: &mut TermArena,
        assumptions: &[TermId],
        shape: &QueryShape,
        key: u128,
        span: &mut pins_trace::Span,
    ) -> SmtResult {
        let (mut result, mut tracked) = self.solve(arena, assumptions, self.config);
        if let SmtResult::Unknown(reason) = result {
            // a cancellation is a caller's kill switch, not a budget the
            // query outgrew: never retry it
            if self.config.retry_unknown && reason != StopReason::Cancelled {
                self.metrics.counts.retries.inc();
                let escalated = self.config.escalate();
                let (retried, retried_core) = self.solve(arena, assumptions, escalated);
                let esc_key = shape.key_for(config_fingerprint(&escalated));
                let esc_core = retried_core
                    .as_ref()
                    .map(|c| Arc::new(self.cached_core(shape, c)));
                self.cache
                    .insert_entry(esc_key, Verdict::of(&retried), esc_core);
                if !matches!(retried, SmtResult::Unknown(_)) {
                    // the larger budget settled it: upgrade the entry the
                    // original key would otherwise pin to Unknown
                    self.metrics.counts.cache_upgrades.inc();
                }
                result = retried;
                tracked = retried_core;
            }
        }
        if let SmtResult::Unknown(reason) = result {
            self.metrics.note_unknown(reason);
        }
        let verdict = Verdict::of(&result);
        let cached = tracked
            .as_ref()
            .map(|c| Arc::new(self.cached_core(shape, c)));
        self.cache.insert_entry(key, verdict, cached);
        self.cache
            .note_solved(shape.structural_key(), &shape.sorted, verdict);
        if let Some(c) = tracked {
            let core = self.core_of_tracked(shape, &c);
            self.note_core(core, span);
        }
        result
    }

    /// Checks the current scope, producing a model on `Sat`.
    pub fn check(&mut self, arena: &mut TermArena) -> SmtResult {
        self.check_under(arena, &[])
    }

    /// Checks the current scope with extra `assumptions` for this query
    /// only, producing a model on `Sat`.
    ///
    /// `Unsat`/`Unknown` verdicts short-circuit through the cache; a cached
    /// satisfiable verdict still re-solves, because models cannot be shared
    /// across arenas (counted in [`SessionStats::sat_resolves`]).
    pub fn check_under(&mut self, arena: &mut TermArena, assumptions: &[TermId]) -> SmtResult {
        match self.query(arena, assumptions, true) {
            Answer::Solved(result) => result,
            Answer::Cached(Verdict::Unsat) => SmtResult::Unsat,
            Answer::Cached(Verdict::Unknown { reason }) => SmtResult::Unknown(reason),
            Answer::Cached(Verdict::Sat { .. }) => {
                unreachable!("a cached sat verdict re-solves when a model is needed")
            }
        }
    }

    /// The verdict of the current scope plus `assumptions`, without a model.
    /// Any cached verdict short-circuits the solver entirely.
    pub fn verdict_under(&mut self, arena: &mut TermArena, assumptions: &[TermId]) -> Verdict {
        match self.query(arena, assumptions, false) {
            Answer::Solved(result) => Verdict::of(&result),
            Answer::Cached(verdict) => verdict,
        }
    }

    /// One query: counts it, audits it against the previous one, and looks
    /// it up in the cache. A hit is the answer, unless `need_model` is set
    /// and the cached verdict is `Sat`: that re-solves to build a model for
    /// this arena. A miss solves and caches. Either solve stamps the span
    /// `cached: false`.
    fn query(&mut self, arena: &mut TermArena, assumptions: &[TermId], need_model: bool) -> Answer {
        let started = Instant::now();
        let phase = self.prov.phase();
        self.metrics.note_query(phase);
        self.last_core = None;
        let mut span = self.query_span(assumptions.len());
        let shape = self.query_shape(arena, assumptions);
        let delta = self.note_audit(&shape);
        self.stamp_audit(&mut span, &shape, delta.as_ref());
        let key = shape.key_for(self.config_fp);
        let answer = match self.cache.lookup(key) {
            Some(entry) if !(need_model && entry.verdict.is_sat()) => {
                self.metrics.counts.cache_hits.inc();
                if let (Verdict::Unsat, Some(c)) = (entry.verdict, &entry.core) {
                    let core = self.core_of_cached(&shape, c);
                    self.note_core(core, &mut span);
                }
                Answer::Cached(entry.verdict)
            }
            hit => {
                if hit.is_some() {
                    self.metrics.counts.cache_hits.inc();
                    self.metrics.counts.sat_resolves.inc();
                } else {
                    self.note_miss(&shape, &mut span);
                }
                let t0 = Instant::now();
                let r = self.solve_and_cache(arena, assumptions, &shape, key, &mut span);
                self.note_warm_projection(delta.as_ref(), t0.elapsed().as_nanos() as u64);
                Answer::Solved(r)
            }
        };
        if span.is_active() {
            let (cached, verdict) = match &answer {
                Answer::Cached(v) => (true, *v),
                Answer::Solved(r) => (false, Verdict::of(r)),
            };
            span.record("cached", cached);
            span.record_str(
                "verdict",
                match verdict {
                    Verdict::Sat { .. } => "sat",
                    Verdict::Unsat => "unsat",
                    Verdict::Unknown { .. } => "unknown",
                },
            );
        }
        self.metrics.note_latency(phase, started.elapsed());
        answer
    }

    /// Opens the per-query trace span, stamping the shared budget's
    /// remaining allowance and the query's provenance (benchmark,
    /// iteration, phase, path, CEGIS round). Inert (no allocation) when
    /// tracing is off.
    fn query_span(&self, assumptions: usize) -> pins_trace::Span {
        let mut span = pins_trace::span("smt.query");
        if span.is_active() {
            span.record_u64("assumptions", assumptions as u64);
            if let Some(t) = self.budget.time_left() {
                span.record_u64("budget_ms_left", t.as_millis() as u64);
            }
            if let Some(s) = self.budget.steps_left() {
                span.record_u64("budget_steps_left", s);
            }
            let bench = self.prov.benchmark();
            if !bench.is_empty() {
                span.record_str("bench", &bench);
            }
            span.record_str("phase", self.prov.phase().as_str());
            span.record_u64("iter", self.prov.iteration());
            let path = self.prov.path();
            if path != 0 {
                span.record_u64("path", path);
            }
            let round = self.prov.cegis_round();
            if round != 0 {
                span.record_u64("cegis_round", round);
            }
        }
        span
    }

    /// Whether the current scope plus `assumptions` is provably
    /// unsatisfiable.
    pub fn is_unsat_under(&mut self, arena: &mut TermArena, assumptions: &[TermId]) -> bool {
        self.verdict_under(arena, assumptions).is_unsat()
    }

    /// Whether `hyps |= goal` modulo the session's assertions and axioms,
    /// proven by refuting `hyps ∧ ¬goal`.
    pub fn entails(&mut self, arena: &mut TermArena, hyps: &[TermId], goal: TermId) -> bool {
        let neg = arena.mk_not(goal);
        let mut assumptions = Vec::with_capacity(hyps.len() + 1);
        assumptions.extend_from_slice(hyps);
        assumptions.push(neg);
        self.is_unsat_under(arena, &assumptions)
    }
}
