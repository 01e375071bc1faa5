//! One operation: set up, synthesize and validate one program.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pins_bmc::check_inverse;
use pins_budget::Budget;
use pins_core::{Pins, PinsConfig, PinsError, PinsOutcome, Session};
use pins_suite::{benchmark, Benchmark};
use pins_trace::MetricsRegistry;

use crate::workload::{Cap, Entry, Settings, ROUND_TRIP_SIZES};

/// Session builds per timed batch. One build takes about 0.1 ms, too
/// short to time alone against scheduler noise.
pub const SETUP_BATCH: usize = 16;

/// Timed batches per operation; set-up time is the median batch's time
/// per build.
pub const SETUP_BATCHES: usize = 15;

/// Counts that must repeat exactly whenever a program runs with the same
/// settings: across passes and between the timed and traced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Root-budget steps.
    pub steps: u64,
    /// Validity-session queries, cache hits and misses.
    pub smt_queries: u64,
    pub smt_hits: u64,
    pub smt_misses: u64,
    /// Feasibility-session queries, cache hits and misses.
    pub feas_queries: u64,
    pub feas_hits: u64,
    pub feas_misses: u64,
    /// Loop iterations entered (one `solve` call each).
    pub iterations: u64,
    /// Solutions returned.
    pub solutions: u64,
    /// Returned solutions that failed the round trip.
    pub wrong: u64,
}

impl Counts {
    /// The counts in declaration order.
    pub fn to_array(self) -> [u64; 10] {
        [
            self.steps,
            self.smt_queries,
            self.smt_hits,
            self.smt_misses,
            self.feas_queries,
            self.feas_hits,
            self.feas_misses,
            self.iterations,
            self.solutions,
            self.wrong,
        ]
    }

    /// The inverse of [`to_array`](Self::to_array).
    pub fn from_array(a: [u64; 10]) -> Counts {
        let [steps, smt_queries, smt_hits, smt_misses, feas_queries, feas_hits, feas_misses, iterations, solutions, wrong] =
            a;
        Counts {
            steps,
            smt_queries,
            smt_hits,
            smt_misses,
            feas_queries,
            feas_hits,
            feas_misses,
            iterations,
            solutions,
            wrong,
        }
    }
}

/// How a synthesis run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum End {
    /// `Ok` with `converged == true`.
    Converged,
    /// `Ok` with `converged == false` (exploration stopped on its bounds).
    Unconverged,
    /// `BudgetExhausted`.
    Exhausted,
    /// `NoSolution`.
    NoSolution,
    /// The synthesis or validation call panicked.
    Panicked,
}

/// Everything measured about one operation.
#[derive(Debug)]
pub struct ProgramRun {
    pub name: &'static str,
    pub cap: Cap,
    /// Time of one session construction: the median over
    /// [`SETUP_BATCHES`] batches of [`SETUP_BATCH`] builds.
    pub setup: Duration,
    /// `Pins::run_with` wall time.
    pub synth: Duration,
    /// Round trips of every returned solution.
    pub round_trip: Duration,
    /// Bounded model checking of the first passing solution.
    pub bmc: Duration,
    pub bmc_paths: u64,
    /// `Some(verified)` when BMC ran.
    pub bmc_verified: Option<bool>,
    pub end: End,
    pub counts: Counts,
    /// Why the operation failed, if it did.
    pub failure: Option<String>,
    /// The registry `Pins::run_with` recorded into.
    pub registry: MetricsRegistry,
    /// Entries in the process-wide query cache after synthesis.
    pub cache_entries: u64,
}

impl ProgramRun {
    /// Round trip plus BMC time.
    pub fn validate(&self) -> Duration {
        self.round_trip + self.bmc
    }
}

/// Builds the session and configuration, timing `Benchmark::session` and
/// `recommended_config`. Each batch's builds are dropped after its timer
/// stops, so the time is construction alone.
fn set_up(entry: &Entry, settings: &Settings) -> (Benchmark, Session, PinsConfig, Duration) {
    let mut per_build = Vec::with_capacity(SETUP_BATCHES);
    let mut batch = Vec::with_capacity(SETUP_BATCH);
    for _ in 0..SETUP_BATCHES {
        batch.clear();
        let _span = pins_trace::span("bench.session");
        let t0 = Instant::now();
        for _ in 0..SETUP_BATCH {
            let b = benchmark(entry.id);
            let session = b.session();
            let config = settings.config(&b, entry);
            batch.push(std::hint::black_box((b, session, config)));
        }
        per_build.push(t0.elapsed() / SETUP_BATCH as u32);
    }
    per_build.sort();
    let (b, session, config) = batch.pop().expect("SETUP_BATCH is positive");
    (b, session, config, per_build[SETUP_BATCHES / 2])
}

/// Runs one operation: set-up, synthesis from a cold process-wide query
/// cache, then validation of every returned solution. A panic anywhere
/// counts as a failed operation instead of aborting the run.
pub fn run_program(entry: &Entry, settings: &Settings) -> ProgramRun {
    let (b, mut session, config, setup) = set_up(entry, settings);
    let cache = pins_smt::global_cache();
    cache.clear();
    cache.reset_counters();
    let registry = MetricsRegistry::new();
    let steps = match entry.cap {
        Cap::Steps(n) => Some(n),
        _ => None,
    };
    let budget = Budget::with_limits(None, steps);
    let mut run = ProgramRun {
        name: b.name(),
        cap: entry.cap,
        setup,
        synth: Duration::ZERO,
        round_trip: Duration::ZERO,
        bmc: Duration::ZERO,
        bmc_paths: 0,
        bmc_verified: None,
        end: End::Panicked,
        counts: Counts::default(),
        failure: None,
        registry: registry.clone(),
        cache_entries: 0,
    };

    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _span = pins_trace::span("bench.synthesize");
        Pins::new(config).run_with(&mut session, budget.clone(), &registry)
    }));
    run.synth = t0.elapsed();
    run.cache_entries = catch_unwind(|| cache.len() as u64).unwrap_or(0);

    let outcome = match result {
        Ok(Ok(outcome)) => {
            run.end = if outcome.converged {
                End::Converged
            } else {
                End::Unconverged
            };
            Some(outcome)
        }
        Ok(Err(PinsError::BudgetExhausted)) => {
            run.end = End::Exhausted;
            None
        }
        Ok(Err(PinsError::NoSolution { .. })) => {
            run.end = End::NoSolution;
            None
        }
        Err(_) => {
            run.failure = Some("synthesis panicked".to_string());
            None
        }
    };
    run.counts = counts_of(&registry, &budget, outcome.as_ref());

    if let Some(outcome) = &outcome {
        let validated = catch_unwind(AssertUnwindSafe(|| {
            validate(&b, outcome, settings, &mut run)
        }));
        if validated.is_err() {
            run.end = End::Panicked;
            run.failure = Some("validation panicked".to_string());
        }
    } else {
        // time the (empty) validation step too, so every operation has one
        let t = Instant::now();
        run.round_trip = std::hint::black_box(t).elapsed();
        let t = Instant::now();
        run.bmc = std::hint::black_box(t).elapsed();
    }
    if run.failure.is_none() {
        run.failure = judge(&run, settings);
    }
    run
}

/// Round-trips every solution through `pins_ir` interpretation and model
/// checks the first one that passes, if the workload lists BMC.
fn validate(b: &Benchmark, outcome: &PinsOutcome, settings: &Settings, run: &mut ProgramRun) {
    let t0 = Instant::now();
    let mut first_pass = None;
    for (i, sol) in outcome.solutions.iter().enumerate() {
        let _span = pins_trace::span("bench.round_trip");
        let ok = settings.round_trip_seeds.iter().all(|&seed| {
            ROUND_TRIP_SIZES
                .iter()
                .all(|&size| b.round_trip(&sol.inverse, seed, size) == Ok(true))
        });
        if !ok {
            run.counts.wrong += 1;
        } else if first_pass.is_none() {
            first_pass = Some(i);
        }
    }
    run.round_trip = t0.elapsed();

    let t0 = Instant::now();
    if let (Some(config), Some(i)) = (settings.bmc, first_pass) {
        let _span = pins_trace::span("bench.bmc");
        let session = b.session();
        let report = check_inverse(&session, &outcome.solutions[i].inverse, config);
        run.bmc_paths = report.paths as u64;
        run.bmc_verified = Some(report.verified);
    }
    run.bmc = t0.elapsed();
    if first_pass.is_none() {
        run.failure = Some(format!(
            "none of {} solutions passes the round trip",
            outcome.solutions.len()
        ));
    }
}

/// The failure rule: a converging program must end with a checked
/// inverse; a capped one with its cap or a checked inverse.
fn judge(run: &ProgramRun, settings: &Settings) -> Option<String> {
    let bmc_refuted = settings.bmc.is_some() && run.bmc_verified == Some(false);
    match (&run.end, run.cap) {
        (End::Converged | End::Unconverged, _) if bmc_refuted => {
            Some("BMC refutes the first solution that passes the round trip".to_string())
        }
        (End::Converged | End::Unconverged, _) => None,
        (End::Exhausted, Cap::Iterations(n)) if run.counts.iterations == n as u64 => None,
        (End::Exhausted, Cap::Steps(n)) if run.counts.steps >= n => None,
        (end, cap) => Some(format!("ended {end:?} under cap {cap}")),
    }
}

fn counts_of(registry: &MetricsRegistry, budget: &Budget, outcome: Option<&PinsOutcome>) -> Counts {
    // `HoleSolver::solve` counts every call after the first one that did
    // any work as a reused session, and the engine calls it once per loop
    // iteration
    let solve_calls = registry.get("solve.sessions_reused")
        + u64::from(registry.get("solve.smt_queries") > 0 || registry.get("solve.candidates") > 0);
    Counts {
        steps: budget.steps(),
        smt_queries: registry.get("smt.queries"),
        smt_hits: registry.get("smt.cache_hits"),
        smt_misses: registry.get("smt.cache_misses"),
        feas_queries: registry.get("feas.queries"),
        feas_hits: registry.get("feas.cache_hits"),
        feas_misses: registry.get("feas.cache_misses"),
        iterations: solve_calls,
        solutions: outcome.map_or(0, |o| o.solutions.len() as u64),
        wrong: 0,
    }
}
