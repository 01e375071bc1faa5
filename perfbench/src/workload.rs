//! The three workloads and the settings every measured run is pinned to.

use pins_bmc::BmcConfig;
use pins_core::PinsConfig;
use pins_suite::{Benchmark, BenchmarkId};

/// Sizes of the generated round-trip inputs (table3's sizes).
pub const ROUND_TRIP_SIZES: [usize; 3] = [1, 3, 5];

/// Input seeds per workload seed (table3 uses seeds 0–3).
pub const ROUND_TRIP_SEEDS: u64 = 4;

/// What stops a program's synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cap {
    /// Runs to convergence under the recommended iteration bound; the run
    /// must end with a round-trip-checked inverse.
    Converge,
    /// `PinsConfig::max_iterations`: the run ends in `BudgetExhausted` after
    /// exactly this many loop iterations unless it converges first.
    Iterations(usize),
    /// A step limit on the root `Budget` passed to `Pins::run_with`.
    Steps(u64),
}

impl std::fmt::Display for Cap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cap::Converge => write!(f, "converge"),
            Cap::Iterations(n) => write!(f, "iterations:{n}"),
            Cap::Steps(n) => write!(f, "steps:{n}"),
        }
    }
}

/// One program of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The suite program.
    pub id: BenchmarkId,
    /// What bounds its synthesis run.
    pub cap: Cap,
}

/// A named set of programs run in order, once per pass.
#[derive(Debug)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Whether the first solution that passes the round trip also goes to
    /// bounded model checking.
    pub bmc: bool,
    /// The programs, in run order.
    pub entries: &'static [Entry],
}

const fn converge(id: BenchmarkId) -> Entry {
    Entry {
        id,
        cap: Cap::Converge,
    }
}

const fn iterations(id: BenchmarkId, n: usize) -> Entry {
    Entry {
        id,
        cap: Cap::Iterations(n),
    }
}

/// Every workload. README.md says why each program and cap was chosen.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small-queries",
        bmc: false,
        entries: &[converge(BenchmarkId::SumI), converge(BenchmarkId::LuDecomp)],
    },
    Workload {
        name: "axioms-bmc",
        bmc: true,
        entries: &[
            converge(BenchmarkId::VectorShift),
            converge(BenchmarkId::VectorScale),
            converge(BenchmarkId::VectorRotate),
            converge(BenchmarkId::Serialize),
        ],
    },
    Workload {
        name: "capped-search",
        bmc: false,
        entries: &[
            iterations(BenchmarkId::InPlaceRl, 5),
            iterations(BenchmarkId::RunLength, 5),
            iterations(BenchmarkId::Lz77, 5),
            iterations(BenchmarkId::Lzw, 2),
            iterations(BenchmarkId::Base64, 5),
            iterations(BenchmarkId::UuEncode, 4),
            iterations(BenchmarkId::PktWrapper, 2),
            Entry {
                id: BenchmarkId::PermuteCount,
                cap: Cap::Steps(300_000),
            },
        ],
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The settings a run is pinned to. Two rows are comparable only when
/// their settings lines are identical.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Seeds of the generated round-trip inputs.
    pub round_trip_seeds: Vec<u64>,
    /// Bounded model checking of the first passing solution, if the
    /// workload lists it.
    pub bmc: Option<BmcConfig>,
}

impl Settings {
    /// The settings for `workload` at workload seed `seed`. The seed picks
    /// the round-trip inputs only: seed 0 gives table3's inputs 0–3.
    /// README.md says why it does not pick `PinsConfig::seed`.
    pub fn new(workload: &Workload, seed: u64) -> Settings {
        let first = seed.wrapping_mul(ROUND_TRIP_SEEDS);
        Settings {
            round_trip_seeds: (0..ROUND_TRIP_SEEDS)
                .map(|i| first.wrapping_add(i))
                .collect(),
            bmc: workload.bmc.then(|| BmcConfig {
                unroll: 4,
                input_bound: 3,
                ..BmcConfig::default()
            }),
        }
    }

    /// The engine configuration for one program: the recommended one with
    /// serial verification, no wall-clock budget and the entry's iteration
    /// cap. The engine seed stays the recommended one.
    pub fn config(&self, b: &Benchmark, entry: &Entry) -> PinsConfig {
        let mut config = b.recommended_config();
        config.verify_workers = 1;
        config.time_budget = None;
        if let Cap::Iterations(n) = entry.cap {
            config.max_iterations = n;
        }
        config
    }

    /// One line per program naming every setting that changes the work done.
    pub fn describe(&self, workload: &Workload) -> Vec<String> {
        let mut lines = vec![format!(
            "workload={} round_trip_seeds={:?} sizes={:?} bmc={}",
            workload.name,
            self.round_trip_seeds,
            ROUND_TRIP_SIZES,
            match &self.bmc {
                Some(b) => format!("unroll:{},input_bound:{}", b.unroll, b.input_bound),
                None => "off".to_string(),
            }
        )];
        for entry in workload.entries {
            let b = pins_suite::benchmark(entry.id);
            let c = self.config(&b, entry);
            lines.push(format!(
                "{}: cap={} workers={} m={} max_iterations={} seed={:#x} \
                 smt(time_limit={:?},step_limit={:?},retry_unknown={},track_cores={},\
                 inst_rounds={},inst_max={},theory_rounds={},bb_depth={}) \
                 explore(max_unroll={},max_steps={})",
                b.name(),
                entry.cap,
                c.verify_workers,
                c.m,
                c.max_iterations,
                c.seed,
                c.smt.time_limit,
                c.smt.step_limit,
                c.smt.retry_unknown,
                c.smt.track_cores,
                c.smt.inst.max_rounds,
                c.smt.inst.max_instances,
                c.smt.max_theory_rounds,
                c.smt.bb_depth,
                c.explore.max_unroll,
                c.explore.max_steps,
            ));
        }
        lines
    }
}
