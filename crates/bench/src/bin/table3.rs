//! Regenerates Table 3: validating the synthesized inverses — manual
//! (concrete round-trip) correctness, generated tests, bounded model
//! checking, and the CEGIS (Sketch stand-in) comparison.

use pins_bench::{init, run_pins, secs};
use pins_bmc::{check_inverse, BmcConfig};
use pins_cegis::{synthesize, CegisConfig};
use pins_suite::benchmark;

fn main() {
    let harness = init();
    let args = harness.args.clone();
    println!(
        "{:<14} {:>9} {:>6} {:>12} {:>14}",
        "Benchmark", "Manual", "Tests", "BMC", "CEGIS"
    );
    for id in args.benchmarks.clone() {
        let b = benchmark(id);
        let outcome = match run_pins(&b, &args) {
            Ok(o) => o,
            Err(e) => {
                println!("{:<14} synthesis failed: {e}", b.name());
                continue;
            }
        };
        // "manual": concrete round-trip validation of each surviving solution
        let correct: Vec<bool> = outcome
            .solutions
            .iter()
            .map(|sol| {
                (0..4).all(|seed| {
                    [1usize, 3, 5]
                        .iter()
                        .all(|&size| b.round_trip(&sol.inverse, seed, size).unwrap_or(false))
                })
            })
            .collect();
        let good = correct.iter().filter(|&&ok| ok).count();
        let manual = format!("{good} of {}", outcome.solutions.len());
        // BMC on the first correct solution
        let session = b.session();
        let bmc_cfg = BmcConfig {
            unroll: 4,
            input_bound: 3,
            ..BmcConfig::default()
        };
        let bmc_str = match correct.iter().position(|&ok| ok) {
            Some(i) => {
                let bmc = check_inverse(&session, &outcome.solutions[i].inverse, bmc_cfg);
                if bmc.verified {
                    secs(bmc.time)
                } else {
                    format!("cex({})", secs(bmc.time))
                }
            }
            None => "none correct".to_string(),
        };
        // CEGIS with a bounded battery
        let env = b.extern_env();
        let battery: Vec<_> = (0..24)
            .flat_map(|seed| [0usize, 1, 2, 3].map(|size| b.gen_input(seed, size)))
            .collect();
        let cegis_cfg = CegisConfig {
            time_budget: Some(std::time::Duration::from_secs(120)),
            ..CegisConfig::default()
        };
        let cegis = synthesize(&session, &env, &battery, cegis_cfg);
        let cegis_str = match cegis.solution {
            Some(_) => secs(cegis.time),
            None => format!("fail:{}", cegis.failure.unwrap_or_default()),
        };
        println!(
            "{:<14} {:>9} {:>6} {:>12} {:>14}",
            b.name(),
            manual,
            outcome.tests.len(),
            bmc_str,
            cegis_str
        );
    }
}
