//! Two runs of the same workload and seed must agree bit for bit on every
//! modeled metric and on the operation counts.
//!
//! Heavy in a debug build; run with `cargo test --release`.

use perfbench::{run, RunOptions, WORKLOADS};

const MODELED: [&str; 2] = ["model_step_ms", "model_energy_j"];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs an optimized build: cargo test --release"
)]
fn modeled_metrics_and_counts_repeat_bit_for_bit() {
    for workload in WORKLOADS {
        let opts = |seed| RunOptions {
            workload: workload.to_string(),
            seed,
            // Below one round: every run does exactly one timed round.
            seconds: 1e-3,
            trace: false,
            out_dir: std::env::temp_dir(),
        };
        let a = run(&opts(7)).expect("known workload");
        let b = run(&opts(7)).expect("known workload");
        assert!(
            a.correct && b.correct,
            "{workload}: {:?} {:?}",
            a.problems,
            b.problems
        );
        assert_eq!(
            (a.attempted, a.failed),
            (b.attempted, b.failed),
            "{workload}"
        );
        assert!(a.attempted > 0, "{workload}");
        for name in MODELED {
            let (x, y) = (
                a.get(name).expect("reported"),
                b.get(name).expect("reported"),
            );
            assert_eq!(x.to_bits(), y.to_bits(), "{workload} {name}: {x} vs {y}");
        }
    }
}
