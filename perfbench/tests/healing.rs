//! The resilient workload's healing claim: a round with the planned bit
//! flips ends bit-identical to a fault-free round of the same steps, and
//! the flips were really injected, detected and recovered from.
//!
//! Heavy in a debug build; run with `cargo test --release`.

use blast_repro::blast_la::{abft, AbftMode};
use perfbench::hydro::{run_round, triple_point_case};
use perfbench::stats::digest;
use perfbench::trace::Tracer;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "needs an optimized build: cargo test --release"
)]
fn faulty_round_heals_to_the_fault_free_state() {
    abft::set_mode(AbftMode::Verify);
    let mut tracer = Tracer::new(false);
    for seed in [3, 8, 1234] {
        let case = triple_point_case(seed);
        let (clean, _) = run_round(&case, None, false, &mut tracer);
        let (faulty, _) = run_round(&case, None, true, &mut tracer);
        assert!(
            clean.error.is_none() && faulty.error.is_none(),
            "seed {seed}"
        );
        assert!(
            clean.problems.is_empty(),
            "seed {seed}: {:?}",
            clean.problems
        );
        assert!(
            faulty.problems.is_empty(),
            "seed {seed}: {:?}",
            faulty.problems
        );
        let state_bits = |s: &blast_repro::blast_core::HydroState| {
            digest(s.v.iter().chain(&s.e).chain(&s.x).chain([&s.t]))
        };
        assert_eq!(
            state_bits(&clean.state),
            state_bits(&faulty.state),
            "seed {seed}"
        );
        assert_eq!(clean.model.flips, 0, "seed {seed}");
        assert_eq!(faulty.model.flips, case.flips.len() as u64, "seed {seed}");
        assert!(faulty.model.detected >= faulty.model.flips, "seed {seed}");
        assert!(faulty.model.restores >= 1, "seed {seed}");
        assert!(
            faulty.model.computations > clean.model.computations,
            "seed {seed}"
        );
    }
}
