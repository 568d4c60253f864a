//! Differential proptest over the well-typed spec fuzzer.
//!
//! Every fuzzer iteration must (a) produce a spec that parses, checks and
//! lowers cleanly, and (b) solve bit-identically at 1, 2 and 4 workers,
//! with the conflict builder matching the naive reference's edge sets on
//! every step. The fuzzer seed is fixed so failures reproduce; the
//! iteration index is the only proptest-drawn input, and the case count is
//! bounded to keep `cargo test --workspace` fast.

use cextend_spec::{fuzz_workload, iteration_seed, run_differential_oracles};
use proptest::prelude::*;

/// Fixed fuzzer seed: `fuzz_source(FUZZ_SEED, iter)` is deterministic.
const FUZZ_SEED: u64 = 11;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fuzzed_specs_pass_the_differential_oracles(iter in 0usize..64) {
        let w = fuzz_workload(FUZZ_SEED, iter).expect("fuzzer output is well-typed");
        let out = run_differential_oracles(&w, iteration_seed(FUZZ_SEED, iter), 10)
            .expect("differential oracles hold");
        // The fuzzer's topology guarantees: a ≥3-wide star plus a ≥2-hop
        // chain, so the planned schedule always shows real parallelism.
        prop_assert!(out.levels >= 3, "levels = {}", out.levels);
        prop_assert!(out.max_width >= 3, "max width = {}", out.max_width);
        prop_assert!(out.n_steps >= 4, "steps = {}", out.n_steps);
    }
}
