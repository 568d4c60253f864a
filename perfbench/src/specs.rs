//! The benchmark's workloads. Each names a registered scenario plus the CC
//! family, CC count, scale and generator knobs that make it stress one part
//! of the solver; the reasons are recorded beside each entry and in
//! `BENCHMARK.json`.

use cextend_workloads::{CcFamily, WorkloadParams};

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Benchmark name (`--workload`).
    pub name: &'static str,
    /// Registry name of the scenario (`cextend_workloads::workload_by_name`).
    pub scenario: &'static str,
    /// CC family drawn for every step.
    pub family: CcFamily,
    /// CCs requested per step (capped by the family's pool).
    pub n_ccs: usize,
    /// Generator scale (1.0 is the scenario's reference size).
    pub scale: f64,
    /// Generator knobs that differ from the scenario defaults.
    pub knobs: &'static [(&'static str, i64)],
    /// Distinct instances one run generates and solves in turn. Solve time
    /// and quality vary from one generated instance to the next (the ILP
    /// and repair work of the bad CC family most of all), so a run reports
    /// the mean over several instances to keep that variation out of the
    /// run-to-run spread.
    pub instances: usize,
}

impl Spec {
    /// Generator parameters for `seed`.
    pub fn params(&self, seed: u64) -> WorkloadParams {
        self.knobs
            .iter()
            .fold(WorkloadParams::new(self.scale, seed), |p, &(k, v)| {
                p.with_knob(k, v)
            })
    }
}

/// Every workload, in presentation order.
pub const SPECS: [Spec; 3] = [
    // The paper's scenario at a quarter of its 1x shape. Every CC goes to
    // Algorithm 2, so Phase I is CC-membership bitmaps plus leftover
    // completion and the ILP idles; evaluation costs about as much as the
    // solve.
    Spec {
        name: "census-hasse",
        scenario: "census",
        family: CcFamily::Good,
        n_ccs: 150,
        scale: 10.0,
        knobs: &[("areas", 1024)],
        instances: 1,
    },
    // Intersecting CCs route to the ILP: pairwise comparison, ILP build and
    // solve, repair and invalid placement dominate. The only workload with
    // nonzero CC error. Repair work differs a lot between generated
    // instances, hence sixteen small ones per run.
    Spec {
        name: "census-ilp",
        scenario: "census",
        family: CcFamily::Bad,
        n_ccs: 1000,
        scale: 0.5,
        knobs: &[],
        instances: 16,
    },
    // Ternary DCs over ~500-event partitions: conflict-hypergraph build is
    // most of Phase II, which runs on the work-stealing pipeline.
    Spec {
        name: "dcdense-conflict",
        scenario: "dcdense",
        family: CcFamily::Good,
        n_ccs: 150,
        scale: 15.625,
        knobs: &[("rooms", 1000)],
        instances: 1,
    },
];

/// Generator and CC seed of instance `j` of the run seeded `seed`: distinct
/// for every `(seed, j)` pair with `j < 1000`.
pub fn instance_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(j as u64)
}

/// Looks a workload up by benchmark name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}
