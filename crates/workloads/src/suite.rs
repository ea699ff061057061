//! The benchmark registry (paper Table 2).
//!
//! [`Benchmark`] enumerates the nine applications; [`WorkloadParams`]
//! carries the machine size, seed, and optional iteration override. The
//! scaled default inputs (chosen so a full suite × policy sweep runs in
//! seconds) are documented per benchmark and printed by `ltp list`.

use std::fmt;

use crate::kernels;
use crate::program::Program;

/// Parameters shared by every benchmark build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadParams {
    /// Machine size (the paper simulates 32).
    pub nodes: u16,
    /// Seed for workloads with stochastic structure (barnes, raytrace).
    pub seed: u64,
    /// Iteration-count override; `None` uses the benchmark's scaled
    /// default.
    pub iterations: Option<u32>,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            nodes: 32,
            seed: 0x15CA_2000,
            iterations: None,
        }
    }
}

impl WorkloadParams {
    /// Params for a quick run (small machine, few iterations) — used by
    /// integration tests.
    pub fn quick(nodes: u16, iterations: u32) -> Self {
        WorkloadParams {
            nodes,
            seed: 0x15CA_2000,
            iterations: Some(iterations),
        }
    }
}

/// The nine applications of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    Appbt,
    Barnes,
    Dsmc,
    Em3d,
    Moldyn,
    Ocean,
    Raytrace,
    Tomcatv,
    Unstructured,
}

impl Benchmark {
    /// All nine, in the paper's (alphabetical) order.
    pub const ALL: [Benchmark; 9] = [
        Benchmark::Appbt,
        Benchmark::Barnes,
        Benchmark::Dsmc,
        Benchmark::Em3d,
        Benchmark::Moldyn,
        Benchmark::Ocean,
        Benchmark::Raytrace,
        Benchmark::Tomcatv,
        Benchmark::Unstructured,
    ];

    /// The benchmark's lowercase name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Appbt => "appbt",
            Benchmark::Barnes => "barnes",
            Benchmark::Dsmc => "dsmc",
            Benchmark::Em3d => "em3d",
            Benchmark::Moldyn => "moldyn",
            Benchmark::Ocean => "ocean",
            Benchmark::Raytrace => "raytrace",
            Benchmark::Tomcatv => "tomcatv",
            Benchmark::Unstructured => "unstructured",
        }
    }

    /// Resolves a benchmark from its lowercase name.
    ///
    /// # Examples
    ///
    /// ```
    /// use ltp_workloads::Benchmark;
    ///
    /// assert_eq!(Benchmark::from_name("em3d"), Some(Benchmark::Em3d));
    /// assert_eq!(Benchmark::from_name("doom"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<Benchmark> {
        Benchmark::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The input data set of the paper's Table 2.
    pub fn paper_input(self) -> &'static str {
        match self {
            Benchmark::Appbt => "12x12x12 cubes, 40 iters",
            Benchmark::Barnes => "4K particles, 21 iters",
            Benchmark::Dsmc => "48600 molecules, 9720 cells, 400 iters",
            Benchmark::Em3d => "76800 nodes, degree 2, 15% remote, 50 iters",
            Benchmark::Moldyn => "2048 particles, 60 iters",
            Benchmark::Ocean => "128x128, 12 iters",
            Benchmark::Raytrace => "car",
            Benchmark::Tomcatv => "128x128, 50 iters",
            Benchmark::Unstructured => "mesh 2K, 30 iters",
        }
    }

    /// The default iteration count of the scaled synthetic kernel.
    pub fn default_iterations(self) -> u32 {
        match self {
            Benchmark::Appbt => kernels::appbt::DEFAULT_ITERS,
            Benchmark::Barnes => kernels::barnes::DEFAULT_ITERS,
            Benchmark::Dsmc => kernels::dsmc::DEFAULT_ITERS,
            Benchmark::Em3d => kernels::em3d::DEFAULT_ITERS,
            Benchmark::Moldyn => kernels::moldyn::DEFAULT_ITERS,
            Benchmark::Ocean => kernels::ocean::DEFAULT_ITERS,
            Benchmark::Raytrace => kernels::raytrace::JOBS_PER_NODE,
            Benchmark::Tomcatv => kernels::tomcatv::DEFAULT_ITERS,
            Benchmark::Unstructured => kernels::unstructured::DEFAULT_ITERS,
        }
    }

    /// Builds one program per node.
    ///
    /// # Panics
    ///
    /// Panics if `params.nodes < 2` (no sharing is possible).
    pub fn programs(self, params: &WorkloadParams) -> Vec<Box<dyn Program>> {
        assert!(params.nodes >= 2, "workloads need at least 2 nodes");
        let iters = params
            .iterations
            .unwrap_or_else(|| self.default_iterations());
        match self {
            Benchmark::Appbt => kernels::appbt::programs(params.nodes, iters),
            Benchmark::Barnes => kernels::barnes::programs(params.nodes, iters, params.seed),
            Benchmark::Dsmc => kernels::dsmc::programs(params.nodes, iters),
            Benchmark::Em3d => kernels::em3d::programs(params.nodes, iters),
            Benchmark::Moldyn => kernels::moldyn::programs(params.nodes, iters),
            Benchmark::Ocean => kernels::ocean::programs(params.nodes, iters),
            Benchmark::Raytrace => kernels::raytrace::programs(params.nodes, iters, params.seed),
            Benchmark::Tomcatv => kernels::tomcatv::programs(params.nodes, iters),
            Benchmark::Unstructured => kernels::unstructured::programs(params.nodes, iters),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::collect_ops;

    #[test]
    fn all_benchmarks_build_programs_for_every_node() {
        let params = WorkloadParams::quick(4, 1);
        for b in Benchmark::ALL {
            let progs = b.programs(&params);
            assert_eq!(progs.len(), 4, "{b}");
        }
    }

    #[test]
    fn all_programs_are_nonempty_and_deterministic() {
        let params = WorkloadParams::quick(3, 1);
        for b in Benchmark::ALL {
            let mut a = b.programs(&params);
            let mut c = b.programs(&params);
            for (pa, pc) in a.iter_mut().zip(c.iter_mut()) {
                let ops_a = collect_ops(pa.as_mut());
                let ops_c = collect_ops(pc.as_mut());
                assert!(!ops_a.is_empty(), "{b} emits ops");
                assert_eq!(ops_a, ops_c, "{b} is deterministic");
            }
        }
    }

    #[test]
    fn names_match_paper_order() {
        let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(
            names, sorted,
            "paper figures list benchmarks alphabetically"
        );
    }

    #[test]
    fn default_iterations_are_positive() {
        for b in Benchmark::ALL {
            assert!(b.default_iterations() > 0, "{b}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 nodes")]
    fn single_node_is_rejected() {
        let params = WorkloadParams::quick(1, 1);
        Benchmark::Em3d.programs(&params);
    }
}
