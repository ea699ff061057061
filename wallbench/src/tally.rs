//! Output checks and failure accounting.
//!
//! Every checked unit of output — a machine run, a predictor job, a set of
//! regenerated artifacts — is one attempted run. A run that is stuck,
//! panics, or differs from its reference by one byte is failed: it is
//! counted and explained, and the benchmark carries on.

use ltp_system::{RunOutcome, RunReport};

/// How many reasons are kept verbatim; the rest are only counted.
const KEPT_REASONS: usize = 8;

/// Attempted and failed runs of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

impl Tally {
    /// Runs attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Runs failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failure reasons.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }

    /// Failed runs as a percentage of attempted runs (0 when none ran).
    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 * 100.0 / self.attempted as f64
        }
    }

    /// Counts `runs` attempted runs that all failed for one `reason`.
    pub fn fail_all(&mut self, runs: u64, reason: String) {
        self.attempted += runs;
        self.failed += runs;
        if self.reasons.len() < KEPT_REASONS {
            self.reasons.push(reason);
        }
    }

    /// Counts one attempted run whose check produced `result`.
    pub fn check(&mut self, result: Result<(), String>) -> bool {
        match result {
            Ok(()) => {
                self.attempted += 1;
                true
            }
            Err(reason) => {
                self.fail_all(1, reason);
                false
            }
        }
    }

    /// Counts one machine run: it must have completed, and its report
    /// must pass `check` (typically a byte comparison with a reference).
    pub fn expect_run(
        &mut self,
        label: &str,
        outcome: &RunOutcome,
        check: impl FnOnce(&RunReport) -> Result<(), String>,
    ) -> bool {
        match outcome {
            RunOutcome::Stuck(stuck) => {
                self.fail_all(
                    1,
                    format!(
                        "{label}: stuck at the {}-cycle horizon ({} of {} nodes finished)",
                        stuck.horizon_cycles, stuck.nodes_finished, stuck.workload.nodes
                    ),
                );
                false
            }
            RunOutcome::Completed(report) => self.check(check(report)),
        }
    }
}

/// A check that a report renders to exactly `reference`.
pub fn renders_as<'a>(
    label: &'a str,
    reference: &'a str,
) -> impl FnOnce(&RunReport) -> Result<(), String> + 'a {
    move |report| same_bytes(label, report.to_json().as_bytes(), reference.as_bytes())
}

/// `Ok` when `got` and `want` are identical, else a reason naming the
/// first differing byte.
pub fn same_bytes(label: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "{label}: output differs from its reference at byte {at} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

#[cfg(test)]
mod tests {
    use ltp_system::{ExperimentSpec, StuckReport};
    use ltp_workloads::Benchmark;

    use super::*;

    fn small_report() -> RunReport {
        ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("ltp")
            .expect("builtin policy")
            .nodes(4)
            .iterations(2)
            .build()
            .run()
    }

    #[test]
    fn identical_report_passes() {
        let report = small_report();
        let reference = report.to_json();
        let outcome = RunOutcome::Completed(Box::new(report));
        let mut tally = Tally::default();
        assert!(tally.expect_run("em3d", &outcome, renders_as("em3d", &reference)));
        assert_eq!((tally.attempted(), tally.failed()), (1, 0));
        assert_eq!(tally.failed_pct(), 0.0);
    }

    #[test]
    fn one_changed_metric_counts_as_failed_without_aborting() {
        let report = small_report();
        let reference = report.to_json();
        let mut changed = report.clone();
        changed.metrics.messages += 1;
        let mut tally = Tally::default();
        let changed = RunOutcome::Completed(Box::new(changed));
        assert!(!tally.expect_run("em3d", &changed, renders_as("em3d", &reference)));
        let same = RunOutcome::Completed(Box::new(report));
        assert!(tally.expect_run("em3d", &same, renders_as("em3d", &reference)));
        assert_eq!((tally.attempted(), tally.failed()), (2, 1));
        assert_eq!(tally.failed_pct(), 50.0);
        assert!(tally.reasons()[0].contains("differs from its reference"));
    }

    #[test]
    fn stuck_outcome_counts_as_failed_without_aborting() {
        let report = small_report();
        let stuck = StuckReport {
            benchmark: report.benchmark.clone(),
            policy: report.policy.clone(),
            policy_spec: report.policy_spec.clone(),
            directory: report.directory,
            workload: report.workload,
            horizon_cycles: 2_000_000_000,
            nodes_finished: 3,
            stuck_nodes: Vec::new(),
            events_handled: 17,
        };
        let mut tally = Tally::default();
        let stuck = RunOutcome::Stuck(Box::new(stuck));
        assert!(!tally.expect_run("em3d", &stuck, |_| Ok(())));
        assert!(tally.check(Ok(())));
        assert_eq!((tally.attempted(), tally.failed()), (2, 1));
        assert!(tally.reasons()[0].contains("stuck"));
    }

    #[test]
    fn same_bytes_names_the_first_difference() {
        assert!(same_bytes("x", b"abc", b"abc").is_ok());
        let err = same_bytes("x", b"abd", b"abc").unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
        let err = same_bytes("x", b"ab", b"abc").unwrap_err();
        assert!(err.contains("byte 2"), "{err}");
    }
}
