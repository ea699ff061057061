//! Confidence ablation (DESIGN.md §5.2–5.3): initial counter value,
//! premature penalty, and Shared-copy self-invalidation.
//!
//! The paper fires only on saturated two-bit counters (§4). This ablation
//! quantifies the selectivity/coverage trade-off: an eager predictor
//! (fresh entries already saturated) covers more but mispredicts more; a
//! conservative one (long training) misses coverage. The premature penalty
//! (weaken vs reset) controls how fast a misbehaving signature is silenced,
//! and `self_invalidate_shared = false` restricts speculation to dirty
//! copies only.
//!
//! These `PredictorConfig` knobs have no policy spec-string form, so unlike
//! the paper's figures this ablation cannot be a campaign spec.

use ltp_bench::{mean, pct, print_header};
use ltp_core::{PolicyRegistry, PredictorConfig, PrematurePenalty};
use ltp_system::SweepSpec;

/// Sweeps the whole suite under `ltp` with `predictor`; returns the mean
/// predicted and mispredicted percentages.
fn run_all(registry: &PolicyRegistry, predictor: PredictorConfig) -> (f64, f64) {
    let reports = SweepSpec::new()
        .all_benchmarks()
        .policy_specs(registry, &["ltp"])
        .expect("`ltp` resolves")
        .predictor(predictor)
        .collect();
    let pred: Vec<f64> = reports.iter().map(|r| r.metrics.predicted_pct()).collect();
    let mis: Vec<f64> = reports
        .iter()
        .map(|r| r.metrics.mispredicted_pct())
        .collect();
    (mean(&pred), mean(&mis))
}

fn main() {
    print_header(
        "Ablation — confidence counters and speculation aggressiveness",
        "Lai & Falsafi, ISCA 2000, §4 (two-bit filtering)",
    );
    println!(
        "{:<34} {:>12} {:>10}",
        "configuration", "predicted%", "mispred%"
    );

    let base = PredictorConfig::default();
    let configs: [(&str, PredictorConfig); 5] = [
        ("default (init 2, reset, shared)", base),
        (
            "eager (init 3: no training)",
            PredictorConfig {
                initial_confidence: 3,
                ..base
            },
        ),
        (
            "conservative (init 0)",
            PredictorConfig {
                initial_confidence: 0,
                ..base
            },
        ),
        (
            "weaken on premature",
            PredictorConfig {
                premature_penalty: PrematurePenalty::Weaken,
                ..base
            },
        ),
        (
            "exclusive-only self-inv",
            PredictorConfig {
                self_invalidate_shared: false,
                ..base
            },
        ),
    ];

    let registry = PolicyRegistry::with_builtins();
    for (name, cfg) in configs {
        let (p, m) = run_all(&registry, cfg);
        println!("{:<34} {:>12} {:>10}", name, pct(p), pct(m));
    }
    println!();
    println!("paper operating point: selective prediction — high coverage, ~3% premature");
}
