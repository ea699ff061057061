//! Metric catalog and derivation: end-to-end metrics from the timed
//! repetitions, per-layer metrics from the traced ones.

use std::collections::BTreeMap;

use crate::stats::{median, quick_total, self_ns, Span, Steps};
use crate::workloads::Rep;

/// End-to-end metrics (`--trace 0`): name, unit. Every workload reports
/// every one; `BENCHMARK.json` lists the same names.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("predict_touches_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("workloads.programs_s", "s"),
    ("workloads.next_op_calls", "count"),
    ("workloads.next_op_s", "s"),
    ("workloads.trace_gen_s", "s"),
    ("workloads.trace_open_s", "s"),
    ("workloads.trace_load_s", "s"),
    ("core.on_touch_calls", "count"),
    ("core.on_touch_s", "s"),
    ("core.fires", "count"),
    ("core.on_sync_calls", "count"),
    ("core.on_sync_s", "s"),
    ("core.on_invalidation_calls", "count"),
    ("core.on_verification_calls", "count"),
    ("core.verify_correct", "count"),
    ("core.fire_precision", "ratio"),
    ("dsm.messages", "count"),
    ("dsm.misses", "count"),
    ("dsm.invalidations_sent", "count"),
    ("dsm.self_invalidations_sent", "count"),
    ("dsm.dir_queueing_cycles_mean", "cycles"),
    ("dsm.dir_service_cycles_mean", "cycles"),
    ("sim.events", "count"),
    ("sim.exec_cycles", "cycles"),
    ("sim.host_ns_per_event", "ns"),
    ("machine.run_s", "s"),
    ("machine.self_s", "s"),
    ("machine.finish_s", "s"),
    ("shard.busy_max_s", "s"),
    ("shard.busy_sum_s", "s"),
    ("shard.sync_s", "s"),
    ("shard.imbalance", "ratio"),
    ("shard.serial_wall_s", "s"),
    ("shard.speedup", "x"),
    ("probe.on_event_calls", "count"),
    ("probe.on_event_s", "s"),
    ("probe.finish_s", "s"),
    ("predict.ltp_s", "s"),
    ("predict.ltp-global_s", "s"),
    ("predict.ltp-xor_s", "s"),
    ("predict.last-pc_s", "s"),
    ("predict.tage_s", "s"),
    ("predict.perceptron_s", "s"),
    ("predict.oracle_s", "s"),
    ("predict.null_replay_s", "s"),
    ("predict.ground_truth_s", "s"),
    ("campaign.record_s", "s"),
    ("campaign.finalize_s", "s"),
    ("campaign.report_s", "s"),
    ("model.ltp_predicted_pct", "%"),
    ("model.ltp_premature_pct", "%"),
    ("model.ltp_speedup_pct", "%"),
    ("model.dsi_predicted_pct", "%"),
    ("model.dsi_premature_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("failed_runs_pct", "%"),
];

/// The paper's values for the model metrics: metric, value, where the
/// repository records it. They are averages over the paper's suite, the
/// model's only reference, so they compare directly with
/// `isca00-campaign` alone.
pub const PAPER: [(&str, f64, &str); 5] = [
    (
        "model.ltp_predicted_pct",
        79.0,
        "Fig. 6 LTP average (benches/fig6_accuracy.rs)",
    ),
    (
        "model.ltp_premature_pct",
        3.0,
        "Fig. 6 LTP average (benches/fig6_accuracy.rs)",
    ),
    (
        "model.ltp_speedup_pct",
        11.0,
        "Fig. 9 LTP average (benches/fig9_speedup.rs)",
    ),
    (
        "model.dsi_predicted_pct",
        47.0,
        "Fig. 6 DSI average (benches/fig6_accuracy.rs)",
    ),
    (
        "model.dsi_premature_pct",
        14.0,
        "Fig. 6 DSI average (benches/fig6_accuracy.rs)",
    ),
];

/// Peak resident memory of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn med(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn rate(count: u64, seconds: f64) -> f64 {
    count as f64 / seconds
}

/// End-to-end metrics from the set-ups and the timed repetitions. Times
/// are each step's lower quartile summed over the steps (see
/// [`quick_total`]); rates divide the work of one repetition, which the
/// checks hold fixed, by such a time.
pub fn end_to_end(setups: &[Steps], reps: &[Rep]) -> BTreeMap<&'static str, f64> {
    let quick = |steps: Vec<&Steps>| quick_total(&steps).unwrap_or(f64::NAN);
    let model_s = quick(reps.iter().map(|r| &r.model_time).collect());
    let first = reps.first().cloned().unwrap_or_default();
    BTreeMap::from([
        ("setup_s", quick(setups.iter().collect())),
        ("wall_s", quick(reps.iter().map(|r| &r.wall).collect())),
        ("sim_ops_per_s", rate(first.ops, model_s)),
        ("predict_touches_per_s", rate(first.touches, model_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// Sums of one span name over the recorded spans.
struct Named<'a> {
    spans: &'a [Span],
}

impl Named<'_> {
    fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.sum_ns as f64 / 1e9)
            .fold(0.0, |a, b| a + b)
    }

    fn calls(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls as f64)
            .fold(0.0, |a, b| a + b)
    }
}

/// What the traced run measured, besides its spans.
pub struct TracedRun<'a> {
    /// Every span recorded, set-ups included.
    pub spans: &'a [Span],
    /// Set-ups performed.
    pub setups: usize,
    /// Traced repetitions.
    pub traced: &'a [Rep],
    /// Untraced repetitions interleaved with them.
    pub plain: &'a [Rep],
}

/// Per-layer metrics, as means per traced repetition (set-up layers as
/// means per set-up).
pub fn per_layer(run: &TracedRun<'_>) -> BTreeMap<String, f64> {
    let named = Named { spans: run.spans };
    let reps = run.traced.len().max(1) as f64;
    let setups = run.setups.max(1) as f64;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };

    put(
        "workloads.programs_s",
        named.seconds("workloads.programs") / reps,
    );
    put(
        "workloads.next_op_calls",
        named.calls("workloads.next_op") / reps,
    );
    put(
        "workloads.next_op_s",
        named.seconds("workloads.next_op") / reps,
    );
    for layer in ["trace_gen", "trace_open", "trace_load"] {
        let name = format!("workloads.{layer}");
        put(&format!("{name}_s"), named.seconds(&name) / setups);
    }
    for hook in ["on_touch", "on_sync"] {
        let name = format!("core.{hook}");
        put(&format!("{name}_calls"), named.calls(&name) / reps);
        put(&format!("{name}_s"), named.seconds(&name) / reps);
    }
    for hook in ["on_invalidation", "on_verification"] {
        let name = format!("core.{hook}");
        put(&format!("{name}_calls"), named.calls(&name) / reps);
    }
    let (fires, correct) = (
        named.calls("core.fires"),
        named.calls("core.verify_correct"),
    );
    put("core.fires", fires / reps);
    put("core.verify_correct", correct / reps);
    put(
        "core.fire_precision",
        if fires > 0.0 { correct / fires } else { 0.0 },
    );

    // Simulated totals repeat exactly across repetitions (they are checked).
    let sim = run.traced.first().map(|r| r.sim).unwrap_or_default();
    let mean_of = |(sum, samples): (f64, u64)| {
        if samples > 0 {
            sum / samples as f64
        } else {
            0.0
        }
    };
    put("dsm.messages", sim.messages as f64);
    put("dsm.misses", sim.misses as f64);
    put("dsm.invalidations_sent", sim.invalidations_sent as f64);
    put(
        "dsm.self_invalidations_sent",
        sim.self_invalidations_sent as f64,
    );
    put("dsm.dir_queueing_cycles_mean", mean_of(sim.queueing));
    put("dsm.dir_service_cycles_mean", mean_of(sim.service));
    put("sim.events", sim.events as f64);
    put("sim.exec_cycles", sim.exec_cycles as f64);

    // Machine self time, and the shard split of every multi-shard run.
    let mut self_s = 0.0;
    let (mut busy_max, mut busy_sum, mut sync, mut imbalance, mut sharded) =
        (0.0, 0.0, 0.0, 0.0, 0);
    for (i, span) in run.spans.iter().enumerate() {
        if span.name != "machine.run" {
            continue;
        }
        self_s += self_ns(run.spans, i) as f64 / 1e9;
        let busy: Vec<f64> = run
            .spans
            .iter()
            .filter(|s| s.parent == Some(i) && s.name == "shard.busy")
            .map(|s| s.sum_ns as f64 / 1e9)
            .collect();
        if busy.len() > 1 {
            let max = busy.iter().copied().fold(0.0, f64::max);
            let sum: f64 = busy.iter().sum();
            busy_max += max;
            busy_sum += sum;
            sync += span.sum_ns as f64 / 1e9 - max;
            imbalance += if sum > 0.0 {
                max * busy.len() as f64 / sum
            } else {
                0.0
            };
            sharded += 1;
        }
    }
    put("machine.run_s", named.seconds("machine.run") / reps);
    put("machine.self_s", self_s / reps);
    put("machine.finish_s", named.seconds("machine.finish") / reps);
    put(
        "sim.host_ns_per_event",
        if sim.events > 0 {
            self_s / reps * 1e9 / sim.events as f64
        } else {
            0.0
        },
    );
    put("shard.busy_max_s", busy_max / reps);
    put("shard.busy_sum_s", busy_sum / reps);
    put("shard.sync_s", sync / reps);
    put(
        "shard.imbalance",
        if sharded > 0 {
            imbalance / f64::from(sharded)
        } else {
            0.0
        },
    );
    let serial: Vec<f64> = run.plain.iter().filter_map(|r| r.serial_wall_s).collect();
    let serial_s = median(&serial).unwrap_or(0.0);
    put("shard.serial_wall_s", serial_s);
    put(
        "shard.speedup",
        if serial.is_empty() {
            0.0
        } else {
            serial_s / med(run.plain.iter().map(Rep::wall_s))
        },
    );

    put("probe.on_event_calls", named.calls("probe.on_event") / reps);
    put("probe.on_event_s", named.seconds("probe.on_event") / reps);
    put("probe.finish_s", named.seconds("probe.finish") / reps);
    for predictor in [
        "ltp",
        "ltp-global",
        "ltp-xor",
        "last-pc",
        "tage",
        "perceptron",
        "oracle",
        "null_replay",
        "ground_truth",
    ] {
        let name = format!("predict.{predictor}");
        put(&format!("{name}_s"), named.seconds(&name) / reps);
    }
    for step in ["record", "finalize", "report"] {
        let name = format!("campaign.{step}");
        put(&format!("{name}_s"), named.seconds(&name) / reps);
    }

    let model = run.traced.first().map(|r| r.model).unwrap_or_default();
    put("model.ltp_predicted_pct", model.ltp_predicted_pct);
    put("model.ltp_premature_pct", model.ltp_premature_pct);
    put("model.ltp_speedup_pct", model.ltp_speedup_pct);
    put("model.dsi_predicted_pct", model.dsi_predicted_pct);
    put("model.dsi_premature_pct", model.dsi_premature_pct);

    let untraced = med(run.plain.iter().map(Rep::wall_s));
    let traced = med(run.traced.iter().map(Rep::wall_s));
    put("trace.overhead_pct", (traced - untraced) * 100.0 / untraced);
    put("trace.untraced_wall_s", untraced);
    put("trace.traced_wall_s", traced);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(!unit.is_empty() && unit.len() <= 16);
        }
    }

    #[test]
    fn per_layer_covers_the_catalog() {
        let run = TracedRun {
            spans: &[],
            setups: 1,
            traced: &[],
            plain: &[],
        };
        let computed = per_layer(&run);
        for (name, _) in PER_LAYER {
            assert!(
                computed.contains_key(name) || name == "failed_runs_pct",
                "{name} is never computed"
            );
        }
    }
}
