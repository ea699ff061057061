//! Shard-scaling baseline: what does `--shards` buy on one long run?
//!
//! The three longest benchmarks run at a 128-node geometry on 1, 2, 4, and
//! 8 shards. Each configuration is executed on the production path
//! ([`Machine::run`], `min(shards, host cores)` threads) [`WALL_REPS`] times
//! and once single-threaded via [`Machine::run_single_threaded`] (every
//! shard's window unpreempted on the calling thread), asserting every run
//! produces metrics equal to the serial run's (the bit-identity contract).
//! Two speedups are recorded:
//!
//! * **wall** — median serial wall-clock / median threaded wall-clock. The
//!   end-to-end number and the acceptance metric. Threads never outnumber
//!   host cores, so beyond the core count extra shards only add windows'
//!   worth of rendezvous, not parallelism.
//! * **critical-path** — serial busy time / max per-shard busy time, from
//!   [`Machine::shard_busy_ns`] of the *single-threaded* run, where
//!   per-shard busy time is exact. This is the speedup the partition
//!   supports once enough cores exist — Brent's bound measured, not
//!   modeled — and the number that diagnoses imbalance (one fat shard
//!   caps it). Reported, never the verdict.
//!
//! Results go to `BENCH_shard.json` at the repository root, one JSON line
//! per (benchmark, shard count) plus a meta line recording the host core
//! count and the acceptance verdict: **≥1.5× wall-clock speedup at 2
//! shards on at least one benchmark**.
//!
//! ```sh
//! cargo bench -p ltp-bench --bench shard_scaling
//! ```

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::time::Instant;

use ltp_bench::print_header;
use ltp_core::{JsonObject, PolicyRegistry, PredictorConfig};
use ltp_sim::{Cycle, StopReason};
use ltp_system::{Machine, Metrics};
use ltp_workloads::{Benchmark, WorkloadParams, WorkloadSource};

/// Baseline output at the repository root (cargo runs benches from the
/// package directory).
fn out_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_shard.json")
}

const NODES: u16 = 128;
const SHARDS: [usize; 4] = [1, 2, 4, 8];
/// Threaded runs per configuration; the wall time is their median.
const WALL_REPS: usize = 3;
/// The acceptance bar: best wall-clock speedup at 2 shards.
const ACCEPT_AT_2: f64 = 1.5;

fn build(benchmark: Benchmark, iters: u32, shards: usize) -> Machine {
    let registry = PolicyRegistry::with_builtins();
    let factory = registry.parse("ltp").expect("builtin spec");
    let params = WorkloadParams::quick(NODES, iters);
    let cfg = ltp_dsm::SystemConfig::builder()
        .nodes(NODES)
        .build()
        .expect("valid");
    let policies = (0..NODES)
        .map(|_| factory.build(PredictorConfig::default()))
        .collect();
    let programs = WorkloadSource::from(benchmark)
        .programs(&params)
        .expect("valid geometry");
    let mut machine = Machine::with_shards(cfg, policies, programs, shards);
    machine.attach_core_metrics();
    machine
}

/// One timed run: wall seconds, per-shard busy seconds, final metrics.
fn one_run(
    benchmark: Benchmark,
    iters: u32,
    shards: usize,
    single_threaded: bool,
) -> (f64, Vec<f64>, Metrics) {
    let mut machine = build(benchmark, iters, shards);
    let horizon = Cycle::new(2_000_000_000);
    let started = Instant::now();
    let summary = if single_threaded {
        machine.run_single_threaded(horizon)
    } else {
        machine.run(horizon)
    };
    let wall = started.elapsed().as_secs_f64();
    assert_ne!(summary.stop, StopReason::HorizonReached, "stuck");
    let busy = machine
        .shard_busy_ns()
        .into_iter()
        .map(|ns| ns as f64 / 1e9)
        .collect();
    let (metrics, _) = machine.finish();
    (wall, busy, metrics.expect("core metrics attached"))
}

/// Median of a small sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

fn main() {
    print_header(
        "Shard scaling — one machine split across worker threads",
        "infrastructure benchmark (sharded-engine acceptance; no paper analogue)",
    );
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("{NODES} nodes, ltp policy, host cores: {host_cores}, wall = median of {WALL_REPS}\n");
    println!(
        "{:<14} {:>6} {:>7} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "benchmark",
        "shards",
        "threads",
        "wall(s)",
        "busy-max",
        "busy-sum",
        "wall-spdup",
        "cp-spdup"
    );

    let file = File::create(out_path()).expect("create BENCH_shard.json");
    let mut out = BufWriter::new(file);
    // Iteration counts chosen so each serial run is seconds, not millis —
    // long enough that per-window rendezvous overhead is amortized the way
    // a real giant run amortizes it.
    let suite = [
        (Benchmark::Em3d, 60u32),
        (Benchmark::Tomcatv, 100),
        (Benchmark::Ocean, 160),
    ];
    // Best speedup observed at 2 shards, by each metric.
    let mut best_wall_at_2 = 0.0f64;
    let mut best_cp_at_2 = 0.0f64;
    for (benchmark, iters) in suite {
        let mut serial: Option<(f64, f64, Metrics)> = None;
        for shards in SHARDS {
            let threads = shards.min(host_cores);
            // Threaded runs: end-to-end wall clock (the production path).
            let mut walls = Vec::with_capacity(WALL_REPS);
            let mut metrics = None;
            for _ in 0..WALL_REPS {
                let (wall, _, m) = one_run(benchmark, iters, shards, false);
                walls.push(wall);
                assert!(
                    metrics.as_ref().is_none_or(|prev| *prev == m),
                    "threaded reruns diverged"
                );
                metrics = Some(m);
            }
            let wall = median(walls);
            let metrics = metrics.expect("at least one rep");
            // Single-threaded run: exact per-shard work for the critical
            // path (and a second bit-identity check of the same partition).
            let (_, busy, st_metrics) = one_run(benchmark, iters, shards, true);
            assert_eq!(metrics, st_metrics, "threaded vs single-threaded");
            let busy_max = busy.iter().copied().fold(0.0, f64::max);
            let busy_sum: f64 = busy.iter().sum();
            let (serial_wall, serial_busy, baseline) =
                serial.get_or_insert_with(|| (wall, busy_sum, metrics.clone()));
            assert_eq!(
                metrics, *baseline,
                "{benchmark} at {shards} shards diverged from serial"
            );
            let wall_speedup = *serial_wall / wall;
            let cp_speedup = *serial_busy / busy_max;
            if shards == 2 {
                best_wall_at_2 = best_wall_at_2.max(wall_speedup);
                best_cp_at_2 = best_cp_at_2.max(cp_speedup);
            }
            println!(
                "{:<14} {:>6} {:>7} {:>10.3} {:>10.3} {:>10.3} {:>11.2}x {:>9.2}x",
                benchmark.name(),
                shards,
                threads,
                wall,
                busy_max,
                busy_sum,
                wall_speedup,
                cp_speedup
            );
            let record = JsonObject::new()
                .field("benchmark", benchmark.name())
                .field("nodes", NODES)
                .field("iterations", u64::from(iters))
                .field("shards", shards as u64)
                .field("host_cores", host_cores as u64)
                .field("threads", threads as u64)
                .field("wall_secs", wall)
                .field("busy_secs_max", busy_max)
                .field("busy_secs_sum", busy_sum)
                .field("wall_speedup", wall_speedup)
                .field("critical_path_speedup", cp_speedup)
                .field("identical_to_serial", true)
                .build();
            writeln!(out, "{}", record.render()).expect("write record");
        }
    }
    let pass = best_wall_at_2 >= ACCEPT_AT_2;
    let meta = JsonObject::new()
        .field("meta", "shard_scaling")
        .field("host_cores", host_cores as u64)
        .field("wall_reps", WALL_REPS as u64)
        .field("acceptance_wall_speedup_at_2", ACCEPT_AT_2)
        .field("best_wall_speedup_at_2", best_wall_at_2)
        .field("best_critical_path_speedup_at_2", best_cp_at_2)
        .field("pass", pass)
        .build();
    writeln!(out, "{}", meta.render()).expect("write meta");
    out.flush().expect("flush");

    println!();
    println!(
        "best wall speedup at 2 shards: {best_wall_at_2:.2}x (acceptance: >= {ACCEPT_AT_2}x) -> {}",
        if pass { "PASS" } else { "FAIL" }
    );
    println!("baseline written to {}", out_path().display());
}
