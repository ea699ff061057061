//! Wall-clock benchmark of the last-touch prediction reproduction.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root: the workloads read the committed goldens
//! under `reports/` and `tests/data/`, and write scratch files under
//! `.bench_work/`. The last line of standard output is one JSON object
//! `{"correct","attempted","failed","metrics"}`; every line before it is
//! for people. See `wallbench/README.md` for the workloads and metrics.

mod metrics;
mod spans;
mod stats;
mod tally;
mod workloads;

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use ltp_core::{parse_json, JsonObject, JsonValue};

use crate::metrics::{TracedRun, END_TO_END, PAPER, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::Steps;
use crate::tally::Tally;
use crate::workloads::{Campaign, Ctx, Rep, Scope, Shard2, Stream, Workload, Zoo, DEFAULT_SEED};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = [
    "isca00-campaign",
    "shard2-em3d128",
    "predict-zoo",
    "stream-random-probed",
];
/// Set-ups per invocation: `MIN_SETUPS` before the first repetition, then
/// more between repetitions, paced to reach `MAX_SETUPS` at the end of the
/// time budget, while set-up time stays under `SETUP_SHARE` of the time
/// elapsed. Set-up is so sampled across the whole run, not in one burst
/// that a slow spell of the host can cover. `setup_s` sums the lower
/// quartile of each set-up step over them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;
const SETUP_SHARE: f64 = 0.25;
/// Timed repetitions (traced: pairs) made even when one overruns the
/// time budget.
const MIN_REPS: usize = 2;
/// No repetition starts after this long, whatever the budget says, so an
/// invocation ends well inside three minutes.
const HARD_STOP_S: f64 = 120.0;
/// Environment variables that switch on debug tracing inside every
/// machine (`Machine::with_shards` reads them).
const TRACE_ENV: [&str; 2] = ["LTP_TRACE_BLOCK", "LTP_TRACE_FLAGS"];
/// Scratch space, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: wallbench --workload <isca00-campaign|shard2-em3d128|predict-zoo|\
stream-random-probed|all> [--seed N] [--seconds S] [--trace 0|1]";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 28.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = parse_seed(value).ok_or(format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (want 0 or 1)")),
                };
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown --workload `{}`", args.workload));
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One line of host metadata: results depend on the cores available.
fn host_line() -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or_else(
        |_| "unknown".to_string(),
        |c| {
            c.lines()
                .filter(|l| l.starts_with("processor"))
                .count()
                .to_string()
        },
    );
    let parallelism = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // `--git-dir` pins the lookup to this directory's own repository.
    let commit = command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    format!("host: nproc={nproc} available_parallelism={parallelism} commit={commit} rustc={rustc}")
}

/// The result line.
fn result_json(correct: bool, tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let mut values = JsonObject::new();
    for (name, value, unit) in metrics {
        values.push(
            name,
            JsonObject::new()
                .field("value", *value)
                .field("unit", *unit)
                .build(),
        );
    }
    JsonObject::new()
        .field("correct", correct)
        .field("attempted", tally.attempted())
        .field("failed", tally.failed())
        .field("metrics", values.build())
        .build()
        .render()
}

fn print_metric(name: &str, value: f64, unit: &str) {
    let paper = PAPER.iter().find(|(metric, _, _)| *metric == name);
    match paper {
        Some((_, reference, source)) => println!(
            "  {name:<30} {value:>16.4} {unit:<6} paper {reference} ({source}), delta {:+.2}",
            value - reference
        ),
        None => println!("  {name:<30} {value:>16.4} {unit}"),
    }
}

/// Whether another repetition (or traced pair) should start.
fn keep_going(started: Instant, done: usize, seconds: f64) -> bool {
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > HARD_STOP_S {
        return false;
    }
    if done < MIN_REPS {
        return true;
    }
    elapsed + elapsed / done as f64 <= seconds
}

/// One repetition; a panic counts every run of it as failed.
fn guarded_rep<W: Workload>(
    workload: &mut W,
    tally: &mut Tally,
    name: &str,
    scope: Option<Scope<'_>>,
) -> Option<Rep> {
    let runs = workload.runs_per_rep();
    match panic::catch_unwind(AssertUnwindSafe(|| workload.rep(tally, scope))) {
        Ok(rep) => Some(rep),
        Err(payload) => {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            tally.fail_all(runs, format!("{name}: repetition panicked: {why}"));
            None
        }
    }
}

/// Sets `W` up once, appending the set-up's steps to `setups`: those the
/// workload timed, then the rest of the set-up as one step.
fn timed_setup<W: Workload>(
    ctx: &Ctx,
    tracer: Option<&mut Tracer>,
    setups: &mut Vec<Steps>,
) -> Result<W, String> {
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let mut steps = Steps::default();
    let started = Instant::now();
    let built = match tracer {
        Some(t) => {
            let id = t.open("setup", None);
            let scope = Scope {
                tracer: t,
                parent: id,
            };
            let built = W::setup(ctx, Some(scope), &mut steps);
            t.close(id);
            built
        }
        None => W::setup(ctx, None, &mut steps),
    };
    let rest = started.elapsed().as_secs_f64() - steps.total();
    steps.0.push(rest.max(0.0));
    setups.push(steps);
    built
}

/// Sets up, repeats, checks and reports one workload.
fn drive<W: Workload>(args: &Args, ctx: &Ctx) -> (bool, Tally, Vec<(String, f64, &'static str)>) {
    let name = args.workload.as_str();
    let mut tally = Tally::default();
    let mut tracer = args.trace.then(Tracer::new);

    let first_setup = Instant::now();
    let mut setups = Vec::new();
    let mut workload = None;
    while setups.len() < MIN_SETUPS {
        drop(workload.take());
        match timed_setup::<W>(ctx, tracer.as_mut(), &mut setups) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                tally.fail_all(1, format!("{name}: set-up failed: {e}"));
                return (false, tally, Vec::new());
            }
        }
    }
    let mut workload = workload.expect("at least one set-up ran");

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let started = Instant::now();
    let mut done = 0;
    while keep_going(started, done, args.seconds) {
        match tracer.as_mut() {
            None => plain.extend(guarded_rep(&mut workload, &mut tally, name, None)),
            Some(t) => {
                // A traced and an untraced repetition, alternating order.
                for traced_now in [done % 2 == 1, done % 2 == 0] {
                    if traced_now {
                        let id = t.open("rep", None);
                        let scope = Scope {
                            tracer: t,
                            parent: id,
                        };
                        traced.extend(guarded_rep(&mut workload, &mut tally, name, Some(scope)));
                        t.close(id);
                    } else {
                        plain.extend(guarded_rep(&mut workload, &mut tally, name, None));
                    }
                }
            }
        }
        done += 1;
        // Extra set-ups, timed and dropped; a failure here already
        // surfaced in the first set-ups.
        let budget_used = (started.elapsed().as_secs_f64() / args.seconds).min(1.0);
        let due = MIN_SETUPS + ((MAX_SETUPS - MIN_SETUPS) as f64 * budget_used) as usize;
        while setups.len() < due
            && setups.iter().map(Steps::total).sum::<f64>()
                < SETUP_SHARE * first_setup.elapsed().as_secs_f64()
        {
            let _ = timed_setup::<W>(ctx, tracer.as_mut(), &mut setups);
        }
    }
    drop(workload);
    let _ = std::fs::remove_dir_all(&ctx.work);

    let timed = match &tracer {
        None => format!("{} timed repetitions", plain.len()),
        Some(_) => format!(
            "{} traced + {} untraced repetitions",
            traced.len(),
            plain.len()
        ),
    };
    println!(
        "{name}: {} set-ups, {timed} in {:.2} s; {} of {} runs failed",
        setups.len(),
        started.elapsed().as_secs_f64(),
        tally.failed(),
        tally.attempted()
    );
    for reason in tally.reasons() {
        println!("  FAILED {reason}");
    }
    if let Some(longest) = setups.iter().max_by_key(|s| s.0.len()) {
        let quartiles: Vec<String> = (0..longest.0.len())
            .map(|i| {
                let step: Vec<f64> = setups.iter().filter_map(|s| s.0.get(i).copied()).collect();
                format!("{:.4}", stats::lower_quartile(&step).unwrap_or(f64::NAN))
            })
            .collect();
        println!(
            "  set-up steps, lower quartile of each (s): {}",
            quartiles.join(" ")
        );
    }

    let mut out = Vec::new();
    match &tracer {
        None => {
            let walls: Vec<f64> = plain.iter().map(Rep::wall_s).collect();
            if let Some((q1, q3)) = stats::quartiles(&walls) {
                let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
                println!(
                    "  wall_s over {} repetitions: q1 {q1:.4} s, q3 {q3:.4} s ({})",
                    walls.len(),
                    each.join(" ")
                );
            }
            let values = metrics::end_to_end(&setups, &plain);
            for (metric, unit) in END_TO_END {
                out.push((metric.to_string(), values[metric], unit));
            }
            if let Some(rep) = plain.first() {
                // Exact model statistics, printed for reading only.
                println!("model (simulated, exact):");
                print_metric("model.ltp_predicted_pct", rep.model.ltp_predicted_pct, "%");
                print_metric("model.ltp_premature_pct", rep.model.ltp_premature_pct, "%");
                print_metric("model.ltp_speedup_pct", rep.model.ltp_speedup_pct, "%");
                print_metric("model.dsi_predicted_pct", rep.model.dsi_predicted_pct, "%");
                print_metric("model.dsi_premature_pct", rep.model.dsi_premature_pct, "%");
            }
            let serial: Vec<f64> = plain.iter().filter_map(|r| r.serial_wall_s).collect();
            if let (Some(serial), Some(wall)) = (stats::median(&serial), stats::median(&walls)) {
                println!(
                    "  shard_speedup (serial wall / 2-shard wall) {:.4} x",
                    serial / wall
                );
            }
        }
        Some(t) => {
            let values = metrics::per_layer(&TracedRun {
                spans: t.spans(),
                setups: setups.len(),
                traced: &traced,
                plain: &plain,
            });
            for (metric, unit) in PER_LAYER {
                let value = match metric {
                    "failed_runs_pct" => tally.failed_pct(),
                    _ => values.get(metric).copied().unwrap_or(0.0),
                };
                out.push((metric.to_string(), value, unit));
            }
            let path = Path::new(WORK_DIR).join(format!("spans-{name}-{:#x}.jsonl", args.seed));
            match t.write_jsonl(&path) {
                Ok(()) => println!("spans: {} written to {}", t.spans().len(), path.display()),
                Err(e) => println!("spans: not written to {}: {e}", path.display()),
            }
        }
    }
    let correct =
        tally.failed() == 0 && !plain.is_empty() && (tracer.is_none() || !traced.is_empty());
    (correct, tally, out)
}

/// `--workload all`: each workload in a child process of its own (peak
/// memory is per process), then one combined result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = JsonObject::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let text = match &output {
            Ok(o) => String::from_utf8_lossy(&o.stdout).to_string(),
            Err(e) => format!("cannot run {workload}: {e}"),
        };
        let mut lines: Vec<&str> = text.lines().collect();
        let last = lines.pop().unwrap_or_default();
        lines.iter().for_each(|l| println!("{l}"));
        let result = parse_json(last).ok();
        let get = |key: &str| result.as_ref().and_then(|r| r.get(key));
        correct &= get("correct").and_then(JsonValue::as_bool) == Some(true);
        attempted += get("attempted").and_then(JsonValue::as_u64).unwrap_or(1);
        failed += get("failed").and_then(JsonValue::as_u64).unwrap_or(1);
        if let Some(values) = get("metrics").and_then(JsonValue::as_object) {
            for (name, value) in values {
                metrics.push(&format!("{workload}/{name}"), value.clone());
            }
        }
    }
    println!(
        "{}",
        JsonObject::new()
            .field("correct", correct)
            .field("attempted", attempted)
            .field("failed", failed)
            .field("metrics", metrics.build())
            .build()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    spans::mark_caller_thread();
    println!(
        "wallbench {} seed={:#x} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_line());

    let set: Vec<&str> = TRACE_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        let mut tally = Tally::default();
        tally.fail_all(
            1,
            format!(
                "refusing to time: {} set (debug tracing inside every run)",
                set.join(", ")
            ),
        );
        println!("  FAILED {}", tally.reasons()[0]);
        println!("{}", result_json(false, &tally, &[]));
        return ExitCode::FAILURE;
    }

    let ctx = Ctx {
        seed: args.seed,
        work: PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id())),
    };
    let (correct, tally, metrics) = match args.workload.as_str() {
        "isca00-campaign" => drive::<Campaign>(&args, &ctx),
        "shard2-em3d128" => drive::<Shard2>(&args, &ctx),
        "predict-zoo" => drive::<Zoo>(&args, &ctx),
        "stream-random-probed" => drive::<Stream>(&args, &ctx),
        other => unreachable!("workload {other} passed argument validation"),
    };
    println!(
        "{} metrics (attempted {} runs, failed_runs_pct {:.2}):",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        },
        tally.attempted(),
        tally.failed_pct()
    );
    for (name, value, unit) in &metrics {
        print_metric(name, *value, unit);
    }
    println!(
        "  (paper values are suite averages from Fig. 6 / Fig. 9 — the model's only \
         reference; they compare directly on isca00-campaign only)"
    );
    println!("{}", result_json(correct, &tally, &metrics));
    if metrics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn arguments_parse_and_validate() {
        let a = parse_args(&argv(
            "--workload predict-zoo --seed 0x15CA2000 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 3.0, true));
        assert_eq!(
            parse_args(&argv("--workload all --seed 7")).unwrap().seed,
            7
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut tally = Tally::default();
        tally.check(Ok(()));
        let line = result_json(true, &tally, &[("wall_s".to_string(), 1.25, "s")]);
        let parsed = parse_json(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
