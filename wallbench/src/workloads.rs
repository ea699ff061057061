//! The four closed-loop workloads.
//!
//! Each workload is set up once (repeatably, so set-up can be timed) and
//! then repeated back to back by one caller. A repetition times its own
//! region, checks every output against a reference, and reports the
//! simulated statistics it saw. With a [`Scope`] it also records spans for
//! the traced run.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ltp_core::{Fingerprint, JsonValue, PolicyFactory, PolicyRegistry, SelfInvalidationPolicy};
use ltp_system::campaign::{
    generate_reports, run_descriptor, run_fingerprint, CampaignStore, FigureId,
};
use ltp_system::predict::render_report;
use ltp_system::{
    ExperimentSpec, Metrics, PredictRow, PredictSpec, RunOutcome, RunReport, SweepSpec, DEFAULT_ZOO,
};
use ltp_workloads::{
    ground_truth, random_trace, replay, Benchmark, StreamingTrace, Trace, WorkloadParams,
};

use crate::spans::{traced_try_run, TracedPolicyFactory, Tracer};
use crate::stats::Steps;
use crate::tally::{renders_as, same_bytes, Tally};

/// The workload seed the committed goldens were generated with.
pub const DEFAULT_SEED: u64 = 0x15CA_2000;

/// The committed paper campaign store.
const GOLDEN_CAMPAIGN: &str = "reports/campaign-isca00";
/// The committed predictor tournament report and the trace it is built from.
const GOLDEN_PREDICTORS: &str = "reports/predictors.md";
const GOLDEN_PREDICTORS_TRACE: &str = "tests/data/em3d-4node-3iter.v1.ltrace";

/// The paper's machine size.
const PAPER_NODES: u16 = 32;
/// `shard2-em3d128` geometry: the ROADMAP's sharding target machine, with
/// the iteration count cut so one repetition stays a few seconds.
const SHARD_NODES: u16 = 128;
const SHARD_ITERATIONS: u32 = 10;
const SHARDS: usize = 2;
/// `stream-random-probed` trace size: about 1.1 M ops at 32 nodes.
const STREAM_OPS_PER_NODE: u64 = 32_768;
/// The CI probe set attached to the streamed replay.
const STREAM_PROBES: [&str; 2] = ["per-node", "hist:msg-latency"];

/// Where a workload runs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Scratch directory for stores and trace files.
    pub work: PathBuf,
}

/// Where spans of the traced run go: a recorder and the span that caused
/// the calls about to be made.
pub struct Scope<'a> {
    /// The recorder.
    pub tracer: &'a mut Tracer,
    /// The causing span.
    pub parent: usize,
}

/// Runs `f` inside a span named `name` when tracing.
fn span<T>(scope: &mut Option<Scope<'_>>, name: &str, f: impl FnOnce() -> T) -> T {
    match scope {
        Some(s) => s.tracer.time(name, Some(s.parent), f),
        None => f(),
    }
}

/// Runs one experiment: `try_run` itself, or its traced replica under a
/// span named `name`.
fn run(spec: &ExperimentSpec, scope: &mut Option<Scope<'_>>, name: &str) -> RunOutcome {
    match scope {
        Some(s) => {
            let id = s.tracer.open(name, Some(s.parent));
            let outcome = traced_try_run(spec, s.tracer, id);
            s.tracer.close(id);
            outcome
        }
        None => spec.try_run(),
    }
}

/// The simulated model's headline statistics; 0 where a workload does not
/// exercise a policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Model {
    /// LTP invalidations predicted, % (Fig. 6).
    pub ltp_predicted_pct: f64,
    /// LTP premature self-invalidations, % of invalidations (Fig. 6).
    pub ltp_premature_pct: f64,
    /// LTP speedup over base, % (Fig. 9).
    pub ltp_speedup_pct: f64,
    /// DSI invalidations predicted, %.
    pub dsi_predicted_pct: f64,
    /// DSI premature self-invalidations, %.
    pub dsi_premature_pct: f64,
}

/// Simulated totals over the machine runs of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTotals {
    /// Protocol messages.
    pub messages: u64,
    /// Cache misses.
    pub misses: u64,
    /// Directory invalidations.
    pub invalidations_sent: u64,
    /// Self-invalidations.
    pub self_invalidations_sent: u64,
    /// Events handled.
    pub events: u64,
    /// Simulated execution cycles.
    pub exec_cycles: u64,
    /// Directory queueing cycles and their sample count.
    pub queueing: (f64, u64),
    /// Directory service cycles and their sample count.
    pub service: (f64, u64),
}

impl SimTotals {
    fn add(&mut self, report: &RunReport) {
        let m = &report.metrics;
        self.messages += m.messages;
        self.misses += m.misses;
        self.invalidations_sent += m.invalidations_sent;
        self.self_invalidations_sent += m.self_invalidations_sent;
        self.events += report.events_handled;
        self.exec_cycles += m.exec_cycles;
        self.queueing.0 += m.dir_queueing.sum();
        self.queueing.1 += m.dir_queueing.samples();
        self.service.0 += m.dir_service.sum();
        self.service.1 += m.dir_service.samples();
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// The steps of the timed region.
    pub wall: Steps,
    /// The steps of it that are machine runs or offline replays.
    pub model_time: Steps,
    /// Program ops those runs executed.
    pub ops: u64,
    /// Policy touches (predictor queries) those runs made.
    pub touches: u64,
    /// Wall time of the serial companion run (`shard2-em3d128` only).
    pub serial_wall_s: Option<f64>,
    /// Model statistics.
    pub model: Model,
    /// Simulated totals of the machine runs.
    pub sim: SimTotals,
}

impl Rep {
    /// Wall time of the timed region, seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall.total()
    }
}

/// A repeatable workload.
pub trait Workload: Sized {
    /// Sets the workload up from scratch, timing its longer stages as
    /// `steps` (the caller times the rest as one more step).
    ///
    /// # Errors
    ///
    /// Fails when an input cannot be produced or a reference run fails.
    fn setup(ctx: &Ctx, scope: Option<Scope<'_>>, steps: &mut Steps) -> Result<Self, String>;

    /// Checked runs per repetition (all fail when a repetition panics).
    fn runs_per_rep(&self) -> u64;

    /// One timed and checked repetition.
    fn rep(&mut self, tally: &mut Tally, scope: Option<Scope<'_>>) -> Rep;
}

fn touches(m: &Metrics) -> u64 {
    // The machine asks the policy on every access to a shared block.
    m.hits + m.misses
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Program ops of `benchmark` at `params`, counted by draining its
/// programs (the synthetic generation a run performs).
fn drained_ops(benchmark: Benchmark, params: &WorkloadParams) -> u64 {
    benchmark
        .programs(params)
        .into_iter()
        .map(|mut program| std::iter::from_fn(|| program.next_op()).count() as u64)
        .sum()
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("{}: {e}", path.display()))
}

// ---- isca00-campaign -------------------------------------------------------

/// The bytes a campaign leaves in its store.
#[derive(Debug)]
struct StoreBytes {
    /// One run document per run, in campaign order (`None`: missing).
    docs: Vec<Option<Vec<u8>>>,
    /// `manifest.jsonl`, `campaign.jsonl`, and every report artifact.
    artifacts: Vec<(String, Option<Vec<u8>>)>,
}

impl StoreBytes {
    fn load(dir: &Path, fingerprints: &[Fingerprint]) -> StoreBytes {
        let docs = fingerprints
            .iter()
            .map(|fp| fs::read(dir.join("runs").join(format!("{fp}.json"))).ok())
            .collect();
        let mut names = vec!["manifest.jsonl".to_string(), "campaign.jsonl".to_string()];
        for figure in FigureId::ALL {
            for ext in ["md", "json"] {
                names.push(format!("reports/{}.{ext}", figure.stem()));
            }
        }
        let artifacts = names
            .into_iter()
            .map(|name| {
                let bytes = fs::read(dir.join(&name)).ok();
                (name, bytes)
            })
            .collect();
        StoreBytes { docs, artifacts }
    }
}

fn compare_optional(label: &str, got: Option<&[u8]>, want: Option<&[u8]>) -> Result<(), String> {
    match (got, want) {
        (Some(got), Some(want)) => same_bytes(label, got, want),
        (None, _) => Err(format!("{label}: not written")),
        (_, None) => Err(format!("{label}: no reference")),
    }
}

/// `isca00-campaign`: the committed paper campaign, serially, into a fresh
/// store per repetition, then finalized and rendered to the paper artifacts.
pub struct Campaign {
    runs: Vec<ExperimentSpec>,
    fingerprints: Vec<Fingerprint>,
    descriptors: Vec<JsonValue>,
    ops: u64,
    store: PathBuf,
    /// The committed store at the default seed; the first repetition's
    /// store at any other seed.
    reference: Option<StoreBytes>,
}

impl Workload for Campaign {
    fn setup(ctx: &Ctx, mut scope: Option<Scope<'_>>, _: &mut Steps) -> Result<Self, String> {
        let registry = PolicyRegistry::with_builtins();
        let runs = SweepSpec::new()
            .all_benchmarks()
            .policy_specs(&registry, &["base", "dsi", "ltp"])
            .map_err(|e| e.to_string())?
            .geometry(WorkloadParams {
                nodes: PAPER_NODES,
                seed: ctx.seed,
                iterations: None,
            })
            .threads(1)
            .runs();
        let fingerprints: Vec<Fingerprint> = runs.iter().map(run_fingerprint).collect();
        let descriptors = runs.iter().map(run_descriptor).collect();
        let ops = span(&mut scope, "workloads.count_ops", || {
            runs.iter()
                .filter_map(|r| r.source.as_benchmark().map(|b| drained_ops(b, &r.workload)))
                .sum()
        });
        let reference = (ctx.seed == DEFAULT_SEED).then(|| {
            span(&mut scope, "golden.load", || {
                StoreBytes::load(Path::new(GOLDEN_CAMPAIGN), &fingerprints)
            })
        });
        Ok(Campaign {
            runs,
            fingerprints,
            descriptors,
            ops,
            store: ctx.work.join("campaign"),
            reference,
        })
    }

    fn runs_per_rep(&self) -> u64 {
        self.runs.len() as u64 + 1
    }

    fn rep(&mut self, tally: &mut Tally, mut scope: Option<Scope<'_>>) -> Rep {
        let _ = fs::remove_dir_all(&self.store);
        let (mut wall, mut model_time) = (Steps::default(), Steps::default());
        let store = wall
            .time(|| {
                span(&mut scope, "campaign.open", || {
                    CampaignStore::open(&self.store)
                })
            })
            .expect("campaign store opens in the work directory");
        let mut outcomes = Vec::with_capacity(self.runs.len());
        for (i, spec) in self.runs.iter().enumerate() {
            let outcome = wall.time(|| run(spec, &mut scope, "campaign.try_run"));
            model_time.0.push(wall.last());
            let (hash, descriptor) = (self.fingerprints[i], &self.descriptors[i]);
            wall.time(|| {
                span(&mut scope, "campaign.record", || match &outcome {
                    RunOutcome::Completed(report) => store.record_done(hash, descriptor, report),
                    RunOutcome::Stuck(stuck) => store.record_stuck(hash, descriptor, stuck),
                })
            })
            .expect("campaign store checkpoints");
            outcomes.push(outcome);
        }
        wall.time(|| {
            span(&mut scope, "campaign.finalize", || {
                store.finalize(&self.fingerprints)
            })
        })
        .expect("campaign store finalizes");
        wall.time(|| {
            span(&mut scope, "campaign.report", || {
                generate_reports(&self.store, &self.store.join("reports"), &FigureId::ALL)
            })
        })
        .expect("campaign reports render");

        let got = StoreBytes::load(&self.store, &self.fingerprints);
        let reference = self.reference.as_ref();
        for (i, outcome) in outcomes.iter().enumerate() {
            let label = format!(
                "isca00-campaign/{}/{}",
                self.runs[i].source.name(),
                self.runs[i].policy.name()
            );
            tally.expect_run(&label, outcome, |_| match reference {
                Some(r) => compare_optional(&label, got.docs[i].as_deref(), r.docs[i].as_deref()),
                None => Ok(()),
            });
        }
        tally.check(match reference {
            Some(r) => {
                got.artifacts
                    .iter()
                    .zip(&r.artifacts)
                    .try_for_each(|((name, got), (_, want))| {
                        compare_optional(
                            &format!("isca00-campaign/{name}"),
                            got.as_deref(),
                            want.as_deref(),
                        )
                    })
            }
            None => Ok(()),
        });
        if self.reference.is_none() {
            self.reference = Some(got);
        }

        let reports: Vec<&RunReport> = outcomes
            .iter()
            .filter_map(|o| match o {
                RunOutcome::Completed(r) => Some(&**r),
                RunOutcome::Stuck(_) => None,
            })
            .collect();
        let mut sim = SimTotals::default();
        reports.iter().for_each(|r| sim.add(r));
        Rep {
            wall,
            model_time,
            ops: self.ops,
            touches: reports.iter().map(|r| touches(&r.metrics)).sum(),
            serial_wall_s: None,
            model: suite_model(&reports),
            sim,
        }
    }
}

/// Fig. 6 / Fig. 9 averages over the suite: the arithmetic mean over
/// benchmarks, as the paper and the committed reports take them.
fn suite_model(reports: &[&RunReport]) -> Model {
    let by = |policy: &str| -> BTreeMap<&str, &Metrics> {
        reports
            .iter()
            .filter(|r| r.policy == policy)
            .map(|r| (r.benchmark.as_str(), &r.metrics))
            .collect()
    };
    let (base, dsi, ltp) = (by("base"), by("dsi"), by("ltp"));
    let avg = |runs: &BTreeMap<&str, &Metrics>, f: fn(&Metrics) -> f64| {
        mean(&runs.values().map(|m| f(m)).collect::<Vec<_>>())
    };
    let speedups: Vec<f64> = ltp
        .iter()
        .filter_map(|(b, m)| base.get(b).map(|base| m.speedup_vs(base)))
        .collect();
    Model {
        ltp_predicted_pct: avg(&ltp, Metrics::predicted_pct),
        ltp_premature_pct: avg(&ltp, Metrics::mispredicted_pct),
        ltp_speedup_pct: if speedups.is_empty() {
            0.0
        } else {
            (mean(&speedups) - 1.0) * 100.0
        },
        dsi_predicted_pct: avg(&dsi, Metrics::predicted_pct),
        dsi_premature_pct: avg(&dsi, Metrics::mispredicted_pct),
    }
}

/// The LTP model statistics of one machine run.
fn run_model(report: &RunReport) -> Model {
    Model {
        ltp_predicted_pct: report.metrics.predicted_pct(),
        ltp_premature_pct: report.metrics.mispredicted_pct(),
        ..Model::default()
    }
}

// ---- shard2-em3d128 --------------------------------------------------------

/// `shard2-em3d128`: em3d under ltp at 128 nodes on 2 shards, paired with
/// the same spec run serially (alternating which runs first).
pub struct Shard2 {
    serial: ExperimentSpec,
    sharded: ExperimentSpec,
    ops: u64,
    reference: Option<String>,
    reps: usize,
}

impl Workload for Shard2 {
    fn setup(ctx: &Ctx, mut scope: Option<Scope<'_>>, _: &mut Steps) -> Result<Self, String> {
        let serial = ExperimentSpec::builder(Benchmark::Em3d)
            .policy_spec("ltp")
            .map_err(|e| e.to_string())?
            .nodes(SHARD_NODES)
            .iterations(SHARD_ITERATIONS)
            .seed(ctx.seed)
            .build();
        let sharded = ExperimentSpec {
            shards: SHARDS,
            ..serial.clone()
        };
        let ops = span(&mut scope, "workloads.count_ops", || {
            drained_ops(Benchmark::Em3d, &serial.workload)
        });
        Ok(Shard2 {
            serial,
            sharded,
            ops,
            reference: None,
            reps: 0,
        })
    }

    fn runs_per_rep(&self) -> u64 {
        2
    }

    fn rep(&mut self, tally: &mut Tally, mut scope: Option<Scope<'_>>) -> Rep {
        let serial_first = self.reps % 2 == 0;
        self.reps += 1;
        let mut timed = |spec: &ExperimentSpec, name: &str| {
            let mut steps = Steps::default();
            let outcome = steps.time(|| run(spec, &mut scope, name));
            (outcome, steps)
        };
        let ((serial, serial_s), (sharded, sharded_s)) = if serial_first {
            let s = timed(&self.serial, "shard.serial_run");
            (s, timed(&self.sharded, "shard.sharded_run"))
        } else {
            let p = timed(&self.sharded, "shard.sharded_run");
            (timed(&self.serial, "shard.serial_run"), p)
        };

        if let (None, RunOutcome::Completed(report)) = (&self.reference, &serial) {
            self.reference = Some(report.to_json());
        }
        let reference = self.reference.as_deref().unwrap_or_default();
        tally.expect_run(
            "shard2-em3d128/serial",
            &serial,
            renders_as("shard2-em3d128/serial vs first repetition", reference),
        );
        tally.expect_run(
            "shard2-em3d128/2-shard",
            &sharded,
            renders_as("shard2-em3d128/2-shard vs serial", reference),
        );

        let mut rep = Rep {
            wall: sharded_s.clone(),
            model_time: sharded_s,
            ops: self.ops,
            serial_wall_s: Some(serial_s.total()),
            ..Rep::default()
        };
        if let RunOutcome::Completed(report) = &sharded {
            rep.touches = touches(&report.metrics);
            rep.model = run_model(report);
            rep.sim.add(report);
        }
        if let RunOutcome::Completed(report) = &serial {
            rep.sim.add(report);
        }
        rep
    }
}

// ---- predict-zoo -----------------------------------------------------------

type RowKey = (String, String);

fn untimed(mut row: PredictRow) -> (RowKey, PredictRow) {
    row.elapsed_nanos = 0;
    ((row.workload.clone(), row.spec.clone()), row)
}

/// `predict-zoo`: the default predictor zoo over the nine kernels at 32
/// nodes through the offline replay, plus regeneration of the committed
/// tournament report.
pub struct Zoo {
    factories: Vec<Arc<dyn PolicyFactory>>,
    /// Ops one tournament replays: the suite's ops once per predictor.
    ops: u64,
    params: WorkloadParams,
    golden_spec: PredictSpec,
    golden_md: String,
    reference: Option<BTreeMap<RowKey, PredictRow>>,
}

impl Zoo {
    fn spec(&self, benchmarks: &[Benchmark], factories: &[Arc<dyn PolicyFactory>]) -> PredictSpec {
        factories
            .iter()
            .fold(
                PredictSpec::new().benchmarks(benchmarks.iter().copied()),
                |spec, f| spec.policy(Arc::clone(f)),
            )
            .geometry(self.params)
            .serial()
    }
}

impl Workload for Zoo {
    fn setup(ctx: &Ctx, mut scope: Option<Scope<'_>>, _: &mut Steps) -> Result<Self, String> {
        let registry = PolicyRegistry::with_builtins();
        let factories = DEFAULT_ZOO
            .iter()
            .map(|spec| registry.parse(spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let trace = span(&mut scope, "workloads.trace_load", || {
            Trace::load(GOLDEN_PREDICTORS_TRACE)
        })
        .map_err(|e| format!("{GOLDEN_PREDICTORS_TRACE}: {e}"))?;
        let golden_spec = PredictSpec::new()
            .trace(Arc::new(trace))
            .default_zoo(&registry)
            .map_err(|e| e.to_string())?
            .serial();
        let golden_md = String::from_utf8(read(Path::new(GOLDEN_PREDICTORS))?)
            .map_err(|e| format!("{GOLDEN_PREDICTORS}: {e}"))?;
        let params = WorkloadParams {
            nodes: PAPER_NODES,
            seed: ctx.seed,
            iterations: None,
        };
        let suite_ops: u64 = span(&mut scope, "workloads.count_ops", || {
            Benchmark::ALL
                .iter()
                .map(|&b| drained_ops(b, &params))
                .sum()
        });
        Ok(Zoo {
            ops: suite_ops * factories.len() as u64,
            factories,
            params,
            golden_spec,
            golden_md,
            reference: None,
        })
    }

    fn runs_per_rep(&self) -> u64 {
        (Benchmark::ALL.len() * self.factories.len() + 1) as u64
    }

    fn rep(&mut self, tally: &mut Tally, mut scope: Option<Scope<'_>>) -> Rep {
        let mut wall = Steps::default();
        let mut rows = Vec::new();
        match &mut scope {
            // One tournament per kernel: the same jobs as one tournament
            // over the suite, in the same row order, timed as nine steps.
            None => {
                for benchmark in Benchmark::ALL {
                    rows.extend(wall.time(|| self.spec(&[benchmark], &self.factories).execute()));
                }
            }
            // One tournament per predictor, so each gets its own span.
            Some(s) => {
                for factory in &self.factories {
                    let traced = Arc::new(TracedPolicyFactory::new(Arc::clone(factory)));
                    let id = s
                        .tracer
                        .open(&format!("predict.{}", factory.name()), Some(s.parent));
                    rows.extend(wall.time(|| {
                        self.spec(&Benchmark::ALL, &[traced.clone() as Arc<dyn PolicyFactory>])
                            .execute()
                    }));
                    s.tracer.close(id);
                    traced.emit(s.tracer, id);
                }
            }
        }
        let model_time = wall.clone();
        let md = wall.time(|| {
            let golden_rows = span(&mut scope, "predict.golden_execute", || {
                self.golden_spec.execute()
            });
            render_report(&self.golden_spec, &golden_rows)
        });

        if let Some(s) = &mut scope {
            // The cost floor of the model alone, and the oracle's input.
            for benchmark in Benchmark::ALL {
                let programs = || {
                    ltp_workloads::WorkloadSource::from(benchmark)
                        .programs(&self.params)
                        .expect("synthetic kernels build at 32 nodes")
                };
                let mut nulls: Vec<Box<dyn SelfInvalidationPolicy>> = (0..self.params.nodes)
                    .map(|_| Box::new(ltp_core::NullPolicy) as Box<dyn SelfInvalidationPolicy>)
                    .collect();
                let p = programs();
                s.tracer.time("predict.null_replay", Some(s.parent), || {
                    replay(p, &mut nulls, false)
                });
                let p = programs();
                s.tracer
                    .time("predict.ground_truth", Some(s.parent), || ground_truth(p));
            }
        }

        let touches = rows.iter().map(|r| r.stats.touches).sum();
        let ltp: Vec<&PredictRow> = rows
            .iter()
            .filter(|r| r.spec == "ltp" || r.spec.starts_with("ltp:"))
            .collect();
        let coverage = |r: &PredictRow| r.stats.coverage_pct().unwrap_or(0.0);
        let premature = |r: &PredictRow| {
            let opportunities = r.stats.correct + r.stats.not_predicted;
            if opportunities == 0 {
                0.0
            } else {
                r.stats.premature as f64 * 100.0 / opportunities as f64
            }
        };
        let model = Model {
            ltp_predicted_pct: mean(&ltp.iter().map(|r| coverage(r)).collect::<Vec<_>>()),
            ltp_premature_pct: mean(&ltp.iter().map(|r| premature(r)).collect::<Vec<_>>()),
            ..Model::default()
        };

        let got: BTreeMap<RowKey, PredictRow> = rows.into_iter().map(untimed).collect();
        let reference = self.reference.get_or_insert_with(|| got.clone());
        for ((workload, spec), row) in reference.iter() {
            let label = format!("predict-zoo/{workload}/{spec}");
            tally.check(match got.get(&(workload.clone(), spec.clone())) {
                Some(g) if g == row => Ok(()),
                Some(_) => Err(format!("{label}: tallies differ from the first repetition")),
                None => Err(format!("{label}: row missing")),
            });
        }
        tally.check(same_bytes(
            "predict-zoo/reports/predictors.md",
            md.as_bytes(),
            self.golden_md.as_bytes(),
        ));
        Rep {
            wall,
            model_time,
            ops: self.ops,
            touches,
            serial_wall_s: None,
            model,
            sim: SimTotals::default(),
        }
    }
}

// ---- stream-random-probed --------------------------------------------------

/// `stream-random-probed`: a seeded random trace at 32 nodes replayed under
/// ltp from its file through `StreamingTrace`, with the CI probe set.
pub struct Stream {
    spec: ExperimentSpec,
    reference: String,
    ops: u64,
}

impl Workload for Stream {
    fn setup(ctx: &Ctx, mut scope: Option<Scope<'_>>, steps: &mut Steps) -> Result<Self, String> {
        let params = WorkloadParams {
            nodes: PAPER_NODES,
            seed: ctx.seed,
            iterations: None,
        };
        let trace = steps.time(|| {
            span(&mut scope, "workloads.trace_gen", || {
                random_trace(&params, STREAM_OPS_PER_NODE)
            })
        });
        let path = ctx.work.join("random.ltrace");
        let shown = path.display().to_string();
        steps
            .time(|| span(&mut scope, "workloads.trace_save", || trace.save(&path)))
            .map_err(|e| format!("{shown}: {e}"))?;
        let loaded = steps
            .time(|| span(&mut scope, "workloads.trace_load", || Trace::load(&path)))
            .map_err(|e| format!("{shown}: {e}"))?;
        let streaming = steps
            .time(|| {
                span(&mut scope, "workloads.trace_open", || {
                    StreamingTrace::open(&path)
                })
            })
            .map_err(|e| format!("{shown}: {e}"))?;
        let with_probes = |builder: ltp_system::ExperimentBuilder| {
            STREAM_PROBES
                .iter()
                .try_fold(
                    builder.policy_spec("ltp").map_err(|e| e.to_string())?,
                    |b, p| b.probe_spec(p).map_err(|e| e.to_string()),
                )
                .map(ltp_system::ExperimentBuilder::build)
        };
        let buffered = with_probes(ExperimentSpec::replay(Arc::new(loaded)))?;
        let spec = with_probes(ExperimentSpec::replay_streaming(Arc::new(streaming)))?;
        let buffered_run =
            steps.time(|| span(&mut scope, "reference.buffered_run", || buffered.try_run()));
        let reference = match buffered_run {
            RunOutcome::Completed(report) => report.to_json(),
            RunOutcome::Stuck(_) => return Err("buffered reference replay is stuck".to_string()),
        };
        let ops = spec.estimated_ops().map_or(0, |e| e.ops);
        Ok(Stream {
            spec,
            reference,
            ops,
        })
    }

    fn runs_per_rep(&self) -> u64 {
        1
    }

    fn rep(&mut self, tally: &mut Tally, mut scope: Option<Scope<'_>>) -> Rep {
        let mut wall = Steps::default();
        let outcome = wall.time(|| run(&self.spec, &mut scope, "stream.try_run"));
        tally.expect_run(
            "stream-random-probed",
            &outcome,
            renders_as("stream-random-probed vs buffered replay", &self.reference),
        );
        let mut rep = Rep {
            model_time: wall.clone(),
            wall,
            ops: self.ops,
            ..Rep::default()
        };
        if let RunOutcome::Completed(report) = &outcome {
            rep.touches = touches(&report.metrics);
            rep.model = run_model(report);
            rep.sim.add(report);
        }
        rep
    }
}
