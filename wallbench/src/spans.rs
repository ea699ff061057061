//! Outside-in layer tracing for the traced run.
//!
//! Spans are recorded from this crate only, around calls into the
//! program's public API: coarse calls (`try_run`, `record_done`,
//! `execute`, `open`, ...) become one span each, and the hot per-call
//! interfaces (`Program::next_op`, the policy hooks, `Probe::on_event`) are
//! wrapped so that each run folds into one aggregate span per layer and
//! thread class — a call count and summed nanoseconds — which keeps memory
//! bounded. Everything stays in memory until [`Tracer::write_jsonl`].

use std::cell::Cell;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ltp_core::{
    BlockId, PolicyFactory, PredictorConfig, SelfInvalidationPolicy, StorageStats, SyncKind, Touch,
    VerifyOutcome,
};
use ltp_dsm::SystemConfig;
use ltp_sim::{Cycle, StopReason};
use ltp_system::probe::{Probe, ProbeCtx, RunInfo, SimEvent};
use ltp_system::{ExperimentSpec, Machine, MetricsSection, RunOutcome, RunReport, StuckReport};
use ltp_workloads::{Op, Program};

use crate::stats::{Span, ThreadClass};

/// The cycle horizon `ExperimentSpec::try_run` gives every run (a private
/// constant of `ltp-system`; a traced run whose output differed because of
/// it would fail its byte check).
const HORIZON_CYCLES: u64 = 2_000_000_000;

thread_local! {
    static ON_CALLER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as the benchmark's calling thread.
pub fn mark_caller_thread() {
    ON_CALLER.with(|c| c.set(true));
}

fn current_class() -> usize {
    usize::from(!ON_CALLER.with(Cell::get))
}

const CLASSES: [ThreadClass; 2] = [ThreadClass::Caller, ThreadClass::Other];

/// Calls and nanoseconds of one hot interface, per thread class.
#[derive(Debug, Default)]
pub struct Hot {
    calls: [AtomicU64; 2],
    ns: [AtomicU64; 2],
}

/// A wrapper's private tally, folded into a [`Hot`] when it is dropped so
/// the hot path touches no shared cache line.
#[derive(Debug, Default)]
struct Local {
    calls: [u64; 2],
    ns: [u64; 2],
}

impl Local {
    fn add(&mut self, start: Instant) {
        let class = current_class();
        self.calls[class] += 1;
        self.ns[class] += start.elapsed().as_nanos() as u64;
    }

    fn flush_into(&self, hot: &Hot) {
        // Relaxed: statistics only, read after every wrapper is dropped
        // and the run's threads are joined.
        for class in 0..2 {
            hot.calls[class].fetch_add(self.calls[class], Ordering::Relaxed);
            hot.ns[class].fetch_add(self.ns[class], Ordering::Relaxed);
        }
    }
}

/// Aggregate counters of one traced run (or one traced predictor job).
#[derive(Debug, Default)]
pub struct RunCounters {
    next_op: Hot,
    on_touch: Hot,
    on_sync: Hot,
    on_invalidation: Hot,
    on_verification: Hot,
    on_event: Hot,
    probe_finish: Hot,
    fires: AtomicU64,
    verify_correct: AtomicU64,
}

impl RunCounters {
    /// Emits one aggregate span per (layer, thread class) that saw calls,
    /// as children of `run` (probe finishing under `finish` when given).
    fn emit(&self, tracer: &mut Tracer, run: usize, finish: Option<usize>) {
        let hot = [
            ("workloads.next_op", &self.next_op, run),
            ("core.on_touch", &self.on_touch, run),
            ("core.on_sync", &self.on_sync, run),
            ("core.on_invalidation", &self.on_invalidation, run),
            ("core.on_verification", &self.on_verification, run),
            ("probe.on_event", &self.on_event, run),
            ("probe.finish", &self.probe_finish, finish.unwrap_or(run)),
        ];
        let (start_ns, end_ns) = (tracer.spans[run].start_ns, tracer.now_ns());
        for (name, hot, parent) in hot {
            for (class, thread) in CLASSES.iter().enumerate() {
                let calls = hot.calls[class].load(Ordering::Relaxed);
                if calls > 0 {
                    tracer.spans.push(Span {
                        name: name.to_string(),
                        parent: Some(parent),
                        thread: *thread,
                        start_ns,
                        end_ns,
                        calls,
                        sum_ns: hot.ns[class].load(Ordering::Relaxed),
                    });
                }
            }
        }
        for (name, counter) in [
            ("core.fires", &self.fires),
            ("core.verify_correct", &self.verify_correct),
        ] {
            tracer.count(name, run, counter.load(Ordering::Relaxed));
        }
    }
}

/// The span recorder of one traced benchmark invocation.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a caller-thread span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            thread: ThreadClass::Caller,
            start_ns: now,
            end_ns: now,
            calls: 1,
            sum_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.sum_ns = now - span.start_ns;
    }

    /// Runs `f` inside a caller-thread span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records a pure count (no time) under `parent`.
    pub fn count(&mut self, name: &str, parent: usize, calls: u64) {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            thread: ThreadClass::Caller,
            start_ns: now,
            end_ns: now,
            calls,
            sum_ns: 0,
        });
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"thread\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{},\"sum_ns\":{}}}",
                s.name,
                s.thread.as_str(),
                s.start_ns,
                s.end_ns,
                s.calls,
                s.sum_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// A program whose `next_op` calls are timed.
#[derive(Debug)]
struct TracedProgram {
    inner: Box<dyn Program>,
    next_op: Local,
    counters: Arc<RunCounters>,
}

impl Program for TracedProgram {
    fn next_op(&mut self) -> Option<Op> {
        let start = Instant::now();
        let op = self.inner.next_op();
        self.next_op.add(start);
        op
    }

    fn len_hint(&self) -> Option<u64> {
        self.inner.len_hint()
    }
}

impl Drop for TracedProgram {
    fn drop(&mut self) {
        self.next_op.flush_into(&self.counters.next_op);
    }
}

/// A policy whose hooks are timed and whose fires and verdicts are counted.
#[derive(Debug)]
struct TracedPolicy {
    inner: Box<dyn SelfInvalidationPolicy>,
    on_touch: Local,
    on_sync: Local,
    on_invalidation: Local,
    on_verification: Local,
    fires: u64,
    verify_correct: u64,
    counters: Arc<RunCounters>,
}

impl SelfInvalidationPolicy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_touch(&mut self, touch: Touch) -> bool {
        let start = Instant::now();
        let fire = self.inner.on_touch(touch);
        self.on_touch.add(start);
        self.fires += u64::from(fire);
        fire
    }

    fn on_invalidation(&mut self, block: BlockId) {
        let start = Instant::now();
        self.inner.on_invalidation(block);
        self.on_invalidation.add(start);
    }

    fn on_sync(&mut self, kind: SyncKind) -> Vec<BlockId> {
        let start = Instant::now();
        let flush = self.inner.on_sync(kind);
        self.on_sync.add(start);
        self.fires += flush.len() as u64;
        flush
    }

    fn on_verification(&mut self, block: BlockId, outcome: VerifyOutcome) {
        let start = Instant::now();
        self.inner.on_verification(block, outcome);
        self.on_verification.add(start);
        self.verify_correct += u64::from(outcome == VerifyOutcome::Correct);
    }

    fn wants_ground_truth(&self) -> bool {
        self.inner.wants_ground_truth()
    }

    fn prime_last_touches(&mut self, last_touches: &[(BlockId, u64)]) {
        self.inner.prime_last_touches(last_touches);
    }

    fn storage(&self) -> StorageStats {
        self.inner.storage()
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        let c = &self.counters;
        self.on_touch.flush_into(&c.on_touch);
        self.on_sync.flush_into(&c.on_sync);
        self.on_invalidation.flush_into(&c.on_invalidation);
        self.on_verification.flush_into(&c.on_verification);
        c.fires.fetch_add(self.fires, Ordering::Relaxed);
        c.verify_correct
            .fetch_add(self.verify_correct, Ordering::Relaxed);
    }
}

fn traced_policy(
    inner: Box<dyn SelfInvalidationPolicy>,
    counters: &Arc<RunCounters>,
) -> Box<dyn SelfInvalidationPolicy> {
    Box::new(TracedPolicy {
        inner,
        on_touch: Local::default(),
        on_sync: Local::default(),
        on_invalidation: Local::default(),
        on_verification: Local::default(),
        fires: 0,
        verify_correct: 0,
        counters: Arc::clone(counters),
    })
}

/// A policy factory building [`TracedPolicy`]s; name and spec are the
/// wrapped factory's, so fingerprints and reports are unchanged.
#[derive(Debug)]
pub struct TracedPolicyFactory {
    inner: Arc<dyn PolicyFactory>,
    counters: Arc<RunCounters>,
}

impl TracedPolicyFactory {
    /// Wraps `inner`; every policy it builds reports into fresh counters.
    pub fn new(inner: Arc<dyn PolicyFactory>) -> TracedPolicyFactory {
        TracedPolicyFactory {
            inner,
            counters: Arc::default(),
        }
    }

    /// Emits the counters gathered so far as children of `parent`.
    pub fn emit(&self, tracer: &mut Tracer, parent: usize) {
        self.counters.emit(tracer, parent, None);
    }
}

impl PolicyFactory for TracedPolicyFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn spec(&self) -> String {
        self.inner.spec()
    }

    fn build(&self, config: PredictorConfig) -> Box<dyn SelfInvalidationPolicy> {
        traced_policy(self.inner.build(config), &self.counters)
    }
}

/// A probe whose event dispatch and finishing are timed.
#[derive(Debug)]
struct TracedProbe {
    inner: Option<Box<dyn Probe>>,
    on_event: Local,
    finish: Local,
    counters: Arc<RunCounters>,
}

impl Probe for TracedProbe {
    fn on_event(&mut self, ctx: &ProbeCtx, event: &SimEvent) {
        let start = Instant::now();
        if let Some(inner) = &mut self.inner {
            inner.on_event(ctx, event);
        }
        self.on_event.add(start);
    }

    fn finish(mut self: Box<Self>) -> Option<MetricsSection> {
        let start = Instant::now();
        let section = self.inner.take().and_then(|inner| inner.finish());
        self.finish.add(start);
        section
    }
}

impl Drop for TracedProbe {
    fn drop(&mut self) {
        self.on_event.flush_into(&self.counters.on_event);
        self.finish.flush_into(&self.counters.probe_finish);
    }
}

/// Runs `spec` exactly as `ExperimentSpec::try_run` does, but on a machine
/// assembled here from wrapped programs, policies and probes, recording
/// `machine.programs`, `machine.run` and `machine.finish` spans (plus one
/// `shard.busy` span per worker shard) under `parent`.
pub fn traced_try_run(spec: &ExperimentSpec, tracer: &mut Tracer, parent: usize) -> RunOutcome {
    let workload = spec.source.effective_params(spec.workload);
    let config = SystemConfig::builder()
        .nodes(workload.nodes)
        .directory(spec.directory)
        .barrier_fanin(spec.barrier_fanin)
        .build()
        .expect("valid node count and directory organization");
    let counters = Arc::new(RunCounters::default());
    let policies = (0..workload.nodes)
        .map(|_| traced_policy(spec.policy.build(spec.predictor), &counters))
        .collect();
    let programs = tracer.time("workloads.programs", Some(parent), || {
        spec.source
            .programs(&workload)
            .unwrap_or_else(|e| panic!("{e}"))
    });
    let programs = programs
        .into_iter()
        .map(|inner| {
            Box::new(TracedProgram {
                inner,
                next_op: Local::default(),
                counters: Arc::clone(&counters),
            }) as Box<dyn Program>
        })
        .collect();
    let mut machine = Machine::with_shards(config, policies, programs, spec.shards);
    machine.attach_core_metrics();
    let info = RunInfo {
        workload_name: spec.source.name().to_string(),
        workload,
        directory: spec.directory,
    };
    for factory in &spec.probes {
        machine.attach_probe(Box::new(TracedProbe {
            inner: Some(factory.build(&info)),
            on_event: Local::default(),
            finish: Local::default(),
            counters: Arc::clone(&counters),
        }));
    }

    let run = tracer.open("machine.run", Some(parent));
    let summary = machine.run(Cycle::new(HORIZON_CYCLES));
    tracer.close(run);
    if machine.shards() > 1 {
        let (start_ns, end_ns) = (tracer.spans[run].start_ns, tracer.spans[run].end_ns);
        for busy in machine.shard_busy_ns() {
            tracer.spans.push(Span {
                name: "shard.busy".to_string(),
                parent: Some(run),
                thread: ThreadClass::Other,
                start_ns,
                end_ns,
                calls: 1,
                sum_ns: busy,
            });
        }
    }

    if summary.stop == StopReason::HorizonReached && !machine.all_finished() {
        let stuck_nodes = machine.stuck_nodes();
        drop(machine); // flushes the wrappers' tallies
        counters.emit(tracer, run, None);
        return RunOutcome::Stuck(Box::new(StuckReport {
            benchmark: spec.source.name().to_string(),
            policy: spec.policy.name().to_string(),
            policy_spec: spec.policy.spec(),
            directory: spec.directory,
            workload,
            horizon_cycles: HORIZON_CYCLES,
            nodes_finished: workload.nodes - stuck_nodes.len() as u16,
            stuck_nodes,
            events_handled: summary.events_handled,
        }));
    }
    assert!(machine.all_finished(), "drained but processors unfinished");
    let finish = tracer.open("machine.finish", Some(parent));
    let (metrics, sections) = machine.finish();
    tracer.close(finish);
    counters.emit(tracer, run, Some(finish));
    RunOutcome::Completed(Box::new(RunReport {
        benchmark: spec.source.name().to_string(),
        policy: spec.policy.name().to_string(),
        policy_spec: spec.policy.spec(),
        directory: spec.directory,
        workload,
        metrics: metrics.expect("core metrics probe attached"),
        sections,
        events_handled: summary.events_handled,
    }))
}
