//! The machine coordinator: shards, windows, and global synchronization.
//!
//! [`Machine`] assembles the full CC-NUMA system — CPUs, caches, policies,
//! directories, protocol engines, and network interfaces — as a set of
//! [`crate::shard`] slices and drives them through conservatively
//! synchronized clock windows:
//!
//! 1. pick the next window `[kL, (k+1)L)` containing the globally earliest
//!    pending event (`L` = minimum cross-node latency, the lookahead);
//! 2. run every shard's slice of that window — independently, spread over
//!    `min(shards, available cores)` threads, the calling one included;
//! 3. at the boundary, exchange cross-shard messages, merge and replay the
//!    shards' probe logs, and fold barrier arrivals into the global barrier
//!    state (releases are scheduled at the boundary cycle).
//!
//! Because window boundaries lie on a fixed grid, cross-shard messages are
//! stamped with content-derived FIFO keys, and same-cycle events pop in
//! deterministic [`Event`] key order, the run is **bit-identical for every
//! shard count** — `--shards 8` produces the same `RunReport` bytes as a
//! serial run. The serial path *is* the 1-shard instance of the same
//! window loop, run on the calling thread alone.
//!
//! Locks are executed as test-and-test-and-set loops over their shared
//! block, with the lock value carried by the block's write-token parity
//! (odd = held), so lock state lives entirely in coherence state and needs
//! no global word — essential for sharding, and faithful to how the paper's
//! benchmarks actually synchronize.
//!
//! The machine keeps **no metrics of its own**: every observable action is
//! emitted as a [`SimEvent`]. Attach the built-in
//! [`crate::probes::CoreMetricsProbe`] via [`Machine::attach_core_metrics`]
//! to reconstruct the classic flat [`Metrics`] (collected per shard,
//! statically dispatched, merged at the end); attach any number of
//! [`Probe`]s for everything else — generic probes observe the merged
//! cross-shard event stream in exact serial order.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Mutex, MutexGuard};
use std::thread::JoinHandle;

use ltp_core::{BlockId, NodeId, SelfInvalidationPolicy};
use ltp_dsm::{CombiningTree, SystemConfig};
use ltp_sim::{Cycle, RunSummary, StopReason};
use ltp_workloads::Program;

use crate::metrics::Metrics;
use crate::probe::{MetricsSection, Probe, ProbeCtx, SimEvent};
use crate::probes::CoreMetricsProbe;
use crate::shard::channel::{ProbeEntry, SpinBarrier, Stamped, SyncEvent, SyncRecord};
use crate::shard::clock::WindowClock;
use crate::shard::{Partition, Shard};

pub use crate::shard::Event;

/// Global barrier bookkeeping, folded from the shards' per-window logs.
///
/// All live (unfinished) nodes must arrive at the *same* barrier id before
/// it releases; a second id showing up while one is collecting is a
/// malformed workload and is rejected with a hard error (not a
/// `debug_assert`), because silently merging distinct barriers would corrupt
/// the release bookkeeping.
///
/// Arrival counting runs through a [`CombiningTree`] (fan-in from
/// [`SystemConfig::barrier_fanin`]) instead of a central wait-set, so a
/// 4096-node barrier costs O(log n) per arrival rather than funnelling
/// every node through one counter. The tree only changes *how* completion
/// is detected: records still fold in the deterministic `(cycle, node)`
/// order and releases are still scheduled at the window-boundary cycle, so
/// release timing — and therefore every simulated cycle count — is
/// bit-identical to the central wait-set at any shard count.
#[derive(Debug)]
struct GlobalSync {
    tree: CombiningTree,
    /// The barrier currently collecting arrivals, with its waiters so far
    /// (kept alongside the tree for the release event and resume fan-out).
    waiting: Option<(u32, Vec<u16>)>,
}

impl GlobalSync {
    fn new(total: u16, fanin: u16) -> Self {
        GlobalSync {
            tree: CombiningTree::new(total, fanin),
            waiting: None,
        }
    }

    /// Folds one window's synchronization records (pre-sorted by
    /// `(cycle, node)` — the deterministic global arrival order) into the
    /// barrier state, returning every barrier that released, in release
    /// order, with its waiters sorted by node index.
    fn fold(&mut self, records: &[SyncRecord]) -> Vec<(u32, Vec<u16>)> {
        let mut released = Vec::new();
        for r in records {
            let complete = match r.ev {
                // A finish shrinks the live population, which can be what
                // completes a partially-arrived barrier.
                SyncEvent::Finish => self.tree.retire(r.node),
                SyncEvent::Arrive(id) => {
                    match &mut self.waiting {
                        Some((other, waiters)) if *other != id => panic!(
                            "{} arrived at barrier {id} while {} node(s) wait at distinct \
                             barrier {other}: the workload skips or reorders barriers",
                            NodeId::new(r.node),
                            waiters.len()
                        ),
                        Some((_, waiters)) => waiters.push(r.node),
                        None => self.waiting = Some((id, vec![r.node])),
                    }
                    self.tree.arrive(r.node)
                }
            };
            // The tree also reports completion when the *last* live node
            // retires with nothing collecting; only a real barrier releases.
            if complete && self.waiting.is_some() {
                let (id, mut waiters) = self.waiting.take().expect("checked above");
                waiters.sort_unstable();
                released.push((id, waiters));
                self.tree.reset_episode();
            }
        }
        released
    }
}

/// Bounded depth of the probe-observer channel, in batches. Deep enough to
/// absorb bursty batches without stalling the simulation, shallow enough to
/// bound the memory held by in-flight logs.
const OBSERVER_DEPTH: usize = 4;

/// Entries accumulated before a batch is handed to the observer thread.
/// Channel hops cost microseconds (mutex + thread wake), so windows are
/// batched until the handoff cost is noise per event.
const OBSERVER_BATCH: usize = 32 * 1024;

/// One unit of work for the probe-observer thread, sent in simulation
/// order.
enum ObserverMsg {
    /// Accumulated per-window, per-shard event logs (chronological outer
    /// order, shard order inner, each unsorted — the observer merges them
    /// into serial emission order).
    Batch(Vec<Vec<ProbeEntry>>),
    /// A barrier release folded at a window boundary; sent after a flush,
    /// so it sits exactly where the serial replay would put it.
    Sync { event: SimEvent, now: Cycle },
}

/// The observer thread disappeared mid-run — a probe panicked (e.g.
/// `check:strict` on a violation). The run stops and the panic payload is
/// re-raised when the sink is finished.
struct ObserverDead;

/// The asynchronous half of [`ProbeSink`]: a dedicated thread that owns the
/// probes for the duration of a run.
struct Observer {
    tx: SyncSender<ObserverMsg>,
    /// Emptied log buffers coming back from the observer for reuse.
    recycle: Receiver<Vec<ProbeEntry>>,
    thread: JoinHandle<Vec<Box<dyn Probe>>>,
    /// Windows accumulated since the last send (outer: chronological,
    /// inner: shard order).
    pending: Vec<Vec<ProbeEntry>>,
    pending_entries: usize,
}

impl Observer {
    /// Moves `probes` onto a fresh observer thread.
    fn spawn(probes: Vec<Box<dyn Probe>>, nodes: u16) -> Self {
        let (tx, rx) = mpsc::sync_channel::<ObserverMsg>(OBSERVER_DEPTH);
        let (recycle_tx, recycle) = mpsc::channel::<Vec<ProbeEntry>>();
        let thread = std::thread::spawn(move || {
            let mut probes = probes;
            let mut scratch: Vec<ProbeEntry> = Vec::new();
            while let Ok(msg) = rx.recv() {
                match msg {
                    ObserverMsg::Batch(mut logs) => {
                        scratch.clear();
                        for log in &mut logs {
                            scratch.append(log);
                        }
                        for log in logs {
                            // The coordinator may already be gone; buffers
                            // then simply drop.
                            let _ = recycle_tx.send(log);
                        }
                        replay(&mut scratch, &mut probes, nodes);
                    }
                    ObserverMsg::Sync { event, now } => {
                        let ctx = ProbeCtx { now, nodes };
                        for p in &mut probes {
                            p.on_event(&ctx, &event);
                        }
                    }
                }
            }
            probes
        });
        Observer {
            tx,
            recycle,
            thread,
            pending: Vec::new(),
            pending_entries: 0,
        }
    }

    /// Sends the accumulated batch (if any) to the observer thread.
    fn flush(&mut self) -> Result<(), ObserverDead> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.pending_entries = 0;
        self.tx
            .send(ObserverMsg::Batch(std::mem::take(&mut self.pending)))
            .map_err(|_| ObserverDead)
    }

    /// Joins the observer, recovering the probes. Re-raises the probe's
    /// panic if the thread died on one.
    fn join(mut self) -> Vec<Box<dyn Probe>> {
        let _ = self.flush();
        let Observer {
            tx,
            recycle,
            thread,
            ..
        } = self;
        drop(tx); // close the channel so the thread drains and exits
        drop(recycle);
        match thread.join() {
            Ok(probes) => probes,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// Sorts one batch of log entries into serial emission order and dispatches
/// it. `(at, key)` is globally unique per cycle and the sort is stable, so
/// one handler's emissions stay contiguous and in order; batches cover
/// disjoint ascending window ranges, so batching does not reorder.
fn replay(entries: &mut [ProbeEntry], probes: &mut [Box<dyn Probe>], nodes: u16) {
    entries.sort_by_key(|e| (e.at, e.key));
    for e in entries.iter() {
        let ctx = ProbeCtx { now: e.now, nodes };
        for p in probes.iter_mut() {
            p.on_event(&ctx, &e.event);
        }
    }
}

/// Where window probe logs go: a dedicated observer thread when the host
/// has cores to spare, the calling thread otherwise.
///
/// Generic probes ([`Machine::attach_probe`]) observe the merged cross-shard
/// event stream in exact serial order — but nothing about that order
/// requires the *simulation* to wait for them. On multi-core hosts the
/// machine hands batches of window logs to an observer thread, which
/// merges, sorts, and dispatches them while the shards already run the next
/// window: the simulation's critical path pays only the per-event log
/// append, and the probes' own work (metrics, histograms, the coherence
/// sanitizer) overlaps execution. Drained buffers are recycled, so
/// steady-state logging allocates nothing, and the channel is bounded — a
/// probe slower than the simulation backpressures it instead of
/// accumulating unbounded logs.
///
/// On a single-core host there is nothing to overlap with, so the sink
/// replays each window synchronously at the boundary (the classic
/// behavior), avoiding pure context-switch overhead. Both modes dispatch
/// the identical event sequence, so results are bit-identical.
enum ProbeSink {
    Sync {
        probes: Vec<Box<dyn Probe>>,
        scratch: Vec<ProbeEntry>,
        nodes: u16,
    },
    Async(Observer),
}

impl ProbeSink {
    fn new(probes: Vec<Box<dyn Probe>>, nodes: u16) -> Self {
        let parallel = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) > 1;
        if parallel {
            ProbeSink::Async(Observer::spawn(probes, nodes))
        } else {
            ProbeSink::Sync {
                probes,
                scratch: Vec::new(),
                nodes,
            }
        }
    }

    /// Consumes one window's per-shard logs at a boundary.
    fn window(&mut self, shards: &mut [MutexGuard<'_, Shard>]) -> Result<(), ObserverDead> {
        match self {
            ProbeSink::Sync {
                probes,
                scratch,
                nodes,
            } => {
                scratch.clear();
                for s in shards.iter_mut() {
                    scratch.append(s.probe_log_mut());
                }
                replay(scratch, probes, *nodes);
                Ok(())
            }
            ProbeSink::Async(obs) => {
                for s in shards.iter_mut() {
                    let mut log = obs.recycle.try_recv().unwrap_or_default();
                    debug_assert!(log.is_empty(), "recycled buffers come back drained");
                    std::mem::swap(s.probe_log_mut(), &mut log);
                    obs.pending_entries += log.len();
                    obs.pending.push(log);
                }
                if obs.pending_entries >= OBSERVER_BATCH {
                    obs.flush()?;
                }
                Ok(())
            }
        }
    }

    /// Dispatches one boundary-time event (barrier releases), in order with
    /// the window entries around it.
    fn sync_event(&mut self, event: SimEvent, now: Cycle) -> Result<(), ObserverDead> {
        match self {
            ProbeSink::Sync { probes, nodes, .. } => {
                let ctx = ProbeCtx { now, nodes: *nodes };
                for p in probes.iter_mut() {
                    p.on_event(&ctx, &event);
                }
                Ok(())
            }
            ProbeSink::Async(obs) => {
                obs.flush()?;
                obs.tx
                    .send(ObserverMsg::Sync { event, now })
                    .map_err(|_| ObserverDead)
            }
        }
    }

    /// Recovers the probes, joining the observer thread if one was spawned.
    /// Re-raises a probe panic from the observer.
    fn finish(self) -> Vec<Box<dyn Probe>> {
        match self {
            ProbeSink::Sync { probes, .. } => probes,
            ProbeSink::Async(obs) => obs.join(),
        }
    }
}

/// The composed CC-NUMA machine.
///
/// Build one with [`Machine::new`] (serial) or [`Machine::with_shards`]
/// (parallel), attach observers ([`Machine::attach_core_metrics`] for the
/// classic flat [`Metrics`], [`Machine::attach_probe`] for anything else),
/// drive it with [`Machine::run`], then call [`Machine::finish`].
///
/// Most users should go through `ltp_system::ExperimentSpec` instead.
#[derive(Debug)]
pub struct Machine {
    cfg: SystemConfig,
    part: Partition,
    clock: WindowClock,
    /// The machine slices. A run uses `T = min(shards, available cores)`
    /// threads, the calling one included; thread `t` drives shards `t`,
    /// `t + T`, `t + 2T`, …, locking each for its slice of a window. The
    /// calling thread then locks all of them for boundary work —
    /// uncontended, since the workers are parked at the rendezvous. With
    /// `T = 1` no lock is ever contended.
    shards: Vec<Mutex<Shard>>,
    sync: GlobalSync,
    /// Attached observers, called in attach order on every event of the
    /// merged stream.
    probes: Vec<Box<dyn Probe>>,
}

impl Machine {
    /// Assembles a serial (single-shard) machine from per-node policies and
    /// programs.
    ///
    /// # Panics
    ///
    /// Panics unless `policies` and `programs` both have exactly
    /// `cfg.nodes()` elements.
    pub fn new(
        cfg: SystemConfig,
        policies: Vec<Box<dyn SelfInvalidationPolicy>>,
        programs: Vec<Box<dyn Program>>,
    ) -> Self {
        Machine::with_shards(cfg, policies, programs, 1)
    }

    /// Assembles a machine partitioned into `shards` slices (clamped to the
    /// node count), which [`Machine::run`] drives on `T = min(shards,
    /// available cores)` threads: thread `t` drives shards `t`, `t + T`,
    /// `t + 2T`, …, the calling thread being thread 0. Results are
    /// bit-identical for every value of `shards`; only wall-clock time
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics unless `policies` and `programs` both have exactly
    /// `cfg.nodes()` elements, or if `shards` is zero.
    pub fn with_shards(
        cfg: SystemConfig,
        policies: Vec<Box<dyn SelfInvalidationPolicy>>,
        programs: Vec<Box<dyn Program>>,
        shards: usize,
    ) -> Self {
        let n = cfg.nodes() as usize;
        assert_eq!(policies.len(), n, "one policy per node");
        assert_eq!(programs.len(), n, "one program per node");
        let part = Partition::new(cfg.nodes(), shards);
        let clock = WindowClock::new(cfg.min_cross_node_latency());
        let trace_block = std::env::var("LTP_TRACE_BLOCK")
            .ok()
            .and_then(|v| v.parse().ok())
            .map(BlockId::new);
        let trace_flags = std::env::var_os("LTP_TRACE_FLAGS").is_some();
        let mut policies = policies.into_iter();
        let mut programs = programs.into_iter();
        let shards = (0..part.shards())
            .map(|s| {
                let (lo, hi) = part.range(s);
                let count = usize::from(hi - lo);
                Mutex::new(Shard::new(
                    cfg.clone(),
                    part,
                    s,
                    policies.by_ref().take(count).collect(),
                    programs.by_ref().take(count).collect(),
                    trace_block,
                    trace_flags,
                ))
            })
            .collect();
        let sync = GlobalSync::new(cfg.nodes(), cfg.barrier_fanin());
        Machine {
            cfg,
            part,
            clock,
            shards,
            sync,
            probes: Vec::new(),
        }
    }

    /// The number of shards this machine runs on (after clamping to the
    /// node count).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether every processor has finished its program.
    pub fn all_finished(&self) -> bool {
        let done: usize = self.shards.iter().map(|s| lock(s).finished_local()).sum();
        done == self.cfg.nodes() as usize
    }

    /// Human-readable stuck-state diagnosis for horizon overruns.
    pub fn stuck_report(&self) -> String {
        let mut out = String::new();
        for s in &self.shards {
            lock(s).stuck_report_into(&mut out);
        }
        out
    }

    /// Structured per-node stuck diagnosis (all unfinished nodes, in node
    /// order — shards own contiguous ranges, so concatenation is sorted).
    pub fn stuck_nodes(&self) -> Vec<crate::StuckNode> {
        let mut out = Vec::new();
        for s in &self.shards {
            lock(s).stuck_nodes_into(&mut out);
        }
        out
    }

    /// Host nanoseconds each shard has spent executing its windows (barrier
    /// waits and coordinator boundary work excluded), indexed by shard.
    /// Exact per-shard work under [`Machine::run_single_threaded`] (windows
    /// run unpreempted there); under [`Machine::run`] threads never
    /// outnumber cores, so it stays close unless other processes compete
    /// for the host. The work-partition view of a run: `serial busy / max
    /// shard busy` is the speedup the partition supports once enough cores
    /// exist — the `shard_scaling` bench's critical-path metric, and the
    /// number to look at when a sharded run scales worse than expected
    /// (imbalance shows up as one outlier shard).
    pub fn shard_busy_ns(&self) -> Vec<u64> {
        self.shards.iter().map(|s| lock(s).busy_ns()).collect()
    }

    /// The write-token of the copy of `block` cached at `p`, if present —
    /// test/debug introspection (e.g. asserting lost-update freedom through
    /// a contended lock; the token counts the block's writes).
    pub fn cached_token(&self, p: NodeId, block: BlockId) -> Option<u64> {
        lock(&self.shards[self.part.shard_of(p)])
            .cached_line(p, block)
            .map(|l| l.token)
    }

    /// Snapshots the machine-wide ground state (every directory record and
    /// cached line) for invariant checking — see
    /// [`crate::checker::quiescence_violations`]. Deterministically sorted.
    pub fn view(&self) -> crate::checker::MachineView {
        let mut view = crate::checker::MachineView {
            nodes: self.cfg.nodes(),
            directory: self.cfg.directory(),
            ..Default::default()
        };
        for s in &self.shards {
            lock(s).view_into(&mut view);
        }
        view.dir_blocks.sort_by_key(|&(home, b, _)| (home, b));
        view.cache_lines.sort_by_key(|&(p, b, _)| (p, b));
        view
    }

    // ---- observation -----------------------------------------------------

    /// Attaches the built-in core-metrics observer. Without it,
    /// [`Machine::finish`] yields no [`Metrics`]. Internally one collector
    /// per shard tallies its own slice (statically dispatched on the hot
    /// path); [`Machine::finish`] merges them — bit-identically, since
    /// nodes and homes are partitioned.
    pub fn attach_core_metrics(&mut self) {
        for s in &mut self.shards {
            lock_mut(s).attach_core(CoreMetricsProbe::new(self.cfg.nodes()));
        }
    }

    /// Attaches one observer; probes see every subsequent event of the
    /// merged cross-shard stream, in attach order. With at least one probe
    /// attached, shards log events during windows and the coordinator
    /// replays the merged log at each boundary — in exact serial emission
    /// order, regardless of the shard count.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probes.push(probe);
    }

    // ---- execution -------------------------------------------------------

    /// Runs the machine until all events drain or the horizon is exceeded.
    ///
    /// The horizon is enforced at window granularity: whole windows run, so
    /// events inside the final window but past the horizon are still
    /// handled. This keeps the check shard-count-invariant; the horizon is a
    /// deadlock backstop, not a precision instrument.
    ///
    /// Uses `min(shards, available cores)` threads, the calling thread
    /// included: each drives a fixed group of shards (see
    /// [`Machine::with_shards`]), so a run never has more threads than the
    /// host has cores.
    pub fn run(&mut self, horizon: Cycle) -> RunSummary {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        self.run_with(horizon, cores)
    }

    /// Runs the machine exactly like [`Machine::run`], but on one thread:
    /// the calling thread drives every shard, in shard order, with no
    /// workers and no barrier. Results are bit-identical to the threaded
    /// run (the two are the same window loop); what changes is the host
    /// execution: each shard's window runs unpreempted, so
    /// [`Machine::shard_busy_ns`] measures per-shard work exactly. This is
    /// how the `shard_scaling` bench takes its critical-path measurement,
    /// and a useful mode wherever worker threads are unwelcome (profilers,
    /// constrained hosts).
    pub fn run_single_threaded(&mut self, horizon: Cycle) -> RunSummary {
        self.run_with(horizon, 1)
    }

    /// Runs on `threads` threads (clamped to `1..=shards`).
    fn run_with(&mut self, horizon: Cycle, threads: usize) -> RunSummary {
        let log_events = !self.probes.is_empty();
        for s in &mut self.shards {
            lock_mut(s).set_log_events(log_events);
        }
        // Generic probes move into a sink for the duration of the run — a
        // dedicated observer thread on multi-core hosts, an in-place replay
        // buffer otherwise (see [`ProbeSink`]) — and come back at the end.
        let mut sink =
            log_events.then(|| ProbeSink::new(std::mem::take(&mut self.probes), self.cfg.nodes()));
        let threads = threads.clamp(1, self.shards.len());
        let stop = self.run_windows(horizon, sink.as_mut(), threads);
        if let Some(sink) = sink {
            // Re-raises the probe's own panic if the observer died mid-run
            // (`Err(ObserverDead)` below).
            self.probes = sink.finish();
        }
        let stop = match stop {
            Ok(stop) => stop,
            Err(ObserverDead) => unreachable!("a dead observer re-raises its panic on finish"),
        };
        let mut end_time = Cycle::ZERO;
        let mut events_handled = 0;
        for s in &mut self.shards {
            let s = lock_mut(s);
            end_time = end_time.max(s.last_event_time());
            events_handled += s.events_handled();
        }
        RunSummary {
            end_time,
            events_handled,
            stop,
        }
    }

    /// The window loop, on `threads` threads (the calling one included).
    ///
    /// Thread `t` drives shards `t, t + threads, t + 2·threads, …`, in
    /// ascending order, for every window. The threads rendezvous twice per
    /// window on a spin barrier — once to start it, once when all groups
    /// are done — and between windows the calling thread alone picks the
    /// next window and does the boundary work while the workers wait. With
    /// one thread there are no workers and no barrier: every shard runs
    /// inline, in shard order. Window selection and the boundary do not
    /// depend on which thread ran a shard, so every thread count gives the
    /// same bits.
    ///
    /// A panic inside a window (on any thread) or in the boundary fold is
    /// caught and its payload recorded; the window's rendezvous completes,
    /// the workers are released to exit, and the first payload is re-raised
    /// on the calling thread.
    fn run_windows(
        &mut self,
        horizon: Cycle,
        mut sink: Option<&mut ProbeSink>,
        threads: usize,
    ) -> Result<StopReason, ObserverDead> {
        let clock = self.clock;
        let part = self.part;
        let shards = &self.shards[..];
        let sync = &mut self.sync;
        let barrier = (threads > 1).then(|| SpinBarrier::new(threads));
        let rendezvous = || {
            if let Some(barrier) = &barrier {
                barrier.wait();
            }
        };
        // Cleared only by the calling thread, right before the rendezvous
        // that releases the workers to exit.
        let running = AtomicBool::new(true);
        let win_start = AtomicU64::new(0);
        let win_end = AtomicU64::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let record = |payload| {
            lock_raw(&panicked).get_or_insert(payload);
        };
        // Runs thread `t`'s shard group over the published window.
        let run_group = |t: usize| {
            let start = Cycle::new(win_start.load(Ordering::Acquire));
            let end = Cycle::new(win_end.load(Ordering::Acquire));
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                for shard in shards.iter().skip(t).step_by(threads) {
                    lock(shard).run_window(start, end);
                }
            }));
            if let Err(payload) = result {
                record(payload);
            }
        };
        let stop = std::thread::scope(|scope| {
            for t in 1..threads {
                let (rendezvous, running, run_group) = (&rendezvous, &running, &run_group);
                scope.spawn(move || loop {
                    rendezvous();
                    if !running.load(Ordering::Acquire) {
                        break;
                    }
                    run_group(t);
                    rendezvous();
                });
            }
            // Boundary guards and buffers, reused across windows.
            let mut guards: Vec<MutexGuard<'_, Shard>> = Vec::with_capacity(shards.len());
            let mut bufs = BoundaryBufs::default();
            let stop = loop {
                // Workers are parked at the rendezvous between windows, so
                // every lock the calling thread takes here is uncontended.
                let t_min = shards
                    .iter()
                    .filter_map(|s| lock(s).next_event_time())
                    .min();
                let end = match t_min {
                    None => break Ok(StopReason::Drained),
                    Some(t) if t > horizon => break Ok(StopReason::HorizonReached),
                    Some(t) => {
                        let (start, end) = clock.window_of(t);
                        win_start.store(start.as_u64(), Ordering::Release);
                        win_end.store(end.as_u64(), Ordering::Release);
                        end
                    }
                };
                rendezvous(); // workers start the window
                run_group(0);
                rendezvous(); // every group finished the window
                if lock_raw(&panicked).is_some() {
                    break Ok(StopReason::Drained); // re-raised below
                }
                // The boundary fold can panic (malformed barrier workloads).
                guards.extend(shards.iter().map(lock));
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    boundary(&mut guards, sync, sink.as_deref_mut(), &mut bufs, part, end)
                }));
                guards.clear();
                match result {
                    Ok(Ok(())) => {}
                    // The observer thread died (a probe panicked); the
                    // caller re-raises its panic on join.
                    Ok(Err(ObserverDead)) => break Err(ObserverDead),
                    Err(payload) => {
                        record(payload);
                        break Ok(StopReason::Drained); // re-raised below
                    }
                }
            };
            running.store(false, Ordering::Release);
            rendezvous(); // release workers; they observe the flag and exit
            stop
        });
        if let Some(payload) = panicked.into_inner().unwrap_or_else(|p| p.into_inner()) {
            panic::resume_unwind(payload);
        }
        stop
    }

    // ---- teardown --------------------------------------------------------

    /// Finishes the run: merges the per-shard core collectors, emits the
    /// end-of-run [`SimEvent::PolicyStorage`] accounting (one event per
    /// node, in node order), then consumes the machine and every observer.
    /// Returns the core [`Metrics`] (if [`Machine::attach_core_metrics`] was
    /// called) and one [`MetricsSection`] per attached probe that produced
    /// one.
    pub fn finish(mut self) -> (Option<Metrics>, Vec<MetricsSection>) {
        let mut shards: Vec<Shard> = self
            .shards
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect();
        let now = shards
            .iter()
            .map(|s| s.last_finish_local())
            .max()
            .unwrap_or(Cycle::ZERO);
        let mut core: Option<CoreMetricsProbe> = None;
        for s in &mut shards {
            if let Some(c) = s.take_core() {
                match &mut core {
                    None => core = Some(c),
                    Some(acc) => acc.merge(&c),
                }
            }
        }
        let ctx = ProbeCtx {
            now,
            nodes: self.cfg.nodes(),
        };
        // Shards own contiguous ascending node ranges, so iterating shards
        // then local nodes is global node order.
        for s in &shards {
            for i in 0..s.node_count() {
                let (node, stats) = s.policy_storage(i);
                let event = SimEvent::PolicyStorage { node, stats };
                if let Some(core) = &mut core {
                    core.observe(&ctx, &event);
                }
                for probe in &mut self.probes {
                    probe.on_event(&ctx, &event);
                }
            }
        }
        let metrics = core.map(CoreMetricsProbe::into_metrics);
        let sections = self.probes.drain(..).filter_map(|p| p.finish()).collect();
        (metrics, sections)
    }
}

/// Locks a shard, shrugging off poison: a worker panic poisons its mutex,
/// but the coordinator still needs the state for diagnosis/teardown, and
/// the panic itself is re-raised separately.
fn lock<'a>(m: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// `get_mut` with the same poison handling (serial path and `&mut`
/// accessors — no locking at all).
fn lock_mut(m: &mut Mutex<Shard>) -> &mut Shard {
    m.get_mut().unwrap_or_else(|p| p.into_inner())
}

/// Poison-tolerant lock for the panic-payload slot itself.
fn lock_raw<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The buffers a window boundary drains the shards into, kept for the
/// whole run so that a boundary allocates nothing in the steady state.
#[derive(Default)]
struct BoundaryBufs {
    /// One source shard's messages for one destination shard.
    msgs: Vec<Stamped>,
    /// Every shard's barrier and finish records for the window.
    records: Vec<SyncRecord>,
}

/// One window boundary: cross-shard message exchange, probe-log handoff to
/// the sink, and the global barrier fold, over every shard in shard order.
/// Returns `Err` when the sink's observer thread has died (a probe
/// panicked).
fn boundary(
    shards: &mut [MutexGuard<'_, Shard>],
    sync: &mut GlobalSync,
    mut sink: Option<&mut ProbeSink>,
    bufs: &mut BoundaryBufs,
    part: Partition,
    end: Cycle,
) -> Result<(), ObserverDead> {
    // 1. Redistribute cross-shard messages into their destination queues,
    //    source shard by source shard, each in destination order. Delivery
    //    cycles are ≥ `end` by the conservative lookahead, so every message
    //    lands in a window that has not run yet.
    let n = shards.len();
    for src in 0..n {
        for dst in 0..n {
            shards[src].drain_outbox_into(dst, &mut bufs.msgs);
            debug_assert!(
                dst != src || bufs.msgs.is_empty(),
                "same-shard messages are scheduled directly, never boxed"
            );
            for st in bufs.msgs.drain(..) {
                debug_assert!(
                    st.deliver >= end,
                    "cross-shard delivery at {} inside the window ending {end}",
                    st.deliver
                );
                shards[dst].schedule_inbound(st);
            }
        }
    }
    // 2. Hand the shards' event logs (in shard order) to the probe sink —
    //    replayed in place, or batched to the observer thread so the probes'
    //    work overlaps the next window (see [`ProbeSink`]).
    if let Some(sink) = sink.as_deref_mut() {
        sink.window(shards)?;
    }
    // 3. Fold barrier arrivals and completions (in global `(cycle, node)`
    //    order) and schedule releases at the boundary cycle — a grid point,
    //    hence identical for every shard count.
    let records = &mut bufs.records;
    for s in shards.iter_mut() {
        s.drain_sync_log_into(records);
    }
    if !records.is_empty() {
        records.sort_by_key(|r| (r.at, r.node));
        let released = sync.fold(records);
        records.clear();
        for (id, waiters) in released {
            let event = SimEvent::BarrierRelease {
                id,
                waiters: waiters.len() as u16,
            };
            if let Some(sink) = sink.as_deref_mut() {
                sink.sync_event(event, end)?;
            }
            for w in waiters {
                let node = NodeId::new(w);
                shards[part.shard_of(node)].schedule_resume(end, node, id);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltp_core::{NullPolicy, Pc, Touch, VerifyOutcome};
    use ltp_sim::StopReason;
    use ltp_workloads::{Lock, LoopedScript, Op};

    fn small_cfg(nodes: u16) -> SystemConfig {
        SystemConfig::builder().nodes(nodes).build().unwrap()
    }

    fn null_policies(n: u16) -> Vec<Box<dyn SelfInvalidationPolicy>> {
        (0..n)
            .map(|_| Box::new(NullPolicy) as Box<dyn SelfInvalidationPolicy>)
            .collect()
    }

    fn run(machine: Machine) -> (Metrics, StopReason) {
        run_on(machine, None)
    }

    /// Runs on `threads` threads, or through [`Machine::run`] for `None`.
    fn run_on(mut machine: Machine, threads: Option<usize>) -> (Metrics, StopReason) {
        machine.attach_core_metrics();
        let horizon = Cycle::new(50_000_000);
        let summary = match threads {
            None => machine.run(horizon),
            Some(threads) => machine.run_with(horizon, threads),
        };
        assert_ne!(
            summary.stop,
            StopReason::HorizonReached,
            "machine stuck:\n{}",
            machine.stuck_report()
        );
        let (m, sections) = machine.finish();
        assert!(sections.is_empty(), "no extra probes attached");
        (m.expect("core metrics attached"), summary.stop)
    }

    fn read(pc: u32, b: u64) -> Op {
        Op::Read {
            pc: Pc::new(pc),
            block: BlockId::new(b),
        }
    }

    fn write(pc: u32, b: u64) -> Op {
        Op::Write {
            pc: Pc::new(pc),
            block: BlockId::new(b),
        }
    }

    #[test]
    fn empty_programs_finish_immediately() {
        let cfg = small_cfg(2);
        let programs: Vec<Box<dyn Program>> = (0..2)
            .map(|_| Box::new(LoopedScript::new(vec![], vec![], 0)) as Box<dyn Program>)
            .collect();
        let machine = Machine::new(cfg, null_policies(2), programs);
        let (m, _) = run(machine);
        assert!(m.exec_cycles < 10);
        assert_eq!(m.misses, 0);
    }

    #[test]
    fn single_remote_read_round_trip_near_416() {
        let cfg = small_cfg(2);
        // Node 1 reads block 0 (home: node 0). One remote miss.
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![], vec![], 0)),
            Box::new(LoopedScript::new(vec![read(0x10, 0)], vec![], 0)),
        ];
        let machine = Machine::new(cfg, null_policies(2), programs);
        let (m, _) = run(machine);
        assert_eq!(m.misses, 1);
        assert!(
            (380..=450).contains(&m.exec_cycles),
            "round trip {} not ≈416",
            m.exec_cycles
        );
    }

    #[test]
    fn producer_consumer_counts_invalidations() {
        let cfg = small_cfg(4);
        // Node 1 writes block 0 then barriers; node 2 reads it after the
        // barrier (invalidating node 1's exclusive copy); others just
        // barrier.
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![Op::Barrier(0)], vec![], 0)),
            Box::new(LoopedScript::new(
                vec![write(0x20, 0), Op::Barrier(0)],
                vec![],
                0,
            )),
            Box::new(LoopedScript::new(
                vec![Op::Barrier(0), read(0x30, 0)],
                vec![],
                0,
            )),
            Box::new(LoopedScript::new(vec![Op::Barrier(0)], vec![], 0)),
        ];
        let machine = Machine::new(cfg, null_policies(4), programs);
        let (m, _) = run(machine);
        // The read invalidated the writer's copy: one invalidation event,
        // not predicted (base system).
        assert_eq!(m.not_predicted, 1);
        assert_eq!(m.predicted, 0);
        assert_eq!(m.invalidations_sent, 1);
    }

    #[test]
    fn lock_provides_mutual_exclusion_traffic() {
        let cfg = small_cfg(4);
        let lock = Lock::library(BlockId::new(0), 0x100);
        let body = vec![
            Op::Lock(lock),
            write(0x200, 4), // protected block (home: node 0)
            Op::Unlock(lock),
            Op::Think(50),
        ];
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![Op::Think(i as u64 * 13)],
                    body.clone(),
                    5,
                )) as Box<dyn Program>
            })
            .collect();
        let machine = Machine::new(cfg, null_policies(4), programs);
        let (m, _) = run(machine);
        // 4 nodes × 5 critical sections each; the protected block migrates,
        // so plenty of invalidations happen and the run completes (mutual
        // exclusion never deadlocks).
        assert!(m.not_predicted > 0);
        assert!(m.misses >= 20, "each CS needs at least one miss");
    }

    #[test]
    fn barrier_synchronizes_all_nodes() {
        let cfg = small_cfg(8);
        let programs: Vec<Box<dyn Program>> = (0..8u64)
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![Op::Think(i * 100), Op::Barrier(0), write(0x40, i)],
                    vec![],
                    0,
                )) as Box<dyn Program>
            })
            .collect();
        let machine = Machine::new(cfg, null_policies(8), programs);
        let (m, _) = run(machine);
        // All the writes happen after the slowest node arrives (700+).
        assert!(m.exec_cycles > 700);
        assert_eq!(m.misses, 8);
    }

    /// A policy that self-invalidates after every touch — maximal
    /// speculation pressure on the protocol's race handling.
    #[derive(Debug, Default)]
    struct AlwaysFire {
        fired: u64,
        correct: u64,
        premature: u64,
    }

    impl SelfInvalidationPolicy for AlwaysFire {
        fn name(&self) -> &'static str {
            "always-fire"
        }
        fn on_touch(&mut self, _t: Touch) -> bool {
            self.fired += 1;
            true
        }
        fn on_verification(&mut self, _b: BlockId, outcome: VerifyOutcome) {
            match outcome {
                VerifyOutcome::Correct => self.correct += 1,
                VerifyOutcome::Premature => self.premature += 1,
            }
        }
    }

    #[test]
    fn always_firing_policy_survives_and_gets_verified() {
        // Two nodes ping-ponging a block while self-invalidating after
        // every single touch: the densest possible self-invalidation race
        // load. The run must complete and verification verdicts must flow.
        let cfg = small_cfg(2);
        let mk = |stagger: u64| -> Box<dyn Program> {
            Box::new(LoopedScript::new(
                vec![Op::Think(stagger)],
                vec![
                    write(0x40, 0),
                    Op::Think(300),
                    read(0x44, 1),
                    Op::Think(200),
                ],
                20,
            ))
        };
        let policies: Vec<Box<dyn SelfInvalidationPolicy>> = vec![
            Box::new(AlwaysFire::default()),
            Box::new(AlwaysFire::default()),
        ];
        let machine = Machine::new(cfg, policies, vec![mk(0), mk(150)]);
        let (m, _) = run(machine);
        assert!(m.self_invalidations_sent > 10, "speculation actually ran");
        assert!(
            m.predicted + m.mispredicted > 0,
            "the directory verified outcomes"
        );
        // Token monotonicity is asserted inside the directory on every
        // writeback; reaching here means no write was lost.
    }

    #[test]
    fn premature_self_invalidation_is_reported_to_the_culprit() {
        // One node writes the same block repeatedly while always firing:
        // every refetch is by the self-invalidator itself → premature.
        let cfg = small_cfg(2);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(
                vec![],
                vec![write(0x60, 0), Op::Think(100)],
                10,
            )),
            Box::new(LoopedScript::new(vec![], vec![], 0)),
        ];
        let policies: Vec<Box<dyn SelfInvalidationPolicy>> = vec![
            Box::new(AlwaysFire::default()),
            Box::new(AlwaysFire::default()),
        ];
        let machine = Machine::new(cfg, policies, programs);
        let (m, _) = run(machine);
        assert!(m.mispredicted >= 8, "got {} prematures", m.mispredicted);
        assert_eq!(m.predicted, 0, "nobody else ever wants the block");
    }

    #[test]
    fn flag_handoff_pipelines_across_nodes() {
        // A 3-stage pipeline: node 0 signals node 1, node 1 signals node 2.
        let cfg = small_cfg(3);
        let flag = |i: u64| BlockId::new(100 + i);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(
                vec![
                    write(0x10, 0),
                    Op::FlagSet {
                        pc: Pc::new(0x20),
                        block: flag(1),
                    },
                ],
                vec![],
                0,
            )),
            Box::new(LoopedScript::new(
                vec![
                    Op::FlagWait {
                        pc: Pc::new(0x24),
                        block: flag(1),
                    },
                    read(0x14, 0),
                    write(0x18, 1),
                    Op::FlagSet {
                        pc: Pc::new(0x20),
                        block: flag(2),
                    },
                ],
                vec![],
                0,
            )),
            Box::new(LoopedScript::new(
                vec![
                    Op::FlagWait {
                        pc: Pc::new(0x24),
                        block: flag(2),
                    },
                    read(0x1c, 1),
                ],
                vec![],
                0,
            )),
        ];
        let machine = Machine::new(cfg, null_policies(3), programs);
        let (m, stop) = run(machine);
        assert_eq!(stop, StopReason::Drained);
        // The chain forced real coherence transfers of blocks 0 and 1.
        assert!(m.not_predicted >= 2, "handoffs invalidate producer copies");
    }

    #[test]
    fn contended_lock_serializes_critical_sections() {
        // Under a contended lock with a shared counter block, each holder
        // writes the counter once; the token (write count) at the end must
        // equal the total number of critical sections — no lost updates.
        let cfg = small_cfg(6);
        let lock = Lock::library(BlockId::new(0), 0x100);
        let cs = 4u32;
        let programs: Vec<Box<dyn Program>> = (0..6u64)
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![Op::Think(i * 29)],
                    vec![
                        Op::Lock(lock),
                        write(0x200, 7),
                        Op::Unlock(lock),
                        Op::Think(120),
                    ],
                    cs,
                )) as Box<dyn Program>
            })
            .collect();
        let mut machine = Machine::new(cfg, null_policies(6), programs);
        let summary = machine.run(Cycle::new(50_000_000));
        assert_ne!(summary.stop, StopReason::HorizonReached);
        // Recover the final token from cache state: the last writer holds
        // the newest token (6 nodes × 4 sections).
        let newest = (0..6)
            .filter_map(|i| machine.cached_token(NodeId::new(i), BlockId::new(7)))
            .max()
            .expect("someone holds the counter");
        assert_eq!(newest, u64::from(cs) * 6, "every critical section counted");
    }

    #[test]
    #[should_panic(expected = "distinct barrier")]
    fn skipped_barrier_is_a_hard_error() {
        // Node 0 skips barrier 0 entirely and arrives at barrier 1 while
        // node 1 still waits at barrier 0. The seed silently merged the two
        // wait-sets (debug_assert only); now it is a hard error in release
        // builds too.
        let cfg = small_cfg(2);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![Op::Barrier(1)], vec![], 0)),
            Box::new(LoopedScript::new(
                vec![Op::Think(100), Op::Barrier(0), Op::Barrier(1)],
                vec![],
                0,
            )),
        ];
        let machine = Machine::new(cfg, null_policies(2), programs);
        let _ = run(machine);
    }

    #[test]
    fn sequential_barrier_ids_release_in_order() {
        // The same nodes passing barriers 0, 1, 2 in lockstep must release
        // each one (per-id wait-sets never mix consecutive phases).
        let cfg = small_cfg(3);
        let programs: Vec<Box<dyn Program>> = (0..3u64)
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![
                        Op::Think(i * 50),
                        Op::Barrier(0),
                        write(0x10, i),
                        Op::Barrier(1),
                        read(0x14, (i + 1) % 3),
                        Op::Barrier(2),
                    ],
                    vec![],
                    0,
                )) as Box<dyn Program>
            })
            .collect();
        let machine = Machine::new(cfg, null_policies(3), programs);
        let (_, stop) = run(machine);
        assert_eq!(stop, StopReason::Drained);
    }

    #[test]
    fn finished_nodes_do_not_block_barriers() {
        let cfg = small_cfg(2);
        // Node 0 finishes immediately; node 1 then hits a barrier that only
        // it participates in.
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![], vec![], 0)),
            Box::new(LoopedScript::new(
                vec![Op::Think(500), Op::Barrier(0)],
                vec![],
                0,
            )),
        ];
        let machine = Machine::new(cfg, null_policies(2), programs);
        let (_, stop) = run(machine);
        assert_eq!(stop, StopReason::Drained);
    }

    /// Builds the contended-lock + barrier workload used for shard
    /// equivalence checks: every machine-level mechanism (locks, barriers,
    /// flags, invalidations, reinjections) in one pot.
    fn mixed_workload(nodes: u16) -> (SystemConfig, Vec<Box<dyn Program>>) {
        let cfg = small_cfg(nodes);
        let lock = Lock::library(BlockId::new(0), 0x100);
        let programs: Vec<Box<dyn Program>> = (0..u64::from(nodes))
            .map(|i| {
                Box::new(LoopedScript::new(
                    vec![Op::Think(i * 17), Op::Barrier(0)],
                    vec![
                        Op::Lock(lock),
                        write(0x200, 7),
                        Op::Unlock(lock),
                        read(0x210, 3 + i % 4),
                        write(0x214, 11 + i % 3),
                        Op::Think(60 + i * 7),
                        Op::Barrier(1),
                    ],
                    3,
                )) as Box<dyn Program>
            })
            .collect();
        (cfg, programs)
    }

    #[test]
    fn sharded_runs_match_serial_exactly() {
        let serial = {
            let (cfg, programs) = mixed_workload(6);
            run(Machine::new(cfg, null_policies(6), programs))
        };
        // Two threads put several shards in one thread's group whatever
        // the host's core count.
        for shards in [2usize, 3, 4, 6] {
            for threads in [None, Some(2)] {
                let (cfg, programs) = mixed_workload(6);
                let machine = Machine::with_shards(cfg, null_policies(6), programs, shards);
                assert_eq!(
                    serial,
                    run_on(machine, threads),
                    "{shards}-shard run on {threads:?} threads diverged from serial"
                );
            }
        }
    }

    #[test]
    fn one_shard_machine_is_the_serial_path() {
        let (cfg, programs) = mixed_workload(4);
        let machine = Machine::with_shards(cfg, null_policies(4), programs, 1);
        assert_eq!(machine.shards(), 1);
        let (m, stop) = run(machine);
        assert_eq!(stop, StopReason::Drained);
        assert!(m.misses > 0);
    }

    #[test]
    fn worker_panic_is_reraised_not_deadlocked() {
        // A 2-shard machine whose shard-1 node skips a barrier: the fold
        // panics on the coordinator at a boundary. The fleet must shut down
        // and the panic must surface (not hang the scope).
        let cfg = small_cfg(2);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(LoopedScript::new(vec![Op::Barrier(1)], vec![], 0)),
            Box::new(LoopedScript::new(
                vec![Op::Think(100), Op::Barrier(0)],
                vec![],
                0,
            )),
        ];
        let mut machine = Machine::with_shards(cfg, null_policies(2), programs, 2);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            machine.run(Cycle::new(50_000_000));
        }))
        .expect_err("malformed barrier workload must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("distinct barrier"), "unexpected panic: {msg}");
    }

    /// A policy that panics on its first touch.
    #[derive(Debug)]
    struct PanicOnTouch;

    impl SelfInvalidationPolicy for PanicOnTouch {
        fn name(&self) -> &'static str {
            "panic-on-touch"
        }
        fn on_touch(&mut self, _t: Touch) -> bool {
            panic!("panic-on-touch fired");
        }
        fn on_verification(&mut self, _b: BlockId, _outcome: VerifyOutcome) {}
    }

    /// Runs the 6-node mixed workload on `shards` shards and `threads`
    /// threads with a panicking policy on the first node of shard `culprit`,
    /// and returns the panic message the run re-raised. A run that hangs
    /// fails after a minute instead of stalling the suite.
    fn window_panic_message(shards: usize, threads: usize, culprit: usize) -> String {
        let (cfg, programs) = mixed_workload(6);
        let node = Partition::new(6, shards).range(culprit).0;
        let policies = (0..6)
            .map(|i| -> Box<dyn SelfInvalidationPolicy> {
                if i == node {
                    Box::new(PanicOnTouch)
                } else {
                    Box::new(NullPolicy)
                }
            })
            .collect();
        let mut machine = Machine::with_shards(cfg, policies, programs, shards);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                machine.run_with(Cycle::new(50_000_000), threads);
            }));
            let msg = match result {
                Ok(()) => "no panic".to_string(),
                Err(payload) => payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .unwrap_or_default(),
            };
            let _ = tx.send(msg);
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{shards} shards on {threads} threads hung"))
    }

    #[test]
    fn window_panic_on_the_calling_threads_shard_is_reraised() {
        assert_eq!(window_panic_message(2, 2, 0), "panic-on-touch fired");
    }

    #[test]
    fn window_panic_on_a_worker_shard_is_reraised() {
        assert_eq!(window_panic_message(2, 2, 1), "panic-on-touch fired");
    }

    #[test]
    fn window_panic_on_a_later_shard_of_a_group_is_reraised() {
        // 3 shards on 2 threads: the calling thread drives shards 0 and 2.
        assert_eq!(window_panic_message(3, 2, 2), "panic-on-touch fired");
        // 4 shards on 2 threads: the worker drives shards 1 and 3.
        assert_eq!(window_panic_message(4, 2, 3), "panic-on-touch fired");
    }
}
