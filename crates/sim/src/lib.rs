//! # `ltp-sim` — deterministic discrete-event simulation kernel
//!
//! The substrate beneath the ISCA 2000 *Last-Touch Prediction* reproduction.
//! This crate knows nothing about caches or predictors; it provides:
//!
//! * [`Cycle`] — simulated time in processor cycles;
//! * [`KeyedEventQueue`] — a future-event list with a deterministic total
//!   order, `(time, key, insertion sequence)`: a calendar queue of
//!   one-cycle buckets over the next 256 cycles, with a binary heap for
//!   events further ahead; scheduling before the last popped cycle panics;
//! * [`RunSummary`]/[`StopReason`] — what an event loop reports when it stops;
//! * [`SimRng`] — seeded randomness so workloads are reproducible;
//! * [`stats`] — counters, mean accumulators, ratios, histograms used by the
//!   protocol engines and the experiment harness.
//!
//! The event loop itself belongs to the machine it drives (`Machine` in
//! `ltp-system`), which pops one keyed queue per shard.
//!
//! Determinism is the design center: the paper's predictors learn from the
//! *order* of coherence events, so reproducing its tables requires that two
//! runs with the same configuration observe identical event interleavings.
//! The queue therefore breaks timestamp ties by a content key that names the
//! acting node (not by who scheduled first), and all randomness flows
//! through explicitly-seeded [`SimRng`] streams.
//!
//! # Examples
//!
//! A two-node ping/pong loop. Same-cycle events pop in key order whatever
//! order they were scheduled in:
//!
//! ```
//! use ltp_sim::{Cycle, KeyedEventQueue, RunSummary, StopReason};
//!
//! let mut q = KeyedEventQueue::new();
//! q.schedule(Cycle::ZERO, 1u16, "pong");
//! q.schedule(Cycle::ZERO, 0u16, "ping");
//! let horizon = Cycle::new(1_000);
//! let mut now = Cycle::ZERO;
//! let mut handled = 0;
//! let mut order = Vec::new();
//! let stop = loop {
//!     match q.peek_time() {
//!         None => break StopReason::Drained,
//!         Some(at) if at > horizon => break StopReason::HorizonReached,
//!         Some(_) => {}
//!     }
//!     let (at, node, msg) = q.pop().unwrap();
//!     now = at;
//!     handled += 1;
//!     order.push((at.as_u64(), node));
//!     if at < Cycle::new(160) {
//!         // Each node answers its peer 80 cycles later.
//!         q.schedule(at + Cycle::new(80), 1 - node, msg);
//!     }
//! };
//! let summary = RunSummary { end_time: now, events_handled: handled, stop };
//! assert_eq!(summary.stop, StopReason::Drained);
//! assert_eq!(summary.events_handled, 6);
//! assert_eq!(&order[..2], &[(0, 0), (0, 1)]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod rng;
mod run;
pub mod stats;
mod time;

pub use event::KeyedEventQueue;
pub use rng::SimRng;
pub use run::{RunSummary, StopReason};
pub use time::Cycle;
