//! What an event loop reports when it stops.
//!
//! The loop itself lives with the machine it drives: `Machine::run` in
//! `ltp-system` pops per-shard [`KeyedEventQueue`](crate::KeyedEventQueue)s
//! window by window until they drain or pass a horizon. This module holds
//! the summary it returns.

use crate::time::Cycle;

/// Why an event loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The event queue drained.
    Drained,
    /// The configured horizon was reached with events still pending — almost
    /// always a livelock/deadlock symptom in this repository, surfaced loudly.
    HorizonReached,
}

/// Summary statistics for a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// The clock value when the run stopped.
    pub end_time: Cycle,
    /// Number of events handled.
    pub events_handled: u64,
    /// Why the run stopped.
    pub stop: StopReason,
}
