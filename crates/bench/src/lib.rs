//! # `ltp-bench` — support code for the host-performance benches
//!
//! Each bench target under `benches/` measures host time of one layer of the
//! simulator (run `cargo bench -p ltp-bench --bench micro_predictor` etc.).
//! The paper's figures and tables are not benches: they come from
//! `ltp campaign` over a spec in `reports/specs/` followed by `ltp report`.
//! This library holds the shared scaffolding: the micro-benchmark timer,
//! report formatting, and the mean helper the summary lines use.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::hint::black_box;
use std::time::Instant;

/// Arithmetic mean of a slice (the paper reports arithmetic averages for
/// accuracy percentages).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Prints the standard header naming what a bench measures.
pub fn print_header(what: &str, paper_ref: &str) {
    println!();
    println!("==============================================================================");
    println!("{what}");
    println!("reproduces: {paper_ref}");
    println!("machine: 32-node CC-NUMA, Table 1 configuration (scaled Table 2 inputs)");
    println!("==============================================================================");
}

/// Formats a percentage cell.
pub fn pct(v: f64) -> String {
    format!("{v:5.1}")
}

/// Times `f` with a calibrated repetition count and prints ns/iteration —
/// the in-tree replacement for the external micro-benchmark harness.
///
/// The loop doubles the iteration count until one timed batch exceeds
/// ~200 ms, then reports the per-iteration latency of the final batch.
pub fn microbench<F: FnMut()>(name: &str, mut f: F) {
    // Warm-up.
    for _ in 0..3 {
        black_box(&mut f)();
    }
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(&mut f)();
        }
        let elapsed = start.elapsed();
        if elapsed.as_millis() >= 200 || iters >= 1 << 30 {
            let ns = elapsed.as_nanos() as f64 / iters as f64;
            println!("{name:<40} {ns:>14.1} ns/iter ({iters} iters)");
            return;
        }
        iters *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty_and_values() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn pct_formats_width() {
        assert_eq!(pct(7.25), "  7.2");
    }

    #[test]
    fn microbench_reports_without_panicking() {
        let mut n = 0u64;
        microbench("noop", || n = n.wrapping_add(1));
        assert!(n > 0);
    }
}
