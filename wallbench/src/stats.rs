//! Order statistics over repetition samples, the step timer behind the
//! end-to-end times, and span self time.

use std::time::Instant;

/// The median of `values` (the mean of the two middle values for an even
/// count). `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The first and third quartiles of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method).
/// One value is its own quartiles; `None` for no values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let len = sorted.len();
    match len {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let quantile = |i: usize| {
                // Position i·(len+1)/4, clamped to 1..len-1, interpolated
                // with exact integer arithmetic for the fraction.
                let scaled = i * (len + 1);
                let j = (scaled / 4).clamp(1, len - 1);
                let delta = scaled as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((quantile(1), quantile(3)))
        }
    }
}

/// Host seconds of the consecutive steps of one timed region, in an order
/// that is the same on every sample of the region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Steps(pub Vec<f64>);

impl Steps {
    /// Runs `f` as the next step, recording its wall time.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        self.0.push(started.elapsed().as_secs_f64());
        value
    }

    /// The time of the step recorded last (0 before any).
    pub fn last(&self) -> f64 {
        self.0.last().copied().unwrap_or(0.0)
    }

    /// The region's time: every step summed.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// The lower quartile of `values`, interpolated linearly at rank
/// (n − 1)/4 of the sorted values as Python's `statistics.quantiles(values,
/// n=4, method="inclusive")` takes it, so it never leaves their range.
/// `None` for no values.
pub fn lower_quartile(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let last = sorted.len().checked_sub(1)?;
    let (j, delta) = (last / 4, (last % 4) as f64 / 4.0);
    Some(match sorted.get(j + 1) {
        Some(next) => sorted[j] + (next - sorted[j]) * delta,
        None => sorted[j],
    })
}

/// The region's time on the faster side of a shared host: for each step
/// position, the lower quartile of the times the samples took there,
/// summed over the positions.
///
/// Other tenants of the host slow a step down, never speed it up, and
/// they change its speed by tens of percent within seconds. When they
/// come and go, a median jumps between their slow and fast spells while
/// the lower quartile stays on the fast one; when they stay, the lower
/// quartile still rests on a quarter of the samples, where a minimum
/// rests on one. Taking it per step, over many short steps, uses every
/// sample rather than one per repetition. A sample shorter than the
/// others contributes the positions it has. `None` for no samples.
pub fn quick_total(samples: &[&Steps]) -> Option<f64> {
    let positions = samples.iter().map(|s| s.0.len()).max()?;
    (0..positions)
        .map(|i| {
            let at: Vec<f64> = samples.iter().filter_map(|s| s.0.get(i).copied()).collect();
            lower_quartile(&at)
        })
        .sum()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Which host thread a span's time was spent on. Only time on the thread
/// that ran the parent span is part of the parent's wall interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadClass {
    /// The benchmark's calling thread (it drives serial machines, the
    /// sharded machine's coordinator, the campaign store and the reports).
    Caller,
    /// Any other thread: shard workers and the probe observer.
    Other,
}

impl ThreadClass {
    /// The label written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            ThreadClass::Caller => "caller",
            ThreadClass::Other => "other",
        }
    }
}

/// One recorded span: a single call (`calls == 1`), or the aggregate of a
/// hot per-call wrapper over one run (`calls` calls, `sum_ns` summed).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `machine.run` or `core.on_touch`.
    pub name: String,
    /// Index of the causing span in the same span list.
    pub parent: Option<usize>,
    /// The thread the time was spent on.
    pub thread: ThreadClass,
    /// Start, in nanoseconds since the benchmark's clock origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the same origin.
    pub end_ns: u64,
    /// Calls folded into the span.
    pub calls: u64,
    /// Host nanoseconds spent inside the calls.
    pub sum_ns: u64,
}

/// A span's self time: its summed time minus the time of its direct
/// children that ran on the same thread. Children on other threads ran
/// concurrently, outside the span's own thread, so they are never
/// subtracted; the result saturates at zero.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let children: u64 = spans
        .iter()
        .filter(|child| child.parent == Some(index) && child.thread == span.thread)
        .map(|child| child.sum_ns)
        .sum();
    span.sum_ns.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    /// Reference values from Python 3: `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    /// Reference values from Python 3:
    /// `statistics.quantiles(v, n=4, method="inclusive")[0]`.
    #[test]
    fn lower_quartile_interpolates_inside_the_range() {
        assert_eq!(lower_quartile(&[]), None);
        assert_eq!(lower_quartile(&[3.0]), Some(3.0));
        assert_eq!(lower_quartile(&[2.0, 1.0]), Some(1.25));
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), Some(1.5));
        assert_eq!(lower_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some(2.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(lower_quartile(&ten), Some(3.25));
    }

    #[test]
    fn quick_total_sums_the_lower_quartile_of_each_step() {
        let a = Steps(vec![1.0, 5.0, 2.0]);
        let b = Steps(vec![2.0, 4.0, 3.0]);
        let c = Steps(vec![3.0, 6.0, 4.0]);
        let short = Steps(vec![0.0]);
        // Per step: 1.5 + 4.5 + 2.5.
        assert_eq!(quick_total(&[&a, &b, &c]), Some(8.5));
        assert_eq!(quick_total(&[&a]), Some(a.total()));
        // The first step now has four samples (0, 1, 2, 3): 0.75.
        assert_eq!(quick_total(&[&a, &b, &c, &short]), Some(7.75));
        assert_eq!(quick_total(&[]), None);
    }

    #[test]
    fn steps_record_in_order() {
        let mut steps = Steps::default();
        assert_eq!(steps.last(), 0.0);
        assert_eq!(steps.time(|| 7), 7);
        steps.time(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        assert_eq!(steps.0.len(), 2);
        assert!(steps.last() >= 0.002 && steps.total() >= steps.last());
    }

    fn span(name: &str, parent: Option<usize>, thread: ThreadClass, sum_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            thread,
            start_ns: 0,
            end_ns: sum_ns,
            calls: 1,
            sum_ns,
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let spans = vec![
            span("machine.run", None, ThreadClass::Caller, 1_000),
            span("workloads.next_op", Some(0), ThreadClass::Caller, 300),
            span("core.on_touch", Some(0), ThreadClass::Caller, 200),
            // Worker and observer time overlaps the run; not subtracted.
            span("workloads.next_op", Some(0), ThreadClass::Other, 5_000),
            span("probe.on_event", Some(0), ThreadClass::Other, 400),
            // A grandchild is already inside its parent's time.
            span("nested", Some(1), ThreadClass::Caller, 100),
        ];
        assert_eq!(self_ns(&spans, 0), 500);
        assert_eq!(self_ns(&spans, 1), 200);
        assert_eq!(self_ns(&spans, 3), 5_000);
    }

    #[test]
    fn self_time_saturates_at_zero() {
        let spans = vec![
            span("parent", None, ThreadClass::Caller, 100),
            span("child", Some(0), ThreadClass::Caller, 150),
        ];
        assert_eq!(self_ns(&spans, 0), 0);
    }
}
