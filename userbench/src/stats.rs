//! Measurement arithmetic: percentiles with a sample floor, open-loop
//! lateness and backlog accounting, and span self times.

use std::time::Instant;

/// A percentile is only reported when at least this many samples lie
/// beyond it; below that, the tail is a handful of events, not a
/// distribution.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median and p99 of a latency sample, in the sample's unit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// Summarize `samples`; `None` when the sample is too small for a p99.
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    samples.sort_unstable();
    Some(Summary {
        n: samples.len(),
        p50: percentile(samples, 0.50)? as f64,
        p90: percentile(samples, 0.90)? as f64,
        p99: percentile(samples, 0.99)? as f64,
    })
}

/// Median of `values` (upper median for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// One paced request: when it was due, sent and answered, in nanoseconds
/// from the start of its phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Paced {
    pub due: u64,
    pub sent: u64,
    pub done: u64,
}

impl Paced {
    /// Send time minus due time: how late the generator ran.
    pub fn late(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }

    /// Answer time minus due time: what a user arriving on schedule waited.
    pub fn latency(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }
}

/// What one paced phase at a fixed rate measured.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseReport {
    pub rate: f64,
    pub sent: usize,
    /// Latency from due time, microseconds.
    pub latency_us: Option<Summary>,
    /// p99 of send time minus due time, microseconds.
    pub late_p99_us: f64,
    pub late_p50_us: f64,
    /// Requests by which the backlog grew from the second to the last
    /// quarter of the phase (see [`backlog_growth`]).
    pub backlog_growth: f64,
}

impl PhaseReport {
    /// The generator kept up: its backlog did not grow over the phase.
    pub fn steady(&self) -> bool {
        self.backlog_growth <= backlog_limit(self.rate)
    }
}

/// Largest backlog growth, in requests, still read as "not growing": two
/// requests or 50 milliseconds of arrivals, whichever is more. On small
/// virtual machines the host can delay every wakeup by milliseconds for
/// minutes at a time, which moves mean lateness by several milliseconds
/// between quarters of a healthy phase. A real deficit of `d` requests per
/// second keeps growing: over a `t`-second phase it reads `d * t / 2`, so
/// a deficit of under 1% of the rate crosses this over 15 s.
pub fn backlog_limit(rate: f64) -> f64 {
    (rate * 50e-3).max(2.0)
}

/// Growth of the generator's backlog over a phase at `rate` requests per
/// second, in requests.
///
/// By Little's law the mean backlog over an interval is the arrival rate
/// times the mean lateness of the requests due in it. The growth is the
/// mean backlog over the last quarter of the phase minus that over the
/// second quarter (the first quarter is left out as warm-up). A generator
/// that keeps up reads about zero; one falling behind at a deficit of
/// `d` requests per second over a phase of `t` seconds reads about
/// `d * t / 2`.
pub fn backlog_growth(samples: &[Paced], rate: f64) -> f64 {
    let Some(span) = samples.iter().map(|s| s.due).max() else {
        return 0.0;
    };
    let mean_late_ns = |lo: u64, hi: u64| {
        let (sum, n) = samples
            .iter()
            .filter(|s| s.due >= lo && s.due <= hi)
            .fold((0u128, 0u64), |(sum, n), s| (sum + s.late() as u128, n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    };
    let q2 = mean_late_ns(span / 4, span / 2);
    let q4 = mean_late_ns(span / 4 * 3, span);
    (q4 - q2) * 1e-9 * rate
}

/// Summarize a paced phase at `rate` requests per second.
pub fn phase_report(samples: &[Paced], rate: f64) -> PhaseReport {
    let mut latency: Vec<u64> = samples.iter().map(|s| s.latency() / 1_000).collect();
    let mut late: Vec<u64> = samples.iter().map(|s| s.late()).collect();
    late.sort_unstable();
    PhaseReport {
        rate,
        sent: samples.len(),
        latency_us: summarize(&mut latency),
        late_p99_us: late
            .get((late.len() as f64 * 0.99) as usize)
            .or(late.last())
            .map_or(0.0, |&ns| ns as f64 / 1e3),
        late_p50_us: late.get(late.len() / 2).map_or(0.0, |&ns| ns as f64 / 1e3),
        backlog_growth: backlog_growth(samples, rate),
    }
}

/// One timed call at a layer boundary. Spans of one request share `op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder; spans are read back when the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start: at(start),
            end: at(end),
        });
        id
    }

    /// Set the end of span `id`, recorded open, to `end`.
    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize].end = end.saturating_duration_since(self.epoch).as_nanos() as u64;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span (indexed like `spans`, whose ids must equal
/// their positions): its duration minus the part of its interval that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                let hi = hi.min(s.end);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.duration() - covered.min(s.duration())
        })
        .collect()
}

/// Nest replays of the same ops taken one layer down at a time into one
/// span tree. `layers[0]` is the outermost replay. Each replay's root span
/// for an op becomes the child of the previous layer's root span for the
/// same op, shifted (with its own descendants) to start where its parent
/// starts, so [`self_times`] yields each layer's span minus the next
/// layer's.
pub fn nest_layers(layers: &[Vec<Span>]) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    // Root span id (in `out`) and start of the previous layer, per op.
    let mut parents: std::collections::HashMap<u64, (u32, u64)> = Default::default();
    for layer in layers {
        let base = out.len() as u32;
        let mut shift = vec![0i128; layer.len()];
        let mut roots = Vec::new();
        for (i, s) in layer.iter().enumerate() {
            let mut t = *s;
            t.id = base + i as u32;
            match s.parent {
                Some(p) => {
                    shift[i] = shift[p as usize];
                    t.parent = Some(base + p);
                }
                None => {
                    if let Some(&(pid, pstart)) = parents.get(&s.op) {
                        shift[i] = pstart as i128 - s.start as i128;
                        t.parent = Some(pid);
                    }
                    roots.push((s.op, t.id, (s.start as i128 + shift[i]) as u64));
                }
            }
            t.start = (s.start as i128 + shift[i]) as u64;
            t.end = (s.end as i128 + shift[i]) as u64;
            out.push(t);
        }
        for (op, id, start) in roots {
            parents.insert(op, (id, start));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v, 0.50), Some(500));
        // 999 samples leave only 9 beyond the p99 rank.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..19], 0.50), None);
        assert_eq!(percentile(&v[..20], 0.50), Some(10));
        assert_eq!(percentile(&v[..21], 0.50), Some(11));
        assert_eq!(percentile(&[], 0.5), None);
        let mut small = vec![3, 1, 2];
        assert_eq!(summarize(&mut small), None);
    }

    fn schedule(n: u64, gap: u64, send: impl Fn(u64) -> u64) -> Vec<Paced> {
        (0..n)
            .map(|i| {
                let due = i * gap;
                let sent = send(due).max(due);
                Paced {
                    due,
                    sent,
                    done: sent + 50_000,
                }
            })
            .collect()
    }

    #[test]
    fn lateness_and_backlog_on_synthetic_schedules() {
        // 1000 req/s for 4 s, always sent 20 us late: steady.
        let on_time = schedule(4_000, 1_000_000, |due| due + 20_000);
        let r = phase_report(&on_time, 1_000.0);
        assert_eq!(r.late_p99_us, 20.0);
        assert!(r.backlog_growth.abs() < 1e-9);
        assert!(r.steady());
        assert_eq!(r.latency_us.unwrap().p50, 70.0);

        // The generator serves only 900 of 1000 req/s, so a request due at
        // t s goes out t/9 s late: the last quarter's requests wait 3.5/9 s
        // on average against 1.5/9 s in the second, a growth of
        // 2/9 s * 1000/s = 222 requests.
        let behind = schedule(4_000, 1_000_000, |due| due * 10 / 9);
        let r = phase_report(&behind, 1_000.0);
        assert!(
            (r.backlog_growth - 222.2).abs() < 1.0,
            "{}",
            r.backlog_growth
        );
        assert!(!r.steady());

        // One 5 ms stall in the middle recovers: not growth.
        let stall = schedule(4_000, 1_000_000, |due| {
            if (2_000_000_000..2_005_000_000).contains(&due) {
                2_005_000_000
            } else {
                due
            }
        });
        assert!(phase_report(&stall, 1_000.0).steady());
    }

    fn span(id: u32, parent: Option<u32>, op: u64, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op,
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span(0, None, 7, 0, 100),
            // Two overlapping children cover [10, 50); one runs past the
            // parent's end and is clipped at 100.
            span(1, Some(0), 7, 10, 40),
            span(2, Some(0), 7, 30, 50),
            span(3, Some(0), 7, 90, 120),
            // A grandchild only reduces its own parent.
            span(4, Some(1), 7, 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 30, 10]);
    }

    #[test]
    fn nested_replays_subtract_the_next_layer() {
        // Op 1 took 100 ns at the outer layer, 60 at the middle one and 25
        // at the inner one, whose own child stage took 10.
        let outer = vec![
            span(0, None, 1, 1_000, 1_100),
            span(1, None, 2, 2_000, 2_010),
        ];
        let middle = vec![span(0, None, 1, 5, 65)];
        let inner = vec![span(0, None, 1, 300, 325), span(1, Some(0), 1, 305, 315)];
        let tree = nest_layers(&[outer, middle, inner]);
        assert_eq!(tree.len(), 5);
        assert_eq!(tree[2].parent, Some(0));
        assert_eq!((tree[2].start, tree[2].end), (1_000, 1_060));
        assert_eq!(tree[3].parent, Some(2));
        assert_eq!((tree[3].start, tree[3].end), (1_000, 1_025));
        assert_eq!(tree[4].parent, Some(3));
        assert_eq!((tree[4].start, tree[4].end), (1_005, 1_015));
        // Outer op 2 has no lower layer, so all of it is self time.
        assert_eq!(self_times(&tree), vec![40, 10, 35, 15, 10]);
    }
}
