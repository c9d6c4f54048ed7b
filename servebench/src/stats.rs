//! The benchmark's own arithmetic: nearest-rank percentiles, failure
//! counting and span self time. Pure
//! functions, unit-tested below, so a wrong number can only come from a
//! wrong measurement, never from the summary.

/// Latency recorded for an op that failed or was refused: the client's
/// op timeout, so it misses every latency limit and sorts above any
/// reply that counted.
pub const FAILED_MS: f64 = 10_000.0;

/// What one op of a load loop ended as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the op was sent, in seconds since its loop started.
    pub at_s: f64,
    /// Milliseconds from the send until the reply; [`FAILED_MS`] for a
    /// failure.
    pub latency_ms: f64,
    pub ok: bool,
}

impl Sample {
    pub fn ok(at_s: f64, latency_ms: f64) -> Sample {
        Sample {
            at_s,
            latency_ms,
            ok: true,
        }
    }

    pub fn failed(at_s: f64) -> Sample {
        Sample {
            at_s,
            latency_ms: FAILED_MS,
            ok: false,
        }
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `sorted`
/// (ascending): the smallest value with at least `p`% of the samples at
/// or below it. `None` for no samples.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile's position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// The fewest samples for which at least `beyond` of them lie past the
/// nearest-rank `p`-th percentile.
pub fn min_samples(p: f64, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= beyond)
        .expect("samples beyond p < 100 grow without bound")
}

/// A latency summary over one op class.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub attempted: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Whether at least 10 samples lie beyond the p99.
    pub p99_resolved: bool,
}

/// The median, over consecutive windows in time order, of each window's
/// nearest-rank `p`-th percentile. A window is just large enough that 10
/// samples lie beyond its percentile (1,000 for p99; one window when
/// there are fewer samples), so a stall moves the windows it covers, not
/// the reported value, unless it lasts half the run.
pub fn windowed(samples: &[Sample], p: f64) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let windows = (s.len() / min_samples(p, 10)).max(1);
    let per = s.len() / windows;
    let values: Vec<f64> = (0..windows)
        .filter_map(|w| {
            let hi = if w + 1 == windows {
                s.len()
            } else {
                (w + 1) * per
            };
            let mut lat: Vec<f64> = s[w * per..hi].iter().map(|x| x.latency_ms).collect();
            lat.sort_by(f64::total_cmp);
            nearest_rank(&lat, p)
        })
        .collect();
    (!values.is_empty()).then(|| median(&values))
}

/// Summarises `samples`; failed ops count in every percentile as
/// [`FAILED_MS`]. The p50 is the plain median of every sample: the
/// median of per-window medians would follow whichever speed the shared
/// host ran at for most of the run, while the pooled median moves
/// smoothly with the share of the run each speed held. The p99 is
/// [`windowed`], so one stall does not set it.
pub fn summarize(samples: &[Sample]) -> Summary {
    let mut all: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    all.sort_by(f64::total_cmp);
    Summary {
        attempted: samples.len(),
        failed: samples.iter().filter(|s| !s.ok).count(),
        p50_ms: nearest_rank(&all, 50.0).unwrap_or(FAILED_MS),
        p99_ms: windowed(samples, 99.0).unwrap_or(FAILED_MS),
        p99_resolved: samples_beyond(samples.len(), 99.0) >= 10,
    }
}

/// Failed ops over attempted ops (0 when nothing was attempted).
pub fn fail_ratio(attempted: usize, failed: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// One recorded span. `parent` indexes the span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            s.duration_ns()
                .saturating_sub(covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 51.0), Some(6.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn ten_samples_beyond_p99_needs_a_thousand() {
        assert_eq!(samples_beyond(100, 99.0), 1);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(0, 99.0), 0);
        assert_eq!(min_samples(99.0, 10), 1000);
        assert_eq!(min_samples(50.0, 10), 20);
        let ok: Vec<Sample> = (0..1000).map(|i| Sample::ok(0.0, i as f64)).collect();
        assert!(summarize(&ok).p99_resolved);
        assert!(!summarize(&ok[..999]).p99_resolved);
    }

    #[test]
    fn failures_miss_every_latency_limit() {
        let mut s: Vec<Sample> = (0..98).map(|i| Sample::ok(i as f64, 1.0)).collect();
        s.push(Sample::failed(98.0));
        s.push(Sample::failed(99.0));
        let sum = summarize(&s);
        assert_eq!((sum.attempted, sum.failed), (100, 2));
        assert_eq!(sum.p50_ms, 1.0);
        assert_eq!(sum.p99_ms, FAILED_MS);
        assert_eq!(fail_ratio(sum.attempted, sum.failed), 0.02);
        assert_eq!(fail_ratio(0, 0), 0.0);
    }

    #[test]
    fn p99_is_a_median_over_time_windows() {
        // 3,000 ops over 3 s; one stall makes 40 ops of the middle
        // second slow. Pooled, the stall sets p99; per window, it moves
        // only the middle window's p99.
        let s: Vec<Sample> = (0..3000)
            .rev()
            .map(|i| {
                let slow = (1400..1440).contains(&i);
                Sample::ok(
                    i as f64 / 1000.0,
                    if slow { 50.0 } else { 1.0 + (i % 7) as f64 },
                )
            })
            .collect();
        let mut pooled: Vec<f64> = s.iter().map(|x| x.latency_ms).collect();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(nearest_rank(&pooled, 99.0), Some(50.0));
        assert_eq!(windowed(&s, 99.0), Some(7.0));
        // Fewer samples than a window: one window, the plain percentile.
        assert_eq!(windowed(&s[..10], 99.0), Some(7.0));
        assert_eq!(windowed(&[], 50.0), None);
        // 2,500 samples make two p99 windows of 1,250; the stall lands
        // in one of them, so the median of two takes half of it.
        assert_eq!(windowed(&s[..2500], 99.0), Some(28.5));
    }

    #[test]
    fn p50_moves_with_the_share_of_a_slow_spell() {
        // Latencies spread over 1..=100 ms; a slow spell makes the ops in
        // its share of the run 1.5x slower. The reported median moves
        // with that share instead of jumping once the spell passes half
        // the run, as a median of per-window medians does.
        let run = |slow_share: f64| -> Vec<Sample> {
            (0..1000)
                .map(|i| {
                    let ms = 1.0 + ((i * 37) % 100) as f64;
                    let slow = (i as f64) < slow_share * 1000.0;
                    Sample::ok(i as f64 / 1000.0, if slow { 1.5 * ms } else { ms })
                })
                .collect()
        };
        let p50: Vec<f64> = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
            .iter()
            .map(|&share| summarize(&run(share)).p50_ms)
            .collect();
        assert_eq!((p50[0], p50[5]), (50.0, 75.0));
        assert!(p50.windows(2).all(|w| w[0] < w[1]), "{p50:?}");
        let step = |a: usize, b: usize| p50[b] - p50[a];
        assert!(step(2, 3) < 2.0 * step(1, 2), "{p50:?}");
    }

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1: child
            span(30, 60, Some(0)),  // 2: overlaps child 1
            span(15, 20, Some(1)),  // 3: grandchild of root
            span(90, 120, Some(0)), // 4: runs past the parent's end
        ];
        let st = self_times(&spans);
        // Root: 100 minus the union [10,60) + [90,100) = 60.
        assert_eq!(st[0], 40);
        // Child 1 loses only its own child's 5 ns.
        assert_eq!(st[1], 25);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 5);
        assert_eq!(st[4], 30);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
