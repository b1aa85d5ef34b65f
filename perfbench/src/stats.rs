//! The benchmark's own arithmetic: percentiles with their sample counts,
//! per-op ratios that carry their base, and span self time.

/// Percentiles a latency summary may name, lowest first.
const TAIL_CANDIDATES: [f64; 4] = [0.9, 0.99, 0.999, 0.9999];

/// A tail percentile counts only with at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `q` of all samples at or below it. The reference
/// [`Latencies::percentile`] is tested against.
#[cfg(test)]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "percentile {q} outside [0, 1]");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 has too few.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// One latency distribution, summarised from every sample of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Samples the summary was taken from.
    pub count: usize,
    /// Median, in nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile, in nanoseconds.
    pub p99_ns: u64,
    /// The highest percentile with [`MIN_BEYOND`] samples beyond it.
    pub tail_q: f64,
    /// That percentile's value, in nanoseconds.
    pub tail_ns: u64,
    /// Mean, in nanoseconds.
    pub mean_ns: f64,
}

impl LatencySummary {
    /// Summarise every sample of `lat`. Fails when p99 would rest on
    /// fewer than [`MIN_BEYOND`] samples beyond it, so a reported p99 is
    /// never a single outlier.
    pub fn of(lat: &Latencies) -> Result<LatencySummary, String> {
        let n = lat.len();
        if samples_beyond(n, 0.99) < MIN_BEYOND {
            return Err(format!(
                "{n} latency samples leave fewer than {MIN_BEYOND} beyond p99"
            ));
        }
        let tail_q = highest_supported(n).expect("p99 is supported, so some tail is");
        Ok(LatencySummary {
            count: n,
            p50_ns: lat.percentile(0.5),
            p99_ns: lat.percentile(0.99),
            tail_q,
            tail_ns: lat.percentile(tail_q),
            mean_ns: lat.mean_ns(),
        })
    }
}

/// Latencies below this many nanoseconds are counted per nanosecond.
const FINE_NS: usize = 1 << 14;

/// Every latency of a run, kept exactly in memory that does not grow
/// with the run: a count per nanosecond below [`FINE_NS`], and the
/// slower samples one by one.
#[derive(Debug, Clone)]
pub struct Latencies {
    fine: Vec<u32>,
    slow: Vec<u64>,
    count: usize,
    sum: u128,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            fine: vec![0; FINE_NS],
            slow: Vec::new(),
            count: 0,
            sum: 0,
        }
    }
}

impl Latencies {
    /// Record one sample.
    pub fn record(&mut self, ns: u64) {
        match self.fine.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.slow.push(ns),
        }
        self.count += 1;
        self.sum += u128::from(ns);
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.fine.iter_mut().zip(&other.fine) {
            *a += b;
        }
        self.slow.extend_from_slice(&other.slow);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Mean, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Nearest-rank percentile of the samples (the tests hold it to
    /// `percentile` over the same samples sorted).
    pub fn percentile(&self, q: f64) -> u64 {
        assert!(self.count > 0, "percentile of no samples");
        let rank = ((q * self.count as f64).ceil() as usize).clamp(1, self.count);
        let mut seen = 0usize;
        for (ns, &c) in self.fine.iter().enumerate() {
            seen += c as usize;
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_unstable();
        slow[rank - seen - 1]
    }
}

/// A count divided by the number of operations it happened over, kept
/// with that base so a report can say what the ratio is out of.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerOp {
    /// `count * scale / base` (0 when the base is 0).
    pub value: f64,
    /// The numerator as measured.
    pub count: f64,
    /// Operations the count is spread over.
    pub base: u64,
}

impl PerOp {
    /// `count` per op (`scale` 1) or per thousand ops (`scale` 1000).
    pub fn new(count: f64, base: u64, scale: f64) -> PerOp {
        let value = if base == 0 {
            0.0
        } else {
            count * scale / base as f64
        };
        PerOp { value, count, base }
    }
}

/// A closed interval of a span, in nanoseconds on one clock.
pub type Interval = (u64, u64);

/// Nanoseconds of `parent` that none of `children` covers. Children are
/// clipped to the parent and overlaps between them count once.
pub fn self_time_ns(parent: Interval, children: &[Interval]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = p0;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (p1 - p0).saturating_sub(covered)
}

/// Share of an operation's observed latency that the per-layer costs do
/// not account for. Negative when the layer costs add up to more than
/// the observed latency (the layers were measured slower in isolation).
pub fn unexplained_frac(latency_ns: f64, covered_ns: f64) -> f64 {
    if latency_ns <= 0.0 {
        return 0.0;
    }
    1.0 - covered_ns / latency_ns
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // Rank rounds up: p50 of four samples is the second.
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100_000), Some(0.9999));
        assert_eq!(highest_supported(10_000_000), Some(0.9999));
    }

    #[test]
    fn latency_summary_states_count_and_tail() {
        let mut lat = Latencies::default();
        for ns in (1..=10_000).rev() {
            lat.record(ns);
        }
        let sum = LatencySummary::of(&lat).unwrap();
        assert_eq!(sum.count, 10_000);
        assert_eq!(sum.p50_ns, 5_000);
        assert_eq!(sum.p99_ns, 9_900);
        assert_eq!(sum.tail_q, 0.999);
        assert_eq!(sum.tail_ns, 9_990);
        assert!((sum.mean_ns - 5_000.5).abs() < 1e-9);
        let mut few = Latencies::default();
        (1..=999).for_each(|ns| few.record(ns));
        assert!(LatencySummary::of(&few).is_err());
    }

    #[test]
    fn latencies_match_percentiles_of_the_sorted_samples() {
        // Samples on both sides of the per-nanosecond range, split over
        // two recorders and merged.
        let mut state = 42u64;
        let samples: Vec<u64> = (0..20_000)
            .map(|_| crate::workload::mix(&mut state) % (3 * FINE_NS as u64))
            .collect();
        let (mut a, mut b) = (Latencies::default(), Latencies::default());
        for (i, &ns) in samples.iter().enumerate() {
            if i % 3 == 0 {
                a.record(ns)
            } else {
                b.record(ns)
            }
        }
        a.merge(&b);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.3, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.percentile(q), percentile(&sorted, q), "q = {q}");
        }
        assert_eq!(a.len(), samples.len());
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((a.mean_ns() - mean).abs() < 1e-6);
    }

    #[test]
    fn per_op_ratios_keep_their_base() {
        let r = PerOp::new(2_000.0, 1_000, 1.0);
        assert_eq!((r.value, r.count, r.base), (2.0, 2_000.0, 1_000));
        let k = PerOp::new(3.0, 1_500, 1000.0);
        assert_eq!(k.value, 2.0);
        assert_eq!(k.base, 1_500);
        assert_eq!(PerOp::new(5.0, 0, 1.0).value, 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 50)]), 60);
        // Nested children count once.
        assert_eq!(self_time_ns((0, 100), &[(10, 90), (20, 30)]), 20);
        // Children are clipped to the parent.
        assert_eq!(self_time_ns((10, 20), &[(0, 15), (18, 40)]), 3);
        // A child outside the parent covers nothing.
        assert_eq!(self_time_ns((10, 20), &[(30, 40)]), 10);
        assert_eq!(self_time_ns((0, 100), &[(0, 100)]), 0);
    }

    #[test]
    fn unexplained_fraction() {
        assert!((unexplained_frac(1000.0, 750.0) - 0.25).abs() < 1e-12);
        assert_eq!(unexplained_frac(1000.0, 1000.0), 0.0);
        assert!(unexplained_frac(1000.0, 1100.0) < 0.0);
        assert_eq!(unexplained_frac(0.0, 10.0), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
