//! Fixed-size log-linear latency histogram: the serve tier's only
//! latency store.
//!
//! Values below [`EXACT_BELOW`] each get their own bucket. Above that,
//! every power of two `[2^k, 2^(k+1))` is cut into [`SUB_BUCKETS`]
//! equal-width buckets, so a bucket is never wider than 1/64 of its lower
//! bound. The whole `u64` range fits in [`BUCKETS`] counters (≈ 30 KB),
//! however many samples are recorded.
//!
//! A quantile is the upper bound of the bucket holding the nearest-rank
//! sample, clamped to the exact maximum: never below the exact
//! nearest-rank value and at most 1/64 above it, and exact below 128.
//! Count, sum and maximum are exact, and merging is bucket-wise addition,
//! so a merge of per-tier (or per-replica) histograms equals the histogram
//! of every sample recorded into one.

/// Buckets per power of two above [`EXACT_BELOW`]; the relative error
/// bound is `1 / SUB_BUCKETS`.
const SUB_BUCKETS: u64 = 64;
/// Values below this are recorded exactly (one bucket each).
const EXACT_BELOW: u64 = 2 * SUB_BUCKETS;
/// `EXACT_BELOW` exact buckets plus `SUB_BUCKETS` for each of the 57
/// powers of two from `2^7` to `2^63`.
const BUCKETS: usize = (EXACT_BELOW + SUB_BUCKETS * (64 - 7)) as usize;

/// A mergeable latency histogram of constant size (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    max: u64,
}

/// Bucket of `value`: its shift `s` is how many low bits the bucket
/// ignores (0 below [`EXACT_BELOW`]), and `value >> s` lies in
/// `[SUB_BUCKETS, 2·SUB_BUCKETS)` above it.
fn bucket_of(value: u64) -> usize {
    let bits = u64::BITS - value.leading_zeros();
    let shift = bits.saturating_sub(EXACT_BELOW.trailing_zeros());
    (u64::from(shift) * SUB_BUCKETS + (value >> shift)) as usize
}

/// Largest value that lands in bucket `index`.
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < EXACT_BELOW {
        return index;
    }
    let shift = index / SUB_BUCKETS - 1;
    let lower = (index - shift * SUB_BUCKETS) << shift;
    lower | ((1 << shift) - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other`: exact, associative and commutative.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantiles (`ceil(q·n) − 1`, 0 when empty) for
    /// ascending `qs`, in one walk over the buckets. Each is reported as
    /// its bucket's upper bound clamped to the exact maximum.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [u64; N] {
        let mut out = [0; N];
        if self.count == 0 {
            return out;
        }
        let ranks = qs.map(|q| ((q * self.count as f64).ceil() as u64).clamp(1, self.count));
        let mut next = 0;
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += c;
            while next < N && seen >= ranks[next] {
                out[next] = bucket_upper(index).min(self.max);
                next += 1;
            }
            if next == N {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact nearest-rank percentile over an ascending-sorted slice.
    fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(EXACT_BELOW - 1), EXACT_BELOW as usize - 1);
        assert_eq!(bucket_of(EXACT_BELOW), EXACT_BELOW as usize);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // Each bucket's upper bound lands in it, and one more lands in the
        // next: the buckets are contiguous and disjoint.
        for index in 0..BUCKETS - 1 {
            let upper = bucket_upper(index);
            assert_eq!(bucket_of(upper), index);
            assert_eq!(bucket_of(upper + 1), index + 1);
        }
    }

    /// splitmix64: the seeded source for the golden distributions.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn quantiles_bound_the_exact_nearest_rank_values() {
        let mut rng = Rng(0x5EED);
        let mut distributions: Vec<(&str, Vec<u64>)> = Vec::new();
        distributions.push((
            "uniform",
            (0..50_000).map(|_| rng.next() % 1_000_000).collect(),
        ));
        distributions.push((
            "log-normal",
            (0..50_000)
                .map(|_| {
                    // Box–Muller: exp(ln 2000 + 1.5·z), z ~ N(0, 1).
                    let z = (-2.0 * (1.0 - rng.unit()).ln()).sqrt()
                        * (std::f64::consts::TAU * rng.unit()).cos();
                    (2000.0f64.ln() + 1.5 * z).exp() as u64
                })
                .collect(),
        ));
        distributions.push((
            "bimodal",
            (0..50_000)
                .map(|_| {
                    if rng.next().is_multiple_of(5) {
                        1_000 + rng.next() % 4_000 // cache misses, ms
                    } else {
                        1 + rng.next() % 40 // cache hits, µs
                    }
                })
                .collect(),
        ));
        distributions.push(("constant", vec![777; 1_000]));
        distributions.push(("single", vec![123_456]));
        distributions.push(("zero", vec![0; 100]));
        distributions.push((
            "u64::MAX-scale",
            (0..10_000)
                .map(|_| u64::MAX - rng.next() % (1 << 60))
                .chain([u64::MAX])
                .collect(),
        ));
        for (name, mut samples) in distributions {
            let mut h = LatencyHistogram::new();
            for &s in &samples {
                h.record(s);
            }
            samples.sort_unstable();
            assert_eq!(h.count(), samples.len() as u64, "{name}");
            let exact_mean =
                samples.iter().map(|&s| u128::from(s)).sum::<u128>() as f64 / samples.len() as f64;
            assert_eq!(h.mean(), exact_mean, "{name}: the mean is exact");
            let qs = [0.50, 0.95, 0.99, 0.999];
            for (q, reported) in qs.into_iter().zip(h.quantiles(qs)) {
                let exact = nearest_rank(&samples, q);
                assert!(exact <= reported, "{name} p{q}: {reported} < exact {exact}");
                assert!(
                    u128::from(reported) * u128::from(SUB_BUCKETS)
                        <= u128::from(exact) * u128::from(SUB_BUCKETS + 1),
                    "{name} p{q}: {reported} more than 1/64 above exact {exact}"
                );
                if exact < EXACT_BELOW {
                    assert_eq!(reported, exact, "{name} p{q}: exact below 128");
                }
            }
        }
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantiles([0.5, 0.99]), [0, 0]);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }
}
