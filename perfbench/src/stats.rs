//! Order statistics over measured samples, beside the workspace's
//! `yav_stats::summary::median`.

use yav_stats::summary::median;

/// Latencies below this many nanoseconds are counted exactly, one
/// bucket per nanosecond (512 KiB of counters).
const EXACT_NS: usize = 1 << 16;

/// Nanosecond latencies pooled over a run. Samples below [`EXACT_NS`]
/// are kept as per-nanosecond counts and the rare longer ones as a list,
/// so percentiles are exact and pooling a run's samples costs no memory
/// per sample.
#[derive(Debug, Clone)]
pub struct Latencies {
    counts: Vec<u64>,
    over: Vec<u64>,
    n: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies {
            counts: vec![0; EXACT_NS],
            over: Vec::new(),
            n: 0,
        }
    }
}

impl Latencies {
    /// Adds samples.
    pub fn extend(&mut self, samples: &[u64]) {
        for &ns in samples {
            match self.counts.get_mut(ns as usize) {
                Some(c) => *c += 1,
                None => self.over.push(ns),
            }
        }
        self.n += samples.len() as u64;
    }

    /// Samples added.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank `q`-quantile (`0 < q <= 1`): the smallest sample with
    /// at least `q·n` samples at or below it.
    ///
    /// # Panics
    /// With no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(self.n > 0, "quantile of no samples");
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over[(rank - seen - 1) as usize]
    }
}

/// The lower envelope of a run's repeated passes over the same input.
/// A pass is cut into fixed chunks of work; for each chunk the envelope
/// keeps its fastest instance over all passes, with the latency samples
/// that instance took. Throughput is the pass's events over the summed
/// fastest chunk times, and the percentiles are taken over the kept
/// samples: the pass as it runs when the host lets it.
///
/// A shared host slows the whole process in phases from milliseconds to
/// tens of seconds (a 2-vCPU Xeon swung a replay pass between 2.7M and
/// 5.0M req/s, with a cache-resident stream as much as with one larger
/// than the LLC). A pooled or median figure reads whichever phase held
/// the run; the envelope needs only one fast instance of each chunk.
#[derive(Debug, Default)]
pub struct Envelope {
    /// Per chunk: fastest time (ns) and that instance's samples.
    best: Vec<(u64, Vec<u64>)>,
    events: u64,
}

impl Envelope {
    /// Adds a pass of `events` events, given as each chunk's time (ns)
    /// with its latency samples. Every pass must cut the same input the
    /// same way.
    ///
    /// # Panics
    /// If the pass has another chunk count than the first.
    pub fn add<'a>(
        &mut self,
        events: u64,
        chunks: impl ExactSizeIterator<Item = (u64, &'a [u64])>,
    ) {
        if self.best.is_empty() {
            self.best = vec![(u64::MAX, Vec::new()); chunks.len()];
            self.events = events;
        }
        assert_eq!(self.best.len(), chunks.len(), "passes cut differently");
        for ((ns, samples), best) in chunks.zip(&mut self.best) {
            if ns < best.0 {
                *best = (ns, samples.to_vec());
            }
        }
    }

    /// Requests per second of the envelope pass.
    pub fn rate(&self) -> f64 {
        let ns: u64 = self.best.iter().map(|b| b.0).sum();
        self.events as f64 / (ns as f64 / 1e9)
    }

    /// The kept latency samples.
    pub fn latencies(&self) -> Latencies {
        let mut l = Latencies::default();
        for (_, samples) in &self.best {
            l.extend(samples);
        }
        l
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the spread rule the benchmark's stability check uses.
///
/// # Panics
/// On fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: nearest rank over a sorted copy.
    fn nearest_rank(samples: &[u64], q: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    fn pooled(samples: &[u64]) -> Latencies {
        let mut l = Latencies::default();
        l.extend(samples);
        l
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        let l = pooled(&v);
        assert_eq!(l.quantile(0.50), 50);
        assert_eq!(l.quantile(0.99), 99);
        assert_eq!(l.quantile(1.0), 100);
        assert_eq!(pooled(&[9, 5]).quantile(0.5), 5);
        assert_eq!(pooled(&[9, 5]).quantile(0.99), 9);
        assert_eq!(pooled(&[42]).quantile(0.01), 42);
    }

    /// Pooling in pieces, with samples on both sides of the exact range,
    /// gives the nearest rank of the whole sample.
    #[test]
    fn pooled_quantiles_match_the_sorted_reference() {
        let samples: Vec<u64> = (0..5000u64)
            .map(|i| (i * 7919 % 1000) * if i % 50 == 0 { 700 } else { 1 })
            .collect();
        let mut l = Latencies::default();
        for piece in samples.chunks(777) {
            l.extend(piece);
        }
        assert_eq!(l.count(), 5000);
        assert!(samples.iter().any(|&s| s as usize >= EXACT_NS));
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.995, 0.999, 1.0] {
            assert_eq!(l.quantile(q), nearest_rank(&samples, q), "q = {q}");
        }
    }

    /// Expected values from CPython's `statistics.quantiles(v, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        let odd = [12.0, 7.0, 3.0, 4.2, 18.0, 2.0, 54.0];
        assert_eq!(quartiles(&odd), (3.0, 18.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        let four = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quartiles(&four), (12.5, 37.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0; 10]), 0.0);
    }

    /// Each chunk keeps its fastest instance, whichever pass it came
    /// from, and the percentiles come from those instances' samples only.
    #[test]
    fn envelope_keeps_the_fastest_instance_of_each_chunk() {
        let mut e = Envelope::default();
        let pass = |ns: [u64; 3], samples: [&'static [u64]; 3]| ns.into_iter().zip(samples);
        e.add(5, pass([400, 100, 300], [&[40, 41], &[10, 11], &[30]]));
        e.add(5, pass([200, 300, 100], [&[20, 21], &[99, 98], &[5]]));
        // Fastest: chunk 0 from pass 2, chunk 1 from pass 1, chunk 2 from pass 2.
        assert_eq!(e.rate(), 5.0 / (400.0 / 1e9));
        let l = e.latencies();
        assert_eq!(l.count(), 5);
        assert_eq!(l.quantile(0.2), 5);
        assert_eq!(l.quantile(0.6), 11);
        assert_eq!(l.quantile(0.8), 20);
        assert_eq!(l.quantile(1.0), 21);
    }
}
