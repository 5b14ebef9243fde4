//! Order statistics under the benchmark's reporting rule: a percentile is
//! reported only when at least ten samples lie beyond it.

/// Samples needed before percentile `q` (in `0..1`) has ten samples beyond it.
pub fn min_samples(q: f64) -> usize {
    // The epsilon keeps float error from asking for one sample too many.
    (10.0 / (1.0 - q) - 1e-9).ceil() as usize
}

/// Nearest-rank percentile of `samples`, or `None` when fewer than ten samples
/// lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.len() < min_samples(q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Latency samples of a closed loop too fast to keep every sample: a systematic
/// sample whose stride doubles (dropping every other kept sample) whenever
/// `cap` samples are held, so memory stays bounded and the sample stays uniform.
#[derive(Debug)]
pub struct Decimated {
    kept: Vec<f64>,
    cap: usize,
    stride: u64,
    seen: u64,
}

impl Decimated {
    pub fn new(cap: usize) -> Decimated {
        Decimated {
            kept: Vec::with_capacity(cap),
            cap,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, secs: f64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.kept.push(secs);
            }
        }
        self.seen += 1;
    }

    /// Samples offered, kept or not.
    pub fn seen(&self) -> usize {
        self.seen as usize
    }

    pub fn samples(&self) -> Vec<f64> {
        self.kept.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn decimation_keeps_a_uniform_bounded_sample() {
        let mut d = Decimated::new(100);
        for i in 0..1000 {
            d.push(f64::from(i));
        }
        assert_eq!(d.seen(), 1000);
        let kept = d.samples();
        assert!(kept.len() <= 100 && kept.len() >= 50, "{}", kept.len());
        assert!(kept.windows(2).all(|w| w[1] - w[0] == 16.0));
    }
}
