//! Small numeric helpers shared by the workloads.

/// Latency percentiles that one burst of host noise cannot move. Samples
/// are cut into windows of `size` consecutive values; each window's p50
/// and p99 are taken, and the interquartile mean over windows is reported
/// (see [`interquartile_mean`]). A run with fewer samples than one window
/// is one window. Memory stays at one window, so a faster program does not
/// grow the benchmark's own memory.
#[derive(Debug)]
pub struct Windows {
    size: usize,
    buf: Vec<u64>,
    p50: Vec<u64>,
    p99: Vec<u64>,
    count: u64,
}

impl Windows {
    /// Windows of `size` samples.
    pub fn new(size: usize) -> Windows {
        Windows {
            size,
            buf: Vec::new(),
            p50: Vec::new(),
            p99: Vec::new(),
            count: 0,
        }
    }

    /// Record one sample.
    pub fn push(&mut self, x: u64) {
        self.buf.push(x);
        self.count += 1;
        if self.buf.len() == self.size {
            self.close();
        }
    }

    fn close(&mut self) {
        self.buf.sort_unstable();
        self.p50.push(quantile(&self.buf, 0.50));
        self.p99.push(quantile(&self.buf, 0.99));
        self.buf.clear();
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The interquartile means over windows of the windows' p50 and p99.
    /// A trailing partial window counts only when it is the only one.
    pub fn finish(mut self) -> (f64, f64) {
        if self.p50.is_empty() && !self.buf.is_empty() {
            self.close();
        }
        let iqm = |v: &[u64]| interquartile_mean(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
        (iqm(&self.p50), iqm(&self.p99))
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a few floats (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of the middle half of `values`: a quarter (rounded down) is dropped
/// from each end, so one outlier among four or more values is ignored (0
/// when empty). On the landing host the speed of a run switches between a
/// fast and a slow state every few seconds; a median over windows then
/// jumps between the two states' values as their shares cross one half,
/// while this mean moves with the shares.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    per(middle.iter().sum(), middle.len() as f64)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not exercise).
pub fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(per(1.0, 0.0), 0.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[3.0]), 3.0);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(interquartile_mean(&[1.0, 1.0, 1.0, 3.0, 3.0, 3.0]), 2.0);
    }

    #[test]
    fn one_noisy_window_does_not_move_the_result() {
        let mut w = Windows::new(100);
        for window in 0..5u64 {
            let scale = if window == 2 { 1000 } else { 1 };
            for x in 1..=100 {
                w.push(x * scale);
            }
        }
        w.push(1_000_000); // a partial trailing window is ignored
        assert_eq!(w.count(), 501);
        assert_eq!(w.finish(), (50.0, 99.0));

        let mut short = Windows::new(1000);
        (1..=100).for_each(|x| short.push(x));
        assert_eq!(short.finish(), (50.0, 99.0));
    }
}
