//! Order statistics, time-boxed repetition and the seeded arrival
//! schedule — the arithmetic every section of the suite shares.

use std::time::{Duration, Instant};

/// Sort a sample ascending (NaNs cannot occur: every sample is a
/// duration or a count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` percent of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample — a metric without samples is a harness bug,
/// not a zero.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it (so the figure is not set by one or two
/// outliers); the median when the sample supports nothing higher.
pub fn supported_tail(samples: usize) -> f64 {
    // (percentile, thousandths of the sample beyond it)
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)]
        .into_iter()
        .find(|&(_, beyond)| samples * beyond >= 10_000)
        .map_or(50.0, |(p, _)| p)
}

/// Call `f` until `budget` is spent and at least `min_reps` calls were
/// made, returning each call's wall time in seconds.
pub fn time_reps(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let deadline = Instant::now() + budget;
    let mut walls = Vec::new();
    while walls.len() < min_reps || Instant::now() < deadline {
        let start = Instant::now();
        f();
        walls.push(start.elapsed().as_secs_f64());
    }
    walls
}

/// Share of CPU time the hypervisor reported stolen from this guest
/// above which a sample is set aside: on a shared box, bursts of steal
/// last seconds and slow everything by a factor of two or more, which
/// says nothing about the program.
pub const QUIET_STEAL_SHARE: f64 = 0.03;

/// Cumulative (steal, total) CPU ticks of the guest, from `/proc/stat`.
/// Zeros where the file is missing, which makes every sample quiet.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// One timed sample and the steal share of the interval it was taken in.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<T> {
    pub value: T,
    pub steal_share: f64,
}

/// Run `f`, returning its value, its time in guest seconds and the share
/// of CPU time stolen meanwhile. Guest seconds are wall seconds times
/// `1 - steal share`: the time the guest had its CPUs, which is what an
/// unshared box would have taken (to first order — work that waits for
/// its slowest thread loses more than the average share). `/proc/stat`
/// counts 10 ms ticks, so over a 0.1 s sample on two CPUs the share moves
/// in steps of 5 %; [`quiet`] sets such samples aside while it can, and
/// then guest seconds are wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (steal_before, total_before) = cpu_ticks();
    let start = Instant::now();
    let value = f();
    let wall_s = start.elapsed().as_secs_f64();
    let (steal_after, total_after) = cpu_ticks();
    let total = total_after.saturating_sub(total_before);
    let steal = steal_after.saturating_sub(steal_before);
    let steal_share = steal as f64 / total.max(1) as f64;
    (value, wall_s * (1.0 - steal_share), steal_share)
}

/// The samples taken while the guest had its CPUs: those at or below
/// [`QUIET_STEAL_SHARE`] — or, on a box so busy that fewer than half
/// are, the quieter half. Order among the kept samples is preserved.
pub fn quiet<T: Clone>(samples: &[Sample<T>]) -> Vec<T> {
    let shares = sorted(samples.iter().map(|s| s.steal_share).collect());
    let median_share = shares.get(shares.len().saturating_sub(1) / 2).copied();
    let limit = median_share.map_or(QUIET_STEAL_SHARE, |m| m.max(QUIET_STEAL_SHARE));
    samples
        .iter()
        .filter(|s| s.steal_share <= limit)
        .map(|s| s.value.clone())
        .collect()
}

/// splitmix64: the suite's only randomness beyond the workload
/// generator, kept here so a schedule depends on nothing but its seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due times of an open-loop generator: Poisson arrivals at `rate` per
/// second (independent users), from 0 up to `duration`. The same seed
/// gives the same schedule; the mean rate is fixed by `rate` alone.
pub fn arrival_schedule(seed: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = SplitMix(seed);
    let mut due = Vec::new();
    let mut at = 0.0f64;
    loop {
        at += -rng.next_unit().ln() / rate;
        if at >= duration.as_secs_f64() {
            return due;
        }
        due.push(Duration::from_secs_f64(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 95.0), 95.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(10_000), 99.9);
        assert_eq!(supported_tail(2_400), 99.0);
        assert_eq!(supported_tail(1_000), 99.0);
        assert_eq!(supported_tail(999), 95.0);
        assert_eq!(supported_tail(420), 95.0);
        assert_eq!(supported_tail(199), 90.0);
        assert_eq!(supported_tail(99), 75.0);
        assert_eq!(supported_tail(39), 50.0);
    }

    #[test]
    fn schedule_is_a_function_of_its_seed() {
        let a = arrival_schedule(7, 60.0, Duration::from_secs(5));
        let b = arrival_schedule(7, 60.0, Duration::from_secs(5));
        let c = arrival_schedule(8, 60.0, Duration::from_secs(5));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
        assert!(a.last().unwrap() < &Duration::from_secs(5));
        // 300 expected arrivals; five standard deviations either side.
        assert!((215..=385).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn quiet_keeps_low_steal_samples_or_the_quieter_half() {
        let sample = |value: u32, steal_share: f64| Sample { value, steal_share };
        let mostly_quiet = [
            sample(1, 0.0),
            sample(2, 0.40),
            sample(3, 0.01),
            sample(4, 0.03),
            sample(5, 0.10),
        ];
        assert_eq!(quiet(&mostly_quiet), [1, 3, 4]);
        let noisy = [
            sample(1, 0.5),
            sample(2, 0.2),
            sample(3, 0.0),
            sample(4, 0.3),
            sample(5, 0.25),
        ];
        assert_eq!(quiet(&noisy), [2, 3, 5]);
        let even = [
            sample(1, 0.5),
            sample(2, 0.2),
            sample(3, 0.1),
            sample(4, 0.3),
        ];
        assert_eq!(quiet(&even), [2, 3]);
        assert_eq!(quiet(&[sample(1, 0.9)]), [1]);
        assert_eq!(quiet::<u32>(&[]), Vec::<u32>::new());
    }

    #[test]
    fn timed_reports_wall_and_a_share() {
        let (value, guest_s, steal_share) = timed(|| 7);
        assert_eq!(value, 7);
        assert!(guest_s >= 0.0 && (0.0..=1.0).contains(&steal_share));
    }

    #[test]
    fn time_reps_honours_the_minimum() {
        let mut calls = 0;
        let walls = time_reps(Duration::ZERO, 3, || calls += 1);
        assert_eq!((walls.len(), calls), (3, 3));
    }
}
