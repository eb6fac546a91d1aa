//! The per-cell conductance behaviour model.
//!
//! A programmed RRAM cell does not hold its conductance: the filament
//! relaxes over time ("conductance relaxation", Fig. 1b / Fig. 8 of the
//! paper). The model here captures the four effects the paper's chip
//! measurements exhibit:
//!
//! 1. **Residual programming spread** — program-verify leaves a small
//!    deviation around the target even "during programming".
//! 2. **Log-time relaxation** — the spread grows like `log10(1 + t/τ)`;
//!    most of the change happens in the first minutes (the paper notes
//!    collecting data after 1 day "does not significantly matter" compared
//!    to 30–60 min).
//! 3. **Level-dependent instability** — fully-formed (high-g) and
//!    fully-reset (low-g) filaments are stable; intermediate states are
//!    not. This is why an 8-level cell has much worse storage error than a
//!    2-level cell at the *same* physical noise (Fig. 7).
//! 4. **Heavy tails** — relaxation deviations are Laplace-like rather than
//!    Gaussian; rare large jumps dominate the error rate of widely-spaced
//!    levels (without heavy tails the 2-bit error rate of Fig. 7 would be
//!    orders of magnitude below the measured ~3 %).
//!
//! Plus a small **defect rate**: cells that read a random level regardless
//! of programming, setting the error floor of the 1-bit curve.
//!
//! Everything the model computes from a cell's target and age alone is a
//! `CellLevel`, built once per distinct level (`DeviceModel::level`).
//! Observing a cell is then two steps: `CellLevel::draw` takes the
//! cell's random words off the stream and `CellLevel::conductance`
//! evaluates them — so a caller can advance a stream past cells it does
//! not evaluate and still land on the words the next cell would get.

use crate::config::MlcConfig;
use rand::Rng;

/// Samples observed conductances for programmed cells under relaxation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    config: MlcConfig,
}

impl DeviceModel {
    /// Create the model for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails `MlcConfig::validate`.
    pub fn new(config: MlcConfig) -> DeviceModel {
        config.validate();
        DeviceModel { config }
    }

    /// The relaxation time factor `log10(1 + t/τ)`.
    pub(crate) fn time_factor(&self, age_s: f64) -> f64 {
        (1.0 + age_s.max(0.0) / self.config.relax_tau_s).log10()
    }

    /// Level instability in `[0, 1]`: 0 at the extreme conductances,
    /// 1 at `g_max/2`.
    pub(crate) fn midness(&self, target_g_us: f64) -> f64 {
        let t = (target_g_us / self.config.g_max_us).clamp(0.0, 1.0);
        4.0 * t * (1.0 - t)
    }

    /// The Laplace scale (µS) of the conductance deviation for a cell
    /// programmed to `target_g_us` and observed `age_s` seconds later.
    pub fn lambda(&self, target_g_us: f64, age_s: f64) -> f64 {
        let stability =
            self.config.stability_floor + self.config.stability_span * self.midness(target_g_us);
        (self.config.lambda_program_us + self.config.lambda_relax_us * self.time_factor(age_s))
            * stability
    }

    /// Mean downward drift (µS) at `age_s` for a cell at `target_g_us`.
    pub(crate) fn drift(&self, target_g_us: f64, age_s: f64) -> f64 {
        self.config.drift_us * self.time_factor(age_s) * self.midness(target_g_us)
    }

    /// The constants of a cell programmed to `target_g_us` and observed
    /// `age_s` seconds later — its λ, drift, defect rate and `g_max` —
    /// for every cell of that level to share.
    pub(crate) fn level(&self, target_g_us: f64, age_s: f64) -> CellLevel {
        CellLevel {
            target_us: target_g_us,
            lambda_us: self.lambda(target_g_us, age_s),
            drift_us: self.drift(target_g_us, age_s),
            defect_rate: self.config.defect_rate,
            g_max_us: self.config.g_max_us,
        }
    }

    /// Sample the observed conductance of one cell programmed to
    /// `target_g_us`, `age_s` seconds after programming: its
    /// `DeviceModel::level`, drawn and evaluated.
    pub fn sample_conductance<R: Rng>(&self, rng: &mut R, target_g_us: f64, age_s: f64) -> f64 {
        self.level(target_g_us, age_s).sample(rng)
    }
}

/// One programmed level at one age: what [`DeviceModel::level`] computes
/// once for every cell of that level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CellLevel {
    target_us: f64,
    lambda_us: f64,
    drift_us: f64,
    defect_rate: f64,
    g_max_us: f64,
}

/// The random words one cell's observation took, not yet evaluated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CellDraw {
    /// A defective cell: its uniformly random conductance in `[0, g_max]`.
    Defect(f64),
    /// A working cell: the uniform behind its Laplace deviation.
    Laplace(f64),
    /// A working cell on a level with no spread: nothing drawn.
    Exact,
}

impl CellLevel {
    /// The target conductance (µS).
    pub(crate) fn target_us(&self) -> f64 {
        self.target_us
    }

    /// Take one cell's words off `rng`: the defect trial (when the
    /// defect rate is positive), then a defective cell's conductance or
    /// a working cell's Laplace uniform (when λ is positive). Between
    /// none and two words; [`CellLevel::conductance`] needs no more.
    #[inline]
    pub(crate) fn draw<R: Rng>(&self, rng: &mut R) -> CellDraw {
        if self.defect_rate > 0.0 && rng.gen_bool(self.defect_rate) {
            return CellDraw::Defect(rng.gen_range(0.0..=self.g_max_us));
        }
        if self.lambda_us > 0.0 {
            CellDraw::Laplace(rng.gen_range(-0.5 + f64::EPSILON..0.5))
        } else {
            CellDraw::Exact
        }
    }

    /// The observed conductance a draw of this level gives. Defective
    /// cells read their random conductance; a working one reads the
    /// target, less the drift, plus its Laplace deviation.
    #[inline]
    pub(crate) fn conductance(&self, draw: CellDraw) -> f64 {
        let noise = match draw {
            CellDraw::Defect(g) => return g,
            CellDraw::Laplace(u) => laplace(u, self.lambda_us),
            CellDraw::Exact => 0.0,
        };
        let g = self.target_us - self.drift_us + noise;
        // Conductance is physically bounded: a cell cannot conduct
        // negatively and cannot exceed the fully-SET state by much.
        g.clamp(0.0, self.g_max_us * 1.1)
    }

    /// Draw and evaluate one cell.
    #[inline]
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        self.conductance(self.draw(rng))
    }
}

/// The zero-mean Laplace variate of scale `lambda` at the uniform
/// `u ∈ (-1/2, 1/2)`, by inverse CDF: `x = -λ·sign(u)·ln(1 - 2|u|)`.
fn laplace(u: f64, lambda: f64) -> f64 {
    -lambda * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> DeviceModel {
        DeviceModel::new(MlcConfig::with_bits(3))
    }

    #[test]
    fn time_factor_monotone() {
        let m = model();
        let mut last = -1.0;
        for &t in &[0.0, 1.0, 60.0, 1800.0, 3600.0, 86_400.0] {
            let f = m.time_factor(t);
            assert!(f > last, "time factor must grow with age");
            last = f;
        }
        assert_eq!(m.time_factor(0.0), 0.0);
    }

    #[test]
    fn midness_peaks_at_half() {
        let m = model();
        assert_eq!(m.midness(0.0), 0.0);
        assert_eq!(m.midness(50.0), 0.0);
        assert!((m.midness(25.0) - 1.0).abs() < 1e-12);
        assert!(m.midness(10.0) > 0.0 && m.midness(10.0) < 1.0);
    }

    #[test]
    fn lambda_larger_for_mid_levels_and_older_cells() {
        let m = model();
        assert!(m.lambda(25.0, 3600.0) > m.lambda(0.0, 3600.0));
        assert!(m.lambda(25.0, 86_400.0) > m.lambda(25.0, 1.0));
    }

    #[test]
    fn ideal_device_is_exact() {
        let m = DeviceModel::new(MlcConfig::ideal(3));
        let mut rng = StdRng::seed_from_u64(1);
        for &g in &[0.0, 7.14, 25.0, 50.0] {
            for &t in &[0.0, 3600.0, 86_400.0] {
                assert_eq!(m.sample_conductance(&mut rng, g, t), g);
            }
        }
    }

    #[test]
    fn sampled_conductances_bounded() {
        let m = model();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let g = m.sample_conductance(&mut rng, 25.0, 86_400.0);
            assert!((0.0..=55.0).contains(&g), "g = {g}");
        }
    }

    #[test]
    fn spread_grows_with_age() {
        let m = model();
        let spread = |age: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let samples: Vec<f64> = (0..4000)
                .map(|_| m.sample_conductance(&mut rng, 25.0, age))
                .collect();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
        };
        let early = spread(1.0, 3);
        let late = spread(86_400.0, 3);
        assert!(
            late > early * 1.3,
            "late spread {late} should exceed early spread {early}"
        );
    }

    #[test]
    fn extreme_levels_tighter_than_mid() {
        let m = model();
        let spread_at = |target: f64| {
            let mut rng = StdRng::seed_from_u64(4);
            let samples: Vec<f64> = (0..4000)
                .map(|_| m.sample_conductance(&mut rng, target, 3600.0))
                .collect();
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt()
        };
        // The SET extreme is clamped from above which also tightens it, so
        // compare the RESET extreme.
        assert!(spread_at(0.0) < spread_at(25.0));
    }

    #[test]
    fn laplace_sampler_statistics() {
        let mut rng = StdRng::seed_from_u64(5);
        let lambda = 2.0;
        let n = 50_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| laplace(rng.gen_range(-0.5 + f64::EPSILON..0.5), lambda))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Laplace variance is 2λ².
        assert!((var - 8.0).abs() < 0.5, "variance {var}");
    }

    #[test]
    fn defects_set_error_floor() {
        let mut config = MlcConfig::ideal(1);
        config.defect_rate = 0.5;
        let m = DeviceModel::new(config);
        let mut rng = StdRng::seed_from_u64(6);
        let samples: Vec<f64> = (0..2000)
            .map(|_| m.sample_conductance(&mut rng, 50.0, 0.0))
            .collect();
        // Half the cells should scatter away from the 50 µS target.
        let off_target = samples.iter().filter(|&&g| (g - 50.0).abs() > 1.0).count();
        assert!(
            (off_target as f64 / 2000.0 - 0.49).abs() < 0.1,
            "off-target fraction {}",
            off_target as f64 / 2000.0
        );
    }

    /// The sampler as it stood before it was split into a level, a draw
    /// and an evaluation — frozen here as the oracle of that split.
    fn frozen_sample_conductance<R: Rng>(
        m: &DeviceModel,
        rng: &mut R,
        target_g_us: f64,
        age_s: f64,
    ) -> f64 {
        let config = &m.config;
        if config.defect_rate > 0.0 && rng.gen_bool(config.defect_rate) {
            return rng.gen_range(0.0..=config.g_max_us);
        }
        let lambda = m.lambda(target_g_us, age_s);
        let noise = if lambda > 0.0 {
            let u: f64 = rng.gen_range(-0.5 + f64::EPSILON..0.5);
            -lambda * u.signum() * (1.0 - 2.0 * u.abs()).ln()
        } else {
            0.0
        };
        let g = target_g_us - m.drift(target_g_us, age_s) + noise;
        g.clamp(0.0, config.g_max_us * 1.1)
    }

    #[test]
    fn draw_then_evaluate_is_the_frozen_sampler() {
        const N: usize = 2000;
        let defect_only = MlcConfig {
            defect_rate: 0.5,
            ..MlcConfig::ideal(2)
        };
        let lambda_only = MlcConfig {
            defect_rate: 0.0,
            ..MlcConfig::with_bits(3)
        };
        let configs = (1..=3)
            .flat_map(|bits| [MlcConfig::with_bits(bits), MlcConfig::ideal(bits)])
            .chain([defect_only, lambda_only]);
        let mut seed = 0;
        for config in configs {
            let m = DeviceModel::new(config);
            for &target in crate::levels::LevelMap::new(&config).targets() {
                for age in [0.0, 3600.0, 86_400.0] {
                    let level = m.level(target, age);
                    seed += 1;
                    let (mut oracle, mut split, mut skipped) = (
                        StdRng::seed_from_u64(seed),
                        StdRng::seed_from_u64(seed),
                        StdRng::seed_from_u64(seed),
                    );
                    for i in 0..N {
                        let want = frozen_sample_conductance(&m, &mut oracle, target, age);
                        let got = level.conductance(level.draw(&mut split));
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{config:?}, target {target}, age {age}, sample {i}"
                        );
                        let _ = level.draw(&mut skipped);
                    }
                    // A draw takes exactly the words the frozen sampler
                    // takes, evaluated or not: a skipped or extra word
                    // leaves the stream somewhere else.
                    assert_eq!(split, oracle, "{config:?}, target {target}, age {age}");
                    assert_eq!(skipped, oracle, "{config:?}, target {target}, age {age}");
                }
            }
        }
    }
}
