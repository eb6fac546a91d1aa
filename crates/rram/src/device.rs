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
    /// Panics if `config` fails [`MlcConfig::validate`].
    pub fn new(config: MlcConfig) -> DeviceModel {
        config.validate();
        DeviceModel { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &MlcConfig {
        &self.config
    }

    /// The relaxation time factor `log10(1 + t/τ)`.
    pub fn time_factor(&self, age_s: f64) -> f64 {
        (1.0 + age_s.max(0.0) / self.config.relax_tau_s).log10()
    }

    /// Level instability in `[0, 1]`: 0 at the extreme conductances,
    /// 1 at `g_max/2`.
    pub fn midness(&self, target_g_us: f64) -> f64 {
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
    pub fn drift(&self, target_g_us: f64, age_s: f64) -> f64 {
        self.config.drift_us * self.time_factor(age_s) * self.midness(target_g_us)
    }

    /// Sample the observed conductance of one cell programmed to
    /// `target_g_us`, `age_s` seconds after programming.
    ///
    /// Defective cells (probability `defect_rate`) read a uniformly random
    /// conductance in `[0, g_max]`.
    pub fn sample_conductance<R: Rng>(&self, rng: &mut R, target_g_us: f64, age_s: f64) -> f64 {
        if self.config.defect_rate > 0.0 && rng.gen_bool(self.config.defect_rate) {
            return rng.gen_range(0.0..=self.config.g_max_us);
        }
        let lambda = self.lambda(target_g_us, age_s);
        let noise = if lambda > 0.0 {
            sample_laplace(rng, lambda)
        } else {
            0.0
        };
        let g = target_g_us - self.drift(target_g_us, age_s) + noise;
        // Conductance is physically bounded: a cell cannot conduct
        // negatively and cannot exceed the fully-SET state by much.
        g.clamp(0.0, self.config.g_max_us * 1.1)
    }

    /// Sample a batch of conductances (one per target) at the same age.
    pub fn sample_batch<R: Rng>(&self, rng: &mut R, targets: &[f64], age_s: f64) -> Vec<f64> {
        targets
            .iter()
            .map(|&t| self.sample_conductance(rng, t, age_s))
            .collect()
    }
}

/// Sample a zero-mean Laplace variate with scale `lambda` via inverse CDF.
fn sample_laplace<R: Rng>(rng: &mut R, lambda: f64) -> f64 {
    // u ∈ (-1/2, 1/2); x = -λ·sign(u)·ln(1 - 2|u|)
    let u: f64 = rng.gen_range(-0.5 + f64::EPSILON..0.5);
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
        let samples: Vec<f64> = (0..n).map(|_| sample_laplace(&mut rng, lambda)).collect();
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

    #[test]
    fn batch_matches_individual_draws() {
        let m = model();
        let targets = vec![0.0, 25.0, 50.0];
        let a = m.sample_batch(&mut StdRng::seed_from_u64(7), &targets, 60.0);
        let b = m.sample_batch(&mut StdRng::seed_from_u64(7), &targets, 60.0);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }
}
