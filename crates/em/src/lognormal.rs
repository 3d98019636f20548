//! Lognormal failure-time distribution.
//!
//! EM failure times are empirically lognormal: `ln T ~ N(ln median, σ²)`.

/// Error function, via the Abramowitz & Stegun 7.1.26 rational
/// approximation (max absolute error 1.5 × 10⁻⁷, ample for failure
/// probabilities).
pub fn erf(x: f64) -> f64 {
    erf_and_gaussian(x).0
}

/// [`erf`]`(x)` together with the Gaussian factor `exp(−x²)` the
/// approximation already computes.
fn erf_and_gaussian(x: f64) -> (f64, f64) {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let gaussian = (-x * x).exp();
    (sign * (1.0 - poly * gaussian), gaussian)
}

/// Standard normal CDF `Φ(z)`.
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

/// [`normal_cdf`]`(z)` and the standard normal density `φ(z)`, sharing
/// one exponential. The CDF is bit-identical to [`normal_cdf`].
pub(crate) fn normal_cdf_and_pdf(z: f64) -> (f64, f64) {
    /// `1/√(2π)`.
    const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    let (erf, gaussian) = erf_and_gaussian(z / std::f64::consts::SQRT_2);
    (0.5 * (1.0 + erf), FRAC_1_SQRT_2PI * gaussian)
}

/// A lognormal failure-time distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lognormal {
    /// Median failure time (same unit as queries).
    pub median: f64,
    /// Shape parameter σ.
    pub sigma: f64,
}

impl Lognormal {
    /// Creates the distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `median > 0` (or infinite) and `sigma > 0`.
    pub fn new(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive, got {median}");
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be positive, got {sigma}"
        );
        Lognormal { median, sigma }
    }

    /// Failure CDF `F(t) = Φ(ln(t / median) / σ)`.
    ///
    /// Returns 0 for `t ≤ 0` and for infinite medians (a conductor with no
    /// current never fails).
    pub fn cdf(&self, t: f64) -> f64 {
        if t <= 0.0 || self.median.is_infinite() {
            return 0.0;
        }
        normal_cdf((t / self.median).ln() / self.sigma)
    }

    /// Survival function `1 − F(t)`.
    pub fn survival(&self, t: f64) -> f64 {
        1.0 - self.cdf(t)
    }

    /// `ln` of the survival function, computed stably for the array
    /// product `Π(1 − Fᵢ)^countᵢ`.
    pub fn log_survival(&self, t: f64) -> f64 {
        let f = self.cdf(t);
        if f >= 1.0 {
            f64::NEG_INFINITY
        } else {
            (1.0 - f).ln_1p_off()
        }
    }
}

/// Helper trait: `ln(1 − f)` written as `ln_1p(−f)` for accuracy near 0.
trait Ln1pOff {
    fn ln_1p_off(self) -> f64;
}

impl Ln1pOff for f64 {
    fn ln_1p_off(self) -> f64 {
        // `self` is (1 − f); compute ln(self) via ln_1p(self − 1).
        (self - 1.0).ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_symmetry() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-8);
        for z in [0.5, 1.0, 2.0] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn cdf_and_pdf_share_the_cdf_bits() {
        for z in [-40.0, -6.5, -1.0, 0.0, 0.3, 2.0, 9.0] {
            let (cdf, pdf) = normal_cdf_and_pdf(z);
            assert_eq!(cdf.to_bits(), normal_cdf(z).to_bits(), "z = {z}");
            let exact = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
            assert!((pdf - exact).abs() <= 1e-13 * exact, "z = {z}");
        }
    }

    #[test]
    fn median_has_half_probability() {
        let d = Lognormal::new(100.0, 0.3);
        assert!((d.cdf(100.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_is_monotonic() {
        let d = Lognormal::new(50.0, 0.3);
        let mut prev = 0.0;
        for t in [1.0, 10.0, 25.0, 50.0, 100.0, 1000.0] {
            let f = d.cdf(t);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn infinite_median_never_fails() {
        let d = Lognormal {
            median: f64::INFINITY,
            sigma: 0.3,
        };
        assert_eq!(d.cdf(1e30), 0.0);
        assert_eq!(d.log_survival(1e30), 0.0);
    }

    #[test]
    fn log_survival_matches_survival() {
        let d = Lognormal::new(10.0, 0.3);
        for t in [5.0, 10.0, 20.0] {
            assert!((d.log_survival(t) - d.survival(t).ln()).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "median must be positive")]
    fn non_positive_median_rejected() {
        Lognormal::new(0.0, 0.3);
    }
}
