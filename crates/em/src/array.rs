//! Array (first-failure) lifetime of a group of conductors.
//!
//! The paper's metric (§3.3): a pad/TSV array is "EM-damage-free" until its
//! first conductor fails, so the array failure CDF is
//! `P(t) = 1 − Π(1 − Fᵢ(t))`, and the *expected EM-damage-free lifetime*
//! is the `t` where `P(t) = 0.5`.

use crate::black::BlackModel;
use crate::lognormal::Lognormal;

/// The per-group lifetime distributions of one array, built once so that
/// repeated survival queries (the lifetime bisection) cost only the
/// lognormal CDF per group, not Black's equation.
struct ArraySurvival {
    /// `(distribution, count)` of every current-carrying group, in input
    /// order (the survival sum is accumulated in that order).
    groups: Vec<(Lognormal, f64)>,
    /// Shortest per-conductor median; infinite if no group carries current.
    min_median: f64,
}

impl ArraySurvival {
    /// # Panics
    ///
    /// Panics if any count is not finite and positive.
    fn new(groups: &[(f64, f64)], model: &BlackModel) -> Self {
        let mut dists = Vec::with_capacity(groups.len());
        let mut min_median = f64::INFINITY;
        for &(current, count) in groups {
            assert!(count.is_finite() && count > 0.0, "count must be positive");
            let median = model.median_ttf_hours(current);
            if median < min_median {
                min_median = median;
            }
            if !median.is_infinite() {
                dists.push((Lognormal::new(median, model.sigma), count));
            }
        }
        ArraySurvival {
            groups: dists,
            min_median,
        }
    }

    /// `ln Π(1 − Fᵢ(t))^countᵢ`.
    fn log_survival(&self, t: f64) -> f64 {
        let mut log_s = 0.0;
        for (d, count) in &self.groups {
            log_s += count * d.log_survival(t);
            if log_s == f64::NEG_INFINITY {
                break;
            }
        }
        log_s
    }
}

/// The array failure probability at time `t` for conductor groups given as
/// `(current_a, count)` pairs.
///
/// Counts may be fractional (lumped conductors); they enter as exponents of
/// the per-conductor survival probability.
///
/// # Panics
///
/// Panics if any count is not finite and positive.
pub fn array_failure_probability(groups: &[(f64, f64)], model: &BlackModel, t: f64) -> f64 {
    1.0 - ArraySurvival::new(groups, model).log_survival(t).exp()
}

/// Expected EM-damage-free lifetime (hours): the time at which the array's
/// first-failure probability reaches 50%.
///
/// Returns `f64::INFINITY` if no conductor carries current.
///
/// # Panics
///
/// Panics if `groups` contains a non-positive count.
pub fn expected_em_free_lifetime(groups: &[(f64, f64)], model: &BlackModel) -> f64 {
    let array = ArraySurvival::new(groups, model);
    // Shortest per-conductor median bounds the search window.
    let min_median = array.min_median;
    if min_median.is_infinite() {
        return f64::INFINITY;
    }

    // P(t) is monotonically increasing; bisection on log t.
    // The array lifetime is below the shortest median (many samples of the
    // minimum) but not astronomically so: 10⁻⁶× is a safe lower bracket.
    let mut lo = (min_median * 1e-6).ln();
    let mut hi = (min_median * 10.0).ln();
    let p_at = |ln_t: f64| 1.0 - array.log_survival(ln_t.exp()).exp();
    debug_assert!(p_at(lo) < 0.5, "lower bracket too high");
    debug_assert!(p_at(hi) > 0.5, "upper bracket too low");
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        // Once the midpoint lands on a bracket end, every further step
        // either leaves the bracket unchanged or collapses it onto `mid`,
        // so the answer below is already final (and bit-identical to
        // running all 200 steps).
        if mid == lo || mid == hi {
            break;
        }
        if p_at(mid) < 0.5 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0.5 * (lo + hi)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BlackModel {
        BlackModel::c4_bump()
    }

    #[test]
    fn single_conductor_lifetime_is_its_median() {
        let m = model();
        let t = expected_em_free_lifetime(&[(0.05, 1.0)], &m);
        let median = m.median_ttf_hours(0.05);
        assert!(
            (t / median - 1.0).abs() < 1e-3,
            "one conductor: P(t)=0.5 at its median ({t} vs {median})"
        );
    }

    #[test]
    fn bigger_arrays_fail_sooner() {
        let m = model();
        let one = expected_em_free_lifetime(&[(0.05, 1.0)], &m);
        let hundred = expected_em_free_lifetime(&[(0.05, 100.0)], &m);
        let myriad = expected_em_free_lifetime(&[(0.05, 10_000.0)], &m);
        assert!(hundred < one);
        assert!(myriad < hundred);
    }

    #[test]
    fn higher_current_fails_sooner() {
        let m = model();
        let light = expected_em_free_lifetime(&[(0.02, 100.0)], &m);
        let heavy = expected_em_free_lifetime(&[(0.08, 100.0)], &m);
        assert!(heavy < light);
        // n = 2 ⇒ median ratio 16; array lifetime tracks closely.
        assert!(light / heavy > 10.0);
    }

    #[test]
    fn worst_group_dominates() {
        let m = model();
        let uniform = expected_em_free_lifetime(&[(0.08, 10.0)], &m);
        let mixed = expected_em_free_lifetime(&[(0.08, 10.0), (0.01, 1000.0)], &m);
        // Adding many lightly-stressed conductors barely moves the result.
        assert!((mixed / uniform) > 0.8 && mixed <= uniform);
    }

    #[test]
    fn zero_current_array_lives_forever() {
        let m = model();
        assert_eq!(
            expected_em_free_lifetime(&[(0.0, 500.0)], &m),
            f64::INFINITY
        );
    }

    #[test]
    fn fractional_counts_interpolate() {
        let m = model();
        let a = expected_em_free_lifetime(&[(0.05, 10.0)], &m);
        let b = expected_em_free_lifetime(&[(0.05, 10.5)], &m);
        let c = expected_em_free_lifetime(&[(0.05, 11.0)], &m);
        assert!(b < a && c < b);
    }

    #[test]
    fn failure_probability_is_monotone_in_time() {
        let m = model();
        let groups = [(0.05, 50.0)];
        let t50 = expected_em_free_lifetime(&groups, &m);
        let p_before = array_failure_probability(&groups, &m, t50 * 0.5);
        let p_after = array_failure_probability(&groups, &m, t50 * 2.0);
        assert!(p_before < 0.5);
        assert!(p_after > 0.5);
    }
}
