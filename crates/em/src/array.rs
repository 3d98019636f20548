//! Array (first-failure) lifetime of a group of conductors.
//!
//! The paper's metric (§3.3): a pad/TSV array is "EM-damage-free" until its
//! first conductor fails, so the array failure CDF is
//! `P(t) = 1 − Π(1 − Fᵢ(t))`, and the *expected EM-damage-free lifetime*
//! is the `t` where `P(t) = 0.5`.
//!
//! # The lifetime search
//!
//! The lifetime is defined as the end point of a bisection on `x = ln t`
//! over `[ln(10⁻⁶·m_min), ln(10·m_min)]` (`m_min` the shortest
//! per-conductor median) that runs until its midpoint stops moving. That
//! takes about 51 full survival sums. Three stages reach the same `f64`
//! with about 2 of them plus a few cheaper approximate sums:
//!
//! 1. **Newton.** A safeguarded Newton search on
//!    `h(x) = ln(−ln S(eˣ)) − ln ln 2`, nearly linear in the tail where
//!    large arrays fail, with the slope taken from the Gaussian density.
//!    Its result is only a hint.
//! 2. **Snap.** From the hint, the exact decision `P(eˣ) < ½` walks ulp by
//!    ulp to adjacent floats `a < b` that it classifies low and high.
//! 3. **Replay.** The bisection runs unchanged, except that a midpoint
//!    `≤ a` goes low and one `≥ b` goes high without being evaluated.
//!    The decision is monotone in `x`, so those are the answers an
//!    evaluation would give, and the loop ends on the same float.
//!
//! When any guard fails (a non-finite hint, a hint outside the bracket,
//! a walk over its bound) no pair is known and the same loop evaluates
//! every midpoint.

use crate::black::BlackModel;
use crate::lognormal::{normal_cdf_and_pdf, Lognormal};

/// Newton iterations before the hint is given up.
const NEWTON_STEPS: usize = 50;
/// Newton stops once a step is this small relative to `|x|` (or to 1).
const NEWTON_REL_STEP: f64 = 1e-13;
/// Ulp steps the snap may take from the hint before it gives up.
const SNAP_STEPS: usize = 16;

/// One current-carrying conductor group.
struct Group {
    dist: Lognormal,
    /// `ln` of the per-conductor median, the centre of the group's
    /// failure distribution in `ln t`.
    ln_median: f64,
    count: f64,
}

/// The per-group lifetime distributions of one array, built once so that
/// repeated survival queries (the lifetime search) cost only the
/// lognormal CDF per group, not Black's equation.
struct ArraySurvival {
    /// Every current-carrying group, in input order (the survival sum is
    /// accumulated in that order).
    groups: Vec<Group>,
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
                dists.push(Group {
                    dist: Lognormal::new(median, model.sigma),
                    ln_median: median.ln(),
                    count,
                });
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
        for g in &self.groups {
            log_s += g.count * g.dist.log_survival(t);
            if log_s == f64::NEG_INFINITY {
                break;
            }
        }
        log_s
    }

    /// `ln S` and its slope `d ln S / dx` at `x = ln t`, for the Newton
    /// stage. Close to [`ArraySurvival::log_survival`]`(eˣ)` but not
    /// bit-identical to it; the slope is `NaN` once `S` reaches 0.
    fn log_survival_and_slope(&self, x: f64) -> (f64, f64) {
        let mut log_s = 0.0;
        let mut slope = 0.0;
        for g in &self.groups {
            let sigma = g.dist.sigma;
            let (f, pdf) = normal_cdf_and_pdf((x - g.ln_median) / sigma);
            if f >= 1.0 {
                return (f64::NEG_INFINITY, f64::NAN);
            }
            log_s += g.count * (-f).ln_1p();
            slope -= g.count * pdf / (sigma * (1.0 - f));
        }
        (log_s, slope)
    }

    /// Approximate `ln t` where `S(t) = ½`: Newton on
    /// `h(x) = ln(−ln S(eˣ)) − ln ln 2`, kept inside the shrinking bracket
    /// `[lo, hi]`. A step that leaves the bracket or is not finite becomes
    /// a bisection step. `None` if Newton does not settle.
    fn newton_ln_t(&self, mut lo: f64, mut hi: f64) -> Option<f64> {
        let ln_ln_2 = std::f64::consts::LN_2.ln();
        let mut x = self.min_median.ln();
        for _ in 0..NEWTON_STEPS {
            let (log_s, slope) = self.log_survival_and_slope(x);
            let h = (-log_s).ln() - ln_ln_2;
            if h < 0.0 {
                lo = x;
            } else {
                hi = x;
            }
            // h'(x) = slope / log_s.
            let step = h * log_s / slope;
            if step.abs() <= NEWTON_REL_STEP * x.abs().max(1.0) {
                return Some(x - step);
            }
            x = if x - step > lo && x - step < hi {
                x - step
            } else {
                0.5 * (lo + hi)
            };
        }
        None
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
    let lo = (min_median * 1e-6).ln();
    let hi = (min_median * 10.0).ln();
    let p_at = |ln_t: f64| 1.0 - array.log_survival(ln_t.exp()).exp();
    debug_assert!(p_at(lo) < 0.5, "lower bracket too high");
    debug_assert!(p_at(hi) > 0.5, "upper bracket too low");
    bisect_ln_t(lo, hi, array.newton_ln_t(lo, hi), |ln_t| p_at(ln_t) < 0.5)
}

/// The lifetime bisection on `[lo, hi]` under the decision `below(x)`
/// (`P(eˣ) < ½`), returning `exp` of the final midpoint. `hint` seeds the
/// snap: with a verified pair `a < b` the loop decides every midpoint
/// outside `(a, b)` without calling `below`; without one it calls `below`
/// on every midpoint.
fn bisect_ln_t(
    mut lo: f64,
    mut hi: f64,
    hint: Option<f64>,
    mut below: impl FnMut(f64) -> bool,
) -> f64 {
    let known = hint.and_then(|x| snap(x, lo, hi, &mut below));
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        // Once the midpoint lands on a bracket end, every further step
        // either leaves the bracket unchanged or collapses it onto `mid`,
        // so the answer below is already final (and bit-identical to
        // running all 200 steps).
        if mid == lo || mid == hi {
            break;
        }
        let low = match known {
            Some((a, _)) if mid <= a => true,
            Some((_, b)) if mid >= b => false,
            _ => below(mid),
        };
        if low {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0.5 * (lo + hi)).exp()
}

/// Adjacent floats `a < b` with `below(a)` and `!below(b)`, found by
/// walking ulp by ulp from `x`. `None` if `x` is not strictly inside
/// `(lo, hi)` or the walk takes more than [`SNAP_STEPS`] steps.
fn snap(x: f64, lo: f64, hi: f64, below: &mut impl FnMut(f64) -> bool) -> Option<(f64, f64)> {
    if !(x > lo && x < hi) {
        return None;
    }
    let mut cur = x;
    if below(cur) {
        for _ in 0..SNAP_STEPS {
            let up = cur.next_up();
            if !below(up) {
                return Some((cur, up));
            }
            cur = up;
        }
    } else {
        for _ in 0..SNAP_STEPS {
            let down = cur.next_down();
            if below(down) {
                return Some((down, cur));
            }
            cur = down;
        }
    }
    None
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

    /// The plain bisection every search must reproduce: 200 steps, each
    /// evaluating the decision.
    fn plain_bisection(mut lo: f64, mut hi: f64, below: impl Fn(f64) -> bool) -> f64 {
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if below(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (0.5 * (lo + hi)).exp()
    }

    /// A served-shaped array: `n` groups, currents over two decades,
    /// fractional counts, every seventh group carrying no current.
    fn served_shaped(n: usize) -> Vec<(f64, f64)> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let current = if i % 7 == 3 {
                    0.0
                } else {
                    10f64.powf(-3.0 + 2.0 * unit())
                };
                (current, 0.5 + 3.0 * unit())
            })
            .collect()
    }

    /// Runs the search on `groups` with the given hint (`None`: Newton's),
    /// returning the lifetime, the plain-bisection reference and the
    /// number of exact survival sums the search made.
    fn search(
        groups: &[(f64, f64)],
        m: &BlackModel,
        hint: Option<Option<f64>>,
    ) -> (f64, f64, usize) {
        let array = ArraySurvival::new(groups, m);
        let lo = (array.min_median * 1e-6).ln();
        let hi = (array.min_median * 10.0).ln();
        let below = |ln_t: f64| 1.0 - array.log_survival(ln_t.exp()).exp() < 0.5;
        let hint = hint.unwrap_or_else(|| array.newton_ln_t(lo, hi));
        let mut sums = 0;
        let t = bisect_ln_t(lo, hi, hint, |x| {
            sums += 1;
            below(x)
        });
        (t, plain_bisection(lo, hi, below), sums)
    }

    #[test]
    fn served_array_search_costs_at_most_four_exact_sums() {
        for (model, n) in [
            (BlackModel::paper_c4(), 480),
            (BlackModel::paper_tsv(), 300),
            (BlackModel::c4_bump(), 200),
        ] {
            let groups = served_shaped(n);
            let (t, reference, sums) = search(&groups, &model, None);
            assert_eq!(t.to_bits(), reference.to_bits(), "{n} groups");
            assert!(sums <= 4, "{n} groups: {sums} exact survival sums");
            assert_eq!(
                t.to_bits(),
                expected_em_free_lifetime(&groups, &model).to_bits()
            );
        }
    }

    #[test]
    fn failed_guards_fall_back_to_the_full_bisection() {
        let m = BlackModel::paper_c4();
        let groups = served_shaped(300);
        let array = ArraySurvival::new(&groups, &m);
        let lo = (array.min_median * 1e-6).ln();
        let hi = (array.min_median * 10.0).ln();
        let far = array.newton_ln_t(lo, hi).expect("Newton settles") - 0.5;
        // A non-finite Newton result, one outside the bracket, and one
        // too far from the crossing for the bounded walk.
        for hint in [
            Some(f64::NAN),
            Some(f64::INFINITY),
            Some(hi + 1.0),
            Some(far),
            None,
        ] {
            let (t, reference, sums) = search(&groups, &m, Some(hint));
            assert_eq!(t.to_bits(), reference.to_bits(), "hint {hint:?}");
            assert!(
                sums >= 40,
                "hint {hint:?}: the fallback evaluates every midpoint ({sums})"
            );
        }
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
