//! Counting statistics: exact (Garwood) Poisson confidence intervals and
//! the special functions needed to compute them.
//!
//! The paper reports cross sections "with error bars considering Poisson's
//! 95% confidence interval"; every simulated campaign does the same.

use tn_rng::Rng;

/// Draws from a Poisson distribution (Knuth's product method for small
/// means, normal approximation above 30 — accurate to well under the
/// counting noise of any campaign).
///
/// # Panics
///
/// Panics if `mean` is negative or not finite.
pub fn poisson(rng: &mut Rng, mean: f64) -> u64 {
    assert!(
        mean >= 0.0 && mean.is_finite(),
        "Poisson mean must be non-negative and finite, got {mean}"
    );
    if mean == 0.0 {
        return 0;
    }
    if mean < 30.0 {
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let u1: f64 = rng.gen_f64().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (mean + z * mean.sqrt()).max(0.0).round() as u64
    }
}

/// The error function, via the regularized incomplete gamma identity
/// erf(x) = sign(x)·P(1/2, x²). Accurate to ~1e-12.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = reg_lower_gamma(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Published Lanczos coefficients, kept digit-for-digit verbatim.
    #[allow(clippy::excessive_precision, clippy::inconsistent_digit_grouping)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps the series in its accurate range.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Shapes above this use [`large_shape_cdf`]; below it the series and the
/// continued fraction converge within [`MAX_TERMS`] iterations.
const LARGE_SHAPE: f64 = 1.0e5;

/// Iteration cap of the series and the continued fraction. Near `x = a`
/// both need about 8.3·√a terms, so this covers every shape up to
/// [`LARGE_SHAPE`].
const MAX_TERMS: u32 = 10_000;

/// Regularized lower incomplete gamma function P(a, x) = γ(a,x)/Γ(a).
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes style); shapes above `1e5` integrate the density
/// numerically instead, by Gauss–Legendre quadrature in the standardised
/// variable.
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0");
    if x == 0.0 {
        return 0.0;
    }
    if a > LARGE_SHAPE {
        return large_shape_cdf(a, (x - a) / a.sqrt());
    }
    let lg = ln_gamma(a);
    if x < a + 1.0 {
        // Series: P(a,x) = x^a e^-x / Γ(a) * Σ x^n Γ(a)/Γ(a+1+n)
        let mut term = 1.0 / a;
        let mut sum = term;
        let mut ap = a;
        for _ in 0..MAX_TERMS {
            ap += 1.0;
            term *= x / ap;
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (a * x.ln() - x - lg).exp()
    } else {
        // Continued fraction for Q(a,x); P = 1 - Q.
        let tiny = 1e-300;
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / tiny;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..MAX_TERMS {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < tiny {
                d = tiny;
            }
            c = b + an / c;
            if c.abs() < tiny {
                c = tiny;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (a * x.ln() - x - lg).exp() * h;
        1.0 - q
    }
}

/// P(a, a + s·√a) for a large shape `a`: Gauss–Legendre quadrature of
/// the gamma density in the standardised variable `s`, over the twelve
/// units on the near side of `s` (the far tail beyond is below 1e-30).
///
/// Stirling's series normalises the density, so no lnΓ(a) — of size
/// a·ln a, whose rounding alone would swamp the result — is ever formed:
/// with t = a(1 + u) and u = s/√a the density is
/// exp(a·(ln(1+u) − u) − μ(a)) / ((1 + u)·√(2π)), μ the Stirling
/// correction.
fn large_shape_cdf(a: f64, s: f64) -> f64 {
    // Five-point Gauss–Legendre nodes and weights on [-1, 1].
    const NODES: [f64; 5] = [
        0.0,
        0.538_469_310_105_683_1,
        -0.538_469_310_105_683_1,
        0.906_179_845_938_664,
        -0.906_179_845_938_664,
    ];
    const WEIGHTS: [f64; 5] = [
        128.0 / 225.0,
        0.478_628_670_499_366_47,
        0.478_628_670_499_366_47,
        0.236_926_885_056_189_08,
        0.236_926_885_056_189_08,
    ];
    const TAIL: f64 = 12.0;
    const PANELS: usize = 48;
    let root = a.sqrt();
    let mu = 1.0 / (12.0 * a) - 1.0 / (360.0 * a * a * a);
    let density = |t: f64| {
        let u = t / root;
        (a * ln1p_minus_x(u) - mu).exp() / (1.0 + u)
    };
    // Integrate the lower tail below s, or the upper tail above it.
    let (from, to) = if s <= 0.0 {
        ((s - TAIL).max(-root), s)
    } else {
        (s, s + TAIL)
    };
    let half = 0.5 * (to - from) / PANELS as f64;
    let mut area = 0.0;
    for panel in 0..PANELS {
        let mid = from + (2 * panel + 1) as f64 * half;
        for (node, weight) in NODES.iter().zip(WEIGHTS) {
            area += weight * density(mid + node * half);
        }
    }
    let area = area * half / (2.0 * std::f64::consts::PI).sqrt();
    if s <= 0.0 {
        area
    } else {
        1.0 - area
    }
}

/// ln(1 + u) − u, without the cancellation of the direct form near 0.
fn ln1p_minus_x(u: f64) -> f64 {
    if u.abs() >= 0.01 {
        return u.ln_1p() - u;
    }
    // −u²/2 + u³/3 − …: twelve terms reach double precision at |u| < 0.01.
    let mut power = u * u;
    let mut sum = 0.0;
    for k in 2..=13 {
        let term = power / k as f64;
        sum += if k % 2 == 0 { -term } else { term };
        power *= u;
    }
    sum
}

/// Quantile of the chi-square distribution with `k` degrees of freedom,
/// solved by bisection on the regularized incomplete gamma CDF.
///
/// # Panics
///
/// Panics if `k <= 0` or `p` is outside `(0, 1)`.
pub fn chi_square_quantile(p: f64, k: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive");
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1), got {p}");
    let a = k / 2.0;
    if a > LARGE_SHAPE {
        // Bisect in the standardised variable s (x = a + s·√a), where the
        // quantile's resolution does not shrink as the shape grows.
        let (mut lo, mut hi) = (-40.0f64, 40.0f64);
        while hi - lo > 1e-13 {
            let mid = 0.5 * (lo + hi);
            if large_shape_cdf(a, mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        return 2.0 * (a + 0.5 * (lo + hi) * a.sqrt());
    }
    let cdf = |x: f64| reg_lower_gamma(k / 2.0, x / 2.0);
    let (mut lo, mut hi) = (0.0, k.max(1.0));
    while cdf(hi) < p {
        hi *= 2.0;
        assert!(hi < 1e12, "chi-square quantile bracket failed");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-12 * hi.max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// An exact (Garwood) Poisson confidence interval on a mean count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonInterval {
    /// Observed count.
    pub observed: u64,
    /// Lower bound of the mean.
    pub lower: f64,
    /// Upper bound of the mean.
    pub upper: f64,
    /// Confidence level, e.g. 0.95.
    pub confidence: f64,
}

impl PoissonInterval {
    /// Computes the exact two-sided interval for an observed count.
    ///
    /// Garwood (1936): lower = χ²(α/2, 2k)/2, upper = χ²(1−α/2, 2k+2)/2,
    /// with lower = 0 when `k = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `confidence` is outside `(0, 1)`.
    pub fn exact(observed: u64, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1)"
        );
        let alpha = 1.0 - confidence;
        let k = observed as f64;
        let lower = if observed == 0 {
            0.0
        } else {
            0.5 * chi_square_quantile(alpha / 2.0, 2.0 * k)
        };
        let upper = 0.5 * chi_square_quantile(1.0 - alpha / 2.0, 2.0 * k + 2.0);
        Self {
            observed,
            lower,
            upper,
            confidence,
        }
    }

    /// The conventional 95 % interval used throughout the paper.
    pub fn ninety_five(observed: u64) -> Self {
        Self::exact(observed, 0.95)
    }

    /// Scales the interval by `1/denominator` — e.g. dividing a count
    /// interval by a fluence to get a cross-section interval.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is not strictly positive.
    pub fn scaled(&self, denominator: f64) -> (f64, f64, f64) {
        assert!(denominator > 0.0, "denominator must be positive");
        (
            self.observed as f64 / denominator,
            self.lower / denominator,
            self.upper / denominator,
        )
    }

    /// Relative half-width (upper−lower)/(2·observed); `None` for zero
    /// counts.
    pub fn relative_half_width(&self) -> Option<f64> {
        if self.observed == 0 {
            None
        } else {
            Some((self.upper - self.lower) / (2.0 * self.observed as f64))
        }
    }
}

/// The bounds of [`PoissonInterval::exact`] as a `(lower, upper)` pair:
/// the shape of the interval estimator the `tn-obs` timeline monitor
/// injects (`tn_obs::timeline::IntervalFn`), so monitors get exact
/// Garwood bounds without tn-obs depending on this crate.
pub fn garwood_interval(count: u64, confidence: f64) -> (f64, f64) {
    let interval = PoissonInterval::exact(count, confidence);
    (interval.lower, interval.upper)
}

/// Online mean/variance accumulator (Welford).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_table_values() {
        for (x, expected) in [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ] {
            assert!((erf(x) - expected).abs() < 1e-9, "erf({x})");
        }
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for x in [0.1, 0.7, 1.3, 2.9] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
            assert!(erf(x) < 1.0 && erf(x) > 0.0);
        }
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, fact) in [(1u32, 1.0f64), (2, 1.0), (3, 2.0), (5, 24.0), (7, 720.0)] {
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-10,
                "ln_gamma({n})"
            );
        }
    }

    #[test]
    fn ln_gamma_half_is_sqrt_pi() {
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn reg_gamma_limits() {
        assert_eq!(reg_lower_gamma(3.0, 0.0), 0.0);
        assert!(reg_lower_gamma(3.0, 100.0) > 0.999_999);
        // P(1, x) = 1 - e^-x.
        let x = 1.7;
        assert!((reg_lower_gamma(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
    }

    #[test]
    fn chi_square_median_of_two_dof() {
        // chi2(2) median = 2 ln 2.
        let q = chi_square_quantile(0.5, 2.0);
        assert!((q - 2.0 * std::f64::consts::LN_2).abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn poisson_interval_zero_count() {
        let ci = PoissonInterval::ninety_five(0);
        assert_eq!(ci.lower, 0.0);
        // Upper bound for 0 observed at 95% two-sided: chi2(0.975, 2)/2 = 3.689.
        assert!((ci.upper - 3.689).abs() < 0.01, "upper = {}", ci.upper);
        assert!(ci.relative_half_width().is_none());
    }

    #[test]
    fn poisson_interval_textbook_values() {
        // Garwood 95% for k=10: (4.795, 18.39).
        let ci = PoissonInterval::ninety_five(10);
        assert!((ci.lower - 4.795).abs() < 0.01, "lower = {}", ci.lower);
        assert!((ci.upper - 18.39).abs() < 0.02, "upper = {}", ci.upper);
    }

    #[test]
    fn poisson_interval_contains_observation() {
        for k in [1u64, 5, 17, 100, 1000] {
            let ci = PoissonInterval::ninety_five(k);
            assert!(ci.lower < k as f64 && (k as f64) < ci.upper, "k = {k}");
        }
    }

    #[test]
    fn poisson_interval_narrows_relatively() {
        let wide = PoissonInterval::ninety_five(4).relative_half_width().unwrap();
        let narrow = PoissonInterval::ninety_five(400)
            .relative_half_width()
            .unwrap();
        assert!(narrow < wide / 5.0);
    }

    #[test]
    fn scaling_divides_all_three() {
        let ci = PoissonInterval::ninety_five(100);
        let (mid, lo, hi) = ci.scaled(1e10);
        assert!((mid - 1e-8).abs() < 1e-20);
        assert!(lo < mid && mid < hi);
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn scaling_rejects_zero_denominator() {
        let _ = PoissonInterval::ninety_five(1).scaled(0.0);
    }

    #[test]
    fn garwood_interval_brackets_the_count() {
        let (lo, hi) = garwood_interval(100, 0.999);
        assert!(lo < 100.0 && hi > 100.0, "{lo} {hi}");
        let (lo0, hi0) = garwood_interval(0, 0.999);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0);
    }

    /// Wilson–Hilferty's closed form of the 95 % Garwood bounds, an
    /// independent oracle that tightens as the count grows.
    fn wilson_hilferty(count: u64) -> (f64, f64) {
        const Z: f64 = 1.959_963_984_540_054;
        let cube =
            |k: f64, sign: f64| k * (1.0 - 1.0 / (9.0 * k) + sign * Z / (3.0 * k.sqrt())).powi(3);
        let k = count as f64;
        (cube(k, -1.0), cube(k + 1.0, 1.0))
    }

    #[test]
    fn garwood_interval_matches_wilson_hilferty_up_to_u64_max() {
        // Wilson–Hilferty's own error falls as count^-1.5: 5.5e-7 at 1e3,
        // 1.0e-7 at 3e3, 1.6e-8 at 1e4.
        let cases: [(u64, f64); 18] = [
            (1_000, 1e-6),
            (3_000, 2e-7),
            (10_000, 1e-7),
            (30_000, 1e-7),
            (60_000, 1e-6),
            (99_999, 1e-6),
            (100_001, 1e-6),
            (300_000, 1e-6),
            (1_000_000, 1e-6),
            (10_000_000, 1e-6),
            (100_000_000, 1e-6),
            (10_000_000_000, 1e-6),
            (1_000_000_000_000, 1e-6),
            (100_000_000_000_000, 1e-6),
            (1 << 53, 1e-6),
            (1_000_000_000_000_000_000, 1e-6),
            (u64::MAX - 1, 1e-6),
            (u64::MAX, 1e-6),
        ];
        for (count, tolerance) in cases {
            let (lo, hi) = garwood_interval(count, 0.95);
            let (wh_lo, wh_hi) = wilson_hilferty(count);
            let k = count as f64;
            assert!(lo < k && k < hi, "count {count}: [{lo}, {hi}]");
            assert!(
                ((lo - wh_lo) / wh_lo).abs() <= tolerance,
                "count {count}: lower {lo} vs {wh_lo}"
            );
            assert!(
                ((hi - wh_hi) / wh_hi).abs() <= tolerance,
                "count {count}: upper {hi} vs {wh_hi}"
            );
            // The half-widths, not just the bounds, agree: at 1e8 the old
            // truncated series put the lower bound above the count itself.
            for (bound, oracle) in [(lo, wh_lo), (hi, wh_hi)] {
                let (width, oracle_width) = ((bound - k).abs(), (oracle - k).abs());
                assert!(
                    ((width - oracle_width) / oracle_width).abs() <= 1e-5,
                    "count {count}: half-width {width} vs {oracle_width}"
                );
            }
        }
    }

    #[test]
    fn running_stats_mean_and_variance() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_empty_and_single() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.variance(), 0.0);
    }
}
