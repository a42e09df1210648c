//! Statistical special functions, implemented from scratch.
//!
//! BigHouse's convergence machinery needs exactly three pieces of numerical
//! analysis: the standard-normal CDF and its inverse (for the CLT sample-size
//! formulas, Eqs. 2–3 of the paper) and chi-square quantiles (to judge the
//! runs-up independence test). All are implemented here with no external
//! dependencies.

/// Natural log of the gamma function, via the Lanczos approximation
/// (g = 7, n = 9), accurate to ~15 significant digits for `x > 0`.
///
/// # Panics
///
/// Panics if `x <= 0`.
///
/// # Examples
///
/// ```
/// use bighouse_stats::math::ln_gamma;
///
/// assert!((ln_gamma(1.0)).abs() < 1e-12); // Γ(1) = 1
/// assert!((ln_gamma(5.0) - (24.0f64).ln()).abs() < 1e-12); // Γ(5) = 24
/// ```
#[must_use]
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    #[allow(clippy::excessive_precision)] // published Lanczos coefficients, kept verbatim
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function P(a, x) = γ(a, x) / Γ(a).
///
/// Uses the series expansion for `x < a + 1` and the Lentz continued
/// fraction otherwise (Numerical Recipes §6.2 approach).
///
/// # Panics
///
/// Panics if `a <= 0` or `x < 0`.
#[must_use]
pub(crate) fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_continued_fraction(a, x)
    }
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_continued_fraction(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Standard normal probability density function.
#[must_use]
pub(crate) fn normal_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution function Φ(x).
///
/// Computed from the regularized incomplete gamma function:
/// Φ(x) = ½(1 + sign(x)·P(½, x²/2)).
///
/// # Examples
///
/// ```
/// use bighouse_stats::math::normal_cdf;
///
/// assert!((normal_cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!((normal_cdf(1.959963984540054) - 0.975).abs() < 1e-9);
/// ```
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.5;
    }
    let p = gamma_p(0.5, x * x / 2.0);
    if x > 0.0 {
        0.5 * (1.0 + p)
    } else {
        0.5 * (1.0 - p)
    }
}

/// Inverse of the standard normal CDF (the quantile/probit function).
///
/// Acklam's rational approximation (~1.15e-9 relative error) followed by one
/// Halley refinement step using the exact [`normal_cdf`], giving near
/// machine-precision results over the full open interval.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// # Examples
///
/// The public [`crate::half_width_mean`] applies it: at 95 % with σ = 1
/// and one observation, the half-width is the 97.5th percentile of the
/// standard normal, the famous 1.96.
///
/// ```
/// use bighouse_stats::half_width_mean;
///
/// assert!((half_width_mean(0.95, 1.0, 1) - 1.959963984540054).abs() < 1e-9);
/// ```
#[must_use]
pub(crate) fn normal_inverse_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_inverse_cdf requires p in (0, 1), got {p}"
    );

    #[allow(clippy::excessive_precision)] // Acklam's published coefficients, kept verbatim
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_690e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step: x <- x - e/(φ(x) + e·x/2) where e = Φ(x) - p.
    let e = normal_cdf(x) - p;
    let u = e / normal_pdf(x);
    x - u / (1.0 + x * u / 2.0)
}

/// Chi-square cumulative distribution function with `k` degrees of freedom.
///
/// # Panics
///
/// Panics if `k == 0` or `x < 0`.
#[must_use]
pub(crate) fn chi_square_cdf(k: u32, x: f64) -> f64 {
    assert!(k > 0, "chi-square needs at least 1 degree of freedom");
    gamma_p(f64::from(k) / 2.0, x / 2.0)
}

/// Chi-square quantile function (inverse CDF) with `k` degrees of freedom.
///
/// Starts from the Wilson–Hilferty approximation and polishes with Newton
/// iterations on [`chi_square_cdf`].
///
/// # Panics
///
/// Panics if `k == 0` or `p` is not in `(0, 1)`.
///
/// # Examples
///
/// The runs-up test's critical values are χ²₆ quantiles; a test at any
/// significance in (0, 1) builds.
///
/// ```
/// use bighouse_stats::RunsUpTest;
///
/// assert_ne!(RunsUpTest::new(0.05), RunsUpTest::new(0.01));
/// ```
#[must_use]
pub(crate) fn chi_square_inverse_cdf(k: u32, p: f64) -> f64 {
    assert!(k > 0, "chi-square needs at least 1 degree of freedom");
    assert!(
        p > 0.0 && p < 1.0,
        "chi_square_inverse_cdf requires p in (0, 1), got {p}"
    );
    let kf = f64::from(k);
    // Wilson–Hilferty: X ≈ k(1 - 2/(9k) + z√(2/(9k)))³.
    let z = normal_inverse_cdf(p);
    let t = 1.0 - 2.0 / (9.0 * kf) + z * (2.0 / (9.0 * kf)).sqrt();
    let mut x = (kf * t * t * t).max(1e-10);
    for _ in 0..60 {
        let f = chi_square_cdf(k, x) - p;
        // Chi-square pdf with k dof at x.
        let pdf = ((kf / 2.0 - 1.0) * x.ln()
            - x / 2.0
            - (kf / 2.0) * std::f64::consts::LN_2
            - ln_gamma(kf / 2.0))
        .exp();
        if pdf <= 0.0 {
            break;
        }
        let step = f / pdf;
        let next = (x - step).max(x / 10.0);
        if (next - x).abs() < 1e-12 * x.max(1.0) {
            x = next;
            break;
        }
        x = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use bighouse_des::check::check;

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, fact) in [
            (1u32, 1.0f64),
            (2, 1.0),
            (3, 2.0),
            (4, 6.0),
            (5, 24.0),
            (10, 362_880.0),
        ] {
            let got = ln_gamma(f64::from(n));
            assert!(
                (got - fact.ln()).abs() < 1e-10,
                "ln_gamma({n}) = {got}, want {}",
                fact.ln()
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        let want = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - want).abs() < 1e-12);
    }

    #[test]
    fn gamma_p_limits() {
        assert_eq!(gamma_p(2.5, 0.0), 0.0);
        assert!((gamma_p(2.5, 1e6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}.
        for x in [0.1, 0.5, 1.0, 2.0, 5.0] {
            assert!((gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        // Values from standard tables.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_543),
            (-1.0, 0.158_655_253_931_457),
            (1.96, 0.975_002_104_851_780),
            (2.575_829_303_548_901, 0.995),
            (-3.0, 0.001_349_898_031_630_094_6),
        ];
        for (x, want) in cases {
            let got = normal_cdf(x);
            assert!((got - want).abs() < 1e-9, "Φ({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn normal_inverse_round_trips() {
        for p in [
            0.001, 0.01, 0.025, 0.05, 0.25, 0.5, 0.75, 0.95, 0.975, 0.99, 0.999,
        ] {
            let x = normal_inverse_cdf(p);
            let back = normal_cdf(x);
            assert!(
                (back - p).abs() < 1e-10,
                "round trip failed at p={p}: {back}"
            );
        }
    }

    #[test]
    fn normal_inverse_is_antisymmetric() {
        for p in [0.01, 0.1, 0.3] {
            let lo = normal_inverse_cdf(p);
            let hi = normal_inverse_cdf(1.0 - p);
            assert!((lo + hi).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "requires p in (0, 1)")]
    fn normal_inverse_rejects_zero() {
        let _ = normal_inverse_cdf(0.0);
    }

    #[test]
    fn chi_square_cdf_reference_values() {
        // χ²₆ critical values: P(χ²₆ <= 12.5916) = 0.95, P(χ²₆ <= 1.63538) = 0.05.
        assert!((chi_square_cdf(6, 12.591_587_243_743_977) - 0.95).abs() < 1e-9);
        assert!((chi_square_cdf(6, 1.635_382_894_105_093) - 0.05).abs() < 1e-6);
        // χ²₂ has CDF 1 - e^{-x/2}.
        for x in [0.5, 1.0, 3.0] {
            assert!((chi_square_cdf(2, x) - (1.0 - (-x / 2.0).exp())).abs() < 1e-12);
        }
    }

    #[test]
    fn chi_square_inverse_round_trips() {
        // The runs-up test's 95% critical value: χ²₆(0.95) ≈ 12.592.
        assert!((chi_square_inverse_cdf(6, 0.95) - 12.5916).abs() < 1e-3);
        for k in [1u32, 2, 6, 10, 100] {
            for p in [0.025, 0.05, 0.5, 0.95, 0.975] {
                let x = chi_square_inverse_cdf(k, p);
                let back = chi_square_cdf(k, x);
                assert!(
                    (back - p).abs() < 1e-8,
                    "χ²({k}) round trip failed at p={p}: x={x}, back={back}"
                );
            }
        }
    }

    #[test]
    fn pdf_integrates_to_cdf_difference() {
        // Trapezoid integration of the pdf should match the CDF.
        let (a, b) = (-1.5f64, 0.7f64);
        let n = 20_000;
        let h = (b - a) / n as f64;
        let mut integral = (normal_pdf(a) + normal_pdf(b)) / 2.0;
        for i in 1..n {
            integral += normal_pdf(a + h * i as f64);
        }
        integral *= h;
        assert!((integral - (normal_cdf(b) - normal_cdf(a))).abs() < 1e-8);
    }

    /// Φ and Φ⁻¹ are inverse over the full open interval.
    #[test]
    fn normal_round_trip() {
        check("normal_round_trip", 256, |g| {
            let p = g.range(0.0001..0.9999);
            let x = normal_inverse_cdf(p);
            assert!((normal_cdf(x) - p).abs() < 1e-9);
        });
    }

    /// Chi-square CDF is a valid CDF: monotone, in [0, 1].
    #[test]
    fn chi_square_cdf_valid() {
        check("chi_square_cdf_valid", 256, |g| {
            let (k, x) = (g.range(1..50), g.range(0.0..200.0));
            let c = chi_square_cdf(k, x);
            assert!((0.0..=1.0).contains(&c));
            let c2 = chi_square_cdf(k, x + 1.0);
            assert!(c2 >= c - 1e-12);
        });
    }
}
