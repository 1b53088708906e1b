//! Order statistics and the regression rule the benchmark is judged by.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here equals the one
//! computed from the same values with Python's standard library.

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// First and third quartile, as `statistics.quantiles(values, n=4)` gives
/// them; `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The tail percentiles a timing may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// The highest of p99/p95/p90/p75 that leaves at least ten samples beyond
/// it, with its value (linear interpolation between order statistics);
/// `None` when even p75 has fewer than ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len() as f64;
    let p = TAIL_PERCENTILES
        .into_iter()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0 - 1e-9)?;
    Some((p, percentile(values, p)))
}

/// Linear-interpolated percentile `p` (0–100) of a non-empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base` (negative when better).
    fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => new - base,
            Better::Higher => base - new,
        }
    }
}

/// How far a metric's median may worsen before it counts as a regression:
/// `rel` of the base median, but never less than the absolute `floor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    pub better: Better,
    pub rel: f64,
    pub floor: f64,
}

impl Bound {
    /// How far a value may move from `base`: `rel` of it, at least `floor`.
    fn allowance(&self, base: f64) -> f64 {
        (self.rel * base.abs()).max(self.floor)
    }

    /// Whether `new` is worse than `base` by more than the bound allows.
    pub fn regressed(&self, base: f64, new: f64) -> bool {
        self.better.worsening(base, new) > self.allowance(base)
    }

    /// Whether the run-to-run spread of `values` (the distance between
    /// their quartiles) is wider than the bound allows around their median.
    pub fn too_wide(&self, values: &[f64]) -> bool {
        match (quartiles(values), median(values)) {
            (Some((q1, q3)), Some(med)) => q3 - q1 > self.allowance(med),
            _ => false,
        }
    }
}

/// Before/after verdict for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is within the bound of the base median.
    NoRegression,
    /// The new median is worse than the base median by more than the bound.
    Regressed,
    /// One side's run-to-run spread is wider than the bound, so the
    /// medians cannot settle it, and not every new run beats every base run.
    Unresolved,
    /// Spreads too wide to compare medians, but every new run reads better
    /// than every base run.
    AllRunsBetter,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::NoRegression => "no regression",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::AllRunsBetter => "every run better",
        }
    }
}

/// Judges `new` runs against `base` runs under `bound`.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(base: &[f64], new: &[f64], bound: Bound) -> Verdict {
    let (b, n) = (
        median(base).expect("base runs"),
        median(new).expect("new runs"),
    );
    if bound.too_wide(base) || bound.too_wide(new) {
        let all_better = new
            .iter()
            .all(|&x| base.iter().all(|&y| bound.better.worsening(y, x) < 0.0));
        return if all_better {
            Verdict::AllRunsBetter
        } else {
            Verdict::Unresolved
        };
    }
    if bound.regressed(b, n) {
        Verdict::Regressed
    } else {
        Verdict::NoRegression
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 8.0, 4.0, 2.0, 1.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[5.0]), None);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(39)), None, "p75 leaves only 9.75 beyond");
        assert_eq!(tail(&v(40)).unwrap().0, 75.0);
        assert_eq!(tail(&v(99)).unwrap().0, 75.0, "p90 needs 100 samples");
        assert_eq!(tail(&v(100)).unwrap().0, 90.0);
        assert_eq!(tail(&v(200)).unwrap().0, 95.0);
        assert_eq!(tail(&v(1000)).unwrap().0, 99.0);
        // Interpolated: p90 of 0..=99 sits at rank 89.1.
        assert!((tail(&v(100)).unwrap().1 - 89.1).abs() < 1e-9);
    }

    #[test]
    fn bound_respects_direction_relative_part_and_floor() {
        let lower = Bound {
            better: Better::Lower,
            rel: 0.1,
            floor: 0.0,
        };
        assert!(!lower.regressed(10.0, 10.9));
        assert!(lower.regressed(10.0, 11.1));
        assert!(!lower.regressed(10.0, 5.0), "faster is never a regression");
        let higher = Bound {
            better: Better::Higher,
            ..lower
        };
        assert!(higher.regressed(10.0, 8.9));
        assert!(!higher.regressed(10.0, 20.0));
        let floored = Bound {
            floor: 0.05,
            ..lower
        };
        // 10% of 0.02 s is 2 ms, but the floor allows 50 ms.
        assert!(!floored.regressed(0.02, 0.06));
        assert!(floored.regressed(0.02, 0.08));
    }

    #[test]
    fn verdict_reports_unresolved_when_spread_exceeds_bound() {
        let bound = Bound {
            better: Better::Lower,
            rel: 0.1,
            floor: 0.0,
        };
        let tight = [1.0, 1.01, 0.99, 1.0, 1.02];
        assert_eq!(
            verdict(&tight, &[1.05, 1.04, 1.06], bound),
            Verdict::NoRegression
        );
        assert_eq!(
            verdict(&tight, &[1.2, 1.21, 1.19], bound),
            Verdict::Regressed
        );
        let wide = [1.0, 1.5, 0.7, 1.3, 0.8];
        assert_eq!(verdict(&wide, &tight, bound), Verdict::Unresolved);
        assert_eq!(
            verdict(&wide, &[0.5, 0.55, 0.6], bound),
            Verdict::AllRunsBetter
        );
        // Millisecond set-ups: a quartile spread of 5 ms is a quarter of
        // the median, but within the 50 ms floor, so medians still decide.
        let floored = Bound {
            floor: 0.05,
            ..bound
        };
        let setup = [0.020, 0.024, 0.016, 0.021, 0.019];
        assert!(bound.too_wide(&setup) && !floored.too_wide(&setup));
        assert_eq!(
            verdict(&setup, &[0.03, 0.028, 0.035], floored),
            Verdict::NoRegression
        );
        assert_eq!(
            verdict(&setup, &[0.09, 0.08, 0.1], floored),
            Verdict::Regressed
        );
    }
}
