//! Sample statistics, the metric set a run reports, and the one-line
//! JSON result the benchmark prints last.

use std::collections::BTreeMap;

/// Median of `v` (mean of the two middle samples for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `v` (`q` in `[0, 1]`).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Median over `stretches` consecutive, equal stretches of `v` (in the
/// order measured) of the smallest sample in each; the plain median
/// when `v` has no more samples than stretches. On a shared host a busy
/// spell can hold for most of a run and lift every sample in it, while
/// the fastest sample of a stretch comes from its quietest moment. The
/// median over stretches keeps one quiet moment from setting the result.
pub fn median_of_fastest(v: &[f64], stretches: usize) -> f64 {
    assert!(!v.is_empty() && stretches > 0, "no samples or no stretches");
    let fastest: Vec<f64> = v
        .chunks(v.len().div_ceil(stretches))
        .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    median(&fastest)
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no values");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0 (a ratio whose base never occurred).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Record `name` (overwrites an earlier value of the same name).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(name, (value, unit))| {
                // Non-finite values are not JSON; report them as -1 so
                // a broken measurement is visible instead of unparsable.
                let v = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(","))
    }
}

/// Tally of checked operations: every attempted operation, and those
/// that failed (error, shed, timeout, or an output that differs from
/// the reference).
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Errors, sheds and timeouts.
    pub errors: u64,
    /// Outputs that differ from the reference.
    pub mismatches: u64,
}

impl Tally {
    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.mismatches += other.mismatches;
    }

    /// Failed operations of any kind.
    pub fn failed(&self) -> u64 {
        self.errors + self.mismatches
    }

    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed() == 0,
        tally.attempted.max(1),
        tally.failed(),
        metrics.json()
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_means() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.99), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(median_of_fastest(&[3.0, 1.0, 2.0], 5), 2.0);
        let v = [9.0, 2.0, 8.0, 7.0, 9.0, 3.0, 4.0, 9.0, 9.0, 6.0];
        assert_eq!(median_of_fastest(&v, 5), 4.0);
    }

    #[test]
    fn result_line_has_exactly_its_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        let line = result_line(&Tally::default(), &m);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
