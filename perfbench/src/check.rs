//! The pinned expected values: the default seed's model metrics per
//! workload, kept in `expected.txt` beside this package's manifest.

use crate::bench::Metric;

/// The seed the expected values are pinned for.
pub const DEFAULT_SEED: u64 = 20_080_621;

/// Relative tolerance of the pinned comparison: loose enough for
/// last-bit drift in a platform's math library, far tighter than any
/// change to the simulation itself.
pub const REL_TOL: f64 = 1e-9;

const EXPECTED: &str = include_str!("../expected.txt");

/// The pinned `(metric, value)` pairs of `workload`.
pub fn expected(workload: &str) -> Vec<(String, f64)> {
    parse(EXPECTED, workload)
}

fn parse(text: &str, workload: &str) -> Vec<(String, f64)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (w, name, value) = (f.next()?, f.next()?, f.next()?);
            if w != workload {
                return None;
            }
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Mismatches between `metrics` and the pinned values of `workload`.
pub fn compare_expected(workload: &str, metrics: &[Metric]) -> Vec<String> {
    let pinned = expected(workload);
    if pinned.is_empty() {
        return vec![format!("no expected values pinned for {workload}")];
    }
    pinned
        .iter()
        .filter_map(|(name, want)| {
            let got = metrics.iter().find(|m| m.name == name).map(|m| m.value);
            match got {
                Some(v) if (v - want).abs() <= REL_TOL * want.abs() => None,
                Some(v) => Some(format!("{name} = {v:?}, pinned {want:?}")),
                None => Some(format!("{name} missing, pinned {want:?}")),
            }
        })
        .collect()
}

/// The `expected.txt` lines for `metrics` of `workload`.
pub fn render(workload: &str, metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{workload} {} {:?}\n", m.name, m.value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_one_workload_and_skips_comments() {
        let text = "# seed 1\na x 1.5\nb x 2\n\na y -0.25\n";
        assert_eq!(
            parse(text, "a"),
            vec![("x".to_string(), 1.5), ("y".to_string(), -0.25)]
        );
    }

    #[test]
    fn compare_flags_drift_beyond_tolerance() {
        let m = |v| vec![Metric::noted("budget_err_frac", v, "frac", String::new())];
        let pinned = expected("dvfs_linopt");
        let (_, want) = pinned
            .iter()
            .find(|(n, _)| n == "budget_err_frac")
            .expect("dvfs_linopt pins budget_err_frac");
        assert!(compare_expected("dvfs_linopt", &m(*want))
            .iter()
            .all(|e| !e.starts_with("budget_err_frac")));
        assert!(compare_expected("dvfs_linopt", &m(want * (1.0 + 1e-6)))
            .iter()
            .any(|e| e.starts_with("budget_err_frac")));
    }
}
