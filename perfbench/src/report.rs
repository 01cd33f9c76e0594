//! Summary statistics and the result line.

use std::fmt::Write as _;

/// The median, as Python's `statistics.median` takes it.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The nearest-rank percentile `q` (in `(0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `q`.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = percentile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// One named metric of a run, in the order it was added.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How it was taken, for the human-readable lines.
    pub note: String,
}

/// The outcome of one run: answers attempted and failed, and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed self-checks that are not answers (bit-identity of the
    /// replica, layer sums, shadow state): any makes the run incorrect.
    pub broken_checks: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Counts `answers` more answers, `failed` of them failed.
    pub fn answers(&mut self, answers: usize, failed: usize) {
        self.attempted += answers as u64;
        self.failed += failed as u64;
    }

    /// Records a self-check; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.broken_checks.push(what);
        }
        ok
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken_checks.is_empty() && self.attempted > 0
    }

    /// The human-readable lines, then the result as the last line.
    pub fn print(&self, header: &str) {
        println!("{header}");
        for m in &self.metrics {
            println!(
                "  {:<34} {:>14.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        println!(
            "  {:<34} {:>14.6} {:<6} {} of {} answers failed",
            "failed_share",
            self.failed as f64 / self.attempted.max(1) as f64,
            "ratio",
            self.failed,
            self.attempted
        );
        for what in &self.broken_checks {
            println!("  broken check: {what}");
        }
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        line.push_str("}}");
        println!("{line}");
    }
}
