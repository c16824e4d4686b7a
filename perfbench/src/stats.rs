//! Sample summaries, the metric report, and the run record.

use std::time::Instant;

/// A bag of measurements (any unit) summarized by quantiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn push_ns_as_us(&mut self, ns: u64) {
        self.push(ns as f64 / 1e3);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Empties the bag, keeping its buffer for reuse.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sorted = false;
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// The `q`-quantile by linear interpolation between closest ranks
    /// (0 for an empty bag).
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.sort();
        quantile_sorted(&self.values, q)
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&mut self) -> f64 {
        self.quantile(0.99)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }
}

/// Sub-buckets per octave of a [`Hist`], as a power of two (128: each
/// bucket spans about 0.5 % of its value).
const HIST_SUB_BITS: u32 = 7;
/// A [`Hist`]'s first octave starts here (µs); smaller values share one
/// bucket `[0, HIST_MIN)`.
const HIST_MIN: f64 = 1.0 / 16.0;
/// Octaves a [`Hist`] covers: up to 2^26 µs (67 s); larger values land
/// in the last bucket.
const HIST_OCTAVES: usize = 30;
const HIST_BUCKETS: usize = 1 + (HIST_OCTAVES << HIST_SUB_BITS);

/// A stream of per-operation measurements (µs or ms) summarized by a
/// log-linear histogram: quantiles are interpolated within a bucket
/// about 0.5 % wide. Its memory is fixed — it does not grow with the
/// number of operations — so a run's own bookkeeping neither moves the
/// process's peak RSS nor depends on how fast the host ran.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Count per bucket; empty until the first value.
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist::default()
    }

    fn bucket(v: f64) -> usize {
        if v.is_nan() || v < HIST_MIN {
            return 0;
        }
        let shift = 52 - HIST_SUB_BITS;
        let i = 1 + ((v.to_bits() - HIST_MIN.to_bits()) >> shift) as usize;
        i.min(HIST_BUCKETS - 1)
    }

    /// The bucket's `[lower, upper)` bounds.
    fn bounds(i: usize) -> (f64, f64) {
        if i == 0 {
            return (0.0, HIST_MIN);
        }
        let shift = 52 - HIST_SUB_BITS;
        let at = |k: usize| f64::from_bits(HIST_MIN.to_bits() + ((k as u64) << shift));
        (at(i - 1), at(i))
    }

    pub fn push(&mut self, v: f64) {
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        self.counts[Hist::bucket(v)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; HIST_BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile: the rank `q · (n − 1)` located in its bucket
    /// and interpolated linearly across the bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank < (before + c as u64) as f64 {
                let (lo, hi) = Hist::bounds(i);
                let within = (rank - before as f64 + 0.5) / c as f64;
                return lo + (hi - lo) * within;
            }
            before += c as u64;
        }
        Hist::bounds(HIST_BUCKETS - 1).1
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Ordered `name → (value, unit)` metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    entries: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == name) {
            e.1 = value;
            e.2 = unit;
        } else {
            self.entries.push((name, value, unit));
        }
    }

    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.entries
            .iter()
            .find(|e| e.0 == name)
            .map(|e| (e.1, e.2))
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats an `f64` as a JSON number with every digit Rust keeps for a
/// round trip.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and how a run was made: enough to tell two runs' machines and
/// builds apart.
pub fn run_record(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
    vec![
        ("workload".into(), workload.into()),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), seconds.to_string()),
        ("trace".into(), trace.to_string()),
        ("nproc".into(), nproc.to_string()),
        ("kernel".into(), kernel),
        ("rustc".into(), rustc),
        ("git_rev".into(), git_rev()),
        (
            "profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
    ]
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout without `.git` records `none`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(Samples::new().median(), 0.0);
    }

    #[test]
    fn hist_quantiles_stay_within_a_bucket() {
        let mut h = Hist::new();
        let mut s = Samples::new();
        for i in 0..10_000u32 {
            let v = 20.0 + (i % 977) as f64 * 0.37 + (i % 13) as f64;
            h.push(v);
            s.push(v);
        }
        for q in [0.01, 0.5, 0.9, 0.99] {
            let (exact, approx) = (s.quantile(q), h.quantile(q));
            assert!(
                (approx - exact).abs() <= exact * 0.006,
                "{q}: {approx} vs {exact}"
            );
        }
        let mut merged = Hist::new();
        merged.merge(&h);
        merged.merge(&Hist::new());
        assert_eq!(merged.len(), 10_000);
        assert_eq!(merged.median(), h.median());
        let mut tiny = Hist::new();
        tiny.push(0.0);
        assert!(tiny.median() < HIST_MIN);
        assert_eq!(Hist::new().p99(), 0.0);
    }
}
