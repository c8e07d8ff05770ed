//! Offline shim for the `criterion` API subset used by this workspace's
//! benches: `Criterion::benchmark_group`, `sample_size`, `throughput`,
//! `bench_function` / `bench_with_input`, `Bencher::iter`, `BenchmarkId`,
//! `Throughput::Elements`, and the `criterion_group!`/`criterion_main!`
//! macros.
//!
//! Measurement model: a short calibration run sizes the per-sample
//! iteration count so one sample costs roughly `TARGET_SAMPLE_NANOS`;
//! `sample_size` samples are then timed and summarized as mean ± stddev.
//! With `Throughput::Elements(n)` the element rate (= GFLOP/s when `n` is
//! the FLOP count) is printed too: one line per benchmark on stdout.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Target wall-clock cost of one sample.
const TARGET_SAMPLE_NANOS: u64 = 40_000_000;

/// Hard cap on one benchmark's total measurement time.
const MAX_BENCH_NANOS: u64 = 4_000_000_000;

/// Work-per-iteration declaration used for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration (use FLOPs for GFLOP/s output).
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier for one benchmark within a group: `function/parameter`.
pub struct BenchmarkId {
    name: String,
    param: Option<String>,
}

impl BenchmarkId {
    /// An id with a function name and a parameter rendering.
    pub fn new(name: impl Into<String>, param: impl Display) -> Self {
        BenchmarkId { name: name.into(), param: Some(param.to_string()) }
    }

    /// An id from a parameter only.
    pub fn from_parameter(param: impl Display) -> Self {
        BenchmarkId { name: String::new(), param: Some(param.to_string()) }
    }
}

/// Conversion into [`BenchmarkId`]; lets `bench_function` take plain strings.
pub trait IntoBenchmarkId {
    /// Converts.
    fn into_benchmark_id(self) -> BenchmarkId;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> BenchmarkId {
        self
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { name: self.to_string(), param: None }
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> BenchmarkId {
        BenchmarkId { name: self, param: None }
    }
}

/// Times closures repeatedly inside one benchmark.
pub struct Bencher {
    iters_per_sample: u64,
    samples: usize,
    /// Collected per-iteration sample means, nanoseconds.
    sample_means_ns: Vec<f64>,
}

impl Bencher {
    /// Runs `f` repeatedly, recording per-iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: run once, then scale iterations to the target sample cost.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().as_nanos().max(1) as u64;
        self.iters_per_sample = (TARGET_SAMPLE_NANOS / once).clamp(1, 1_000_000);

        let budget = Duration::from_nanos(MAX_BENCH_NANOS);
        let started = Instant::now();
        self.sample_means_ns.clear();
        for _ in 0..self.samples {
            let s0 = Instant::now();
            for _ in 0..self.iters_per_sample {
                std::hint::black_box(f());
            }
            let dt = s0.elapsed().as_nanos() as f64;
            self.sample_means_ns.push(dt / self.iters_per_sample as f64);
            if started.elapsed() > budget && self.sample_means_ns.len() >= 3 {
                break;
            }
        }
    }
}

/// A named group of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Declares work-per-iteration for subsequent benches in this group.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for API compatibility; the shim keys everything off samples.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `f` with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b =
            Bencher { iters_per_sample: 1, samples: self.sample_size, sample_means_ns: Vec::new() };
        f(&mut b, input);
        self.record(&id, &b);
        self
    }

    /// Benchmarks `f`.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into_benchmark_id();
        let mut b =
            Bencher { iters_per_sample: 1, samples: self.sample_size, sample_means_ns: Vec::new() };
        f(&mut b);
        self.record(&id, &b);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn record(&self, id: &BenchmarkId, b: &Bencher) {
        if b.sample_means_ns.is_empty() {
            return;
        }
        let full_id = match (&id.name, &id.param) {
            (n, Some(p)) if n.is_empty() => format!("{}/{}", self.name, p),
            (n, Some(p)) => format!("{}/{}/{}", self.name, n, p),
            (n, None) => format!("{}/{}", self.name, n),
        };
        if !self.criterion.filter_matches(&full_id) {
            return;
        }
        let n = b.sample_means_ns.len() as f64;
        let mean = b.sample_means_ns.iter().sum::<f64>() / n;
        let var = b.sample_means_ns.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>()
            / n.max(2.0 - 1.0);
        let rate = match self.throughput {
            Some(Throughput::Elements(e) | Throughput::Bytes(e)) => {
                format!("  thrpt: {:.3} Gelem/s", e as f64 / mean)
            }
            None => String::new(),
        };
        println!(
            "{full_id:<48} time: {} ± {}{rate}  ({} samples × {} iters)",
            format_ns(mean),
            format_ns(var.sqrt()),
            b.sample_means_ns.len(),
            b.iters_per_sample,
        );
    }
}

/// Runs benchmark groups, keeping the command line's id filter.
pub struct Criterion {
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Respect an explicit filter argument (`cargo bench -- <substr>`)
        // while ignoring criterion CLI flags like --noplot / --bench.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-') && !a.is_empty());
        Criterion { filter }
    }
}

impl Criterion {
    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), sample_size: 20, throughput: None }
    }

    fn filter_matches(&self, id: &str) -> bool {
        match &self.filter {
            Some(f) => id.contains(f.as_str()),
            None => true,
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Bundles benchmark functions under one name, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generates `main` running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $( $group(&mut c); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_render_like_criterion() {
        let id = BenchmarkId::new("blocked_nn", 256);
        assert_eq!(id.name, "blocked_nn");
        assert_eq!(id.param.as_deref(), Some("256"));
    }

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher { iters_per_sample: 1, samples: 5, sample_means_ns: Vec::new() };
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
            x
        });
        assert!(!b.sample_means_ns.is_empty());
        assert!(b.sample_means_ns.iter().all(|&s| s > 0.0));
    }
}
