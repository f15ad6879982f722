//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this crate keeps the
//! workspace's benches compiling and runnable with the same call surface
//! (`Criterion`, `benchmark_group`, `bench_with_input`, [`BenchmarkId`],
//! [`criterion_group!`], [`criterion_main!`]) on top of a plain
//! `std::time::Instant` harness: per benchmark it runs a short warmup,
//! times `sample_size` iterations, and prints min / median / mean wall
//! times. No statistical analysis, plots or baselines.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Recorded outcome of one benchmark — what real criterion would write
/// into `target/criterion`; here it is kept in memory so harness mains
/// can hand it to `sg_bench::Trajectory`, which writes the `results`
/// rows of a `BENCH_*.json` perf trajectory.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full label, `group/name[/param]`.
    pub name: String,
    /// Fastest timed iteration, nanoseconds.
    pub min_ns: u128,
    /// Median timed iteration, nanoseconds.
    pub median_ns: u128,
    /// Mean timed iteration, nanoseconds.
    pub mean_ns: u128,
    /// Number of timed iterations.
    pub samples: usize,
}

/// Top-level harness state (`criterion::Criterion` subset).
#[derive(Debug, Clone, Default)]
pub struct Criterion {
    sample_size: Option<usize>,
    results: Vec<BenchResult>,
}

impl Criterion {
    fn effective_sample_size(&self) -> usize {
        self.sample_size.unwrap_or(20)
    }

    /// Sets the number of timed iterations per benchmark (builder form,
    /// as used in `criterion_group!` configs).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let samples = self.effective_sample_size();
        if let Some(r) = run_one(name, samples, &mut f) {
            self.results.push(r);
        }
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.effective_sample_size();
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size,
        }
    }

    /// All results recorded so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A benchmark group (`criterion::BenchmarkGroup` subset).
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample size for the rest of the group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let label = format!("{}/{}", self.name, name);
        if let Some(r) = run_one(&label, self.sample_size, &mut f) {
            self.parent.results.push(r);
        }
        self
    }

    /// Runs one parameterized benchmark inside the group.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.label);
        if let Some(r) = run_one(&label, self.sample_size, &mut |b| f(b, input)) {
            self.parent.results.push(r);
        }
        self
    }

    /// Ends the group (kept for call-site compatibility).
    pub fn finish(self) {}
}

/// A benchmark identifier: function name plus a parameter label.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name` with a display-able parameter, rendered `name/param`.
    pub fn new(name: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{name}/{parameter}"),
        }
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the code
/// under test.
pub struct Bencher {
    samples: usize,
    /// Nanoseconds per timed iteration, filled by `iter`.
    timings_ns: Vec<u128>,
}

impl Bencher {
    /// Times `routine` over the configured number of iterations.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // One untimed warmup call, then the timed samples.
        std::hint::black_box(routine());
        self.timings_ns.clear();
        self.timings_ns.reserve(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            self.timings_ns.push(t0.elapsed().as_nanos());
        }
    }
}

fn run_one(label: &str, samples: usize, f: &mut dyn FnMut(&mut Bencher)) -> Option<BenchResult> {
    let mut b = Bencher {
        samples,
        timings_ns: Vec::new(),
    };
    f(&mut b);
    if b.timings_ns.is_empty() {
        println!("{label:<44} (no iterations recorded)");
        return None;
    }
    b.timings_ns.sort_unstable();
    let min = b.timings_ns[0];
    let median = b.timings_ns[b.timings_ns.len() / 2];
    let mean = b.timings_ns.iter().sum::<u128>() / b.timings_ns.len() as u128;
    println!(
        "{label:<44} min {} | median {} | mean {} ({} samples)",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
        b.timings_ns.len()
    );
    Some(BenchResult {
        name: label.to_string(),
        min_ns: min,
        median_ns: median,
        mean_ns: mean,
        samples: b.timings_ns.len(),
    })
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Re-export for call sites that import it from criterion.
pub use std::hint::black_box;

/// Bundles benchmark functions into a runnable group, as
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups, as `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("group");
        g.sample_size(3);
        g.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs_and_records() {
        benches();
        let mut b = Bencher {
            samples: 5,
            timings_ns: Vec::new(),
        };
        b.iter(|| 42);
        assert_eq!(b.timings_ns.len(), 5);
    }

    #[test]
    fn results_are_recorded_for_json_emission() {
        let mut c = Criterion::default().sample_size(3);
        c.bench_function("alpha", |b| b.iter(|| 2 * 2));
        let mut g = c.benchmark_group("grp");
        g.bench_with_input(BenchmarkId::new("beta", 7), &7u64, |b, &n| b.iter(|| n + 1));
        g.finish();
        let names: Vec<&str> = c.results().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "grp/beta/7"]);
        for r in c.results() {
            assert_eq!(r.samples, 3);
            assert!(r.min_ns <= r.median_ns);
        }
    }

    #[test]
    fn formatting_scales() {
        assert!(fmt_ns(12).ends_with("ns"));
        assert!(fmt_ns(12_000).ends_with("µs"));
        assert!(fmt_ns(12_000_000).ends_with("ms"));
        assert!(fmt_ns(12_000_000_000).ends_with(" s"));
    }
}
