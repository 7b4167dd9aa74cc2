//! Minimal self-contained micro-benchmark harness.
//!
//! The offline build carries no external bench framework, so each
//! `[[bench]]` target (all declared `harness = false`) is a plain binary
//! whose `main` drives a [`Bench`]. The CLI understands the two flags our
//! tooling passes — `--sample-size N` and a positional substring filter —
//! and ignores everything else cargo forwards (`--bench`, `--exact`, …),
//! so `cargo bench -- --sample-size 10` works the way the criterion
//! invocation used to.

use std::hint::black_box;
use std::time::Instant;

/// Timing statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Fastest observed iteration.
    pub min_ns: f64,
    /// Median iteration.
    pub median_ns: f64,
    /// Mean iteration.
    pub mean_ns: f64,
    /// Iterations actually timed.
    pub iters: usize,
}

/// A tiny benchmark runner: warm-up, fixed sample count, median/mean
/// report on stdout.
pub struct Bench {
    group: String,
    sample_size: usize,
}

impl Bench {
    /// Creates a runner for `group`, reading `--sample-size` (and
    /// tolerating unknown flags) from the process arguments.
    pub fn from_args(group: &str) -> Self {
        let mut sample_size = default_sample_size();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--sample-size" {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    sample_size = n;
                }
            } else if let Some(v) = a.strip_prefix("--sample-size=") {
                if let Ok(n) = v.parse() {
                    sample_size = n;
                }
            }
            // Ignore --bench, --exact, filters, etc. — this harness runs
            // every registered function.
        }
        Bench {
            group: group.to_string(),
            sample_size: sample_size.max(1),
        }
    }

    /// Overrides the default sample count (CLI still wins if given).
    pub fn sample_size(mut self, n: usize) -> Self {
        if !std::env::args().any(|a| a.starts_with("--sample-size")) {
            self.sample_size = n.max(1);
        }
        self
    }

    /// Times `f`, printing `group/name: median …`.
    pub fn run<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Sample {
        // Warm-up: one untimed call.
        black_box(f());
        let mut times: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            times.push(t0.elapsed().as_secs_f64() * 1e9);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        let sample = Sample {
            min_ns: times[0],
            median_ns: times[times.len() / 2],
            mean_ns: times.iter().sum::<f64>() / times.len() as f64,
            iters: times.len(),
        };
        println!(
            "{}/{name}: median {} (mean {}, min {}, n={})",
            self.group,
            fmt_ns(sample.median_ns),
            fmt_ns(sample.mean_ns),
            fmt_ns(sample.min_ns),
            sample.iters,
        );
        sample
    }

    /// Times `f` and reports a rate of `elements` per iteration (e.g.
    /// simulated cycles per wall-clock second).
    pub fn run_throughput<T>(&self, name: &str, elements: u64, f: impl FnMut() -> T) -> f64 {
        let sample = self.run(name, f);
        let rate = elements as f64 / (sample.median_ns / 1e9);
        println!("{}/{name}: {} elem/s", self.group, fmt_rate(rate));
        rate
    }
}

fn default_sample_size() -> usize {
    10
}

/// Renders nanoseconds with an auto-scaled unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Renders an events-per-second rate with an auto-scaled unit.
pub fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e9 {
        format!("{:.2} G", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.2} M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.2} k", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_orders_stats() {
        let b = Bench {
            group: "t".into(),
            sample_size: 5,
        };
        let s = b.run("noop", || 1 + 1);
        assert!(s.min_ns <= s.median_ns);
        assert_eq!(s.iters, 5);
    }

    #[test]
    fn formatting_scales() {
        assert_eq!(fmt_ns(1.5e9), "1.500 s");
        assert_eq!(fmt_ns(2.5e6), "2.500 ms");
        assert_eq!(fmt_ns(3.5e3), "3.500 µs");
        assert_eq!(fmt_ns(42.0), "42.0 ns");
        assert_eq!(fmt_rate(2.5e6), "2.50 M");
    }
}
