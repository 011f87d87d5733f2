//! Offline stand-in for the `criterion` crate.
//!
//! `helios-bench` (a dependency of the `helios` launcher binary the
//! benchmark builds) lists `criterion` as a dependency; only its bench
//! targets, which the benchmark never builds, call it. This stand-in
//! exists so that dependency resolves offline. It keeps the entry points
//! those targets use and reports a plain mean per iteration — no
//! statistics, no baselines, no reports.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` may group set-up calls; ignored here.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Timing loop handed to a benchmark closure.
pub struct Bencher {
    budget: Duration,
}

impl Bencher {
    /// Run `routine` until the time budget is spent; print the mean.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        self.iter_batched(|| (), |()| routine(), BatchSize::SmallInput);
    }

    /// Like `iter`, with an untimed `setup` before every call.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let started = Instant::now();
        let (mut busy, mut iters) = (Duration::ZERO, 0u64);
        while iters == 0 || started.elapsed() < self.budget {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            busy += t0.elapsed();
            iters += 1;
        }
        println!(
            "    {:.1} ns/iter over {iters} iterations",
            busy.as_nanos() as f64 / iters as f64
        );
    }
}

/// The benchmark driver.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            budget: Duration::from_millis(200),
        }
    }
}

impl Criterion {
    pub fn measurement_time(mut self, budget: Duration) -> Criterion {
        self.budget = budget;
        self
    }

    pub fn warm_up_time(self, _: Duration) -> Criterion {
        self
    }

    pub fn sample_size(self, _: usize) -> Criterion {
        self
    }

    pub fn configure_from_args(self) -> Criterion {
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Criterion {
        println!("{id}");
        f(&mut Bencher {
            budget: self.budget,
        });
        self
    }

    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }

    pub fn final_summary(&mut self) {}
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    pub fn bench_function(
        &mut self,
        id: impl Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        self.criterion
            .bench_function(format!("{}/{id}", self.name), f);
        self
    }

    pub fn sample_size(&mut self, _: usize) -> &mut Self {
        self
    }

    pub fn measurement_time(&mut self, budget: Duration) -> &mut Self {
        self.criterion.budget = budget;
        self
    }

    pub fn finish(self) {}
}

/// Define a function `$name` that runs each target against one `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define `main` to run the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
