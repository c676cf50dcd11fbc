//! # yoloc-bench
//!
//! Reproduction harness for every table and figure in the YOLoC paper's
//! evaluation (DAC 2022). Each binary under `src/bin/` regenerates one
//! artifact:
//!
//! | binary | artifact |
//! |---|---|
//! | `fig01_scaling` | Fig. 1(a) technology-scaling argument |
//! | `fig04_cells` | Fig. 4 CiM cell comparison |
//! | `fig06_atl` | Fig. 6(b) transferability decay |
//! | `fig10_generalization` | Fig. 10 ReBranch generalization |
//! | `fig11_compression` | Fig. 11 D/U compression sweep |
//! | `fig12_detection` | Fig. 12 detection mAP and chip area |
//! | `fig14_system` | Fig. 14 system-level comparison |
//! | `table1_macro` | Table I macro specification |
//!
//! Run e.g. `cargo run --release -p yoloc-bench --bin fig14_system`.
//! Criterion micro-benchmarks of the underlying kernels live under
//! `benches/`. The `bench_engine` binary measures the batched inference
//! engine itself and emits the `BENCH_engine.json` baseline (schema
//! documented in the repository `README.md`).

// `deny` rather than `forbid`: the counting global allocator in
// `alloc_track` is the one place unsafe code is permitted (implementing
// `GlobalAlloc` requires it), explicitly allowed per-module below.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_track;
pub mod kernel_tier;
pub mod plan_cache;
pub mod report;

pub use yoloc_core::engine::WorkerPool;

/// Runs independent jobs on worker threads (one per available core, at
/// most `jobs.len()`), preserving input order in the output.
///
/// Convenience wrapper over the shared [`WorkerPool`]: one pool is opened
/// for the call and torn down after. Binaries that dispatch repeatedly
/// should hold a pool open with [`WorkerPool::with`] instead and call
/// [`WorkerPool::run`] on it directly.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = default_workers().min(jobs.len().max(1));
    WorkerPool::with(workers, |pool| pool.run(jobs))
}

/// Whether the harness runs in smoke mode: `--smoke` on the command
/// line, or `YOLOC_SMOKE` set to anything but `0` (`repro_all --smoke`
/// exports it to every child, and `ci.sh` sets it for some suites).
/// Every binary then shrinks its workload to a tiny configuration that
/// finishes in seconds while still executing its full code path — the
/// bins are *run* in CI, not just compiled.
pub fn smoke() -> bool {
    std::env::args_os().skip(1).any(|a| a == "--smoke")
        || std::env::var_os("YOLOC_SMOKE").is_some_and(|v| v != "0")
}

/// Picks the smoke-mode value when [`smoke`] is active, the full-run
/// value otherwise.
pub fn smoke_or<T>(smoke_value: T, full_value: T) -> T {
    if smoke() {
        smoke_value
    } else {
        full_value
    }
}

/// The worker count the bench binaries open their pools with: one lane
/// per available core (falling back to 4 when the count is unknown).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |v| v.get())
}

/// Prints a GitHub-markdown table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", headers.join(" | "));
    println!(
        "|{}|",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Formats a ratio as `N.Nx`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.1}x")
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt_x(14.81), "14.8x");
        assert_eq!(pct(0.125), "12.5%");
    }

    #[test]
    fn run_parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32)
            .map(|i: usize| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_parallel_empty() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(run_parallel(jobs).is_empty());
    }
}
