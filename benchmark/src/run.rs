//! What every workload shares: its configuration, the run state it
//! fills (tracer, metric values, operation and failure counts), the
//! round loop, and the set-up repetitions.

use std::path::PathBuf;
use std::time::Instant;

use crate::metrics::Values;
use crate::stats::median;
use crate::trace::Tracer;
use yoloc_core::engine::sample_stream_seed;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Iterations of the host probe loop (about 0.2 ms on a 2020s x86 core).
const PROBE_ITERS: u64 = 200_000;
/// Rounds the timed loop's own vectors hold before they grow. Growing
/// one between two set-up repetitions, after however many rounds the
/// host's speed allowed, changes how the heap is laid out when the next
/// repetition allocates, and with it `peak_rss_mb` (by up to 1 MiB on
/// detect-stream).
pub const ROUNDS_RESERVED: usize = 4096;

/// One run's settings, straight from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed loop, seconds.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub traced: bool,
    /// Quick check: one set-up, no round floors.
    pub smoke: bool,
}

impl Config {
    /// Set-up repetitions (the median is `setup_s`).
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }

    /// The `i`-th seed of generated stream `stream`.
    pub fn seed_of(&self, stream: u64, i: usize) -> u64 {
        sample_stream_seed(sample_stream_seed(self.seed, stream as usize), i)
    }

    /// The weight seed every network of the run compiles with.
    pub fn weight_seed(&self) -> u64 {
        self.seed_of(0, 0)
    }

    /// Rounds a workload runs at minimum (none under `--smoke`).
    pub fn min_rounds(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

/// The benchmark's own scratch directory inside its package.
pub fn target_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// A fresh, run-private working directory under [`target_dir`].
pub fn work_dir(workload: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = target_dir().join(format!(
        "work-{workload}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The state one workload run fills in.
pub struct Run {
    pub cfg: Config,
    pub tracer: Tracer,
    pub values: Values,
    /// Operations attempted (inferences, requests or deploys).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Host probe timings, one per round.
    probes: Vec<f64>,
    /// Wall time of each set-up repetition, s.
    setup_times: Vec<f64>,
}

impl Run {
    pub fn new(cfg: Config) -> Self {
        Run {
            tracer: Tracer::new(cfg.traced),
            cfg,
            values: Values::default(),
            attempted: 0,
            failed: 0,
            probes: Vec::new(),
            setup_times: Vec::new(),
        }
    }

    /// Counts `ops` failed operations, reporting why on stderr.
    pub fn fail(&mut self, ops: u64, why: impl std::fmt::Display) {
        self.failed += ops;
        eprintln!("FAILED ({ops} op(s)): {why}");
    }

    /// Compares the run's reference digests with the committed goldens
    /// for its seed (when a golden file for the seed exists), counting
    /// every mismatch as a failure; `--write-golden` stores them instead.
    pub fn check_golden(&mut self, workload: &str, digests: &[u64], write: bool) {
        if write {
            match crate::digest::write_golden(self.cfg.seed, workload, digests) {
                Ok(path) => eprintln!("wrote {} digests to {}", digests.len(), path.display()),
                Err(e) => self.fail(1, format!("cannot write goldens: {e}")),
            }
            return;
        }
        match crate::digest::golden(self.cfg.seed, workload) {
            Ok(None) => {}
            Ok(Some(want)) if want.len() != digests.len() => self.fail(
                digests.len() as u64,
                format!("{} golden digests, {} outputs", want.len(), digests.len()),
            ),
            Ok(Some(want)) => {
                let bad = want.iter().zip(digests).filter(|(a, b)| a != b).count();
                if bad > 0 {
                    self.fail(
                        bad as u64,
                        format!("{bad} output(s) differ from the goldens"),
                    );
                }
            }
            Err(e) => self.fail(digests.len() as u64, e),
        }
    }

    /// Runs `setup`, recording its wall time as one sample of `setup_s`.
    ///
    /// # Errors
    ///
    /// Whatever the set-up returns.
    pub fn setup<S>(
        &mut self,
        setup: impl FnOnce(&mut Run) -> Result<S, String>,
    ) -> Result<S, String> {
        let t = Instant::now();
        let state = setup(self);
        self.setup_times.push(t.elapsed().as_secs_f64());
        state
    }

    /// The timed loop: calls `round` until `seconds` have passed and at
    /// least `min_rounds` rounds ran, probing the host between rounds.
    /// In traced runs every other round records spans (the rest measure
    /// what tracing costs). Returns each round's result with whether it
    /// was traced.
    ///
    /// `repeat` is the workload's set-up repetition, which the workload
    /// ran once before the loop and which times its set-up through
    /// [`Run::setup`]. The remaining repetitions (state dropped, errors
    /// counted as failures) run between rounds at evenly spaced points of
    /// the timed window, so that they sample different phases of the
    /// host's noise rather than one; `setup_s` is the median of all of
    /// them.
    pub fn rounds<S, T>(
        &mut self,
        min_rounds: usize,
        mut repeat: impl FnMut(&mut Run) -> Result<S, String>,
        mut round: impl FnMut(&mut Run, usize) -> T,
    ) -> Vec<(bool, T)> {
        let mut again = |run: &mut Run| {
            if let Err(e) = repeat(run) {
                run.fail(1, e);
            }
        };
        let reps = self.cfg.setup_reps();
        let mut repeated = 1;
        let mut out = Vec::with_capacity(ROUNDS_RESERVED);
        self.probes.reserve(ROUNDS_RESERVED);
        let start = Instant::now();
        while out.len() < min_rounds || start.elapsed().as_secs_f64() < self.cfg.seconds {
            let due = self.cfg.seconds * repeated as f64 / reps as f64;
            if repeated < reps && start.elapsed().as_secs_f64() >= due {
                again(self);
                repeated += 1;
            }
            self.probes.push(host_probe_ns());
            let traced = self.cfg.traced && out.len() % 2 == 1;
            self.tracer.set_enabled(traced);
            let r = round(self, out.len());
            out.push((traced, r));
        }
        self.tracer.set_enabled(self.cfg.traced);
        for _ in repeated..reps {
            again(self);
        }
        self.values.set("setup_s", median(&self.setup_times));
        self.values.set("host.probe_ns", median(&self.probes));
        out
    }

    /// Records the best (highest) untraced round as `throughput_per_s`,
    /// and `trace_overhead_frac` as 1 - best traced / best untraced round.
    /// Interference on a shared host only ever slows a round down, so
    /// the best round is the steadiest estimate of what the code costs.
    pub fn record_throughput(&mut self, rounds: &[(bool, f64)]) {
        let best = |traced: bool| {
            rounds
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, v)| *v)
                .reduce(f64::max)
        };
        let plain = best(false).expect("at least one untraced round");
        let overhead = best(true).map_or(0.0, |traced| 1.0 - traced / plain);
        self.values.set("trace_overhead_frac", overhead);
        self.values.set("throughput_per_s", plain);
    }

    /// Records `peak_rss_mb` from the kernel's high-water mark of this
    /// process.
    pub fn peak_rss(&mut self) {
        self.values.set("peak_rss_mb", peak_rss_kib() / 1024.0);
    }
}

/// A fixed integer loop, timed: its drift between rounds flags phases of
/// neighbour noise on a shared host.
pub fn host_probe_ns() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_nanos() as f64
}

/// `VmHWM` of this process, KiB (0 where `/proc` is unavailable).
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}
