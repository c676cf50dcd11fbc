//! Host benchmark of the YOLoC stack.
//!
//! Three workloads, each exercising different layers:
//!
//! * `detect-stream` — one client streams seeded frames through
//!   `yolo-v2/w32@64x64` (`CompiledNetwork::infer_in`, warm arena,
//!   closed loop, one thread): staging and CiM kernels do the work.
//! * `serve-mixed` — a fresh `Broker` per round on the virtual clock,
//!   fed a fresh `LoadGen` trace of three tenants (Poisson, bursty,
//!   ramp) over `min(2, nproc)` pool lanes: batching and dispatch.
//! * `deploy-restart` — cold deploys of five zoo networks through the
//!   plan cache, then warm deploys from it as after a restart: compiler,
//!   serializer and cache, no serving.
//!
//! Usage: `yoloc-benchmark [--workload NAME] [--seed N] [--seconds S]
//! [--trace 0|1] [--smoke] [--write-golden]`. With `--workload` the run
//! prints one `workload metric value unit` line per metric and, last,
//! the result as one JSON object; without it every workload runs in a
//! child process of its own. A runner that follows `BENCHMARK.json`
//! appends `--workload`, `--seed`, `--seconds` (its `run_seconds`) and
//! `--trace` to the command there. See `README.md` for the metrics.

mod deploy;
mod detect;
mod digest;
mod layers;
mod metrics;
mod run;
mod serve;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use run::{target_dir, Config, Run};

/// Every workload, in run order.
pub const WORKLOADS: [&str; 3] = [detect::NAME, serve::NAME, deploy::NAME];

/// Timed seconds under `--smoke` unless `--seconds` says otherwise;
/// without `--smoke` the default is `BENCHMARK.json`'s `run_seconds`.
const SMOKE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: yoloc-benchmark [--workload detect-stream|serve-mixed|deploy-restart] \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--write-golden]";

/// The parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    cfg: Config,
    write_golden: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (1u64, None, false);
    let (mut smoke, mut write_golden) = (false, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                workload = Some(w);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--write-golden" => write_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let default = || {
        if smoke {
            SMOKE_SECONDS
        } else {
            metrics::run_seconds()
        }
    };
    Ok(Args {
        workload,
        cfg: Config {
            seed,
            seconds: seconds.unwrap_or_else(default),
            traced,
            smoke,
        },
        write_golden,
    })
}

/// Runs one workload in this process, returning its filled-in state.
fn run_workload(name: &str, cfg: &Config, write_golden: bool) -> (Run, Result<(), String>) {
    let mut run = Run::new(cfg.clone());
    let res = match name {
        detect::NAME => detect::run(&mut run, write_golden),
        serve::NAME => serve::run(&mut run, write_golden),
        deploy::NAME => deploy::run(&mut run, write_golden),
        _ => Err(format!("unknown workload {name}")),
    };
    (run, res)
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let cfg = &args.cfg;
    let (mut run, res) = run_workload(name, cfg, args.write_golden);
    if let Err(e) = res {
        run.fail(1, e);
    }
    let out = target_dir().join("results");
    let _ = std::fs::create_dir_all(&out);
    if cfg.traced {
        let path = target_dir().join(format!("trace-{name}-seed{}.json", cfg.seed));
        match std::fs::write(&path, run.tracer.chrome_json()) {
            Ok(()) => eprintln!("trace: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let metrics = match run.values.select(cfg.traced) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (m, v) in &metrics {
        println!("{name} {} {v} {}", m.name, m.unit);
    }
    if !cfg.traced {
        if let Some(v) = run.values.get("host.probe_ns") {
            println!("{name} host.probe_ns {v} ns");
        }
    }
    let correct = run.failed == 0 && run.attempted > 0;
    let json = metrics::result_json(correct, run.attempted, run.failed, &metrics).render_compact();
    let file = out.join(format!(
        "{name}-seed{}-trace{}.json",
        cfg.seed,
        u8::from(cfg.traced)
    ));
    if let Err(e) = std::fs::write(&file, &json) {
        eprintln!("cannot write {}: {e}", file.display());
    }
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own (so each one's
/// peak RSS is its own), relaying their output.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let cfg = &args.cfg;
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.traced { "1" } else { "0" }])
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit());
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        if args.write_golden {
            cmd.arg("--write-golden");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{w}: {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("{w}: cannot start: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_parses_flags_and_rejects_bad_ones() {
        let a = args("--workload serve-mixed --seed 7 --seconds 12 --trace 1").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("serve-mixed"));
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.traced), (7, 12.0, true));
        let a = args("--smoke").expect("valid");
        assert_eq!(
            (a.cfg.seconds, a.cfg.traced, a.cfg.smoke),
            (SMOKE_SECONDS, false, true)
        );
        let a = args("--seed 3").expect("valid");
        assert_eq!(a.cfg.seconds, metrics::run_seconds());
        for bad in [
            "--trace 2",
            "--workload nope",
            "--seconds 0",
            "--seed",
            "--fast",
        ] {
            assert!(args(bad).is_err(), "{bad} must be rejected");
        }
    }

    /// The exact metrics (modelled figures and event counts) of a
    /// workload are a pure function of its seed.
    #[test]
    fn smoke_runs_repeat_exact_metrics_byte_for_byte() {
        const EXACT: &[&str] = &[
            "cim.adc_conversions",
            "cim.wl_pulses",
            "compiler.peak_arena_bytes",
            "serve.batches",
            "serve.mean_batch",
            "serve.max_queue_depth",
            "serve.shed",
            "serve.rejected",
            "cache.entry_bytes",
            "modelled_latency_us",
            "modelled_energy_uj",
            "modelled_p99_us",
            "modelled_goodput_frac",
        ];
        let cfg = args("--smoke --trace 1").expect("valid").cfg;
        // One test runs every workload in turn: the compile counter the
        // warm-deploy check reads is process-wide.
        for w in WORKLOADS {
            let exact = || {
                let (run, res) = run_workload(w, &cfg, false);
                res.unwrap_or_else(|e| panic!("{w}: {e}"));
                assert_eq!(run.failed, 0, "{w} failed a check");
                let metrics = run.values.select(true).expect("every per-layer metric");
                for (m, v) in &metrics {
                    assert!(v.is_finite(), "{w}: {} = {v}", m.name);
                }
                EXACT
                    .iter()
                    .map(|n| run.values.get(n).expect("exact metric").to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(exact(), exact(), "{w}: exact metrics differ between runs");
        }
    }
}
