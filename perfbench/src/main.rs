//! End-to-end and per-layer benchmark of the OVS pipeline.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `recover-hangzhou`, `corpus-manhattan`, `stream-hangzhou`
//! (the last closes with a serving phase). See `README.md` for why each
//! exists and what each metric means on it. The seed generates every input; the program under
//! test only sees those inputs. Every run checks the program's outputs and
//! exits non-zero when a check fails. The last stdout line is one JSON
//! object: the gated end-to-end metrics with `--trace 0`, the per-layer
//! metrics (from spans around every timed call) with `--trace 1`.

mod corpus;
mod layers;
mod pin;
mod procfs;
mod recover;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Run settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads of the multi-thread runs: the machine's core count.
    pub nproc: usize,
    pub tracer: Tracer,
    /// Scratch directory for artifact stores, removed at exit.
    pub scratch: PathBuf,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Named output checks; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted and failed in the timed phase.
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of each set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each unit of work at `nproc` threads, in seconds.
    pub op_s: Vec<f64>,
    /// Wall time of each unit of work on one thread, in seconds.
    pub op_1t_s: Vec<f64>,
    /// Workload-specific readouts printed by name (not in the JSON line).
    pub readouts: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics of the traced run.
    pub layers: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    pub fn readout(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.readouts.push((name, value, unit));
    }

    /// Records process CPU over the timed phase that started at `before`.
    pub fn timed_phase_cpu(&mut self, before: &procfs::Sample) {
        let after = procfs::Sample::now();
        self.layer("pool.user_cpu_s", after.user_s - before.user_s);
        self.layer("pool.sys_cpu_s", after.sys_s - before.sys_s);
    }
}

/// Repetition budget of a timed phase: keeps starting repetitions while
/// the next one (predicted to last as long as the previous) still ends
/// within `seconds`, and always runs at least `min_reps`.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min_reps: usize,
    reps: usize,
    last_start: Instant,
}

impl Budget {
    pub fn new(seconds: f64, min_reps: usize) -> Self {
        let now = Instant::now();
        Self {
            start: now,
            seconds,
            min_reps,
            reps: 0,
            last_start: now,
        }
    }

    /// True when another repetition should run; call once before each.
    pub fn more(&mut self) -> bool {
        let now = Instant::now();
        let last = now - self.last_start;
        if self.reps >= self.min_reps && (now - self.start + last).as_secs_f64() > self.seconds {
            return false;
        }
        self.reps += 1;
        self.last_start = now;
        true
    }
}

/// Result type of a workload run; an `Err` aborts the run without a
/// result line.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

const WORKLOADS: &[&str] = &["recover-hangzhou", "corpus-manhattan", "stream-hangzhou"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let num = |flag: &str| -> Result<f64, String> {
        get(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench");
    let scratch = out_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: roadnet::parallel::machine_threads(),
        tracer: Tracer::new(
            args.trace,
            format!("{}-seed{}-{}", args.workload, args.seed, std::process::id()),
        ),
        scratch: scratch.clone(),
    };
    let started = Instant::now();
    let threads = args.trace.then(procfs::ThreadWatch::start);
    let result = match args.workload.as_str() {
        "recover-hangzhou" => recover::run(&ctx),
        "corpus-manhattan" => corpus::run(&ctx),
        _ => stream::run(&ctx),
    };
    let threads_max = threads.map_or(0, procfs::ThreadWatch::finish);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = procfs::Sample::now().hwm_mb;

    println!(
        "# perfbench {} seed={} seconds={} trace={} nproc={} wall={wall_s:.1}s",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.nproc
    );
    for (name, ok) in &report.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, value, unit) in &report.readouts {
        println!("{name} = {value:.6} {unit}");
    }
    for (name, samples) in [
        ("setup_s", &report.setup_s),
        ("op_s", &report.op_s),
        ("op_1t_s", &report.op_1t_s),
    ] {
        let q = |p: f64| stats::quantile(samples, p);
        println!(
            "samples {name}: n={} min={:.6} p25={:.6} median={:.6} p75={:.6} max={:.6}",
            samples.len(),
            q(0.0),
            q(0.25),
            q(0.5),
            q(0.75),
            q(1.0)
        );
    }
    let correct = !report.checks.is_empty() && report.checks.iter().all(|(_, ok)| *ok);

    let e2e_path = out_dir.join(format!("e2e-{}-seed{}.txt", args.workload, args.seed));
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let n_spans = ctx.tracer.len();
        let overhead_s = n_spans as f64 * trace::span_cost_s();
        report.layer("trace.spans", n_spans as f64);
        report.layer("pool.threads_max", threads_max as f64);
        report.layer("trace.overhead_pct", 100.0 * overhead_s / wall_s);
        let traced_op_ms = stats::median(&report.op_s) * 1e3;
        if let Some(untraced) = std::fs::read_to_string(&e2e_path)
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
        {
            println!(
                "tracing overhead: op_ms {traced_op_ms:.4} traced vs {untraced:.4} untraced ({:+.2}%)",
                100.0 * (traced_op_ms / untraced - 1.0)
            );
        }
        let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, ctx.tracer.chrome_json()) {
            Ok(()) => println!("trace: {} spans -> {}", n_spans, path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        layers::LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = report
                    .layers
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, value, unit)
            })
            .collect()
    } else {
        let op_ms = stats::median(&report.op_s) * 1e3;
        let _ = std::fs::write(&e2e_path, format!("{op_ms}\n"));
        vec![
            ("setup_s", stats::median(&report.setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            ("op_ms", op_ms, "ms"),
            ("op_1t_ms", stats::median(&report.op_1t_s) * 1e3, "ms"),
        ]
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    // A metric with no samples (NaN) or an empty timed phase is a broken
    // run, not a result.
    let correct = correct && report.attempted > 0 && metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
