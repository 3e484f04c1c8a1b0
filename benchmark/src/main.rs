//! The repository benchmark (see README.md).
//!
//! `rqm-benchmark --out DIR --workload NAME --seed N --seconds S --trace 0|1`
//! runs one workload in this process and prints, as the last line of its
//! standard output, one JSON object with its correctness, operation counts
//! and metrics. Without `--workload` it runs every workload, each in a
//! process of its own; `--check-repeat` does that twice and compares.

mod adapter;
mod json;
mod metrics;
mod oracle;
mod replay;
mod rng;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{Env, WORKLOADS};

type Res<T> = Result<T, String>;

/// Seed of a run that names none (README.md names the held-out seed).
const DEFAULT_SEED: u64 = 20_220_509;

struct Args {
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    print_manifest: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        check_repeat: false,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => args.out = PathBuf::from(value()?),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--traced" => args.trace = true,
            "--check-repeat" => args.check_repeat = true,
            "--print-manifest" => args.print_manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// --------------------------------------------------------------- output

fn machine(env: &Env) -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    Json::obj([
        ("cpus", Json::Int(parallelism() as i64)),
        ("arch", Json::Str(std::env::consts::ARCH.into())),
        ("kernel", Json::Str(read("/proc/sys/kernel/osrelease"))),
        (
            "rustc",
            Json::Str(std::env::var("RQM_BENCH_RUSTC").unwrap_or_default()),
        ),
        ("threads", Json::Int(env.threads as i64)),
        ("clients", Json::Int(env.clients as i64)),
        ("seed", Json::Int(env.seed as i64)),
    ])
}

fn metrics_json(values: &[(&'static str, &'static str, f64)]) -> Json {
    Json::obj(values.iter().map(|&(name, unit, v)| {
        (
            name,
            Json::obj([("value", Json::Num(v)), ("unit", Json::Str(unit.into()))]),
        )
    }))
}

/// Run one workload in this process and print its result.
fn run_one(name: &str, args: &Args) -> Res<bool> {
    // Never more threads or connections than cores, and there is no option
    // to ask for more.
    let threads = parallelism().min(4);
    let dir = args.out.join(format!("run-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let env = Env {
        dir,
        seed: args.seed,
        threads,
        clients: threads,
    };
    let outcome = run::run_workload(name, &env, args.seconds, args.trace);
    // Scratch files go whether or not the run worked.
    let _ = std::fs::remove_dir_all(&env.dir);
    let outcome = outcome?;

    let values: Vec<(&str, &str, f64)> = if args.trace {
        // A layer that is not on this workload's path reads 0.
        // (`+ 0.0` turns the -0.0 an empty sum yields into 0.0.)
        PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n, u, outcome.per_layer.get(n).copied().unwrap_or(0.0) + 0.0))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, outcome.end_to_end[m.name]))
            .collect()
    };
    for what in &outcome.broken {
        eprintln!("{name}: validity check failed: {what}");
    }
    let correct =
        outcome.failed == 0 && outcome.broken.is_empty() && values.iter().all(|v| v.2.is_finite());
    for (metric, unit, v) in &values {
        println!("{name} {metric} {v} {unit}");
    }
    println!("{name} ops_attempted {} count", outcome.attempted);
    println!("{name} ops_failed {} count", outcome.failed);

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", metrics_json(&values)),
    ]);
    let record = Json::obj([
        ("workload", Json::Str(name.into())),
        ("traced", Json::Bool(args.trace)),
        ("machine", machine(&env)),
        ("result", result.clone()),
    ]);
    let kind = if args.trace { "traced" } else { "results" };
    let write = |file: String, text: String| {
        std::fs::write(args.out.join(&file), text).map_err(|e| format!("write {file}: {e}"))
    };
    write(format!("{kind}-{name}.json"), record.render())?;
    if args.trace {
        write(
            format!("trace-{name}.json"),
            trace::to_json(&outcome.spans).render(),
        )?;
    }
    println!("{}", result.render());
    Ok(correct)
}

// ---------------------------------------------------------------- suite

/// `(workload, metric) → value` as a child process printed it.
type Table = BTreeMap<(String, String), f64>;

/// Run every workload, each in a process of its own, passing its output on.
fn run_suite(args: &Args) -> Res<(Table, bool)> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut table = Table::new();
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .arg("--out")
            .arg(&args.out)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("start {name}: {e}"))?;
        ok &= out.status.success();
        for line in String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with('{'))
        {
            println!("{line}");
            let mut words = line.split_whitespace();
            if let (Some(w), Some(m), Some(Ok(v))) =
                (words.next(), words.next(), words.next().map(str::parse))
            {
                table.insert((w.to_string(), m.to_string()), v);
            }
        }
    }
    Ok((table, ok))
}

/// Two suites back to back: every end-to-end metric of every workload must
/// repeat within its bound, and the operation counts' failures must be 0.
fn check_repeat(args: &Args) -> Res<bool> {
    let (first, ok1) = run_suite(args)?;
    let (second, ok2) = run_suite(args)?;
    let mut ok = ok1 && ok2;
    println!("workload metric first second gap bound");
    for (name, _) in WORKLOADS {
        for m in &END_TO_END {
            let key = (name.to_string(), m.name.to_string());
            let (Some(&a), Some(&b)) = (first.get(&key), second.get(&key)) else {
                return Err(format!("{name} {} is missing from a run", m.name));
            };
            let gap = (a - b).abs() / a.abs();
            let verdict = if gap <= m.bound { "" } else { " EXCEEDED" };
            println!("{name} {} {a} {b} {gap:.4} {}{verdict}", m.name, m.bound);
            ok &= gap <= m.bound;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let run = || -> Res<bool> {
        let args = parse_args()?;
        if args.print_manifest {
            println!("{}", metrics::manifest().pretty());
            return Ok(true);
        }
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("create {}: {e}", args.out.display()))?;
        match &args.workload {
            Some(name) => run_one(name, &args),
            None if args.check_repeat => check_repeat(&args),
            None => run_suite(&args).map(|(_, ok)| ok),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rqm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
