//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, a human-readable summary, and as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics, or with `--trace 1` the per-layer ones).

use perfbench::bench::{self, References, Tally, MIN_PASSES, MIN_UNITS};
use perfbench::inputs::Workload;
use perfbench::report::{json_str, median, ns_to_ms, result_line};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// FNV-style digest of every file under `crates/` and the root build
/// files: identifies the program's source when the checkout has no git.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = DefaultHasher::new();
    for f in &files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn provenance(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"profile\": {}, \"rustflags\": {}, \"rustc\": {}, \"commit\": {}, \
         \"source_digest\": {}}}}}",
        json_str(a.workload.name()),
        a.seed,
        a.seconds,
        a.trace,
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&commit()),
        json_str(&source_digest()),
    )
}

fn run(a: &Args) -> std::io::Result<(Tally, perfbench::report::Metrics)> {
    let (inputs, setup_s, gen_s) = bench::setup(a.workload, a.seed)?;
    let mut tally = Tally::default();
    if a.trace {
        let m = bench::per_layer(&inputs, &gen_s, a.seconds, &mut tally)?;
        return Ok((tally, m));
    }
    let mut refs = References::default();
    bench::warm_up(&inputs, &mut refs, &mut tally)?;
    let budget = Duration::from_secs_f64(a.seconds);
    let d = bench::closed_loop(
        &inputs, budget, MIN_PASSES, MIN_UNITS, false, &mut refs, &mut tally,
    )?;
    let m = bench::end_to_end(&d, &setup_s);
    println!(
        "samples: {} units over {} passes (latency and first-event percentiles), {} set-ups, \
         {} scrapes",
        d.latency_ns.len(),
        d.passes,
        setup_s.len(),
        d.scrapes.len()
    );
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "error_rate: {error_rate} ({} of {} failed)",
        tally.failed, tally.attempted
    );
    if d.pass_cycles > 0 {
        println!("sim_cycles: {} cycles per pass", d.pass_cycles);
    }
    if !d.scrapes.is_empty() {
        let scrape_ms: Vec<f64> = ns_to_ms(&d.scrapes.iter().map(|s| s.ns).collect::<Vec<_>>());
        println!(
            "scrape_ms_p50: {} ms over {} scrapes",
            median(&scrape_ms),
            scrape_ms.len()
        );
    }
    Ok((tally, m))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", provenance(&args));
    match run(&args) {
        Ok((tally, metrics)) => {
            for e in &tally.errors {
                eprintln!("perfbench: failed: {e}");
            }
            for (name, value, unit) in metrics.entries() {
                println!("{name}: {value} {unit}");
            }
            println!(
                "{}",
                result_line(tally.failed == 0, tally.attempted, tally.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
