//! The Helios benchmark: socket-to-socket serve, ingest and freshness
//! against a real multi-process deployment, with a per-layer ledger.
//!
//! ```text
//! helios-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! helios-benchmark [--seed <n>] [--seconds <s>] [--repeat <k>] [--smoke]
//! helios-benchmark compare <base.json> <new.json> [--bounds BENCHMARK.json]
//! ```
//!
//! The first form is one run of one workload and ends with the one-line
//! JSON result the driver reads. The second runs every workload, untraced
//! then traced, and writes `benchmark/out/result.json`. See README.md.

mod decode;
mod json;
mod load;
mod probes;
mod reference;
mod report;
mod run;
mod spec;
mod stats;
mod sut;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Stamp;
use run::{RunOptions, RunResult};

const USAGE: &str = "\
usage: helios-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
       helios-benchmark [--seed <n>] [--seconds <s>] [--repeat <k>]
       helios-benchmark compare <base.json> <new.json> [--bounds <BENCHMARK.json>]

options:
  --workload <name>   serve_small | serve_large | ingest_burst | mixed_live
                      (omit to run all four, untraced then traced)
  --seed <n>          seeds the dataset and every request sequence (default 1)
  --seconds <s>       length of the timed phases (default: run_seconds of BENCHMARK.json)
  --trace <0|1>       0: end-to-end metrics; 1: record spans, run the layer probes,
                      report the per-layer metrics
  --repeat <k>        suite mode: k runs per workload, seeds n .. n+k-1 (default 1)
  --smoke             5 s of phases and one set-up; numbers are not comparable
  --helios <path>     the launcher binary (default: next to this executable)
  --out <dir>         where results and traces go (default benchmark/out)";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    repeat: u64,
    smoke: bool,
    helios: PathBuf,
    out_dir: PathBuf,
    bounds: PathBuf,
    positional: Vec<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        repeat: 1,
        smoke: false,
        helios: run::default_helios(),
        out_dir: PathBuf::from("benchmark/out"),
        bounds: PathBuf::from("BENCHMARK.json"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, raw: String) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("bad value `{raw}` for {flag}"))
        }
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(arg)?),
            "--seed" => cli.seed = number(arg, value(arg)?)?,
            "--seconds" => cli.seconds = Some(number(arg, value(arg)?)?),
            "--trace" => {
                cli.traced = match value(arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--repeat" => cli.repeat = number(arg, value(arg)?)?,
            "--smoke" => cli.smoke = true,
            "--helios" => cli.helios = PathBuf::from(value(arg)?),
            "--out" => cli.out_dir = PathBuf::from(value(arg)?),
            "--bounds" => cli.bounds = PathBuf::from(value(arg)?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cli)
}

/// `run_seconds` of `BENCHMARK.json`, the length every comparable run uses.
fn contract_seconds(cli: &Cli) -> Result<f64, String> {
    let raw = std::fs::read_to_string(&cli.bounds)
        .map_err(|e| format!("{}: {e} (pass --seconds)", cli.bounds.display()))?;
    json::Json::parse(&raw)?
        .get("run_seconds")
        .and_then(json::Json::as_f64)
        .ok_or_else(|| format!("{} has no run_seconds", cli.bounds.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("helios-benchmark: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match cli.positional.first().map(String::as_str) {
        Some("compare") => compare(&cli),
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
        None => measure(&cli),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("helios-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare(cli: &Cli) -> Result<ExitCode, String> {
    let [_, base, new] = cli.positional.as_slice() else {
        return Err(format!("compare takes two result files\n\n{USAGE}"));
    };
    let regressed = report::compare(base.as_ref(), new.as_ref(), &cli.bounds)?;
    if regressed {
        eprintln!("helios-benchmark: at least one end-to-end metric regressed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn measure(cli: &Cli) -> Result<ExitCode, String> {
    let seconds = match (cli.seconds, cli.smoke) {
        (Some(s), _) => s,
        (None, true) => 5.0,
        (None, false) => contract_seconds(cli)?,
    };
    let stamp = Stamp {
        commit: report::current_commit(),
        host_cores: std::thread::available_parallelism().map_or(0, usize::from),
        helios: cli.helios.display().to_string(),
        seconds,
        smoke: cli.smoke,
    };
    let options = |workload: &str, seed: u64, traced: bool| RunOptions {
        workload: workload.to_string(),
        seed,
        seconds,
        traced,
        smoke: cli.smoke,
        helios: cli.helios.clone(),
        out_dir: cli.out_dir.clone(),
    };
    println!(
        "helios-benchmark: commit {} · {} cores · {seconds} s of timed phases · helios {}",
        stamp.commit, stamp.host_cores, stamp.helios
    );

    if let Some(workload) = &cli.workload {
        // The driver's form: one run, one line of JSON last.
        // A run that fails prints no result line at all.
        let result = run::run_workload(&options(workload, cli.seed, cli.traced))?;
        report::print_table(&result);
        let path = cli.out_dir.join(format!(
            "result-{}-trace{}.json",
            result.workload.name,
            u8::from(result.traced)
        ));
        let line = report::contract_line(&result);
        report::write_results(&path, &stamp, &[(result, cli.seed)])?;
        println!("{line}");
        return Ok(ExitCode::SUCCESS);
    }

    let mut runs: Vec<(RunResult, u64)> = Vec::new();
    for seed in cli.seed..cli.seed + cli.repeat.max(1) {
        for workload in spec::workloads() {
            for traced in [false, true] {
                let result = run::run_workload(&options(workload.name, seed, traced))?;
                report::print_table(&result);
                runs.push((result, seed));
            }
        }
    }
    let path = cli.out_dir.join("result.json");
    report::write_results(&path, &stamp, &runs)?;
    println!("results -> {}", path.display());
    let failed: u64 = runs.iter().map(|(r, _)| r.failed).sum();
    if failed > 0 || runs.iter().any(|(r, _)| !r.correct) {
        return Err(format!("{failed} operations failed across the suite"));
    }
    Ok(ExitCode::SUCCESS)
}
