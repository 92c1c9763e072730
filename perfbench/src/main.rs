//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>]`: runs one workload and prints its metric table, then the
//! JSON result line last.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{RunOptions, WORKLOADS};

fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One host pool thread: on this class of machine a second pool thread
    // slows the steps down, and one thread keeps runs comparable.
    rayon::set_active_threads(1);
    let report = perfbench::run(&opts).expect("workload name was validated");
    println!(
        "{} seed={} seconds={} trace={} threads={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        opts.trace,
        rayon::current_num_threads()
    );
    print!("{}", report.table());
    println!("{}", report.json());
    ExitCode::SUCCESS
}
