//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run metadata and every measured figure as `# name value
//! unit` lines, then one JSON object as the last line of standard output.
//! Exits 2 without a result on bad arguments or a failed set-up.

use perfbench::{result_json, run, Options, WorkloadKind};

fn usage() -> String {
    let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown".into(),
    }
}

fn parse() -> Result<(WorkloadKind, Options, f64), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadKind::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    let traced = trace.ok_or("--trace is required")?;
    Ok((workload, Options { seed, budget: None, traced }, seconds))
}

fn main() {
    let (workload, opts, seconds) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={seconds} trace={} nproc={nproc} threads=1 \
         features=default git_rev={}",
        workload.name(),
        opts.seed,
        u8::from(opts.traced),
        git_rev()
    );
    match run(workload, &opts, seconds, None) {
        Ok(result) => {
            for (name, value, unit) in &result.detail.0 {
                println!("# {name} {value} {unit}");
            }
            println!("# attempted {} failed {}", result.attempted, result.failed);
            println!("{}", result_json(&result));
        }
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", workload.name());
            std::process::exit(2);
        }
    }
}
