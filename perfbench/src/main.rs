//! The repository's benchmark: the SCC simulator end to end, and the
//! simulator and the `scc-serve` service layer by layer, measured from
//! outside by timing calls into the crates' public functions.
//!
//! ```text
//! perfbench --workload sim-scc|sim-memory --seed N --seconds S
//!           --trace 0|1 --serve-bin PATH
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). `perfbench/run.py` builds this
//! binary and the `scc-serve` binary and runs it; see the README there.

mod oracle;
mod prep;
mod serve;
mod sim;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use util::Tracer;

/// Named measurements with units, in the order they were taken.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The tracing overhead on a higher-is-better `primary` rate: how
    /// much lower the traced figure is, as a share of the untraced one.
    pub fn overhead(&mut self, plain: &Metrics, traced: &Metrics, primary: &str) {
        let (p, t) = (
            plain.get(primary).unwrap_or(f64::NAN),
            traced.get(primary).unwrap_or(f64::NAN),
        );
        self.metric("trace.overhead_share", (p - t) / p, "ratio");
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    /// The end-to-end metrics again, measured with spans on.
    pub traced: Metrics,
    pub layers: Metrics,
    pub spans: Option<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut serve_bin) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(number()? != 0),
            "--serve-bin" => serve_bin = Some(PathBuf::from(&value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        serve_bin,
    })
}

fn print_metrics(label: &str, m: &Metrics) {
    for (name, value, unit) in &m.values {
        println!("{label:<10} {name:<34} {value:>16.6} {unit}");
    }
    for note in &m.notes {
        println!("{label:<10} {note}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload sim-scc|sim-memory --seed N --seconds S --trace 0|1 --serve-bin PATH");
            return ExitCode::from(2);
        }
    };
    let spec = match args.workload.as_str() {
        "sim-scc" => &sim::SIM_SCC,
        "sim-memory" => &sim::SIM_MEMORY,
        other => {
            eprintln!("perfbench: unknown workload `{other}` (sim-scc, sim-memory)");
            return ExitCode::from(2);
        }
    };
    let Some(serve_bin) = args.serve_bin.as_deref() else {
        eprintln!("perfbench: --serve-bin is required");
        return ExitCode::from(2);
    };
    // Scratch files (server sockets, stores, logs) of the traced run live
    // under the working directory, which is the root of the checkout.
    let scratch = PathBuf::from(".perfbench");
    let run_dir = scratch.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let report = sim::run(
        spec,
        args.seed,
        args.seconds,
        args.trace,
        serve_bin,
        &run_dir,
    );
    let _ = std::fs::remove_dir_all(&run_dir);

    print_metrics("end2end", &report.end_to_end);
    let shown = if args.trace {
        print_metrics("traced", &report.traced);
        for (name, value, unit) in &report.traced.values {
            let plain = report.end_to_end.get(name).unwrap_or(f64::NAN);
            println!(
                "{:<10} {name:<34} {:>16.6} {unit}",
                "overhead",
                value - plain
            );
        }
        print_metrics("layer", &report.layers);
        if let Some(spans) = &report.spans {
            let path = scratch
                .join("spans")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            match spans.write(&path) {
                Ok(()) => println!("spans      {} written to {}", spans.len(), path.display()),
                Err(e) => {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        &report.layers
    } else {
        &report.end_to_end
    };
    println!(
        "operations attempted {} failed {}",
        report.attempted, report.failed
    );

    let finite = shown.values.iter().all(|(_, v, _)| v.is_finite());
    let metrics: Vec<String> = shown
        .values
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                if v.is_finite() { *v } else { 0.0 }
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        finite && report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
