//! `perfbench`: the FluXQuery engine's benchmark.
//!
//! ```text
//! perfbench --workload <bib_q3|auction_exp|msg_stream> --seed <n> --seconds <s> --trace <0|1>
//!           [--scale full|tiny] [--trace-out <file>] [--corrupt-output]
//! ```
//!
//! Generates the workload from the seed, computes each document's
//! reference output with the DOM baseline, then measures for the given
//! seconds. `--trace 0` times untraced engine runs and reports the
//! end-to-end metrics; `--trace 1` runs the layer ladder with a span
//! around every call and reports the per-layer metrics (and writes the
//! spans to `--trace-out`). The last line of standard output is the
//! result as one JSON object. `--scale tiny` and `--corrupt-output` exist
//! for the benchmark's own tests.

mod alloc;
mod e2e;
mod ladder;
mod measure;
mod report;
mod sink;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Load, Scale};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    trace_out: Option<PathBuf>,
    corrupt: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut scale, mut trace_out, mut corrupt) = (Scale::Full, None, false);
        while let Some(flag) = args.next() {
            if flag == "--corrupt-output" {
                corrupt = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("between 0 and 600"));
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
                "--scale" => {
                    scale = match value.as_str() {
                        "full" => Scale::Full,
                        "tiny" => Scale::Tiny,
                        _ => return Err(bad("full or tiny")),
                    }
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale,
            trace_out,
            corrupt,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::find(&args.workload) else {
        let names: Vec<&str> = workloads::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let load = Load::new(spec, args.seed, args.scale);
    println!(
        "{} (seed {}): {}; query {}; closed loop, 1 client",
        spec.name, args.seed, spec.generator, spec.query_id
    );
    let line = if args.trace {
        ladder::run(
            spec,
            &load,
            args.seconds,
            args.corrupt,
            args.trace_out.as_deref(),
            args.seed,
        )
        .json(report::PER_LAYER)
    } else {
        e2e::run(spec, &load, args.seconds, args.corrupt).json(report::END_TO_END)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
