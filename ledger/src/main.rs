//! gpuflow ledger: one seeded benchmark for compile, out-of-core
//! planning, TCP serving and functional kernels.
//!
//! ```text
//! ledger --workload <paper_tables|out_of_core|serve_mix|functional>
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric for people, then one JSON result line. Exits 1
//! when any output fails its correctness check. See `README.md`.

mod alloc;
mod compile;
mod functional;
mod gen;
mod report;
mod serve;
mod spans;

use report::Report;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// 64-bit FNV-1a, for comparing emitted plans across passes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const WORKLOADS: [&str; 4] = ["paper_tables", "out_of_core", "serve_mix", "functional"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds '{value}'"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            std::process::exit(2);
        }
    };
    let mut report: Report = match args.workload.as_str() {
        "paper_tables" => compile::run(
            compile::Kind::PaperTables,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "out_of_core" => compile::run(
            compile::Kind::OutOfCore,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_mix" => serve::run(args.seed, args.seconds, args.trace),
        "functional" => functional::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    report.note(format!(
        "process heap high-water mark: {:.1} MB",
        report::mb(ALLOC.peak())
    ));
    report.print(&args.workload, args.trace);
    if !report.correct() {
        std::process::exit(1);
    }
}
