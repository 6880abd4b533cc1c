//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <id>... [--quick] [--threads N] [--out DIR]    run specific experiments
//! repro all     [--quick] [--threads N] [--out DIR]    run everything, paper order
//! repro list                                           show available ids
//! repro check DIR                                      check DIR/<id>.txt against the bands
//! ```
//!
//! Output goes to stdout; with `--out DIR` each experiment is also written
//! to `DIR/<id>.txt`. `--threads N` sets the parallelism of every sweep
//! (default: the machine's available parallelism, or the `LLR_THREADS`
//! environment variable); results are bit-identical at any thread count.
//!
//! `repro check DIR` prints one `ok   <id>: ...` or `FAIL <id>: ...` line
//! per headline band in `repro_bench::bands`, plus `FAIL <id>: missing ...`
//! for every `repro all` figure without a report, and exits 1 if any line
//! failed.

#![expect(
    clippy::disallowed_types,
    reason = "benchmarks measure wall-clock; that is their output, not simulation state"
)]

use repro_bench::{
    bands, known_ids, run_experiment, Effort, ABLATION_IDS, ALL_IDS, WALL_CLOCK_IDS,
};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "check") {
        match &args[1..] {
            [dir] if Path::new(dir).is_dir() => check(Path::new(dir)),
            [dir] => eprintln!("repro check: '{dir}' is not a directory"),
            _ => usage(),
        }
        std::process::exit(2);
    }

    let mut effort = Effort::Full;
    let mut out_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => effort = Effort::Quick,
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => simcore::runner::set_global_threads(n),
                _ => {
                    eprintln!("--threads requires a positive integer");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(dir),
                None => {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }
            },
            "list" => list = true,
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            "ablations" => ids.extend(ABLATION_IDS.iter().map(|s| s.to_string())),
            "-h" | "--help" => {
                usage();
                return;
            }
            other => ids.push(other.to_string()),
        }
    }

    for id in &ids {
        if !known_ids().any(|k| k == id) {
            eprintln!("unknown experiment id '{id}'; try `repro list`");
            std::process::exit(2);
        }
    }
    if list {
        for id in known_ids() {
            println!("{id}");
        }
        return;
    }
    if ids.is_empty() {
        usage();
        std::process::exit(2);
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out directory");
    }

    let threads = simcore::runner::global_threads();
    let t_all = Instant::now();
    for id in &ids {
        let t0 = Instant::now();
        let report = run_experiment(id, effort);
        eprintln!("[{id}] done in {:.1?}", t0.elapsed());
        println!("{report}");
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{id}.txt");
            let mut f = std::fs::File::create(&path).expect("create output file");
            f.write_all(report.as_bytes()).expect("write output file");
        }
    }
    if ids.len() > 1 {
        eprintln!(
            "[total] {} experiments in {:.1?} on {} thread(s)",
            ids.len(),
            t_all.elapsed(),
            threads
        );
    }
}

/// Prints every band line for `dir` and exits 1 if any failed, 0 if not.
fn check(dir: &Path) -> ! {
    let verdicts = bands::check_dir(dir);
    let failed = verdicts.iter().filter(|v| !v.ok).count();
    for v in &verdicts {
        println!("{v}");
    }
    eprintln!("{failed} of {} band checks failed", verdicts.len());
    std::process::exit(i32::from(failed > 0))
}

fn usage() {
    eprintln!("usage: repro <id>...|all|ablations|list [--quick] [--threads N] [--out DIR]");
    eprintln!("       repro check DIR");
    eprintln!("figures:   {}", ALL_IDS.join(" "));
    eprintln!("ablations: {}", ABLATION_IDS.join(" "));
    eprintln!(
        "wall-clock: {} (latencies are real; excluded from `all` and byte-diffs)",
        WALL_CLOCK_IDS.join(" ")
    );
}
