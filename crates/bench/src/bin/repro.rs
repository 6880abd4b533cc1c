//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro <id>... [--quick] [--threads N] [--out DIR]    run specific experiments
//! repro all     [--quick] [--threads N] [--out DIR]    run everything, paper order
//! repro list                                           show available ids
//! repro list --figures                                 only the `all` set (CI coverage guard)
//! ```
//!
//! Output goes to stdout; with `--out DIR` each experiment is also written
//! to `DIR/<id>.txt`. `--threads N` sets the parallelism of every sweep
//! (default: the machine's available parallelism, or the `LLR_THREADS`
//! environment variable); results are bit-identical at any thread count.
//! `--frontend-shards N` caps how many engine shards the sharded service
//! experiments spread their frontend lanes over — like `--threads` a pure
//! execution knob, and CI byte-diffs it against the serial tree to prove
//! placement never leaks into the output.

#![forbid(unsafe_code)]

use repro_bench::{known_ids, run_experiment, Effort, ABLATION_IDS, ALL_IDS, WALL_CLOCK_IDS};
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
        std::process::exit(2);
    }

    let mut effort = Effort::Full;
    let mut out_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;
    let mut figures_only = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => effort = Effort::Quick,
            "--figures" => figures_only = true,
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => simcore::runner::set_global_threads(n),
                _ => {
                    eprintln!("--threads requires a positive integer");
                    std::process::exit(2);
                }
            },
            "--frontend-shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => storesim::sharded::set_default_frontend_shards(n),
                _ => {
                    eprintln!("--frontend-shards requires a positive integer");
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

    if list {
        // `--figures` restricts to the `repro all` set — the ids CI's
        // serial-vs-parallel byte-diff must cover, machine-readably.
        if figures_only {
            for id in ALL_IDS {
                println!("{id}");
            }
        } else {
            for id in known_ids() {
                println!("{id}");
            }
        }
        return;
    }
    if figures_only {
        eprintln!("--figures only applies to `repro list`");
        std::process::exit(2);
    }

    for id in &ids {
        if !known_ids().any(|k| k == id) {
            eprintln!("unknown experiment id '{id}'; try `repro list`");
            std::process::exit(2);
        }
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

fn usage() {
    eprintln!(
        "usage: repro <id>...|all|ablations|list [--figures] [--quick] [--threads N] \
         [--frontend-shards N] [--out DIR]"
    );
    eprintln!("figures:   {}", ALL_IDS.join(" "));
    eprintln!("ablations: {}", ABLATION_IDS.join(" "));
    eprintln!(
        "wall-clock: {} (latencies are real; excluded from `all` and byte-diffs)",
        WALL_CLOCK_IDS.join(" ")
    );
}
