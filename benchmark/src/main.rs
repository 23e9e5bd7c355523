//! The repo's benchmark harness: five pinned, fixed-work-quantum workloads.
//!
//! ```text
//! igr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! igr-benchmark --aa [--seed <n>] [--seconds <s>]
//! igr-benchmark --write-reference
//! ```
//!
//! One process runs one workload, pinned to one CPU, and prints a report
//! whose last line is the machine-readable result. Definitions, rationale
//! and the layer → end-to-end predictions are in `benchmark/README.md`.

mod aa;
mod host;
mod jets;
mod json;
mod layers;
mod metrics;
mod reference;
mod specgen;
mod stats;
mod sweeps;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::Workload;

/// `benchmark/out/`: the only place the harness writes.
pub fn out_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory under `benchmark/out/` for this process's files.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("benchmark/out must be writable");
    dir
}

/// The repository root (the parent of `benchmark/`).
pub fn repo_root() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: bool,
    write_reference: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: igr-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      igr-benchmark --aa [--seed N] [--seconds S]\n\
         \x20      igr-benchmark --write-reference",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: reference::DEFAULT_SEED,
        seconds: workloads::RUN_SECONDS,
        trace: false,
        aa: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage()))
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--aa" => args.aa = true,
            "--write-reference" => args.write_reference = true,
            _ => usage(),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        usage();
    }
    args
}

fn main() {
    // A debug build or a race-checked build measures something no user runs.
    if cfg!(debug_assertions) || cfg!(igr_race_check) {
        eprintln!(
            "igr-benchmark refuses to measure a debug or --cfg igr_race_check build; \
             build with --release and without the cfg"
        );
        std::process::exit(2);
    }
    let args = parse_args();
    if args.aa {
        std::process::exit(aa::run(args.seed, args.seconds));
    }
    let allowed = host::allowed_cpus();
    let pinned = host::pin_to_one_cpu(&allowed);
    // One solver thread, stated rather than inferred from the pinned mask.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool");
    if args.write_reference {
        let code = pool.install(workloads::write_reference);
        std::process::exit(code);
    }
    let Some(workload) = args.workload else {
        usage()
    };
    print!(
        "{}",
        host::report(&allowed, pinned, args.seed, &repo_root())
    );
    let code = pool.install(|| {
        if args.trace {
            workloads::run_traced(workload, args.seed, args.seconds)
        } else {
            workloads::run_untraced(workload, args.seed, args.seconds)
        }
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    /// The benchmark must measure the build a user of the workspace gets:
    /// its release profile is a copy of the root manifest's.
    #[test]
    fn release_profile_mirrors_the_root_manifest() {
        fn profile(manifest: &str) -> Vec<String> {
            let text =
                std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
            let mut lines: Vec<String> = text
                .lines()
                .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
                .skip_while(|l| l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty())
                .collect();
            lines.sort();
            lines
        }
        let dir = env!("CARGO_MANIFEST_DIR");
        let ours = profile(&format!("{dir}/Cargo.toml"));
        let root = profile(&format!("{dir}/../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(
            ours, root,
            "benchmark/Cargo.toml [profile.release] drifted from the root's"
        );
    }
}
