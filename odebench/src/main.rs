//! `odebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size tiny]`
//!
//! Runs one workload and prints a stamp line and, as the last line of
//! standard output, the result as one JSON object. Run from the root of
//! the repository (on-disk databases go to `.odebench-data/` there and
//! are removed afterwards):
//!
//! ```text
//! cargo run --release --manifest-path odebench/Cargo.toml -- \
//!     --workload trigger_post --seed 1 --seconds 10 --trace 0
//! ```

use odebench::report::{result_line, stamp_line, Stamp};
use odebench::served_snapshot::{self, ServedSnapshot};
use odebench::trigger_post::{self, TriggerPost};
use odebench::wal_evict::{self, WalEvict};
use odebench::{run, Config, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `--size tiny`: the self-test's data sets and a 3,000-statement
    /// run instead of the benchmark's.
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            "--size" if value == "tiny" || value == "full" => args.tiny = value == "tiny",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Pin the process, and every thread it starts later, to the lowest CPU
/// it may run on; returns that CPU.
///
/// Each request is synchronous, so at most one thread (the load
/// generator or the server thread serving it) is runnable at a time and
/// one CPU loses no parallelism. Unpinned, every hand-off between client
/// and server thread may wake an idle vCPU through the hypervisor. On the
/// reference host that wake-up dominates a round trip and varies by a
/// factor of two from run to run.
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable cpu_set_t-sized buffer (1024 bits) and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024).find(|&i| mask[i / 64] & (1 << (i % 64)) != 0)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is only read.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Make every thread allocate from one malloc arena. By default glibc
/// gives each new thread its own arena, or one freed by an earlier thread,
/// depending on timing. The served workload's peak RSS then jumps between
/// levels (51, 56, 67 or 78 MB) from run to run with identical work.
/// Returns whether glibc accepted the setting.
fn one_malloc_arena() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only adjusts allocator tuning; it is called before
    // the process starts any thread.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// `git rev-parse HEAD` when run from the root of a git checkout.
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (git rev-parse failed)".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("odebench: {e}");
            return ExitCode::from(2);
        }
    };
    let one_arena = one_malloc_arena();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = pin_to_one_cpu();
    let shape = match args.workload.as_str() {
        "trigger_post" => trigger_post::SHAPE,
        "wal_evict" => wal_evict::SHAPE,
        _ => served_snapshot::SHAPE,
    };
    let dir = PathBuf::from(".odebench-data").join(std::process::id().to_string());
    let cfg = if args.tiny {
        Config {
            trace: args.trace,
            ..Config::tiny(args.seed, 3000, dir.clone())
        }
    } else {
        Config {
            seed: args.seed,
            stmts: args.seconds * shape.stmts_per_second,
            segments: shape.segments,
            window_units: shape.window_units,
            setups: shape.setups,
            trace: args.trace,
            dir: dir.clone(),
            tiny: false,
        }
    };
    let result = match args.workload.as_str() {
        "trigger_post" => run(&mut TriggerPost::new(cfg.tiny), &cfg),
        "wal_evict" => run(&mut WalEvict::new(cfg.tiny), &cfg),
        _ => run(&mut ServedSnapshot::new(cfg.tiny), &cfg),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".odebench-data");
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("odebench: {} seed {}: {e}", args.workload, args.seed);
            return ExitCode::FAILURE;
        }
    };
    let stamp = Stamp {
        workload: &args.workload,
        seed: args.seed,
        trace: args.trace,
        commit: commit(),
        nproc,
        cpu,
        one_arena,
    };
    println!("{}", stamp_line(&stamp, &outcome));
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
