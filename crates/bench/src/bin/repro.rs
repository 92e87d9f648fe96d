//! The experiment runner: one subcommand per paper table/figure.
//!
//! ```text
//! repro <experiment> [--quick | --scale quick|paper] [--jobs N] [--profile]
//!
//! experiments:
//!   graph1..graph5   RTT vs load per transport and topology
//!   table1           read rates per transport and topology
//!   graph6           server CPU, UDP vs TCP
//!   graph7           read RTT trace with the A+4D envelope
//!   graph8 graph9    server comparison (Reno vs Ultrix)
//!   table2..table4   Modified Andrew Benchmark
//!   table5           Create-Delete benchmark
//!   faults           recovery under injected faults (soft/hard mounts)
//!   crowd            multi-client saturation: N clients vs an nfsd pool
//!   soak             randomized chaos worlds vs the consistency oracle
//!                    (`--seeds N` sweep, `--case SPEC` single replay,
//!                    `--lease` for NQNFS lease worlds under the
//!                    tightened oracle grace)
//!   section3         interface-tuning ablation
//!   ablation-rto ablation-slowstart ablation-namelen
//!   ablation-preload ablation-rsize ablation-readahead
//!   ablation-readdirplus ablation-lease
//!   all              everything above
//!   bench            the simulator benchmarking itself (see below)
//!   shard            N-client × M-server sharded-fleet sweep (writes
//!                    BENCH_pr9.json and holds the LAN scaling gate)
//!   shard-smoke      32-client M=1/M=2 fleet determinism smoke gate
//! ```
//!
//! `--jobs N` sets the worker-thread count for the parallel job runner
//! (default: all hardware threads). Results are byte-identical on
//! stdout for any `--jobs` value; per-experiment wall-clock timing goes
//! to stderr so it never perturbs the comparable output. Each world
//! runs on one thread's event loop; `--jobs` is the only parallelism.
//!
//! `--profile` prints the self-profiler's subsystem table (events,
//! wall-clock, allocations) to stderr after the run. It needs the
//! `profile` cargo feature to report real numbers:
//! `cargo run --release --features profile -- graph1 --quick --profile`.
//!
//! `repro bench` runs the queue-replay microbenches (timer wheel,
//! `BinaryHeap` baseline, and the adaptive queue, each replaying
//! identical recorded schedules — including a 64-client crowd trace)
//! plus a timed pass over every experiment, and writes
//! `BENCH_pr4.json` with `nproc`/rustc metadata, the lease section
//! (Create-Delete write-RPC recovery vs noconsist plus a lease-soak
//! certification) into `BENCH_pr8.json`, and the sharded N×M fleet
//! sweep into `BENCH_pr9.json`. `repro bench --check FILE` re-runs the
//! microbenches, the lease section, and the shard gate cells, and
//! exits nonzero if: throughput regressed more than 30% against the
//! committed numbers; the adaptive queue trails the heap more than 5%
//! on the shallow replay; the lease mount recovers under 60% of the
//! noconsist write-RPC reduction on any topology; the lease soak
//! reports a violation; the committed or fresh LAN fleet fails the
//! M=4 ≥ 2× M=1 aggregate-throughput floor; or the shard gate cells
//! diverge between `--jobs` 1 and 2. A committed report missing a
//! gated section fails loudly rather than waiving the gate.

use std::time::Instant;

use renofs_bench::experiments::shard;
use renofs_bench::Scale;
use renofs_bench::{bench, lease};
use renofs_workload::andrew::AndrewSpec;

// With the `profile` feature, count every heap allocation so the
// profiler can attribute them to subsystems; without it, this item
// doesn't exist and the default system allocator is used directly.
#[cfg(feature = "profile")]
#[global_allocator]
static ALLOC: renofs_sim::profile::CountingAlloc = renofs_sim::profile::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment|all|bench|shard|shard-smoke> \
         [--quick | --scale quick|paper] \
         [--jobs N] [--profile] [--out FILE] [--check FILE] [--seeds N] \
         [--case SPEC] [--duration SECS] [--max-ops N] [--long] [--lease]"
    );
    eprintln!(
        "soak: `repro soak --seeds N` sweeps chaos seeds 0..N; `repro soak --case \
         \"seed=S,clients=C,rounds=R,windows=0;1\"` replays one shrunk case; `--lease` \
         sweeps NQNFS lease worlds (write-behind clients, crash/partition windows) \
         under the tightened lease oracle grace. All exit 1 on an oracle violation."
    );
    eprintln!(
        "soak budget mode: `--duration SECS` and/or `--max-ops N` run seeds (streaming \
         oracle, heartbeats to stderr) until the budget is spent, failing fast on the \
         first violation; `--long` switches to the certification worlds (up to 16 \
         clients, crash/reboot cycles; default {} seeds). `--seeds N` caps the sweep.",
        renofs_bench::experiments::soak::LONG_SEEDS
    );
    eprintln!("run `repro all --quick` for the fast version of everything");
    std::process::exit(2);
}

struct Options {
    what: String,
    quick: bool,
    jobs: usize,
    profile: bool,
    out: String,
    check: Option<String>,
    seeds: Option<usize>,
    case: Option<String>,
    duration: Option<u64>,
    max_ops: Option<u64>,
    long: bool,
    lease: bool,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what = None;
    let mut quick = false;
    let mut jobs = renofs_bench::runner::default_jobs();
    let mut profile = false;
    let mut out = "BENCH_pr4.json".to_string();
    let mut check = None;
    let mut seeds = None;
    let mut case = None;
    let mut duration = None;
    let mut max_ops = None;
    let mut long = false;
    let mut lease = false;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        match a.as_str() {
            "--quick" => quick = true,
            "--scale" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("quick") => quick = true,
                    Some("paper") => quick = false,
                    _ => usage(),
                }
            }
            "--jobs" => {
                i += 1;
                jobs = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                };
            }
            "--profile" => profile = true,
            "--out" => {
                i += 1;
                out = match args.get(i) {
                    Some(f) => f.clone(),
                    None => usage(),
                };
            }
            "--check" => {
                i += 1;
                check = match args.get(i) {
                    Some(f) => Some(f.clone()),
                    None => usage(),
                };
            }
            "--seeds" => {
                i += 1;
                seeds = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => Some(n),
                    _ => usage(),
                };
            }
            "--case" => {
                i += 1;
                case = match args.get(i) {
                    Some(s) => Some(s.clone()),
                    None => usage(),
                };
            }
            "--duration" => {
                i += 1;
                duration = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => Some(n),
                    _ => usage(),
                };
            }
            "--max-ops" => {
                i += 1;
                max_ops = match args.get(i).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => Some(n),
                    _ => usage(),
                };
            }
            "--long" => long = true,
            "--lease" => lease = true,
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => usage(),
            _ => {
                if what.replace(a.clone()).is_some() {
                    usage();
                }
            }
        }
        i += 1;
    }
    Options {
        what: what.unwrap_or_else(|| "all".to_string()),
        quick,
        jobs,
        profile,
        out,
        check,
        seeds,
        case,
        duration,
        max_ops,
        long,
        lease,
    }
}

/// Dedicated `repro soak` modes: `--seeds N` sweeps seeds `0..N`,
/// `--case SPEC` replays one (possibly shrunk) case, and any of
/// `--duration`/`--max-ops`/`--long` runs the streaming budget mode
/// (fail-fast, heartbeats to stderr, extended table). All exit nonzero
/// when the oracle reports a violation, so CI can gate on a bounded
/// soak run.
fn run_soak_mode(opts: &Options, scale: &Scale) {
    use renofs_bench::experiments::soak;
    if let Some(spec) = &opts.case {
        let case = match soak::SoakCase::parse(spec) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("bad --case: {e}");
                std::process::exit(2);
            }
        };
        let (report, violated) = soak::replay_report(&case);
        print!("{report}");
        if violated {
            std::process::exit(1);
        }
    } else if opts.duration.is_some() || opts.max_ops.is_some() || opts.long {
        let budget = soak::BudgetOpts {
            wall_limit: opts.duration.map(std::time::Duration::from_secs),
            max_ops: opts.max_ops,
            // `--long` alone certifies a fixed seed count; a pure
            // `--duration`/`--max-ops` run is budget-bounded only.
            max_seeds: opts.seeds.unwrap_or(if opts.long {
                soak::LONG_SEEDS
            } else {
                usize::MAX
            }),
            profile: if opts.lease {
                soak::SoakProfile::Lease
            } else if opts.long {
                soak::SoakProfile::Long
            } else {
                soak::SoakProfile::Quick
            },
        };
        let report = soak::soak_budget(scale, &budget);
        print!("{report}");
        if report.violated() {
            std::process::exit(1);
        }
    } else {
        // A bare `--lease` sweeps a default seed range; `--seeds N`
        // overrides it either way.
        let count = opts.seeds.unwrap_or(16);
        let profile = if opts.lease {
            soak::SoakProfile::Lease
        } else {
            soak::SoakProfile::Quick
        };
        let report = soak::soak_profile_with(scale, 0, count, soak::Mutation::None, profile);
        print!("{report}");
        if report.total_violations() > 0 {
            std::process::exit(1);
        }
    }
}

/// Where the lease write-behind section lands.
const LEASE_OUT: &str = "BENCH_pr8.json";

/// Where the sharded N×M fleet sweep lands.
const SHARD_OUT: &str = "BENCH_pr9.json";

/// The `repro shard` subcommand: runs the full N×M fleet sweep, writes
/// `BENCH_pr9.json`, and holds the scaling, fairness, routing and
/// determinism gates on the fresh numbers.
fn run_shard_mode(scale: &Scale) {
    let report = shard::shard(scale);
    if let Err(e) = std::fs::write(SHARD_OUT, report.to_json()) {
        eprintln!("[shard] cannot write {SHARD_OUT}: {e}");
        std::process::exit(1);
    }
    print!("{}", report.summary());
    match report.check() {
        Ok(msg) => eprintln!("[shard] {msg}"),
        Err(msg) => {
            eprintln!("[shard] FAIL: {msg}");
            std::process::exit(1);
        }
    }
    match shard::determinism_probe(scale, &report) {
        Ok(msg) => eprintln!("[shard] {msg}"),
        Err(msg) => {
            eprintln!("[shard] FAIL: {msg}");
            std::process::exit(1);
        }
    }
    eprintln!("[shard] wrote {SHARD_OUT}");
}

fn run_bench_mode(opts: &Options, scale: &Scale, spec: &AndrewSpec) {
    let checking = opts.check.is_some();
    let report = bench::run_bench(scale, spec, opts.jobs, !checking);
    let lease_report = lease::run_lease_section(scale, &report.scale_name);
    match &opts.check {
        Some(path) => {
            let committed = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("[bench] cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            match bench::check_against(&committed, &report) {
                Ok(msg) => eprintln!("[bench] {msg}"),
                Err(msg) => {
                    eprintln!("[bench] FAIL: {msg}");
                    std::process::exit(1);
                }
            }
            // The lease gate holds both the committed BENCH_pr8.json
            // (which must exist, parse, and certify a clean sweep) and
            // the fresh recovery/honesty numbers.
            let committed_lease = match std::fs::read_to_string(LEASE_OUT) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!(
                        "[bench] FAIL: cannot read {LEASE_OUT}: {e} — the lease gate \
                         needs the committed report; regenerate it with `repro bench`"
                    );
                    std::process::exit(1);
                }
            };
            match lease::check_against(&committed_lease, &lease_report) {
                Ok(msg) => eprintln!("[bench] lease: {msg}"),
                Err(msg) => {
                    eprintln!("[bench] FAIL: lease: {msg}");
                    std::process::exit(1);
                }
            }
            // The shard gate holds the committed BENCH_pr9.json (which
            // must exist, parse, and certify the scaling floor) and a
            // fresh run of the two LAN gate cells at `--jobs` 1 and 2.
            let committed_shard = match std::fs::read_to_string(SHARD_OUT) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!(
                        "[bench] FAIL: cannot read {SHARD_OUT}: {e} — the shard gate \
                         needs the committed report; regenerate it with `repro shard`"
                    );
                    std::process::exit(1);
                }
            };
            match shard::check_against(&committed_shard, scale) {
                Ok(msg) => eprintln!("[bench] shard: {msg}"),
                Err(msg) => {
                    eprintln!("[bench] FAIL: shard: {msg}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            if let Err(e) = std::fs::write(&opts.out, report.to_json()) {
                eprintln!("[bench] cannot write {}: {e}", opts.out);
                std::process::exit(1);
            }
            if let Err(e) = std::fs::write(LEASE_OUT, lease_report.to_json()) {
                eprintln!("[bench] cannot write {LEASE_OUT}: {e}");
                std::process::exit(1);
            }
            let shard_report = shard::run_shard_section(scale, &report.scale_name);
            if let Err(e) = std::fs::write(SHARD_OUT, shard_report.to_json()) {
                eprintln!("[bench] cannot write {SHARD_OUT}: {e}");
                std::process::exit(1);
            }
            print!("{}", report.summary());
            print!("{}", lease_report.summary());
            print!("{}", shard_report.summary());
            match lease_report.check() {
                Ok(msg) => eprintln!("[bench] lease: {msg}"),
                Err(msg) => {
                    eprintln!("[bench] FAIL: lease: {msg}");
                    std::process::exit(1);
                }
            }
            match shard_report.check() {
                Ok(msg) => eprintln!("[bench] shard: {msg}"),
                Err(msg) => {
                    eprintln!("[bench] FAIL: shard: {msg}");
                    std::process::exit(1);
                }
            }
            match shard::determinism_probe(scale, &shard_report) {
                Ok(msg) => eprintln!("[bench] shard: {msg}"),
                Err(msg) => {
                    eprintln!("[bench] FAIL: shard: {msg}");
                    std::process::exit(1);
                }
            }
            eprintln!("[bench] wrote {}, {LEASE_OUT} and {SHARD_OUT}", opts.out);
        }
    }
}

fn main() {
    let opts = parse_args();
    let mut scale = if opts.quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    scale.jobs = opts.jobs;
    let spec = if opts.quick {
        AndrewSpec::small()
    } else {
        AndrewSpec::standard()
    };
    let jobs = opts.jobs;

    if opts.profile {
        renofs_sim::profile::set_enabled(true);
    }

    if opts.what == "bench" {
        run_bench_mode(&opts, &scale, &spec);
        if opts.profile {
            eprint!("{}", renofs_sim::profile::report());
        }
        return;
    }

    if opts.what == "shard" {
        run_shard_mode(&scale);
        if opts.profile {
            eprint!("{}", renofs_sim::profile::report());
        }
        return;
    }

    if opts.what == "shard-smoke" {
        match shard::shard_smoke(&scale) {
            Ok(msg) => eprintln!("[shard-smoke] {msg}"),
            Err(msg) => {
                eprintln!("[shard-smoke] FAIL: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    if opts.what == "soak"
        && (opts.seeds.is_some()
            || opts.case.is_some()
            || opts.duration.is_some()
            || opts.max_ops.is_some()
            || opts.long
            || opts.lease)
    {
        run_soak_mode(&opts, &scale);
        if opts.profile {
            eprint!("{}", renofs_sim::profile::report());
        }
        return;
    }

    // The dispatch table: every experiment renders to a string so the
    // timing line can bracket exactly the compute, not the printing.
    let experiments = bench::experiment_list(&scale, &spec, jobs);

    if opts.what != "all" && !experiments.iter().any(|(n, _)| *n == opts.what) {
        eprintln!("unknown experiment: {}", opts.what);
        usage();
    }

    let total = Instant::now();
    let mut ran = 0;
    for (name, exp) in &experiments {
        if opts.what != "all" && *name != opts.what {
            continue;
        }
        let t0 = Instant::now();
        let output = exp();
        eprintln!(
            "[repro] {name}: {:.2}s (jobs={jobs})",
            t0.elapsed().as_secs_f64()
        );
        println!("{output}\n");
        ran += 1;
    }
    if ran > 1 {
        eprintln!(
            "[repro] total: {:.2}s (jobs={jobs})",
            total.elapsed().as_secs_f64()
        );
    }
    if opts.profile {
        eprint!("{}", renofs_sim::profile::report());
    }
}
