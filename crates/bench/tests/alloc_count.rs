//! Steady-state allocation discipline, measured with the counting
//! allocator: once buffer pools and scratch vectors are warm, running
//! more simulated traffic must allocate (almost) nothing per RPC.
//!
//! Method: run the same LAN read-RPC workload twice at different
//! durations on one thread, so the second world inherits warm
//! thread-local mbuf pools. The *marginal* allocations of the extra
//! simulated seconds — (allocs of long run) − (allocs of short run) —
//! divide over the extra RPCs; world setup and pool fills cancel out.
//!
//! Needs `--features profile` (the counting allocator lives behind the
//! same feature as the profiler): `cargo test -p renofs-bench
//! --features profile --test alloc_count`.
#![cfg(feature = "profile")]

use std::sync::{Mutex, MutexGuard};

use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_bench::experiments::world_for;
use renofs_netsim::topology::presets::Background;
use renofs_sim::{profile, SimDuration};
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig};

#[global_allocator]
static ALLOC: profile::CountingAlloc = profile::CountingAlloc;

/// The allocation counter is process-wide, so tests that run on
/// parallel test threads would count each other's allocations; each
/// test holds this lock for its whole measurement.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counter is still valid.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs a pure-read LAN workload for `secs` simulated seconds and
/// returns (heap allocations during the run, RPCs completed).
fn run_reads(secs: u64) -> (u64, u64) {
    let mut world = world_for(
        TopologyKind::SameLan,
        TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        },
        Background::off_peak(),
        0xA11C,
    );
    let mix = LoadMix {
        lookup: 0,
        read: 100,
        getattr: 0,
        setattr: 0,
        write: 0,
    };
    let mut cfg = NhfsstoneConfig::paper(20.0, mix);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.warmup = SimDuration::from_secs(2);
    cfg.nfiles = 20;
    cfg.seed = 7;
    let a0 = profile::allocs();
    let report = nhfsstone::run(&mut world, &cfg);
    let allocs = profile::allocs() - a0;
    let rpcs = report.read_ms.count() as u64;
    assert!(rpcs > 50, "workload must complete reads, got {rpcs}");
    (allocs, rpcs)
}

#[test]
fn steady_state_lan_read_rpcs_allocate_next_to_nothing() {
    let _serial = serial();
    // First run warms the thread-local cluster/small-mbuf pools and
    // takes the one-time lazy-init allocations.
    let (_, _) = run_reads(10);
    let (a_short, r_short) = run_reads(20);
    let (a_long, r_long) = run_reads(60);
    let extra_rpcs = r_long - r_short;
    assert!(
        extra_rpcs > 200,
        "need a meaningful RPC delta: {extra_rpcs}"
    );
    let marginal = a_long.saturating_sub(a_short) as f64 / extra_rpcs as f64;
    // An 8 KB read RPC moves ~6 fragments through two NICs, the link
    // layer, reassembly, and the RPC layer. With the pools, scratch
    // buffers, and inline segment lists in place the whole path should
    // recycle memory; allow a little slack for histogram growth and
    // hash-map resizes, which amortize to well under one allocation
    // per RPC.
    assert!(
        marginal < 1.0,
        "steady-state LAN read RPCs allocate too much: {marginal:.2} allocs/RPC \
         ({} allocs over {} extra RPCs)",
        a_long.saturating_sub(a_short),
        extra_rpcs
    );
}

/// Runs `mix` with 16 clients against a 4-daemon nfsd pool for `secs`
/// simulated seconds and returns (allocations, RPCs completed).
fn run_crowd_16(secs: u64, mix: LoadMix) -> (u64, u64) {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = TopologyKind::SameLan;
    cfg.transport = TransportKind::UdpDynamic {
        timeo: SimDuration::from_secs(1),
    };
    cfg.background = Background::quiet();
    cfg.clients = 16;
    cfg.nfsds = 4;
    cfg.seed = 0xA11C;
    cfg.server.dup_cache = true;
    let mut world = World::new(cfg);
    let mut wcfg = NhfsstoneConfig::paper(4.0, mix);
    wcfg.procs = 2;
    wcfg.duration = SimDuration::from_secs(secs);
    wcfg.warmup = SimDuration::from_secs(2);
    wcfg.nfiles = 20;
    wcfg.seed = 7;
    let a0 = profile::allocs();
    let reports = nhfsstone::run_crowd(&mut world, &wcfg);
    let allocs = profile::allocs() - a0;
    let rpcs: u64 = reports.iter().map(|r| r.ops).sum();
    assert!(rpcs > 200, "crowd must complete ops, got {rpcs}");
    (allocs, rpcs)
}

/// The marginal allocations per RPC of the extra simulated seconds,
/// long run minus short run (same method as the single-client test).
fn marginal_crowd(mix: LoadMix) -> f64 {
    let (_, _) = run_crowd_16(6, mix);
    let (a_short, r_short) = run_crowd_16(10, mix);
    let (a_long, r_long) = run_crowd_16(30, mix);
    let extra_rpcs = r_long - r_short;
    assert!(
        extra_rpcs > 500,
        "need a meaningful RPC delta: {extra_rpcs}"
    );
    let marginal = a_long.saturating_sub(a_short) as f64 / extra_rpcs as f64;
    eprintln!("marginal allocs/RPC at 16 clients: {marginal:.3}");
    marginal
}

#[test]
fn steady_state_read_rpcs_at_16_clients_allocate_next_to_nothing() {
    let _serial = serial();
    // The single-client budget, re-enforced at 16 clients sharing one
    // nfsd pool: per-client transports, the request queue, and 32
    // workload threads all dropping reply chains back into the mbuf
    // pools. This catches producer-thread stranding — a workload thread
    // that only ever *frees* clusters must spill them to the pools'
    // shared tier, or the simulation thread re-allocates fresh for as
    // long as (threads × local capacity) takes to fill.
    let mix = LoadMix {
        lookup: 0,
        read: 100,
        getattr: 0,
        setattr: 0,
        write: 0,
    };
    let marginal = marginal_crowd(mix);
    assert!(
        marginal < 1.0,
        "steady-state read RPCs at 16 clients allocate too much: \
         {marginal:.2} allocs/RPC"
    );
}

#[test]
fn steady_state_crowd_mix_at_16_clients_stays_within_its_op_costs() {
    let _serial = serial();
    // The full crowd mix carries allocations the ops themselves own,
    // identical at N=1 and so not scale-out costs: every lookup decodes
    // its name into a fresh `String` on the server, and every setattr
    // (non-idempotent) clones its reply into the duplicate-request
    // cache. With 40% lookups and 10% setattrs that budgets ~1 extra
    // alloc/RPC on top of the read-path bound above; hold the line there
    // so the transport/pool side cannot silently regress underneath.
    let marginal = marginal_crowd(LoadMix::crowd());
    assert!(
        marginal < 2.0,
        "crowd-mix RPCs at 16 clients allocate too much: \
         {marginal:.2} allocs/RPC"
    );
}
