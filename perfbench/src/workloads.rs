//! The three workloads, each run as a fixed-size batch.
//!
//! A batch builds its world(s), runs them to completion and returns the
//! host cost of the measured phase, the simulated results, and a digest
//! of those results. A traced batch also returns the spans, captured
//! messages and counters the per-layer replays need.

use std::sync::mpsc::channel;
use std::time::Instant;

use renofs::proto::NfsProc;
use renofs::{MountOptions, TopologyKind, World, WorldConfig};
use renofs_bench::experiments::soak::{
    self, derive_world, run_case_opts, Mutation, RunOpts, SoakCase, WindowKind, WindowSpec,
};
use renofs_bench::runner::point_seed;
use renofs_netsim::FaultPlan;
use renofs_oracle::Obs;
use renofs_sim::queue::QueueOp;
use renofs_sim::{Rng, SimDuration, SimTime};
use renofs_workload::nhfsstone::{
    generator_proc, preload_subtree, LoadMix, NhfsstoneConfig, OpSample,
};

use crate::procstat::{self, Usage};
use crate::stats::{median, mix, Fnv};
use crate::tracesys::{Captured, Span, TraceSys};

/// RPC messages whose bytes a traced batch keeps for the layer replays.
const CAPTURE_BUDGET: usize = 2048;
/// Set-ups per batch; a batch reports their median. Set-up takes a few
/// milliseconds, so one sample would mostly measure cache state.
const SETUP_REPS: usize = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LanRead,
    LanCrowd,
    ChaosSoak,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LanRead, Workload::LanCrowd, Workload::ChaosSoak];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LanRead => "lan-read",
            Workload::LanCrowd => "lan-crowd",
            Workload::ChaosSoak => "chaos-soak",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one batch does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's pinned sizes.
    Full,
    /// A few hundred operations, for the self-tests.
    Tiny,
}

/// The shape of an Nhfsstone workload on one LAN.
#[derive(Clone, Debug)]
pub struct LanSpec {
    pub clients: usize,
    pub procs: usize,
    /// Offered load per client machine, ops per virtual second.
    pub rate_per_client: f64,
    pub mix: LoadMix,
    pub nfsds: usize,
    pub dup_cache: bool,
    pub measured: SimDuration,
}

impl LanSpec {
    pub fn for_workload(w: Workload, size: Size) -> LanSpec {
        let tiny = size == Size::Tiny;
        match w {
            Workload::LanRead => LanSpec {
                clients: 1,
                procs: 4,
                rate_per_client: 20.0,
                mix: LoadMix::read_heavy(),
                nfsds: 0,
                dup_cache: false,
                measured: SimDuration::from_secs(if tiny { 20 } else { 3000 }),
            },
            Workload::LanCrowd => LanSpec {
                clients: if tiny { 4 } else { 64 },
                procs: 2,
                rate_per_client: 4.0,
                mix: LoadMix::crowd(),
                nfsds: 4,
                dup_cache: true,
                measured: SimDuration::from_secs(if tiny { 20 } else { 600 }),
            },
            Workload::ChaosSoak => unreachable!("chaos-soak is not an Nhfsstone workload"),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{} client(s) x {} procs, {} op/s per client, {} s measured + 10 s warm-up (virtual), nfsds={}, dup_cache={}",
            self.clients,
            self.procs,
            self.rate_per_client,
            self.measured.as_secs_f64(),
            self.nfsds,
            self.dup_cache
        )
    }

    pub fn world_config(&self, seed: u64) -> WorldConfig {
        let mut cfg = WorldConfig::baseline();
        cfg.clients = self.clients;
        cfg.nfsds = self.nfsds;
        cfg.server.dup_cache = self.dup_cache;
        cfg.sim_threads = 1;
        cfg.seed = mix(seed, 1);
        cfg
    }

    pub fn load(&self, seed: u64) -> NhfsstoneConfig {
        let mut cfg = NhfsstoneConfig::paper(self.rate_per_client, self.mix);
        cfg.procs = self.procs;
        cfg.duration = self.measured;
        cfg.warmup = SimDuration::from_secs(10);
        cfg.seed = mix(seed, 2);
        cfg
    }
}

/// The soak world seeds of one batch: a fixed range, run in an order
/// the benchmark seed shuffles.
pub fn soak_seeds(size: Size, seed: u64) -> Vec<u64> {
    let count = if size == Size::Tiny { 4 } else { 160 };
    let mut seeds: Vec<u64> = (0..count).collect();
    let mut rng = Rng::new(mix(seed, 3));
    for i in (1..seeds.len()).rev() {
        seeds.swap(i, rng.index(i + 1));
    }
    seeds
}

/// Simulated results that are not part of the digest's identity check
/// but are reported beside it.
#[derive(Clone, Debug, Default)]
pub struct SimResults {
    /// Measured-window RTTs in ns, sorted (Nhfsstone workloads only).
    pub rtts_ns: Vec<u64>,
    /// UDP retransmissions (Nhfsstone workloads only).
    pub retransmits: Option<u64>,
}

/// What a traced batch adds.
#[derive(Default)]
pub struct TraceData {
    pub spans: Vec<Span>,
    pub captured: Vec<Captured>,
    pub queue_ops: Vec<QueueOp>,
    /// The main thread, which runs the event loop: over `World::run`, or
    /// for chaos-soak over `run_case_opts`, which also builds and checks
    /// each world there.
    pub engine: Usage,
    /// Workload threads, as each read its own counters at its end.
    pub workload: Usage,
    /// Whole process over the measured phase.
    pub process: Usage,
    pub world_run_wall_s: f64,
    pub cluster_fresh: u64,
    pub cluster_reused: u64,
    pub events: u64,
    pub peak_depth: usize,
    pub nfsd_queued: u64,
    pub nfsd_queue_p95_ms: f64,
    pub dup_hits: u64,
    pub frags_sent: u64,
    pub dgrams_sent: u64,
    pub frags_dropped: u64,
    pub reasm_failures: u64,
    pub checksum_drops: u64,
    pub udp_calls: u64,
    pub udp_completed: u64,
    /// Soak only: each case's client and server counts and observation log.
    pub oracle_logs: Vec<(usize, usize, Vec<Obs>)>,
    pub observations: u64,
    pub peak_retained: usize,
    /// Topologies the workload's traffic crossed.
    pub topologies: Vec<TopologyKind>,
}

/// One batch's outcome.
pub struct Batch {
    pub setup_s: f64,
    pub wall_s: f64,
    pub usage: Usage,
    pub attempted: u64,
    pub ops: u64,
    /// Failed operations: oracle violations and calls that never completed.
    pub failed: u64,
    pub digest: u64,
    pub summary: String,
    pub sim: SimResults,
    pub notes: Vec<String>,
    /// Soak worlds the oracle found violations in.
    pub violating_seeds: Vec<u64>,
    pub trace: Option<TraceData>,
}

pub fn run_batch(w: Workload, size: Size, seed: u64, traced: bool) -> Batch {
    match w {
        Workload::ChaosSoak => soak_batch(&soak_seeds(size, seed), traced),
        _ => lan_batch(&LanSpec::for_workload(w, size), seed, traced),
    }
}

/// The per-client decorrelation `nhfsstone::run_crowd` applies to its
/// generator streams.
fn crowd_salt(client: usize) -> u64 {
    (client as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

#[derive(Default)]
struct ThreadOut {
    samples: Vec<OpSample>,
    spans: Vec<Span>,
    captured: Vec<Captured>,
    usage: Usage,
    cluster_fresh: u64,
    cluster_reused: u64,
}

fn lan_batch(spec: &LanSpec, seed: u64, traced: bool) -> Batch {
    let load = spec.load(seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let (mut world, dir, files) = loop {
        let t_setup = Instant::now();
        let mut world = World::new(spec.world_config(seed));
        let (dir, files) = preload_subtree(&mut world, &load);
        setups.push(t_setup.elapsed().as_secs_f64());
        if setups.len() == SETUP_REPS {
            break (world, dir, files);
        }
    };
    let setup_s = median(&setups);

    if traced {
        world.start_queue_trace();
    }
    let threads = spec.clients * spec.procs;
    let capture_each = (CAPTURE_BUDGET / threads).max(1);
    let process0 = procstat::process();
    let engine0 = procstat::thread();
    let pool0 = renofs_mbuf::pool::stats();
    let epoch = Instant::now();
    let measure_from = world.now() + load.warmup;
    let end = measure_from + load.duration;
    let (tx, rx) = channel();
    for ci in 0..spec.clients {
        for p in 0..spec.procs {
            let mut cfg = load.clone();
            cfg.seed ^= crowd_salt(ci);
            let files = files.clone();
            let tx = tx.clone();
            world.spawn_on(ci, move |sys| {
                let out = if traced {
                    let mut ts = TraceSys::new(sys, ci, epoch, capture_each);
                    let samples =
                        generator_proc(&mut ts, p, &cfg, dir, &files, measure_from, end, None);
                    let (spans, captured) = ts.finish();
                    let pool = renofs_mbuf::pool::stats();
                    ThreadOut {
                        samples,
                        spans,
                        captured,
                        usage: procstat::thread(),
                        cluster_fresh: pool.fresh,
                        cluster_reused: pool.reused,
                    }
                } else {
                    ThreadOut {
                        samples: generator_proc(sys, p, &cfg, dir, &files, measure_from, end, None),
                        ..ThreadOut::default()
                    }
                };
                let _ = tx.send(out);
            });
        }
    }
    drop(tx);
    let run_start = Instant::now();
    world.run();
    let world_run_wall_s = run_start.elapsed().as_secs_f64();
    let engine = procstat::thread().since(&engine0);
    let pool1 = renofs_mbuf::pool::stats();
    let mut outs: Vec<ThreadOut> = rx.iter().collect();
    let wall_s = epoch.elapsed().as_secs_f64();
    let usage = procstat::process().since(&process0);

    let mut samples: Vec<OpSample> = outs.iter_mut().flat_map(|o| o.samples.drain(..)).collect();
    samples.sort_by_key(|s| (s.at, s.proc.to_wire(), s.rtt));
    let mut sample_hash = Fnv::default();
    let mut hist = [0u64; 40];
    for s in &samples {
        sample_hash.u64(s.proc.to_wire() as u64);
        sample_hash.u64(s.at.as_nanos());
        sample_hash.u64(s.rtt.as_nanos());
        let us = s.rtt.as_micros();
        hist[(64 - us.leading_zeros() as usize).min(39)] += 1;
    }
    let (mut calls, mut completed, mut retransmits) = (0, 0, 0);
    for ci in 0..world.client_count() {
        let u = world
            .udp_stats_of(ci)
            .expect("Nhfsstone workloads mount over UDP");
        calls += u.calls;
        completed += u.completed;
        retransmits += u.retransmits;
    }
    let queue_ops = if traced {
        world.take_queue_trace()
    } else {
        Vec::new()
    };
    let stats = world.server().stats().clone();
    let served: Vec<String> = (0..20u32)
        .filter_map(|wire| {
            let n = stats.calls[wire as usize];
            (n > 0).then(|| {
                let name = NfsProc::from_wire(wire)
                    .map_or(format!("proc{wire}"), |p| format!("{p:?}").to_lowercase());
                format!("{name}:{n}")
            })
        })
        .collect();
    let hist_end = hist.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    let (events, peak_depth) = world.queue_stats();
    let summary = format!(
        "ops={} rtt_log2us_hist={:?} retransmits={} calls={} completed={} served=[{}] dup_hits={} events={} samples_fnv={:016x}",
        samples.len(),
        &hist[..hist_end],
        retransmits,
        calls,
        completed,
        served.join(","),
        stats.dup_hits,
        events,
        sample_hash.0
    );
    let mut digest = Fnv::default();
    digest.bytes(summary.as_bytes());

    let mut rtts_ns: Vec<u64> = samples.iter().map(|s| s.rtt.as_nanos()).collect();
    rtts_ns.sort_unstable();
    // A call that never completed failed (a hard mount never gives up,
    // so this is 0 unless the simulation lost a waiter).
    let failed = calls.saturating_sub(completed);
    let mut notes = Vec::new();
    if failed > 0 {
        notes.push(format!(
            "{failed} RPCs never completed ({calls} calls, {completed} completed)"
        ));
    }

    let trace = traced.then(|| {
        let net = world.net_stats();
        let nfsd = world.nfsd_stats();
        let mut t = TraceData {
            queue_ops,
            engine,
            process: usage,
            world_run_wall_s,
            cluster_fresh: pool1.fresh - pool0.fresh,
            cluster_reused: pool1.reused - pool0.reused,
            events,
            peak_depth,
            nfsd_queued: nfsd.queued,
            nfsd_queue_p95_ms: nfsd.queue_delay_quantile(0.95),
            dup_hits: stats.dup_hits,
            frags_sent: net.frags_sent,
            dgrams_sent: net.datagrams_sent,
            frags_dropped: net.frags_dropped,
            reasm_failures: net.reasm_failures,
            checksum_drops: net.checksum_drops,
            udp_calls: calls,
            udp_completed: completed,
            topologies: vec![TopologyKind::SameLan],
            ..TraceData::default()
        };
        for o in outs {
            t.workload.add(&o.usage);
            t.cluster_fresh += o.cluster_fresh;
            t.cluster_reused += o.cluster_reused;
            t.spans.extend(o.spans);
            t.captured.extend(o.captured);
        }
        t
    });

    Batch {
        setup_s,
        wall_s,
        usage,
        attempted: calls,
        ops: completed,
        failed,
        digest: digest.0,
        summary,
        sim: SimResults {
            rtts_ns,
            retransmits: Some(retransmits),
        },
        notes,
        violating_seeds: Vec::new(),
        trace,
    }
}

/// `WindowSpec::add_to`, which the soak harness keeps private.
fn add_window(plan: FaultPlan, w: &WindowSpec) -> FaultPlan {
    let at = SimTime::from_millis(w.at_ms);
    let dur = SimDuration::from_millis(w.dur_ms);
    let delay = SimDuration::from_millis(w.delay_ms);
    match w.kind {
        WindowKind::Partition => plan.partition(at, dur),
        WindowKind::Loss => plan.loss_burst(at, w.prob, dur),
        WindowKind::Dup => plan.duplicate(at, w.prob, dur),
        WindowKind::Reorder => plan.reorder(at, w.prob, delay, dur),
        WindowKind::DelaySpike => plan.delay_spike(at, delay, dur),
        WindowKind::Crash => plan.server_crash(at, dur),
        WindowKind::Corrupt => plan.corrupt(at, w.prob, dur),
    }
}

/// The world a full soak case builds, as `run_case_opts` configures it.
fn soak_world_config(seed: u64) -> WorldConfig {
    let d = derive_world(seed);
    let mut cfg = WorldConfig::baseline();
    cfg.topology = d.topo.1;
    cfg.transport = d.transport.1.clone();
    cfg.clients = d.clients;
    cfg.nfsds = d.nfsds;
    cfg.servers = d.servers;
    cfg.server.dup_cache = true;
    cfg.faults = d.windows.iter().fold(FaultPlan::new(), add_window);
    cfg.mount = if d.soft {
        MountOptions::soft(3)
    } else {
        MountOptions::hard()
    };
    cfg.sim_threads = 1;
    cfg.seed = point_seed(0x50AC, seed as usize, 1);
    cfg
}

fn soak_batch(seeds: &[u64], traced: bool) -> Batch {
    // Set-up: building every world the batch runs (the soak harness
    // builds its own copies inside the measured phase).
    let configs: Vec<WorldConfig> = seeds.iter().map(|&s| soak_world_config(s)).collect();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t_setup = Instant::now();
            for cfg in &configs {
                drop(World::new(cfg.clone()));
            }
            t_setup.elapsed().as_secs_f64()
        })
        .collect();
    let setup_s = median(&setups);

    let opts = RunOpts {
        capture: traced,
        ..RunOpts::default()
    };
    let process0 = procstat::process();
    let pool0 = renofs_mbuf::pool::stats();
    let mut engine = Usage::default();
    let epoch = Instant::now();
    let mut rows: Vec<(u64, String, Vec<String>)> = Vec::with_capacity(seeds.len());
    let mut trace = TraceData::default();
    let (mut ops, mut failed) = (0u64, 0u64);
    for &s in seeds {
        let case = SoakCase::from_seed(s);
        let e0 = procstat::thread();
        let out = run_case_opts(&case, Mutation::None, &opts);
        engine.add(&procstat::thread().since(&e0));
        ops += out.observations as u64;
        failed += out.violations.len() as u64;
        let verdict = format!(
            "{s}:v{}:obs{}:ok{}:taint{}:corrupt{}:cksum{}:garbage{}:dup{}:retained{}:retired{}",
            out.violations.len(),
            out.observations,
            out.ok_ops,
            out.taints,
            out.corrupted_frames,
            out.checksum_drops,
            out.garbage,
            out.dup_hits,
            out.peak_retained,
            out.retired
        );
        let violations = out
            .violations
            .iter()
            .map(|v| format!("soak case {case} violates: {v}"))
            .collect();
        rows.push((s, verdict, violations));
        if traced {
            trace.observations += out.observations as u64;
            trace.peak_retained = trace.peak_retained.max(out.peak_retained);
            trace.dup_hits += out.dup_hits;
            trace.checksum_drops += out.checksum_drops;
            let d = derive_world(s);
            if !trace.topologies.contains(&d.topo.1) {
                trace.topologies.push(d.topo.1);
            }
            if let Some(log) = out.full_log {
                trace.oracle_logs.push((case.clients, d.servers, log));
            }
        }
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let usage = procstat::process().since(&process0);
    let pool1 = renofs_mbuf::pool::stats();

    rows.sort_by_key(|r| r.0);
    let summary = format!(
        "worlds={} observations={ops} violations={failed} verdicts_fnv={:016x}",
        rows.len(),
        {
            let mut h = Fnv::default();
            for (_, v, _) in &rows {
                h.bytes(v.as_bytes());
                h.bytes(b"\n");
            }
            h.0
        }
    );
    let mut digest = Fnv::default();
    digest.bytes(summary.as_bytes());
    let violating_seeds = rows
        .iter()
        .filter(|r| !r.2.is_empty())
        .map(|r| r.0)
        .collect();
    let notes = rows.into_iter().flat_map(|r| r.2).collect();

    let trace = traced.then(|| {
        trace.engine = engine;
        trace.process = usage;
        // The harness gives no hook into its workload threads, but every
        // thread of a soak world other than the main one is a workload
        // thread: their share is the process's minus the main thread's.
        trace.workload = Usage {
            user_s: usage.cpu_s() - engine.cpu_s(),
            sys_s: 0.0,
            voluntary: usage.voluntary.saturating_sub(engine.voluntary),
            involuntary: usage.involuntary.saturating_sub(engine.involuntary),
        };
        trace.world_run_wall_s = wall_s;
        trace.cluster_fresh = pool1.fresh - pool0.fresh;
        trace.cluster_reused = pool1.reused - pool0.reused;
        trace
    });

    Batch {
        setup_s,
        wall_s,
        usage,
        attempted: ops,
        ops,
        failed,
        digest: digest.0,
        summary,
        sim: SimResults::default(),
        notes,
        violating_seeds,
        trace,
    }
}

/// The minimal reproduction of a violating soak world.
pub fn shrunk_case(seed: u64) -> SoakCase {
    soak::shrink(&SoakCase::from_seed(seed), Mutation::None)
}
