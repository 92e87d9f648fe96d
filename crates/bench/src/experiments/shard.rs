//! The `repro shard` sweep: N-client × M-server sharded fleets.
//!
//! PR 8 gave one server a crowd; this experiment gives the crowd a
//! *fleet*. Each server machine exports its own subtree behind its own
//! nfsd pool, duplicate-request cache and boot epoch, and every client
//! pins each of its generator processes to a home shard (`(client +
//! proc) % servers`), talking to it over the per-(client, server)
//! transport and XID stream the multi-server world provides. The sweep
//! varies the client count, the fleet width and the transport over the
//! paper topologies and reports per cell:
//!
//! * **agg op/s** — aggregate achieved throughput over all shards (the
//!   number the M=4 ≥ 2× M=1 LAN gate holds: once one server's nfsd
//!   pool saturates, the only way up is more servers);
//! * **rex/op** — transport retransmissions per completed op, summed
//!   over every (client, server) pair;
//! * **dup%** — fleet-wide duplicate-cache hits per 100 served RPCs;
//! * **fair** — Jain's fairness index over per-shard achieved rates
//!   (`(Σx)²/(n·Σx²)`: 1.0 = the namespace sharded evenly);
//! * **qp95 ms / queued** — the *worst* shard's p95 nfsd queueing delay
//!   and how many requests across the fleet waited for a daemon;
//! * **hash** — an FNV-1a digest of everything the cell computed, which
//!   must be byte-identical at any `--jobs` level.
//!
//! The mix is metadata-only (lookup/getattr plus non-idempotent
//! SETATTRs) so the shared LAN segment stays below saturation and the
//! per-server nfsd pools — [`SHARD_NFSDS`] daemons each, deliberately
//! starved — are the bottleneck sharding relieves. The 56 Kbps rows are
//! the control: there the *trunk* is the bottleneck and a wider fleet
//! buys nothing, exactly as the paper's slow-link sections predict.
//!
//! Results land in `BENCH_pr9.json`; `repro bench --check` re-runs the
//! two LAN gate cells fresh (at `--jobs` 1 and 2, comparing state
//! hashes) and holds both the committed and the fresh scaling ratio.

use std::fmt;

use renofs::{TopologyKind, TransportKind, World, WorldConfig};
use renofs_netsim::topology::presets::Background;
use renofs_oracle::fnv1a;
use renofs_sim::SimDuration;
use renofs_workload::nhfsstone::{self, LoadMix, NhfsstoneConfig, NhfsstoneReport};

use crate::bench::EnvMeta;
use crate::fmt::table;
use crate::runner::{point_seed, run_jobs, workload_seed};
use crate::Scale;

/// Daemon-pool width *per server*. Two daemons saturate early, so the
/// single-server baseline hits its ceiling well below the offered load
/// and fleet scaling is measurable instead of hidden behind idle pools.
pub const SHARD_NFSDS: usize = 2;

/// Per-client offered rate on LAN-class topologies (ops/sec). With the
/// gate's client count this offers several times one server's capacity
/// while keeping the metadata-sized packets below Ethernet saturation.
pub const SHARD_RATE_LAN: f64 = 12.0;

/// Per-client offered rate on the 56 Kbps serial path: enough that the
/// shared trunk itself saturates, so the control rows show fleet width
/// buying nothing when the wire, not the nfsd pool, is the bottleneck.
pub const SHARD_RATE_SLOW: f64 = 1.5;

/// Client count of the two LAN cells the scaling gate compares.
pub const GATE_CLIENTS: usize = 256;

/// Required aggregate-op/s ratio of the M=4 LAN cell over M=1.
pub const SHARD_SCALING_FLOOR: f64 = 2.0;

/// Transport label of the gate cells.
const GATE_TRANSPORT: &str = "UDP rto=A+4D";

/// Seed base of the shard sweep (worlds and workloads derive from it
/// via the canonical helpers, so cells are position-seeded).
const SHARD_BASE: u64 = 0x54A8D;

/// The metadata-only crowd mix: no bulk reads, so the shared segment
/// carries small packets and the nfsd pools are the contended resource.
/// The SETATTR slice keeps the per-server dup caches honest under
/// saturation retransmits.
fn shard_mix() -> LoadMix {
    LoadMix {
        lookup: 45,
        read: 0,
        getattr: 40,
        setattr: 15,
        write: 0,
    }
}

/// One cell of the N×M matrix, as pure data for the parallel runner.
#[derive(Clone)]
struct Cell {
    topo_label: &'static str,
    topo: TopologyKind,
    transport_label: &'static str,
    transport: TransportKind,
    clients: usize,
    servers: usize,
    rate_per_client: f64,
    idx: usize,
}

/// One measured row.
#[derive(Clone, Debug)]
pub struct ShardRow {
    /// Topology label.
    pub topo: String,
    /// Transport label.
    pub transport: String,
    /// Client machines in the world.
    pub clients: usize,
    /// Server machines in the fleet.
    pub servers: usize,
    /// Aggregate achieved throughput over all shards (ops/sec).
    pub agg_ops_per_sec: f64,
    /// Per-shard achieved rates, in server order.
    pub shard_rates: Vec<f64>,
    /// Jain's fairness index over the per-shard rates.
    pub fairness: f64,
    /// Transport retransmissions per completed op, all (client, server)
    /// pairs summed.
    pub retrans_per_op: f64,
    /// Fleet-wide duplicate-cache hits per 100 served RPCs.
    pub dup_hit_pct: f64,
    /// p95 nfsd queueing delay per server (ms), in server order.
    pub queue_p95_ms: Vec<f64>,
    /// Requests across the fleet that waited for a daemon.
    pub queued: u64,
    /// FNV-1a digest of the cell's complete result (samples,
    /// counters, final clock): the `--jobs` determinism witness.
    pub state_hash: u64,
}

impl ShardRow {
    /// The worst shard's p95 queueing delay.
    pub fn queue_p95_worst_ms(&self) -> f64 {
        self.queue_p95_ms.iter().cloned().fold(0.0, f64::max)
    }
}

/// The LAN scaling gate, derived from a report's rows.
#[derive(Clone, Copy, Debug)]
pub struct ShardGate {
    /// Client count of the compared cells.
    pub clients: usize,
    /// M=1 aggregate throughput (ops/sec).
    pub m1_ops_per_sec: f64,
    /// M=4 aggregate throughput (ops/sec).
    pub m4_ops_per_sec: f64,
}

impl ShardGate {
    /// The scaling ratio the gate holds.
    pub fn ratio(&self) -> f64 {
        self.m4_ops_per_sec / self.m1_ops_per_sec.max(1e-9)
    }
}

/// The experiment result; serialized to `BENCH_pr9.json`.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Machine and toolchain the numbers were taken on.
    pub env: EnvMeta,
    /// All rows, in matrix order.
    pub rows: Vec<ShardRow>,
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Shard: N-client × M-server fleets ({SHARD_NFSDS} nfsds per server, \
             metadata crowd mix; qp95 is the worst shard's)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.topo.clone(),
                    r.transport.clone(),
                    format!("{}", r.clients),
                    format!("{}", r.servers),
                    format!("{:.1}", r.agg_ops_per_sec),
                    format!("{:.2}", r.retrans_per_op),
                    format!("{:.1}", r.dup_hit_pct),
                    format!("{:.3}", r.fairness),
                    format!("{:.1}", r.queue_p95_worst_ms()),
                    format!("{}", r.queued),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            table(
                &[
                    "config",
                    "transport",
                    "N",
                    "M",
                    "agg op/s",
                    "rex/op",
                    "dup%",
                    "fair",
                    "qp95 ms",
                    "queued"
                ],
                &rows
            )
        )
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over per-shard rates.
fn jain(rates: &[f64]) -> f64 {
    let n = rates.len() as f64;
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return 0.0;
    }
    (sum * sum) / (n * sq)
}

/// Measurement window per cell: bigger worlds get shorter windows for a
/// comparable wall-clock budget.
fn shard_durations(scale: &Scale, clients: usize) -> (SimDuration, SimDuration) {
    let quick = scale.duration < SimDuration::from_secs(5 * 60);
    let secs = match (quick, clients >= 512) {
        (true, true) => 1,
        (true, false) => 2,
        (false, true) => 4,
        (false, false) => 8,
    };
    (SimDuration::from_secs(secs), SimDuration::from_secs(1))
}

/// Digest of everything one cell computed: per-shard sample streams,
/// every (client, server) transport's retransmit counter, per-server
/// op and dup-cache counters, fleet nfsd accounting and the final
/// virtual clock. Two runs that agree here did the same simulation.
fn state_hash(world: &World, reports: &[NhfsstoneReport]) -> u64 {
    let mut bytes = Vec::with_capacity(64 + reports.len() * 32);
    let push = |v: u64, bytes: &mut Vec<u8>| bytes.extend_from_slice(&v.to_le_bytes());
    push(world.now().as_nanos(), &mut bytes);
    for r in reports {
        push(r.ops, &mut bytes);
        push(r.achieved_rate.to_bits(), &mut bytes);
        push(r.samples.len() as u64, &mut bytes);
        for s in &r.samples {
            push(s.rtt.as_nanos(), &mut bytes);
        }
    }
    for ci in 0..world.client_count() {
        for sj in 0..world.server_count() {
            let rex = world
                .udp_stats_to(ci, sj)
                .map(|s| s.retransmits)
                .or_else(|| world.tcp_stats_to(ci, sj).map(|s| s.retransmits))
                .unwrap_or(0);
            push(rex, &mut bytes);
        }
    }
    for sj in 0..world.server_count() {
        let stats = world.server_of(sj).stats();
        push(stats.total(), &mut bytes);
        push(stats.dup_hits, &mut bytes);
        push(world.nfsd_stats_of(sj).queued, &mut bytes);
    }
    fnv1a(&bytes)
}

/// Runs one cell: an N-client × M-server world, every client's
/// generator processes pinned round-robin over the shards.
fn run_cell(cell: &Cell, duration: SimDuration, warmup: SimDuration, nfiles: usize) -> ShardRow {
    let mut cfg = WorldConfig::baseline();
    cfg.topology = cell.topo;
    cfg.transport = cell.transport.clone();
    cfg.background = Background::quiet();
    cfg.clients = cell.clients;
    cfg.servers = cell.servers;
    cfg.nfsds = SHARD_NFSDS;
    cfg.server.dup_cache = true;
    cfg.seed = point_seed(SHARD_BASE, cell.idx, 0);
    let mut world = World::new(cfg);
    let mut ncfg = NhfsstoneConfig::paper(cell.rate_per_client, shard_mix());
    ncfg.procs = 2;
    ncfg.duration = duration;
    ncfg.warmup = warmup;
    ncfg.nfiles = nfiles;
    // Metadata-only mix: no read payloads, so skip preloading file data.
    ncfg.preload_bytes = 0;
    ncfg.seed = workload_seed(SHARD_BASE, cell.idx);
    let reports = nhfsstone::run_crowd_sharded(&mut world, &ncfg);
    let hash = state_hash(&world, &reports);
    let total_ops: u64 = reports.iter().map(|r| r.ops).sum();
    let shard_rates: Vec<f64> = reports.iter().map(|r| r.achieved_rate).collect();
    let retrans: u64 = (0..world.client_count())
        .map(|ci| {
            (0..world.server_count())
                .map(|sj| {
                    world
                        .udp_stats_to(ci, sj)
                        .map(|s| s.retransmits)
                        .or_else(|| world.tcp_stats_to(ci, sj).map(|s| s.retransmits))
                        .unwrap_or(0)
                })
                .sum::<u64>()
        })
        .sum();
    let (mut served, mut dup_hits, mut queued) = (0u64, 0u64, 0u64);
    let mut queue_p95_ms = Vec::with_capacity(world.server_count());
    for sj in 0..world.server_count() {
        let stats = world.server_of(sj).stats();
        served += stats.total();
        dup_hits += stats.dup_hits;
        let nfsd = world.nfsd_stats_of(sj);
        queued += nfsd.queued;
        queue_p95_ms.push(nfsd.queue_delay_quantile(0.95));
    }
    ShardRow {
        topo: cell.topo_label.to_string(),
        transport: cell.transport_label.to_string(),
        clients: cell.clients,
        servers: cell.servers,
        agg_ops_per_sec: shard_rates.iter().sum(),
        fairness: jain(&shard_rates),
        shard_rates,
        retrans_per_op: retrans as f64 / total_ops.max(1) as f64,
        dup_hit_pct: 100.0 * dup_hits as f64 / served.max(1) as f64,
        queue_p95_ms,
        queued,
        state_hash: hash,
    }
}

/// The dynamic-RTO UDP transport every non-comparison cell mounts.
fn udp_dynamic() -> TransportKind {
    TransportKind::UdpDynamic {
        timeo: SimDuration::from_secs(1),
    }
}

/// Builds the cell matrix. The LAN fleet sweep carries the scaling
/// story; a transport pair at the gate point compares fixed-RTO UDP and
/// TCP against the same fleet; the token-ring and 56 Kbps rows put the
/// shared-trunk control on record (where the wire, not the nfsd pool,
/// is the bottleneck, more servers buy nothing).
fn cells(quick: bool) -> Vec<Cell> {
    let mut cells: Vec<Cell> = Vec::new();
    let mut idx = 0usize;
    let mut push = |cells: &mut Vec<Cell>,
                    topo_label: &'static str,
                    topo: TopologyKind,
                    transport_label: &'static str,
                    transport: TransportKind,
                    clients: usize,
                    servers: usize,
                    rate: f64| {
        cells.push(Cell {
            topo_label,
            topo,
            transport_label,
            transport,
            clients,
            servers,
            rate_per_client: rate,
            idx,
        });
        idx += 1;
    };
    let lan_counts: &[usize] = if quick {
        &[GATE_CLIENTS, 512]
    } else {
        &[GATE_CLIENTS, 512, 1024]
    };
    let lan_servers: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    for &n in lan_counts {
        for &m in lan_servers {
            // The full fleet sweep runs at the gate client count; bigger
            // crowds keep the endpoints to bound the matrix cost.
            if n > GATE_CLIENTS && m != 1 && m != *lan_servers.last().unwrap() {
                continue;
            }
            push(
                &mut cells,
                "same LAN",
                TopologyKind::SameLan,
                GATE_TRANSPORT,
                udp_dynamic(),
                n,
                m,
                SHARD_RATE_LAN,
            );
        }
    }
    let widest = *lan_servers.last().unwrap();
    push(
        &mut cells,
        "same LAN",
        TopologyKind::SameLan,
        "UDP rto=1s",
        TransportKind::UdpFixed {
            timeo: SimDuration::from_secs(1),
        },
        GATE_CLIENTS,
        widest,
        SHARD_RATE_LAN,
    );
    push(
        &mut cells,
        "same LAN",
        TopologyKind::SameLan,
        "TCP",
        TransportKind::Tcp,
        GATE_CLIENTS,
        widest,
        SHARD_RATE_LAN,
    );
    for &m in &[1usize, 4] {
        push(
            &mut cells,
            "token ring",
            TopologyKind::TokenRing,
            GATE_TRANSPORT,
            udp_dynamic(),
            GATE_CLIENTS,
            m,
            SHARD_RATE_LAN,
        );
    }
    for &m in &[1usize, 2] {
        push(
            &mut cells,
            "56Kbps",
            TopologyKind::SlowLink,
            GATE_TRANSPORT,
            udp_dynamic(),
            64,
            m,
            SHARD_RATE_SLOW,
        );
    }
    cells
}

/// Whether a cell is one of the two LAN scaling-gate cells.
fn is_gate_cell(c: &Cell) -> bool {
    c.topo == TopologyKind::SameLan
        && c.transport_label == GATE_TRANSPORT
        && c.clients == GATE_CLIENTS
        && (c.servers == 1 || c.servers == 4)
}

/// Runs the full N×M sweep under the parallel job runner.
pub fn run_shard_section(scale: &Scale, scale_name: &str) -> ShardReport {
    let quick = scale.duration < SimDuration::from_secs(5 * 60);
    let cells = cells(quick);
    let nfiles = scale.nfiles;
    let rows = run_jobs(&cells, scale.jobs, |cell| {
        let (duration, warmup) = shard_durations(scale, cell.clients);
        run_cell(cell, duration, warmup, nfiles)
    });
    ShardReport {
        env: EnvMeta::detect(scale_name),
        rows,
    }
}

/// The `repro shard` entry point.
pub fn shard(scale: &Scale) -> ShardReport {
    let quick = scale.duration < SimDuration::from_secs(5 * 60);
    run_shard_section(scale, if quick { "quick" } else { "paper" })
}

impl ShardReport {
    /// The LAN scaling gate's two cells, or why they are missing.
    pub fn gate(&self) -> Result<ShardGate, String> {
        let find = |m: usize| {
            self.rows.iter().find(|r| {
                r.topo == "same LAN"
                    && r.transport == GATE_TRANSPORT
                    && r.clients == GATE_CLIENTS
                    && r.servers == m
            })
        };
        let m1 = find(1).ok_or("no LAN M=1 gate cell in the shard report")?;
        let m4 = find(4).ok_or("no LAN M=4 gate cell in the shard report")?;
        Ok(ShardGate {
            clients: GATE_CLIENTS,
            m1_ops_per_sec: m1.agg_ops_per_sec,
            m4_ops_per_sec: m4.agg_ops_per_sec,
        })
    }

    /// Applies the shard gates to this (freshly measured) report:
    ///
    /// 1. every row routed work to *every* shard (a misrouting bug
    ///    degenerates the fleet to fewer servers silently);
    /// 2. the M=4 LAN fleet clears [`SHARD_SCALING_FLOOR`]× the M=1
    ///    aggregate throughput at the gate client count;
    /// 3. the gate fleet shards fairly (Jain ≥ 0.8 at M=4).
    pub fn check(&self) -> Result<String, String> {
        for r in &self.rows {
            if let Some(sj) = r.shard_rates.iter().position(|&x| x <= 0.0) {
                return Err(format!(
                    "{} {} N={} M={}: shard {sj} measured no ops — the \
                     fleet routing degenerated",
                    r.topo, r.transport, r.clients, r.servers
                ));
            }
        }
        let gate = self.gate()?;
        if gate.ratio() < SHARD_SCALING_FLOOR {
            return Err(format!(
                "LAN fleet scaling at N={}: M=4 reached {:.1} op/s vs M=1 {:.1} \
                 ({:.2}x < {SHARD_SCALING_FLOOR:.1}x floor)",
                gate.clients,
                gate.m4_ops_per_sec,
                gate.m1_ops_per_sec,
                gate.ratio()
            ));
        }
        let m4 = self
            .rows
            .iter()
            .find(|r| {
                r.topo == "same LAN"
                    && r.transport == GATE_TRANSPORT
                    && r.clients == GATE_CLIENTS
                    && r.servers == 4
            })
            .expect("gate() found it");
        if m4.fairness < 0.8 {
            return Err(format!(
                "gate fleet unfair: Jain {:.3} < 0.8 across {} shards",
                m4.fairness, m4.servers
            ));
        }
        Ok(format!(
            "LAN fleet scaling {:.2}x at N={} (M=4 {:.1} vs M=1 {:.1} op/s, \
             fairness {:.3})",
            gate.ratio(),
            gate.clients,
            gate.m4_ops_per_sec,
            gate.m1_ops_per_sec,
            m4.fairness
        ))
    }

    /// Renders the report as JSON (the whole `BENCH_pr9.json` file).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"pr9-shard\",\n");
        s.push_str(&format!("  \"env\": {},\n", self.env.to_json()));
        s.push_str(&format!("  \"nfsds_per_server\": {SHARD_NFSDS},\n"));
        s.push_str("  \"shard\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let q: Vec<String> = r.queue_p95_ms.iter().map(|v| format!("{v:.1}")).collect();
            s.push_str(&format!(
                "    {{ \"topo\": \"{}\", \"transport\": \"{}\", \"clients\": {}, \
                 \"servers\": {}, \"agg_ops_per_sec\": {:.1}, \"retrans_per_op\": {:.3}, \
                 \"dup_hit_pct\": {:.1}, \"fairness\": {:.3}, \"queue_p95_ms\": [{}], \
                 \"queued\": {}, \"state_hash\": \"{:#018x}\" }}{comma}\n",
                r.topo,
                r.transport,
                r.clients,
                r.servers,
                r.agg_ops_per_sec,
                r.retrans_per_op,
                r.dup_hit_pct,
                r.fairness,
                q.join(", "),
                r.queued,
                r.state_hash
            ));
        }
        s.push_str("  ],\n");
        // The gate block is what `repro bench --check` parses back; keep
        // it flat numbers.
        match self.gate() {
            Ok(g) => {
                s.push_str("  \"lan_scaling\": {\n");
                s.push_str(&format!("    \"clients\": {},\n", g.clients));
                s.push_str(&format!(
                    "    \"m1_ops_per_sec\": {:.1},\n",
                    g.m1_ops_per_sec
                ));
                s.push_str(&format!(
                    "    \"m4_ops_per_sec\": {:.1},\n",
                    g.m4_ops_per_sec
                ));
                s.push_str(&format!("    \"ratio\": {:.2},\n", g.ratio()));
                s.push_str(&format!("    \"floor\": {SHARD_SCALING_FLOOR:.1}\n"));
                s.push_str("  }\n");
            }
            Err(_) => s.push_str("  \"lan_scaling\": null\n"),
        }
        s.push_str("}\n");
        s
    }

    /// Renders a short human-readable summary (the table plus the gate).
    pub fn summary(&self) -> String {
        let gate = match self.gate() {
            Ok(g) => format!(
                "  lan scaling : M=4 {:.1} op/s vs M=1 {:.1} op/s = {:.2}x \
                 (floor {SHARD_SCALING_FLOOR:.1}x)\n",
                g.m4_ops_per_sec,
                g.m1_ops_per_sec,
                g.ratio()
            ),
            Err(e) => format!("  lan scaling : {e}\n"),
        };
        format!("{self}{gate}")
    }
}

/// Parses the committed gate numbers out of a `BENCH_pr9.json` string.
/// A missing or truncated gate section is a loud error, never a waived
/// gate.
pub(crate) fn committed_gate(json: &str) -> Result<(f64, f64), String> {
    let ratio = crate::bench::find_number(json, "lan_scaling", "ratio").ok_or(
        "committed shard JSON is missing the gated \"lan_scaling\" section — \
         regenerate it with `repro shard` or `repro bench`",
    )?;
    let m4 = crate::bench::find_number(json, "lan_scaling", "m4_ops_per_sec")
        .ok_or("committed shard JSON has no m4_ops_per_sec")?;
    Ok((ratio, m4))
}

/// Runs the two LAN gate cells (with their sweep positions, so seeds
/// and durations match the committed sweep exactly) at an explicit
/// `--jobs` setting.
fn run_gate_cells(scale: &Scale, jobs: usize) -> Vec<ShardRow> {
    let quick = scale.duration < SimDuration::from_secs(5 * 60);
    let gate_cells: Vec<Cell> = cells(quick).into_iter().filter(is_gate_cell).collect();
    let nfiles = scale.nfiles;
    run_jobs(&gate_cells, jobs, |cell| {
        let (duration, warmup) = shard_durations(scale, cell.clients);
        run_cell(cell, duration, warmup, nfiles)
    })
}

/// Re-runs the gate cells at a different `--jobs` setting (1 and 2
/// swap) and insists their state hashes match the sweep's rows: the
/// fleet engine's determinism contract, held on every bench run.
pub fn determinism_probe(scale: &Scale, report: &ShardReport) -> Result<String, String> {
    let probe_jobs = if scale.jobs == 1 { 2 } else { 1 };
    let probe = run_gate_cells(scale, probe_jobs);
    for p in &probe {
        let swept = report
            .rows
            .iter()
            .find(|r| {
                r.topo == p.topo
                    && r.transport == p.transport
                    && r.clients == p.clients
                    && r.servers == p.servers
            })
            .ok_or(format!(
                "probe cell N={} M={} missing from the sweep",
                p.clients, p.servers
            ))?;
        if p.state_hash != swept.state_hash {
            return Err(format!(
                "determinism: N={} M={} hash {:#018x} at jobs={probe_jobs} \
                 != sweep's {:#018x} at jobs={}",
                p.clients, p.servers, p.state_hash, swept.state_hash, scale.jobs
            ));
        }
    }
    Ok(format!(
        "gate cells byte-identical across jobs {}×{probe_jobs}",
        scale.jobs
    ))
}

/// The `repro bench --check` shard gate: re-runs the two LAN gate cells
/// fresh at `--jobs` 1 and 2 and holds (a) the
/// committed report's ratio, (b) the fresh ratio, (c) fresh M=4
/// throughput against the committed number within
/// [`crate::bench::CHECK_TOLERANCE`], and (d) hash equality between the
/// two fresh settings.
pub fn check_against(committed: &str, scale: &Scale) -> Result<String, String> {
    let (c_ratio, c_m4) = committed_gate(committed)?;
    if c_ratio < SHARD_SCALING_FLOOR {
        return Err(format!(
            "committed shard report certifies only {c_ratio:.2}x LAN scaling \
             (< {SHARD_SCALING_FLOOR:.1}x floor)"
        ));
    }
    let rows1 = run_gate_cells(scale, 1);
    let rows2 = run_gate_cells(scale, 2);
    for (a, b) in rows1.iter().zip(&rows2) {
        if a.state_hash != b.state_hash {
            return Err(format!(
                "determinism: N={} M={} hashes diverge across jobs 1/2: \
                 {:#018x} vs {:#018x}",
                a.clients, a.servers, a.state_hash, b.state_hash
            ));
        }
    }
    let m1 = rows1
        .iter()
        .find(|r| r.servers == 1)
        .ok_or("gate slice lost its M=1 cell")?;
    let m4 = rows1
        .iter()
        .find(|r| r.servers == 4)
        .ok_or("gate slice lost its M=4 cell")?;
    let ratio = m4.agg_ops_per_sec / m1.agg_ops_per_sec.max(1e-9);
    if ratio < SHARD_SCALING_FLOOR {
        return Err(format!(
            "fresh LAN fleet scaling is {ratio:.2}x (M=4 {:.1} vs M=1 {:.1} op/s, \
             floor {SHARD_SCALING_FLOOR:.1}x)",
            m4.agg_ops_per_sec, m1.agg_ops_per_sec
        ));
    }
    let floor = c_m4 * (1.0 - crate::bench::CHECK_TOLERANCE);
    if m4.agg_ops_per_sec < floor {
        return Err(format!(
            "M=4 aggregate throughput regressed: {:.1} op/s vs committed {c_m4:.1} \
             (floor {floor:.1})",
            m4.agg_ops_per_sec
        ));
    }
    Ok(format!(
        "fresh LAN fleet scaling {ratio:.2}x (committed {c_ratio:.2}x), M=4 at \
         {:.1} op/s vs committed {c_m4:.1}, gate cells byte-identical across \
         jobs 1/2",
        m4.agg_ops_per_sec
    ))
}

/// The `repro shard-smoke` gate: a small two-cell fleet matrix (M=1 and
/// M=2, 32 clients) run at `--jobs 1` and then at `--jobs 2`,
/// asserting byte-identical state hashes
/// and that the M=2 fleet actually routed work to both shards. Cheap
/// enough for `scripts/check.sh`.
pub fn shard_smoke(scale: &Scale) -> Result<String, String> {
    let duration = SimDuration::from_secs(2).min(scale.duration);
    let warmup = SimDuration::from_secs(1);
    let smoke_cells: Vec<Cell> = [1usize, 2]
        .iter()
        .enumerate()
        .map(|(i, &m)| Cell {
            topo_label: "same LAN",
            topo: TopologyKind::SameLan,
            transport_label: GATE_TRANSPORT,
            transport: udp_dynamic(),
            clients: 32,
            servers: m,
            rate_per_client: SHARD_RATE_LAN,
            idx: 9_000 + i,
        })
        .collect();
    let run = |jobs: usize| {
        run_jobs(&smoke_cells, jobs, |cell| {
            run_cell(cell, duration, warmup, 20)
        })
    };
    let a = run(1);
    let b = run(2);
    for (x, y) in a.iter().zip(&b) {
        if x.state_hash != y.state_hash {
            return Err(format!(
                "smoke hashes diverge at M={}: {:#018x} (jobs=1) vs \
                 {:#018x} (jobs=2)",
                x.servers, x.state_hash, y.state_hash
            ));
        }
    }
    let fleet = &a[1];
    if fleet.shard_rates.iter().any(|&r| r <= 0.0) {
        return Err("smoke M=2 fleet left a shard idle".to_string());
    }
    Ok(format!(
        "32-client M=1/M=2 smoke agrees across jobs 1×2 \
         ({:#018x}, {:#018x}); M=2 shards at {:.1}/{:.1} op/s",
        a[0].state_hash, a[1].state_hash, fleet.shard_rates[0], fleet.shard_rates[1]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(topo: &str, transport: &str, n: usize, m: usize, agg: f64) -> ShardRow {
        let per = agg / m as f64;
        ShardRow {
            topo: topo.to_string(),
            transport: transport.to_string(),
            clients: n,
            servers: m,
            agg_ops_per_sec: agg,
            shard_rates: vec![per; m],
            fairness: 1.0,
            retrans_per_op: 0.1,
            dup_hit_pct: 1.0,
            queue_p95_ms: vec![5.0; m],
            queued: 10,
            state_hash: 0xABCD,
        }
    }

    fn fake_report() -> ShardReport {
        ShardReport {
            env: EnvMeta {
                nproc: 1,
                rustc: "rustc (test)".into(),
                scale: "quick".into(),
            },
            rows: vec![
                row("same LAN", GATE_TRANSPORT, GATE_CLIENTS, 1, 400.0),
                row("same LAN", GATE_TRANSPORT, GATE_CLIENTS, 4, 1200.0),
                row("56Kbps", GATE_TRANSPORT, 64, 2, 9.0),
            ],
        }
    }

    #[test]
    fn gate_and_check_hold_on_a_clean_report() {
        let r = fake_report();
        let g = r.gate().expect("gate cells present");
        assert!((g.ratio() - 3.0).abs() < 1e-9);
        let msg = r.check().expect("clean report passes");
        assert!(msg.contains("3.00x"), "got: {msg}");
    }

    #[test]
    fn check_fails_on_flat_scaling_and_idle_shards() {
        let mut r = fake_report();
        r.rows[1].agg_ops_per_sec = 500.0;
        let err = r.check().expect_err("1.25x must fail the 2x floor");
        assert!(err.contains("scaling"), "got: {err}");
        let mut r = fake_report();
        r.rows[1].shard_rates[2] = 0.0;
        let err = r.check().expect_err("an idle shard must fail");
        assert!(err.contains("shard 2"), "got: {err}");
    }

    #[test]
    fn json_roundtrips_through_the_committed_gate_parser() {
        let r = fake_report();
        let json = r.to_json();
        let (ratio, m4) = committed_gate(&json).expect("gate parses back");
        assert!((ratio - 3.0).abs() < 0.01, "ratio {ratio}");
        assert!((m4 - 1200.0).abs() < 0.1, "m4 {m4}");
        assert!(json.contains("\"bench\": \"pr9-shard\""));
        assert!(json.contains("\"nfsds_per_server\""));
        assert_eq!(json.matches("\"state_hash\"").count(), r.rows.len());
        // A truncated report (no gate section) fails loudly.
        let cut = json[..json.find("\"lan_scaling\"").unwrap()].to_string();
        let err = committed_gate(&cut).expect_err("missing gate must fail");
        assert!(err.contains("lan_scaling"), "got: {err}");
    }

    /// A miniature fleet cell: work reaches every shard, shards stay
    /// balanced, and a rerun reproduces the hash.
    #[test]
    fn small_fleet_cell_routes_shards_deterministically() {
        let cell = Cell {
            topo_label: "same LAN",
            topo: TopologyKind::SameLan,
            transport_label: GATE_TRANSPORT,
            transport: udp_dynamic(),
            clients: 8,
            servers: 2,
            rate_per_client: 8.0,
            idx: 7_700,
        };
        let d = SimDuration::from_secs(8);
        let w = SimDuration::from_secs(2);
        let one = run_cell(&cell, d, w, 20);
        assert_eq!(one.shard_rates.len(), 2);
        assert!(
            one.shard_rates.iter().all(|&r| r > 0.0),
            "both shards must serve: {one:?}"
        );
        assert!(one.fairness > 0.7, "balanced pinning: {one:?}");
        assert!(one.agg_ops_per_sec > 8.0, "{one:?}");
        let two = run_cell(&cell, d, w, 20);
        assert_eq!(
            one.state_hash, two.state_hash,
            "fleet cells must be byte-identical across reruns"
        );
    }

    /// The tentpole claim in miniature: with per-server pools starved,
    /// a wider fleet multiplies aggregate throughput on the LAN.
    #[test]
    fn fleet_width_scales_lan_aggregate_throughput() {
        let mk = |servers: usize, idx: usize| Cell {
            topo_label: "same LAN",
            topo: TopologyKind::SameLan,
            transport_label: GATE_TRANSPORT,
            transport: udp_dynamic(),
            clients: 48,
            servers,
            rate_per_client: SHARD_RATE_LAN,
            idx,
        };
        let d = SimDuration::from_secs(8);
        let w = SimDuration::from_secs(2);
        let m1 = run_cell(&mk(1, 7_800), d, w, 20);
        let m4 = run_cell(&mk(4, 7_801), d, w, 20);
        assert!(
            m4.agg_ops_per_sec > 1.5 * m1.agg_ops_per_sec,
            "4 servers must outrun 1 saturated pool: {:.1} vs {:.1}",
            m4.agg_ops_per_sec,
            m1.agg_ops_per_sec
        );
        // The starved single pool queues far more than the fleet.
        assert!(
            m1.queue_p95_worst_ms() > m4.queue_p95_worst_ms(),
            "M=1 must queue longer: {m1:?} vs {m4:?}"
        );
    }
}
