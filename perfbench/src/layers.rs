//! Per-layer metrics of a traced batch.
//!
//! Counters come straight from the traced run. Host timings come from
//! replaying the run's own data through each layer's public entry point:
//! the captured RPC messages through the XDR and Sun RPC decoders, the
//! UDP transport and `NfsServer::service`; their sizes through
//! `Network::send_into`/`handle_into` on the workload's topologies; the
//! event-queue trace through `AdaptiveQueue::replay`; the soak's
//! observation logs through `StreamingOracle::feed` and its paths through
//! `ExportMap::route`. Where a workload has no captured data for a layer
//! (chaos-soak has no `Syscalls` hook, lan workloads issue no mutations),
//! a fixed synthesized set stands in; `notes` says which.

use std::hint::black_box;
use std::time::{Duration, Instant};

use renofs::proto::{self, build, FileHandle, NfsProc, Sattr};
use renofs::{ExportMap, NfsServer, ServerConfig, TopologyKind, World};
use renofs_bench::experiments::soak::GRACE_NS;
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::topology::presets::{self, Background};
use renofs_netsim::{internet_checksum, Datagram, NetOutput, Network, ProtoHeader};
use renofs_oracle::{ObsKind, StreamConfig, StreamingOracle};
use renofs_sim::{AdaptiveQueue, EventQueue, SimDuration, SimTime};
use renofs_sunrpc::{AuthUnix, CallHeader, NFS_PORT, NFS_PROGRAM, NFS_VERSION};
use renofs_transport::{UdpAction, UdpRpcClient, UdpRpcConfig};
use renofs_workload::nhfsstone::preload_subtree;
use renofs_xdr::XdrDecoder;

use crate::stats::quantile_sorted;
use crate::tracesys::{Call, Captured};
use crate::workloads::{Batch, LanSpec, Size, TraceData, Workload};

/// Host time each replay accumulates before its figure is taken.
const MIN_REPLAY: Duration = Duration::from_millis(40);
const MAX_PASSES: usize = 10_000;

/// The procedures `core.server.service_ns` reports, in order.
pub const SERVICE_PROCS: [NfsProc; 8] = [
    NfsProc::Read,
    NfsProc::Write,
    NfsProc::Lookup,
    NfsProc::Getattr,
    NfsProc::Setattr,
    NfsProc::Create,
    NfsProc::Remove,
    NfsProc::Rename,
];

/// One named figure of a result.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (an empty ratio) reads 0.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

fn metric(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric::new(name, value, unit));
}

/// Repeats `pass` (which returns the host time of its measured part)
/// until enough time has accumulated; returns nanoseconds per item.
fn ns_per_item(items: usize, mut pass: impl FnMut() -> Duration) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let mut total = Duration::ZERO;
    let mut passes = 0;
    while (total < MIN_REPLAY || passes < 3) && passes < MAX_PASSES {
        total += pass();
        passes += 1;
    }
    total.as_nanos() as f64 / (passes * items) as f64
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed(), r)
}

/// An RPC call message, as the Nhfsstone generator builds them.
fn call_msg(
    xid: u32,
    proc: NfsProc,
    args: impl FnOnce(&mut MbufChain, &mut CopyMeter),
) -> MbufChain {
    let mut meter = CopyMeter::new();
    let mut msg = MbufChain::with_leading_space(64);
    CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc: proc.to_wire(),
        auth: AuthUnix::root("perfbench"),
    }
    .encode(&mut msg, &mut meter);
    args(&mut msg, &mut meter);
    msg
}

fn handle(server: &NfsServer, name: &str) -> FileHandle {
    let root = server.fs().root();
    let ino = server
        .fs()
        .lookup(root, name)
        .expect("synthesized file exists");
    server.handle_for(ino).expect("live inode")
}

/// One serviced call of a synthesized file life cycle.
struct Served {
    proc: NfsProc,
    call: MbufChain,
    reply: MbufChain,
    ns: u64,
}

/// Services one file's life cycle on `server` — every procedure of
/// [`SERVICE_PROCS`] — timing each call.
fn synthesized_cycle(server: &mut NfsServer, i: usize, xid: &mut u32) -> Vec<Served> {
    let now = SimTime::from_secs(1);
    let root = server.root_handle();
    let (name, moved) = (format!("pb{i}"), format!("pq{i}"));
    let mut out = Vec::with_capacity(SERVICE_PROCS.len());
    let mut serve =
        |server: &mut NfsServer, proc: NfsProc, args: &dyn Fn(&mut MbufChain, &mut CopyMeter)| {
            *xid = xid.wrapping_add(1);
            let call = call_msg(*xid, proc, args);
            let (d, (reply, _)) = timed(|| server.service(now, &call));
            out.push(Served {
                proc,
                call,
                reply,
                ns: d.as_nanos() as u64,
            });
        };
    let sattr = Sattr {
        mode: Some(0o644),
        ..Sattr::default()
    };
    serve(server, NfsProc::Create, &|c, m| {
        build::create_args(c, m, &root, &name, &sattr)
    });
    let fh = handle(server, &name);
    serve(server, NfsProc::Write, &|c, m| {
        let data = MbufChain::from_slice(&[0xA5; 8192], &mut CopyMeter::new());
        build::write_args(c, m, &fh, 0, data)
    });
    serve(server, NfsProc::Getattr, &|c, m| {
        build::handle_args(c, m, &fh)
    });
    serve(server, NfsProc::Setattr, &|c, m| {
        build::setattr_args(c, m, &fh, &sattr)
    });
    serve(server, NfsProc::Lookup, &|c, m| {
        build::dirop_args(c, m, &root, &name)
    });
    serve(server, NfsProc::Read, &|c, m| {
        build::read_args(c, m, &fh, 0, 8192)
    });
    serve(server, NfsProc::Rename, &|c, m| {
        build::rename_args(c, m, &root, &name, &root, &moved)
    });
    serve(server, NfsProc::Remove, &|c, m| {
        build::dirop_args(c, m, &root, &moved)
    });
    out
}

/// Synthesized calls and replies standing in for a workload whose
/// messages could not be captured: one file life cycle's worth.
fn synthesized_messages() -> Vec<Captured> {
    let mut server = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
    let mut meter = CopyMeter::new();
    synthesized_cycle(&mut server, 0, &mut 0)
        .into_iter()
        .map(|s| Captured {
            client: 0,
            proc: s.proc,
            call: s.call.to_vec(&mut meter),
            reply: Some(s.reply.to_vec(&mut meter)),
        })
        .collect()
}

fn chains(bytes: impl Iterator<Item = Vec<u8>>) -> Vec<MbufChain> {
    let mut meter = CopyMeter::new();
    bytes
        .map(|b| MbufChain::from_slice(&b, &mut meter))
        .collect()
}

/// The server a lan workload's captured calls were addressed to, freshly
/// built and preloaded.
fn lan_server(w: Workload, size: Size, seed: u64) -> World {
    let spec = LanSpec::for_workload(w, size);
    let mut world = World::new(spec.world_config(seed));
    preload_subtree(&mut world, &spec.load(seed));
    world
}

/// `core.server.service_ns.*`: captured calls where the workload issued
/// the procedure, one synthesized file life cycle per pass otherwise.
fn service_times(
    w: Workload,
    size: Size,
    seed: u64,
    captured: &[Captured],
    notes: &mut Vec<String>,
) -> Vec<f64> {
    let calls: Vec<(u32, NfsProc, MbufChain)> = captured
        .iter()
        .zip(chains(captured.iter().map(|c| c.call.clone())))
        .map(|(c, chain)| (c.client, c.proc, chain))
        .collect();
    let mut sum = [0u64; SERVICE_PROCS.len()];
    let mut count = [0u64; SERVICE_PROCS.len()];
    let slot = |p: NfsProc| SERVICE_PROCS.iter().position(|&q| q == p);
    let captured_procs: Vec<bool> = SERVICE_PROCS
        .iter()
        .map(|&p| calls.iter().any(|c| c.1 == p))
        .collect();
    let mut total = Duration::ZERO;
    let mut passes = 0;
    let mut xid = 0x7000_0000u32;
    while (total < MIN_REPLAY || passes < 3) && passes < MAX_PASSES {
        let mut world;
        let mut bare;
        let server: &mut NfsServer = if w == Workload::ChaosSoak {
            bare = NfsServer::new(ServerConfig::reno(), SimTime::ZERO);
            &mut bare
        } else {
            world = lan_server(w, size, seed);
            world.server_mut()
        };
        for (client, proc, msg) in &calls {
            let (d, reply) = timed(|| server.service_from(SimTime::from_secs(20), msg, *client));
            black_box(reply);
            total += d;
            if let Some(i) = slot(*proc) {
                sum[i] += d.as_nanos() as u64;
                count[i] += 1;
            }
        }
        for i in 0..8 {
            for served in synthesized_cycle(server, passes * 8 + i, &mut xid) {
                let s = slot(served.proc).expect("cycle uses reported procs");
                if !captured_procs[s] {
                    total += Duration::from_nanos(served.ns);
                    sum[s] += served.ns;
                    count[s] += 1;
                }
            }
        }
        passes += 1;
    }
    let synthesized: Vec<String> = SERVICE_PROCS
        .iter()
        .zip(&captured_procs)
        .filter(|(_, &c)| !c)
        .map(|(p, _)| format!("{p:?}").to_lowercase())
        .collect();
    if !synthesized.is_empty() {
        notes.push(format!(
            "core.server.service_ns for {} uses synthesized calls (the workload issued none that were captured)",
            synthesized.join(",")
        ));
    }
    sum.iter()
        .zip(&count)
        .map(|(&s, &n)| if n == 0 { 0.0 } else { s as f64 / n as f64 })
        .collect()
}

/// `netsim.send_ns_per_dgram`: every message size through the network
/// layer of each topology the workload crossed, calls toward the server
/// and replies back, each drained to delivery.
fn send_ns_per_dgram(topologies: &[TopologyKind], sizes: &[(usize, usize)]) -> f64 {
    let bg = Background::quiet();
    let mut per_topology = Vec::with_capacity(topologies.len());
    for &kind in topologies {
        let (topo, clients, servers) = match kind {
            TopologyKind::SameLan => presets::same_lan_nm(&bg, 1, 1),
            TopologyKind::TokenRing => presets::token_ring_path_nm(&bg, 1, 1),
            TopologyKind::SlowLink => presets::slow_link_path_nm(&bg, 1, 1),
        };
        let mut net = Network::new(topo, 7);
        let (c, s) = (clients[0], servers[0]);
        let mut queue: EventQueue<renofs_netsim::NetEvent> = EventQueue::new();
        let mut out = NetOutput::default();
        per_topology.push(ns_per_item(sizes.len() * 2, || {
            let payloads = chains(
                sizes
                    .iter()
                    .flat_map(|&(call, reply)| [vec![0x11; call], vec![0x22; reply]]),
            );
            let (d, delivered) = timed(|| {
                let mut delivered = 0usize;
                for (k, payload) in payloads.into_iter().enumerate() {
                    let (src, dst) = if k % 2 == 0 { (c, s) } else { (s, c) };
                    let now = queue.now() + SimDuration::from_millis(1);
                    let id = net.alloc_dgram_id();
                    let proto = ProtoHeader::Udp {
                        sport: 1023,
                        dport: NFS_PORT,
                    };
                    net.send_into(
                        now,
                        Datagram {
                            id,
                            src,
                            dst,
                            proto,
                            payload,
                        },
                        &mut out,
                    );
                    loop {
                        delivered += out.delivered.len();
                        for (at, ev) in out.events.drain(..) {
                            queue.push(at, ev);
                        }
                        out.clear();
                        let Some((at, ev)) = queue.pop() else { break };
                        net.handle_into(at, ev, &mut out);
                    }
                }
                delivered
            });
            black_box(delivered);
            d
        }));
    }
    per_topology.iter().sum::<f64>() / per_topology.len().max(1) as f64
}

/// Computes every per-layer metric of a traced batch, in the order the
/// benchmark declares them. `untraced_wall_s` is the mean wall time of
/// the run's timed untraced batches.
pub fn per_layer(
    w: Workload,
    size: Size,
    seed: u64,
    batch: &Batch,
    untraced_wall_s: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let t = batch
        .trace
        .as_ref()
        .expect("per-layer metrics need a traced batch");
    let mut m = Vec::new();

    // Messages the replays run on: the captured ones, or a stand-in.
    let messages: Vec<Captured> = if t.captured.is_empty() {
        notes.push(
            "no RPC messages captured (chaos-soak runs inside the soak harness): xdr, sunrpc, \
             mbuf, checksum, transport and netsim timings use a synthesized file life cycle"
                .to_string(),
        );
        synthesized_messages()
    } else {
        t.captured.clone()
    };

    core_layer(&mut m, t, batch);

    // sim
    metric(&mut m, "sim.events", t.events as f64, "count");
    metric(&mut m, "sim.peak_depth", t.peak_depth as f64, "count");
    metric(
        &mut m,
        "sim.host_ns_per_event",
        if t.events == 0 {
            0.0
        } else {
            t.world_run_wall_s * 1e9 / t.events as f64
        },
        "ns",
    );
    let replay = ns_per_item(t.queue_ops.len(), || {
        let (d, popped) = timed(|| AdaptiveQueue::replay(&t.queue_ops));
        black_box(popped);
        d
    });
    metric(&mut m, "sim.queue.replay_ns_per_op", replay, "ns");

    // core: server and nfsd
    let service = service_times(w, size, seed, &t.captured, notes);
    for (p, ns) in SERVICE_PROCS.iter().zip(service) {
        let name = format!("core.server.service_ns.{}", format!("{p:?}").to_lowercase());
        metric(&mut m, &name, ns, "ns");
    }
    metric(&mut m, "core.server.dup_hits", t.dup_hits as f64, "count");
    metric(&mut m, "core.nfsd.queued", t.nfsd_queued as f64, "count");
    metric(&mut m, "core.nfsd.queue_p95_ms", t.nfsd_queue_p95_ms, "ms");

    // netsim, mbuf, xdr, sunrpc
    metric(
        &mut m,
        "netsim.frags_per_dgram",
        if t.dgrams_sent == 0 {
            0.0
        } else {
            t.frags_sent as f64 / t.dgrams_sent as f64
        },
        "ratio",
    );
    metric(
        &mut m,
        "netsim.frags_dropped",
        t.frags_dropped as f64,
        "count",
    );
    metric(
        &mut m,
        "netsim.reasm_failures",
        t.reasm_failures as f64,
        "count",
    );
    metric(
        &mut m,
        "netsim.checksum_drops",
        t.checksum_drops as f64,
        "count",
    );
    let sizes: Vec<(usize, usize)> = messages
        .iter()
        .map(|c| (c.call.len(), c.reply.as_ref().map_or(0, Vec::len)))
        .collect();
    metric(
        &mut m,
        "netsim.send_ns_per_dgram",
        send_ns_per_dgram(&t.topologies, &sizes),
        "ns",
    );
    let replies = chains(messages.iter().filter_map(|c| c.reply.clone()));
    let reply_kb = replies.iter().map(MbufChain::len).sum::<usize>() as f64 / 1024.0;
    let cksum_ns = ns_per_item(1, || {
        let (d, sum) = timed(|| {
            replies
                .iter()
                .map(|r| internet_checksum(r) as u64)
                .sum::<u64>()
        });
        black_box(sum);
        d
    });
    metric(
        &mut m,
        "netsim.checksum_ns_per_kb",
        cksum_ns / reply_kb.max(1e-9),
        "ns/KB",
    );
    metric(
        &mut m,
        "mbuf.cluster_fresh",
        t.cluster_fresh as f64,
        "count",
    );
    metric(
        &mut m,
        "mbuf.cluster_reused",
        t.cluster_reused as f64,
        "count",
    );
    let build_ns = ns_per_item(1, || {
        let mut meter = CopyMeter::new();
        let (d, built) = timed(|| {
            messages
                .iter()
                .filter_map(|c| c.reply.as_deref())
                .map(|b| MbufChain::from_slice(b, &mut meter))
                .collect::<Vec<_>>()
        });
        black_box(built);
        d
    });
    metric(
        &mut m,
        "mbuf.chain_build_ns_per_kb",
        build_ns / reply_kb.max(1e-9),
        "ns/KB",
    );
    let calls = chains(messages.iter().map(|c| c.call.clone()));
    let header_len: Vec<usize> = calls
        .iter()
        .map(|c| {
            let mut dec = XdrDecoder::new(c);
            CallHeader::decode(&mut dec).map_or(0, |_| dec.position())
        })
        .collect();
    let decode_call = ns_per_item(calls.len(), || {
        let (d, ok) = timed(|| {
            calls
                .iter()
                .filter(|c| CallHeader::decode(&mut XdrDecoder::new(c)).is_ok())
                .count()
        });
        black_box(ok);
        d
    });
    let decode_args = ns_per_item(calls.len(), || {
        let (d, ok) = timed(|| {
            calls
                .iter()
                .zip(&header_len)
                .zip(&messages)
                .filter(|((c, &pos), msg)| {
                    let mut dec = XdrDecoder::new(c);
                    dec.skip_opaque_fixed(pos).is_ok()
                        && proto::decode_args(msg.proc, &mut dec).is_ok()
                })
                .count()
        });
        black_box(ok);
        d
    });
    metric(&mut m, "xdr.decode_args_ns", decode_args, "ns");
    metric(&mut m, "sunrpc.decode_call_ns", decode_call, "ns");

    // transport
    let retrans = batch.sim.retransmits.unwrap_or(0);
    metric(&mut m, "transport.udp.retransmits", retrans as f64, "count");
    let attempts = t.udp_calls + retrans;
    metric(
        &mut m,
        "transport.udp.useful_ratio",
        if attempts == 0 {
            0.0
        } else {
            t.udp_completed as f64 / attempts as f64
        },
        "ratio",
    );
    let rpc_ns = ns_per_item(messages.len(), || {
        let pairs: Vec<(u32, NfsProc, MbufChain, MbufChain)> = messages
            .iter()
            .zip(chains(messages.iter().map(|c| c.call.clone())))
            .zip(chains(
                messages.iter().map(|c| c.reply.clone().unwrap_or_default()),
            ))
            .map(|((c, call), reply)| {
                let xid = c
                    .call
                    .get(..4)
                    .map_or(0, |b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]));
                (xid, c.proc, call, reply)
            })
            .collect();
        let mut client =
            UdpRpcClient::new(UdpRpcConfig::dynamic_paper(SimDuration::from_secs(1)), 1);
        let mut actions: Vec<UdpAction> = Vec::new();
        let mut now = SimTime::from_secs(1);
        let (d, done) = timed(|| {
            let mut done = 0usize;
            for (xid, proc, call, reply) in pairs {
                client.call(now, xid, proc.rto_class(), call, &mut actions);
                actions.clear();
                now += SimDuration::from_millis(5);
                done += usize::from(client.on_reply(now, xid, reply, &mut actions).is_some());
                actions.clear();
            }
            done
        });
        black_box(done);
        d
    });
    metric(&mut m, "transport.udp.rpc_ns", rpc_ns, "ns");

    oracle_layer(&mut m, t);

    // The traced run's distortion.
    metric(&mut m, "bench.traced_wall_s", batch.wall_s, "s");
    metric(&mut m, "bench.untraced_wall_s", untraced_wall_s, "s");
    m
}

fn core_layer(m: &mut Vec<Metric>, t: &TraceData, batch: &Batch) {
    metric(m, "core.world.engine_cpu_s", t.engine.cpu_s(), "s");
    metric(m, "core.world.workload_cpu_s", t.workload.cpu_s(), "s");
    metric(
        m,
        "core.world.unattributed_s",
        t.process.cpu_s() - t.engine.cpu_s() - t.workload.cpu_s(),
        "s",
    );
    metric(m, "core.syscall.calls", t.spans.len() as f64, "count");
    let mut rpc_us: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| matches!(s.call, Call::Rpc(_)))
        .map(|s| (s.host_end_ns - s.host_start_ns) as f64 / 1e3)
        .collect();
    rpc_us.sort_by(f64::total_cmp);
    metric(
        m,
        "core.syscall.rpc_host_us_p50",
        quantile_sorted(&rpc_us, 0.5),
        "us",
    );
    metric(
        m,
        "core.syscall.rpc_host_us_p99",
        quantile_sorted(&rpc_us, 0.99),
        "us",
    );
    metric(
        m,
        "core.ctx_switches_per_op",
        t.process.switches() as f64 / batch.ops.max(1) as f64,
        "count",
    );
}

fn oracle_layer(m: &mut Vec<Metric>, t: &TraceData) {
    metric(m, "oracle.observations", t.observations as f64, "count");
    let n_obs: usize = t.oracle_logs.iter().map(|l| l.2.len()).sum();
    let feed = ns_per_item(n_obs, || {
        let logs: Vec<_> = t.oracle_logs.iter().map(|l| (l.0, l.2.clone())).collect();
        let (d, violations) = timed(|| {
            let mut violations = 0;
            for (clients, log) in logs {
                let mut oracle = StreamingOracle::new(clients, StreamConfig::for_soak(GRACE_NS));
                for obs in log {
                    oracle.feed(obs);
                }
                for c in 0..clients {
                    oracle.finish_client(c);
                }
                violations += oracle.finish().violations.len();
            }
            violations
        });
        black_box(violations);
        d
    });
    metric(m, "oracle.feed_ns_per_obs", feed, "ns");
    metric(m, "oracle.peak_retained", t.peak_retained as f64, "count");
    let routes: Vec<(ExportMap, Vec<String>)> = t
        .oracle_logs
        .iter()
        .map(|(_, servers, log)| {
            let paths = log
                .iter()
                .map(|o| match &o.kind {
                    ObsKind::Created { path, .. }
                    | ObsKind::Removed { path, .. }
                    | ObsKind::Committed { path, .. }
                    | ObsKind::Observed { path, .. }
                    | ObsKind::ReadFailed { path, .. } => path.clone(),
                    ObsKind::Listed { dir, .. } => dir.clone(),
                })
                .collect();
            (ExportMap::fleet(*servers), paths)
        })
        .collect();
    let n_paths: usize = routes.iter().map(|r| r.1.len()).sum();
    let route = ns_per_item(n_paths, || {
        let (d, sum) = timed(|| {
            routes
                .iter()
                .flat_map(|(map, paths)| paths.iter().map(move |p| map.route(p).0))
                .sum::<usize>()
        });
        black_box(sum);
        d
    });
    metric(m, "core.router.route_ns", route, "ns");
}
