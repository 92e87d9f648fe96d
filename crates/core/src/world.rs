//! The deterministic simulation world.
//!
//! One [`World`] owns a community of client machines and a server machine
//! joined by a simulated internetwork, per-client RPC transports
//! (UDP-fixed, UDP-dynamic or TCP), and the NFS server. Workload code
//! runs on real OS threads in natural blocking style against the
//! [`Syscalls`] trait; determinism is preserved by strict hand-off —
//! exactly one workload thread is runnable at any instant, and it runs
//! only while the event loop waits for its next request.
//!
//! Every CPU microsecond, disk seek, wire serialization, IP fragment and
//! retransmission flows through one event queue and one set of event
//! handlers, whatever the world's size, transport or fault plan. That
//! single loop is what lets the bench harnesses reproduce the paper's
//! graphs; worlds run in parallel only across experiment cells
//! (`--jobs`), never inside one world.
//!
//! # Clients
//!
//! [`WorldConfig::clients`] scales the world from the paper's measured
//! single client to a crowd: each client machine gets its own host model,
//! transport instance, UDP source port (`1023 + index`, the BSD reserved-
//! port convention) and RNG stream split stably from the world seed.
//! Client 0 of an N-client world is bit-identical to the only client of a
//! 1-client world, which keeps every pre-crowd experiment byte-stable.
//!
//! # The nfsd service pool
//!
//! A real 4.3BSD server runs a fixed set of `nfsd` daemons; requests
//! beyond that concurrency wait in the socket buffer. [`WorldConfig::
//! nfsds`] models the same bound: requests arriving while every daemon
//! context is busy queue FIFO, and per-request queueing delay and service
//! time are recorded in [`NfsdStats`]. `nfsds == 0` retains the pre-pool
//! model (a daemon per request, serialization only through the CPU and
//! disks), which the calibrated single-client experiments rely on.
//!
//! # Sharded fleets
//!
//! [`WorldConfig::servers`] scales the server side the same way:
//! `M > 1` builds M server machines, each with its own host model, NFS
//! server instance (hence its own dup cache and boot epoch), and nfsd
//! pool, hanging off the shared trunk of the chosen topology. Every
//! client keeps one transport *per server* — independent XID streams
//! and RTO state per (client, server) pair — and addresses RPCs with
//! [`Syscalls::rpc_to`]. An M = 1 world is byte-identical to the
//! pre-shard single-server world.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_netsim::topology::presets::{self, Background};
use renofs_netsim::{
    Datagram, Delivery, FaultPlan, NetEvent, NetOutput, NetStats, Network, NodeId, ProtoHeader,
    IP_HEADER, TCP_HEADER,
};
use renofs_sim::cpu::CpuCategory;
use renofs_sim::stats::Running;
use renofs_sim::{profile, AdaptiveQueue, SimDuration, SimTime};
use renofs_sunrpc::{frame_record, peek_xid_kind, MsgKind, RecordReader, NFS_PORT};
use renofs_transport::{TcpConfig, TcpConn, UdpAction, UdpRpcClient, UdpRpcConfig, UdpStats};

use crate::costs;
use crate::host::{udp_fragments, Host, HostProfile};
use crate::proto::NfsProc;
use crate::server::{NfsServer, ServerConfig};
use crate::syscalls::{RpcError, RpcResult, Syscalls, Ticket};

/// Which internetwork configuration to build (the paper's three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// Configuration 1: one Ethernet.
    SameLan,
    /// Configuration 2: Ethernets + 80 Mbit token ring + 2 routers.
    TokenRing,
    /// Configuration 3: + 56 Kbps serial link + 3 routers.
    SlowLink,
}

/// Which RPC transport the mount uses.
#[derive(Clone, Debug)]
pub enum TransportKind {
    /// Classic NFS/UDP: fixed mount-time RTO.
    UdpFixed {
        /// The mount `timeo`.
        timeo: SimDuration,
    },
    /// The paper's tuned NFS/UDP: per-class dynamic RTO + congestion
    /// window, no slow start.
    UdpDynamic {
        /// The mount `timeo` (fallback for unestimated classes).
        timeo: SimDuration,
    },
    /// A custom UDP configuration (for the ablation experiments).
    UdpCustom(UdpRpcConfig),
    /// NFS over TCP with record marking.
    Tcp,
}

/// Mount semantics: whether RPCs block forever or time out.
///
/// The BSD `mount_nfs` flags this models: a **hard** mount (the default)
/// retries forever, printing `server not responding` after `retrans`
/// attempts and `server ok` when the server answers again; a **soft**
/// mount abandons a call after `retrans` transmissions and fails the
/// syscall with `ETIMEDOUT` ([`RpcError::TimedOut`] here). Soft semantics
/// apply to the UDP transports; a TCP mount is inherently hard in this
/// simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MountOptions {
    /// Soft mount: give up after `retrans` transmissions.
    pub soft: bool,
    /// Transmission budget (soft) / console-report threshold (hard).
    pub retrans: u32,
}

impl MountOptions {
    /// Hard mount, BSD default `retrans`.
    pub fn hard() -> Self {
        MountOptions {
            soft: false,
            retrans: 4,
        }
    }

    /// Soft mount with the given transmission budget.
    pub fn soft(retrans: u32) -> Self {
        MountOptions {
            soft: true,
            retrans: retrans.max(1),
        }
    }
}

impl Default for MountOptions {
    fn default() -> Self {
        MountOptions::hard()
    }
}

/// What a client console event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientEventKind {
    /// `nfs: server not responding` — a hard mount crossed its `retrans`
    /// threshold and is still retrying.
    NotResponding,
    /// `nfs: server ok` — a reply arrived after `NotResponding`.
    ServerOk,
    /// A soft-mount call exhausted its budget and failed with
    /// `ETIMEDOUT`.
    SoftTimeout,
    /// The fault plan crashed the server.
    ServerCrashed,
    /// The server rebooted (volatile state lost, disk intact).
    ServerRebooted,
}

/// A timestamped console event, in emission order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: ClientEventKind,
}

/// World construction parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Internetwork layout.
    pub topology: TopologyKind,
    /// Cross-traffic and loss levels.
    pub background: Background,
    /// RPC transport.
    pub transport: TransportKind,
    /// Server software configuration.
    pub server: ServerConfig,
    /// Server machine.
    pub server_host: HostProfile,
    /// Client machine (every client in the community uses this profile).
    pub client_host: HostProfile,
    /// Number of client machines mounting the server.
    pub clients: usize,
    /// Number of server machines the export namespace is sharded over.
    /// 1 (the default) is the paper's single box; M > 1 builds a fleet
    /// with per-server nfsd pools, dup caches and boot epochs.
    pub servers: usize,
    /// nfsd daemon contexts on the server; requests beyond this
    /// concurrency queue FIFO. 0 = unbounded (the pre-pool model used by
    /// the calibrated single-client experiments).
    pub nfsds: usize,
    /// Number of biods (asynchronous I/O daemons) on each client; 0
    /// makes asynchronous requests run synchronously (write-through).
    pub biods: usize,
    /// Master random seed.
    pub seed: u64,
    /// Scheduled fault timeline. The empty default injects nothing and
    /// leaves runs byte-identical to a fault-free world.
    pub faults: FaultPlan,
    /// Hard/soft mount semantics for the UDP transports.
    pub mount: MountOptions,
    /// Read by nothing: every world runs on the calling thread's single
    /// event loop. The field survives only because the benchmark under
    /// `perfbench/` still assigns it, and that package changes only with
    /// the benchmark itself; it is removed at the next benchmark change.
    pub sim_threads: usize,
}

impl WorldConfig {
    /// The paper's baseline: Reno client and server, MicroVAXIIs, one
    /// LAN, dynamic-RTO UDP.
    pub fn baseline() -> Self {
        WorldConfig {
            topology: TopologyKind::SameLan,
            background: Background::quiet(),
            transport: TransportKind::UdpDynamic {
                timeo: SimDuration::from_secs(1),
            },
            server: ServerConfig::reno(),
            server_host: HostProfile::microvax_tuned(),
            client_host: HostProfile::microvax_tuned(),
            clients: 1,
            servers: 1,
            nfsds: 0,
            biods: 4,
            seed: 42,
            faults: FaultPlan::new(),
            mount: MountOptions::hard(),
            sim_threads: 1,
        }
    }
}

/// Requests from workload threads.
enum Req {
    Now,
    Sleep(SimDuration),
    ChargeCpu(SimDuration),
    Rpc(usize, NfsProc, MbufChain),
    RpcAsync(usize, NfsProc, MbufChain),
    AwaitTicket(u64),
    PollTicket(u64),
    ForgetTicket(u64),
    WaitAllAsync,
    LocalDisk {
        bytes: usize,
        write: bool,
        seq: bool,
    },
    Finished,
}

/// Responses to workload threads.
enum Resp {
    Time(SimTime),
    Unit,
    Chain(RpcResult),
    MaybeChain(Option<RpcResult>),
    Ticket(u64),
}

/// Who is waiting for an RPC reply.
#[derive(Clone, Copy, Debug)]
enum Waker {
    Sync(usize),
    Async(u64),
}

/// World events.
// Payload-carrying variants dominate the size; events are short-lived
// heap-queue entries, so boxing would only add indirection.
#[allow(clippy::large_enum_variant)]
enum Ev {
    Net(NetEvent),
    Wake(usize, Resp),
    AsyncDone {
        client: usize,
        ticket: u64,
        result: RpcResult,
    },
    UdpTimer {
        client: usize,
        server: usize,
        xid: u32,
        gen: u64,
    },
    TcpTimer {
        client: usize,
        server: usize,
        server_side: bool,
        gen: u64,
    },
    /// A message finishes its send-side CPU and enters the network.
    Send {
        src: NodeId,
        dst: NodeId,
        proto: ProtoHeader,
        payload: MbufChain,
    },
    /// An nfsd daemon context handed its reply to the transport and
    /// returns to the pool.
    NfsdDone {
        server: usize,
    },
    /// Fault plan: a server dies, losing volatile state.
    ServerCrash {
        server: usize,
        downtime: SimDuration,
    },
    /// Fault plan: a server finishes rebooting.
    ServerReboot {
        server: usize,
    },
}

// The UDP client is large but there are only a handful per world.
#[allow(clippy::large_enum_variant)]
enum Transport {
    Udp(UdpRpcClient),
    Tcp(Box<TcpState>),
}

struct TcpState {
    client: TcpConn,
    server: TcpConn,
    client_reader: RecordReader,
    server_reader: RecordReader,
    mss: usize,
}

/// Everything one client machine owns: its node, host model, transport
/// endpoint, source port, in-flight RPC table, console log, and biod
/// accounting. Index 0 is "the" client of the single-client experiments.
struct ClientRt {
    node: NodeId,
    host: Host,
    /// One transport per server: independent XID streams and RTO state
    /// per (client, server) pair, so two shards can never observe — or
    /// be confused by — each other's xids.
    transports: Vec<Transport>,
    sport: u16,
    /// Path MTU toward each server (fragmentation costing).
    mtus: Vec<usize>,
    /// In-flight RPCs by (server, xid). Per-client: independent machines
    /// draw xids from independent counters and routinely collide, and so
    /// do one machine's per-server streams.
    pending: HashMap<(usize, u32), Waker>,
    events: Vec<ClientEvent>,
    async_outstanding: usize,
    parked_async: VecDeque<(usize, usize, NfsProc, MbufChain)>,
    wait_all: Vec<usize>,
}

/// A request waiting for a free nfsd daemon context.
struct QueuedRpc {
    request: MbufChain,
    client: usize,
    tcp: bool,
    arrival: SimTime,
}

/// nfsd service-pool accounting: how long requests waited for a daemon
/// and how long daemons spent producing each reply.
#[derive(Clone, Debug, Default)]
pub struct NfsdStats {
    /// Requests fully served (handed a reply to the transport).
    pub served: u64,
    /// Requests that had to wait for a daemon.
    pub queued: u64,
    /// High-water mark of the wait queue.
    pub peak_queue: usize,
    /// Per-request queueing delay in ms (0.0 when a daemon was free);
    /// kept as raw samples so harnesses can report exact percentiles.
    pub queue_delays_ms: Vec<f64>,
    /// Daemon occupancy per request: service start to reply handoff.
    pub service_ms: Running,
}

impl NfsdStats {
    /// Exact queue-delay quantile (0.0 when nothing was served).
    pub fn queue_delay_quantile(&self, q: f64) -> f64 {
        if self.queue_delays_ms.is_empty() {
            return 0.0;
        }
        let mut v = self.queue_delays_ms.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN delays"));
        let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }
}

struct ThreadState {
    resp_tx: Sender<Resp>,
    handle: Option<JoinHandle<()>>,
}

/// The syscall endpoint handed to each workload thread.
pub struct WorldSys {
    id: usize,
    req_tx: Sender<(usize, Req)>,
    resp_rx: Receiver<Resp>,
}

impl WorldSys {
    fn ask(&mut self, req: Req) -> Resp {
        self.req_tx.send((self.id, req)).expect("world alive");
        self.resp_rx.recv().expect("world alive")
    }
}

impl Syscalls for WorldSys {
    fn now(&mut self) -> SimTime {
        match self.ask(Req::Now) {
            Resp::Time(t) => t,
            _ => unreachable!(),
        }
    }

    fn charge_cpu(&mut self, d: SimDuration) {
        match self.ask(Req::ChargeCpu(d)) {
            Resp::Unit => {}
            _ => unreachable!(),
        }
    }

    fn sleep(&mut self, d: SimDuration) {
        match self.ask(Req::Sleep(d)) {
            Resp::Unit => {}
            _ => unreachable!(),
        }
    }

    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.rpc_to(0, proc, msg)
    }

    fn rpc_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        match self.ask(Req::Rpc(server, proc, msg)) {
            Resp::Chain(c) => c,
            _ => unreachable!(),
        }
    }

    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.rpc_async_to(0, proc, msg)
    }

    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        match self.ask(Req::RpcAsync(server, proc, msg)) {
            Resp::Ticket(t) => Ticket(t),
            _ => unreachable!(),
        }
    }

    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        match self.ask(Req::AwaitTicket(t.0)) {
            Resp::Chain(c) => c,
            _ => unreachable!(),
        }
    }

    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        match self.ask(Req::PollTicket(t.0)) {
            Resp::MaybeChain(c) => c,
            _ => unreachable!(),
        }
    }

    fn forget_ticket(&mut self, t: Ticket) {
        match self.ask(Req::ForgetTicket(t.0)) {
            Resp::Unit => {}
            _ => unreachable!(),
        }
    }

    fn wait_all_async(&mut self) {
        match self.ask(Req::WaitAllAsync) {
            Resp::Unit => {}
            _ => unreachable!(),
        }
    }

    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool) {
        match self.ask(Req::LocalDisk {
            bytes,
            write,
            seq: sequential,
        }) {
            Resp::Unit => {}
            _ => unreachable!(),
        }
    }
}

/// One shard's server machine: node, host model, NFS server instance
/// (its own dup cache and boot epoch), crash state, and nfsd service
/// pool. Index 0 is "the" server of the single-server experiments.
struct ServerRt {
    node: NodeId,
    host: Host,
    server: NfsServer,
    up: bool,
    nfsd_busy: usize,
    nfsd_queue: VecDeque<QueuedRpc>,
    nfsd_stats: NfsdStats,
}

/// The server side of the world: the shared internetwork and every
/// server machine of the fleet, plus the buffers the network path
/// reuses.
struct Hub {
    net: Network,
    servers: Vec<ServerRt>,
    /// Node index -> client index, for demultiplexing deliveries.
    node_client: Vec<Option<usize>>,
    /// Node index -> server index, same.
    node_server: Vec<Option<usize>>,
    scratch: CopyMeter,
    /// Reusable network-step output: drained after every absorb, so the
    /// per-hop path allocates nothing once the vectors reach working size.
    net_out: NetOutput,
}

/// The simulation world.
pub struct World {
    cfg: WorldConfig,
    /// The one pending-event set every machine of the world shares.
    queue: AdaptiveQueue<Ev>,
    hub: Hub,
    clients: Vec<ClientRt>,
    // RPC bookkeeping (tickets are unique world-wide).
    tickets_done: HashMap<u64, RpcResult>,
    ticket_waiters: HashMap<u64, usize>,
    forgotten: HashSet<u64>,
    next_ticket: u64,
    // Threads.
    req_tx: Sender<(usize, Req)>,
    req_rx: Receiver<(usize, Req)>,
    threads: Vec<ThreadState>,
    /// Which client machine each workload thread runs on.
    thread_client: Vec<usize>,
    live_threads: usize,
    ready: VecDeque<(usize, Resp)>,
    started: bool,
    /// Reusable UDP-transport action buffer, drained after every
    /// transport step.
    udp_actions: Vec<UdpAction>,
}

/// Capacity hints carried across the `World`s of a parameter sweep, so
/// repeated cells start with buffers already sized to the workload
/// instead of re-growing them from empty every time.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorldScratch {
    /// Peak event-queue depth observed.
    pub queue_cap: usize,
    /// Peak network-output event burst observed.
    pub net_events_cap: usize,
}

impl WorldScratch {
    /// Folds a finished world's high-water marks into the hints.
    pub fn observe(&mut self, world: &World) {
        self.queue_cap = self.queue_cap.max(world.queue.peak_depth());
        self.net_events_cap = self.net_events_cap.max(world.hub.net_out.events.capacity());
    }
}

/// Stable per-client split of the world seed; client 0 keeps the
/// unsalted stream so single-client worlds stay byte-identical.
fn client_salt(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl World {
    /// Builds a world; for TCP every client's connection is established
    /// before returning.
    pub fn new(cfg: WorldConfig) -> Self {
        Self::with_scratch(cfg, &WorldScratch::default())
    }

    /// [`World::new`] with buffer capacity hints from earlier runs.
    pub fn with_scratch(cfg: WorldConfig, scratch: &WorldScratch) -> Self {
        let n = cfg.clients.max(1);
        let m = cfg.servers.max(1);
        let (mut topo, client_nodes, server_nodes) = match cfg.topology {
            TopologyKind::SameLan => presets::same_lan_nm(&cfg.background, n, m),
            TopologyKind::TokenRing => presets::token_ring_path_nm(&cfg.background, n, m),
            TopologyKind::SlowLink => presets::slow_link_path_nm(&cfg.background, n, m),
        };
        for &c in &client_nodes {
            for &s in &server_nodes {
                topo.apply_faults(&cfg.faults, c, s);
            }
        }
        let mut node_client = vec![None; topo.node_count()];
        for (i, &c) in client_nodes.iter().enumerate() {
            node_client[c.0] = Some(i);
        }
        let mut node_server = vec![None; topo.node_count()];
        for (j, &s) in server_nodes.iter().enumerate() {
            node_server[s.0] = Some(j);
        }
        // Soft/hard mount flags configure the UDP transport's retry
        // budget; TCP mounts are hard by construction.
        let mounted = |mut c: UdpRpcConfig| {
            c.soft = cfg.mount.soft;
            c.retrans = cfg.mount.retrans.max(1);
            c
        };
        let mut clients = Vec::with_capacity(n);
        for (i, &node) in client_nodes.iter().enumerate() {
            let mut transports = Vec::with_capacity(m);
            let mut mtus = Vec::with_capacity(m);
            for (j, &snode) in server_nodes.iter().enumerate() {
                let mtu = topo.path_mtu(node, snode).unwrap_or(1500);
                // Per-(client, server) XID stream; server 0 keeps the
                // historical seed so M = 1 stays byte-identical.
                let xid_seed = (i + 1) as u32 ^ ((j as u32) << 20);
                let transport = match &cfg.transport {
                    TransportKind::UdpFixed { timeo } => Transport::Udp(UdpRpcClient::new(
                        mounted(UdpRpcConfig::fixed(*timeo)),
                        xid_seed,
                    )),
                    TransportKind::UdpDynamic { timeo } => Transport::Udp(UdpRpcClient::new(
                        mounted(UdpRpcConfig::dynamic_paper(*timeo)),
                        xid_seed,
                    )),
                    TransportKind::UdpCustom(c) => {
                        Transport::Udp(UdpRpcClient::new(mounted(c.clone()), xid_seed))
                    }
                    TransportKind::Tcp => {
                        let mss = mtu - IP_HEADER - TCP_HEADER;
                        let tcp_cfg = TcpConfig::for_mss(mss);
                        Transport::Tcp(Box::new(TcpState {
                            // The client connection is a placeholder until
                            // `tcp_connect` replaces it with the active
                            // opener and pumps the handshake.
                            client: TcpConn::server(tcp_cfg, 0),
                            server: TcpConn::server(tcp_cfg, 88_000),
                            client_reader: RecordReader::new(),
                            server_reader: RecordReader::new(),
                            mss,
                        }))
                    }
                };
                transports.push(transport);
                mtus.push(mtu);
            }
            clients.push(ClientRt {
                node,
                host: Host::new(cfg.client_host, cfg.seed ^ 0xc11e ^ client_salt(i)),
                transports,
                sport: 1023 + i as u16,
                mtus,
                pending: HashMap::new(),
                events: Vec::new(),
                async_outstanding: 0,
                parked_async: VecDeque::new(),
                wait_all: Vec::new(),
            });
        }
        let net = Network::new(topo, cfg.seed ^ 0x6e65_7473);
        let servers: Vec<ServerRt> = server_nodes
            .iter()
            .enumerate()
            .map(|(j, &snode)| {
                let mut server = NfsServer::new(cfg.server, SimTime::ZERO);
                server.set_client_count(n);
                ServerRt {
                    node: snode,
                    // Server 0 keeps the unsalted stream: M = 1 worlds
                    // stay byte-identical to the pre-shard single box.
                    host: Host::new(cfg.server_host, cfg.seed ^ 0x5e17 ^ client_salt(j)),
                    server,
                    up: true,
                    nfsd_busy: 0,
                    nfsd_queue: VecDeque::new(),
                    nfsd_stats: NfsdStats::default(),
                }
            })
            .collect();
        let (req_tx, req_rx) = channel();
        let mut world = World {
            hub: Hub {
                net,
                servers,
                node_client,
                node_server,
                scratch: CopyMeter::new(),
                net_out: NetOutput {
                    events: Vec::with_capacity(scratch.net_events_cap),
                    delivered: Vec::new(),
                },
            },
            cfg,
            queue: AdaptiveQueue::with_capacity(scratch.queue_cap),
            clients,
            tickets_done: HashMap::new(),
            ticket_waiters: HashMap::new(),
            forgotten: HashSet::new(),
            next_ticket: 1,
            req_tx,
            req_rx,
            threads: Vec::new(),
            thread_client: Vec::new(),
            live_threads: 0,
            ready: VecDeque::new(),
            started: false,
            udp_actions: Vec::new(),
        };
        // Fault-plan crashes hit server 0 (the paper's box; sharded
        // worlds crash their primary shard).
        for (at, downtime) in world.cfg.faults.server_crashes() {
            world.queue.push(
                at,
                Ev::ServerCrash {
                    server: 0,
                    downtime,
                },
            );
        }
        if matches!(world.cfg.transport, TransportKind::Tcp) {
            for ci in 0..world.clients.len() {
                for sj in 0..world.hub.servers.len() {
                    world.tcp_connect(ci, sj);
                }
            }
        }
        world
    }

    fn tcp_connect(&mut self, ci: usize, sj: usize) {
        let mss = match &self.clients[ci].transports[sj] {
            Transport::Tcp(t) => t.mss,
            _ => unreachable!(),
        };
        let (conn, out) = TcpConn::client(TcpConfig::for_mss(mss), 11_000, self.queue.now());
        if let Transport::Tcp(t) = &mut self.clients[ci].transports[sj] {
            t.client = conn;
        }
        self.apply_tcp_out(ci, sj, out, true, self.queue.now());
        // Pump the event loop until established.
        for _ in 0..10_000 {
            let established = match &self.clients[ci].transports[sj] {
                Transport::Tcp(t) => t.client.is_established() && t.server.is_established(),
                _ => true,
            };
            if established {
                return;
            }
            match self.queue.pop() {
                Some((t, ev)) => self.handle_event(t, ev),
                None => break,
            }
        }
        panic!("TCP connection failed to establish");
    }

    /// Server 0's root file handle (as the MOUNT protocol provides).
    pub fn root_handle(&self) -> crate::proto::FileHandle {
        self.root_handle_of(0)
    }

    /// A specific shard's root file handle.
    pub fn root_handle_of(&self, sj: usize) -> crate::proto::FileHandle {
        self.hub.servers[sj].server.root_handle()
    }

    /// Direct access to server 0 (test preloading, stats).
    pub fn server_mut(&mut self) -> &mut NfsServer {
        &mut self.hub.servers[0].server
    }

    /// Direct access to a specific shard's server.
    pub fn server_of_mut(&mut self, sj: usize) -> &mut NfsServer {
        &mut self.hub.servers[sj].server
    }

    /// Number of server machines in the world.
    pub fn server_count(&self) -> usize {
        self.hub.servers.len()
    }

    /// Lifetime queue counters: `(events popped, peak pending depth)`.
    pub fn queue_stats(&self) -> (u64, usize) {
        (self.queue.pops(), self.queue.peak_depth())
    }

    /// Starts recording event-queue operations (for replay benchmarks).
    pub fn start_queue_trace(&mut self) {
        self.queue.start_trace();
    }

    /// Stops recording and returns the queue operation stream.
    pub fn take_queue_trace(&mut self) -> Vec<renofs_sim::queue::QueueOp> {
        self.queue.take_trace()
    }

    /// Read access to server 0.
    pub fn server(&self) -> &NfsServer {
        &self.hub.servers[0].server
    }

    /// Read access to a specific shard's server.
    pub fn server_of(&self, sj: usize) -> &NfsServer {
        &self.hub.servers[sj].server
    }

    /// Server 0's machine (CPU/disk stats).
    pub fn server_host(&self) -> &Host {
        &self.hub.servers[0].host
    }

    /// A specific shard's server machine.
    pub fn server_host_of(&self, sj: usize) -> &Host {
        &self.hub.servers[sj].host
    }

    /// Mutable server-0 machine access (accounting resets).
    pub fn server_host_mut(&mut self) -> &mut Host {
        &mut self.hub.servers[0].host
    }

    /// Number of client machines in the world.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// Client 0's machine (the single-client experiments' client).
    pub fn client_host(&self) -> &Host {
        &self.clients[0].host
    }

    /// Mutable access to client 0's machine.
    pub fn client_host_mut(&mut self) -> &mut Host {
        &mut self.clients[0].host
    }

    /// A specific client's machine.
    pub fn client_host_of(&self, ci: usize) -> &Host {
        &self.clients[ci].host
    }

    /// Network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.hub.net.stats()
    }

    /// Client 0's UDP transport statistics, if the mount uses UDP.
    pub fn udp_stats(&self) -> Option<UdpStats> {
        self.udp_stats_of(0)
    }

    /// A specific client's UDP transport statistics toward server 0.
    pub fn udp_stats_of(&self, ci: usize) -> Option<UdpStats> {
        self.udp_stats_to(ci, 0)
    }

    /// A specific (client, server) pair's UDP transport statistics.
    pub fn udp_stats_to(&self, ci: usize, sj: usize) -> Option<UdpStats> {
        match &self.clients[ci].transports[sj] {
            Transport::Udp(u) => Some(u.stats()),
            _ => None,
        }
    }

    /// Current RTO for a class (Graph 7 traces), if client 0 uses UDP.
    pub fn current_rto(&self, class: renofs_transport::RpcClass) -> Option<SimDuration> {
        match &self.clients[0].transports[0] {
            Transport::Udp(u) => Some(u.current_rto(class)),
            _ => None,
        }
    }

    /// Client 0's TCP statistics, if the mount uses TCP.
    pub fn tcp_stats(&self) -> Option<renofs_transport::tcp::TcpStats> {
        self.tcp_stats_of(0)
    }

    /// A specific client's TCP statistics toward server 0.
    pub fn tcp_stats_of(&self, ci: usize) -> Option<renofs_transport::tcp::TcpStats> {
        self.tcp_stats_to(ci, 0)
    }

    /// A specific (client, server) pair's TCP transport statistics.
    pub fn tcp_stats_to(&self, ci: usize, sj: usize) -> Option<renofs_transport::tcp::TcpStats> {
        match &self.clients[ci].transports[sj] {
            Transport::Tcp(t) => Some(t.client.stats()),
            _ => None,
        }
    }

    /// Server 0's nfsd service-pool accounting.
    pub fn nfsd_stats(&self) -> &NfsdStats {
        &self.hub.servers[0].nfsd_stats
    }

    /// A specific shard's nfsd service-pool accounting.
    pub fn nfsd_stats_of(&self, sj: usize) -> &NfsdStats {
        &self.hub.servers[sj].nfsd_stats
    }

    /// Clears nfsd pool accounting (warm-up windows), like the host
    /// models' accounting resets.
    pub fn reset_nfsd_accounting(&mut self) {
        for s in &mut self.hub.servers {
            s.nfsd_stats = NfsdStats::default();
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Client 0's timestamped console-event log (`server not
    /// responding`, `server ok`, soft timeouts, crashes, reboots), in
    /// emission order.
    pub fn client_events(&self) -> &[ClientEvent] {
        &self.clients[0].events
    }

    /// A specific client's console-event log.
    pub fn client_events_of(&self, ci: usize) -> &[ClientEvent] {
        &self.clients[ci].events
    }

    /// Whether server 0 is currently up (fault plans can crash it).
    pub fn server_is_up(&self) -> bool {
        self.hub.servers[0].up
    }

    /// Whether a specific shard's server is currently up.
    pub fn server_is_up_of(&self, sj: usize) -> bool {
        self.hub.servers[sj].up
    }

    /// Spawns a workload thread on client 0. It starts suspended;
    /// [`World::run`] schedules it.
    pub fn spawn<F>(&mut self, f: F) -> usize
    where
        F: FnOnce(&mut WorldSys) + Send + 'static,
    {
        self.spawn_on(0, f)
    }

    /// Spawns a workload thread on the given client machine. It starts
    /// suspended; [`World::run`] schedules it.
    pub fn spawn_on<F>(&mut self, client: usize, f: F) -> usize
    where
        F: FnOnce(&mut WorldSys) + Send + 'static,
    {
        assert!(client < self.clients.len(), "no such client machine");
        let id = self.threads.len();
        let (resp_tx, resp_rx) = channel();
        let req_tx = self.req_tx.clone();
        let handle = std::thread::spawn(move || {
            let mut sys = WorldSys {
                id,
                req_tx,
                resp_rx,
            };
            // Wait for the start signal so thread startup order cannot
            // perturb determinism.
            match sys.resp_rx.recv() {
                Ok(Resp::Unit) => {}
                _ => return,
            }
            // `Finished` must reach the world even when the workload
            // panics — otherwise the event loop waits forever for this
            // thread's next request. The drop guard fires during unwind
            // too; `run` then surfaces the panic from `join`.
            struct Finish {
                id: usize,
                tx: Sender<(usize, Req)>,
            }
            impl Drop for Finish {
                fn drop(&mut self) {
                    let _ = self.tx.send((self.id, Req::Finished));
                }
            }
            let _fin = Finish {
                id,
                tx: sys.req_tx.clone(),
            };
            f(&mut sys);
        });
        self.threads.push(ThreadState {
            resp_tx,
            handle: Some(handle),
        });
        self.thread_client.push(client);
        self.live_threads += 1;
        id
    }

    /// Runs the world until virtual time reaches `t` (or every thread
    /// finishes). Used by harnesses that reset CPU accounting after a
    /// warm-up interval. [`World::run`] must still be called afterwards.
    pub fn run_until(&mut self, t: SimTime) {
        if !self.started {
            self.release_threads();
        }
        loop {
            if let Some((tid, resp)) = self.ready.pop_front() {
                self.resume(tid, resp);
                continue;
            }
            if self.live_threads == 0 {
                return;
            }
            match self.queue.peek_time() {
                Some(pt) if pt <= t => {
                    let (at, ev) = self.queue.pop().expect("peeked");
                    self.handle_event(at, ev);
                }
                _ => return,
            }
        }
    }

    fn release_threads(&mut self) {
        self.started = true;
        for tid in 0..self.threads.len() {
            self.ready.push_back((tid, Resp::Unit));
        }
    }

    /// Runs the world until every workload thread has finished: strict
    /// hand-off between the event loop and exactly one runnable workload
    /// thread.
    pub fn run(&mut self) {
        if !self.started {
            self.release_threads();
        }
        while self.live_threads > 0 {
            if let Some((tid, resp)) = self.ready.pop_front() {
                self.resume(tid, resp);
                continue;
            }
            match self.queue.pop() {
                Some((t, ev)) => self.handle_event(t, ev),
                None => panic!("deadlock: threads blocked with no pending events"),
            }
        }
        for t in &mut self.threads {
            if let Some(h) = t.handle.take() {
                if let Err(payload) = h.join() {
                    // Re-raise a workload panic on the caller's thread so
                    // tests fail loudly instead of reporting half a run.
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }

    /// Sends `resp` to a blocked thread and services its requests until
    /// it blocks again (or finishes).
    fn resume(&mut self, tid: usize, resp: Resp) {
        let _sp = profile::span(profile::Subsystem::Client);
        if self.threads[tid].resp_tx.send(resp).is_err() {
            return;
        }
        loop {
            let (id, req) = self.req_rx.recv().expect("thread alive");
            debug_assert_eq!(id, tid, "only one thread runnable at a time");
            let ci = self.thread_client[tid];
            match req {
                Req::Now => {
                    let t = self.queue.now();
                    let _ = self.threads[tid].resp_tx.send(Resp::Time(t));
                }
                Req::PollTicket(t) => {
                    let r = self.tickets_done.remove(&t);
                    let _ = self.threads[tid].resp_tx.send(Resp::MaybeChain(r));
                }
                Req::ForgetTicket(t) => {
                    if self.tickets_done.remove(&t).is_none() {
                        self.forgotten.insert(t);
                    }
                    let _ = self.threads[tid].resp_tx.send(Resp::Unit);
                }
                Req::Sleep(d) => {
                    let at = self.queue.now() + d;
                    self.queue.push(at, Ev::Wake(tid, Resp::Unit));
                    return;
                }
                Req::ChargeCpu(d) => {
                    let done =
                        self.clients[ci]
                            .host
                            .cpu
                            .charge(self.queue.now(), d, CpuCategory::User);
                    self.queue.push(done, Ev::Wake(tid, Resp::Unit));
                    return;
                }
                Req::LocalDisk { bytes, write, seq } => {
                    let done = self.clients[ci]
                        .host
                        .disk_io(self.queue.now(), bytes, write, seq);
                    self.queue.push(done, Ev::Wake(tid, Resp::Unit));
                    return;
                }
                Req::Rpc(sj, proc, msg) => {
                    self.start_rpc(ci, sj, Waker::Sync(tid), proc, msg);
                    return;
                }
                Req::RpcAsync(sj, proc, msg) => {
                    let slots = self.cfg.biods;
                    if slots == 0 {
                        // No biods: the process itself performs the RPC,
                        // blocking until completion (write-through
                        // behaviour of "async,0biod").
                        let ticket = self.next_ticket;
                        self.next_ticket += 1;
                        self.clients[ci].async_outstanding += 1;
                        self.ticket_block_thread(tid, ticket);
                        self.start_rpc(ci, sj, Waker::Async(ticket), proc, msg);
                        return;
                    }
                    if self.clients[ci].async_outstanding < slots {
                        let ticket = self.next_ticket;
                        self.next_ticket += 1;
                        self.clients[ci].async_outstanding += 1;
                        self.start_rpc(ci, sj, Waker::Async(ticket), proc, msg);
                        let _ = self.threads[tid].resp_tx.send(Resp::Ticket(ticket));
                    } else {
                        self.clients[ci]
                            .parked_async
                            .push_back((tid, sj, proc, msg));
                        return;
                    }
                }
                Req::AwaitTicket(t) => {
                    if let Some(reply) = self.tickets_done.remove(&t) {
                        let _ = self.threads[tid].resp_tx.send(Resp::Chain(reply));
                    } else {
                        self.ticket_waiters.insert(t, tid);
                        return;
                    }
                }
                Req::WaitAllAsync => {
                    if self.clients[ci].async_outstanding == 0 {
                        let _ = self.threads[tid].resp_tx.send(Resp::Unit);
                    } else {
                        self.clients[ci].wait_all.push(tid);
                        return;
                    }
                }
                Req::Finished => {
                    self.live_threads -= 1;
                    return;
                }
            }
        }
    }

    /// Marks a thread as blocked waiting for the given ticket while also
    /// expecting the `Ticket` response first (0-biod synchronous case).
    fn ticket_block_thread(&mut self, tid: usize, ticket: u64) {
        // The thread will receive Ticket(t) when the RPC completes; it
        // then immediately awaits the ticket, which is already done.
        self.ticket_waiters.insert(ticket, usize::MAX - tid);
    }

    // ----- RPC initiation and completion ---------------------------------

    fn start_rpc(&mut self, ci: usize, sj: usize, waker: Waker, proc: NfsProc, msg: MbufChain) {
        let Ok((xid, MsgKind::Call)) = peek_xid_kind(&msg) else {
            panic!("workload issued a malformed RPC message");
        };
        debug_assert!(
            !self.clients[ci].pending.contains_key(&(sj, xid)),
            "duplicate xid {xid} in flight on client {ci} toward server {sj}"
        );
        self.clients[ci].pending.insert((sj, xid), waker);
        let now = self.queue.now();
        match &mut self.clients[ci].transports[sj] {
            Transport::Udp(u) => {
                let mut actions = std::mem::take(&mut self.udp_actions);
                u.call(now, xid, proc.rto_class(), msg, &mut actions);
                self.apply_udp_actions(ci, sj, &mut actions);
                self.udp_actions = actions;
            }
            Transport::Tcp(_) => {
                // Once-per-record socket/codec work.
                let t = self.clients[ci].host.charge_record(now);
                let framed = frame_record(msg, &mut self.hub.scratch);
                let out = match &mut self.clients[ci].transports[sj] {
                    Transport::Tcp(ts) => ts.client.send(framed, t),
                    _ => unreachable!(),
                };
                self.apply_tcp_out(ci, sj, out, true, t);
            }
        }
    }

    fn apply_udp_actions(&mut self, ci: usize, sj: usize, actions: &mut Vec<UdpAction>) {
        let now = self.queue.now();
        for action in actions.drain(..) {
            match action {
                UdpAction::Send { payload, .. } => {
                    let c = &mut self.clients[ci];
                    let frags = udp_fragments(payload.len(), c.mtus[sj]);
                    let done = c.host.charge_tx(now, &payload, frags, false);
                    let (src, sport) = (c.node, c.sport);
                    self.queue.push(
                        done,
                        Ev::Send {
                            src,
                            dst: self.hub.servers[sj].node,
                            proto: ProtoHeader::Udp {
                                sport,
                                dport: NFS_PORT,
                            },
                            payload,
                        },
                    );
                }
                UdpAction::ArmTimer { xid, gen, deadline } => {
                    self.queue.push(
                        deadline,
                        Ev::UdpTimer {
                            client: ci,
                            server: sj,
                            xid,
                            gen,
                        },
                    );
                }
                UdpAction::GiveUp { xid } => {
                    self.clients[ci].events.push(ClientEvent {
                        at: now,
                        kind: ClientEventKind::SoftTimeout,
                    });
                    self.finish_rpc(ci, sj, xid, Err(RpcError::TimedOut), now);
                }
                UdpAction::NotResponding { .. } => {
                    self.clients[ci].events.push(ClientEvent {
                        at: now,
                        kind: ClientEventKind::NotResponding,
                    });
                }
                UdpAction::ServerOk { .. } => {
                    self.clients[ci].events.push(ClientEvent {
                        at: now,
                        kind: ClientEventKind::ServerOk,
                    });
                }
            }
        }
    }

    fn apply_tcp_out(
        &mut self,
        ci: usize,
        sj: usize,
        out: renofs_transport::TcpOut,
        from_client: bool,
        at: SimTime,
    ) {
        // Received data first: `out` was produced by the `from_client`
        // side, so its received chunks belong to that side's record
        // reader — RPC replies on the client, requests on the server.
        for chunk in out.received {
            self.tcp_ingest(ci, sj, chunk, from_client, at);
        }
        if let Some((deadline, gen)) = out.arm_timer {
            self.queue.push(
                deadline,
                Ev::TcpTimer {
                    client: ci,
                    server: sj,
                    server_side: !from_client,
                    gen,
                },
            );
        }
        for seg in out.segments {
            let host = if from_client {
                &mut self.clients[ci].host
            } else {
                &mut self.hub.servers[sj].host
            };
            let done = host.charge_tcp_tx(at, &seg.payload);
            let csport = self.clients[ci].sport;
            let (sport, dport) = if from_client {
                (csport, NFS_PORT)
            } else {
                (NFS_PORT, csport)
            };
            let (src, dst) = if from_client {
                (self.clients[ci].node, self.hub.servers[sj].node)
            } else {
                (self.hub.servers[sj].node, self.clients[ci].node)
            };
            self.queue.push(
                done,
                Ev::Send {
                    src,
                    dst,
                    proto: ProtoHeader::Tcp {
                        sport,
                        dport,
                        seq: seg.seq,
                        ack: seg.ack,
                        window: seg.window,
                        flags: seg.flags,
                    },
                    payload: seg.payload,
                },
            );
        }
    }

    /// Feeds in-order stream data into the record reader of the side
    /// that received it.
    fn tcp_ingest(
        &mut self,
        ci: usize,
        sj: usize,
        chunk: MbufChain,
        receiver_is_client: bool,
        at: SimTime,
    ) {
        let mut records = Vec::new();
        if let Transport::Tcp(t) = &mut self.clients[ci].transports[sj] {
            let reader = if receiver_is_client {
                &mut t.client_reader
            } else {
                &mut t.server_reader
            };
            reader.push(chunk);
            while let Some(rec) = reader.next_record(&mut self.hub.scratch) {
                records.push(rec);
            }
        }
        for rec in records {
            // Once-per-record socket/codec work on the receiving side.
            let t = if receiver_is_client {
                self.clients[ci].host.charge_record(at)
            } else {
                self.hub.servers[sj].host.charge_record(at)
            };
            if receiver_is_client {
                self.client_rpc_reply(ci, sj, rec, t);
            } else {
                self.serve_request(rec, ci, sj, true, t);
            }
        }
    }

    fn client_rpc_reply(&mut self, ci: usize, sj: usize, reply: MbufChain, at: SimTime) {
        let _sp = profile::span(profile::Subsystem::Client);
        profile::count(profile::Subsystem::Client, 1);
        let Ok((xid, MsgKind::Reply)) = peek_xid_kind(&reply) else {
            return;
        };
        // For UDP the transport tracked RTTs itself; over TCP there is
        // no RPC-level bookkeeping to update.
        if let Transport::Udp(u) = &mut self.clients[ci].transports[sj] {
            let mut actions = std::mem::take(&mut self.udp_actions);
            let completed = u.on_reply(at, xid, reply, &mut actions);
            self.apply_udp_actions(ci, sj, &mut actions);
            self.udp_actions = actions;
            let Some(call) = completed else {
                return;
            };
            self.finish_rpc(ci, sj, xid, Ok(call.reply), at);
        } else {
            self.finish_rpc(ci, sj, xid, Ok(reply), at);
        }
    }

    fn finish_rpc(&mut self, ci: usize, sj: usize, xid: u32, result: RpcResult, at: SimTime) {
        let Some(waker) = self.clients[ci].pending.remove(&(sj, xid)) else {
            return;
        };
        match waker {
            Waker::Sync(tid) => {
                self.queue.push(at, Ev::Wake(tid, Resp::Chain(result)));
            }
            Waker::Async(ticket) => {
                self.queue.push(
                    at,
                    Ev::AsyncDone {
                        client: ci,
                        ticket,
                        result,
                    },
                );
            }
        }
    }

    /// Admits an RPC request to the nfsd pool: service starts now if a
    /// daemon context is free, otherwise the request queues FIFO.
    fn serve_request(
        &mut self,
        request: MbufChain,
        client: usize,
        sj: usize,
        tcp: bool,
        at: SimTime,
    ) {
        if self.cfg.nfsds > 0 {
            let srv = &mut self.hub.servers[sj];
            if srv.nfsd_busy >= self.cfg.nfsds {
                srv.nfsd_queue.push_back(QueuedRpc {
                    request,
                    client,
                    tcp,
                    arrival: at,
                });
                srv.nfsd_stats.queued += 1;
                srv.nfsd_stats.peak_queue = srv.nfsd_stats.peak_queue.max(srv.nfsd_queue.len());
                return;
            }
            srv.nfsd_busy += 1;
        }
        self.nfsd_serve(request, client, sj, tcp, at, at);
    }

    /// One nfsd daemon services a request: runs the server code, charges
    /// CPU and disk, and schedules the reply transmission.
    fn nfsd_serve(
        &mut self,
        request: MbufChain,
        client: usize,
        sj: usize,
        tcp: bool,
        arrival: SimTime,
        start: SimTime,
    ) {
        let _sp = profile::span(profile::Subsystem::Server);
        profile::count(profile::Subsystem::Server, 1);
        self.hub.servers[sj]
            .nfsd_stats
            .queue_delays_ms
            .push(start.since(arrival).as_millis_f64());
        let (reply, cost) =
            self.hub.servers[sj]
                .server
                .service_from(start, &request, client as u32);
        if reply.is_empty() {
            // Unparseable request: the daemon is immediately free again.
            if self.cfg.nfsds > 0 {
                self.queue.push(start, Ev::NfsdDone { server: sj });
            }
            return;
        }
        let host = &mut self.hub.servers[sj].host;
        let mut t = host.cpu.charge(
            start,
            costs::NFS_SERVICE_FIXED
                + costs::CACHE_SEARCH_STEP * cost.cache_steps
                + costs::DIR_SCAN_ENTRY * cost.dir_scan_entries,
            CpuCategory::Nfs,
        );
        if cost.bytes_copied > 0 {
            t = host.cpu.charge(
                t,
                costs::COPY_PER_BYTE * cost.bytes_copied,
                CpuCategory::BufCopy,
            );
        }
        for bytes in &cost.disk_reads {
            t = host.disk_io(t, *bytes, false, false);
        }
        let mut seq = false;
        for bytes in &cost.disk_writes {
            // Data blocks stream sequentially; metadata seeks.
            t = host.disk_io(t, *bytes, true, seq && *bytes > 512);
            seq = true;
        }
        let done;
        if tcp {
            let t = self.hub.servers[sj].host.charge_record(t);
            let framed = frame_record(reply, &mut self.hub.scratch);
            let out = match &mut self.clients[client].transports[sj] {
                Transport::Tcp(ts) => ts.server.send(framed, t),
                _ => unreachable!(),
            };
            self.apply_tcp_out(client, sj, out, false, t);
            done = t;
        } else {
            let c = &self.clients[client];
            let frags = udp_fragments(reply.len(), c.mtus[sj]);
            let (dst, dport) = (c.node, c.sport);
            done = self.hub.servers[sj].host.charge_tx(t, &reply, frags, false);
            self.queue.push(
                done,
                Ev::Send {
                    src: self.hub.servers[sj].node,
                    dst,
                    proto: ProtoHeader::Udp {
                        sport: NFS_PORT,
                        dport,
                    },
                    payload: reply,
                },
            );
        }
        self.hub.servers[sj].nfsd_stats.served += 1;
        self.hub.servers[sj]
            .nfsd_stats
            .service_ms
            .add(done.since(start).as_millis_f64());
        if self.cfg.nfsds > 0 {
            self.queue.push(done, Ev::NfsdDone { server: sj });
        }
    }

    // ----- event handling -------------------------------------------------

    fn handle_event(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::Wake(tid, resp) => self.ready.push_back((tid, resp)),
            Ev::AsyncDone {
                client,
                ticket,
                result,
            } => self.async_done(client, ticket, result),
            Ev::UdpTimer {
                client,
                server,
                xid,
                gen,
            } => {
                if let Transport::Udp(u) = &mut self.clients[client].transports[server] {
                    let mut actions = std::mem::take(&mut self.udp_actions);
                    u.on_timer(now, xid, gen, &mut actions);
                    self.apply_udp_actions(client, server, &mut actions);
                    self.udp_actions = actions;
                }
            }
            Ev::TcpTimer {
                client,
                server,
                server_side,
                gen,
            } => {
                let out = match &mut self.clients[client].transports[server] {
                    Transport::Tcp(t) => {
                        if server_side {
                            t.server.on_timer(gen, now)
                        } else {
                            t.client.on_timer(gen, now)
                        }
                    }
                    _ => return,
                };
                self.apply_tcp_out(client, server, out, !server_side, now);
            }
            Ev::Send {
                src,
                dst,
                proto,
                payload,
            } => {
                let _sp = profile::span(profile::Subsystem::Links);
                let id = self.hub.net.alloc_dgram_id();
                let mut out = std::mem::take(&mut self.hub.net_out);
                self.hub.net.send_into(
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
                self.absorb_net(&mut out);
                self.hub.net_out = out;
            }
            Ev::Net(nev) => {
                let _sp = profile::span(profile::Subsystem::Links);
                let mut out = std::mem::take(&mut self.hub.net_out);
                self.hub.net.handle_into(now, nev, &mut out);
                self.absorb_net(&mut out);
                self.hub.net_out = out;
            }
            Ev::NfsdDone { server } => {
                let srv = &mut self.hub.servers[server];
                srv.nfsd_busy = srv.nfsd_busy.saturating_sub(1);
                if srv.up {
                    if let Some(q) = srv.nfsd_queue.pop_front() {
                        srv.nfsd_busy += 1;
                        self.nfsd_serve(q.request, q.client, server, q.tcp, q.arrival, now);
                    }
                }
            }
            Ev::ServerCrash { server, downtime } => {
                let srv = &mut self.hub.servers[server];
                srv.up = false;
                // Requests waiting for a daemon die with the machine;
                // the clients retransmit them after the reboot.
                srv.nfsd_queue.clear();
                for c in &mut self.clients {
                    c.events.push(ClientEvent {
                        at: now,
                        kind: ClientEventKind::ServerCrashed,
                    });
                }
                self.queue.push(now + downtime, Ev::ServerReboot { server });
            }
            Ev::ServerReboot { server } => {
                // Volatile state (name cache, buffer cache, dup cache)
                // is lost; the on-disk file system survives.
                let srv = &mut self.hub.servers[server];
                srv.server.reboot();
                srv.up = true;
                for c in &mut self.clients {
                    c.events.push(ClientEvent {
                        at: now,
                        kind: ClientEventKind::ServerRebooted,
                    });
                }
            }
        }
    }

    fn absorb_net(&mut self, out: &mut NetOutput) {
        profile::count(profile::Subsystem::Links, out.events.len() as u64);
        for (t, ev) in out.events.drain(..) {
            self.queue.push(t, Ev::Net(ev));
        }
        for d in out.delivered.drain(..) {
            self.on_delivery(d);
        }
    }

    fn on_delivery(&mut self, d: Delivery) {
        let now = self.queue.now();
        let at_server = self.hub.node_server[d.host.0];
        // A crashed host receives nothing: requests (and TCP segments)
        // addressed to it die on arrival and the client must retransmit.
        if let Some(sj) = at_server {
            if !self.hub.servers[sj].up {
                return;
            }
        }
        // Which client machine and which server this delivery concerns:
        // the datagram's source identifies the other endpoint.
        let (ci, sj) = if let Some(sj) = at_server {
            (self.hub.node_client[d.dgram.src.0], Some(sj))
        } else {
            (
                self.hub.node_client[d.host.0],
                self.hub.node_server[d.dgram.src.0],
            )
        };
        let (Some(ci), Some(sj)) = (ci, sj) else {
            return; // not a client<->server exchange this world models
        };
        let len = d.dgram.payload.len();
        let frags = d.frags.max(1);
        let at_server = at_server.is_some();
        match d.dgram.proto {
            ProtoHeader::Udp { .. } => {
                if at_server {
                    let t = self.hub.servers[sj].host.charge_rx(now, len, frags, false);
                    self.serve_request(d.dgram.payload, ci, sj, false, t);
                } else {
                    let t = self.clients[ci].host.charge_rx(now, len, frags, false);
                    self.client_rpc_reply(ci, sj, d.dgram.payload, t);
                }
            }
            ProtoHeader::Tcp {
                seq,
                ack,
                window,
                flags,
                ..
            } => {
                let host = if at_server {
                    &mut self.hub.servers[sj].host
                } else {
                    &mut self.clients[ci].host
                };
                let t = host.charge_tcp_rx(now, len);
                let out = match &mut self.clients[ci].transports[sj] {
                    Transport::Tcp(ts) => {
                        let conn = if at_server {
                            &mut ts.server
                        } else {
                            &mut ts.client
                        };
                        conn.on_segment(seq, ack, window, flags, d.dgram.payload, now)
                    }
                    _ => return,
                };
                self.apply_tcp_out(ci, sj, out, !at_server, t);
            }
        }
    }

    fn async_done(&mut self, ci: usize, ticket: u64, result: RpcResult) {
        self.clients[ci].async_outstanding = self.clients[ci].async_outstanding.saturating_sub(1);
        if self.forgotten.remove(&ticket) {
            // Dropped interest; discard the reply.
        } else if let Some(holder) = self.ticket_waiters.remove(&ticket) {
            if holder > usize::MAX / 2 {
                // 0-biod synchronous case: the thread is still waiting
                // for its Ticket response.
                let tid = usize::MAX - holder;
                self.tickets_done.insert(ticket, result);
                self.ready.push_back((tid, Resp::Ticket(ticket)));
            } else {
                self.ready.push_back((holder, Resp::Chain(result)));
            }
        } else {
            self.tickets_done.insert(ticket, result);
        }
        // A slot freed: admit a parked async request from this client.
        if let Some((tid, sj, proc, msg)) = self.clients[ci].parked_async.pop_front() {
            let t = self.next_ticket;
            self.next_ticket += 1;
            self.clients[ci].async_outstanding += 1;
            self.start_rpc(ci, sj, Waker::Async(t), proc, msg);
            self.ready.push_back((tid, Resp::Ticket(t)));
        }
        if self.clients[ci].async_outstanding == 0 {
            for tid in self.clients[ci].wait_all.drain(..) {
                self.ready.push_back((tid, Resp::Unit));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, ClientFs};
    use crate::proto::NfsStatus;
    use renofs_vfs::InodeId;
    use std::sync::mpsc::channel as result_channel;

    fn preload(world: &mut World, name: &str, bytes: &[u8]) {
        let root = world.server().fs().root();
        let ino = world
            .server_mut()
            .fs_mut()
            .create(root, name, 0o644, SimTime::ZERO)
            .unwrap();
        world
            .server_mut()
            .fs_mut()
            .write(ino, 0, bytes, SimTime::ZERO)
            .unwrap();
        let _ = InodeId(0);
    }

    fn full_stack_round_trip(transport: TransportKind) {
        let mut cfg = WorldConfig::baseline();
        cfg.transport = transport;
        let mut world = World::new(cfg);
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i * 13 % 256) as u8).collect();
        preload(&mut world, "preloaded.bin", &payload);
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        let expect = payload.clone();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            // Read the preloaded file through the full stack.
            let fh = fs.lookup_path("/preloaded.bin").unwrap();
            let got = fs.read(fh, 0, 30_000).unwrap();
            assert_eq!(got, expect);
            // Write a new file and read it back.
            let out = fs.open("/out.bin", true, false).unwrap();
            fs.write(out, 0, b"written through the simulated network")
                .unwrap();
            fs.close(out).unwrap();
            let back = fs.read(out, 0, 100).unwrap();
            tx.send(back).unwrap();
        });
        world.run();
        let back = rx.recv().unwrap();
        assert_eq!(back, b"written through the simulated network");
        assert!(world.now() > SimTime::ZERO);
        // The server actually served RPCs.
        assert!(world.server().stats().total() > 5);
    }

    #[test]
    fn udp_dynamic_full_stack() {
        full_stack_round_trip(TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        });
    }

    #[test]
    fn udp_fixed_full_stack() {
        full_stack_round_trip(TransportKind::UdpFixed {
            timeo: SimDuration::from_secs(1),
        });
    }

    #[test]
    fn tcp_full_stack() {
        full_stack_round_trip(TransportKind::Tcp);
    }

    #[test]
    fn stat_over_the_wire() {
        let mut world = World::new(WorldConfig::baseline());
        preload(&mut world, "f.txt", b"12345");
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            let attr = fs.stat("/f.txt").unwrap();
            tx.send(attr.size).unwrap();
            assert!(matches!(
                fs.stat("/missing"),
                Err(crate::client::ClientError::Nfs(NfsStatus::NoEnt))
            ));
        });
        world.run();
        assert_eq!(rx.recv().unwrap(), 5);
    }

    #[test]
    fn deterministic_runs() {
        let run_once = || {
            let mut world = World::new(WorldConfig::baseline());
            preload(&mut world, "d.bin", &[7u8; 12_000]);
            let root = world.root_handle();
            world.spawn(move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/d.bin").unwrap();
                let _ = fs.read(fh, 0, 12_000).unwrap();
                let out = fs.open("/o.bin", true, false).unwrap();
                fs.write(out, 0, &[1u8; 9_000]).unwrap();
                fs.close(out).unwrap();
            });
            world.run();
            world.now()
        };
        assert_eq!(run_once(), run_once(), "identical seeds, identical clocks");
    }

    #[test]
    fn sleep_paces_threads() {
        let mut world = World::new(WorldConfig::baseline());
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let t0 = sys.now();
            sys.sleep(SimDuration::from_millis(250));
            let t1 = sys.now();
            tx.send(t1.since(t0)).unwrap();
        });
        world.run();
        assert_eq!(rx.recv().unwrap(), SimDuration::from_millis(250));
    }

    fn multi_client_round_trip(transport: TransportKind) {
        let mut cfg = WorldConfig::baseline();
        cfg.transport = transport;
        cfg.clients = 3;
        let mut world = World::new(cfg);
        assert_eq!(world.client_count(), 3);
        preload(&mut world, "shared.bin", &[5u8; 9_000]);
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        for ci in 0..3 {
            let tx = tx.clone();
            world.spawn_on(ci, move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/shared.bin").unwrap();
                let got = fs.read(fh, 0, 9_000).unwrap();
                assert_eq!(got.len(), 9_000);
                // Each client writes its own file too.
                let out = fs.open("/own.bin", true, false).unwrap();
                fs.write(out, 0, &[ci as u8; 2_000]).unwrap();
                fs.close(out).unwrap();
                tx.send(ci).unwrap();
            });
        }
        drop(tx);
        world.run();
        let mut done: Vec<usize> = rx.iter().collect();
        done.sort_unstable();
        assert_eq!(done, vec![0, 1, 2], "every client completed");
        assert!(world.server().stats().total() > 15);
    }

    #[test]
    fn three_clients_udp_share_one_server() {
        multi_client_round_trip(TransportKind::UdpDynamic {
            timeo: SimDuration::from_secs(1),
        });
    }

    #[test]
    fn three_clients_tcp_share_one_server() {
        multi_client_round_trip(TransportKind::Tcp);
    }

    #[test]
    fn multi_client_runs_are_deterministic() {
        let run_once = || {
            let mut cfg = WorldConfig::baseline();
            cfg.clients = 4;
            let mut world = World::new(cfg);
            preload(&mut world, "d.bin", &[7u8; 8_000]);
            let root = world.root_handle();
            for ci in 0..4 {
                world.spawn_on(ci, move |sys| {
                    let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                    let fh = fs.lookup_path("/d.bin").unwrap();
                    let _ = fs.read(fh, 0, 8_000).unwrap();
                });
            }
            world.run();
            world.now()
        };
        assert_eq!(run_once(), run_once(), "identical seeds, identical clocks");
    }

    /// Drives a 4-client UDP crowd (a 2-daemon nfsd pool, so requests
    /// queue) to completion, optionally stopping at `split` first, and
    /// renders every observable: clock, queue counters, per-client
    /// console logs and transport counters, server and nfsd accounting,
    /// and what each workload thread saw.
    fn crowd_state(split: Option<SimTime>) -> String {
        let mut cfg = WorldConfig::baseline();
        cfg.clients = 4;
        cfg.nfsds = 2;
        cfg.server.dup_cache = true;
        let mut world = World::new(cfg);
        preload(&mut world, "d.bin", &[3u8; 9_000]);
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        for ci in 0..4 {
            let tx = tx.clone();
            world.spawn_on(ci, move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let mut seen = Vec::new();
                for round in 0..6u64 {
                    fs.sys()
                        .sleep(SimDuration::from_millis(40 * (ci as u64 + 1) + round));
                    let fh = fs.lookup_path("/d.bin").unwrap();
                    let got = fs.read(fh, 0, 9_000).unwrap();
                    let now = fs.sys().now();
                    seen.push((got.len(), now));
                }
                tx.send((ci, seen)).unwrap();
            });
        }
        drop(tx);
        if let Some(t) = split {
            world.run_until(t);
            assert!(world.now() <= t, "run_until overshot its bound");
            assert!(world.now() > SimTime::ZERO, "run_until ran nothing");
        }
        world.run();
        let mut seen: Vec<_> = rx.iter().collect();
        seen.sort_unstable();
        let mut out = format!("now={:?} queue={:?}\n", world.now(), world.queue_stats());
        for ci in 0..world.client_count() {
            out.push_str(&format!(
                "client{ci}: events={:?} udp={:?}\n",
                world.client_events_of(ci),
                world.udp_stats_of(ci)
            ));
        }
        out.push_str(&format!(
            "server={:?} nfsd={:?} seen={seen:?}\n",
            world.server().stats(),
            world.nfsd_stats()
        ));
        out
    }

    #[test]
    fn run_until_then_run_matches_run_on_a_crowd_world() {
        let whole = crowd_state(None);
        let split = crowd_state(Some(SimTime::from_millis(150)));
        assert_eq!(split, whole);
    }

    #[test]
    fn nfsd_pool_queues_when_daemons_are_busy() {
        let mut cfg = WorldConfig::baseline();
        cfg.clients = 4;
        cfg.nfsds = 1;
        let mut world = World::new(cfg);
        preload(&mut world, "hot.bin", &[3u8; 8_000]);
        let root = world.root_handle();
        for ci in 0..4 {
            world.spawn_on(ci, move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/hot.bin").unwrap();
                let _ = fs.read(fh, 0, 8_000).unwrap();
            });
        }
        world.run();
        let stats = world.nfsd_stats();
        assert!(stats.served > 0, "pool served requests");
        assert!(
            stats.queued > 0,
            "one daemon, four clients: someone waited ({stats:?})"
        );
        assert!(
            stats.queue_delays_ms.iter().any(|&d| d > 0.0),
            "queueing delay recorded"
        );
        assert!(stats.service_ms.count() > 0);
        assert_eq!(stats.served as usize, stats.queue_delays_ms.len());
    }

    #[test]
    fn nfsd_pool_with_headroom_matches_unbounded_world() {
        // A pool wider than the peak concurrency must not change any
        // timing: the daemons never saturate, so the request stream is
        // identical to the unbounded pre-pool model.
        let run = |nfsds: usize| {
            let mut cfg = WorldConfig::baseline();
            cfg.nfsds = nfsds;
            let mut world = World::new(cfg);
            preload(&mut world, "d.bin", &[7u8; 12_000]);
            let root = world.root_handle();
            world.spawn(move |sys| {
                let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
                let fh = fs.lookup_path("/d.bin").unwrap();
                let _ = fs.read(fh, 0, 12_000).unwrap();
                let out = fs.open("/o.bin", true, false).unwrap();
                fs.write(out, 0, &[1u8; 9_000]).unwrap();
                fs.close(out).unwrap();
            });
            world.run();
            world.now()
        };
        assert_eq!(run(0), run(64), "headroom pool is timing-transparent");
    }

    #[test]
    fn soft_mount_times_out_during_partition() {
        let mut cfg = WorldConfig::baseline();
        cfg.faults = FaultPlan::new().partition(SimTime::from_secs(2), SimDuration::from_secs(30));
        cfg.mount = MountOptions::soft(2);
        let mut world = World::new(cfg);
        preload(&mut world, "f.txt", b"hello");
        preload(&mut world, "g.txt", b"worldly");
        preload(&mut world, "h.txt", b"byebye");
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            // Before the partition: works.
            let before = fs.stat("/f.txt").map(|a| a.size);
            // Step into the partition and stat a file the client has
            // never seen (no cache to hide behind): the soft mount must
            // give up within its retrans budget instead of hanging.
            fs.sys().sleep(SimDuration::from_secs(3));
            let t0 = fs.sys().now();
            let during = fs.stat("/g.txt").map(|a| a.size);
            let waited = fs.sys().now().since(t0);
            // After the heal: works again.
            fs.sys().sleep(SimDuration::from_secs(40));
            let after = fs.stat("/h.txt").map(|a| a.size);
            tx.send((before, during, waited, after)).unwrap();
        });
        world.run();
        let (before, during, waited, after) = rx.recv().unwrap();
        assert_eq!(before, Ok(5));
        assert_eq!(during, Err(crate::client::ClientError::TimedOut));
        assert!(
            waited < SimDuration::from_secs(30),
            "soft mount gave up within the retry budget, not at the heal"
        );
        assert_eq!(after, Ok(6));
        assert!(world
            .client_events()
            .iter()
            .any(|e| e.kind == ClientEventKind::SoftTimeout));
    }

    #[test]
    fn hard_mount_blocks_through_partition_and_logs_console_pair() {
        let mut cfg = WorldConfig::baseline();
        cfg.faults = FaultPlan::new().partition(SimTime::from_secs(2), SimDuration::from_secs(10));
        // Hard mount with a low console threshold, like `-o retrans=2`.
        cfg.mount = MountOptions {
            soft: false,
            retrans: 2,
        };
        let mut world = World::new(cfg);
        preload(&mut world, "g.txt", b"worldly");
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            fs.sys().sleep(SimDuration::from_secs(3));
            // Issued mid-partition against an uncached file: a hard mount
            // never errors; the call blocks until the network heals and
            // the retry gets through.
            let size = fs.stat("/g.txt").unwrap().size;
            let done = fs.sys().now();
            tx.send((size, done)).unwrap();
        });
        world.run();
        let (size, done) = rx.recv().unwrap();
        assert_eq!(size, 7);
        assert!(
            done >= SimTime::from_secs(12),
            "completed only after the heal at t=12s, got {done:?}"
        );
        let events = world.client_events();
        let nr = events
            .iter()
            .position(|e| e.kind == ClientEventKind::NotResponding)
            .expect("hard mount logged `server not responding`");
        let ok = events
            .iter()
            .position(|e| e.kind == ClientEventKind::ServerOk)
            .expect("hard mount logged `server ok`");
        assert!(nr < ok, "not-responding precedes server-ok");
    }

    #[test]
    fn server_crash_reboot_recovers_hard_mount() {
        let mut cfg = WorldConfig::baseline();
        cfg.faults =
            FaultPlan::new().server_crash(SimTime::from_secs(2), SimDuration::from_secs(5));
        let mut world = World::new(cfg);
        preload(&mut world, "g.txt", b"worldly");
        let root = world.root_handle();
        let (tx, rx) = result_channel();
        world.spawn(move |sys| {
            let mut fs = ClientFs::mount(sys, ClientConfig::reno(), root, "uvax1");
            fs.sys().sleep(SimDuration::from_millis(2500));
            // The server is down and its caches will be cold after
            // reboot; the hard mount just retries until it answers.
            let size = fs.stat("/g.txt").unwrap().size;
            tx.send((size, fs.sys().now())).unwrap();
        });
        world.run();
        let (size, done) = rx.recv().unwrap();
        assert_eq!(size, 7);
        assert!(done >= SimTime::from_secs(7), "answered only after reboot");
        assert!(world.server_is_up());
        let kinds: Vec<_> = world.client_events().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&ClientEventKind::ServerCrashed));
        assert!(kinds.contains(&ClientEventKind::ServerRebooted));
    }
}
