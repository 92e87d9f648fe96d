//! A pass-through [`Syscalls`] wrapper that records a span per call.
//!
//! The wrapper never issues a request of its own to the world: a span's
//! virtual start is the clock value the caller last read, and its virtual
//! end is the next clock value the caller reads. Nhfsstone's generator
//! reads the clock right before and right after each RPC, so RPC spans
//! are exact. Captured call and reply bytes are copied out, not shared,
//! so no mbuf cluster outlives the call because of the wrapper.

use std::time::Instant;

use renofs::proto::NfsProc;
use renofs::syscalls::{RpcResult, Ticket};
use renofs::Syscalls;
use renofs_mbuf::{CopyMeter, MbufChain};
use renofs_sim::{SimDuration, SimTime};

/// Which `Syscalls` method a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    Now,
    ChargeCpu,
    Sleep,
    Rpc(NfsProc),
    RpcAsync(NfsProc),
    AwaitTicket,
    PollTicket,
    ForgetTicket,
    WaitAllAsync,
    LocalDisk,
}

/// One recorded `Syscalls` call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub client: u32,
    pub call: Call,
    /// Host nanoseconds since the batch's epoch.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Virtual nanoseconds.
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
}

/// One RPC's call message and reply, as bytes.
#[derive(Clone, Debug)]
pub struct Captured {
    pub client: u32,
    pub proc: NfsProc,
    pub call: Vec<u8>,
    pub reply: Option<Vec<u8>>,
}

pub struct TraceSys<'a, S: Syscalls> {
    inner: &'a mut S,
    client: u32,
    epoch: Instant,
    last_now: u64,
    /// Spans still waiting for the caller's next clock read.
    open: Vec<usize>,
    capture_left: usize,
    meter: CopyMeter,
    pub spans: Vec<Span>,
    pub captured: Vec<Captured>,
}

impl<'a, S: Syscalls> TraceSys<'a, S> {
    /// Wraps `inner`, capturing the bytes of at most `capture` RPCs.
    pub fn new(inner: &'a mut S, client: usize, epoch: Instant, capture: usize) -> Self {
        TraceSys {
            inner,
            client: client as u32,
            epoch,
            last_now: 0,
            open: Vec::new(),
            capture_left: capture,
            meter: CopyMeter::new(),
            spans: Vec::new(),
            captured: Vec::new(),
        }
    }

    /// Closes the spans no clock read followed, and returns the record.
    pub fn finish(mut self) -> (Vec<Span>, Vec<Captured>) {
        for &i in &self.open {
            self.spans[i].virt_end_ns = self.last_now;
        }
        (self.spans, self.captured)
    }

    fn host_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record<R>(&mut self, call: Call, f: impl FnOnce(&mut S) -> R) -> R {
        let host_start_ns = self.host_ns();
        let r = f(&mut *self.inner);
        let host_end_ns = self.host_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            client: self.client,
            call,
            host_start_ns,
            host_end_ns,
            virt_start_ns: self.last_now,
            virt_end_ns: u64::MAX,
        });
        r
    }

    fn rpc_traced(
        &mut self,
        proc: NfsProc,
        msg: MbufChain,
        f: impl FnOnce(&mut S, MbufChain) -> RpcResult,
    ) -> RpcResult {
        let call = (self.capture_left > 0).then(|| msg.to_vec(&mut self.meter));
        let result = self.record(Call::Rpc(proc), |s| f(s, msg));
        if let Some(call) = call {
            self.capture_left -= 1;
            let reply = result.as_ref().ok().map(|r| r.to_vec(&mut self.meter));
            self.captured.push(Captured {
                client: self.client,
                proc,
                call,
                reply,
            });
        }
        result
    }
}

impl<S: Syscalls> Syscalls for TraceSys<'_, S> {
    fn now(&mut self) -> SimTime {
        let t = self.record(Call::Now, |s| s.now());
        let ns = t.as_nanos();
        let last = self.spans.len() - 1;
        self.spans[last].virt_start_ns = ns;
        for &i in &self.open {
            self.spans[i].virt_end_ns = ns;
        }
        self.open.clear();
        self.last_now = ns;
        t
    }

    fn charge_cpu(&mut self, d: SimDuration) {
        self.record(Call::ChargeCpu, |s| s.charge_cpu(d))
    }

    fn sleep(&mut self, d: SimDuration) {
        self.record(Call::Sleep, |s| s.sleep(d))
    }

    fn rpc(&mut self, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.rpc_traced(proc, msg, |s, m| s.rpc(proc, m))
    }

    fn rpc_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> RpcResult {
        self.rpc_traced(proc, msg, |s, m| s.rpc_to(server, proc, m))
    }

    fn rpc_async(&mut self, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.record(Call::RpcAsync(proc), |s| s.rpc_async(proc, msg))
    }

    fn rpc_async_to(&mut self, server: usize, proc: NfsProc, msg: MbufChain) -> Ticket {
        self.record(Call::RpcAsync(proc), |s| s.rpc_async_to(server, proc, msg))
    }

    fn await_ticket(&mut self, t: Ticket) -> RpcResult {
        self.record(Call::AwaitTicket, |s| s.await_ticket(t))
    }

    fn poll_ticket(&mut self, t: Ticket) -> Option<RpcResult> {
        self.record(Call::PollTicket, |s| s.poll_ticket(t))
    }

    fn forget_ticket(&mut self, t: Ticket) {
        self.record(Call::ForgetTicket, |s| s.forget_ticket(t))
    }

    fn wait_all_async(&mut self) {
        self.record(Call::WaitAllAsync, |s| s.wait_all_async())
    }

    fn local_disk(&mut self, bytes: usize, write: bool, sequential: bool) {
        self.record(Call::LocalDisk, |s| s.local_disk(bytes, write, sequential))
    }
}
