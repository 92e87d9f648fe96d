//! Directed links: serialization, queueing, background load and loss.

use renofs_sim::{Rng, SimDuration, SimTime};

use crate::faults::FaultWindows;
use crate::topology::NodeId;

/// Static parameters of one link direction.
#[derive(Clone, Debug)]
pub struct LinkParams {
    /// Raw bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// Maximum transmission unit (IP bytes per frame).
    pub mtu: usize,
    /// Per-frame overhead bytes (preamble, MAC header, CRC, gap).
    pub frame_overhead: usize,
    /// Transmit queue capacity in bytes; frames arriving when the backlog
    /// exceeds this are dropped (drop-tail).
    pub queue_capacity_bytes: usize,
    /// Independent per-frame corruption/loss probability.
    pub loss_prob: f64,
    /// Fraction of the link consumed by background cross-traffic. Modeled
    /// as M/M/1-style random extra queueing per frame, matching the
    /// paper's uncontrolled production-network loads.
    pub bg_util: f64,
}

impl LinkParams {
    /// Time to serialize `wire_bytes` onto this link.
    pub fn tx_time(&self, wire_bytes: usize) -> SimDuration {
        let bits = (wire_bytes + self.frame_overhead) as u64 * 8;
        SimDuration::from_secs_f64(bits as f64 / self.bandwidth_bps as f64)
    }
}

/// Cumulative per-direction link statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Frames accepted for transmission.
    pub frames: u64,
    /// Payload (IP) bytes accepted.
    pub bytes: u64,
    /// Frames dropped by queue overflow.
    pub queue_drops: u64,
    /// Frames dropped by random loss.
    pub random_drops: u64,
    /// Frames dropped because the link was down (injected flap).
    pub flap_drops: u64,
    /// Frames duplicated by an injected duplication window.
    pub dup_frames: u64,
    /// Frames given extra delay by an injected reorder window.
    pub reordered_frames: u64,
    /// Frames whose bytes were corrupted by an injected corruption window.
    pub corrupted_frames: u64,
    /// Total scheduled downtime from the fault plan's finite windows.
    pub downtime: SimDuration,
}

/// Outcome of offering a frame to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxResult {
    /// Frame will arrive at the far end at this time.
    Arrives(SimTime),
    /// Frame was duplicated by an injected fault: two copies arrive,
    /// at these times.
    Duplicated(SimTime, SimTime),
    /// Frame arrives at this time with its bytes damaged in flight; the
    /// receiver's checksum handling decides whether the damage is caught.
    ArrivesCorrupted(SimTime),
    /// Frame was dropped (queue overflow, random loss, or a down link).
    Dropped,
}

/// One direction of a link.
pub(crate) struct Link {
    from: NodeId,
    to: NodeId,
    params: LinkParams,
    busy_until: SimTime,
    stats: LinkStats,
    faults: FaultWindows,
}

impl Link {
    pub(crate) fn new(from: NodeId, to: NodeId, params: LinkParams) -> Self {
        Link {
            from,
            to,
            params,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
            faults: FaultWindows::default(),
        }
    }

    /// Installs compiled fault windows on this link direction.
    pub(crate) fn set_faults(&mut self, faults: FaultWindows) {
        self.faults = faults;
    }

    pub(crate) fn from(&self) -> NodeId {
        self.from
    }

    pub(crate) fn to(&self) -> NodeId {
        self.to
    }

    pub(crate) fn params(&self) -> &LinkParams {
        &self.params
    }

    pub(crate) fn stats(&self) -> LinkStats {
        let mut s = self.stats;
        s.downtime = self.faults.total_downtime();
        s
    }

    /// Test-only access to mutate parameters after topology construction
    /// (e.g. to inject loss on one link direction).
    #[cfg(test)]
    pub(crate) fn params_mut_for_test(&mut self) -> &mut LinkParams {
        &mut self.params
    }

    /// Offers a frame of `ip_bytes` to the link at `now`.
    ///
    /// With no fault windows active the code path (and in particular the
    /// RNG draw sequence) is identical to a fault-free link, so an empty
    /// [`FaultWindows`] leaves every run byte-reproducible against
    /// pre-fault-injection builds.
    pub(crate) fn transmit(&mut self, now: SimTime, ip_bytes: usize, rng: &mut Rng) -> TxResult {
        if !self.faults.is_empty() && self.faults.is_down(now) {
            self.stats.flap_drops += 1;
            return TxResult::Dropped;
        }
        // Backlog currently waiting (bytes implied by the busy horizon).
        let backlog = self.busy_until.since(now);
        let backlog_bytes =
            (backlog.as_secs_f64() * self.params.bandwidth_bps as f64 / 8.0) as usize;
        if backlog_bytes + ip_bytes > self.params.queue_capacity_bytes {
            self.stats.queue_drops += 1;
            return TxResult::Dropped;
        }
        let loss = (self.params.loss_prob + self.faults.extra_loss(now)).min(1.0);
        if rng.chance(loss) {
            // The frame still occupies the wire; it is lost, not unsent.
            self.occupy(now, ip_bytes, rng);
            self.stats.random_drops += 1;
            return TxResult::Dropped;
        }
        let done = self.occupy(now, ip_bytes, rng);
        self.stats.frames += 1;
        self.stats.bytes += ip_bytes as u64;
        let mut arrival = done + self.params.prop_delay + self.faults.extra_delay(now);
        if let Some((prob, max_extra)) = self.faults.reorder_at(now) {
            if rng.chance(prob) {
                let span = max_extra.as_nanos().max(1);
                arrival += SimDuration::from_nanos(rng.gen_range(0, span) + 1);
                self.stats.reordered_frames += 1;
            }
        }
        if let Some(prob) = self.faults.corrupt_prob(now) {
            if rng.chance(prob) {
                self.stats.corrupted_frames += 1;
                // A damaged frame is never also duplicated: the bridge
                // replay model applies to intact frames only.
                return TxResult::ArrivesCorrupted(arrival);
            }
        }
        if let Some(prob) = self.faults.dup_prob(now) {
            if rng.chance(prob) {
                self.stats.dup_frames += 1;
                // The duplicate trails the original by one serialization
                // time, as if a bridge replayed it back to back.
                return TxResult::Duplicated(arrival, arrival + self.params.tx_time(ip_bytes));
            }
        }
        TxResult::Arrives(arrival)
    }

    /// Serializes the frame (plus any sampled background traffic ahead of
    /// it) and returns the time serialization completes.
    fn occupy(&mut self, now: SimTime, ip_bytes: usize, rng: &mut Rng) -> SimTime {
        let service = self.params.tx_time(ip_bytes);
        let bg = self.background_wait(service, rng);
        let start = now.max(self.busy_until) + bg;
        let done = start + service;
        self.busy_until = done;
        done
    }

    /// Extra wait caused by background cross-traffic: an exponential with
    /// the M/M/1 mean rho/(1-rho) service times.
    fn background_wait(&self, service: SimDuration, rng: &mut Rng) -> SimDuration {
        let rho = self.params.bg_util;
        if rho <= 0.0 {
            return SimDuration::ZERO;
        }
        let mean = service.as_secs_f64() * rho / (1.0 - rho);
        SimDuration::from_secs_f64(rng.exp(mean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_params() -> LinkParams {
        LinkParams {
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(50),
            mtu: 1500,
            frame_overhead: 26,
            queue_capacity_bytes: 60_000,
            loss_prob: 0.0,
            bg_util: 0.0,
        }
    }

    #[test]
    fn tx_time_matches_bandwidth() {
        let p = quiet_params();
        // (1500 + 26) * 8 bits at 10 Mbit/s = 1220.8 us.
        let t = p.tx_time(1500);
        assert!((t.as_micros() as i64 - 1220).abs() <= 1, "{t:?}");
    }

    #[test]
    fn frames_serialize_back_to_back() {
        let mut rng = Rng::new(1);
        let mut link = Link::new(NodeId(0), NodeId(1), quiet_params());
        let t0 = SimTime::ZERO;
        let a1 = match link.transmit(t0, 1500, &mut rng) {
            TxResult::Arrives(t) => t,
            _ => panic!("dropped"),
        };
        let a2 = match link.transmit(t0, 1500, &mut rng) {
            TxResult::Arrives(t) => t,
            _ => panic!("dropped"),
        };
        let gap = a2 - a1;
        let service = quiet_params().tx_time(1500);
        assert_eq!(gap.as_nanos(), service.as_nanos(), "second frame queues");
    }

    #[test]
    fn queue_overflow_drops() {
        let mut rng = Rng::new(2);
        let mut p = quiet_params();
        p.queue_capacity_bytes = 4000;
        let mut link = Link::new(NodeId(0), NodeId(1), p);
        let t0 = SimTime::ZERO;
        let mut drops = 0;
        for _ in 0..6 {
            if link.transmit(t0, 1500, &mut rng) == TxResult::Dropped {
                drops += 1;
            }
        }
        assert!(
            drops >= 3,
            "only ~2 frames fit in 4000 bytes, got {drops} drops"
        );
        assert_eq!(link.stats().queue_drops, drops);
    }

    #[test]
    fn random_loss_rate_is_plausible() {
        let mut rng = Rng::new(3);
        let mut p = quiet_params();
        p.loss_prob = 0.1;
        p.queue_capacity_bytes = usize::MAX;
        let mut link = Link::new(NodeId(0), NodeId(1), p);
        let mut lost = 0;
        for i in 0..5000 {
            let t = SimTime::from_millis(i * 2);
            if link.transmit(t, 100, &mut rng) == TxResult::Dropped {
                lost += 1;
            }
        }
        assert!((400..600).contains(&lost), "lost {lost} of 5000 at p=0.1");
    }

    #[test]
    fn background_load_adds_delay() {
        let mut rng = Rng::new(4);
        let mut busy = quiet_params();
        busy.bg_util = 0.4;
        let mut quiet_link = Link::new(NodeId(0), NodeId(1), quiet_params());
        let mut busy_link = Link::new(NodeId(0), NodeId(1), busy);
        let mut quiet_total = 0u64;
        let mut busy_total = 0u64;
        for i in 0..500 {
            let t = SimTime::from_millis(i * 10);
            if let TxResult::Arrives(a) = quiet_link.transmit(t, 1500, &mut rng) {
                quiet_total += (a - t).as_nanos();
            }
            if let TxResult::Arrives(a) = busy_link.transmit(t, 1500, &mut rng) {
                busy_total += (a - t).as_nanos();
            }
        }
        assert!(
            busy_total > quiet_total * 5 / 4,
            "40% background should add >25% delay ({busy_total} vs {quiet_total})"
        );
    }

    #[test]
    fn lost_frames_still_occupy_the_wire() {
        let mut rng = Rng::new(5);
        let mut p = quiet_params();
        p.loss_prob = 1.0;
        let mut link = Link::new(NodeId(0), NodeId(1), p);
        let t0 = SimTime::ZERO;
        assert_eq!(link.transmit(t0, 1500, &mut rng), TxResult::Dropped);
        // The wire was busy even though the frame was lost.
        assert!(link.busy_until > t0);
    }
}
