//! Deterministic discrete-event simulation substrate for the RenoFS
//! reproduction.
//!
//! The 1991 paper's testbed was a pair of 0.9 MIPS MicroVAXIIs with RD53
//! disks and DEQNA Ethernet interfaces. None of that hardware is available,
//! so the reproduction runs the real protocol code (mbufs, XDR, Sun RPC,
//! NFS) over simulated time. This crate provides the simulation substrate:
//!
//! - [`SimTime`] / [`SimDuration`]: nanosecond-resolution virtual time.
//! - [`EventQueue`]: a stable-order pending-event set.
//! - [`Rng`]: a deterministic xoshiro256** PRNG, so identical seeds yield
//!   identical traces.
//! - [`Cpu`]: a serializing CPU resource with utilization accounting,
//!   including the paper's idle-loop counter measurement trick.
//! - [`Disk`]: a seek/rotate/transfer disk model calibrated to the RD53.
//! - [`stats`]: running statistics, histograms and time series used by the
//!   benchmark harnesses.
//! - [`profile`]: a feature-gated self-profiler (events, allocations,
//!   wall-clock per subsystem) behind the `profile` cargo feature.

pub mod cpu;
pub mod disk;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use cpu::{Cpu, CpuProfile};
pub use disk::{Disk, DiskProfile};
pub use queue::{AdaptiveQueue, EventQueue};
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
