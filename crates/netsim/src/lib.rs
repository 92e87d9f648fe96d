//! Network simulation: links, routers, IP fragmentation and reassembly.
//!
//! The paper ran NFS over three internetwork configurations:
//!
//! 1. client and server on the same uncongested Ethernet;
//! 2. two Ethernets joined by an 80 Mbit/s token ring and two IP routers;
//! 3. the same plus a 56 Kbit/s point-to-point link and a third router.
//!
//! Its transport findings all trace back to mechanics reproduced here: an
//! 8 KB read/write RPC leaves the host as ~6 IP fragments sized to the
//! interconnect MTU, any one lost fragment costs the entire datagram
//! (`[Kent87b]` "Fragmentation Considered Harmful"), and store-and-forward
//! routers with finite queues turn bursts of back-to-back fragments into
//! queueing delay and drops.
//!
//! The crate is deterministic and event-driven: [`Network::send`] and
//! [`Network::handle`] return follow-on events for the caller's event
//! queue plus any datagrams that completed reassembly at their
//! destination.

pub mod checksum;
pub mod faults;
pub mod link;
pub mod network;
pub mod nic;
pub mod packet;
pub mod topology;

pub use checksum::internet_checksum;
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultWindows};
pub use link::{LinkParams, LinkStats, TxResult};
pub use network::{Delivery, NetEvent, NetOutput, NetStats, Network};
pub use nic::{NicConfig, NicProfile, TxCopyMode};
pub use packet::{Datagram, Fragment, ProtoHeader, TcpFlags, IP_HEADER, TCP_HEADER, UDP_HEADER};
pub use topology::{LinkId, NodeId, NodeKind, Topology};
