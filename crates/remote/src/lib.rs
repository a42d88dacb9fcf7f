//! Simulated autonomous remote servers.
//!
//! Each [`RemoteServer`] hosts a real relational engine over in-memory data
//! and answers the two requests the paper's wrappers issue:
//!
//! * [`RemoteServer::explain`] — parse and optimize a query fragment,
//!   returning candidate plans with the server's *own* cost estimates.
//!   Estimates assume an unloaded server: remote optimizers know nothing
//!   about their current load, which is exactly the blind spot the QCC
//!   compensates for. Replicas built from clones of one engine share the
//!   answer one of them just computed; each scales only the costs.
//! * [`RemoteServer::execute`] — run a plan for real and convert the CPU
//!   work into a virtual service time: `work / speed × slowdown(ρ, s)`,
//!   where `ρ` is current utilization and the sensitivity `s` includes
//!   per-table contention from the update workload hammering the server.
//! * [`RemoteServer::execute_stream`] — the resumable form of `execute`:
//!   the result streams back as columnar chunks with interior service-time
//!   offsets, a crash window opening mid-service interrupts the stream at
//!   the transition instant, and a cursor lets any identical replica
//!   resume the remainder without replaying delivered chunks.
//!
//! Availability and transient faults are simulated per the server's
//! schedule and fault rate (feeding the QCC's reliability factor, §3.3).

pub mod server;

pub use server::{
    RemotePlan, RemoteResult, RemoteServer, RemoteStream, RemoteStreamChunk, RemoteStreamStatus,
    ServerProfile,
};
