//! # wlan-dist — fault-tolerant distributed campaign execution
//!
//! Shards `wlan-runner` Monte-Carlo campaigns across a fleet of worker
//! processes that are allowed to die. A coordinator owns all campaign
//! state and hands out wave-aligned `(point, trial-range)` leases over
//! a length-prefixed, checksummed stdio protocol; workers are pure
//! functions of the lease coordinates, so any lease can be re-run
//! anywhere — on another worker after a `SIGKILL`, or in-process once
//! the whole fleet is gone — and the campaign's tallies, stopping
//! decisions, and quarantine ledger come out bit-identical to the
//! single-process run ([`coord`] has the full argument).
//!
//! The failure model, layer by layer:
//!
//! * **Transport** ([`proto`]): newline-delimited frames carrying an
//!   FNV-64 checksum and explicit length. Bit flips, truncations, and
//!   garbage are contained to one frame and typed as [`ProtoError`];
//!   streams resynchronise at the next newline.
//! * **Workers** ([`worker`]): stateless beyond their `hello`; damaged
//!   input frames are skipped, out-of-catalog campaigns are refused,
//!   and only EOF (a dead coordinator) stops them.
//! * **Coordinator** ([`coord`]): heartbeat liveness, per-lease
//!   deadlines, exponential backoff with deterministic jitter,
//!   at-most-K re-dispatch, lease quarantine (reusing the PR-4 ledger
//!   idea one level up), and graceful degradation to in-process
//!   execution.
//! * **TCP fleets** ([`transport`]): the same frames over
//!   `std::net::TcpStream` for multi-machine fleets — a versioned
//!   handshake carrying the catalog digest (mismatch is a typed
//!   [`ProtoError::Incompatible`]), read deadlines, `TCP_NODELAY`, and
//!   DCF-style seeded reconnect backoff on the worker side.
//! * **Service mode** ([`service`]): a long-running coordinator that
//!   listens on `WLAN_DIST_ADDR`, accepts late-joining workers, runs
//!   queued campaigns back-to-back on one persistent fleet, streams
//!   `serve_*`/`conn_*` events to subscriber sockets, and drains
//!   cleanly on a shutdown frame — journal-backed, so a killed service
//!   resumes bit-identically.
//! * **Chaos tooling** ([`duplex`], [`catalog`]): in-memory pipes and
//!   deterministic fault-injecting relays so the whole stack is
//!   testable under kill schedules and transport corruption without
//!   subprocess nondeterminism.

#![warn(missing_docs)]

pub mod catalog;
pub mod coord;
pub mod duplex;
pub mod proto;
pub mod service;
pub mod transport;
pub mod worker;

pub use catalog::{catalog_digest, FaultSpec, LinkSpec};
pub use coord::{
    run_dist_per_campaign, run_dist_per_campaign_on, DistConfig, DistPerReport, DistStats, Fleet,
    InProcessFactory, ProcessFactory, QuarantinedLease, WorkerFactory, WorkerIo,
};
pub use proto::{Msg, ProtoError};
pub use service::{run_campaign_service, Acceptor, ServeCampaign, ServeConfig, ServeReport};
pub use transport::{
    connect_role, connect_worker, run_tcp_worker, server_handshake, Role, WorkerOpts,
};
pub use worker::{run_lease, serve, ServeEnd};
