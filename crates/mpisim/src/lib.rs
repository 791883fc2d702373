//! A message-passing runtime that stands in for MPI.
//!
//! The paper runs on up to 147,456 Fugaku nodes with MPI over the Tofu-D
//! interconnect. The offline Rust ecosystem has no production MPI binding, so
//! this crate simulates the substrate while keeping the *algorithmic*
//! structure identical: ranks execute the same SPMD code, exchange the same
//! messages, and the runtime counts every byte so the performance model can
//! price the communication on a modelled network.
//!
//! * [`Universe::run`] — spawn `n` ranks as OS threads, give each a [`Comm`],
//!   collect their return values.
//! * [`Comm`] — runs communication plans ([`Comm::run_plan`]: typed,
//!   tag-matched point-to-point messages) plus the collectives the
//!   simulation uses: barrier, broadcast, reduce, allreduce, gather,
//!   allgather.
//! * [`traffic::Traffic`] — per-pair byte/message counters, filled in by every
//!   send, consumed by `vlasov6d-perfmodel`.
//! * [`cart::Cart3`] — Cartesian communicator built on
//!   [`vlasov6d_mesh::Decomp3`], with the split-phase view [`SplitPhase`].
//!
//! # Semantics
//!
//! Sends are buffered and non-blocking (the mailbox is unbounded); a receive
//! blocks until a matching `(source, tag)` message arrives. Message order is
//! preserved per `(source, tag)` pair, like MPI's non-overtaking guarantee.
//!
//! Every point-to-point exchange is a [`CommPlan`] that a rank runs: there is
//! no public `send` or `recv` to write a second, unplanned description with
//! (only [`Comm::sendrecv`], which the benchmark's `mpisim.sendrecv`
//! latency probe times). A plan's
//! split-phase form mirrors `MPI_Isend`/`MPI_Irecv`: [`SplitPhase::post`]
//! posts every op before the first wait and returns a [`Posted`] program
//! whose `finish` waits; a program dropped unfinished leaves its requests
//! un-waited, which the leak checks report at teardown, so an overlap region
//! can never silently forget a posted request.
//!
//! # Verification
//!
//! Exchange patterns can be checked *before* execution and stress-tested
//! *across* executions:
//!
//! * [`plan::CommPlan`] — the exchange as per-rank programs of
//!   `(peer, tag, bytes)` ops, statically checked for unmatched sends/recvs,
//!   tag collisions, wait-for deadlock cycles, off-topology edges, and volume
//!   asymmetry before the same programs run.
//! * [`Universe::run_checked`] — run with a deadlock watchdog, seeded
//!   message-delivery delays, and an unreceived-message leak check at rank
//!   exit, returning [`comm::SimError`] instead of hanging.
//! * [`sched::Explorer`] — replay a program under many delivery schedules and
//!   flag order-dependent results.

pub mod cart;
pub mod collectives;
pub mod comm;
pub mod fault;
pub mod plan;
pub mod sched;
pub mod traffic;

pub use cart::{Cart3, SplitPhase};
pub use comm::{
    BlockKind, BlockedOp, Comm, LeakRecord, Payload, RequestKind, RequestLeak, SimError,
    SimOptions, Universe,
};
pub use fault::KillSwitch;
pub use plan::{
    cart_neighbor_edges, CommPlan, Exchange, PlanChecks, PlanError, PlanStats, Posted, Shift,
    ANY_BYTES,
};
pub use sched::{ExplorationReport, Explorer};
pub use traffic::Traffic;
