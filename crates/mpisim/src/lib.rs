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
//! * [`Comm`] — point-to-point `send`/`recv` (typed, tag-matched) plus the
//!   collectives the simulation uses: barrier, broadcast, reduce, allreduce,
//!   gather, allgather, all-to-all.
//! * [`traffic::Traffic`] — per-pair byte/message counters, filled in by every
//!   send, consumed by `vlasov6d-perfmodel`.
//! * [`topology::TofuTorus`] — the 6-D torus of Fugaku with rank-placement and
//!   hop counting, used to model network distance.
//! * [`cart::Cart3`] — Cartesian communicator built on
//!   [`vlasov6d_mesh::Decomp3`], giving shift neighbours and ghost-exchange
//!   pairings.
//!
//! # Semantics
//!
//! Sends are buffered and non-blocking (the mailbox is unbounded); `recv`
//! blocks until a matching `(source, tag)` message arrives. Message order is
//! preserved per `(source, tag)` pair, like MPI's non-overtaking guarantee.
//!
//! Split-phase messaging mirrors `MPI_Isend`/`MPI_Irecv`: [`Comm::isend`] and
//! [`Comm::irecv`] return typed [`comm::SendRequest`]/[`comm::RecvRequest`]
//! handles with `wait`/`test`; a handle dropped without completion is
//! reported at teardown by the leak checks, so an overlap region can never
//! silently forget a posted request.
//!
//! # Verification
//!
//! Exchange patterns can be checked *before* execution and stress-tested
//! *across* executions:
//!
//! * [`plan::CommPlan`] — declare an exchange as `(src, dst, tag, bytes)`
//!   edges and statically reject unmatched sends/recvs, tag collisions,
//!   wait-for deadlock cycles, off-topology edges, and volume asymmetry.
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
pub mod topology;
pub mod traffic;

pub use cart::{Cart3, SplitPhase};
pub use comm::{
    BlockKind, BlockedOp, Comm, LeakRecord, Payload, RecvRequest, RequestKind, RequestLeak,
    SendRequest, SimError, SimOptions, Universe,
};
pub use fault::KillSwitch;
pub use plan::{
    cart_neighbor_edges, fanout_reduce_plan, CommPlan, PlanChecks, PlanError, PlanStats, ANY_BYTES,
};
pub use sched::{ExplorationReport, Explorer};
pub use topology::TofuTorus;
pub use traffic::Traffic;
