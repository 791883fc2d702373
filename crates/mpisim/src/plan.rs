//! Communication plans: the programs the exchanges run, and their static
//! verifier.
//!
//! The exchanges that dominate the paper's communication budget — ghost-plane
//! exchange for the spatial sweeps, the all-to-all transposes of the
//! distributed FFT, halo particle exchange for the tree part — are each one
//! [`CommPlan`], an ordered program of [`Op`]s per rank with plan-relative
//! tags, and the plan is what runs: [`crate::Comm::run_plan`] runs a rank's
//! program at a tag base ([`crate::SplitPhase::post`] up to its first wait),
//! with an [`Exchange`] handler supplying and taking the payloads. So
//! [`CommPlan::verify`] checks the messages that move, **before any moves**:
//!
//! * every send has a matching receive and vice versa (no leaks, no
//!   forever-blocked receives);
//! * no two sends (or receives) collide on the same `(src, dst, tag)` key,
//!   which would make matching order-dependent;
//! * matched sends and receives agree on the byte count;
//! * the plan is deadlock-free: an abstract execution (sends are
//!   non-blocking, receives block until the matching send has executed)
//!   runs to completion — wait-for cycles are reported with the blocked set;
//! * optionally, every edge stays inside an allowed topology (e.g. the
//!   [`crate::Cart3`] neighbour set, see [`cart_neighbor_edges`]);
//! * optionally, per-pair volume is symmetric (`bytes(a→b) == bytes(b→a)`),
//!   the conservation property of ghost and transpose exchanges.
//!
//! Raising every tag by one base preserves all of these, so a plan verified
//! once holds at every base it runs at. Collectives take internal tags and
//! sit outside any plan.

use crate::comm::{Comm, Payload, RequestKind};
use std::collections::{HashMap, HashSet};
use std::fmt;
use vlasov6d_mesh::Decomp3;

/// Byte-count wildcard for exchanges whose payload size is data-dependent
/// (e.g. particle halos). Matching skips the size comparison when either
/// side declares `ANY_BYTES`, and volume checks ignore the edge.
pub const ANY_BYTES: u64 = u64::MAX;

/// One step of a rank's communication program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Non-blocking buffered send.
    Send { to: usize, tag: u64, bytes: u64 },
    /// Blocking receive.
    Recv { from: usize, tag: u64, bytes: u64 },
    /// Split-phase send post. Must be retired by a later [`Op::WaitSend`] in
    /// the same rank's program.
    Isend { to: usize, tag: u64, bytes: u64 },
    /// Split-phase receive post. Must be retired by a later [`Op::WaitRecv`]
    /// in the same rank's program.
    Irecv { from: usize, tag: u64, bytes: u64 },
    /// Completion of a posted [`Op::Isend`]. Never blocks (sends are
    /// buffered).
    WaitSend { to: usize, tag: u64 },
    /// Completion of a posted [`Op::Irecv`]; blocks until the matching send
    /// has executed.
    WaitRecv { from: usize, tag: u64 },
}

impl Op {
    /// The op's tag.
    fn tag(self) -> u64 {
        let (Op::Send { tag, .. }
        | Op::Recv { tag, .. }
        | Op::Isend { tag, .. }
        | Op::Irecv { tag, .. }
        | Op::WaitSend { tag, .. }
        | Op::WaitRecv { tag, .. }) = self;
        tag
    }

    /// The op with its tag raised by `by`.
    fn retagged(mut self, by: u64) -> Op {
        let (Op::Send { tag, .. }
        | Op::Recv { tag, .. }
        | Op::Isend { tag, .. }
        | Op::Irecv { tag, .. }
        | Op::WaitSend { tag, .. }
        | Op::WaitRecv { tag, .. }) = &mut self;
        *tag += by;
        self
    }
}

/// A communication plan: one ordered [`Op`] program per rank.
#[derive(Debug, Clone, Default)]
pub struct CommPlan {
    name: String,
    programs: Vec<Vec<Op>>,
}

/// What [`CommPlan::verify_with`] checks beyond the always-on core checks.
#[derive(Debug, Clone, Default)]
pub struct PlanChecks {
    /// Allowed directed `(src, dst)` edges; `None` skips the topology check.
    pub topology: Option<HashSet<(usize, usize)>>,
    /// Require `bytes(a→b) == bytes(b→a)` for every pair (conservative
    /// exchanges: ghosts, transposes, gradients).
    pub volume_symmetry: bool,
}

/// Summary of a successfully verified plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Number of send ops (== matched edges after verification).
    pub sends: usize,
    /// Number of recv ops.
    pub recvs: usize,
    /// Total declared bytes over all sends (`ANY_BYTES` edges contribute 0).
    pub bytes: u64,
}

/// A defect found by the verifier. `src`/`dst`/`tag` identify the edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A send no receive ever matches: the message would sit in the mailbox
    /// forever (leak).
    UnmatchedSend { src: usize, dst: usize, tag: u64 },
    /// A receive no send ever matches: the rank would block forever.
    UnmatchedRecv { src: usize, dst: usize, tag: u64 },
    /// Two sends (or two receives) share a `(src, dst, tag)` key.
    TagCollision {
        src: usize,
        dst: usize,
        tag: u64,
        kind: &'static str,
    },
    /// Matched send and receive disagree on the byte count.
    ByteMismatch {
        src: usize,
        dst: usize,
        tag: u64,
        sent: u64,
        expected: u64,
    },
    /// A `WaitSend`/`WaitRecv` with no matching posted request earlier in the
    /// same rank's program.
    WaitWithoutRequest {
        rank: usize,
        peer: usize,
        tag: u64,
        kind: &'static str,
    },
    /// A posted `Isend`/`Irecv` never retired by a wait in the same rank's
    /// program — the plan-level image of a dropped request handle.
    UnwaitedRequest {
        rank: usize,
        peer: usize,
        tag: u64,
        kind: &'static str,
    },
    /// An edge leaves the allowed topology.
    TopologyViolation { src: usize, dst: usize, tag: u64 },
    /// Per-pair volume is asymmetric under [`PlanChecks::volume_symmetry`].
    VolumeAsymmetry {
        a: usize,
        b: usize,
        a_to_b: u64,
        b_to_a: u64,
    },
    /// The abstract execution wedged: each entry is a rank blocked in a
    /// receive, with the op index it is stuck at.
    Deadlock {
        blocked: Vec<BlockedRecv>,
        /// A wait-for cycle among the blocked ranks, if one exists
        /// (`r[i]` waits on a send owned by `r[i+1]`, wrapping).
        cycle: Vec<usize>,
    },
}

/// One rank wedged in a receive during the abstract execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedRecv {
    /// The blocked rank.
    pub rank: usize,
    /// Index of the blocking op in the rank's program.
    pub op_index: usize,
    /// Source the receive waits on.
    pub from: usize,
    /// Tag the receive waits on.
    pub tag: u64,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnmatchedSend { src, dst, tag } => write!(
                f,
                "unmatched send {src} -> {dst} tag {tag}: no receive ever matches (leak)"
            ),
            PlanError::UnmatchedRecv { src, dst, tag } => write!(
                f,
                "unmatched recv at rank {dst} from {src} tag {tag}: no send ever matches (would block forever)"
            ),
            PlanError::TagCollision {
                src,
                dst,
                tag,
                kind,
            } => write!(
                f,
                "tag collision: multiple {kind}s on edge {src} -> {dst} tag {tag}"
            ),
            PlanError::ByteMismatch {
                src,
                dst,
                tag,
                sent,
                expected,
            } => write!(
                f,
                "byte mismatch on {src} -> {dst} tag {tag}: send declares {sent} B, recv expects {expected} B"
            ),
            PlanError::WaitWithoutRequest {
                rank,
                peer,
                tag,
                kind,
            } => write!(
                f,
                "wait without request: rank {rank} waits on an un-posted {kind} (peer {peer}, tag {tag})"
            ),
            PlanError::UnwaitedRequest {
                rank,
                peer,
                tag,
                kind,
            } => write!(
                f,
                "unwaited request: rank {rank} posts an {kind} (peer {peer}, tag {tag}) that is never waited on"
            ),
            PlanError::TopologyViolation { src, dst, tag } => write!(
                f,
                "topology violation: edge {src} -> {dst} tag {tag} is not an allowed neighbour pair"
            ),
            PlanError::VolumeAsymmetry { a, b, a_to_b, b_to_a } => write!(
                f,
                "volume asymmetry between ranks {a} and {b}: {a_to_b} B vs {b_to_a} B"
            ),
            PlanError::Deadlock { blocked, cycle } => {
                write!(f, "deadlock: ")?;
                for (i, b) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(
                        f,
                        "rank {} blocked at op {} waiting recv(from {}, tag {})",
                        b.rank, b.op_index, b.from, b.tag
                    )?;
                }
                if !cycle.is_empty() {
                    write!(f, " [wait-for cycle: ")?;
                    for r in cycle {
                        write!(f, "{r} -> ")?;
                    }
                    write!(f, "{}]", cycle[0])?;
                }
                Ok(())
            }
        }
    }
}

impl CommPlan {
    /// Empty plan over `n_ranks` ranks.
    pub fn new(name: impl Into<String>, n_ranks: usize) -> Self {
        assert!(n_ranks >= 1);
        Self {
            name: name.into(),
            programs: vec![Vec::new(); n_ranks],
        }
    }

    /// The plan's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of ranks the plan spans.
    pub fn n_ranks(&self) -> usize {
        self.programs.len()
    }

    /// One past the highest tag any op uses: the tag window a run of the
    /// plan reserves above its base (0 for a plan without ops).
    pub fn tag_span(&self) -> u64 {
        let tags = self.programs.iter().flatten().map(|op| op.tag() + 1);
        tags.max().unwrap_or(0)
    }

    /// Rank `src`'s program gains a send to `dst`.
    pub fn send(&mut self, src: usize, dst: usize, tag: u64, bytes: u64) -> &mut Self {
        assert!(src < self.n_ranks() && dst < self.n_ranks());
        self.programs[src].push(Op::Send {
            to: dst,
            tag,
            bytes,
        });
        self
    }

    /// Rank `dst`'s program gains a receive from `src`.
    pub fn recv(&mut self, dst: usize, src: usize, tag: u64, bytes: u64) -> &mut Self {
        assert!(src < self.n_ranks() && dst < self.n_ranks());
        self.programs[dst].push(Op::Recv {
            from: src,
            tag,
            bytes,
        });
        self
    }

    /// Append the ±1 shift exchange along `axis` of `decomp` to every
    /// rank's program: each rank sends toward its −1 neighbour under `tag`
    /// and receives from its +1 neighbour, then sends toward +1 under
    /// `tag + 1` and receives from −1. Rank `r` sends `bytes(r)` each way; on
    /// an axis of one process both neighbours are the rank itself. `tag` is
    /// even, so a tag's parity names its direction (see [`Shift`]).
    pub fn shift(
        &mut self,
        decomp: &Decomp3,
        axis: usize,
        tag: u64,
        bytes: impl Fn(usize) -> u64,
    ) -> &mut Self {
        assert_eq!(decomp.n_ranks(), self.n_ranks());
        assert!(tag.is_multiple_of(2), "shift tags start even (got {tag})");
        for r in 0..decomp.n_ranks() {
            let low = decomp.neighbor(r, axis, -1);
            let high = decomp.neighbor(r, axis, 1);
            self.send(r, low, tag, bytes(r));
            self.recv(r, high, tag, bytes(high));
            self.send(r, high, tag + 1, bytes(r));
            self.recv(r, low, tag + 1, bytes(low));
        }
        self
    }

    /// The split-phase form of this plan: each rank posts its sends and
    /// receives in program order, then waits on the receives and then on
    /// the sends, each in program order. Ops that already post stay where
    /// they are.
    pub fn posted(&self) -> CommPlan {
        let mut plan = CommPlan::new(format!("{}.posted", self.name), self.n_ranks());
        for (program, out) in self.programs.iter().zip(&mut plan.programs) {
            let (mut recv_waits, mut send_waits) = (Vec::new(), Vec::new());
            for &op in program {
                out.push(match op {
                    Op::Send { to, tag, bytes } => {
                        send_waits.push(Op::WaitSend { to, tag });
                        Op::Isend { to, tag, bytes }
                    }
                    Op::Recv { from, tag, bytes } => {
                        recv_waits.push(Op::WaitRecv { from, tag });
                        Op::Irecv { from, tag, bytes }
                    }
                    posted => posted,
                });
            }
            out.extend(recv_waits);
            out.extend(send_waits);
        }
        plan
    }

    /// Whether any rank's program posts a request ([`CommPlan::posted`]).
    pub fn is_posted(&self) -> bool {
        self.programs
            .iter()
            .flatten()
            .any(|op| matches!(op, Op::Isend { .. } | Op::Irecv { .. }))
    }

    /// Append `other`'s programs with every tag raised by `tag`: plans that
    /// run one after the other, verified as one.
    pub fn append(&mut self, other: &CommPlan, tag: u64) -> &mut Self {
        assert_eq!(self.n_ranks(), other.n_ranks());
        for (mine, theirs) in self.programs.iter_mut().zip(&other.programs) {
            mine.extend(theirs.iter().map(|op| op.retagged(tag)));
        }
        self
    }

    /// A rank's program (for inspection and tests).
    pub fn program(&self, rank: usize) -> &[Op] {
        &self.programs[rank]
    }

    /// Every declared send as `(src, dst, tag, bytes)`, in program order —
    /// for external cross-checks of per-edge volumes (e.g. kerncheck's
    /// ghost-exchange byte audit).
    pub fn send_edges(&self) -> Vec<(usize, usize, u64, u64)> {
        let mut edges = Vec::new();
        for (src, program) in self.programs.iter().enumerate() {
            for op in program {
                if let Op::Send { to, tag, bytes } | Op::Isend { to, tag, bytes } = *op {
                    edges.push((src, to, tag, bytes));
                }
            }
        }
        edges
    }

    /// Run the core checks (matching, collisions, byte agreement, deadlock
    /// freedom). Equivalent to `verify_with(&PlanChecks::default())`.
    pub fn verify(&self) -> Result<PlanStats, Vec<PlanError>> {
        self.verify_with(&PlanChecks::default())
    }

    /// Run the core checks plus the optional topology / volume checks.
    /// Returns every defect found, not just the first.
    pub fn verify_with(&self, checks: &PlanChecks) -> Result<PlanStats, Vec<PlanError>> {
        let mut errors = Vec::new();

        // Index sends and recvs by (src, dst, tag); flag key collisions.
        // Split-phase posts land in the same maps as their blocking
        // counterparts, so an `Isend` colliding with a `Send` (or another
        // `Isend`) on one edge is caught identically. The per-rank `posted_*`
        // sets pair every post with its wait.
        let mut sends: HashMap<(usize, usize, u64), u64> = HashMap::new();
        let mut recvs: HashMap<(usize, usize, u64), u64> = HashMap::new();
        let (mut n_sends, mut n_recvs, mut total_bytes) = (0usize, 0usize, 0u64);
        let mut have_request_error = false;
        for (rank, prog) in self.programs.iter().enumerate() {
            let mut posted_isends: HashSet<(usize, u64)> = HashSet::new();
            let mut posted_irecvs: HashSet<(usize, u64)> = HashSet::new();
            for op in prog {
                match *op {
                    Op::Send { to, tag, bytes } | Op::Isend { to, tag, bytes } => {
                        n_sends += 1;
                        if bytes != ANY_BYTES {
                            total_bytes += bytes;
                        }
                        if sends.insert((rank, to, tag), bytes).is_some() {
                            errors.push(PlanError::TagCollision {
                                src: rank,
                                dst: to,
                                tag,
                                kind: "send",
                            });
                        }
                        if matches!(op, Op::Isend { .. }) {
                            posted_isends.insert((to, tag));
                        }
                    }
                    Op::Recv { from, tag, bytes } | Op::Irecv { from, tag, bytes } => {
                        n_recvs += 1;
                        if recvs.insert((from, rank, tag), bytes).is_some() {
                            errors.push(PlanError::TagCollision {
                                src: from,
                                dst: rank,
                                tag,
                                kind: "recv",
                            });
                        }
                        if matches!(op, Op::Irecv { .. }) {
                            posted_irecvs.insert((from, tag));
                        }
                    }
                    Op::WaitSend { to, tag } => {
                        if !posted_isends.remove(&(to, tag)) {
                            errors.push(PlanError::WaitWithoutRequest {
                                rank,
                                peer: to,
                                tag,
                                kind: "isend",
                            });
                            have_request_error = true;
                        }
                    }
                    Op::WaitRecv { from, tag } => {
                        if !posted_irecvs.remove(&(from, tag)) {
                            errors.push(PlanError::WaitWithoutRequest {
                                rank,
                                peer: from,
                                tag,
                                kind: "irecv",
                            });
                            have_request_error = true;
                        }
                    }
                }
            }
            let mut leftovers: Vec<(usize, u64, &'static str)> = posted_isends
                .iter()
                .map(|&(peer, tag)| (peer, tag, "isend"))
                .chain(
                    posted_irecvs
                        .iter()
                        .map(|&(peer, tag)| (peer, tag, "irecv")),
                )
                .collect();
            leftovers.sort_unstable();
            for (peer, tag, kind) in leftovers {
                errors.push(PlanError::UnwaitedRequest {
                    rank,
                    peer,
                    tag,
                    kind,
                });
                have_request_error = true;
            }
        }

        // Matching and byte agreement.
        let mut have_unmatched_recv = false;
        for (&(src, dst, tag), &sent) in &sends {
            match recvs.get(&(src, dst, tag)) {
                None => errors.push(PlanError::UnmatchedSend { src, dst, tag }),
                Some(&expected) => {
                    if sent != ANY_BYTES && expected != ANY_BYTES && sent != expected {
                        errors.push(PlanError::ByteMismatch {
                            src,
                            dst,
                            tag,
                            sent,
                            expected,
                        });
                    }
                }
            }
        }
        for &(src, dst, tag) in recvs.keys() {
            if !sends.contains_key(&(src, dst, tag)) {
                errors.push(PlanError::UnmatchedRecv { src, dst, tag });
                have_unmatched_recv = true;
            }
        }

        // Topology.
        if let Some(allowed) = &checks.topology {
            for &(src, dst, tag) in sends.keys() {
                if src != dst && !allowed.contains(&(src, dst)) {
                    errors.push(PlanError::TopologyViolation { src, dst, tag });
                }
            }
        }

        // Volume symmetry over matched, sized edges.
        if checks.volume_symmetry {
            let mut pair_bytes: HashMap<(usize, usize), u64> = HashMap::new();
            for (&(src, dst, _), &bytes) in &sends {
                if bytes != ANY_BYTES {
                    *pair_bytes.entry((src, dst)).or_default() += bytes;
                }
            }
            for (&(a, b), &a_to_b) in &pair_bytes {
                if a < b {
                    let b_to_a = pair_bytes.get(&(b, a)).copied().unwrap_or(0);
                    if a_to_b != b_to_a {
                        errors.push(PlanError::VolumeAsymmetry {
                            a,
                            b,
                            a_to_b,
                            b_to_a,
                        });
                    }
                }
            }
        }

        // Deadlock freedom via abstract execution. Unmatched receives (and
        // miswired request/wait pairings) would trivially wedge it, so only
        // run once matching is clean — the earlier errors already tell the
        // caller what is wrong.
        if !have_unmatched_recv && !have_request_error {
            if let Some(err) = self.simulate() {
                errors.push(err);
            }
        }

        if errors.is_empty() {
            Ok(PlanStats {
                sends: n_sends,
                recvs: n_recvs,
                bytes: total_bytes,
            })
        } else {
            errors.sort_by_key(error_order);
            Err(errors)
        }
    }

    /// Verify and panic with a readable report on failure — the form the
    /// drivers use on the plans they build.
    pub fn assert_valid(&self, checks: &PlanChecks) -> PlanStats {
        match self.verify_with(checks) {
            Ok(stats) => stats,
            Err(errors) => {
                let mut msg = format!("comm plan '{}' failed verification:\n", self.name);
                for e in &errors {
                    msg.push_str(&format!("  - {e}\n"));
                }
                panic!("{msg}");
            }
        }
    }

    /// Abstract execution: sends (and isends, and both wait-send and irecv
    /// posts) never block; a receive or wait-recv executes once the matching
    /// send has executed (per-key FIFO is irrelevant here because collisions
    /// were already rejected). Returns the deadlock report if the execution
    /// wedges.
    fn simulate(&self) -> Option<PlanError> {
        let n = self.n_ranks();
        let mut pc = vec![0usize; n];
        let mut posted: HashSet<(usize, usize, u64)> = HashSet::new();
        let mut progress = true;
        while progress {
            progress = false;
            for rank in 0..n {
                while pc[rank] < self.programs[rank].len() {
                    match self.programs[rank][pc[rank]] {
                        Op::Send { to, tag, .. } | Op::Isend { to, tag, .. } => {
                            posted.insert((rank, to, tag));
                        }
                        // Posting a receive and completing a buffered send
                        // are local.
                        Op::Irecv { .. } | Op::WaitSend { .. } => {}
                        Op::Recv { from, tag, .. } | Op::WaitRecv { from, tag, .. } => {
                            if !posted.remove(&(from, rank, tag)) {
                                break;
                            }
                        }
                    }
                    pc[rank] += 1;
                    progress = true;
                }
            }
        }

        let blocked: Vec<BlockedRecv> = (0..n)
            .filter(|&r| pc[r] < self.programs[r].len())
            .map(|r| match self.programs[r][pc[r]] {
                Op::Recv { from, tag, .. } | Op::WaitRecv { from, tag, .. } => BlockedRecv {
                    rank: r,
                    op_index: pc[r],
                    from,
                    tag,
                },
                // Everything else is local, so a wedged rank is mid-receive.
                Op::Send { .. } | Op::Isend { .. } | Op::Irecv { .. } | Op::WaitSend { .. } => {
                    unreachable!("abstract execution only blocks on receives")
                }
            })
            .collect();
        if blocked.is_empty() {
            return None;
        }

        // Follow the wait-for relation (blocked rank -> rank owning the
        // pending matching send) until it revisits a rank: that is a cycle.
        let waits_on: HashMap<usize, usize> = blocked
            .iter()
            .filter(|b| {
                // Only a wait on another *blocked* rank can be part of a cycle.
                blocked.iter().any(|o| o.rank == b.from)
            })
            .map(|b| (b.rank, b.from))
            .collect();
        let mut cycle = Vec::new();
        if let Some((&start, _)) = waits_on.iter().next() {
            let mut seen = HashMap::new();
            let mut cur = start;
            while let Some(&next) = waits_on.get(&cur) {
                if let Some(&pos) = seen.get(&cur) {
                    cycle = cycle.split_off(pos);
                    break;
                }
                seen.insert(cur, cycle.len());
                cycle.push(cur);
                cur = next;
            }
            if !waits_on.contains_key(&cur) {
                cycle.clear();
            }
        }
        Some(PlanError::Deadlock { blocked, cycle })
    }
}

fn error_order(e: &PlanError) -> u8 {
    match e {
        PlanError::TagCollision { .. } => 0,
        PlanError::ByteMismatch { .. } => 1,
        PlanError::WaitWithoutRequest { .. } => 2,
        PlanError::UnwaitedRequest { .. } => 3,
        PlanError::UnmatchedRecv { .. } => 4,
        PlanError::UnmatchedSend { .. } => 5,
        PlanError::TopologyViolation { .. } => 6,
        PlanError::VolumeAsymmetry { .. } => 7,
        PlanError::Deadlock { .. } => 8,
    }
}

/// The directed neighbour edges of the 3-D Cartesian topology of `decomp`:
/// every `(rank, ±1-neighbour-along-axis)` pair, exactly the edges
/// [`CommPlan::shift`] uses. On an axis with one rank the
/// neighbour is the rank itself, so self-edges appear naturally.
pub fn cart_neighbor_edges(decomp: &Decomp3) -> HashSet<(usize, usize)> {
    let mut edges = HashSet::new();
    for rank in 0..decomp.n_ranks() {
        for axis in 0..3 {
            for dir in [-1i64, 1] {
                edges.insert((rank, decomp.neighbor(rank, axis, dir)));
            }
        }
    }
    edges
}

// -- running a plan ----------------------------------------------------------

/// The payloads one rank moves while it runs its program of a [`CommPlan`],
/// by peer and plan-relative tag. One handler serves a whole run, so a
/// staged exchange can send what an earlier receive delivered. Payloads move
/// as they are: nothing is serialised or cloned.
pub trait Exchange<T> {
    /// The payload this rank sends `peer` under `tag`, asked for once per
    /// send op, in program order.
    fn outgoing(&mut self, peer: usize, tag: u64) -> T;
    /// The payload `peer` sent under `tag`, handed over once per receive op
    /// as it completes.
    fn delivered(&mut self, peer: usize, tag: u64, value: T);
}

/// The handler of a [`CommPlan::shift`] whose two payloads are ready before
/// it runs: `low` travels toward the −1 neighbour (the even tag), `high`
/// toward the +1 neighbour (the odd one).
pub struct Shift<T> {
    sent: [Option<T>; 2],
    received: [Option<T>; 2],
}

impl<T> Shift<T> {
    pub fn new(low: T, high: T) -> Self {
        Self {
            sent: [Some(low), Some(high)],
            received: [None, None],
        }
    }

    /// `(from_low, from_high)`: what the −1 and the +1 neighbour sent.
    ///
    /// # Panics
    /// Panics unless the plan that ran delivered both.
    pub fn received(self) -> (T, T) {
        let [Some(from_high), Some(from_low)] = self.received else {
            panic!("the shift ran without delivering both neighbours' payloads");
        };
        (from_low, from_high)
    }
}

impl<T> Exchange<T> for Shift<T> {
    fn outgoing(&mut self, _peer: usize, tag: u64) -> T {
        self.sent[(tag % 2) as usize]
            .take()
            .expect("a shift sends each payload once")
    }

    fn delivered(&mut self, _peer: usize, tag: u64, value: T) {
        self.received[(tag % 2) as usize] = Some(value);
    }
}

/// A rank's program of a [`CommPlan`] part-way through: the requests its
/// ops have posted and the ops still to run. [`crate::SplitPhase::post`]
/// returns one stopped before the first op that waits; [`Posted::finish`]
/// runs the rest. A request it still holds when dropped — unfinished, or
/// finished with a program that never waits on it — is reported by
/// [`crate::SimOptions::verify_leaks`].
#[must_use = "a posted program must be finished"]
pub struct Posted<'c, 'p> {
    comm: &'c Comm,
    ops: &'p [Op],
    base: u64,
    /// Posted requests not yet waited on, by plan-relative tag.
    pending: Vec<(RequestKind, usize, u64)>,
}

impl<'c, 'p> Posted<'c, 'p> {
    pub(crate) fn start(comm: &'c Comm, plan: &'p CommPlan, base: u64) -> Self {
        assert_eq!(plan.n_ranks(), comm.size(), "plan '{}'", plan.name);
        Self {
            comm,
            ops: plan.program(comm.rank()),
            base,
            pending: Vec::new(),
        }
    }

    /// Run ops in program order, every tag raised by the base; with
    /// `posting`, stop before the first op that waits. Sends are buffered,
    /// so a posted send is sent at once and its wait only retires it; a
    /// posted receive takes its message at its wait.
    pub(crate) fn advance<T: Payload>(&mut self, io: &mut impl Exchange<T>, posting: bool) {
        let (comm, base) = (self.comm, self.base);
        while let Some((&op, rest)) = self.ops.split_first() {
            let waits = matches!(
                op,
                Op::Recv { .. } | Op::WaitRecv { .. } | Op::WaitSend { .. }
            );
            if posting && waits {
                return;
            }
            self.ops = rest;
            match op {
                Op::Send { to, tag, bytes } | Op::Isend { to, tag, bytes } => {
                    comm.send(to, base + tag, outgoing(io, to, tag, bytes));
                    if matches!(op, Op::Isend { .. }) {
                        self.pending.push((RequestKind::Send, to, tag));
                    }
                }
                Op::Irecv { from, tag, .. } => self.pending.push((RequestKind::Recv, from, tag)),
                Op::WaitSend { to, tag } => self.retire((RequestKind::Send, to, tag)),
                Op::Recv { from, tag, .. } | Op::WaitRecv { from, tag } => {
                    if matches!(op, Op::WaitRecv { .. }) {
                        self.retire((RequestKind::Recv, from, tag));
                    }
                    io.delivered(from, tag, comm.recv(from, base + tag));
                }
            }
        }
    }

    fn retire(&mut self, request: (RequestKind, usize, u64)) {
        let i = self
            .pending
            .iter()
            .position(|&p| p == request)
            .expect("a verified plan waits only on requests it posted");
        self.pending.swap_remove(i);
    }

    /// Run the ops left after the post: the waits and whatever follows.
    pub fn finish<T: Payload>(mut self, io: &mut impl Exchange<T>) {
        self.advance(io, false);
    }
}

impl Drop for Posted<'_, '_> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            for &(kind, peer, tag) in &self.pending {
                self.comm.record_request_leak(kind, peer, self.base + tag);
            }
        }
    }
}

/// The handler's payload for a send op, held to the op's byte count.
fn outgoing<T: Payload>(io: &mut impl Exchange<T>, peer: usize, tag: u64, bytes: u64) -> T {
    let value = io.outgoing(peer, tag);
    debug_assert!(
        bytes == ANY_BYTES || value.byte_len() as u64 == bytes,
        "payload to rank {peer} under tag {tag}: {} B, the plan declares {bytes} B",
        value.byte_len()
    );
    value
}

impl Comm {
    /// Run this rank's program of `plan` with every tag raised by `base`, in
    /// program order: `io` supplies each payload sent and takes each one
    /// delivered. Every rank of the universe runs its own program of the
    /// same plan at the same base.
    pub fn run_plan<T: Payload>(&self, plan: &CommPlan, base: u64, io: &mut impl Exchange<T>) {
        Posted::start(self, plan, base).finish(io);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The ring over `n` ranks, posted: each rank sends the next one a
    /// `u64` under `tag` and receives the previous one's.
    pub(crate) fn posted_ring(n: usize, tag: u64) -> CommPlan {
        let mut plan = CommPlan::new("ring", n);
        for r in 0..n {
            plan.send(r, (r + 1) % n, tag, 8)
                .recv(r, (r + n - 1) % n, tag, 8);
        }
        plan.posted()
    }

    /// A handler that sends one value and keeps the last one delivered.
    pub(crate) struct Value(pub u64, pub Option<u64>);

    impl Exchange<u64> for Value {
        fn outgoing(&mut self, _peer: usize, _tag: u64) -> u64 {
            self.0
        }

        fn delivered(&mut self, _peer: usize, _tag: u64, value: u64) {
            self.1 = Some(value);
        }
    }

    /// `comm`'s split-phase view, on a 1-D grid of all its ranks.
    pub(crate) fn split_phase(comm: &Comm) -> crate::SplitPhase<'_> {
        let n = comm.size();
        crate::Cart3::new(comm, Decomp3::new([n, 1, 1], [n, 1, 1])).split_phase()
    }

    // Hand-built split-phase programs; the shipped ones come from
    // `CommPlan::posted`.
    impl CommPlan {
        /// Rank `src`'s program gains a split-phase send post to `dst`.
        pub fn isend(&mut self, src: usize, dst: usize, tag: u64, bytes: u64) -> &mut Self {
            assert!(src < self.n_ranks() && dst < self.n_ranks());
            self.programs[src].push(Op::Isend {
                to: dst,
                tag,
                bytes,
            });
            self
        }

        /// Rank `dst`'s program gains a split-phase receive post from `src`.
        pub fn irecv(&mut self, dst: usize, src: usize, tag: u64, bytes: u64) -> &mut Self {
            assert!(src < self.n_ranks() && dst < self.n_ranks());
            self.programs[dst].push(Op::Irecv {
                from: src,
                tag,
                bytes,
            });
            self
        }

        /// Rank `rank`'s program gains the completion of its posted isend to
        /// `peer`.
        pub fn wait_send(&mut self, rank: usize, peer: usize, tag: u64) -> &mut Self {
            assert!(rank < self.n_ranks() && peer < self.n_ranks());
            self.programs[rank].push(Op::WaitSend { to: peer, tag });
            self
        }

        /// Rank `rank`'s program gains the completion of its posted irecv from
        /// `peer`.
        pub fn wait_recv(&mut self, rank: usize, peer: usize, tag: u64) -> &mut Self {
            assert!(rank < self.n_ranks() && peer < self.n_ranks());
            self.programs[rank].push(Op::WaitRecv { from: peer, tag });
            self
        }
    }

    fn ring_plan(n: usize, tag: u64) -> CommPlan {
        let mut plan = CommPlan::new("ring", n);
        for r in 0..n {
            let next = (r + 1) % n;
            let prev = (r + n - 1) % n;
            plan.send(r, next, tag, 64).recv(r, prev, tag, 64);
        }
        plan
    }

    #[test]
    fn clean_ring_verifies() {
        let stats = ring_plan(5, 7).verify().expect("ring plan is clean");
        assert_eq!(stats.sends, 5);
        assert_eq!(stats.recvs, 5);
        assert_eq!(stats.bytes, 5 * 64);
    }

    #[test]
    fn unmatched_send_is_a_leak() {
        let mut plan = CommPlan::new("leak", 2);
        plan.send(0, 1, 3, 8);
        let errs = plan.verify().unwrap_err();
        assert!(matches!(
            errs[0],
            PlanError::UnmatchedSend {
                src: 0,
                dst: 1,
                tag: 3
            }
        ));
    }

    #[test]
    fn unmatched_recv_is_flagged_not_simulated() {
        let mut plan = CommPlan::new("orphan-recv", 2);
        plan.recv(1, 0, 9, 8);
        let errs = plan.verify().unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], PlanError::UnmatchedRecv { .. }));
    }

    #[test]
    fn tag_collision_detected() {
        let mut plan = CommPlan::new("collide", 2);
        plan.send(0, 1, 5, 8).send(0, 1, 5, 8);
        plan.recv(1, 0, 5, 8).recv(1, 0, 5, 8);
        let errs = plan.verify().unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlanError::TagCollision { kind: "send", .. })));
        assert!(errs
            .iter()
            .any(|e| matches!(e, PlanError::TagCollision { kind: "recv", .. })));
    }

    #[test]
    fn byte_mismatch_detected() {
        let mut plan = CommPlan::new("sizes", 2);
        plan.send(0, 1, 1, 100).recv(1, 0, 1, 200);
        let errs = plan.verify().unwrap_err();
        assert!(matches!(
            errs[0],
            PlanError::ByteMismatch {
                sent: 100,
                expected: 200,
                ..
            }
        ));
    }

    #[test]
    fn any_bytes_skips_size_comparison() {
        let mut plan = CommPlan::new("halo", 2);
        plan.send(0, 1, 1, ANY_BYTES).recv(1, 0, 1, 48);
        plan.send(1, 0, 1, 48).recv(0, 1, 1, ANY_BYTES);
        plan.verify().expect("wildcard sizes match anything");
    }

    #[test]
    fn recv_before_send_cycle_is_a_deadlock() {
        // Both ranks receive before sending: the classic exchange deadlock
        // (real MPI with rendezvous sends wedges the same way).
        let mut plan = CommPlan::new("deadlock", 2);
        plan.recv(0, 1, 2, 8).send(0, 1, 2, 8);
        plan.recv(1, 0, 2, 8).send(1, 0, 2, 8);
        let errs = plan.verify().unwrap_err();
        let PlanError::Deadlock { blocked, cycle } = &errs[0] else {
            panic!("expected deadlock, got {:?}", errs[0]);
        };
        assert_eq!(blocked.len(), 2);
        assert_eq!(cycle.len(), 2, "two-rank wait-for cycle: {cycle:?}");
    }

    #[test]
    fn ordered_recv_chain_is_not_a_deadlock() {
        // Rank 1 receives before sending, but rank 0 sends first — the chain
        // resolves; buffered sends make this safe.
        let mut plan = CommPlan::new("chain", 2);
        plan.send(0, 1, 2, 8).recv(0, 1, 3, 8);
        plan.recv(1, 0, 2, 8).send(1, 0, 3, 8);
        plan.verify().expect("chain resolves");
    }

    #[test]
    fn topology_check_rejects_non_neighbors() {
        let decomp = Decomp3::new([8, 8, 8], [4, 1, 1]);
        let allowed = cart_neighbor_edges(&decomp);
        // 0 -> 2 skips a rank on the 4-rank x-axis ring.
        let mut plan = CommPlan::new("skip", 4);
        plan.send(0, 2, 1, 8).recv(2, 0, 1, 8);
        let errs = plan
            .verify_with(&PlanChecks {
                topology: Some(allowed.clone()),
                volume_symmetry: false,
            })
            .unwrap_err();
        assert!(matches!(errs[0], PlanError::TopologyViolation { .. }));
        // 0 -> 1 is a real neighbour edge.
        let mut plan = CommPlan::new("ok", 4);
        plan.send(0, 1, 1, 8).recv(1, 0, 1, 8);
        plan.verify_with(&PlanChecks {
            topology: Some(allowed),
            volume_symmetry: false,
        })
        .expect("neighbour edge allowed");
    }

    #[test]
    fn volume_asymmetry_detected() {
        let mut plan = CommPlan::new("lopsided", 2);
        plan.send(0, 1, 1, 100).recv(1, 0, 1, 100);
        plan.send(1, 0, 2, 60).recv(0, 1, 2, 60);
        let errs = plan
            .verify_with(&PlanChecks {
                topology: None,
                volume_symmetry: true,
            })
            .unwrap_err();
        assert!(matches!(
            errs[0],
            PlanError::VolumeAsymmetry {
                a_to_b: 100,
                b_to_a: 60,
                ..
            }
        ));
    }

    #[test]
    fn self_edges_verify_on_single_rank_axis() {
        let decomp = Decomp3::new([8, 8, 8], [1, 1, 1]);
        let allowed = cart_neighbor_edges(&decomp);
        let mut plan = CommPlan::new("self", 1);
        plan.send(0, 0, 1, 32).recv(0, 0, 1, 32);
        plan.verify_with(&PlanChecks {
            topology: Some(allowed),
            volume_symmetry: true,
        })
        .expect("self exchange on P=1 axis is legal");
    }

    fn split_ring_plan(n: usize, tag: u64) -> CommPlan {
        // The overlap motif: post both sides, compute, then wait.
        let mut plan = CommPlan::new("split-ring", n);
        for r in 0..n {
            let next = (r + 1) % n;
            let prev = (r + n - 1) % n;
            plan.isend(r, next, tag, 64);
            plan.irecv(r, prev, tag, 64);
            plan.wait_recv(r, prev, tag);
            plan.wait_send(r, next, tag);
        }
        plan
    }

    #[test]
    fn clean_split_ring_verifies() {
        let stats = split_ring_plan(4, 9).verify().expect("split ring is clean");
        assert_eq!(stats.sends, 4);
        assert_eq!(stats.recvs, 4);
        assert_eq!(stats.bytes, 4 * 64);
    }

    #[test]
    fn unwaited_isend_is_flagged() {
        let mut plan = split_ring_plan(3, 2);
        // Rank 1 forgets to retire its send.
        let pos = plan.programs[1]
            .iter()
            .position(|op| matches!(op, Op::WaitSend { .. }))
            .expect("ring has a wait-send");
        plan.programs[1].remove(pos);
        let errs = plan.verify().unwrap_err();
        assert_eq!(
            errs[0],
            PlanError::UnwaitedRequest {
                rank: 1,
                peer: 2,
                tag: 2,
                kind: "isend"
            }
        );
    }

    #[test]
    fn unwaited_irecv_is_flagged() {
        let mut plan = split_ring_plan(3, 2);
        let pos = plan.programs[0]
            .iter()
            .position(|op| matches!(op, Op::WaitRecv { .. }))
            .expect("ring has a wait-recv");
        plan.programs[0].remove(pos);
        let errs = plan.verify().unwrap_err();
        assert_eq!(
            errs[0],
            PlanError::UnwaitedRequest {
                rank: 0,
                peer: 2,
                tag: 2,
                kind: "irecv"
            }
        );
    }

    #[test]
    fn wait_without_post_is_flagged() {
        let mut plan = CommPlan::new("spurious-wait", 2);
        plan.send(0, 1, 1, 8).recv(1, 0, 1, 8);
        plan.wait_recv(1, 0, 1); // no irecv was ever posted
        let errs = plan.verify().unwrap_err();
        assert_eq!(
            errs[0],
            PlanError::WaitWithoutRequest {
                rank: 1,
                peer: 0,
                tag: 1,
                kind: "irecv"
            }
        );
    }

    #[test]
    fn isend_collides_with_blocking_send_on_same_edge() {
        let mut plan = CommPlan::new("mixed-collision", 2);
        plan.send(0, 1, 5, 8);
        plan.isend(0, 1, 5, 8).wait_send(0, 1, 5);
        plan.recv(1, 0, 5, 8);
        let errs = plan.verify().unwrap_err();
        assert!(matches!(
            errs[0],
            PlanError::TagCollision { kind: "send", .. }
        ));
    }

    #[test]
    fn split_wait_cycle_is_a_deadlock() {
        // Both ranks wait for the peer's message before posting their own
        // send: the waits wedge exactly like blocking receives.
        let mut plan = CommPlan::new("split-deadlock", 2);
        for r in 0..2 {
            let other = 1 - r;
            plan.irecv(r, other, 3, 8);
            plan.wait_recv(r, other, 3);
            plan.isend(r, other, 3, 8);
            plan.wait_send(r, other, 3);
        }
        let errs = plan.verify().unwrap_err();
        let PlanError::Deadlock { blocked, cycle } = &errs[0] else {
            panic!("expected deadlock, got {:?}", errs[0]);
        };
        assert_eq!(blocked.len(), 2);
        assert_eq!(cycle.len(), 2);
    }

    #[test]
    fn split_edges_appear_in_send_edges() {
        let plan = split_ring_plan(3, 1);
        let edges = plan.send_edges();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&(0, 1, 1, 64)));
    }

    #[test]
    fn split_errors_render_readably() {
        let mut plan = CommPlan::new("demo", 2);
        plan.isend(0, 1, 3, 8).recv(1, 0, 3, 8);
        let errs = plan.verify().unwrap_err();
        let text = errs[0].to_string();
        assert!(text.contains("unwaited request"), "{text}");
        assert!(text.contains("isend"), "{text}");
    }

    #[test]
    fn posted_form_posts_first_and_waits_receives_then_sends() {
        let decomp = Decomp3::new([8, 8, 8], [3, 1, 1]);
        let mut blocking = CommPlan::new("shift", 3);
        blocking.shift(&decomp, 0, 4, |r| 8 * (r as u64 + 1));
        let posted = blocking.posted();
        assert!(posted.is_posted() && !blocking.is_posted());
        assert_eq!(
            posted.program(1),
            [
                Op::Isend {
                    to: 0,
                    tag: 4,
                    bytes: 16
                },
                Op::Irecv {
                    from: 2,
                    tag: 4,
                    bytes: 24
                },
                Op::Isend {
                    to: 2,
                    tag: 5,
                    bytes: 16
                },
                Op::Irecv {
                    from: 0,
                    tag: 5,
                    bytes: 8
                },
                Op::WaitRecv { from: 2, tag: 4 },
                Op::WaitRecv { from: 0, tag: 5 },
                Op::WaitSend { to: 0, tag: 4 },
                Op::WaitSend { to: 2, tag: 5 },
            ]
        );
        let checks = PlanChecks {
            topology: Some(cart_neighbor_edges(&decomp)),
            volume_symmetry: false,
        };
        let (a, b) = (blocking.assert_valid(&checks), posted.assert_valid(&checks));
        assert_eq!((a.sends, a.recvs, a.bytes), (b.sends, b.recvs, b.bytes));
    }

    #[test]
    fn appended_plans_run_in_disjoint_tag_windows() {
        let decomp = Decomp3::new([8, 8, 8], [2, 1, 1]);
        let mut shift = CommPlan::new("shift", 2);
        shift.shift(&decomp, 0, 0, |_| 8);
        let mut twice = CommPlan::new("twice", 2);
        twice.append(&shift, 10).append(&shift, 12);
        twice.verify().expect("disjoint windows");
        assert_eq!(
            twice.program(0)[4],
            Op::Send {
                to: 1,
                tag: 12,
                bytes: 8
            }
        );
        let mut clash = CommPlan::new("clash", 2);
        clash.append(&shift, 10).append(&shift, 11);
        let errs = clash.verify().unwrap_err();
        assert!(
            matches!(errs[0], PlanError::TagCollision { .. }),
            "{errs:?}"
        );
    }

    #[test]
    fn errors_render_readably() {
        let mut plan = CommPlan::new("demo", 2);
        plan.send(0, 1, 3, 8);
        let errs = plan.verify().unwrap_err();
        let text = errs[0].to_string();
        assert!(text.contains("unmatched send"), "{text}");
        assert!(text.contains("tag 3"), "{text}");
    }
}
