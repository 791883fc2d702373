//! Cartesian communicator: a 3-D process-grid view over a [`Comm`].
//!
//! Mirrors `MPI_Cart_create` + `MPI_Cart_shift`: the spatial domain
//! decomposition of both the Vlasov grid and the N-body particles talks to
//! neighbours through this façade, so the decomposition arithmetic lives in
//! exactly one place ([`vlasov6d_mesh::Decomp3`]).

use crate::comm::{Comm, Payload};
use crate::plan::{CommPlan, Exchange, Posted};
use vlasov6d_mesh::Decomp3;

/// A [`Comm`] bound to a 3-D periodic process grid.
pub struct Cart3<'c> {
    comm: &'c Comm,
    decomp: Decomp3,
}

impl<'c> Cart3<'c> {
    /// Bind `comm` to the process grid of `decomp`.
    ///
    /// # Panics
    /// Panics if the communicator size does not match the process grid.
    pub fn new(comm: &'c Comm, decomp: Decomp3) -> Self {
        assert_eq!(
            comm.size(),
            decomp.n_ranks(),
            "communicator size {} != process grid size {}",
            comm.size(),
            decomp.n_ranks()
        );
        Self { comm, decomp }
    }

    pub fn comm(&self) -> &Comm {
        self.comm
    }

    pub fn decomp(&self) -> &Decomp3 {
        &self.decomp
    }

    /// This rank's process-grid coordinates.
    pub fn coords(&self) -> [usize; 3] {
        self.decomp.coords_of_rank(self.comm.rank())
    }

    /// Local block dimensions of this rank.
    pub fn local_dims(&self) -> [usize; 3] {
        self.decomp.local_dims(self.comm.rank())
    }

    /// Global offset of this rank's block.
    pub fn local_offset(&self) -> [usize; 3] {
        self.decomp.local_offset(self.comm.rank())
    }

    /// Rank of the ±1 neighbour along `axis` (periodic).
    pub fn neighbor(&self, axis: usize, dir: i64) -> usize {
        self.decomp.neighbor(self.comm.rank(), axis, dir)
    }

    /// This grid's [`SplitPhase`] view.
    pub fn split_phase(&self) -> SplitPhase<'c> {
        SplitPhase { comm: self.comm }
    }
}

/// The split-phase face of a [`Cart3`]: it posts a plan's program and
/// nothing that blocks. Code handed only this view — the region of an
/// overlapped exchange that runs while messages are in flight — cannot
/// serialise on communication, because no receive, `sendrecv`, plan run or
/// collective is reachable from it; the [`Posted`] program it returns
/// finishes with its waits once the overlapped work is done.
#[derive(Clone, Copy)]
pub struct SplitPhase<'c> {
    comm: &'c Comm,
}

impl<'c> SplitPhase<'c> {
    /// Run this rank's program of `plan` at tag base `base` up to, not
    /// including, its first op that waits ([`Comm::run_plan`] runs all of
    /// it): every send and receive a [`CommPlan::posted`] program posts.
    pub fn post<'p, T: Payload>(
        &self,
        plan: &'p CommPlan,
        base: u64,
        io: &mut impl Exchange<T>,
    ) -> Posted<'c, 'p> {
        let mut posted = Posted::start(self.comm, plan, base);
        posted.advance(io, true);
        posted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Universe;

    #[test]
    fn coords_match_decomp() {
        let decomp = Decomp3::new([8, 8, 8], [2, 2, 2]);
        let out = Universe::run(8, move |c| {
            let cart = Cart3::new(c, decomp);
            cart.coords()
        });
        for (rank, coords) in out.iter().enumerate() {
            assert_eq!(*coords, decomp.coords_of_rank(rank));
        }
    }

    #[test]
    fn shift_plan_rotates_blocks() {
        use crate::plan::Shift;
        let decomp = Decomp3::new([12, 4, 4], [3, 1, 1]);
        let mut plan = CommPlan::new("rotate", 3);
        plan.shift(&decomp, 0, 0, |_| 8);
        let blocking = plan.clone();
        let out = Universe::run(3, move |c| {
            // Send my rank id both ways; receive both neighbours'.
            let mut ids = Shift::new(c.rank() as u64, c.rank() as u64);
            c.run_plan(&blocking, 0, &mut ids);
            let blocking = ids.received();
            let posted = plan.posted();
            let mut ids = Shift::new(c.rank() as u64, c.rank() as u64);
            let split = Cart3::new(c, decomp).split_phase();
            split.post(&posted, 2, &mut ids).finish(&mut ids);
            assert_eq!(blocking, ids.received());
            blocking
        });
        assert_eq!(out, vec![(2, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn both_directions_are_inverse() {
        let decomp = Decomp3::new([8, 8, 8], [1, 2, 2]);
        Universe::run(4, move |c| {
            let cart = Cart3::new(c, decomp);
            for axis in 0..3 {
                let down = cart.neighbor(axis, 1);
                let back = decomp.neighbor(down, axis, -1);
                assert_eq!(back, c.rank());
            }
        });
    }

    #[test]
    #[should_panic(expected = "communicator size")]
    fn size_mismatch_panics() {
        let decomp = Decomp3::new([8, 8, 8], [2, 2, 2]);
        Universe::run(4, move |c| {
            let _ = Cart3::new(c, decomp);
        });
    }

    #[test]
    fn local_blocks_tile_the_domain() {
        let decomp = Decomp3::new([10, 6, 6], [2, 2, 1]);
        let out = Universe::run(4, move |c| {
            let cart = Cart3::new(c, decomp);
            (cart.local_offset(), cart.local_dims())
        });
        let mut cells = 0;
        for (_, dims) in &out {
            cells += dims[0] * dims[1] * dims[2];
        }
        assert_eq!(cells, 10 * 6 * 6);
    }
}
