//! Cartesian communicator: a 3-D process-grid view over a [`Comm`].
//!
//! Mirrors `MPI_Cart_create` + `MPI_Cart_shift`: the spatial domain
//! decomposition of both the Vlasov grid and the N-body particles talks to
//! neighbours through this façade, so the decomposition arithmetic lives in
//! exactly one place ([`vlasov6d_mesh::Decomp3`]).

use crate::comm::{Comm, Payload, RecvRequest, SendRequest};
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

    /// Periodic shift exchange along `axis`: sends `payload` in direction
    /// `dir` (±1) and returns the payload arriving from the opposite
    /// neighbour — the ghost-plane exchange primitive. `tag` must be unique
    /// per concurrent exchange, as with raw sends.
    pub fn shift_exchange<T: Payload>(&self, axis: usize, dir: i64, tag: u64, payload: T) -> T {
        let dest = self.neighbor(axis, dir);
        let source = self.neighbor(axis, -dir);
        self.comm.sendrecv(dest, tag, payload, source, tag)
    }

    /// This grid's [`SplitPhase`] view.
    pub fn split_phase(&self) -> SplitPhase<'c> {
        SplitPhase {
            comm: self.comm,
            decomp: self.decomp,
        }
    }
}

/// The split-phase face of a [`Cart3`]: neighbour ranks, posted sends and
/// posted receives, and nothing that blocks. Code handed only this view — the
/// region of an overlapped exchange that runs while messages are in flight —
/// cannot serialise on communication, because `send`, `recv`, `sendrecv`,
/// `shift_exchange` and the collectives are not reachable from it; its
/// requests complete with their `wait` once the overlapped work is done.
#[derive(Clone, Copy)]
pub struct SplitPhase<'c> {
    comm: &'c Comm,
    decomp: Decomp3,
}

impl<'c> SplitPhase<'c> {
    /// Rank of the ±1 neighbour along `axis` (periodic).
    pub fn neighbor(&self, axis: usize, dir: i64) -> usize {
        self.decomp.neighbor(self.comm.rank(), axis, dir)
    }

    /// Post a send of `value` to `dest` ([`Comm::isend`]).
    pub fn isend<T: Payload>(&self, dest: usize, tag: u64, value: T) -> SendRequest<'c> {
        self.comm.isend(dest, tag, value)
    }

    /// Post a receive from `source` ([`Comm::irecv`]).
    pub fn irecv<T: Payload>(&self, source: usize, tag: u64) -> RecvRequest<'c, T> {
        self.comm.irecv(source, tag)
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
    fn shift_exchange_rotates_blocks() {
        let decomp = Decomp3::new([12, 4, 4], [3, 1, 1]);
        let out = Universe::run(3, move |c| {
            let cart = Cart3::new(c, decomp);
            // Send my rank id downstream (+1 in axis 0); receive upstream's.
            cart.shift_exchange(0, 1, 0, c.rank() as u64)
        });
        assert_eq!(out, vec![2, 0, 1]);
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
