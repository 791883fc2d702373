//! Tree boundary (halo) particle exchange for domain-decomposed TreePM.
//!
//! The paper's tree part decomposes particles over the same 3-D process grid
//! as the Vlasov mesh; the short-range walk of a rank needs every particle
//! within the cutoff radius of its block, so each step ships boundary
//! particles to the face neighbours. The exchange is staged over the axes
//! (x, then y including the x-ghosts, then z) so edge- and corner-region
//! particles arrive through two hops — the standard construction that keeps
//! every transfer on a [`Cart3`] neighbour edge.
//!
//! The exchange is one plan ([`HaloExchange::plan`]), a [`CommPlan::shift`]
//! per decomposed axis, and [`HaloExchange::exchange`] runs it. Particle
//! counts are data-dependent, so its edges declare [`ANY_BYTES`]: the
//! verifier still checks matching, tag discipline, deadlock freedom and
//! topology, and the leak check of `Universe::run_checked` catches
//! unconsumed halos at run time.

use vlasov6d_mesh::Decomp3;
use vlasov6d_mpisim::{Cart3, CommPlan, Exchange, ANY_BYTES};

/// Face-neighbour particle halo exchange over a [`Decomp3`] process grid.
#[derive(Debug, Clone)]
pub struct HaloExchange {
    decomp: Decomp3,
    halo: f64,
    plan: CommPlan,
}

impl HaloExchange {
    /// Exchange boundary particles within `halo` (box units) of each block
    /// face. One-neighbour-deep: `halo` must not exceed any block width, so
    /// the cutoff region of a rank is covered by its face neighbours alone.
    pub fn new(decomp: Decomp3, halo: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&halo),
            "halo must be in [0, 1) box units"
        );
        let mut plan = CommPlan::new("nbody.halo_exchange", decomp.n_ranks());
        for axis in 0..3 {
            if decomp.procs[axis] == 1 {
                continue;
            }
            for c in 0..decomp.procs[axis] {
                let width = decomp.range(axis, c).len() as f64 / decomp.global[axis] as f64;
                assert!(
                    halo <= width,
                    "halo {halo} exceeds the axis-{axis} block width {width}: \
                     the one-neighbour-deep exchange cannot cover the cutoff"
                );
            }
            plan.shift(&decomp, axis, 2 * axis as u64, |_| ANY_BYTES);
        }
        Self { decomp, halo, plan }
    }

    pub fn decomp(&self) -> &Decomp3 {
        &self.decomp
    }

    /// The exchange's plan, tag-relative: per decomposed axis `d`, a send
    /// toward each face neighbour (tags `2d` low, `2d + 1` high) with the
    /// matching receives. Axes with a single process are skipped — periodic
    /// self-images are the minimum-image convention's job, not the
    /// exchange's. Verify against [`vlasov6d_mpisim::cart_neighbor_edges`].
    pub fn plan(&self) -> &CommPlan {
        &self.plan
    }

    /// Ship this rank's boundary particles to its face neighbours and return
    /// the ghosts received: every remote particle inside the halo frame
    /// around the local block (faces, edges and corners, via staging).
    /// Positions stay absolute box coordinates; consumers use the
    /// minimum-image convention, so no unwrapping is needed. Runs the plan
    /// at `tag`, consuming tags `tag .. tag + 6`.
    pub fn exchange(&self, cart: &Cart3<'_>, local: &[[f64; 3]], tag: u64) -> Vec<[f64; 3]> {
        let mut halo = Halo {
            ex: self,
            rank: cart.comm().rank(),
            local,
            ghosts: Vec::new(),
            arrived: Vec::new(),
        };
        cart.comm().run_plan(&self.plan, tag, &mut halo);
        halo.ghosts.append(&mut halo.arrived);
        halo.ghosts
    }
}

/// One rank's side of a running halo exchange. The particles that arrive
/// along an axis join the ghosts when the next axis starts (its low band,
/// the even tag, is cut first), so both bands of an axis are cut from the
/// same particles and the next axis forwards them.
struct Halo<'a> {
    ex: &'a HaloExchange,
    rank: usize,
    local: &'a [[f64; 3]],
    ghosts: Vec<[f64; 3]>,
    arrived: Vec<[f64; 3]>,
}

impl Exchange<Vec<f64>> for Halo<'_> {
    /// The band within the halo of the low (even tag) or high face along
    /// axis `tag / 2`.
    fn outgoing(&mut self, _peer: usize, tag: u64) -> Vec<f64> {
        let (d, low) = ((tag / 2) as usize, tag.is_multiple_of(2));
        if low {
            self.ghosts.append(&mut self.arrived);
        }
        let decomp = &self.ex.decomp;
        let off = decomp.local_offset(self.rank)[d];
        let lo = off as f64 / decomp.global[d] as f64;
        let hi = (off + decomp.local_dims(self.rank)[d]) as f64 / decomp.global[d] as f64;
        // Everything held so far (own + earlier-axis ghosts) lies inside
        // [lo, hi) along this axis, so plain comparisons select the bands.
        let mut pkt = Vec::new();
        for p in self.local.iter().chain(&self.ghosts) {
            if (low && p[d] < lo + self.ex.halo) || (!low && p[d] >= hi - self.ex.halo) {
                pkt.extend_from_slice(p);
            }
        }
        pkt
    }

    fn delivered(&mut self, _peer: usize, _tag: u64, pkt: Vec<f64>) {
        self.arrived
            .extend(pkt.chunks_exact(3).map(|p| [p[0], p[1], p[2]]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_mpisim::{cart_neighbor_edges, PlanChecks, Universe};

    fn lattice(n: usize) -> Vec<[f64; 3]> {
        let mut pts = Vec::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    pts.push([
                        (i as f64 + 0.5) / n as f64,
                        (j as f64 + 0.5) / n as f64,
                        (k as f64 + 0.5) / n as f64,
                    ]);
                }
            }
        }
        pts
    }

    fn owned_by(decomp: &Decomp3, rank: usize, p: &[f64; 3]) -> bool {
        decomp.owner_of_position(*p) == rank
    }

    /// Is `p` inside rank's block extended by `halo` along decomposed axes
    /// (periodic)?
    fn in_halo_frame(decomp: &Decomp3, rank: usize, halo: f64, p: &[f64; 3]) -> bool {
        let off = decomp.local_offset(rank);
        let dims = decomp.local_dims(rank);
        (0..3).all(|d| {
            if decomp.procs[d] == 1 {
                return true;
            }
            let lo = off[d] as f64 / decomp.global[d] as f64;
            let width = dims[d] as f64 / decomp.global[d] as f64;
            (p[d] - (lo - halo)).rem_euclid(1.0) < width + 2.0 * halo
        })
    }

    #[test]
    fn halo_plan_verifies_on_cart_topology() {
        let decomp = Decomp3::new([8, 8, 8], [2, 2, 2]);
        let ex = HaloExchange::new(decomp, 0.125);
        let stats = ex.plan().assert_valid(&PlanChecks {
            topology: Some(cart_neighbor_edges(&decomp)),
            volume_symmetry: true, // vacuous on ANY_BYTES edges
        });
        // 8 ranks · 3 axes · 2 directions.
        assert_eq!(stats.sends, 48);
        assert_eq!(stats.recvs, 48);
        assert_eq!(stats.bytes, 0, "wildcard edges declare no volume");
    }

    #[test]
    fn plan_skips_single_process_axes() {
        let decomp = Decomp3::new([8, 8, 8], [4, 1, 1]);
        let ex = HaloExchange::new(decomp, 0.1);
        let stats = ex.plan().verify().expect("clean");
        assert_eq!(stats.sends, 8, "only axis 0 exchanges");
    }

    #[test]
    fn ghosts_match_brute_force_halo_frame() {
        let decomp = Decomp3::new([8, 8, 8], [2, 2, 1]);
        let halo = 0.125;
        let all = lattice(8);
        let out = Universe::run(4, move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mine: Vec<[f64; 3]> = all
                .iter()
                .copied()
                .filter(|p| owned_by(&decomp, comm.rank(), p))
                .collect();
            let ex = HaloExchange::new(decomp, halo);
            let mut ghosts = ex.exchange(&cart, &mine, 800);
            let mut expect: Vec<[f64; 3]> = all
                .iter()
                .copied()
                .filter(|p| {
                    !owned_by(&decomp, comm.rank(), p)
                        && in_halo_frame(&decomp, comm.rank(), halo, p)
                })
                .collect();
            let key = |p: &[f64; 3]| p.map(|x| (x * 1e6) as i64);
            ghosts.sort_by_key(key);
            expect.sort_by_key(key);
            assert_eq!(ghosts, expect, "rank {}", comm.rank());
            ghosts.len()
        });
        // Every rank owns a 4×4×8 block; the frame is one cell deep around
        // the decomposed axes: (6·6 − 4·4)·8 = 160 ghosts each.
        assert_eq!(out, vec![160; 4]);
    }

    #[test]
    fn exchange_is_schedule_independent_and_leak_free() {
        use vlasov6d_mpisim::Explorer;
        let decomp = Decomp3::new([8, 8, 8], [2, 2, 1]);
        let all = lattice(4);
        let report = Explorer::new(4).with_seeds(0..4).explore(move |comm| {
            let cart = Cart3::new(comm, decomp);
            let mine: Vec<[f64; 3]> = all
                .iter()
                .copied()
                .filter(|p| owned_by(&decomp, comm.rank(), p))
                .collect();
            let ex = HaloExchange::new(decomp, 0.25);
            let mut ghosts = ex.exchange(&cart, &mine, 40);
            ghosts.sort_by_key(|p| p.map(|x| (x * 1e6) as i64));
            ghosts
        });
        assert!(report.ok(), "{}", report.summary());
    }
}
