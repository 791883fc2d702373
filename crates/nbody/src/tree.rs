//! Periodic Barnes–Hut octree and the short-range force walk.
//!
//! The tree evaluates the *short-range* part of the TreePM split: monopole
//! moments opened with the standard `ℓ/r < θ` criterion, pair forces damped
//! by the erfc-complementary factor, hard distance cutoff where the factor is
//! negligible, and minimum-image periodicity.
//!
//! The production walk ([`Tree::short_range_many`]) is Barnes' group walk
//! (J. Comput. Phys. 87, 1990), the form the paper feeds to Phantom-GRAPE:
//! targets are bucketed by the tree cell holding them, the tree is walked
//! once per cell with the opening criterion and the cutoff taken against the
//! whole cell, and every target of the cell is summed against the one
//! resulting interaction list by the lane kernel of [`crate::pp`]. The
//! per-target scalar walk ([`Tree::short_range_at`]) is the `f64` reference
//! the tests hold it to.

use crate::particles::min_image;
use crate::pp::{InteractionList, SplitKernel};
use rayon::prelude::*;
use vlasov6d_poisson::ForceSplit;

const LEAF_SIZE: usize = 8;
const MAX_DEPTH: usize = 40;

/// Targets sharing one walk sit in a cell of at most this many tree
/// particles (more only under the depth cap). Larger cells mean fewer walks
/// but longer lists for every target; 32 is the measured optimum for the
/// lane kernel's cost per pair (EXPERIMENTS.md §5.1.2 has the table).
const N_CRIT: usize = 32;

/// "No child in this octant".
const NONE: u32 = u32::MAX;

/// Second half of a group key `(node, octant)`: the group is the node's own
/// cell, not one of its empty octants.
const WHOLE_NODE: u8 = 8;

/// A cube of the octree's subdivision of the unit box.
#[derive(Debug, Clone, Copy)]
struct Cell {
    center: [f64; 3],
    half: f64,
}

impl Cell {
    /// Squared distance from the cell's nearest point to a point displaced by
    /// `d` (a minimum image) from its centre: a lower bound on the
    /// minimum-image distance from any point of the cell.
    fn nearest2(&self, d: [f64; 3]) -> f64 {
        d.iter()
            .map(|c| (c.abs() - self.half).max(0.0).powi(2))
            .sum()
    }

    fn octant_of(&self, p: [f64; 3]) -> usize {
        (usize::from(p[0] >= self.center[0]) << 2)
            | (usize::from(p[1] >= self.center[1]) << 1)
            | usize::from(p[2] >= self.center[2])
    }

    fn octant(&self, o: usize) -> Cell {
        let quarter = self.half * 0.5;
        let side = |bit: usize| if o & bit != 0 { quarter } else { -quarter };
        Cell {
            center: [
                self.center[0] + side(4),
                self.center[1] + side(2),
                self.center[2] + side(1),
            ],
            half: quarter,
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    cell: Cell,
    com: [f64; 3],
    mass: f64,
    /// Child node index per octant, [`NONE`] where the octant holds no
    /// particle (depth-first construction interleaves subtrees, so children
    /// are not contiguous — store them explicitly).
    children: [u32; 8],
    leaf: bool,
    /// Particle range `[start, end)` in the permuted order.
    start: u32,
    end: u32,
}

/// What one [`Tree::short_range_walk`] did: the numerators of its
/// interactions/s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStats {
    /// Tree walks made — one per occupied target cell.
    pub groups: u64,
    /// Interaction-list entries (particles and monopoles) over all groups.
    pub list_entries: u64,
    /// Pair evaluations by the lane kernel, padding lanes included: each
    /// group's targets × its list rounded up to whole blocks.
    pub interactions: u64,
}

/// An immutable octree built over a snapshot of particle positions.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    /// Particle positions permuted into tree order.
    sorted_pos: Vec<[f64; 3]>,
    /// Per-particle mass (equal-mass set).
    mass: f64,
}

/// One walk's worth of work: a target cell, the targets in it (indices into
/// the caller's slice) and where their sums go.
struct Group<'a> {
    cell: Cell,
    targets: &'a [u32],
    out: &'a mut [[f64; 3]],
    /// Filled in by the walk: its list's length, and targets × list lanes.
    list_entries: usize,
    interactions: usize,
}

impl Tree {
    /// Build from positions in the unit box.
    pub fn build(positions: &[[f64; 3]], mass: f64) -> Self {
        assert!(
            !positions.is_empty(),
            "cannot build a tree over zero particles"
        );
        let mut idx: Vec<u32> = (0..positions.len() as u32).collect();
        let mut nodes = Vec::with_capacity(positions.len() / LEAF_SIZE * 2 + 16);
        build_node(
            positions,
            mass,
            &mut idx,
            0,
            positions.len(),
            Cell {
                center: [0.5; 3],
                half: 0.5,
            },
            0,
            &mut nodes,
        );
        let sorted_pos: Vec<[f64; 3]> = idx.iter().map(|&i| positions[i as usize]).collect();
        Self {
            nodes,
            sorted_pos,
            mass,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn total_mass(&self) -> f64 {
        self.nodes[0].mass
    }

    /// Short-range acceleration kernel sum at `p`:
    /// `Σ_j m_j S(r_j) d_j / (r_j² + ε²)^{3/2}` with `d_j` the min-image
    /// displacement toward source `j`. Multiply by the gravitational coupling
    /// outside. A particle *at* `p` (r = 0) contributes nothing.
    ///
    /// One scalar `f64` walk per call: the reference for
    /// [`Self::short_range_many`], not a production path.
    pub fn short_range_at(
        &self,
        p: [f64; 3],
        split: &ForceSplit,
        theta: f64,
        eps: f64,
        r_cut: f64,
    ) -> [f64; 3] {
        let mut acc = [0.0f64; 3];
        let mut stack: Vec<u32> = vec![0];
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            if node.cell.nearest2(min_image(node.cell.center, p)) > r_cut * r_cut {
                continue;
            }
            let d = min_image(p, node.com);
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let (half, size) = (node.cell.half, 2.0 * node.cell.half);
            if node.leaf {
                for s in &self.sorted_pos[node.start as usize..node.end as usize] {
                    pair_accel(p, *s, self.mass, split, eps, r_cut, &mut acc);
                }
            } else if r2 <= (size * size) / (theta * theta) || r2 <= 3.0 * half * half {
                stack.extend(node.children.iter().filter(|&&c| c != NONE));
            } else {
                // Accept the monopole.
                let r = r2.sqrt();
                if r > 0.0 && r <= r_cut {
                    let f = node.mass * split.short_force_factor(r) / (r2 + eps * eps).powf(1.5);
                    for i in 0..3 {
                        acc[i] += f * d[i];
                    }
                }
            }
        }
        acc
    }

    /// Short-range accelerations for many targets (any points of the unit
    /// box, tree particles or not), in the caller's order.
    pub fn short_range_many(
        &self,
        targets: &[[f64; 3]],
        split: &ForceSplit,
        theta: f64,
        eps: f64,
        r_cut: f64,
    ) -> Vec<[f64; 3]> {
        self.short_range_walk(targets, split, theta, eps, r_cut, 1.0)
            .0
    }

    /// [`Self::short_range_many`] with every sum multiplied by `coupling`
    /// (folded into the list's masses, so it costs nothing), and the walk's
    /// counts.
    ///
    /// Groups run in parallel, each on one thread from walk to last target,
    /// and a target's sum runs over its group's list in list order: the
    /// result is bitwise the same at any thread count.
    pub fn short_range_walk(
        &self,
        targets: &[[f64; 3]],
        split: &ForceSplit,
        theta: f64,
        eps: f64,
        r_cut: f64,
        coupling: f64,
    ) -> (Vec<[f64; 3]>, WalkStats) {
        // Bucket: sort target indices by the cell that holds them.
        let keys: Vec<(u32, u8)> = targets.iter().map(|&p| self.group_of(p)).collect();
        let mut order: Vec<u32> = (0..targets.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (keys[i as usize], i));

        let mut sorted_acc = vec![[0.0f64; 3]; targets.len()];
        let mut groups = Vec::new();
        let (mut rest_order, mut rest_out) = (&order[..], &mut sorted_acc[..]);
        while let Some(&first) = rest_order.first() {
            let key = keys[first as usize];
            let n = rest_order
                .iter()
                .take_while(|&&i| keys[i as usize] == key)
                .count();
            let (group_targets, tail) = rest_order.split_at(n);
            let (out, tail_out) = rest_out.split_at_mut(n);
            (rest_order, rest_out) = (tail, tail_out);
            let node = &self.nodes[key.0 as usize];
            groups.push(Group {
                cell: match key.1 {
                    WHOLE_NODE => node.cell,
                    o => node.cell.octant(o as usize),
                },
                targets: group_targets,
                out,
                list_entries: 0,
                interactions: 0,
            });
        }

        let kernel = SplitKernel::new(split, eps, r_cut);
        groups.par_iter_mut().for_each_init(
            || (InteractionList::default(), Vec::new()),
            |(list, stack), group| {
                self.gather(group.cell, theta, r_cut, coupling, list, stack);
                group.list_entries = list.len();
                group.interactions = list.lanes() * group.targets.len();
                for (out, &t) in group.out.iter_mut().zip(group.targets) {
                    let rel = min_image(group.cell.center, targets[t as usize]);
                    *out = kernel.accel(rel.map(|c| c as f32), list);
                }
            },
        );

        let stats = WalkStats {
            groups: groups.len() as u64,
            list_entries: groups.iter().map(|g| g.list_entries as u64).sum(),
            interactions: groups.iter().map(|g| g.interactions as u64).sum(),
        };
        drop(groups);
        let mut acc = vec![[0.0f64; 3]; targets.len()];
        for (&t, a) in order.iter().zip(sorted_acc) {
            acc[t as usize] = a;
        }
        (acc, stats)
    }

    /// The cell whose walk serves `p`: the first node on `p`'s way down with
    /// at most [`N_CRIT`] particles, or — where `p` lies in an octant no
    /// particle occupies — that empty octant of the last node, so that a
    /// target far from every particle still gets a small cell.
    fn group_of(&self, p: [f64; 3]) -> (u32, u8) {
        let mut ni = 0u32;
        loop {
            let node = &self.nodes[ni as usize];
            if node.leaf || (node.end - node.start) as usize <= N_CRIT {
                return (ni, WHOLE_NODE);
            }
            let o = node.cell.octant_of(p);
            match node.children[o] {
                NONE => return (ni, o as u8),
                child => ni = child,
            }
        }
    }

    /// Walk the tree for a whole cell of targets. The cutoff prunes on the
    /// gap between the two boxes, and the opening criterion takes the cell's
    /// nearest point to the node's centre of mass, so the list serves every
    /// point of the cell. A node is opened as if it were larger by the
    /// cell's half-width: the per-target walk accepts nodes symmetrically
    /// about its target, so on a near-regular particle load its monopole
    /// errors cancel in pairs; a cell's walk is symmetric about the cell, not
    /// the target, and needs the margin to err no more than that (tested).
    /// Entries are relative to the cell centre.
    fn gather(
        &self,
        cell: Cell,
        theta: f64,
        r_cut: f64,
        coupling: f64,
        list: &mut InteractionList,
        stack: &mut Vec<u32>,
    ) {
        let (r2_cut, particle_mass) = (r_cut * r_cut, coupling * self.mass);
        list.clear();
        stack.clear();
        stack.push(0);
        while let Some(ni) = stack.pop() {
            let node = &self.nodes[ni as usize];
            let reach = Cell {
                center: cell.center,
                half: cell.half + node.cell.half,
            };
            if reach.nearest2(min_image(cell.center, node.cell.center)) > r2_cut {
                continue;
            }
            if node.leaf {
                for &s in &self.sorted_pos[node.start as usize..node.end as usize] {
                    let d = min_image(cell.center, s);
                    if cell.nearest2(d) <= r2_cut {
                        list.push(d, particle_mass);
                    }
                }
                continue;
            }
            let d = min_image(cell.center, node.com);
            let r2 = cell.nearest2(d);
            let (half, size) = (node.cell.half, 2.0 * node.cell.half + cell.half);
            if r2 <= (size * size) / (theta * theta) || r2 <= 3.0 * half * half {
                stack.extend(node.children.iter().filter(|&&c| c != NONE));
            } else if r2 <= r2_cut {
                list.push(d, coupling * node.mass);
            }
        }
    }
}

/// One pair of the scalar `f64` reference sum: add to `acc` what a source of
/// `mass` at `source` contributes at `p`.
#[inline]
pub fn pair_accel(
    p: [f64; 3],
    source: [f64; 3],
    mass: f64,
    split: &ForceSplit,
    eps: f64,
    r_cut: f64,
    acc: &mut [f64; 3],
) {
    let d = min_image(p, source);
    let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
    if r2 == 0.0 || r2 > r_cut * r_cut {
        return;
    }
    let r = r2.sqrt();
    let f = mass * split.short_force_factor(r) / (r2 + eps * eps).powf(1.5);
    for i in 0..3 {
        acc[i] += f * d[i];
    }
}

/// Recursively build; returns the node's index. Particle indices in
/// `idx[start..end]` are permuted in place so each node owns a contiguous
/// range.
#[allow(clippy::too_many_arguments)]
fn build_node(
    positions: &[[f64; 3]],
    mass: f64,
    idx: &mut [u32],
    start: usize,
    end: usize,
    cell: Cell,
    depth: usize,
    nodes: &mut Vec<Node>,
) -> u32 {
    let my_index = nodes.len() as u32;
    // Monopole moments (equal-mass particles: COM is the mean position).
    let mut com = [0.0f64; 3];
    for &i in &idx[start..end] {
        let p = positions[i as usize];
        for d in 0..3 {
            com[d] += p[d];
        }
    }
    let n = (end - start) as f64;
    for c in com.iter_mut() {
        *c /= n;
    }
    let leaf = end - start <= LEAF_SIZE || depth >= MAX_DEPTH;
    nodes.push(Node {
        cell,
        com,
        mass: n * mass,
        children: [NONE; 8],
        leaf,
        start: start as u32,
        end: end as u32,
    });
    if leaf {
        return my_index;
    }

    // Counting sort of the 8 octants within idx[start..end].
    let mut counts = [0usize; 8];
    for &i in &idx[start..end] {
        counts[cell.octant_of(positions[i as usize])] += 1;
    }
    let mut offsets = [0usize; 8];
    let mut acc = 0;
    for o in 0..8 {
        offsets[o] = acc;
        acc += counts[o];
    }
    let scratch = idx[start..end].to_vec();
    let mut cursors = offsets;
    for &i in &scratch {
        let o = cell.octant_of(positions[i as usize]);
        idx[start + cursors[o]] = i;
        cursors[o] += 1;
    }
    drop(scratch);

    // Recurse into non-empty octants.
    for o in 0..8 {
        if counts[o] == 0 {
            continue;
        }
        let s = start + offsets[o];
        let child = build_node(
            positions,
            mass,
            idx,
            s,
            s + counts[o],
            cell.octant(o),
            depth + 1,
            nodes,
        );
        nodes[my_index as usize].children[o] = child;
    }
    my_index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::short_range_direct;
    use crate::particles::ParticleSet;
    use crate::treepm::TreePm;

    /// Deterministic uniform deviates in `[0, 1)`.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn point(&mut self) -> [f64; 3] {
            [self.next(), self.next(), self.next()]
        }
    }

    fn random_positions(n: usize, seed: u64) -> Vec<[f64; 3]> {
        let mut rng = Lcg(seed);
        (0..n).map(|_| rng.point()).collect()
    }

    /// A 24³ lattice with every particle moved by up to ±0.3 spacings: the
    /// near-cancelling forces of an early-time cosmological load.
    fn perturbed_lattice() -> Vec<[f64; 3]> {
        let mut rng = Lcg(41);
        let mut pos = ParticleSet::lattice(24, 1.0).pos;
        for p in &mut pos {
            for c in p.iter_mut() {
                *c = (*c + (rng.next() - 0.5) * 0.6 / 24.0).rem_euclid(1.0);
            }
        }
        pos
    }

    /// Two compact clumps (one across the box boundary) over a thin uniform
    /// background: a deep, unbalanced tree and close pairs.
    fn two_clumps() -> Vec<[f64; 3]> {
        let mut rng = Lcg(43);
        let mut pos = random_positions(500, 44);
        for centre in [[0.3, 0.3, 0.3], [0.98, 0.65, 0.6]] {
            for _ in 0..1500 {
                // Sum of four uniforms: bell-shaped, σ ≈ 0.023.
                let mut p = centre;
                for c in p.iter_mut() {
                    let bell: f64 = (0..4).map(|_| rng.next() - 0.5).sum();
                    *c = (*c + 0.04 * bell).rem_euclid(1.0);
                }
                pos.push(p);
            }
        }
        pos
    }

    /// `(rms, max)` of `|got − want|` over the rms of `|want|`.
    fn relative_errors(got: &[[f64; 3]], want: &[[f64; 3]]) -> (f64, f64) {
        assert_eq!(got.len(), want.len());
        let norm2 = |a: &[f64; 3]| a.iter().map(|c| c * c).sum::<f64>();
        let (mut err2, mut max2, mut want2) = (0.0f64, 0.0f64, 0.0f64);
        for (g, w) in got.iter().zip(want) {
            let e2 = norm2(&[g[0] - w[0], g[1] - w[1], g[2] - w[2]]);
            err2 += e2;
            max2 = max2.max(e2);
            want2 += norm2(w);
        }
        (
            (err2 / want2).sqrt(),
            (max2 / (want2 / want.len() as f64)).sqrt(),
        )
    }

    /// The direct sum at every `stride`-th particle only.
    fn direct_sample(
        pos: &[[f64; 3]],
        stride: usize,
        mass: f64,
        split: &ForceSplit,
        eps: f64,
        r_cut: f64,
    ) -> Vec<[f64; 3]> {
        pos.iter()
            .step_by(stride)
            .map(|&p| {
                let mut acc = [0.0; 3];
                for &q in pos {
                    pair_accel(p, q, mass, split, eps, r_cut, &mut acc);
                }
                acc
            })
            .collect()
    }

    /// The three particle sets the accuracy bounds are stated on, with the
    /// stride their direct sums are sampled at.
    fn accuracy_sets() -> [(&'static str, Vec<[f64; 3]>, usize); 3] {
        [
            ("random", random_positions(4000, 2), 4),
            ("perturbed lattice", perturbed_lattice(), 16),
            ("two clumps", two_clumps(), 4),
        ]
    }

    #[test]
    fn tree_mass_accounts_for_every_particle() {
        let pos = random_positions(500, 1);
        let tree = Tree::build(&pos, 0.002);
        assert!((tree.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn theta_zero_matches_direct_sum() {
        let pos = random_positions(200, 2);
        let mass = 1.0 / 200.0;
        let split = ForceSplit::new(0.05);
        let r_cut = split.cutoff_radius(1e-7);
        let tree = Tree::build(&pos, mass);
        let direct = short_range_direct(&pos, mass, &split, 1e-4, r_cut);
        for (i, &p) in pos.iter().enumerate() {
            let got = tree.short_range_at(p, &split, 1e-9, 1e-4, r_cut);
            for d in 0..3 {
                assert!(
                    (got[d] - direct[i][d]).abs() < 1e-9 * (1.0 + direct[i][d].abs()),
                    "particle {i} axis {d}: {} vs {}",
                    got[d],
                    direct[i][d]
                );
            }
        }
    }

    #[test]
    fn moderate_theta_is_accurate() {
        let pos = random_positions(800, 3);
        let mass = 1.0 / 800.0;
        let split = ForceSplit::new(0.04);
        let r_cut = split.cutoff_radius(1e-6);
        let tree = Tree::build(&pos, mass);
        let direct = short_range_direct(&pos, mass, &split, 1e-4, r_cut);
        let reference: Vec<[f64; 3]> = pos
            .iter()
            .map(|&p| tree.short_range_at(p, &split, 0.5, 1e-4, r_cut))
            .collect();
        let (rel, _) = relative_errors(&reference, &direct);
        assert!(rel < 0.01, "rms relative force error {rel}");
        let grouped = tree.short_range_many(&pos, &split, 0.5, 1e-4, r_cut);
        let (rel, _) = relative_errors(&grouped, &direct);
        assert!(rel < 0.01, "rms relative force error {rel}");
    }

    #[test]
    fn group_walk_without_approximation_is_the_direct_sum() {
        // θ → 0 opens every node: what is left is the lane kernel's own
        // error — f32 coordinates and sums, and the cutoff polynomial.
        let eps = 1e-3;
        for (name, pos, stride) in accuracy_sets() {
            let mass = 1.0 / pos.len() as f64;
            for n_pm in [16.0, 32.0] {
                let split = ForceSplit::new(1.25 / n_pm);
                let r_cut = split.cutoff_radius(1e-5);
                let direct = direct_sample(&pos, stride, mass, &split, eps, r_cut);
                let tree = Tree::build(&pos, mass);
                let got: Vec<[f64; 3]> = tree
                    .short_range_many(&pos, &split, 1e-9, eps, r_cut)
                    .into_iter()
                    .step_by(stride)
                    .collect();
                let (rms, max) = relative_errors(&got, &direct);
                assert!(rms < 1e-5, "{name}, n_pm {n_pm}: rms error {rms:.2e}");
                assert!(max < 1e-4, "{name}, n_pm {n_pm}: max error {max:.2e}");
            }
        }
    }

    #[test]
    fn group_walk_is_no_less_accurate_than_the_per_target_walk() {
        // At the production θ the grouped sum must err no more than the
        // reference walk does — down to the kernel's own 1e-5.
        let (eps, theta) = (1e-3, 0.5);
        for (name, pos, stride) in accuracy_sets() {
            let mass = 1.0 / pos.len() as f64;
            for n_pm in [16.0, 32.0] {
                let split = ForceSplit::new(1.25 / n_pm);
                let r_cut = split.cutoff_radius(1e-5);
                let direct = direct_sample(&pos, stride, mass, &split, eps, r_cut);
                let tree = Tree::build(&pos, mass);
                let reference: Vec<[f64; 3]> = pos
                    .iter()
                    .step_by(stride)
                    .map(|&p| tree.short_range_at(p, &split, theta, eps, r_cut))
                    .collect();
                let grouped: Vec<[f64; 3]> = tree
                    .short_range_many(&pos, &split, theta, eps, r_cut)
                    .into_iter()
                    .step_by(stride)
                    .collect();
                let (reference_rms, _) = relative_errors(&reference, &direct);
                let (grouped_rms, _) = relative_errors(&grouped, &direct);
                assert!(
                    grouped_rms <= reference_rms.max(1e-5),
                    "{name}, n_pm {n_pm}: grouped {grouped_rms:.2e} vs per-target {reference_rms:.2e}"
                );
                assert!(
                    reference_rms < 0.03,
                    "{name}: reference {reference_rms:.2e}"
                );
            }
        }
    }

    #[test]
    fn cutoff_beyond_half_a_box_keeps_minimum_image_semantics() {
        // `small_test`'s 16³ mesh puts r_cut at 0.56: pairs are taken at
        // their nearest image, one image each, exactly as the reference does.
        let treepm = TreePm::new(16, 2.5e-3);
        assert!(treepm.r_cut > 0.5);
        let pos = random_positions(1000, 5);
        let tree = Tree::build(&pos, 1e-3);
        let (split, eps, r_cut) = (treepm.split, treepm.eps, treepm.r_cut);
        let reference: Vec<[f64; 3]> = pos
            .iter()
            .map(|&p| tree.short_range_at(p, &split, 1e-9, eps, r_cut))
            .collect();
        let grouped = tree.short_range_many(&pos, &split, 1e-9, eps, r_cut);
        let (rms, max) = relative_errors(&grouped, &reference);
        assert!(rms < 1e-5 && max < 1e-4, "rms {rms:.2e}, max {max:.2e}");
    }

    #[test]
    fn targets_need_not_be_tree_particles() {
        // Two blobs leave most octants empty: targets there get the empty
        // octant as their cell, targets in a blob share its leaves.
        let mut rng = Lcg(6);
        let mut pos = Vec::new();
        for centre in [[0.2, 0.2, 0.2], [0.7, 0.8, 0.3]] {
            pos.extend((0..300).map(|_| {
                let p = rng.point();
                [0, 1, 2].map(|i| centre[i] + 0.1 * (p[i] - 0.5))
            }));
        }
        let targets = random_positions(500, 7);
        let split = ForceSplit::new(0.05);
        let r_cut = split.cutoff_radius(1e-5);
        let tree = Tree::build(&pos, 1.0 / 600.0);
        for theta in [1e-9, 0.5] {
            let reference: Vec<[f64; 3]> = targets
                .iter()
                .map(|&p| tree.short_range_at(p, &split, theta, 1e-3, r_cut))
                .collect();
            let (grouped, stats) = tree.short_range_walk(&targets, &split, theta, 1e-3, r_cut, 1.0);
            let (rms, _) = relative_errors(&grouped, &reference);
            let bound = if theta < 0.1 { 1e-5 } else { 0.02 };
            assert!(rms < bound, "θ = {theta}: rms {rms:.2e}");
            // Far more cells than the blobs' own: the empty octants count.
            assert!(stats.groups > 30, "{stats:?}");
        }
    }

    #[test]
    fn walk_counts_add_up() {
        let pos = random_positions(3000, 8);
        let split = ForceSplit::new(0.04);
        let r_cut = split.cutoff_radius(1e-5);
        let tree = Tree::build(&pos, 1.0 / 3000.0);
        let (acc, stats) = tree.short_range_walk(&pos, &split, 0.5, 1e-3, r_cut, 1.0);
        assert_eq!(acc.len(), pos.len());
        assert!(stats.groups > 0 && stats.groups as usize * N_CRIT >= pos.len());
        assert!(stats.list_entries >= stats.groups);
        // Every target meets its group's whole list, rounded up to blocks.
        let per_target = stats.interactions as f64 / pos.len() as f64;
        let per_group = stats.list_entries as f64 / stats.groups as f64;
        assert!(per_target >= 0.5 * per_group && per_target <= 4.0 * per_group);
        assert_eq!(stats.interactions % 8, 0);
        // The coupling scales the sums and nothing else.
        let (scaled, same) = tree.short_range_walk(&pos, &split, 0.5, 1e-3, r_cut, 4.0);
        assert_eq!(same, stats);
        for (s, a) in scaled.iter().zip(&acc) {
            assert_eq!(*s, a.map(|c| 4.0 * c));
        }
    }

    #[test]
    fn coincident_particles_exert_no_force_on_each_other() {
        let split = ForceSplit::new(0.05);
        let tree = Tree::build(&[[0.3, 0.6, 0.9]; 2], 1.0);
        for eps in [0.0, 1e-3] {
            let acc = tree.short_range_many(&[[0.3, 0.6, 0.9]], &split, 0.5, eps, 0.3);
            assert_eq!(acc, [[0.0; 3]]);
        }
    }

    #[test]
    fn far_particles_feel_nothing_short_range() {
        // Two particles separated by much more than the cutoff.
        let pos = vec![[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]];
        let split = ForceSplit::new(0.01);
        let r_cut = split.cutoff_radius(1e-6);
        let tree = Tree::build(&pos, 1.0);
        let a = tree.short_range_at(pos[0], &split, 0.5, 1e-5, r_cut);
        assert!(a.iter().all(|&c| c.abs() < 1e-12), "{a:?}");
        let grouped = tree.short_range_many(&pos, &split, 0.5, 1e-5, r_cut);
        assert_eq!(grouped, [[0.0; 3]; 2]);
    }

    #[test]
    fn short_range_is_attractive_and_antisymmetric() {
        let pos = vec![[0.45, 0.5, 0.5], [0.55, 0.5, 0.5]];
        let split = ForceSplit::new(0.05);
        let r_cut = split.cutoff_radius(1e-7);
        let tree = Tree::build(&pos, 2.0);
        let a0 = tree.short_range_at(pos[0], &split, 0.5, 0.0, r_cut);
        let a1 = tree.short_range_at(pos[1], &split, 0.5, 0.0, r_cut);
        assert!(a0[0] > 0.0, "particle 0 pulled toward +x: {a0:?}");
        assert!((a0[0] + a1[0]).abs() < 1e-12, "antisymmetry");
        assert!(a0[1].abs() < 1e-14 && a0[2].abs() < 1e-14);
        let grouped = tree.short_range_many(&pos, &split, 0.5, 0.0, r_cut);
        assert!((grouped[0][0] / a0[0] - 1.0).abs() < 1e-6);
        assert_eq!(grouped[0][0], -grouped[1][0]);
        assert_eq!(grouped[0][1..], [0.0; 2]);
    }

    #[test]
    fn clustered_particles_do_not_break_the_tree() {
        // All particles at (nearly) the same point: depth cap must hold.
        let mut pos = vec![[0.5, 0.5, 0.5]; 100];
        for (i, p) in pos.iter_mut().enumerate() {
            p[0] += i as f64 * 1e-15;
        }
        let split = ForceSplit::new(0.05);
        let tree = Tree::build(&pos, 0.01);
        let a = tree.short_range_at([0.5, 0.5, 0.5], &split, 0.5, 1e-3, 0.3);
        assert!(a.iter().all(|c| c.is_finite()));
        let grouped = tree.short_range_many(&pos, &split, 0.5, 1e-3, 0.3);
        assert!(grouped.iter().flatten().all(|c| c.is_finite()));
    }
}
