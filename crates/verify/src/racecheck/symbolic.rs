//! General-`n` symbolic disjointness proofs for strided task families.
//!
//! Every parallel region in the workspace partitions a flat array by
//! decomposing the task index into mixed-radix *digits* and mapping each
//! digit to one array axis. A [`RegionModel`] states that mapping
//! symbolically — per array axis, which slice task `t` writes, as a function
//! of `t`'s digits — and `prove_write_disjoint` checks the three
//! conditions that together imply pairwise disjointness **for every grid
//! shape** satisfying the model's divisibility constraints:
//!
//! 1. *Injectivity*: every task digit is consumed by exactly one array axis.
//!    Two distinct tasks then differ in some digit `j`, and the unique axis
//!    carrying `j` separates their footprints.
//! 2. *Extent matching*: a digit selecting single coordinates
//!    ([`AxisFootprint::TaskDigit`]) must range over exactly the axis extent;
//!    a digit selecting aligned blocks ([`AxisFootprint::TaskBlock`]) must
//!    range over `extent / width`; a digit selecting aligned groups of the
//!    flattening of several axes ([`AxisFootprint::Flat`], the lane bundles
//!    of any eight lines that share a shift) must range over
//!    `Π extents / width` of exactly the axes that carry it — the
//!    mixed-radix flattening of those axes is a bijection, so distinct digit
//!    values select disjoint coordinate tuples on them. This makes each slice
//!    both in-bounds and distinct for distinct digit values.
//! 3. *Divisibility*: block and group widths require the (product of the)
//!    extent(s) to divide by the width, declared as a [`Divisibility`]
//!    constraint that the kernel must also check at runtime (otherwise an
//!    aligned block could straddle the axis end and alias a neighbouring
//!    task's slice through the flattening).
//! 4. *One shift per bundle*: a flat group is one lane bundle, advected by
//!    one shift, so it may not flatten the region's conjugate axis — the
//!    axis whose index sets a line's shift.
//!
//! The proof is over symbols, not sampled shapes; [`RegionModel::indices`]
//! additionally *instantiates* the model at concrete `dims` so the concrete
//! pass can cross-check the symbols against the plans the kernels actually
//! execute. Read/write non-interference follows from requiring the
//! same-array read footprint to equal the write footprint on every axis that
//! selects by task digit (the only pattern the workspace uses: pencils read
//! and write their own elements; along the pencil axis itself a task may
//! read the whole pencil and write part of it).

/// Symbolic extent of one task digit, as a function of the array dims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// `dims[axis]`.
    Axis(usize),
    /// `dims[axis] / width` (meaningful only under a matching
    /// [`Divisibility`] constraint).
    AxisDiv(usize, usize),
    /// `Π dims[axes] / width` — groups of `width` consecutive indices of the
    /// row-major flattening of `axes` (ascending), under a matching
    /// [`Divisibility`] constraint.
    FlatDiv(&'static [usize], usize),
}

/// The slice of one array axis that task `t` touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisFootprint {
    /// The whole axis `0..dims[axis]` — the swept pencil direction.
    Full,
    /// The single coordinate `{τ_j}` where `τ_j` is task digit `j`.
    TaskDigit(usize),
    /// The aligned block `[τ_j·width, (τ_j + 1)·width)`.
    TaskBlock { digit: usize, width: usize },
    /// This axis is one of those flattened under digit `j`, whose extent is
    /// an [`Extent::FlatDiv`]: jointly they hold the coordinate tuples with
    /// flat index in `[τ_j·width, (τ_j + 1)·width)`.
    Flat(usize),
    /// The same for every task: `[g, dims[axis] − g)` of the pencil axis —
    /// the cells a distributed sweep updates before its ghost planes arrive.
    Inner(usize),
    /// The same for every task: `[0, g) ∪ [dims[axis] − g, dims[axis])` —
    /// the cells it updates afterwards.
    Edges(usize),
}

impl AxisFootprint {
    /// Does the footprint depend on the task index? Only a task-dependent
    /// axis can separate two tasks; on the others the slice may differ
    /// between what a task reads and what it writes.
    fn selects_by_task(self) -> bool {
        matches!(
            self,
            AxisFootprint::TaskDigit(_) | AxisFootprint::TaskBlock { .. } | AxisFootprint::Flat(_)
        )
    }
}

/// A shape-family constraint the kernel checks: `Π dims[axes] % divisor == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisibility {
    pub axes: &'static [usize],
    pub divisor: usize,
}

/// Symbolic model of one parallel region over one flat array.
#[derive(Debug, Clone)]
pub struct RegionModel {
    /// Rank of the array's index space (6 for `f`, 3 for moment fields, …).
    pub array_rank: usize,
    /// Task-digit extents, most significant first (last digit fastest):
    /// `t = ((τ_0·e_1 + τ_1)·e_2 + τ_2)·…`.
    pub task_digits: Vec<Extent>,
    /// Per array axis (layout order, strides decreasing), the slice task `t`
    /// writes.
    pub write: Vec<AxisFootprint>,
    /// The slice of the *same* array task `t` reads, when the region reads
    /// the array it writes (`None` = reads only other arrays). The prover
    /// requires this to equal `write` on every axis that selects by task.
    pub read_same_array: Option<Vec<AxisFootprint>>,
    /// Divisibility constraints the kernel asserts on `dims`.
    pub constraints: Vec<Divisibility>,
    /// The axis whose index sets a line's shift (spatial sweeps: the
    /// conjugate velocity axis), which no lane bundle may straddle.
    pub conjugate: Option<usize>,
}

/// Why a model fails to prove disjointness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ProofError {
    /// `write` (or `read_same_array`) length differs from `array_rank`.
    RankMismatch,
    /// A footprint references task digit `j ≥ task_digits.len()`.
    DigitOutOfRange(usize),
    /// Task digit `j` is consumed by two different axes — distinct tasks
    /// differing only in `j` would collide on every other axis.
    DigitReused(usize),
    /// Task digit `j` maps to no axis — distinct tasks differing only in
    /// `j` would have *identical* write sets.
    DigitUnused(usize),
    /// Axis `axis` selects by digit `digit` but the digit's extent is not
    /// the one the footprint shape requires.
    ExtentMismatch { axis: usize, digit: usize },
    /// A `TaskBlock` on `axis` with `width` has no matching divisibility
    /// constraint, so a block may straddle the axis end.
    MissingDivisibility { axis: usize, width: usize },
    /// `read_same_array` differs from `write` on `axis`; the prover cannot
    /// conclude write-vs-read non-interference.
    ReadWriteShapeMismatch { axis: usize },
    /// A flat group — one lane bundle, one shift — flattens the conjugate
    /// axis `axis`: its lanes would need different shifts.
    BundleMixesShifts { axis: usize },
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::RankMismatch => write!(f, "footprint rank differs from array rank"),
            ProofError::DigitOutOfRange(j) => {
                write!(f, "footprint references digit {j} out of range")
            }
            ProofError::DigitReused(j) => write!(f, "task digit {j} consumed by two axes"),
            ProofError::DigitUnused(j) => {
                write!(
                    f,
                    "task digit {j} maps to no axis (distinct tasks share a write set)"
                )
            }
            ProofError::ExtentMismatch { axis, digit } => {
                write!(
                    f,
                    "axis {axis}: digit {digit} extent does not match the axis"
                )
            }
            ProofError::MissingDivisibility { axis, width } => {
                write!(
                    f,
                    "axis {axis}: width-{width} blocks without dims[{axis}] % {width} == 0"
                )
            }
            ProofError::ReadWriteShapeMismatch { axis } => {
                write!(
                    f,
                    "axis {axis}: same-array read footprint differs from write footprint"
                )
            }
            ProofError::BundleMixesShifts { axis } => {
                write!(f, "axis {axis}: a lane bundle straddles conjugate indices")
            }
        }
    }
}

/// Prove pairwise write-disjointness (and same-array read non-interference)
/// for all grid shapes satisfying the model's constraints. Returns a short
/// proof narrative.
pub(crate) fn prove_write_disjoint(m: &RegionModel) -> Result<String, ProofError> {
    if m.write.len() != m.array_rank {
        return Err(ProofError::RankMismatch);
    }
    let k = m.task_digits.len();
    // Which axis consumes each digit.
    let mut consumer: Vec<Option<usize>> = vec![None; k];
    let constrained = |axes: &[usize], width: usize| {
        let covers = |c: &Divisibility| c.axes == axes && c.divisor.is_multiple_of(width);
        m.constraints.iter().any(covers)
    };
    for (axis, fp) in m.write.iter().enumerate() {
        let (digit, required) = match *fp {
            AxisFootprint::Full | AxisFootprint::Inner(_) | AxisFootprint::Edges(_) => continue,
            AxisFootprint::TaskDigit(j) => (j, Extent::Axis(axis)),
            AxisFootprint::TaskBlock { digit, width } => {
                if !constrained(&[axis], width) {
                    return Err(ProofError::MissingDivisibility { axis, width });
                }
                (digit, Extent::AxisDiv(axis, width))
            }
            AxisFootprint::Flat(j) => {
                // The digit's extent names the axes flattened under it: they
                // must be exactly the axes carrying `Flat(j)`, and the group
                // is consumed once, at the first of them.
                let Some(&Extent::FlatDiv(axes, width)) = m.task_digits.get(j) else {
                    return Err(match j < k {
                        true => ProofError::ExtentMismatch { axis, digit: j },
                        false => ProofError::DigitOutOfRange(j),
                    });
                };
                let carriers = (0..m.array_rank).filter(|&a| m.write[a] == *fp);
                if !carriers.eq(axes.iter().copied()) {
                    return Err(ProofError::ExtentMismatch { axis, digit: j });
                }
                if m.conjugate == Some(axis) {
                    return Err(ProofError::BundleMixesShifts { axis });
                }
                if !constrained(axes, width) {
                    return Err(ProofError::MissingDivisibility { axis, width });
                }
                if axes.first() != Some(&axis) {
                    continue;
                }
                (j, Extent::FlatDiv(axes, width))
            }
        };
        if digit >= k {
            return Err(ProofError::DigitOutOfRange(digit));
        }
        if m.task_digits[digit] != required {
            return Err(ProofError::ExtentMismatch { axis, digit });
        }
        if consumer[digit].replace(axis).is_some() {
            return Err(ProofError::DigitReused(digit));
        }
    }
    if let Some(j) = consumer.iter().position(Option::is_none) {
        return Err(ProofError::DigitUnused(j));
    }
    if let Some(read) = &m.read_same_array {
        if read.len() != m.array_rank {
            return Err(ProofError::RankMismatch);
        }
        // The axis that separates two tasks' writes must separate one
        // task's reads from the other's writes too: read == write wherever
        // either selects by task digit.
        for axis in 0..m.array_rank {
            let by_task = read[axis].selects_by_task() || m.write[axis].selects_by_task();
            if by_task && read[axis] != m.write[axis] {
                return Err(ProofError::ReadWriteShapeMismatch { axis });
            }
        }
    }
    let full_axes = m
        .write
        .iter()
        .enumerate()
        .filter(|(_, fp)| !fp.selects_by_task())
        .map(|(a, _)| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    Ok(format!(
        "each of {k} task digits selects exactly one axis slice (pencil axes: [{full_axes}]); \
         distinct tasks differ in some digit, whose axis separates their write sets for all \
         conforming dims"
    ))
}

impl RegionModel {
    /// Check that `dims` satisfies the model's divisibility constraints.
    pub(crate) fn dims_conform(&self, dims: &[usize]) -> bool {
        dims.len() == self.array_rank
            && self.constraints.iter().all(|c| {
                let extent: usize = c.axes.iter().map(|&a| dims[a]).product();
                extent.is_multiple_of(c.divisor)
            })
    }

    /// Digit extents instantiated at `dims`.
    fn digit_extents(&self, dims: &[usize]) -> Vec<usize> {
        self.task_digits
            .iter()
            .map(|e| match *e {
                Extent::Axis(a) => dims[a],
                Extent::AxisDiv(a, w) => dims[a] / w,
                Extent::FlatDiv(axes, w) => axes.iter().map(|&a| dims[a]).product::<usize>() / w,
            })
            .collect()
    }

    /// Number of tasks at `dims`.
    pub(crate) fn task_count(&self, dims: &[usize]) -> usize {
        self.digit_extents(dims).iter().product()
    }

    /// Decompose `task` into digits (most significant first).
    pub fn digits(&self, dims: &[usize], task: usize) -> Vec<usize> {
        let extents = self.digit_extents(dims);
        let mut digits = vec![0; extents.len()];
        let mut t = task;
        for (j, &e) in extents.iter().enumerate().rev() {
            digits[j] = t % e;
            t /= e;
        }
        debug_assert_eq!(t, 0, "task {task} out of range");
        digits
    }

    /// The flat indices task `task` writes at `dims`, in ascending order.
    pub fn indices(&self, dims: &[usize], task: usize) -> Vec<usize> {
        assert!(self.dims_conform(dims), "dims violate model constraints");
        let digits = self.digits(dims, task);
        let strides: Vec<usize> = (0..self.array_rank)
            .map(|a| dims[a + 1..].iter().product())
            .collect();
        // Per-axis lists of flat-index contributions. A flat group folds all
        // its axes into one contribution per member, listed at its first
        // axis; its other axes add nothing.
        fn along(stride: usize, coords: impl Iterator<Item = usize>) -> Vec<usize> {
            coords.map(|c| c * stride).collect()
        }
        let offsets: Vec<Vec<usize>> = self
            .write
            .iter()
            .enumerate()
            .map(|(a, fp)| match *fp {
                AxisFootprint::Full => along(strides[a], 0..dims[a]),
                AxisFootprint::Inner(g) => along(strides[a], g..dims[a].saturating_sub(g)),
                AxisFootprint::Edges(g) => {
                    assert!(dims[a] >= 2 * g, "edge slabs overlap on axis {a}");
                    along(strides[a], (0..g).chain(dims[a] - g..dims[a]))
                }
                AxisFootprint::TaskDigit(j) => vec![digits[j] * strides[a]],
                AxisFootprint::TaskBlock { digit, width } => along(
                    strides[a],
                    digits[digit] * width..(digits[digit] + 1) * width,
                ),
                AxisFootprint::Flat(j) => {
                    let Extent::FlatDiv(axes, width) = self.task_digits[j] else {
                        panic!("digit {j} is not a flat group");
                    };
                    if axes[0] != a {
                        return vec![0];
                    }
                    let member = |mut flat: usize| {
                        let mut offset = 0;
                        for &axis in axes.iter().rev() {
                            offset += flat % dims[axis] * strides[axis];
                            flat /= dims[axis];
                        }
                        offset
                    };
                    (digits[j] * width..(digits[j] + 1) * width)
                        .map(member)
                        .collect()
                }
            })
            .collect();
        // Odometer over the cartesian product.
        fn rec(axis: usize, acc: usize, offsets: &[Vec<usize>], out: &mut Vec<usize>) {
            if axis == offsets.len() {
                out.push(acc);
                return;
            }
            for &o in &offsets[axis] {
                rec(axis + 1, acc + o, offsets, out);
            }
        }
        let mut out = Vec::new();
        rec(0, 0, &offsets, &mut out);
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pencil_d(rank: usize, d: usize) -> RegionModel {
        // Scalar pencil along axis d of a rank-`rank` array.
        let mut write = Vec::new();
        let mut task_digits = Vec::new();
        for a in 0..rank {
            if a == d {
                write.push(AxisFootprint::Full);
            } else {
                write.push(AxisFootprint::TaskDigit(task_digits.len()));
                task_digits.push(Extent::Axis(a));
            }
        }
        RegionModel {
            array_rank: rank,
            task_digits,
            write: write.clone(),
            read_same_array: Some(write),
            constraints: vec![],
            conjugate: None,
        }
    }

    #[test]
    fn scalar_pencil_model_proves_and_tiles() {
        let m = pencil_d(3, 1);
        prove_write_disjoint(&m).expect("pencil proves");
        let dims = [3, 4, 5];
        let total: usize = dims.iter().product();
        let mut seen = vec![false; total];
        for t in 0..m.task_count(&dims) {
            for idx in m.indices(&dims, t) {
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn block_model_requires_divisibility() {
        let mut m = RegionModel {
            array_rank: 2,
            task_digits: vec![Extent::Axis(0), Extent::AxisDiv(1, 4)],
            write: vec![
                AxisFootprint::TaskDigit(0),
                AxisFootprint::TaskBlock { digit: 1, width: 4 },
            ],
            read_same_array: None,
            constraints: vec![],
            conjugate: None,
        };
        assert_eq!(
            prove_write_disjoint(&m),
            Err(ProofError::MissingDivisibility { axis: 1, width: 4 })
        );
        m.constraints.push(Divisibility {
            axes: &[1],
            divisor: 4,
        });
        prove_write_disjoint(&m).expect("constrained block proves");
        let dims = [3, 8];
        let mut seen = [false; 24];
        for t in 0..m.task_count(&dims) {
            for idx in m.indices(&dims, t) {
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Bundles of eight lines over the flattening of the two free axes of a
    /// rank-4 array swept along axis 1 with conjugate axis 2.
    fn flat_group_model() -> RegionModel {
        let write = vec![
            AxisFootprint::Flat(0),
            AxisFootprint::Full,
            AxisFootprint::Full,
            AxisFootprint::Flat(0),
        ];
        RegionModel {
            array_rank: 4,
            task_digits: vec![Extent::FlatDiv(&[0, 3], 8)],
            write: write.clone(),
            read_same_array: Some(write),
            constraints: vec![Divisibility {
                axes: &[0, 3],
                divisor: 8,
            }],
            conjugate: Some(2),
        }
    }

    #[test]
    fn flat_group_model_proves_and_tiles_thin_and_ragged_shapes() {
        let m = flat_group_model();
        prove_write_disjoint(&m).expect("flat groups prove");
        // Thin (runs of 4), ragged (runs of 6 and 12) and whole-run shapes.
        for dims in [[6, 3, 2, 4], [4, 2, 3, 6], [2, 1, 5, 12], [3, 2, 2, 8]] {
            let total: usize = dims.iter().product();
            let mut seen = vec![false; total];
            assert_eq!(m.task_count(&dims), dims[0] * dims[3] / 8);
            for t in 0..m.task_count(&dims) {
                let indices = m.indices(&dims, t);
                assert_eq!(indices.len(), 8 * dims[1] * dims[2]);
                for idx in indices {
                    assert!(!seen[idx], "{dims:?} task {t} index {idx}");
                    seen[idx] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "{dims:?}");
        }
    }

    #[test]
    fn flat_group_rules_are_enforced() {
        // A bundle flattened across the conjugate axis mixes shifts.
        let mut m = flat_group_model();
        m.conjugate = Some(3);
        assert_eq!(
            prove_write_disjoint(&m),
            Err(ProofError::BundleMixesShifts { axis: 3 })
        );
        // The digit's axes must be the axes that carry it.
        let mut m = flat_group_model();
        m.write[3] = AxisFootprint::Full;
        m.read_same_array = Some(m.write.clone());
        assert_eq!(
            prove_write_disjoint(&m),
            Err(ProofError::ExtentMismatch { axis: 0, digit: 0 })
        );
        // Groups of eight need the product of the extents to divide by 8.
        let mut m = flat_group_model();
        m.constraints.clear();
        assert_eq!(
            prove_write_disjoint(&m),
            Err(ProofError::MissingDivisibility { axis: 0, width: 8 })
        );
    }

    #[test]
    fn unused_digit_is_rejected() {
        let mut m = pencil_d(3, 1);
        // Forget to map the second digit: tasks differing only there alias.
        m.write[2] = AxisFootprint::Full;
        assert_eq!(prove_write_disjoint(&m), Err(ProofError::DigitUnused(1)));
    }

    #[test]
    fn reused_digit_is_rejected() {
        let m = RegionModel {
            array_rank: 2,
            task_digits: vec![Extent::Axis(0)],
            write: vec![AxisFootprint::TaskDigit(0), AxisFootprint::TaskDigit(0)],
            read_same_array: None,
            constraints: vec![],
            conjugate: None,
        };
        // Digit 0 cannot select both axes: extent check fires on axis 1
        // first (Axis(0) ≠ Axis(1)); a matching-extent reuse is also caught.
        assert!(matches!(
            prove_write_disjoint(&m),
            Err(ProofError::ExtentMismatch { axis: 1, digit: 0 })
        ));
    }

    #[test]
    fn extent_mismatch_is_rejected() {
        let mut m = pencil_d(3, 1);
        m.task_digits[1] = Extent::AxisDiv(2, 2); // claims dims[2]/2 tasks but writes single digits
        assert_eq!(
            prove_write_disjoint(&m),
            Err(ProofError::ExtentMismatch { axis: 2, digit: 1 })
        );
    }

    #[test]
    fn read_shape_must_match_write() {
        let mut m = pencil_d(3, 1);
        m.read_same_array = Some(vec![
            AxisFootprint::Full, // reads the whole axis 0, not just its own row
            AxisFootprint::Full,
            AxisFootprint::TaskDigit(1),
        ]);
        assert_eq!(
            prove_write_disjoint(&m),
            Err(ProofError::ReadWriteShapeMismatch { axis: 0 })
        );
    }
}
