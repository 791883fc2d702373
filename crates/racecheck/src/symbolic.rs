//! General-`n` symbolic disjointness proofs for strided task families.
//!
//! Every parallel region in the workspace partitions a flat array by
//! decomposing the task index into mixed-radix *digits* and mapping each
//! digit to one array axis. A [`RegionModel`] states that mapping
//! symbolically — per array axis, which slice task `t` writes, as a function
//! of `t`'s digits — and [`prove_write_disjoint`] checks the three
//! conditions that together imply pairwise disjointness **for every grid
//! shape** satisfying the model's divisibility constraints:
//!
//! 1. *Injectivity*: every task digit is consumed by exactly one array axis.
//!    Two distinct tasks then differ in some digit `j`, and the unique axis
//!    carrying `j` separates their footprints.
//! 2. *Extent matching*: a digit selecting single coordinates
//!    ([`AxisFootprint::TaskDigit`]) must range over exactly the axis extent;
//!    a digit selecting aligned blocks ([`AxisFootprint::TaskBlock`]) must
//!    range over `extent / width`. This makes each axis slice both in-bounds
//!    and distinct for distinct digit values.
//! 3. *Divisibility*: block widths require `dims[axis] % width == 0`,
//!    declared as a [`Divisibility`] constraint that the kernel must also
//!    assert at runtime (otherwise an aligned block could straddle the axis
//!    end and alias a neighbouring task's slice through the flattening).
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
            AxisFootprint::TaskDigit(_) | AxisFootprint::TaskBlock { .. }
        )
    }
}

/// A shape-family constraint the kernel asserts: `dims[axis] % divisor == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divisibility {
    pub axis: usize,
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
}

/// Why a model fails to prove disjointness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
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
        }
    }
}

/// Prove pairwise write-disjointness (and same-array read non-interference)
/// for all grid shapes satisfying the model's constraints. Returns a short
/// proof narrative.
pub fn prove_write_disjoint(m: &RegionModel) -> Result<String, ProofError> {
    if m.write.len() != m.array_rank {
        return Err(ProofError::RankMismatch);
    }
    let k = m.task_digits.len();
    // Which axis consumes each digit.
    let mut consumer: Vec<Option<usize>> = vec![None; k];
    for (axis, fp) in m.write.iter().enumerate() {
        let (digit, required) = match *fp {
            AxisFootprint::Full | AxisFootprint::Inner(_) | AxisFootprint::Edges(_) => continue,
            AxisFootprint::TaskDigit(j) => (j, Extent::Axis(axis)),
            AxisFootprint::TaskBlock { digit, width } => {
                if !m
                    .constraints
                    .iter()
                    .any(|c| c.axis == axis && c.divisor % width == 0)
                {
                    return Err(ProofError::MissingDivisibility { axis, width });
                }
                (digit, Extent::AxisDiv(axis, width))
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
    pub fn dims_conform(&self, dims: &[usize]) -> bool {
        dims.len() == self.array_rank
            && self
                .constraints
                .iter()
                .all(|c| dims[c.axis] % c.divisor == 0)
    }

    /// Digit extents instantiated at `dims`.
    fn digit_extents(&self, dims: &[usize]) -> Vec<usize> {
        self.task_digits
            .iter()
            .map(|e| match *e {
                Extent::Axis(a) => dims[a],
                Extent::AxisDiv(a, w) => dims[a] / w,
            })
            .collect()
    }

    /// Number of tasks at `dims`.
    pub fn task_count(&self, dims: &[usize]) -> usize {
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
        // Per-axis coordinate lists.
        let coords: Vec<Vec<usize>> = self
            .write
            .iter()
            .enumerate()
            .map(|(a, fp)| match *fp {
                AxisFootprint::Full => (0..dims[a]).collect(),
                AxisFootprint::Inner(g) => (g..dims[a].saturating_sub(g)).collect(),
                AxisFootprint::Edges(g) => {
                    assert!(dims[a] >= 2 * g, "edge slabs overlap on axis {a}");
                    (0..g).chain(dims[a] - g..dims[a]).collect()
                }
                AxisFootprint::TaskDigit(j) => vec![digits[j]],
                AxisFootprint::TaskBlock { digit, width } => {
                    (digits[digit] * width..(digits[digit] + 1) * width).collect()
                }
            })
            .collect();
        let strides: Vec<usize> = (0..self.array_rank)
            .map(|a| dims[a + 1..].iter().product())
            .collect();
        let mut out = Vec::new();
        // Odometer over the cartesian product, axis 0 slowest → ascending.
        fn rec(
            axis: usize,
            acc: usize,
            coords: &[Vec<usize>],
            strides: &[usize],
            out: &mut Vec<usize>,
        ) {
            if axis == coords.len() {
                out.push(acc);
                return;
            }
            for &c in &coords[axis] {
                rec(axis + 1, acc + c * strides[axis], coords, strides, out);
            }
        }
        rec(0, 0, &coords, &strides, &mut out);
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
        };
        assert_eq!(
            prove_write_disjoint(&m),
            Err(ProofError::MissingDivisibility { axis: 1, width: 4 })
        );
        m.constraints.push(Divisibility {
            axis: 1,
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
