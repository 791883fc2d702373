//! Layer 1: symbolic bijectivity and byte-count proofs, valid for **all**
//! conforming `(grid shape × rank grid)` pairs at once.
//!
//! A [`LayoutMap`] factors every global coordinate `i_a` by Euclidean
//! division into a block digit `q_a = i_a / e_a` and an offset digit
//! `r_a = i_a mod e_a` (with `e_a` the local extent — exact because
//! conformance demands `dims[a] % G == 0`). The rank is the mixed-radix
//! number of the `q` digits over the rank grid, the local flat index the
//! mixed-radix number of the remaining digits in storage order. The map is a
//! bijection iff that digit multiset is consumed exactly once on each side —
//! the same digit-injectivity argument `racecheck` uses for write
//! disjointness. `prove_layout_bijective` checks exactly that, for the
//! symbolic grid (no shape is ever instantiated).
//!
//! Per-(src, dst) traffic is derived by per-axis case analysis into a
//! `PairCount`: a single monomial `n0^α·n1^β·n2^γ / (Pr^δ·Pc^ε)` times a
//! block-diagonal indicator over grid digits. `prove_repartition_bijective`
//! then proves mass conservation — summing the monomial over destinations
//! (resp. sources) reproduces the source (resp. destination) local length —
//! by exact exponent bookkeeping, again for all shapes at once.

use std::fmt;

use vlasov6d_fft::layout::{AxisPart, GridAxis, LayoutMap, RankGrid, Repartition};

/// Why a symbolic proof failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ProofError {
    /// `order` is not a permutation of the global axes.
    OrderNotPermutation,
    /// Two global axes consume the same rank-grid digit — the inverse map
    /// would be ambiguous.
    DigitReused(GridAxis),
    /// A rank-grid digit of symbolic extent > 1 is consumed by no global
    /// axis — two ranks differing only in it would own identical coords.
    DigitUnused(GridAxis),
    /// src and dst interpret the same global axis through *different* grid
    /// divisors — the ownership intersection is not a uniform monomial and
    /// the derived byte accounting would be wrong.
    MixedDivisorAxis(usize),
    /// A claimed forward/inverse pair does not chain through the same
    /// layouts.
    CompositionMismatch,
    /// The conservation identity failed: summing per-pair traffic does not
    /// reproduce a local length.
    NotConserving { side: &'static str, detail: String },
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::OrderNotPermutation => {
                write!(f, "storage order is not a permutation of the global axes")
            }
            ProofError::DigitReused(g) => {
                write!(f, "rank-grid digit {g:?} consumed by more than one axis")
            }
            ProofError::DigitUnused(g) => {
                write!(f, "rank-grid digit {g:?} of extent > 1 consumed by no axis")
            }
            ProofError::MixedDivisorAxis(a) => write!(
                f,
                "global axis {a} split by different grid divisors on the two sides"
            ),
            ProofError::CompositionMismatch => {
                write!(
                    f,
                    "forward and inverse repartitions do not chain through the same layouts"
                )
            }
            ProofError::NotConserving { side, detail } => {
                write!(
                    f,
                    "traffic does not conserve the {side} local length: {detail}"
                )
            }
        }
    }
}

/// A monomial `n0^e0 · n1^e1 · n2^e2 · Pr^er · Pc^ec` with integer
/// exponents — the symbolic value of an element count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Mono {
    pub n: [i32; 3],
    pub rows: i32,
    pub cols: i32,
}

impl Mono {
    pub const ONE: Mono = Mono {
        n: [0; 3],
        rows: 0,
        cols: 0,
    };

    pub fn axis(a: usize) -> Mono {
        let mut m = Mono::ONE;
        m.n[a] = 1;
        m
    }

    pub(crate) fn div_grid(mut self, g: GridAxis) -> Mono {
        match g {
            GridAxis::Row => self.rows -= 1,
            GridAxis::Col => self.cols -= 1,
        }
        self
    }

    pub(crate) fn mul_grid(mut self, g: GridAxis) -> Mono {
        match g {
            GridAxis::Row => self.rows += 1,
            GridAxis::Col => self.cols += 1,
        }
        self
    }

    /// Evaluate at concrete dims and grid (negative exponents are exact
    /// divisions under the conformance constraints).
    pub(crate) fn eval(&self, dims: [usize; 3], grid: RankGrid) -> usize {
        let mut num = 1usize;
        let mut den = 1usize;
        for a in 0..3 {
            match self.n[a].cmp(&0) {
                std::cmp::Ordering::Greater => {
                    num *= dims[a].pow(self.n[a] as u32);
                }
                std::cmp::Ordering::Less => den *= dims[a].pow((-self.n[a]) as u32),
                std::cmp::Ordering::Equal => {}
            }
        }
        for (e, g) in [(self.rows, grid.rows), (self.cols, grid.cols)] {
            match e.cmp(&0) {
                std::cmp::Ordering::Greater => num *= g.pow(e as u32),
                std::cmp::Ordering::Less => den *= g.pow((-e) as u32),
                std::cmp::Ordering::Equal => {}
            }
        }
        debug_assert_eq!(num % den, 0, "monomial not integral at {dims:?}");
        num / den
    }
}

impl std::ops::Mul for Mono {
    type Output = Mono;

    fn mul(self, o: Mono) -> Mono {
        Mono {
            n: [self.n[0] + o.n[0], self.n[1] + o.n[1], self.n[2] + o.n[2]],
            rows: self.rows + o.rows,
            cols: self.cols + o.cols,
        }
    }
}

impl fmt::Display for Mono {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (a, e) in self.n.iter().enumerate() {
            if *e != 0 {
                parts.push(format!("n{a}^{e}"));
            }
        }
        if self.rows != 0 {
            parts.push(format!("Pr^{}", self.rows));
        }
        if self.cols != 0 {
            parts.push(format!("Pc^{}", self.cols));
        }
        if parts.is_empty() {
            write!(f, "1")
        } else {
            write!(f, "{}", parts.join("·"))
        }
    }
}

/// The symbolic per-(src, dst) element count of a repartition: `elems` when
/// the two ranks' digits agree on every grid axis in `diagonal_on`, zero
/// otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PairCount {
    pub elems: Mono,
    pub diagonal_on: Vec<GridAxis>,
}

impl PairCount {
    /// Evaluate for a concrete rank pair — the *independently derived*
    /// counterpart of `Repartition::pair_elems` (which intersects ownership
    /// ranges); layer 2 diffs the two.
    pub(crate) fn eval(&self, dims: [usize; 3], grid: RankGrid, s: usize, d: usize) -> usize {
        for &g in &self.diagonal_on {
            if grid.digit(s, g) != grid.digit(d, g) {
                return 0;
            }
        }
        self.elems.eval(dims, grid)
    }
}

/// Local length of a layout as a monomial.
pub(crate) fn local_len_mono(layout: &LayoutMap) -> Mono {
    let mut m = Mono::ONE;
    for (a, p) in layout.parts.iter().enumerate() {
        m = m * Mono::axis(a);
        if let AxisPart::Block(g) = p {
            m = m.div_grid(*g);
        }
    }
    m
}

/// Prove one layout a bijection global ↔ (rank, flat) for all conforming
/// shapes. Returns the proof narrative.
pub(crate) fn prove_layout_bijective(layout: &LayoutMap) -> Result<String, ProofError> {
    // Storage order must be a permutation (else two locals share a flat).
    let mut seen = [false; 3];
    for &o in &layout.order {
        if o >= 3 || seen[o] {
            return Err(ProofError::OrderNotPermutation);
        }
        seen[o] = true;
    }
    // Each grid digit must be consumed exactly once.
    for g in [GridAxis::Row, GridAxis::Col] {
        let consumers = layout
            .parts
            .iter()
            .filter(|p| matches!(p, AxisPart::Block(h) if *h == g))
            .count();
        match consumers {
            0 => return Err(ProofError::DigitUnused(g)),
            1 => {}
            _ => return Err(ProofError::DigitReused(g)),
        }
    }
    // With both checks in hand the bijection is the mixed-radix argument:
    // each i_a splits uniquely as q_a·e_a + r_a (Euclid; e_a exact by the
    // conformance divisibility), the q digits enumerate ranks exactly once
    // (each grid digit consumed exactly once), and the r/full digits
    // enumerate each rank's flat range exactly once (order is a
    // permutation, radices multiply to the local length). Reconstruction
    // i_a = q_a·e_a + r_a inverts it.
    Ok(format!(
        "{}: every global coord splits uniquely into rank digits {} and local digits in \
         storage order {:?}; mixed-radix ⇒ bijection for all conforming shapes",
        layout.name,
        describe_digits(layout),
        layout.order,
    ))
}

fn describe_digits(layout: &LayoutMap) -> String {
    let consumed: Vec<String> = layout
        .parts
        .iter()
        .enumerate()
        .filter_map(|(a, p)| match p {
            AxisPart::Block(g) => Some(format!("i{a}/{g:?}")),
            AxisPart::Full => None,
        })
        .collect();
    if consumed.is_empty() {
        "(none)".into()
    } else {
        consumed.join(", ")
    }
}

/// Derive the symbolic per-pair count of a repartition, or fail if the axis
/// case analysis does not yield a uniform monomial.
pub(crate) fn derive_pair_count(rep: &Repartition) -> Result<PairCount, ProofError> {
    let mut elems = Mono::ONE;
    let mut diagonal_on = Vec::new();
    for a in 0..3 {
        match (rep.src.parts[a], rep.dst.parts[a]) {
            (AxisPart::Full, AxisPart::Full) => elems = elems * Mono::axis(a),
            (AxisPart::Block(g), AxisPart::Full) | (AxisPart::Full, AxisPart::Block(g)) => {
                elems = (elems * Mono::axis(a)).div_grid(g);
            }
            (AxisPart::Block(g), AxisPart::Block(h)) if g == h => {
                // Same divisor both sides: blocks coincide, so the
                // intersection is the whole block iff the digits agree.
                elems = (elems * Mono::axis(a)).div_grid(g);
                diagonal_on.push(g);
            }
            (AxisPart::Block(_), AxisPart::Block(_)) => {
                return Err(ProofError::MixedDivisorAxis(a));
            }
        }
    }
    Ok(PairCount { elems, diagonal_on })
}

/// Prove a repartition a bijection with conserving traffic for all
/// conforming shapes. Returns (narrative, derived pair count).
pub(crate) fn prove_repartition_bijective(
    rep: &Repartition,
) -> Result<(String, PairCount), ProofError> {
    let src_proof = prove_layout_bijective(&rep.src)?;
    let dst_proof = prove_layout_bijective(&rep.dst)?;
    let pair = derive_pair_count(rep)?;

    // Conservation: Σ_dst count(s, d) must equal the src local length. For
    // each grid axis not pinned by the diagonal, the sum ranges over its
    // whole extent — multiply the monomial by that extent; diagonal axes
    // contribute exactly one matching destination. Exact exponent equality
    // proves it for every shape at once.
    let mut sum_over_dst = pair.elems;
    let mut sum_over_src = pair.elems;
    for g in [GridAxis::Row, GridAxis::Col] {
        if !pair.diagonal_on.contains(&g) {
            sum_over_dst = sum_over_dst.mul_grid(g);
            sum_over_src = sum_over_src.mul_grid(g);
        }
    }
    let src_len = local_len_mono(&rep.src);
    let dst_len = local_len_mono(&rep.dst);
    if sum_over_dst != src_len {
        return Err(ProofError::NotConserving {
            side: "source",
            detail: format!("Σ_dst {} = {sum_over_dst} ≠ {src_len}", pair.elems),
        });
    }
    if sum_over_src != dst_len {
        return Err(ProofError::NotConserving {
            side: "destination",
            detail: format!("Σ_src {} = {sum_over_src} ≠ {dst_len}", pair.elems),
        });
    }

    let diag = if pair.diagonal_on.is_empty() {
        "all rank pairs".to_string()
    } else {
        format!("pairs agreeing on {:?}", pair.diagonal_on)
    };
    Ok((
        format!(
            "{}: src ✓ [{src_proof}]; dst ✓ [{dst_proof}]; pair traffic {} over {diag}; \
             Σ_dst = src len = {src_len}, Σ_src = dst len = {dst_len}",
            rep.name, pair.elems,
        ),
        pair,
    ))
}

/// Prove that `fwd` followed by `inv` is the identity repartition: `inv`
/// must start where `fwd` lands and land where `fwd` started. Composition of
/// two proven bijections through the shared global index space is then the
/// identity on (rank, flat) pairs.
pub(crate) fn prove_composition_identity(
    fwd: &Repartition,
    inv: &Repartition,
) -> Result<String, ProofError> {
    prove_repartition_bijective(fwd)?;
    prove_repartition_bijective(inv)?;
    if fwd.dst != inv.src || fwd.src != inv.dst {
        return Err(ProofError::CompositionMismatch);
    }
    Ok(format!(
        "{} ∘ {}: inverse starts at {} and lands at {}; both sides proven bijections through \
         the shared global index space, so the composition is the identity on (rank, flat)",
        inv.name, fwd.name, fwd.dst.name, fwd.src.name
    ))
}
