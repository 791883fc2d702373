//! Layer 3: exact-arithmetic transform identities over cyclotomic rationals.
//!
//! A layout verifier that trusts the FFT it gates is circular: the pencil
//! pipeline could route every element perfectly and still compute the wrong
//! transform. This layer re-derives the transform itself with **no floating
//! point at all**: elements of ℚ(ζ_n) = ℚ\[x\]/Φ_n(x) (ζ_n a primitive n-th
//! root of unity, Φ_n the n-th cyclotomic polynomial, computed here by exact
//! division of xⁿ − 1), with the DFT's forward convention ζ = e^{−2πi/n}
//! matching `FftPlan`. Checked identities, all as exact polynomial
//! equalities with zero tolerance:
//!
//! * **unitarity** — Σ_k ζ^{(j−j′)k} = n·δ_{jj′} for every (j, j′) pair at
//!   n ∈ {2, 3, 4, 6, 8} (power-of-two, radix-3, and Bluestein-path sizes);
//! * **Parseval** — ‖F v‖² = n·‖v‖² for a dense rational test vector;
//! * **3-D factorization** — the triple-sum 3-D DFT equals the axis-by-axis
//!   factorization (the identity the pencil pipeline's three 1-D passes rely
//!   on) in ℚ(ζ_lcm) at ragged and prime-factor shapes;
//! * **ULP pinning** — the exact spectra evaluated to `f64` pin the shipped
//!   `Fft3` within a fixed ULP budget, and a live distributed `Pencil2D` run
//!   is pinned against serial `Fft3` within a tighter budget.
//!
//! Negative controls: a twiddle scaled by 2 must break Parseval; a
//! shifted-exponent "DFT" must break orthogonality.

use vlasov6d_fft::{Complex64, Fft3, Pencil2D};
use vlasov6d_kerncheck::rational::{Poly, Rat};
use vlasov6d_kerncheck::report::Report;
use vlasov6d_kerncheck::ulp::ulp_diff_f64;
use vlasov6d_mpisim::Universe;

const PASS: &str = "exact";

/// ULP budget for exact-ℚ(ζ) spectra vs the shipped f64 `Fft3`.
const SERIAL_ULP_BUDGET: u64 = 64;
/// ULP budget for the distributed `Pencil2D` vs serial `Fft3`.
const PENCIL_ULP_BUDGET: u64 = 16;

// ---------------------------------------------------------------------------
// Cyclotomic field ℚ(ζ_n) = ℚ[x]/Φ_n.
// ---------------------------------------------------------------------------

/// Remainder of `p` modulo monic `m`, exact.
fn poly_rem(p: &Poly, m: &Poly) -> Poly {
    let md = m.degree().expect("modulus must be nonzero");
    let mut r = p.clone();
    while let Some(rd) = r.degree() {
        if rd < md {
            break;
        }
        // r -= lead(r) · x^(rd − md) · m   (m is monic)
        let lead = r.coeffs()[rd];
        let mut shift = vec![Rat::ZERO; rd - md + 1];
        shift[rd - md] = lead;
        r = r.sub(&m.mul(&Poly::from_coeffs(shift)));
    }
    r
}

/// Exact quotient of `p` by monic `m`; panics unless the division is exact.
fn poly_div_exact(p: &Poly, m: &Poly) -> Poly {
    let md = m.degree().expect("divisor must be nonzero");
    let mut r = p.clone();
    let pd = match r.degree() {
        Some(d) => d,
        None => return Poly::zero(),
    };
    let mut q = vec![Rat::ZERO; pd - md + 1];
    while let Some(rd) = r.degree() {
        if rd < md {
            break;
        }
        let lead = r.coeffs()[rd];
        q[rd - md] = lead;
        let mut shift = vec![Rat::ZERO; rd - md + 1];
        shift[rd - md] = lead;
        r = r.sub(&m.mul(&Poly::from_coeffs(shift)));
    }
    assert!(r.is_zero(), "cyclotomic division left a remainder");
    Poly::from_coeffs(q)
}

/// `x^n − 1`.
fn x_pow_minus_one(n: usize) -> Poly {
    let mut c = vec![Rat::ZERO; n + 1];
    c[0] = Rat::int(-1);
    c[n] = Rat::ONE;
    Poly::from_coeffs(c)
}

/// The n-th cyclotomic polynomial: Φ_n = (xⁿ − 1) / ∏_{d|n, d<n} Φ_d.
fn cyclotomic(n: usize) -> Poly {
    let mut num = x_pow_minus_one(n);
    for d in 1..n {
        if n.is_multiple_of(d) {
            num = poly_div_exact(&num, &cyclotomic(d));
        }
    }
    num
}

/// ℚ(ζ_n); elements are polynomials of degree < deg Φ_n in ζ.
struct Field {
    n: usize,
    modulus: Poly,
    /// ζ^k reduced mod Φ_n, for k ∈ [0, n).
    powers: Vec<Poly>,
}

impl Field {
    fn new(n: usize) -> Field {
        let modulus = cyclotomic(n);
        let powers = (0..n)
            .map(|k| {
                let mut c = vec![Rat::ZERO; k + 1];
                c[k] = Rat::ONE;
                poly_rem(&Poly::from_coeffs(c), &modulus)
            })
            .collect();
        Field { n, modulus, powers }
    }

    /// ζ^k for any integer exponent (ζⁿ = 1 holds mod Φ_n).
    fn zeta(&self, k: i64) -> Poly {
        let k = k.rem_euclid(self.n as i64) as usize;
        self.powers[k].clone()
    }

    fn mul(&self, a: &Poly, b: &Poly) -> Poly {
        poly_rem(&a.mul(b), &self.modulus)
    }

    /// Complex conjugate: ζ ↦ ζ⁻¹, i.e. c_j ζ^j ↦ c_j ζ^{n−j}.
    fn conj(&self, a: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (j, c) in a.coeffs().iter().enumerate() {
            out = out.add(&self.zeta(-(j as i64)).scale(c));
        }
        out
    }

    /// Evaluate at ζ = e^{−2πi/n} (the `FftPlan` forward convention).
    fn to_c64(&self, a: &Poly) -> Complex64 {
        let mut re = 0.0;
        let mut im = 0.0;
        for (j, c) in a.coeffs().iter().enumerate() {
            let theta = -2.0 * std::f64::consts::PI * j as f64 / self.n as f64;
            let cf = c.to_f64();
            re += cf * theta.cos();
            im += cf * theta.sin();
        }
        Complex64::new(re, im)
    }
}

// ---------------------------------------------------------------------------
// Exact DFTs.
// ---------------------------------------------------------------------------

/// Forward n-point DFT in ℚ(ζ_L) (n | L): X_k = Σ_j x_j ζ_L^{(L/n)·jk}.
fn dft_1d(field: &Field, n: usize, x: &[Poly]) -> Vec<Poly> {
    let stride = (field.n / n) as i64;
    (0..n)
        .map(|k| {
            let mut acc = Poly::zero();
            for (j, xj) in x.iter().enumerate() {
                acc = acc.add(&field.mul(xj, &field.zeta(stride * (j * k) as i64)));
            }
            acc
        })
        .collect()
}

/// Direct triple-sum 3-D DFT.
fn dft_3d_direct(field: &Field, dims: [usize; 3], x: &[Poly]) -> Vec<Poly> {
    let [n0, n1, n2] = dims;
    let idx = |i0: usize, i1: usize, i2: usize| (i0 * n1 + i1) * n2 + i2;
    let mut out = vec![Poly::zero(); n0 * n1 * n2];
    for k0 in 0..n0 {
        for k1 in 0..n1 {
            for k2 in 0..n2 {
                let mut acc = Poly::zero();
                for j0 in 0..n0 {
                    for j1 in 0..n1 {
                        for j2 in 0..n2 {
                            let phase = (field.n / n0) * (j0 * k0 % n0)
                                + (field.n / n1) * (j1 * k1 % n1)
                                + (field.n / n2) * (j2 * k2 % n2);
                            let w = field.zeta(phase as i64);
                            acc = acc.add(&field.mul(&x[idx(j0, j1, j2)], &w));
                        }
                    }
                }
                out[idx(k0, k1, k2)] = acc;
            }
        }
    }
    out
}

/// Axis-by-axis factorized 3-D DFT — the identity the pencil pipeline's three
/// 1-D passes implement.
fn dft_3d_factorized(field: &Field, dims: [usize; 3], x: &[Poly]) -> Vec<Poly> {
    let [n0, n1, n2] = dims;
    let idx = |i0: usize, i1: usize, i2: usize| (i0 * n1 + i1) * n2 + i2;
    let mut data = x.to_vec();
    // Axis 2, then axis 1, then axis 0 — the pencil stage order.
    for i0 in 0..n0 {
        for i1 in 0..n1 {
            let line: Vec<Poly> = (0..n2).map(|i2| data[idx(i0, i1, i2)].clone()).collect();
            for (i2, v) in dft_1d(field, n2, &line).into_iter().enumerate() {
                data[idx(i0, i1, i2)] = v;
            }
        }
    }
    for i0 in 0..n0 {
        for i2 in 0..n2 {
            let line: Vec<Poly> = (0..n1).map(|i1| data[idx(i0, i1, i2)].clone()).collect();
            for (i1, v) in dft_1d(field, n1, &line).into_iter().enumerate() {
                data[idx(i0, i1, i2)] = v;
            }
        }
    }
    for i1 in 0..n1 {
        for i2 in 0..n2 {
            let line: Vec<Poly> = (0..n0).map(|i0| data[idx(i0, i1, i2)].clone()).collect();
            for (i0, v) in dft_1d(field, n0, &line).into_iter().enumerate() {
                data[idx(i0, i1, i2)] = v;
            }
        }
    }
    data
}

fn lcm(a: usize, b: usize) -> usize {
    let mut x = a;
    let mut y = b;
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

/// Deterministic dense rational test data: x_j = (j + 1) / (j mod 7 + 2),
/// alternating sign — no symmetry for a wrong transform to hide behind.
fn test_vector(len: usize) -> Vec<Poly> {
    (0..len)
        .map(|j| {
            let sign = if j % 2 == 0 { 1 } else { -1 };
            Poly::constant(Rat::new(sign * (j as i128 + 1), (j % 7) as i128 + 2))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------------

pub fn run(report: &mut Report) {
    unitarity(report);
    parseval(report);
    factorization(report);
    ulp_pinning(report);
    pencil_pinning(report);
    controls(report);
}

/// Σ_k ζ^{(j−j′)k} = n·δ_{jj′}, exactly, for every (j, j′).
fn unitarity(report: &mut Report) {
    for n in [2usize, 3, 4, 6, 8] {
        let field = Field::new(n);
        let mut witness = None;
        'outer: for j in 0..n {
            for jp in 0..n {
                let mut acc = Poly::zero();
                for k in 0..n {
                    acc = acc.add(&field.zeta((j as i64 - jp as i64) * k as i64));
                }
                let want = if j == jp {
                    Poly::constant(Rat::int(n as i128))
                } else {
                    Poly::zero()
                };
                if acc != want {
                    witness = Some(format!("(j, j′) = ({j}, {jp}): got {acc}"));
                    break 'outer;
                }
            }
        }
        match witness {
            None => report.verified(
                PASS,
                format!("fft.unitarity.n{n}"),
                format!("F·F† = {n}·I as an exact identity in ℚ(ζ_{n}), all {n}² entries"),
            ),
            Some(w) => report.violated(
                PASS,
                format!("fft.unitarity.n{n}"),
                "DFT matrix is not unitary (up to √n) in exact arithmetic",
                Some(w),
            ),
        }
    }
}

/// ‖F v‖² = n·‖v‖² with |z|² = z·z̄, exact in ℚ(ζ_n).
fn parseval(report: &mut Report) {
    for n in [4usize, 6, 8] {
        let field = Field::new(n);
        let v = test_vector(n);
        let spectrum = dft_1d(&field, n, &v);
        let energy = |xs: &[Poly]| {
            let mut acc = Poly::zero();
            for x in xs {
                acc = acc.add(&field.mul(x, &field.conj(x)));
            }
            acc
        };
        let lhs = energy(&spectrum);
        let rhs = energy(&v).scale(&Rat::int(n as i128));
        if lhs == rhs {
            report.verified(
                PASS,
                format!("fft.parseval.n{n}"),
                format!("‖Fv‖² = {n}·‖v‖² exactly for a dense rational v"),
            );
        } else {
            report.violated(
                PASS,
                format!("fft.parseval.n{n}"),
                "Parseval identity fails in exact arithmetic",
                Some(format!("‖Fv‖² = {lhs}, {n}·‖v‖² = {rhs}")),
            );
        }
    }
}

/// Triple-sum 3-D DFT == axis-by-axis factorization, exact in ℚ(ζ_lcm).
fn factorization(report: &mut Report) {
    for dims in [[2usize, 2, 2], [4, 4, 4], [2, 3, 4], [8, 4, 2]] {
        let l = lcm(lcm(dims[0], dims[1]), dims[2]);
        let field = Field::new(l);
        let x = test_vector(dims.iter().product());
        let direct = dft_3d_direct(&field, dims, &x);
        let factored = dft_3d_factorized(&field, dims, &x);
        let name = format!("fft.factorization.{}x{}x{}", dims[0], dims[1], dims[2]);
        match direct.iter().zip(&factored).position(|(a, b)| a != b) {
            None => report.verified(
                PASS,
                name,
                format!(
                    "triple-sum 3-D DFT equals the axis-factorized transform, all {} \
                     coefficients exact in ℚ(ζ_{l})",
                    direct.len()
                ),
            ),
            Some(i) => report.violated(
                PASS,
                name,
                "axis factorization changes the transform in exact arithmetic",
                Some(format!("first differing flat index {i}")),
            ),
        }
    }
}

fn max_ulp(a: &[Complex64], b: &[Complex64], scale: f64) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            // Near-zero coefficients (exact cancellations the f64 path only
            // approximates) are compared absolutely at the spectrum's scale.
            let comp = |p: f64, q: f64| {
                if (p - q).abs() <= scale * 1e-13 {
                    0
                } else {
                    ulp_diff_f64(p, q)
                }
            };
            comp(x.re, y.re).max(comp(x.im, y.im))
        })
        .max()
        .unwrap_or(0)
}

/// Exact spectra, evaluated at ζ = e^{−2πi/L}, pin the shipped `Fft3`.
fn ulp_pinning(report: &mut Report) {
    for dims in [[4usize, 4, 4], [2, 3, 4], [8, 4, 2]] {
        let l = lcm(lcm(dims[0], dims[1]), dims[2]);
        let field = Field::new(l);
        let x = test_vector(dims.iter().product());
        let exact: Vec<Complex64> = dft_3d_direct(&field, dims, &x)
            .iter()
            .map(|p| field.to_c64(p))
            .collect();
        let mut data: Vec<Complex64> = x
            .iter()
            .map(|p| Complex64::new(p.eval_f64(0.0), 0.0))
            .collect();
        Fft3::new(dims).forward(&mut data);
        let scale = exact
            .iter()
            .map(|z| z.re.abs().max(z.im.abs()))
            .fold(0.0f64, f64::max);
        let worst = max_ulp(&exact, &data, scale);
        let name = format!("fft.ulp.serial.{}x{}x{}", dims[0], dims[1], dims[2]);
        if worst <= SERIAL_ULP_BUDGET {
            report.verified(
                PASS,
                name,
                format!("Fft3 within {worst} ULP of the exact ℚ(ζ_{l}) spectrum (budget {SERIAL_ULP_BUDGET})"),
            );
        } else {
            report.violated(
                PASS,
                name,
                format!("Fft3 drifted beyond {SERIAL_ULP_BUDGET} ULP of the exact spectrum"),
                Some(format!("worst coefficient {worst} ULP")),
            );
        }
    }
}

/// A live distributed `Pencil2D` forward run, gathered to the global
/// spectrum, pinned against serial `Fft3`.
fn pencil_pinning(report: &mut Report) {
    for (dims, rows, cols) in [([4usize, 4, 4], 2, 2), ([4, 8, 4], 4, 2)] {
        let n: usize = dims.iter().product();
        let global: Vec<Complex64> = test_vector(n)
            .iter()
            .map(|p| Complex64::new(p.eval_f64(0.0), 0.0))
            .collect();
        let mut serial = global.clone();
        Fft3::new(dims).forward(&mut serial);

        let fft = Pencil2D::new(dims, rows, cols).with_batches(2);
        let [_, n1, n2] = dims;
        let idx = |g: [usize; 3]| (g[0] * n1 + g[1]) * n2 + g[2];
        let p = rows * cols;
        let locals = Universe::run(p, |comm| {
            let me = comm.rank();
            let input: Vec<Complex64> = (0..fft.zpencil_len())
                .map(|flat| global[idx(fft.zpencil_coords(me, flat))])
                .collect();
            fft.forward(comm, &input, 0)
        });
        let mut gathered = vec![Complex64::new(0.0, 0.0); n];
        for (rank, local) in locals.iter().enumerate() {
            for (flat, &v) in local.iter().enumerate() {
                let [i1, i0, i2] = fft.spectral_coords(rank, flat);
                gathered[idx([i0, i1, i2])] = v;
            }
        }
        let scale = serial
            .iter()
            .map(|z| z.re.abs().max(z.im.abs()))
            .fold(0.0f64, f64::max);
        let worst = max_ulp(&serial, &gathered, scale);
        let name = format!(
            "fft.ulp.pencil.{}x{}x{}.g{rows}x{cols}",
            dims[0], dims[1], dims[2]
        );
        if worst <= PENCIL_ULP_BUDGET {
            report.verified(
                PASS,
                name,
                format!("distributed Pencil2D within {worst} ULP of serial Fft3 (budget {PENCIL_ULP_BUDGET})"),
            );
        } else {
            report.violated(
                PASS,
                name,
                format!("Pencil2D drifted beyond {PENCIL_ULP_BUDGET} ULP of serial Fft3"),
                Some(format!("worst coefficient {worst} ULP")),
            );
        }
    }
}

fn controls(report: &mut Report) {
    // Control: doubling the twiddles must break Parseval (energy scales by
    // 4, not the required n).
    let n = 4;
    let field = Field::new(n);
    let v = test_vector(n);
    let scaled: Vec<Poly> = (0..n)
        .map(|k| {
            let mut acc = Poly::zero();
            for (j, xj) in v.iter().enumerate() {
                let w = field.zeta((j * k) as i64).scale(&Rat::int(2));
                acc = acc.add(&field.mul(xj, &w));
            }
            acc
        })
        .collect();
    let energy = |xs: &[Poly]| {
        let mut acc = Poly::zero();
        for x in xs {
            acc = acc.add(&field.mul(x, &field.conj(x)));
        }
        acc
    };
    let broke = energy(&scaled) != energy(&v).scale(&Rat::int(n as i128));
    report.control(
        PASS,
        "control.scaled.twiddle",
        "a 2×-scaled twiddle factor must break the exact Parseval identity",
        broke,
        Some("energy scales by 4 instead of n".into()),
    );

    // Control: a shifted exponent ζ^{(j+1)k} must break orthogonality of the
    // DFT rows.
    let mut orthogonal = true;
    for j in 0..n {
        for jp in 0..n {
            let mut acc = Poly::zero();
            for k in 0..n {
                // Row j of the buggy matrix uses exponent (j+1)k; its
                // adjoint still uses jp·k.
                acc = acc.add(&field.zeta(((j + 1) * k) as i64 - (jp * k) as i64));
            }
            let want = if j == jp {
                Poly::constant(Rat::int(n as i128))
            } else {
                Poly::zero()
            };
            if acc != want {
                orthogonal = false;
            }
        }
    }
    report.control(
        PASS,
        "control.shifted.exponent",
        "an off-by-one DFT exponent must break row orthogonality",
        !orthogonal,
        Some("row j pairs with column j+1 instead of j".into()),
    );
}
