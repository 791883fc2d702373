//! Differential suite for the distributed FFT: `Pencil2D` on every `Pr × Pc`
//! factorization of 1/2/4/8 ranks against its `P × 1` (slab) grid — the one
//! `DistributedVlasov` runs — and the serial `Fft3` oracle, plus the
//! distributed Poisson solve end-to-end — including rank counts beyond the
//! slab grid's `min(n0, n1)` cap, the reason the pencil decomposition exists
//! (paper §5.1.3).
//!
//! The layout-bijectivity of every repartition behind these transforms is
//! proven separately by `cargo xtask verify` (layoutcheck); this suite checks the
//! *numerics* riding on those layouts.

use vlasov6d_fft::{layout, Complex64, Fft3, Pencil2D};
use vlasov6d_mesh::Field3;
use vlasov6d_mpisim::Universe;
use vlasov6d_poisson::{DistPoisson, PoissonSolver};

/// ULP distance between two f64 under the monotone bits mapping.
fn ulp_diff(a: f64, b: f64) -> u64 {
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_add(1) - bits - 1
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

/// ULP distance with the absolute fallback the layoutcheck exact layer uses:
/// near-zero results of cancelling sums carry absolute, not relative, error,
/// so differences below `scale · 1e-13` count as zero ULP.
fn ulp_c_scaled(a: Complex64, b: Complex64, scale: f64) -> u64 {
    let part = |p: f64, q: f64| {
        if (p - q).abs() <= scale * 1e-13 {
            0
        } else {
            ulp_diff(p, q)
        }
    };
    part(a.re, b.re).max(part(a.im, b.im))
}

fn ulp_c(a: Complex64, b: Complex64) -> u64 {
    ulp_c_scaled(a, b, 4.0)
}

/// Deterministic, structured global field (asymmetric in all three axes).
fn field(g: [usize; 3]) -> Complex64 {
    let (x, y, z) = (g[0] as f64, g[1] as f64, g[2] as f64);
    Complex64::new(
        (0.81 * x + 0.13).sin() + (0.47 * y).cos() * (0.29 * z).sin(),
        0.4 * (0.23 * (2.0 * x - y + 3.0 * z)).cos(),
    )
}

fn serial_spectrum(dims: [usize; 3]) -> Vec<Complex64> {
    let mut data: Vec<Complex64> = (0..dims[0] * dims[1] * dims[2])
        .map(|flat| {
            field([
                flat / (dims[1] * dims[2]),
                flat / dims[2] % dims[1],
                flat % dims[2],
            ])
        })
        .collect();
    Fft3::new(dims).forward(&mut data);
    data
}

/// Run the pencil forward transform on a live universe and gather the
/// spectrum into global row-major order through the registered layout maps.
fn pencil_spectrum(dims: [usize; 3], rows: usize, cols: usize, batches: usize) -> Vec<Complex64> {
    let fft = Pencil2D::new(dims, rows, cols).with_batches(batches);
    let per_rank = Universe::run(rows * cols, {
        let fft = fft.clone();
        move |comm| {
            let me = comm.rank();
            let input: Vec<Complex64> = (0..fft.zpencil_len())
                .map(|flat| field(layout::zpencil().coords(dims, fft.grid(), me, flat)))
                .collect();
            let spectrum = fft.forward(comm, &input, 0);
            spectrum
                .iter()
                .enumerate()
                .map(|(flat, &v)| (layout::xpencil().coords(dims, fft.grid(), me, flat), v))
                .collect::<Vec<_>>()
        }
    });
    let mut global = vec![Complex64::ZERO; dims[0] * dims[1] * dims[2]];
    for rank in per_rank {
        for ([i0, i1, i2], v) in rank {
            global[(i0 * dims[1] + i1) * dims[2] + i2] = v;
        }
    }
    global
}

/// Run the full distributed Poisson solve (forward, Green's multiply with
/// the long-range taper, inverse) on a live universe and gather φ into
/// global row-major order through the registered layout map.
fn pencil_poisson(dims: [usize; 3], rows: usize, cols: usize, source: &[f64]) -> Vec<f64> {
    let solver = DistPoisson::new_pencil(dims, rows, cols).with_long_range_split(0.08);
    let per_rank = Universe::run(rows * cols, {
        let (solver, source) = (solver.clone(), source.to_vec());
        move |comm| {
            let me = comm.rank();
            let local: Vec<f64> = (0..solver.local_len())
                .map(|flat| {
                    let [i0, i1, i2] = solver.local_coords(me, flat);
                    source[(i0 * dims[1] + i1) * dims[2] + i2]
                })
                .collect();
            let phi = solver.solve(comm, &local, 1.5, 100);
            phi.into_iter()
                .enumerate()
                .map(|(flat, v)| (solver.local_coords(me, flat), v))
                .collect::<Vec<_>>()
        }
    });
    let mut global = vec![0.0; dims[0] * dims[1] * dims[2]];
    for rank in per_rank {
        for ([i0, i1, i2], v) in rank {
            global[(i0 * dims[1] + i1) * dims[2] + i2] = v;
        }
    }
    global
}

/// Every `Pr × Pc` factorization of 1, 2, 4 and 8 ranks that divides the
/// `[8, 8, 8]` grid.
const GRIDS_888: &[(usize, usize)] = &[
    (1, 1),
    (2, 1),
    (1, 2),
    (2, 2),
    (4, 1),
    (1, 4),
    (4, 2),
    (2, 4),
    (8, 1),
    (1, 8),
];

#[test]
fn pencil_spectrum_matches_serial_across_rank_grids() {
    let dims = [8usize, 8, 8];
    let serial = serial_spectrum(dims);
    for &(rows, cols) in GRIDS_888 {
        let pencil = pencil_spectrum(dims, rows, cols, 1);
        let worst = pencil
            .iter()
            .zip(&serial)
            .map(|(&p, &s)| ulp_c(p, s))
            .max()
            .unwrap();
        assert!(
            worst <= 16,
            "grid {rows}x{cols}: pencil spectrum {worst} ULP from serial"
        );
    }
}

#[test]
fn pencil_agrees_with_slab_bitwise() {
    // Every grid runs the same 1-D plans over full lines in the same axis
    // order (2, 1, 0); only the element routing differs. With the routing
    // proven bijective, the spectra must agree bit for bit with the 4 × 1
    // slab grid `DistributedVlasov` runs — on every factorization.
    let dims = [8usize, 8, 8];
    let slab = pencil_spectrum(dims, 4, 1, 1);
    for (rows, cols) in [(2usize, 2usize), (1, 4), (8, 1), (2, 4)] {
        let pencil = pencil_spectrum(dims, rows, cols, 1);
        for (i, (p, s)) in pencil.iter().zip(&slab).enumerate() {
            assert!(
                p.re.to_bits() == s.re.to_bits() && p.im.to_bits() == s.im.to_bits(),
                "grid {rows}x{cols} flat {i}: pencil {p:?} vs slab {s:?}"
            );
        }
    }
}

#[test]
fn poisson_solve_is_bitwise_identical_on_every_rank_grid() {
    // The whole PM kernel, inverse included, on every factorization of
    // 1/2/4/8 ranks (1 × 1 too) against the 4 × 1 slab grid
    // `DistributedVlasov` runs: the Green's multiply is per mode and the
    // transforms agree bitwise, so φ must too.
    let dims = [8usize, 8, 8];
    let n = dims[0] * dims[1] * dims[2];
    let source: Vec<f64> = {
        let raw: Vec<f64> = (0..n)
            .map(|i| ((i * 53 + 7) % 101) as f64 / 101.0)
            .collect();
        let mean = raw.iter().sum::<f64>() / n as f64;
        raw.into_iter().map(|v| v - mean).collect()
    };
    let slab = pencil_poisson(dims, 4, 1, &source);
    for &(rows, cols) in GRIDS_888 {
        let phi = pencil_poisson(dims, rows, cols, &source);
        for (i, (p, s)) in phi.iter().zip(&slab).enumerate() {
            assert!(
                p.to_bits() == s.to_bits(),
                "grid {rows}x{cols} flat {i}: {p} vs slab {s}"
            );
        }
    }
}

#[test]
fn batching_depth_never_changes_the_bits() {
    // The split-phase pipeline depth reorders communication, not arithmetic.
    let dims = [8usize, 8, 8];
    let one = pencil_spectrum(dims, 2, 2, 1);
    for batches in [2usize, 4] {
        let deep = pencil_spectrum(dims, 2, 2, batches);
        for (i, (a, b)) in one.iter().zip(&deep).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "batches {batches} flat {i}: {a:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn pencil_runs_rank_counts_beyond_the_slab_cap() {
    // [4, 8, 8] caps a P × 1 slab grid at n0 = 4 ranks; the 2×4 pencil grid
    // spreads the same transform over 8 — and must still match serial and
    // reproduce its input through forward∘inverse.
    let dims = [4usize, 8, 8];
    let serial = serial_spectrum(dims);
    let pencil = pencil_spectrum(dims, 2, 4, 2);
    let worst = pencil
        .iter()
        .zip(&serial)
        .map(|(&p, &s)| ulp_c(p, s))
        .max()
        .unwrap();
    assert!(worst <= 16, "2x4 over-decomposed spectrum {worst} ULP off");

    let fft = Pencil2D::new(dims, 2, 4).with_batches(2);
    let span = fft.tag_span();
    let roundtrip_worst = Universe::run(8, move |comm| {
        let me = comm.rank();
        let input: Vec<Complex64> = (0..fft.zpencil_len())
            .map(|flat| field(layout::zpencil().coords(dims, fft.grid(), me, flat)))
            .collect();
        let spectrum = fft.forward(comm, &input, 0);
        let back = fft.inverse(comm, &spectrum, span);
        input
            .iter()
            .zip(&back)
            .map(|(&a, &b)| ulp_c(a, b))
            .max()
            .unwrap()
    })
    .into_iter()
    .max()
    .unwrap();
    assert!(
        roundtrip_worst <= 16,
        "forward∘inverse {roundtrip_worst} ULP from the input"
    );
}

#[test]
fn pencil_poisson_matches_serial_end_to_end() {
    // The full PM kernel: density → forward → Green's multiply → inverse,
    // distributed over pencil grids including one past the slab cap.
    let dims = [4usize, 8, 8];
    let n = dims[0] * dims[1] * dims[2];
    let source: Vec<f64> = {
        let raw: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 97.0).collect();
        let mean = raw.iter().sum::<f64>() / n as f64;
        raw.into_iter().map(|v| v - mean).collect()
    };
    let serial = PoissonSolver::new(dims).solve(&Field3::from_vec(dims, source.clone()), 1.5);

    for (rows, cols) in [(2usize, 2usize), (2, 4)] {
        let source = source.clone();
        let serial = serial.clone();
        Universe::run(rows * cols, move |comm| {
            let solver = DistPoisson::new_pencil(dims, rows, cols);
            let me = comm.rank();
            let local: Vec<f64> = (0..solver.local_len())
                .map(|flat| {
                    let [i0, i1, i2] = solver.local_coords(me, flat);
                    source[(i0 * dims[1] + i1) * dims[2] + i2]
                })
                .collect();
            let phi = solver.solve(comm, &local, 1.5, 100);
            for (flat, v) in phi.iter().enumerate() {
                let [i0, i1, i2] = solver.local_coords(me, flat);
                let want = serial.as_slice()[(i0 * dims[1] + i1) * dims[2] + i2];
                assert!(
                    (v - want).abs() < 1e-10,
                    "grid {rows}x{cols} ({i0},{i1},{i2}): {v} vs {want}"
                );
            }
        });
    }
}
