//! Bundles of lines at once: the SIMD kernels.
//!
//! This is the paper's Fig. 1 code shape: lines that share a shift and a
//! boundary ride in the lanes of a [`Lanes`] vector — eight in an
//! [`f32x8`](crate::f32x8), sixteen (two bundles, the paper's SVE width) in
//! an [`f32x16`](crate::simd::f32x16) — and advance together. There is no
//! lane body of its own: the entry points run the one flux/update body
//! ([`crate::flux::flux_update`]) at the lane type, one vertical SIMD op per
//! operation of the line kernel, all arithmetic f32, matching the paper's
//! single-precision Vlasov storage. Each lane is therefore that body run on
//! its own line at `f32` — the test module holds every lane to it bit for
//! bit at both widths, which is why the lane width cannot move a bit.
//!
//! The sweep driver in `vlasov6d-phase-space` feeds this kernel either
//! directly (axes where lanes are contiguous in memory) or through the
//! [`crate::simd::transpose8x8`] LAT staging (the innermost `u_z` axis and
//! the spatial `z` tiles, where lanes would otherwise be strided loads —
//! paper Fig. 2/3). Its spatial sweeps enter through [`advect_lanes_ext`]
//! on a window of the pencil (wrapped onto itself, or between ghost planes),
//! its velocity sweeps through [`advect_lanes`].

use crate::flux::{flux_update, Boundary, Weights};
use crate::line::{advect_sampled, Scheme, GHOST};
use crate::simd::{Isa, Lanes};

/// Reusable scratch for bundle updates at lane type `V`.
#[derive(Debug, Clone)]
pub struct LanesWork<V> {
    /// The ghost-extended bundle in upwind order (unused when the caller's
    /// `ext` already is).
    up: Vec<V>,
    flux: Vec<V>,
    /// The entry of the flux body this scratch's updates take: always
    /// [`Isa::detect`]'s answer, which is what makes the AVX2 and AVX-512
    /// entries sound.
    isa: Isa,
}

impl<V> LanesWork<V> {
    pub fn new() -> Self {
        Self {
            up: Vec::new(),
            flux: Vec::new(),
            isa: Isa::detect(),
        }
    }
}

impl<V> Default for LanesWork<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Advance a bundle of [`Lanes::WIDTH`] lines (`bundle[i]` holds position
/// `i` of all of them) by a common shift `cfl`. Only the production schemes
/// are vectorised; ask for others through the scalar path. Any length works:
/// a bundle shorter than the stencil reads its own periodic images (or
/// zeros), exactly as the scalar kernel's short lines do.
///
/// # Panics
/// Panics for schemes other than [`Scheme::Sl5`] / [`Scheme::SlMpp5`].
pub fn advect_lanes<V: Lanes>(
    scheme: Scheme,
    bundle: &mut [V],
    cfl: f64,
    bc: Boundary,
    work: &mut LanesWork<V>,
) {
    let LanesWork { up, flux, isa } = work;
    advect_sampled(bundle, cfl, bc, up, |s, up, out| {
        flux_update_on(*isa, scheme, s, up, flux, out)
    });
}

/// Lane form of [`crate::line::advect_line_ext`]: advance the cells `out` of
/// a bundle whose old values, with [`GHOST`] extra elements on either side,
/// are `ext` (`|cfl| < 1`). Every `out[i]` is the same function of
/// `ext[i..=i + 2·GHOST]` as [`advect_lanes`] computes from a bundle holding
/// those values, bit for bit; a forward shift reads `ext` in place.
///
/// # Panics
/// Panics for schemes other than [`Scheme::Sl5`] / [`Scheme::SlMpp5`].
pub fn advect_lanes_ext<V: Lanes>(
    scheme: Scheme,
    ext: &[V],
    out: &mut [V],
    cfl: f64,
    work: &mut LanesWork<V>,
) {
    let m = out.len();
    assert_eq!(
        ext.len(),
        m + 2 * GHOST,
        "ext must carry GHOST cells per side"
    );
    assert!(
        cfl.abs() < 1.0,
        "extended bundles need |cfl| < 1, got {cfl}"
    );
    if cfl == 0.0 {
        out.copy_from_slice(&ext[GHOST..GHOST + m]);
    } else if cfl > 0.0 {
        flux_update_on(work.isa, scheme, cfl, ext, &mut work.flux, out);
    } else {
        // A negative shift reads `ext` back to front and mirrors `out` back.
        work.up.clear();
        work.up.extend(ext.iter().rev());
        flux_update_on(work.isa, scheme, -cfl, &work.up, &mut work.flux, out);
        out.reverse();
    }
}

/// The body at lane type `V`, entered the way `isa` says (see
/// [`crate::simd`]): same bits, one lane operation per instruction where the
/// register is as wide as `V` — `f32x8` under [`Isa::Avx2`], either width
/// under [`Isa::Avx512`].
fn flux_update_on<V: Lanes>(
    isa: Isa,
    scheme: Scheme,
    s: f64,
    up: &[V],
    flux: &mut Vec<V>,
    out: &mut [V],
) {
    assert!(
        matches!(scheme, Scheme::Sl5 | Scheme::SlMpp5),
        "the lane kernels support SL5 / SL-MPP5 only"
    );
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: called only after `is_x86_feature_detected!("avx512f")` —
        // a `LanesWork` holds `Isa::Avx512` only as `Isa::detect`'s answer.
        Isa::Avx512 => unsafe { flux_update_avx512(scheme, s, up, flux, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: called only after `is_x86_feature_detected!("avx2")` — a
        // `LanesWork` holds `Isa::Avx2` only as `Isa::detect`'s answer.
        Isa::Avx2 => unsafe { flux_update_avx2(scheme, s, up, flux, out) },
        _ => flux_update(scheme, || Weights::at(scheme, s), up, flux, out),
    }
}

/// # Safety
/// Call only after `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn flux_update_avx2<V: Lanes>(
    scheme: Scheme,
    s: f64,
    up: &[V],
    flux: &mut Vec<V>,
    out: &mut [V],
) {
    flux_update(scheme, || Weights::at(scheme, s), up, flux, out)
}

/// # Safety
/// Call only after `is_x86_feature_detected!("avx512f")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn flux_update_avx512<V: Lanes>(
    scheme: Scheme,
    s: f64,
    up: &[V],
    flux: &mut Vec<V>,
    out: &mut [V],
) {
    flux_update(scheme, || Weights::at(scheme, s), up, flux, out)
}

/// Seeded adversarial corpus: eight lines per case, several shapes — the
/// inputs of kerncheck's lanes-vs-line pass and of this file's dispatch
/// differential.
#[doc(hidden)]
pub fn adversarial_corpus(n: usize) -> Vec<(&'static str, Vec<Vec<f32>>)> {
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
    };
    let mut cases = Vec::new();

    let uniform: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..n).map(|_| next() + 0.05).collect())
        .collect();
    cases.push(("uniform", uniform));

    // Isolated spikes on a tiny floor — extrema clipping and clamp corners.
    let spikes: Vec<Vec<f32>> = (0..8)
        .map(|l| {
            let mut line = vec![1e-3f32; n];
            line[(3 + 5 * l) % n] = 10.0;
            line[(7 + 3 * l) % n] = 5.0;
            line
        })
        .collect();
    cases.push(("spikes", spikes));

    // Denormal magnitudes — underflow/flush paths.
    let denormal: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..n).map(|_| next() * 1e-40).collect())
        .collect();
    cases.push(("denormal", denormal));

    // Near-clamp plateau: constant with ±1-ULP jitter, where the positivity
    // clamp's min/max resolve ties.
    let plateau: Vec<Vec<f32>> = (0..8)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let base = 1.0f32;
                    match (next() * 3.0) as u32 {
                        0 => f32::from_bits(base.to_bits() - 1),
                        1 => f32::from_bits(base.to_bits() + 1),
                        _ => base,
                    }
                })
                .collect()
        })
        .collect();
    cases.push(("plateau", plateau));

    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flux::Value;
    use crate::line::{advect_line, LineWork};
    use crate::simd::{f32x16, f32x8, LANES};

    fn make_lines(n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
        };
        (0..8)
            .map(|_| (0..n).map(|_| next() + 0.1).collect())
            .collect()
    }

    fn pack(lines: &[Vec<f32>]) -> Vec<f32x8> {
        pack_as(lines)
    }

    /// The line lane `l` of a `V` bundle packed from eight `lines` holds:
    /// lane `l` for the first eight, rotated by one in each further eight —
    /// so both halves of an `f32x16` carry the whole set, in other lanes.
    fn line_of(l: usize) -> usize {
        (l + l / LANES) % LANES
    }

    fn pack_as<V: Lanes>(lines: &[Vec<f32>]) -> Vec<V> {
        (0..lines[0].len())
            .map(|i| {
                let mut v = V::ZERO;
                for (l, x) in v.lanes_mut().iter_mut().enumerate() {
                    *x = lines[line_of(l)][i];
                }
                v
            })
            .collect()
    }

    fn unpack<V: Lanes>(bundle: &[V]) -> Vec<Vec<f32>> {
        (0..V::WIDTH)
            .map(|l| bundle.iter().map(|v| v.lanes()[l]).collect())
            .collect()
    }

    #[test]
    fn lanes_match_scalar_kernel() {
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for &cfl in &[0.3, 0.85, -0.42, 2.7, -3.1] {
                for bc in [Boundary::Periodic, Boundary::Zero] {
                    let lines = make_lines(40, 7);
                    let mut bundle = pack(&lines);
                    let mut lwork = LanesWork::new();
                    advect_lanes(scheme, &mut bundle, cfl, bc, &mut lwork);
                    let vec_result = unpack(&bundle);

                    let mut swork = LineWork::new();
                    for (l, line) in lines.iter().enumerate() {
                        let mut scalar = line.clone();
                        advect_line(scheme, &mut scalar, cfl, bc, &mut swork);
                        for (i, (a, b)) in vec_result[l].iter().zip(&scalar).enumerate() {
                            assert!(
                                (a - b).abs() < 2e-4,
                                "{scheme:?} cfl={cfl} {bc:?} lane {l} cell {i}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_conserve_mass_per_lane() {
        let lines = make_lines(64, 3);
        let mut bundle = pack(&lines);
        let mut work = LanesWork::new();
        let m0: Vec<f64> = (0..8)
            .map(|l| bundle.iter().map(|v| v.0[l] as f64).sum())
            .collect();
        for step in 0..30 {
            advect_lanes(
                Scheme::SlMpp5,
                &mut bundle,
                0.2 + 0.02 * step as f64,
                Boundary::Periodic,
                &mut work,
            );
        }
        for l in 0..8 {
            let m1: f64 = bundle.iter().map(|v| v.0[l] as f64).sum();
            assert!(
                (m1 - m0[l]).abs() < 1e-3 * m0[l],
                "lane {l}: {} -> {m1}",
                m0[l]
            );
        }
    }

    #[test]
    fn lanes_preserve_positivity() {
        let lines = make_lines(48, 11);
        let mut bundle = pack(&lines);
        let mut work = LanesWork::new();
        for step in 0..100 {
            let cfl = 0.15 + 0.8 * ((step as f64 * 0.377) % 1.0);
            advect_lanes(
                Scheme::SlMpp5,
                &mut bundle,
                cfl,
                Boundary::Periodic,
                &mut work,
            );
            for (i, v) in bundle.iter().enumerate() {
                for (l, &x) in v.0.iter().enumerate() {
                    assert!(x >= 0.0, "step {step} cell {i} lane {l}: {x}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "SL5 / SL-MPP5")]
    fn unsupported_scheme_panics() {
        let mut bundle = vec![f32x8::ZERO; 16];
        advect_lanes(
            Scheme::Upwind1,
            &mut bundle,
            0.5,
            Boundary::Periodic,
            &mut LanesWork::new(),
        );
    }

    /// The extended entry point is the periodic lane kernel, bit for bit,
    /// when `ext` holds the periodic wrap — both schemes, both signs.
    #[test]
    fn extended_lanes_match_periodic_kernel_bitwise() {
        let mut work = LanesWork::new();
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for cfl in [0.3, -0.3, 0.97, -0.08, 0.0] {
                let mut bundle = pack(&make_lines(24, 5));
                let n = bundle.len();
                let ext: Vec<f32x8> = (0..n + 2 * GHOST)
                    .map(|j| bundle[(j + n - GHOST) % n])
                    .collect();
                let mut out = vec![f32x8::ZERO; n];
                advect_lanes_ext(scheme, &ext, &mut out, cfl, &mut work);
                advect_lanes(scheme, &mut bundle, cfl, Boundary::Periodic, &mut work);
                for (i, (a, b)) in out.iter().zip(&bundle).enumerate() {
                    assert_eq!(
                        a.0.map(f32::to_bits),
                        b.0.map(f32::to_bits),
                        "{scheme:?} cfl={cfl} cell {i}"
                    );
                }
            }
        }
    }

    /// A sub-range `out` (`ext` = the bare bundle, `out` = its interior)
    /// equals the same cells of the full-range result, down to an empty range.
    #[test]
    fn extended_lanes_subrange_matches_full_range() {
        let mut work = LanesWork::new();
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for cfl in [0.44, -0.71] {
                for n in [2 * GHOST, 2 * GHOST + 1, 16] {
                    let bundle = pack(&make_lines(n, 9));
                    let ext: Vec<f32x8> = (0..n + 2 * GHOST)
                        .map(|j| bundle[(j + n - GHOST) % n])
                        .collect();
                    let mut full = vec![f32x8::ZERO; n];
                    advect_lanes_ext(scheme, &ext, &mut full, cfl, &mut work);
                    let mut inner = vec![f32x8::ZERO; n - 2 * GHOST];
                    advect_lanes_ext(scheme, &bundle, &mut inner, cfl, &mut work);
                    for (a, b) in inner.iter().zip(&full[GHOST..n - GHOST]) {
                        assert_eq!(
                            a.0.map(f32::to_bits),
                            b.0.map(f32::to_bits),
                            "{scheme:?} cfl={cfl} n={n}"
                        );
                    }
                }
            }
        }
    }

    /// A periodic bundle shorter than the stencil is the same eight lines
    /// tiled to `≥ 2·GHOST` cells, bit for bit: `sample` wraps through as many
    /// images as the stencil spans.
    #[test]
    fn short_periodic_bundle_matches_tiled_bundle_bitwise() {
        let mut work = LanesWork::new();
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for n in 1..=5usize {
                for cfl in [0.3, 0.999, -0.42, 2.7, -3.1] {
                    let mut short = pack(&make_lines(n, 17 + n as u64));
                    let tiles = (2 * GHOST).div_ceil(n);
                    let mut tiled: Vec<f32x8> = std::iter::repeat_n(short.iter().copied(), tiles)
                        .flatten()
                        .collect();
                    advect_lanes(scheme, &mut short, cfl, Boundary::Periodic, &mut work);
                    advect_lanes(scheme, &mut tiled, cfl, Boundary::Periodic, &mut work);
                    assert_eq!(
                        bits(&short),
                        bits(&tiled[..n]),
                        "{scheme:?} n={n} cfl={cfl}"
                    );
                }
            }
        }
    }

    /// A short `Zero` bundle is the window of the same data embedded in a long
    /// zero-padded bundle, bit for bit.
    #[test]
    fn short_zero_bundle_matches_embedded_window_bitwise() {
        let mut work = LanesWork::new();
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for n in 1..=5usize {
                for cfl in [0.3, 0.999, -0.42, 2.7, -3.1] {
                    let mut short = pack(&make_lines(n, 29 + n as u64));
                    let mut long = vec![f32x8::ZERO; 24];
                    long[10..10 + n].copy_from_slice(&short);
                    advect_lanes(scheme, &mut short, cfl, Boundary::Zero, &mut work);
                    advect_lanes(scheme, &mut long, cfl, Boundary::Zero, &mut work);
                    assert_eq!(
                        bits(&short),
                        bits(&long[10..10 + n]),
                        "{scheme:?} n={n} cfl={cfl}"
                    );
                }
            }
        }
    }

    /// A NaN is visible, not clamped away: after one update a NaN planted in
    /// any cell occupies exactly the cells whose stencils held it (two
    /// upwind, three downwind of its own, wrapping) in its own lane, and no
    /// other, at both widths. Every flux whose stencil holds the NaN is NaN
    /// through its linear part `Σ w_k f_k`, whatever the limiter does with
    /// it (`Value::minmod`'s compare-select form can drop a NaN argument),
    /// and `min`/`max` propagate a NaN in `self` through the clip and clamp.
    #[test]
    fn planted_nan_reaches_its_whole_stencil_and_no_further() {
        planted_nan_reach::<f32x8>();
        planted_nan_reach::<f32x16>();
    }

    fn planted_nan_reach<V: Lanes>() {
        let mut work = LanesWork::<V>::new();
        let n = 40;
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            // How many cells below and above the planted one (mod n) it reaches.
            for (cfl, below, above) in [(0.37, 2, 3), (-0.37, 3, 2)] {
                for k in 0..n {
                    let lane = (3 * k) % V::WIDTH;
                    let mut bundle = pack_as::<V>(&make_lines(n, 13));
                    bundle[k].lanes_mut()[lane] = f32::NAN;
                    advect_lanes(scheme, &mut bundle, cfl, Boundary::Periodic, &mut work);
                    for (i, v) in bundle.iter().enumerate() {
                        let d = (i + n - k) % n;
                        let reached = d <= above || d >= n - below;
                        for (l, x) in v.lanes().iter().enumerate() {
                            assert_eq!(
                                x.is_nan(),
                                l == lane && reached,
                                "x{} {scheme:?} cfl={cfl} NaN at {k}: cell {i} lane {l}",
                                V::WIDTH
                            );
                        }
                    }
                }
            }
        }
    }

    fn bits<V: Lanes>(bundle: &[V]) -> Vec<Vec<u32>> {
        let lane_bits = |v: &V| v.lanes().iter().map(|x| x.to_bits()).collect();
        bundle.iter().map(lane_bits).collect()
    }

    /// The entry [`Isa::detect`] selects and the baseline entry are the same
    /// function of their input, bit for bit, at both widths: both kernels,
    /// both boundaries, fractional / negative / integer / multi-cell shifts,
    /// over the corpus (denormals, limiter corners, clamp ties).
    #[test]
    fn dispatched_flux_matches_baseline_bitwise() {
        use std::io::Write;
        // Raw stderr: the harness captures `println!`, and a run on a host
        // without AVX2 (baseline against itself) must show as one.
        let isa = Isa::detect().name();
        let _ = writeln!(
            std::io::stderr(),
            "lanes::flux_update: {isa} entry vs baseline entry, f32x8 and f32x16"
        );
        dispatched_matches_baseline::<f32x8>();
        dispatched_matches_baseline::<f32x16>();
    }

    fn dispatched_matches_baseline<V: Lanes>() {
        let mut fast = LanesWork::<V>::new();
        let mut base = LanesWork {
            isa: Isa::Baseline,
            ..LanesWork::new()
        };
        let (n, width) = (40, V::WIDTH);
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for (shape, lines) in adversarial_corpus(n) {
                let bundle = pack_as::<V>(&lines);
                for cfl in [0.3, 0.999, 1e-13, -0.42, 2.0, -1.0, 2.7, -3.1] {
                    for bc in [Boundary::Periodic, Boundary::Zero] {
                        let (mut a, mut b) = (bundle.clone(), bundle.clone());
                        advect_lanes(scheme, &mut a, cfl, bc, &mut fast);
                        advect_lanes(scheme, &mut b, cfl, bc, &mut base);
                        let what = format!("x{width} {scheme:?} {shape} cfl={cfl} {bc:?}");
                        assert_eq!(bits(&a), bits(&b), "{what}");
                    }
                }
                // The caller-extended entry: the bundle is its own `ext`.
                for cfl in [0.3, 0.999, -0.42, -0.08] {
                    let mut a = vec![V::ZERO; n - 2 * GHOST];
                    let mut b = a.clone();
                    advect_lanes_ext(scheme, &bundle, &mut a, cfl, &mut fast);
                    advect_lanes_ext(scheme, &bundle, &mut b, cfl, &mut base);
                    let what = format!("ext x{width} {scheme:?} {shape} cfl={cfl}");
                    assert_eq!(bits(&a), bits(&b), "{what}");
                }
            }
        }
    }

    /// `f32` with `f32x8`'s lane semantics: compare-select `min`/`max` in
    /// `minps` operand order, and the sign-product `minmod`, whose bits the
    /// lanes' compare-select `minmod` and `minmod4` return on finite inputs
    /// (kerncheck's `limiter.*` properties).
    impl Value for f32 {
        type Out = f32;
        fn c(x: f64) -> f32 {
            x as f32
        }
        fn add(&self, o: &f32) -> f32 {
            self + o
        }
        fn sub(&self, o: &f32) -> f32 {
            self - o
        }
        fn mul(&self, o: &f32) -> f32 {
            self * o
        }
        fn min(&self, o: &f32) -> f32 {
            if *o < *self {
                *o
            } else {
                *self
            }
        }
        fn max(&self, o: &f32) -> f32 {
            if *o > *self {
                *o
            } else {
                *self
            }
        }
        fn minmod(&self, o: &f32) -> f32 {
            let sign = |v: f32| {
                if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            };
            (sign(*self) + sign(*o)) * 0.5 * Value::min(&self.abs(), &o.abs())
        }
        fn narrow(self) -> f32 {
            self
        }
    }

    /// Lanes are independent lines, bit for bit: every lane of
    /// `advect_lanes`, at `f32x8` and at `f32x16`, is the one body run on
    /// that line alone at `f32` — both lane schemes, the corpus (denormals,
    /// limiter corners, clamp ties), fractional / integer-threshold /
    /// negative / multi-cell shifts, both boundaries, on whichever entry
    /// `Isa::detect` picks.
    #[test]
    fn each_lane_is_the_body_on_its_own_line_at_f32_bitwise() {
        each_lane_is_the_body::<f32x8>();
        each_lane_is_the_body::<f32x16>();
    }

    fn each_lane_is_the_body<V: Lanes>() {
        let mut work = LanesWork::<V>::new();
        let (mut up, mut flux) = (Vec::<f32>::new(), Vec::<f32>::new());
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for (shape, lines) in adversarial_corpus(40) {
                for cfl in [0.3, 0.999, 1e-13, -0.42, 2.7, -3.1] {
                    for bc in [Boundary::Periodic, Boundary::Zero] {
                        let mut bundle = pack_as::<V>(&lines);
                        advect_lanes(scheme, &mut bundle, cfl, bc, &mut work);
                        for (l, line) in unpack(&bundle).iter().enumerate() {
                            let mut want = lines[line_of(l)].clone();
                            advect_sampled(&mut want, cfl, bc, &mut up, |s, up, out| {
                                flux_update(scheme, || Weights::at(scheme, s), up, &mut flux, out)
                            });
                            assert_eq!(
                                line.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                "x{} {scheme:?} {shape} cfl={cfl} {bc:?} lane {l}",
                                V::WIDTH
                            );
                        }
                    }
                }
            }
        }
    }
}
