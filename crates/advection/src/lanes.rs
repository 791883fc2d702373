//! Eight-lines-at-once SIMD kernels.
//!
//! This is the paper's Fig. 1 code shape: eight *adjacent* grid lines (which
//! are contiguous in memory along the innermost axis) ride in the eight lanes
//! of an [`f32x8`] and advance together — same shift, same boundary, one
//! vertical SIMD op per scalar op of the line kernel. All arithmetic is f32,
//! matching the paper's single-precision Vlasov storage.
//!
//! The sweep driver in `vlasov6d-phase-space` feeds this kernel either
//! directly (axes where lanes are contiguous in memory) or through the
//! [`crate::simd::transpose8x8`] LAT staging (the innermost `u_z` axis, where
//! lanes would otherwise be strided loads — paper Fig. 2/3).

use crate::flux::{sl5_weights, Boundary};
use crate::line::{Scheme, GHOST};
use crate::simd::{f32x8, Isa};

/// Reusable scratch for bundle updates.
#[derive(Debug, Clone)]
pub struct LanesWork {
    /// The ghost-extended bundle in upwind order (unused when the caller's
    /// `ext` already is).
    up: Vec<f32x8>,
    flux: Vec<f32x8>,
    /// The entry of the flux body this scratch's updates take: always
    /// [`Isa::detect`]'s answer, which is what makes the AVX2 entry sound.
    isa: Isa,
}

impl LanesWork {
    pub fn new() -> Self {
        Self {
            up: Vec::new(),
            flux: Vec::new(),
            isa: Isa::detect(),
        }
    }
}

impl Default for LanesWork {
    fn default() -> Self {
        Self::new()
    }
}

#[inline(always)]
fn vminmod(a: f32x8, b: f32x8) -> f32x8 {
    let half = f32x8::splat(0.5);
    (a.signum_or_zero() + b.signum_or_zero()) * half * a.abs().min(b.abs())
}

#[inline(always)]
fn vminmod4(a: f32x8, b: f32x8, c: f32x8, d: f32x8) -> f32x8 {
    vminmod(vminmod(a, b), vminmod(c, d))
}

#[inline(always)]
fn vmedian_clip(v: f32x8, lo: f32x8, hi: f32x8) -> f32x8 {
    v + vminmod(lo - v, hi - v)
}

/// Curvature `c − 2b + a` at the middle of three neighbouring cells.
#[inline(always)]
fn vcurv(a: f32x8, b: f32x8, c: f32x8) -> f32x8 {
    c - f32x8::splat(2.0) * b + a
}

/// The `minmod4` stack of `flux::mp5_bracket` between neighbouring curvatures.
#[inline(always)]
fn vdm4(d_l: f32x8, d_r: f32x8) -> f32x8 {
    let four = f32x8::splat(4.0);
    vminmod4(four * d_l - d_r, four * d_r - d_l, d_l, d_r)
}

/// The five cells behind interface `j`, at an index opaque to LLVM — which
/// otherwise re-vectorises the lane arithmetic across positions, shuffles and
/// spills instead of one instruction per operation (see [`crate::simd`]).
#[inline(always)]
fn stencil(up: &[f32x8], j: usize) -> [f32x8; 5] {
    let g = &up[std::hint::black_box(j)..][..5];
    [g[0], g[1], g[2], g[3], g[4]]
}

#[inline(always)]
fn vhigh(g: &[f32x8; 5], w: &[f32x8; 5]) -> f32x8 {
    (((g[0] * w[0] + g[1] * w[1]) + g[2] * w[2]) + g[3] * w[3]) + g[4] * w[4]
}

/// Advance a bundle of eight lines (`bundle[i]` holds position `i` of all
/// eight lines) by a common shift `cfl`. Only the production schemes are
/// vectorised; ask for others through the scalar path. Any length works: a
/// bundle shorter than the stencil reads its own periodic images (or zeros),
/// exactly as the scalar kernel's short lines do.
///
/// # Panics
/// Panics for schemes other than [`Scheme::Sl5`] / [`Scheme::SlMpp5`].
pub fn advect_lanes(
    scheme: Scheme,
    bundle: &mut [f32x8],
    cfl: f64,
    bc: Boundary,
    work: &mut LanesWork,
) {
    let n = bundle.len();
    if n == 0 || cfl == 0.0 {
        return;
    }
    // Mirror trick, as in the scalar kernel.
    let mirrored = cfl < 0.0;
    if mirrored {
        bundle.reverse();
    }
    let n_int = cfl.abs().floor() as i64;
    let s = cfl.abs() - n_int as f64;
    work.up.clear();
    work.up
        .extend((0..n + 2 * GHOST).map(|j| sample(bundle, j as i64 - GHOST as i64 - n_int, bc)));
    flux_update_on(work.isa, scheme, s, &work.up, &mut work.flux, bundle);
    if mirrored {
        bundle.reverse();
    }
}

/// Lane form of [`crate::line::advect_line_ext`]: advance the cells `out` of
/// a bundle whose old values, with [`GHOST`] extra elements on either side,
/// are `ext` (`|cfl| < 1`). Every `out[i]` is the same function of
/// `ext[i..=i + 2·GHOST]` as [`advect_lanes`] computes from a bundle holding
/// those values, bit for bit; a forward shift reads `ext` in place.
///
/// # Panics
/// Panics for schemes other than [`Scheme::Sl5`] / [`Scheme::SlMpp5`].
pub fn advect_lanes_ext(
    scheme: Scheme,
    ext: &[f32x8],
    out: &mut [f32x8],
    cfl: f64,
    work: &mut LanesWork,
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

/// [`flux_update`], entered the way `isa` says (see [`crate::simd`]): same
/// body, same bits, one `f32x8` operation per 256-bit instruction under
/// [`Isa::Avx2`].
fn flux_update_on(
    isa: Isa,
    scheme: Scheme,
    s: f64,
    up: &[f32x8],
    flux: &mut Vec<f32x8>,
    out: &mut [f32x8],
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: called only after `is_x86_feature_detected!("avx2")` — a
        // `LanesWork` holds `Isa::Avx2` only as `Isa::detect`'s answer.
        Isa::Avx2 => unsafe { flux_update_avx2(scheme, s, up, flux, out) },
        _ => flux_update(scheme, s, up, flux, out),
    }
}

/// # Safety
/// Call only after `is_x86_feature_detected!("avx2")`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn flux_update_avx2(
    scheme: Scheme,
    s: f64,
    up: &[f32x8],
    flux: &mut Vec<f32x8>,
    out: &mut [f32x8],
) {
    flux_update(scheme, s, up, flux, out)
}

/// The one `f32x8` flux/update body — see the scalar `flux_update` in
/// [`crate::line`] for the conventions (`up` upwind-ordered and
/// ghost-extended, `s ∈ [0, 1)`, `out` receives the new cells in upwind order).
#[inline(always)]
fn flux_update(scheme: Scheme, s: f64, up: &[f32x8], flux: &mut Vec<f32x8>, out: &mut [f32x8]) {
    assert!(
        matches!(scheme, Scheme::Sl5 | Scheme::SlMpp5),
        "the lane kernels support SL5 / SL-MPP5 only"
    );
    let m = out.len();
    debug_assert_eq!(up.len(), m + 2 * GHOST);
    flux.clear();
    flux.resize(m + 1, f32x8::ZERO);

    // A pure integer shift (s ≈ 0) has no fractional flux: zeros stay.
    if s >= 1e-12 {
        let w64 = sl5_weights(s);
        let w: [f32x8; 5] = core::array::from_fn(|i| f32x8::splat(w64[i] as f32));
        let s_v = f32x8::splat(s as f32);
        let inv_s = f32x8::splat((1.0 / s) as f32);
        let alpha = f32x8::splat(crate::flux::mp_alpha(s) as f32);
        let half = f32x8::splat(0.5);
        let four_thirds = f32x8::splat(4.0 / 3.0);
        let zero = f32x8::ZERO;
        if scheme == Scheme::Sl5 {
            for (j, fl) in flux.iter_mut().enumerate() {
                *fl = vhigh(&stencil(up, j), &w);
            }
        } else {
            // Curvatures and `minmod4` stacks evaluated once and carried, as
            // in `line::flux_update`.
            let mut d_0 = vcurv(up[1], up[2], up[3]);
            let mut dm4_mh = vdm4(vcurv(up[0], up[1], up[2]), d_0);
            for (j, fl) in flux.iter_mut().enumerate() {
                let g = stencil(up, j);
                let (g1, g2, g3) = (g[1], g[2], g[3]);
                let f_sl = vhigh(&g, &w) * inv_s;
                let d_p1 = vcurv(g2, g3, g[4]);
                let dm4_ph = vdm4(d_0, d_p1);
                let f_ul = g2 + alpha * (g2 - g1);
                let f_md = half * (g2 + g3) - half * dm4_ph;
                let f_lc = g2 + half * (g2 - g1) + four_thirds * dm4_mh;
                let f_min = g2.min(g3).min(f_md).max(g2.min(f_ul).min(f_lc));
                let f_max = g2.max(g3).max(f_md).min(g2.max(f_ul).max(f_lc));
                let f_lim = vmedian_clip(f_sl, f_min, f_max);
                *fl = (s_v * f_lim).clamp(zero, g2.max(zero));
                (d_0, dm4_mh) = (d_p1, dm4_ph);
            }
        }
    }

    for (i, v) in out.iter_mut().enumerate() {
        *v = up[i + GHOST] - flux[i + 1] + flux[i];
    }
}

#[inline]
fn sample(bundle: &[f32x8], idx: i64, bc: Boundary) -> f32x8 {
    let n = bundle.len() as i64;
    match bc {
        Boundary::Periodic => bundle[idx.rem_euclid(n) as usize],
        Boundary::Zero => {
            if idx < 0 || idx >= n {
                f32x8::ZERO
            } else {
                bundle[idx as usize]
            }
        }
    }
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
    use crate::line::{advect_line, LineWork};

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
        let n = lines[0].len();
        (0..n)
            .map(|i| f32x8(core::array::from_fn(|l| lines[l][i])))
            .collect()
    }

    fn unpack(bundle: &[f32x8]) -> Vec<Vec<f32>> {
        (0..8)
            .map(|l| bundle.iter().map(|v| v.0[l]).collect())
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

    /// A NaN is visible, not clamped away: after one update it occupies
    /// exactly the cells whose stencils held it (two upwind, three downwind
    /// of its own) in its own lane, and no other — `min`/`max` propagate a NaN
    /// in `self`, and every `vminmod` / clamp on the way to a flux has the
    /// stencil's data there.
    #[test]
    fn planted_nan_reaches_its_whole_stencil_and_no_further() {
        let mut work = LanesWork::new();
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for (cfl, reach) in [(0.37, 18..=23), (-0.37, 17..=22)] {
                let mut bundle = pack(&make_lines(40, 13));
                bundle[20].0[5] = f32::NAN;
                advect_lanes(scheme, &mut bundle, cfl, Boundary::Periodic, &mut work);
                for (i, v) in bundle.iter().enumerate() {
                    for (l, x) in v.0.iter().enumerate() {
                        let expect = l == 5 && reach.contains(&i);
                        assert_eq!(x.is_nan(), expect, "{scheme:?} cfl={cfl} cell {i} lane {l}");
                    }
                }
            }
        }
    }

    fn bits(bundle: &[f32x8]) -> Vec<[u32; 8]> {
        bundle.iter().map(|v| v.0.map(f32::to_bits)).collect()
    }

    /// The entry [`Isa::detect`] selects and the baseline entry are the same
    /// function of their input, bit for bit: both kernels, both boundaries,
    /// fractional / negative / integer / multi-cell shifts, over the corpus
    /// (denormals, limiter corners, clamp ties).
    #[test]
    fn dispatched_flux_matches_baseline_bitwise() {
        use std::io::Write;
        // Raw stderr: the harness captures `println!`, and a run on a host
        // without AVX2 (baseline against itself) must show as one.
        let isa = Isa::detect().name();
        let _ = writeln!(
            std::io::stderr(),
            "lanes::flux_update: {isa} entry vs baseline entry"
        );

        let mut fast = LanesWork::new();
        let mut base = LanesWork {
            isa: Isa::Baseline,
            ..LanesWork::new()
        };
        let n = 40;
        for scheme in [Scheme::Sl5, Scheme::SlMpp5] {
            for (shape, lines) in adversarial_corpus(n) {
                let bundle = pack(&lines);
                for cfl in [0.3, 0.999, 1e-13, -0.42, 2.0, -1.0, 2.7, -3.1] {
                    for bc in [Boundary::Periodic, Boundary::Zero] {
                        let (mut a, mut b) = (bundle.clone(), bundle.clone());
                        advect_lanes(scheme, &mut a, cfl, bc, &mut fast);
                        advect_lanes(scheme, &mut b, cfl, bc, &mut base);
                        assert_eq!(bits(&a), bits(&b), "{scheme:?} {shape} cfl={cfl} {bc:?}");
                    }
                }
                // The caller-extended entry: the bundle is its own `ext`.
                for cfl in [0.3, 0.999, -0.42, -0.08] {
                    let mut a = vec![f32x8::ZERO; n - 2 * GHOST];
                    let mut b = a.clone();
                    advect_lanes_ext(scheme, &bundle, &mut a, cfl, &mut fast);
                    advect_lanes_ext(scheme, &bundle, &mut b, cfl, &mut base);
                    assert_eq!(bits(&a), bits(&b), "ext {scheme:?} {shape} cfl={cfl}");
                }
            }
        }
    }
}
