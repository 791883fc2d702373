//! Kinetic dispersion relations for the electrostatic plasma scenarios and
//! the self-gravitating (Jeans) ones.
//!
//! The linear theory of a multi-Maxwellian electrostatic plasma reduces to
//! the dielectric function
//!
//! ```text
//! ε(k, ω) = 1 + Σ_s  ω_ps² / (k σ_s)² · (1 + ζ_s Z(ζ_s)),
//! ζ_s = (ω/k − v_s) / (√2 σ_s),   ω_ps² = C n_s
//! ```
//!
//! where `C` is the Poisson coupling (`∇²φ = −C δρ`, so `C = ω_p²` for unit
//! mean density), `v_s`/`σ_s` are each Maxwellian's drift and thermal
//! spread, and `Z` is the plasma dispersion function (Fried & Conte). The
//! roots `ε(k, ω) = 0` in complex ω are the analytic damping/growth rates
//! the scenario oracles check the measured field evolution against: Landau
//! damping (`Im ω < 0`), two-stream and bump-on-tail instabilities
//! (`Im ω > 0`). Self-gravity is the same relation with the coupling's
//! sign flipped (`∇²φ = +C δρ`): the kinetic Jeans problem, growing below
//! `k_J = ω_J/σ` and Landau-damped above it ([`jeans_root`]).
//!
//! Everything here is from scratch on `vlasov6d_fft::Complex64`: `Z` by
//! Simpson quadrature of the Hilbert-transform integral along a depressed
//! Landau contour (below the pole, so the same formula is the analytic
//! continuation on both sides of the real axis), the large-`|ζ|` tail by
//! the standard asymptotic series, and the root by a Newton iteration
//! using the exact identity `Z′(ζ) = −2 (1 + ζ Z(ζ))`.

use vlasov6d_fft::Complex64;

/// One drifting Maxwellian component of the unperturbed distribution.
///
/// `density` is the component's share of the (unit) mean density; the
/// registered plasma scenarios keep `Σ_s density_s = 1`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MaxwellianComponent {
    pub density: f64,
    /// Bulk drift along the perturbed axis.
    pub drift: f64,
    /// Thermal spread (1-D standard deviation).
    pub sigma: f64,
}

/// Complex division (the fft complex type only divides by reals).
fn cdiv(a: Complex64, b: Complex64) -> Complex64 {
    let d = b.norm_sqr();
    Complex64::new(
        (a.re * b.re + a.im * b.im) / d,
        (a.im * b.re - a.re * b.im) / d,
    )
}

/// Complex exponential `e^z`.
fn cexp(z: Complex64) -> Complex64 {
    Complex64::cis(z.im).scale(z.re.exp())
}

/// The plasma dispersion function `Z(ζ) = π^{−1/2} ∫ e^{−t²}/(t−ζ) dt`.
///
/// The real-axis integral defines `Z` for `Im ζ > 0`; the continuation to
/// the whole plane is the same integral along a *depressed* Landau contour
/// `Im t = −c` chosen below the pole (deforming the contour never crosses
/// it, so the value is automatically the analytic continuation — no
/// separate residue bookkeeping). Quadrature: composite Simpson, with the
/// window wide enough that `e^{−t²}` on the contour is below f64
/// resolution. Far from the origin (`|ζ| > 20`) the pole no longer matters
/// and the standard asymptotic series is both faster and more accurate.
pub(crate) fn plasma_z(zeta: Complex64) -> Complex64 {
    let sqrt_pi = std::f64::consts::PI.sqrt();
    if zeta.norm_sqr() > 400.0 {
        // Z(ζ) ≈ −ζ^{−1}(1 + 1/(2ζ²) + 3/(4ζ⁴) + 15/(8ζ⁶)) [+ 2i√π e^{−ζ²}
        // below the real axis, kept only where it does not overflow].
        let inv2 = cdiv(Complex64::real(1.0), zeta * zeta);
        let series = Complex64::real(1.0)
            + inv2.scale(0.5)
            + (inv2 * inv2).scale(0.75)
            + (inv2 * inv2 * inv2).scale(15.0 / 8.0);
        let mut z = -cdiv(series, zeta);
        let mz2 = -(zeta * zeta);
        if zeta.im < 0.0 && mz2.re < 50.0 {
            let res = cexp(mz2).scale(2.0 * sqrt_pi);
            z += Complex64::new(-res.im, res.re);
        }
        return z;
    }
    // Depress the contour far enough that the pole stays ≥ 1 away from it.
    let c = 1.0 + 1.5 * (-zeta.im).max(0.0);
    let t_max = (c * c + 40.0).sqrt() + zeta.re.abs();
    let n = 16_000usize; // even
    let h = 2.0 * t_max / n as f64;
    let mut acc = Complex64::ZERO;
    for i in 0..=n {
        let w = if i == 0 || i == n {
            1.0
        } else if i % 2 == 1 {
            4.0
        } else {
            2.0
        };
        let t = Complex64::new(-t_max + i as f64 * h, -c);
        let g = cdiv(cexp(-(t * t)), t - zeta);
        acc += g.scale(w);
    }
    acc.scale(h / 3.0 / sqrt_pi)
}

/// `ε(k, ω)` and its exact ω-derivative for the Newton iteration.
fn dielectric(
    k: f64,
    coupling: f64,
    comps: &[MaxwellianComponent],
    omega: Complex64,
) -> (Complex64, Complex64) {
    let mut eps = Complex64::real(1.0);
    let mut deps = Complex64::ZERO;
    for c in comps {
        let wp2 = coupling * c.density;
        let pref = wp2 / (k * c.sigma).powi(2);
        let sqrt2_sigma = std::f64::consts::SQRT_2 * c.sigma;
        // ζ = (ω/k − v) / (√2 σ);  dζ/dω = 1/(√2 k σ).
        let zeta = Complex64::new(omega.re / k - c.drift, omega.im / k).scale(1.0 / sqrt2_sigma);
        let z = plasma_z(zeta);
        let zp = (Complex64::real(1.0) + zeta * z).scale(-2.0);
        eps += (Complex64::real(1.0) + zeta * z).scale(pref);
        deps += (z + zeta * zp).scale(pref / (sqrt2_sigma * k));
    }
    (eps, deps)
}

/// Solve `ε(k, ω) = 0` by Newton iteration from `guess`.
///
/// Returns the complex root (`Re ω` = oscillation frequency, `Im ω` =
/// growth rate, negative for damping) or `None` if the iteration fails to
/// converge — the scenario constructors treat that as a configuration bug.
pub(crate) fn solve_dispersion(
    k: f64,
    coupling: f64,
    comps: &[MaxwellianComponent],
    guess: Complex64,
) -> Option<Complex64> {
    let mut omega = guess;
    for _ in 0..200 {
        let (eps, deps) = dielectric(k, coupling, comps, omega);
        if deps.abs() < 1e-300 {
            return None;
        }
        let step = cdiv(eps, deps);
        omega -= step;
        if step.abs() < 1e-11 * (1.0 + omega.abs()) {
            return Some(omega);
        }
    }
    None
}

/// Least-damped Langmuir root for a single Maxwellian at rest: the Landau
/// damping rate. `k` in box units (`2π m`), `coupling = ω_p²`, `sigma` the
/// thermal spread; starts from the Bohm–Gross frequency.
pub(crate) fn landau_root(k: f64, coupling: f64, sigma: f64) -> Option<Complex64> {
    let wp = coupling.sqrt();
    let klam = k * sigma / wp;
    let guess = Complex64::new(wp * (1.0 + 3.0 * klam * klam).sqrt(), -0.01 * wp);
    solve_dispersion(
        k,
        coupling,
        &[MaxwellianComponent {
            density: 1.0,
            drift: 0.0,
            sigma,
        }],
        guess,
    )
}

/// Root of a self-gravitating Maxwellian at rest on the periodic box: the
/// kinetic Jeans problem of [`crate::ForceLaw::Gravity`] with
/// `∇²φ = coupling · (ρ − ρ̄)`, unit mean density, so `ω_J² = coupling` and
/// `k_J = ω_J/σ`. Below `k_J` the root is purely growing (`Re ω = 0`), above
/// it purely damped.
///
/// The dielectric's coupling for gravity is read off the marginal point, not
/// set by hand: at `ω = 0` (`ζ = 0`) `ε = 1 + c/(kσ)²`, and of `c = ±coupling`
/// only the sign that makes `k = k_J` neutral is the law's. The Newton guess
/// is the cold-fluid rate `√(ω_J² − k²σ²)` below `k_J`, and a damping of the
/// same form above it.
pub(crate) fn jeans_root(k: f64, coupling: f64, sigma: f64) -> Option<Complex64> {
    let comps = [MaxwellianComponent {
        density: 1.0,
        drift: 0.0,
        sigma,
    }];
    let omega_j = coupling.sqrt();
    let k_j = omega_j / sigma;
    let neutral = |c: f64| dielectric(k_j, c, &comps, Complex64::ZERO).0.abs() < 1e-9;
    let signed = [coupling, -coupling].into_iter().find(|&c| neutral(c))?;
    let fluid = (omega_j * omega_j - (k * sigma).powi(2)).abs().sqrt();
    let guess = if k < k_j { fluid } else { -fluid };
    solve_dispersion(k, signed, &comps, Complex64::new(0.0, guess))
}

/// Unstable root of two symmetric counter-streaming Maxwellians (drift
/// ±`v0`, spread `sigma` each, half the density each). By symmetry the
/// unstable root is purely imaginary; the guess starts on the cold-beam
/// growth rate.
pub(crate) fn two_stream_root(k: f64, coupling: f64, v0: f64, sigma: f64) -> Option<Complex64> {
    let gamma_cold = cold_two_stream_gamma(k, coupling, v0).unwrap_or(0.25 * coupling.sqrt());
    let comps = [
        MaxwellianComponent {
            density: 0.5,
            drift: v0,
            sigma,
        },
        MaxwellianComponent {
            density: 0.5,
            drift: -v0,
            sigma,
        },
    ];
    solve_dispersion(k, coupling, &comps, Complex64::new(0.0, gamma_cold))
}

/// Unstable root of a core + drifting-beam pair (bump-on-tail). The guess
/// sits near the plasma frequency with a small positive growth rate.
pub(crate) fn bump_on_tail_root(
    k: f64,
    coupling: f64,
    core: MaxwellianComponent,
    beam: MaxwellianComponent,
) -> Option<Complex64> {
    let wp = (coupling * core.density).sqrt();
    solve_dispersion(k, coupling, &[core, beam], Complex64::new(wp, 0.05 * wp))
}

/// Exact growth rate of the *cold* symmetric two-stream mode — the
/// fluid-limit cross-check for [`two_stream_root`]. For beams ±v0:
/// `1 = (ω_p²/2) [ (ω−kv0)^{−2} + (ω+kv0)^{−2} ]` with `ω = iγ` gives a
/// quadratic in `γ²`; returns `None` where the mode is stable.
pub(crate) fn cold_two_stream_gamma(k: f64, coupling: f64, v0: f64) -> Option<f64> {
    let wp2 = coupling;
    let x2 = (k * v0).powi(2);
    // (γ² + x²)² = ω_p² (x² − γ²)  ⇒  γ⁴ + (2x² + ω_p²)γ² + x⁴ − ω_p²x² = 0.
    let b = 2.0 * x2 + wp2;
    let c = x2 * x2 - wp2 * x2;
    let disc = b * b - 4.0 * c;
    if disc < 0.0 {
        return None;
    }
    let g2 = (-b + disc.sqrt()) / 2.0;
    (g2 > 0.0).then(|| g2.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_function_known_value_at_origin() {
        // Z(0) = i√π exactly — and the Landau contour must deliver it *on*
        // the real axis, where the naive real-axis quadrature blows up.
        let z = plasma_z(Complex64::ZERO);
        assert!(z.re.abs() < 1e-9, "Re Z(0) = {}", z.re);
        assert!(
            (z.im - std::f64::consts::PI.sqrt()).abs() < 1e-9,
            "Im Z(0) = {}",
            z.im
        );
    }

    #[test]
    fn z_satisfies_differential_identity() {
        // Z'(ζ) = −2(1 + ζZ), checked against a finite difference, on both
        // sides of the real axis (the continuation must stay analytic).
        for zeta in [Complex64::new(0.7, 0.4), Complex64::new(1.2, -0.3)] {
            let h = 1e-5;
            let num = (plasma_z(zeta + Complex64::real(h)) - plasma_z(zeta - Complex64::real(h)))
                .scale(0.5 / h);
            let exact = (Complex64::real(1.0) + zeta * plasma_z(zeta)).scale(-2.0);
            assert!(
                (num - exact).abs() < 1e-4,
                "ζ = {zeta:?}: {num:?} vs {exact:?}"
            );
        }
    }

    #[test]
    fn landau_benchmark_k_half() {
        // The standard textbook benchmark: kλ_D = 0.5 (σ = ω_p = 1, k = 0.5)
        // has ω/ω_p = 1.41566, γ/ω_p = −0.15336 (e.g. McKinstrie et al. 1999).
        let root = landau_root(0.5, 1.0, 1.0).expect("root");
        assert!((root.re - 1.41566).abs() < 2e-3, "Re ω = {}", root.re);
        assert!((root.im + 0.15336).abs() < 2e-3, "Im ω = {}", root.im);
    }

    #[test]
    fn landau_scales_with_plasma_frequency() {
        // The same kλ_D in different units must give the same ω/ω_p.
        let a = landau_root(0.5, 1.0, 1.0).unwrap();
        let b = landau_root(
            2.0 * std::f64::consts::PI,
            (std::f64::consts::PI).powi(2),
            0.25,
        )
        .map(|r| r / (std::f64::consts::PI))
        .unwrap();
        // kλ_D differs between the two; just check both are damped Langmuir
        // roots with ω near the Bohm–Gross branch.
        assert!(a.im < 0.0 && b.im < 0.0);
        assert!(b.re > 1.0, "ω/ω_p = {}", b.re);
    }

    #[test]
    fn warm_two_stream_approaches_cold_limit() {
        // σ → 0 must recover the cold two-beam fluid rate.
        let (k, wp2, v0) = (2.0 * std::f64::consts::PI, 1.0, 0.1);
        let cold = cold_two_stream_gamma(k, wp2, v0).expect("unstable");
        let warm = two_stream_root(k, wp2, v0, 1e-3 * v0).expect("root");
        assert!(
            warm.re.abs() < 1e-6 * cold,
            "symmetric root must be purely imaginary"
        );
        assert!(
            (warm.im / cold - 1.0).abs() < 0.02,
            "γ_warm = {} vs γ_cold = {cold}",
            warm.im
        );
    }

    /// The Jeans root's three regimes at `ω_J = 1` (`σ = 0.1`, `k_J = 10`):
    /// `k_J` is the neutral point, the root is purely growing below it and
    /// purely damped above, and at small `kσ` the growth approaches the
    /// cold-fluid rate `√(ω_J² − k²σ²)`.
    #[test]
    fn jeans_root_is_neutral_at_k_j_and_grows_below_it() {
        let (coupling, sigma, k_j) = (1.0, 0.1, 10.0);
        let root = |x: f64| jeans_root(x * k_j, coupling, sigma).expect("root");
        for x in [0.999, 1.001] {
            assert!(root(x).abs() < 2e-2, "k/k_J = {x}: {:?}", root(x));
        }
        for (x, gamma) in [(0.25, 0.912), (0.5, 0.687), (0.8, 0.304), (1.2, -0.333)] {
            let w = root(x);
            assert!(w.re.abs() < 1e-9, "k/k_J = {x}: Re ω = {}", w.re);
            assert!((w.im - gamma).abs() < 2e-3, "k/k_J = {x}: γ = {}", w.im);
        }
        let fluid = (1.0f64 - 0.05f64.powi(2)).sqrt();
        assert!(
            (root(0.05).im / fluid - 1.0).abs() < 0.01,
            "{:?}",
            root(0.05)
        );
        // Flipping the sign by hand is the Langmuir problem: an oscillating,
        // damped root, nothing like the Jeans one.
        let langmuir = landau_root(0.5 * k_j, coupling, sigma).expect("root");
        assert!(langmuir.re > 0.5 && langmuir.im < 0.0, "{langmuir:?}");
    }

    #[test]
    fn cold_two_stream_maximum_rate() {
        // γ_max = ω_p/√8 at (kv0)² = (3/8)ω_p².
        let wp2 = 1.0;
        let kv0 = (3.0f64 / 8.0).sqrt();
        let g = cold_two_stream_gamma(kv0, wp2, 1.0).expect("unstable");
        assert!((g - 1.0 / 8.0f64.sqrt()).abs() < 1e-12, "γ = {g}");
    }
}
