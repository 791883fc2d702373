//! Zel'dovich (first-order Lagrangian) initial conditions.
//!
//! Given the linear density contrast `δ(x)` scaled to the starting epoch,
//! the displacement field solves `∇·ψ = -δ`, i.e. in k-space
//! `ψ(k) = i k δ_k / k²`. Particles start on a lattice `q` and move to
//! `x = q + ψ(q)`; their canonical velocities are
//!
//! ```text
//! u = a² dx/dt = a² (dD/dt)/D ψ = a² H(a) f(a) ψ      (code units)
//! ```
//!
//! with `f = dlnD/dlna` the growth rate — the standard Zel'dovich kick.

use rayon::prelude::*;
use vlasov6d_cosmology::{Background, Growth};
use vlasov6d_fft::{freq, Complex64, Fft3};
use vlasov6d_mesh::assign::{interpolate, Scheme};
use vlasov6d_mesh::Field3;
use vlasov6d_nbody::ParticleSet;

/// Zel'dovich IC machinery for one density field.
#[derive(Debug, Clone)]
pub struct ZeldovichIc {
    /// Linear density contrast at the starting epoch, on the IC grid.
    pub delta: Field3,
    /// Displacement field components on the IC grid.
    pub psi: [Field3; 3],
}

impl ZeldovichIc {
    /// Build displacement fields from a density contrast already scaled to
    /// the starting epoch.
    pub fn new(delta: Field3) -> Self {
        let psi = displacement_from_delta(&delta);
        Self { delta, psi }
    }

    /// Displace an `n³` lattice of CDM particles and assign Zel'dovich
    /// velocities at scale factor `a` for the given background.
    ///
    /// `total_mass` is the CDM mass in the box (`Ω_cb` in code units).
    pub fn load_particles(
        &self,
        n_per_dim: usize,
        total_mass: f64,
        bg: &Background,
        a: f64,
    ) -> ParticleSet {
        let mut particles = ParticleSet::lattice(n_per_dim, total_mass);
        let growth = Growth::new(bg);
        // u = a² H(a) f(a) ψ.
        let vel_factor = a * a * bg.hubble(a) * growth.growth_rate(a);
        let psi = &self.psi;
        particles
            .pos
            .par_iter_mut()
            .zip(particles.vel.par_iter_mut())
            .for_each(|(p, v)| {
                let q = *p;
                for d in 0..3 {
                    let disp = interpolate(&psi[d], Scheme::Cic, q);
                    p[d] = (q[d] + disp).rem_euclid(1.0);
                    if p[d] >= 1.0 {
                        p[d] = 0.0;
                    }
                    v[d] = vel_factor * disp;
                }
            });
        particles
    }

    /// RMS displacement in box units — a sanity diagnostic (should be well
    /// below the inter-particle spacing at sane starting redshifts).
    pub fn rms_displacement(&self) -> f64 {
        let n = self.psi[0].len() as f64;
        let s: f64 = (0..3)
            .map(|d| self.psi[d].as_slice().iter().map(|v| v * v).sum::<f64>())
            .sum();
        (s / n).sqrt()
    }
}

/// Solve `ψ(k) = i k δ_k / k²` (zero DC mode).
fn displacement_from_delta(delta: &Field3) -> [Field3; 3] {
    let [n, n1, n2] = delta.dims();
    assert!(n == n1 && n == n2, "IC grid must be cubic");
    let ntot = n * n * n;
    let plan = Fft3::new([n, n, n]);
    let mut dk: Vec<Complex64> = delta
        .as_slice()
        .iter()
        .map(|&v| Complex64::real(v))
        .collect();
    plan.forward(&mut dk);

    let two_pi = 2.0 * std::f64::consts::PI;
    let mut out = [
        Field3::zeros([n, n, n]),
        Field3::zeros([n, n, n]),
        Field3::zeros([n, n, n]),
    ];
    for d in 0..3 {
        let mut comp = vec![Complex64::ZERO; ntot];
        for i0 in 0..n {
            let m0 = freq(i0, n);
            for i1 in 0..n {
                let m1 = freq(i1, n);
                for i2 in 0..n {
                    let m2 = freq(i2, n);
                    let idx = (i0 * n + i1) * n + i2;
                    let k = [two_pi * m0, two_pi * m1, two_pi * m2];
                    let k2 = k[0] * k[0] + k[1] * k[1] + k[2] * k[2];
                    if k2 == 0.0 {
                        continue;
                    }
                    // ψ_d(k) = i k_d δ_k / k².
                    let z = dk[idx];
                    comp[idx] = Complex64::new(-z.im, z.re).scale(k[d] / k2);
                }
            }
        }
        plan.inverse(&mut comp);
        out[d] = Field3::from_vec([n, n, n], comp.into_iter().map(|z| z.re).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_cosmology::CosmologyParams;
    use vlasov6d_mesh::stencil::{gradient_axis, GradientOrder};

    fn sine_delta(n: usize, m: usize, amp: f64) -> Field3 {
        let mut f = Field3::zeros_cubic(n);
        for i0 in 0..n {
            let x = (i0 as f64 + 0.5) / n as f64;
            let v = amp * (2.0 * std::f64::consts::PI * m as f64 * x).cos();
            for i1 in 0..n {
                for i2 in 0..n {
                    *f.at_mut(i0, i1, i2) = v;
                }
            }
        }
        f
    }

    #[test]
    fn divergence_of_displacement_is_minus_delta() {
        let n = 32;
        let delta = sine_delta(n, 2, 0.05);
        let ic = ZeldovichIc::new(delta.clone());
        let mut div = gradient_axis(&ic.psi[0], 0, GradientOrder::Four);
        div.axpy(1.0, &gradient_axis(&ic.psi[1], 1, GradientOrder::Four));
        div.axpy(1.0, &gradient_axis(&ic.psi[2], 2, GradientOrder::Four));
        for (a, b) in div.as_slice().iter().zip(delta.as_slice()) {
            assert!((a + b).abs() < 2e-3 * 0.05, "∇·ψ = {a}, δ = {b}");
        }
    }

    #[test]
    fn plane_wave_displacement_is_analytic() {
        // δ = A cos(kx) ⇒ ψ_x = -(A/k) sin(kx).
        let n = 32;
        let m = 1;
        let amp = 0.02;
        let ic = ZeldovichIc::new(sine_delta(n, m, amp));
        let k = 2.0 * std::f64::consts::PI * m as f64;
        for i0 in 0..n {
            let x = (i0 as f64 + 0.5) / n as f64;
            let expect = -(amp / k) * (k * x).sin();
            let got = ic.psi[0].at(i0, 3, 5);
            assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
            assert!(ic.psi[1].at(i0, 3, 5).abs() < 1e-12);
        }
    }

    #[test]
    fn particles_move_toward_overdensities() {
        // δ peaks at x=0 (cos): particles left of the peak move right.
        let n = 16;
        let ic = ZeldovichIc::new(sine_delta(n, 1, 0.1));
        let bg = Background::new(CosmologyParams::eds());
        let p = ic.load_particles(16, 1.0, &bg, 0.1);
        // Particle near x = 0.75 (underdense trough at 0.5; peak at 0/1):
        // ψ_x = -(A/k)sin(kx) at x=0.75 → +A/k > 0 → moves right.
        let idx = (12 * 16 + 8) * 16 + 8; // lattice site x≈0.78
        assert!(p.vel[idx][0] > 0.0);
        let lattice_x = (12.0 + 0.5) / 16.0;
        assert!(p.pos[idx][0] > lattice_x);
    }

    #[test]
    fn velocities_scale_with_growth_rate() {
        let n = 16;
        let ic = ZeldovichIc::new(sine_delta(n, 1, 0.05));
        let bg = Background::new(CosmologyParams::eds());
        // EdS: u = a² H f ψ with H = a^{-3/2}, f = 1 → u ∝ √a · ψ.
        let p1 = ic.load_particles(8, 1.0, &bg, 0.25);
        let p2 = ic.load_particles(8, 1.0, &bg, 1.0);
        let r = p2.vel[10][0] / p1.vel[10][0];
        assert!((r - 2.0).abs() < 1e-6, "u(a=1)/u(a=0.25) = {r}, want 2");
    }

    #[test]
    fn rms_displacement_is_small_for_small_delta() {
        let ic = ZeldovichIc::new(sine_delta(16, 1, 0.01));
        assert!(ic.rms_displacement() < 0.01);
    }
}
