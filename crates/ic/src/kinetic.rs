//! Non-cosmological kinetic initial conditions: multi-Maxwellian plasma
//! loads and the lowered-isothermal (King) sphere.
//!
//! Everything is written against *global* grid coordinates, so the same
//! loader fills a serial `PhaseSpace` and any block decomposition of it
//! with bitwise-identical values — the property the distributed
//! differential tests lean on.
//!
//! As with the neutrino loader, velocity-space integrals are normalised on
//! the *discrete* grid (`Σ f Δu³`), not analytically: the truncated
//! Gaussian tail would otherwise bias the Poisson source.

use vlasov6d_phase_space::{PhaseSpace, VelocityGrid};

/// One drifting Maxwellian beam of a plasma initial condition.
#[derive(Debug, Clone, Copy)]
pub struct PlasmaBeam {
    /// Share of the (unit) mean density carried by this beam.
    pub density: f64,
    /// Bulk drift velocity.
    pub drift: [f64; 3],
    /// Isotropic thermal spread (1-D standard deviation).
    pub sigma: f64,
}

/// Fill `ps` with `Σ_beams n_b M_b(u) · (1 + δ cos(2π m x_axis))`.
///
/// Each beam is normalised on the discrete velocity grid so the unperturbed
/// mean density is exactly `Σ_b density_b`; the cosine perturbation
/// modulates all beams together (the eigenmode of the electrostatic
/// two-stream/Landau problems to linear order in δ).
pub fn load_plasma_beams(
    ps: &mut PhaseSpace,
    beams: &[PlasmaBeam],
    perturb_axis: usize,
    perturb_mode: usize,
    perturb_amp: f64,
) {
    assert!(perturb_axis < 3);
    assert!(!beams.is_empty());
    let vg = ps.vgrid;
    // Per-beam discrete normalisation: amp_b · Σ_u M(u − drift) Δu³ = n_b.
    let amps: Vec<f64> = beams
        .iter()
        .map(|b| {
            let norm = discrete_gaussian_norm(&vg, b.drift, b.sigma);
            assert!(norm > 0.0, "beam entirely outside the velocity grid");
            b.density / norm
        })
        .collect();
    let n_axis = ps.sglobal[perturb_axis] as f64;
    let two_pi = 2.0 * std::f64::consts::PI;
    ps.fill_with(|cell, u| {
        let x = (cell[perturb_axis] as f64 + 0.5) / n_axis;
        let envelope = 1.0 + perturb_amp * (two_pi * perturb_mode as f64 * x).cos();
        let mut f = 0.0;
        for (b, amp) in beams.iter().zip(&amps) {
            let e = ((u[0] - b.drift[0]).powi(2)
                + (u[1] - b.drift[1]).powi(2)
                + (u[2] - b.drift[2]).powi(2))
                / (2.0 * b.sigma * b.sigma);
            f += amp * (-e).exp();
        }
        envelope * f
    });
}

fn discrete_gaussian_norm(vg: &VelocityGrid, drift: [f64; 3], sigma: f64) -> f64 {
    let mut norm = 0.0;
    for iux in 0..vg.n[0] {
        for iuy in 0..vg.n[1] {
            for iuz in 0..vg.n[2] {
                let e = ((vg.center(0, iux) - drift[0]).powi(2)
                    + (vg.center(1, iuy) - drift[1]).powi(2)
                    + (vg.center(2, iuz) - drift[2]).powi(2))
                    / (2.0 * sigma * sigma);
                norm += (-e).exp();
            }
        }
    }
    norm * vg.cell_volume()
}

/// A solved King (lowered isothermal) model: the self-consistent
/// `Ψ(r)`/`ρ(r)` pair of the distribution function
///
/// ```text
/// f(E) = A (e^{E/σ²} − 1),   E = Ψ(r) − v²/2 > 0,
/// ```
///
/// truncated at the tidal radius `Ψ(r_t) = 0`. Velocity support is compact
/// (escape speed `√(2Ψ) ≤ √(2W₀)·σ`), which is what makes the sphere's
/// mass *exactly* representable on a finite velocity grid.
#[derive(Debug, Clone)]
pub struct KingModel {
    /// Dimensionless central potential `W₀ = Ψ(0)/σ²`.
    pub w0: f64,
    /// Velocity scale σ.
    pub sigma: f64,
    /// Central mass density.
    pub rho0: f64,
    /// Poisson coupling `C` in `∇²φ = C ρ`.
    pub coupling: f64,
    /// Phase-space normalisation `A` fixed by `ρ(Ψ₀) = rho0`.
    pub amplitude: f64,
    /// Tidal (truncation) radius.
    pub r_tidal: f64,
    /// Radial table of `Ψ(r)` (uniform spacing `dr`).
    psi: Vec<f64>,
    dr: f64,
}

impl KingModel {
    /// Integrate the King ODE `(r²Ψ')' = −C ρ(Ψ) r²` outward from
    /// `Ψ(0) = W₀σ²` until `Ψ` crosses zero (RK4, fixed step).
    pub fn solve(w0: f64, sigma: f64, rho0: f64, coupling: f64) -> Self {
        assert!(w0 > 0.0 && sigma > 0.0 && rho0 > 0.0 && coupling > 0.0);
        let psi0 = w0 * sigma * sigma;
        let amplitude = rho0 / rho_shape(psi0, sigma);
        // Step well below the core radius r_c = √(9σ²/(C ρ0)).
        let r_core = (9.0 * sigma * sigma / (coupling * rho0)).sqrt();
        let dr = r_core / 200.0;

        // State y = (Ψ, dΨ/dr); at r = 0 the 2Ψ'/r term needs the limit
        // Ψ'' = −CρΨ/3 (Ψ' → 0 like r).
        let rho_of = |psi: f64| -> f64 {
            if psi <= 0.0 {
                0.0
            } else {
                amplitude * rho_shape(psi, sigma)
            }
        };
        let deriv = |r: f64, y: [f64; 2]| -> [f64; 2] {
            let acc = -coupling * rho_of(y[0]);
            if r < 1e-12 {
                [y[1], acc / 3.0]
            } else {
                [y[1], acc - 2.0 * y[1] / r]
            }
        };
        let mut psi = vec![psi0];
        let mut y = [psi0, 0.0];
        let mut r = 0.0;
        let r_tidal = loop {
            // RK4 step.
            let k1 = deriv(r, y);
            let k2 = deriv(r + 0.5 * dr, step(y, k1, 0.5 * dr));
            let k3 = deriv(r + 0.5 * dr, step(y, k2, 0.5 * dr));
            let k4 = deriv(r + dr, step(y, k3, dr));
            let y_next = [
                y[0] + dr / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
                y[1] + dr / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
            ];
            if y_next[0] <= 0.0 {
                // Linear interpolation to the Ψ = 0 crossing.
                let frac = y[0] / (y[0] - y_next[0]);
                psi.push(0.0);
                break r + frac * dr;
            }
            y = y_next;
            r += dr;
            psi.push(y[0]);
            assert!(
                psi.len() < 2_000_000,
                "King ODE failed to reach the tidal radius"
            );
        };
        Self {
            w0,
            sigma,
            rho0,
            coupling,
            amplitude,
            r_tidal,
            psi,
            dr,
        }
    }

    /// `Ψ(r)` by linear interpolation of the solved table (0 beyond r_t).
    pub(crate) fn psi_at(&self, r: f64) -> f64 {
        if r >= self.r_tidal {
            return 0.0;
        }
        let x = r / self.dr;
        let i = (x as usize).min(self.psi.len() - 2);
        let frac = x - i as f64;
        (self.psi[i] * (1.0 - frac) + self.psi[i + 1] * frac).max(0.0)
    }

    /// The distribution function at relative energy `E = Ψ − v²/2`.
    pub(crate) fn f_of_energy(&self, e: f64) -> f64 {
        if e <= 0.0 {
            0.0
        } else {
            self.amplitude * ((e / (self.sigma * self.sigma)).exp() - 1.0)
        }
    }

    /// Escape speed at the centre — the velocity grid must cover it (plus
    /// any bulk drift) for the compact-support mass argument to hold.
    pub fn v_escape(&self) -> f64 {
        (2.0 * self.w0).sqrt() * self.sigma
    }

    /// Half-mass dynamical time scale `1/√(C ρ₀)`.
    pub fn t_dyn(&self) -> f64 {
        1.0 / (self.coupling * self.rho0).sqrt()
    }
}

fn step(y: [f64; 2], k: [f64; 2], h: f64) -> [f64; 2] {
    [y[0] + h * k[0], y[1] + h * k[1]]
}

/// `ρ(Ψ)/A = 4π ∫₀^{√(2Ψ)} (e^{(Ψ−v²/2)/σ²} − 1) v² dv` by Simpson
/// quadrature (128 panels — smooth integrand, ample for f64 table building).
fn rho_shape(psi: f64, sigma: f64) -> f64 {
    if psi <= 0.0 {
        return 0.0;
    }
    let v_max = (2.0 * psi).sqrt();
    let n = 128usize;
    let h = v_max / n as f64;
    let s2 = sigma * sigma;
    let integrand = |v: f64| -> f64 {
        let e = psi - 0.5 * v * v;
        (((e / s2).exp()) - 1.0).max(0.0) * v * v
    };
    let mut acc = integrand(0.0) + integrand(v_max);
    for i in 1..n {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * integrand(i as f64 * h);
    }
    4.0 * std::f64::consts::PI * acc * h / 3.0
}

/// One King sphere placed in the unit box.
#[derive(Debug, Clone)]
pub struct KingSpherePlacement {
    pub center: [f64; 3],
    pub bulk_velocity: [f64; 3],
}

/// Fill `ps` with one or more King spheres (global coordinates; spheres
/// must not overlap for the load to remain a solution of each model).
pub fn load_king_spheres(ps: &mut PhaseSpace, model: &KingModel, spheres: &[KingSpherePlacement]) {
    assert!(!spheres.is_empty());
    let sg = ps.sglobal;
    let spheres = spheres.to_vec();
    let model = model.clone();
    ps.fill_with(move |cell, u| {
        let x = [
            (cell[0] as f64 + 0.5) / sg[0] as f64,
            (cell[1] as f64 + 0.5) / sg[1] as f64,
            (cell[2] as f64 + 0.5) / sg[2] as f64,
        ];
        let mut f = 0.0;
        for s in &spheres {
            let r = ((x[0] - s.center[0]).powi(2)
                + (x[1] - s.center[1]).powi(2)
                + (x[2] - s.center[2]).powi(2))
            .sqrt();
            if r >= model.r_tidal {
                continue;
            }
            let v2 = (u[0] - s.bulk_velocity[0]).powi(2)
                + (u[1] - s.bulk_velocity[1]).powi(2)
                + (u[2] - s.bulk_velocity[2]).powi(2);
            f += model.f_of_energy(model.psi_at(r) - 0.5 * v2);
        }
        f
    });
}

#[cfg(test)]
impl KingModel {
    /// Mass density at radius `r` (velocity integral of `f`).
    pub(crate) fn density_at(&self, r: f64) -> f64 {
        let psi = self.psi_at(r);
        if psi <= 0.0 {
            0.0
        } else {
            self.amplitude * rho_shape(psi, self.sigma)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_phase_space::moments;

    #[test]
    fn plasma_load_hits_unit_mean_density() {
        let vg = VelocityGrid::new([32, 4, 4], 1.2);
        let mut ps = PhaseSpace::zeros([8, 4, 4], vg);
        load_plasma_beams(
            &mut ps,
            &[PlasmaBeam {
                density: 1.0,
                drift: [0.0; 3],
                sigma: 0.25,
            }],
            0,
            1,
            0.02,
        );
        let rho = moments::density(&ps);
        assert!((rho.mean() - 1.0).abs() < 1e-6, "mean ρ = {}", rho.mean());
        // The perturbation shows up at the declared amplitude.
        let (min, max) = rho
            .as_slice()
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!((max - min) > 0.03, "perturbation lost: {min}..{max}");
    }

    #[test]
    fn two_beam_load_carries_zero_net_momentum() {
        let vg = VelocityGrid::new([48, 4, 4], 0.4);
        let mut ps = PhaseSpace::zeros([8, 2, 2], vg);
        let beams = [
            PlasmaBeam {
                density: 0.5,
                drift: [0.2, 0.0, 0.0],
                sigma: 0.03,
            },
            PlasmaBeam {
                density: 0.5,
                drift: [-0.2, 0.0, 0.0],
                sigma: 0.03,
            },
        ];
        load_plasma_beams(&mut ps, &beams, 0, 1, 1e-3);
        let p: f64 = moments::momentum(&ps, 0).sum();
        assert!(p.abs() < 1e-9, "net momentum {p}");
    }

    #[test]
    fn king_model_profile_is_monotonic_and_truncated() {
        let m = KingModel::solve(3.0, 0.08, 16.0, 1.0);
        assert!(m.r_tidal > 0.0 && m.r_tidal < 0.5, "r_t = {}", m.r_tidal);
        assert!((m.density_at(0.0) / m.rho0 - 1.0).abs() < 1e-10);
        let mut last = f64::MAX;
        for i in 0..20 {
            let r = m.r_tidal * i as f64 / 20.0;
            let rho = m.density_at(r);
            assert!(rho <= last + 1e-12, "ρ not monotone at r = {r}");
            last = rho;
        }
        assert_eq!(m.density_at(m.r_tidal * 1.01), 0.0);
        // W0 = 3 concentration: r_t/r_c ≈ 4.7 (King 1966).
        let r_core = (9.0 * m.sigma * m.sigma / (m.coupling * m.rho0)).sqrt();
        let c = m.r_tidal / r_core;
        assert!((3.0..7.0).contains(&c), "concentration {c}");
    }

    #[test]
    fn king_sphere_mass_matches_model_integral() {
        // Σ f Δu³ ΔV over the grid vs the model's own 4π∫ρr²dr.
        let m = KingModel::solve(3.0, 0.08, 16.0, 1.0);
        let vg = VelocityGrid::cubic(16, 1.1 * m.v_escape());
        let mut ps = PhaseSpace::zeros([16, 16, 16], vg);
        load_king_spheres(
            &mut ps,
            &m,
            &[KingSpherePlacement {
                center: [0.5; 3],
                bulk_velocity: [0.0; 3],
            }],
        );
        let grid_mass = ps.total_mass();
        let n = 400;
        let mut model_mass = 0.0;
        for i in 0..n {
            let r = m.r_tidal * (i as f64 + 0.5) / n as f64;
            model_mass += m.density_at(r) * r * r;
        }
        model_mass *= 4.0 * std::f64::consts::PI * m.r_tidal / n as f64;
        assert!(
            (grid_mass / model_mass - 1.0).abs() < 0.1,
            "grid {grid_mass} vs model {model_mass}"
        );
    }
}
