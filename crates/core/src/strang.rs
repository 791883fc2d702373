//! The one Strang-split step behind every driver (paper Eq. 5), with each
//! step's trailing half kick carried into the next step's leading one:
//!
//! ```text
//! K(pending + k₁) (force cached at t₁) · D (x, y, z sweeps) · solve at t₂ · pending = k₂
//! ```
//!
//! Step n's `K(k₂)` and step n+1's `K(k₁′)` multiply the same cached force,
//! and nothing reads `f` between them, so they run as one kick of
//! `k₂ + k₁′`: three velocity sweeps per step instead of six, 6 SL-MPP5
//! sweeps per step in place of 9. The factor still owed stays *pending*
//! beside the force it multiplies (the hybrid's CDM kick too). Each driver's
//! `synchronize()` applies it ([`synchronize`]); nothing else does — not a
//! step, a run to an end time or a checkpoint — so a run's bits never
//! depend on who observed it. A synchronized driver (pending `0`) steps
//! exactly the unmerged `K₁ · D · solve · K₂` sequence, since
//! `0 + k₁ == k₁`. Between steps `f` is the state *before* `K₂`: densities
//! are the synchronized ones (a kick moves no mass between spatial cells),
//! velocity moments are not.
//!
//! **One** field solve per step: the force computed at `t₂` stays cached
//! across the step boundary and drives the next step's Δt control and its
//! merged kick. A driver that arrives without one (a fresh
//! [`crate::DistributedVlasov`], a checkpoint without force meshes) pays one
//! extra solve in its first step.
//!
//! This module owns the step *policy* — Δt controller, kick and drift loops,
//! their sequencing, the checkpoint records. The drivers are façades that
//! contribute through [`Driver`] only what really differs: the field solve,
//! the sweep along the decomposed axis, the cross-rank maximum, and the
//! companion species riding along (the hybrid's CDM particles); and through
//! [`Kicks`] what a kick touches.

use crate::scenario::dynamics::TimeAxis;
use vlasov6d_advection::line::Scheme;
use vlasov6d_ckpt::{CkptError, LoadedCheckpoint, Record, RecordRef, SimState};
use vlasov6d_cosmology::Background;
use vlasov6d_mesh::Field3;
use vlasov6d_nbody::ParticleSet;
use vlasov6d_obs::{span, Bucket};
use vlasov6d_phase_space::{sweep, Exec, PhaseSpace};

/// The knobs of one step, gathered by each façade from its configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    pub time: TimeAxis,
    pub scheme: Scheme,
    pub exec: Exec,
    /// Spatial CFL cap (must stay below 1 for the ghost width).
    pub cfl_spatial: f64,
    /// Velocity CFL cap of one half kick, `fmax · k₁ / du_min`. The merged
    /// kick `pending + k₁` that runs shifts about twice as far (`k₂ ≈ k₁′`),
    /// up to twice the cap. That is safe: a velocity sweep takes any shift
    /// (the integer part is an index shift, only the fraction is
    /// interpolated), and one interpolation over the merged shift errs no
    /// more than two over its halves.
    pub cfl_velocity: f64,
    /// Per-step ceiling: `Δln a` on an expanding axis, `Δt` on a static one.
    pub max_step: f64,
}

/// The interval one step covers and its operator-split factors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Interval {
    /// Step endpoint (scale factor or time).
    pub t2: f64,
    /// Kick integrals of the two halves, split at the axis' midpoint.
    pub k1: f64,
    pub k2: f64,
    pub drift: f64,
    /// Kick integral of the whole step — the `Δt` the drivers report.
    pub dt: f64,
    /// Which bound set the step (`dt.limiter` in the step records).
    pub limiter: Limiter,
    /// How many times the controller halved the proposal (`dt.halvings`).
    pub halvings: u64,
}

/// The bound of [`choose_interval`] that set a step's length: the policy's
/// ceiling when no halving was needed, else the CFL limit that rejected the
/// last longer proposal (the spatial one when both did).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Limiter {
    MaxStep,
    Spatial,
    Velocity,
}

impl Limiter {
    /// The `dt.limiter` value.
    pub fn name(self) -> &'static str {
        match self {
            Limiter::MaxStep => "max_step",
            Limiter::Spatial => "spatial",
            Limiter::Velocity => "velocity",
        }
    }
}

/// What a kick touches: the Vlasov component with its cached force, the
/// companion species, and the kick factor still owed to both.
pub(crate) trait Kicks {
    /// The Vlasov component, if the run carries one, with the force cached by
    /// the last [`Driver::solve`] (`None` before the first).
    fn vlasov(&mut self) -> Option<(&mut PhaseSpace, Option<&[Field3; 3]>)>;

    /// The trailing half kick of the last step, not yet applied (`0` when
    /// synchronized).
    fn pending_kick(&mut self) -> &mut f64;

    /// Kick the companion species in lockstep with the velocity sweeps.
    fn kick_companion(&mut self, _kick: f64) {}
}

/// What a driver contributes to the shared step.
pub(crate) trait Driver: Kicks {
    fn background(&self) -> &Background;

    /// Move the clock to `t` and solve the field there: refresh the cached
    /// `−∇φ` on the (local) spatial grid and the companion's accelerations.
    fn solve(&mut self, t: f64);

    /// Sweep spatial axis 0 — the one a slab decomposition cuts — through the
    /// driver's ghost exchange. `false` (the default): the axis is not
    /// decomposed and the rank-local sweep applies.
    fn sweep_axis0(&mut self, _cfl: &[f64], _p: &Policy) -> bool {
        false
    }

    /// Maximum of `x` over every rank of the run.
    fn reduce_max(&self, x: f64) -> f64 {
        x
    }

    /// Drift the companion species in lockstep with the spatial sweeps.
    fn drift_companion(&mut self, _drift: f64) {}
}

/// Advance `d` one Strang step from `t1`; its clock ends at the returned `t2`
/// with the step's trailing half kick pending.
pub(crate) fn step<D: Driver>(d: &mut D, p: &Policy, t1: f64) -> Interval {
    if matches!(d.vlasov(), Some((_, None))) {
        d.solve(t1);
    }
    let interval = {
        let _s = span!("dt_control", Bucket::Other);
        // A run without a Vlasov component satisfies both limits at once.
        let (vmax, n_max, fmax, du_min) = d.vlasov().map_or((0.0, 0.0, 0.0, 1.0), |(ps, f)| {
            (
                ps.vgrid.vmax,
                ps.sglobal.iter().copied().max().unwrap() as f64,
                f.map_or(0.0, |f| f.iter().map(Field3::max_abs).fold(0.0, f64::max)),
                (0..3).map(|a| ps.vgrid.du(a)).fold(f64::MAX, f64::min),
            )
        });
        let fmax = d.reduce_max(fmax);
        choose_interval(p, d.background(), t1, vmax, n_max, fmax, du_min)
    };
    let leading = *d.pending_kick() + interval.k1;
    kick(d, p, leading);
    drift(d, p, interval.drift);
    d.solve(interval.t2);
    *d.pending_kick() = interval.k2;
    interval
}

/// Apply the pending half kick with the cached force, leaving nothing
/// pending; a synchronized driver is left untouched.
pub(crate) fn synchronize<K: Kicks>(d: &mut K, p: &Policy) {
    let pending = std::mem::take(d.pending_kick());
    if pending != 0.0 {
        kick(d, p, pending);
    }
}

/// The Δt controller: propose the policy's ceiling (an expanding axis never
/// steps past `a = 1`), then halve until the spatial limit
/// `vmax · D · n_max ≤ cfl_spatial` and the half-kick velocity limit
/// `fmax · K½ / du_min ≤ cfl_velocity` both hold, and say which bound set
/// the length ([`Limiter`]). `K½` is one half kick; the merged kick that
/// runs may shift about twice as far ([`Policy::cfl_velocity`] says why that
/// is safe). After 60 halvings the interval has underflowed and the sweeps'
/// own CFL checks report why.
pub(crate) fn choose_interval(
    p: &Policy,
    bg: &Background,
    t1: f64,
    vmax: f64,
    n_max: f64,
    fmax: f64,
    du_min: f64,
) -> Interval {
    let mut t2 = p.time.propose(bg, t1, p.max_step);
    if p.time == TimeAxis::Expanding {
        t2 = t2.min(1.0 + 1e-12);
    }
    let (mut limiter, mut halvings) = (Limiter::MaxStep, 0);
    for _ in 0..60 {
        let drift = p.time.drift_factor(bg, t1, t2);
        let ok_spatial = vmax * drift * n_max <= p.cfl_spatial;
        let tm = p.time.midpoint(bg, t1, t2);
        let kick_half = p.time.kick_factor(bg, t1, tm);
        let ok_velocity = fmax * kick_half / du_min <= p.cfl_velocity;
        if ok_spatial && ok_velocity {
            break;
        }
        limiter = if ok_spatial {
            Limiter::Velocity
        } else {
            Limiter::Spatial
        };
        halvings += 1;
        t2 = t1 + 0.5 * (t2 - t1);
    }
    let tm = p.time.midpoint(bg, t1, t2);
    Interval {
        t2,
        k1: p.time.kick_factor(bg, t1, tm),
        k2: p.time.kick_factor(bg, tm, t2),
        drift: p.time.drift_factor(bg, t1, t2),
        dt: p.time.kick_factor(bg, t1, t2),
        limiter,
        halvings,
    }
}

/// Velocity sweeps with `cfl = −∂φ/∂x_d · K / Δu_d` from the cached force,
/// then the companion's kick.
fn kick<K: Kicks>(d: &mut K, p: &Policy, kick: f64) {
    if let Some((ps, Some(force))) = d.vlasov() {
        let _s = span!("kick", Bucket::Vlasov);
        for axis in 0..3 {
            let mut cfl = force[axis].clone();
            cfl.scale(kick / ps.vgrid.du(axis));
            sweep::sweep_velocity(ps, axis, &cfl, p.scheme, p.exec);
        }
    }
    d.kick_companion(kick);
}

/// Spatial sweeps with `cfl = u · D · n_d` per velocity cell (axis 0 through
/// the driver's hook first), then the companion's drift.
fn drift<D: Driver>(d: &mut D, p: &Policy, drift: f64) {
    if let Some((vgrid, sglobal)) = d.vlasov().map(|(ps, _)| (ps.vgrid, ps.sglobal)) {
        let _s = span!("drift", Bucket::Vlasov);
        for axis in 0..3 {
            let n = sglobal[axis] as f64;
            let cfl: Vec<f64> = (0..vgrid.n[axis])
                .map(|k| vgrid.center(axis, k) * drift * n)
                .collect();
            if axis == 0 && d.sweep_axis0(&cfl, p) {
                continue;
            }
            if let Some((ps, _)) = d.vlasov() {
                sweep::sweep_spatial(ps, axis, &cfl, p.scheme, p.exec);
            }
        }
    }
    d.drift_companion(drift);
}

/// The evolving state one rank's checkpoint holds, as decoded by [`restore`].
pub(crate) struct Saved {
    pub ps: Option<PhaseSpace>,
    pub particles: Option<ParticleSet>,
    pub state: SimState,
    pub scheme: Scheme,
    /// The cached force, when all three meshes were saved.
    pub force: Option<[Field3; 3]>,
    /// A hybrid run's cached CDM accelerations, when saved.
    pub cdm_accel: Option<Vec<[f64; 3]>>,
    /// The kick factor the saved `f` (and particles) still owe; `0` for a
    /// generation that holds none — it was written synchronized.
    pub pending_kick: f64,
}

/// Names of the cached-force meshes, by axis.
const FORCE_NAMES: [&str; 3] = ["force0", "force1", "force2"];
/// Name of the mesh (dims `[n, 3, 1]`) holding a hybrid run's cached CDM
/// accelerations.
const CDM_ACCEL_NAME: &str = "cdm_accel";
/// Name of the mesh (dims `[1, 1, 1]`) holding the pending kick factor.
const PENDING_KICK_NAME: &str = "pending_kick";

/// Wire value of an advection scheme inside [`SimState`] records.
fn scheme_to_u8(s: Scheme) -> u8 {
    match s {
        Scheme::Upwind1 => 0,
        Scheme::Sl3 => 1,
        Scheme::Sl5 => 2,
        Scheme::SlMpp5 => 3,
    }
}

/// Inverse of [`scheme_to_u8`].
fn scheme_from_u8(v: u8) -> Result<Scheme, String> {
    match v {
        0 => Ok(Scheme::Upwind1),
        1 => Ok(Scheme::Sl3),
        2 => Ok(Scheme::Sl5),
        3 => Ok(Scheme::SlMpp5),
        other => Err(format!("unknown advection scheme code {other}")),
    }
}

/// The [`SimState`] of a stepper checkpoint. `slot` fills
/// `SimState::omega_component`, which each driver uses for its own scalar.
pub(crate) fn sim_state(p: &Policy, step: u64, tag_counter: u64, t: f64, slot: f64) -> SimState {
    SimState {
        step,
        tag_counter,
        a: t,
        omega_component: slot,
        cfl_spatial: p.cfl_spatial,
        max_dln_a: p.max_step,
        scheme: scheme_to_u8(p.scheme),
        rng: Vec::new(),
    }
}

/// The records of a stepper checkpoint, borrowed from the driver's own
/// storage: the distribution function as it stands (before the pending
/// kick), the [`SimState`], the pending kick factor as a one-cell mesh and
/// — when `force` is given — the cached force as three named meshes. The
/// solve runs *before* the trailing kick, whose velocity-boundary outflow
/// perturbs the density in its last ulps, so a force recomputed from the
/// saved distribution is right to rounding but bitwise wrong; with the
/// meshes a resumed run continues bit for bit. A hybrid run adds its
/// particles and the CDM accelerations of the same solve.
pub(crate) fn records<'a>(
    ps: Option<&'a PhaseSpace>,
    force: Option<&'a [Field3; 3]>,
    pending_kick: &'a f64,
    state: &'a SimState,
    cdm: Option<(&'a ParticleSet, &'a [[f64; 3]])>,
) -> Vec<RecordRef<'a>> {
    let mut records: Vec<RecordRef<'a>> = ps.map(RecordRef::PhaseSpace).into_iter().collect();
    records.push(RecordRef::SimState(state));
    records.push(RecordRef::FieldMesh {
        name: PENDING_KICK_NAME,
        dims: [1, 1, 1],
        data: std::slice::from_ref(pending_kick),
    });
    for (name, f) in FORCE_NAMES.into_iter().zip(force.into_iter().flatten()) {
        records.push(RecordRef::FieldMesh {
            name,
            dims: f.dims(),
            data: f.as_slice(),
        });
    }
    if let Some((particles, accel)) = cdm {
        records.push(RecordRef::Particles(particles));
        if !accel.is_empty() {
            records.push(RecordRef::FieldMesh {
                name: CDM_ACCEL_NAME,
                dims: [accel.len(), 3, 1],
                data: accel.as_flattened(),
            });
        }
    }
    records
}

/// Decode what [`records`] wrote. Fails when the generation holds no
/// [`SimState`], names an unknown scheme, or lacks the distribution function
/// while `need_ps` asks for it.
pub(crate) fn restore(loaded: LoadedCheckpoint, need_ps: bool) -> Result<Saved, CkptError> {
    let generation = loaded.generation;
    let missing = |what: &str| CkptError::Mismatch {
        detail: format!("generation {generation} holds no {what} record"),
    };
    let (mut ps, mut particles, mut state, mut cdm_accel) = (None, None, None, None);
    let mut pending_kick = 0.0;
    let mut force: [Option<Field3>; 3] = [None, None, None];
    for r in loaded.records {
        match r {
            Record::PhaseSpace(p) => ps = Some(p),
            Record::Particles(p) => particles = Some(p),
            Record::SimState(s) => state = Some(s),
            Record::FieldMesh { name, field } if name == CDM_ACCEL_NAME => {
                let rows = field.as_slice().chunks_exact(3);
                cdm_accel = Some(rows.map(|a| [a[0], a[1], a[2]]).collect());
            }
            Record::FieldMesh { name, field } if name == PENDING_KICK_NAME => {
                pending_kick = field.as_slice().first().copied().unwrap_or(0.0);
            }
            Record::FieldMesh { name, field } => {
                if let Some(axis) = FORCE_NAMES.iter().position(|n| *n == name) {
                    force[axis] = Some(field);
                }
            }
        }
    }
    if need_ps && ps.is_none() {
        return Err(missing("phase-space"));
    }
    let state = state.ok_or_else(|| missing("sim-state"))?;
    Ok(Saved {
        ps,
        particles,
        scheme: scheme_from_u8(state.scheme).map_err(|detail| CkptError::Mismatch { detail })?,
        state,
        force: match force {
            [Some(f0), Some(f1), Some(f2)] => Some([f0, f1, f2]),
            _ => None,
        },
        cdm_accel,
        pending_kick,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_cosmology::CosmologyParams;

    fn policy(time: TimeAxis, cfl_spatial: f64, cfl_velocity: f64, max_step: f64) -> Policy {
        Policy {
            time,
            scheme: Scheme::SlMpp5,
            exec: Exec::Scalar,
            cfl_spatial,
            cfl_velocity,
            max_step,
        }
    }

    type Row = (&'static str, Policy, f64, [f64; 4], f64, Limiter, u64);

    /// The single Δt controller, row by row: `(case, axis, caps, t1, limits,
    /// expected t2, limiter, halvings)`. Static-axis rows use binary
    /// fractions so every expectation is exact, including acceptance *at* a
    /// limit (`<=`). The limiter is the bound that rejected the last longer
    /// proposal, whichever bound would have been the first to fail.
    #[test]
    fn controller_table() {
        use Limiter::{MaxStep, Spatial, Velocity};
        use TimeAxis::{Expanding, Static};
        let bg = Background::new(CosmologyParams::planck2015());
        let halvings = |n: i32| 2f64.powi(-n);
        #[rustfmt::skip]
        let rows: [Row; 9] = [
            // limits = [vmax, n_max, fmax, du_min]
            ("static, nothing binds",       policy(Static, 0.5, 1.0, 0.25),    2.0,  [1.0, 1.0, 1.0, 1.0],   2.25,         MaxStep,  0),
            ("static, no Vlasov component", policy(Static, 0.5, 1.0, 1.0),     0.0,  [0.0, 0.0, 0.0, 1.0],   1.0,          MaxStep,  0),
            ("static, spatial-limited",     policy(Static, 0.3125, 1.0, 1.0),  0.0,  [1.0, 10.0, 0.0, 1.0],  halvings(5),  Spatial,  5),
            ("static, velocity-limited",    policy(Static, 0.5, 1.0, 1.0),     0.0,  [0.0, 1.0, 8.0, 0.5],   halvings(3),  Velocity, 3),
            ("static, velocity cap 0.5",    policy(Static, 0.5, 0.5, 1.0),     0.0,  [0.0, 1.0, 8.0, 0.5],   halvings(4),  Velocity, 4),
            ("static, spatial then velocity", policy(Static, 0.5, 1.0, 1.0),   0.0,  [1.0, 2.0, 8.0, 0.5],   halvings(3),  Velocity, 3),
            ("static, velocity then spatial", policy(Static, 0.5, 1.0, 1.0),   0.0,  [1.0, 8.0, 2.0, 0.5],   halvings(4),  Spatial,  4),
            ("static, never satisfied",     policy(Static, 0.0, 1.0, 1.0),     0.0,  [1.0, 1.0, 0.0, 1.0],   halvings(60), Spatial,  60),
            ("expanding, clamped at a = 1", policy(Expanding, 1e9, 1e9, 0.08), 0.99, [1.0, 1.0, 1.0, 1.0],   1.0 + 1e-12,  MaxStep,  0),
        ];
        for (case, p, t1, [vmax, n_max, fmax, du_min], want, limiter, halved) in rows {
            let iv = choose_interval(&p, &bg, t1, vmax, n_max, fmax, du_min);
            assert_eq!(iv.t2, want, "{case}");
            assert_eq!((iv.limiter, iv.halvings), (limiter, halved), "{case}");
            if p.time == Static {
                assert_eq!(
                    (iv.k1, iv.k2),
                    (0.5 * (want - t1), 0.5 * (want - t1)),
                    "{case}"
                );
                assert_eq!((iv.drift, iv.dt), (want - t1, want - t1), "{case}");
            }
        }
    }

    /// On the expanding axis the limits are background integrals: the chosen
    /// interval must satisfy both, the one twice as long must violate one,
    /// and the two half kicks must split the step's kick integral evenly
    #[test]
    fn expanding_axis_halves_until_both_limits_hold() {
        let bg = Background::new(CosmologyParams::planck2015());
        let (t1, vmax, n_max, du_min) = (0.2, 0.6, 16.0, 0.15);
        for (case, cfl_spatial, fmax) in [("spatial", 0.45, 0.0), ("velocity", 1e9, 40.0)] {
            let p = policy(TimeAxis::Expanding, cfl_spatial, 1.0, 0.08);
            let iv = choose_interval(&p, &bg, t1, vmax, n_max, fmax, du_min);
            assert!(iv.t2 > t1 && iv.t2 < t1 * 1.08, "{case}: must have halved");
            let holds = |t2: f64| {
                let tm = p.time.midpoint(&bg, t1, t2);
                vmax * bg.drift_factor(t1, t2) * n_max <= cfl_spatial
                    && fmax * bg.kick_factor(t1, tm) / du_min <= 1.0
            };
            assert!(holds(iv.t2), "{case}: chosen interval violates a limit");
            assert!(
                !holds(t1 + 2.0 * (iv.t2 - t1)),
                "{case}: halved once too often"
            );
            assert!((iv.k1 + iv.k2 - iv.dt).abs() < 1e-12 * iv.dt, "{case}");
            // (to the accuracy of the background's tabulated t(a))
            assert!(
                (iv.k1 - iv.k2).abs() < 1e-2 * iv.dt,
                "{case}: midpoint is uneven"
            );
            assert_eq!(iv.drift, bg.drift_factor(t1, iv.t2), "{case}");
        }
    }
}
