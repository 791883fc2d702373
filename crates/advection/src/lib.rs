//! One-dimensional conservative advection kernels — the numerical heart of the
//! paper (§5.2–§5.3).
//!
//! Directional splitting reduces the 6-D Vlasov equation to constant-velocity
//! 1-D advections along grid lines. Each line update is a *conservative
//! semi-Lagrangian* step: the shift `c = v Δt/Δx` splits into an integer part
//! (an index shift, exact) and a fractional part `s ∈ [0, 1)` handled by a
//! flux-form update whose fluxes integrate a polynomial reconstruction of the
//! primitive function over the swept interval. One flux evaluation per step —
//! the paper's headline cost advantage over multi-stage Runge–Kutta schemes.
//!
//! Scheme ladder (all flux-form, all exactly conservative on periodic lines):
//!
//! | scheme        | order | limited | stages | paper role |
//! |---------------|-------|---------|--------|------------|
//! | [`Scheme::Upwind1`] | 1 | monotone by construction | 1 | robustness floor |
//! | [`Scheme::Sl3`]     | 3 | no      | 1 | cheap baseline |
//! | [`Scheme::Sl5`]     | 5 | no      | 1 | accuracy ceiling |
//! | [`Scheme::SlMpp5`]  | 5 | MP + positivity | 1 | **the paper's scheme** |
//! | [`mol::step_mp5_rk3`] | 5 | MP    | 3 | the conventional alternative (§5.2 cost ablation) |
//!
//! There is one flux/update body ([`flux::flux_update`]), generic over the
//! value it computes with and working on a ghost-extended line in upwind
//! order: the line kernels run it at `f64`, the lane kernels at [`f32x8`].
//! The periodic / outflow entry points ([`advect_line`],
//! [`lanes::advect_lanes`]) fill that line by sampling across the boundary;
//! the extended entry points ([`advect_line_ext`], [`lanes::advect_lanes_ext`])
//! take it from the caller, who already holds the neighbouring cells — the
//! ghost planes of a decomposed axis. Same body, same bits.
//!
//! Modules:
//! * [`flux`] — the semi-Lagrangian flux weights, the MP limiter and the one
//!   flux/update body.
//! * [`line`](mod@line) — scalar `f32` line kernels (any scheme, `f64`
//!   arithmetic).
//! * [`simd`] — the `f32x8` lane type and the in-register 8×8 transpose used
//!   by the LAT method (§5.3, Fig. 3).
//! * [`lanes`] — eight-lines-at-once SIMD kernels for the production scheme.
//! * [`mol`] — the method-of-lines MP5 + TVD-RK3 baseline.

// Hot path (runs in pool tasks every step): no bare unwrap/panic outside tests.
#![deny(clippy::unwrap_used, clippy::panic)]

pub mod flux;
pub mod lanes;
pub mod line;
pub mod mol;
pub mod simd;

pub use flux::Boundary;
pub use line::{advect_line, advect_line_ext, Scheme, GHOST};
pub use simd::f32x8;

/// Floating-point operations per updated cell for each scheme — used by the
/// Table 1 benchmark to convert cell throughput into Gflop/s the same way the
/// paper counts them (one flux evaluation + the flux-form update).
///
/// The values are derived, not estimated: `vlasov6d-kerncheck` runs the flux
/// body over an operation-counting domain (add/sub/mul/min/max = 1,
/// `minmod` = 4) on lines of `n + 1` and `n` cells, so the per-line weight
/// setup and loop prologue cancel, and its `opcount` pass asserts this table
/// matches the difference exactly.
pub fn flops_per_cell(scheme: Scheme) -> f64 {
    match scheme {
        // s·f + update.
        Scheme::Upwind1 => 3.0,
        // 3 MACs + update.
        Scheme::Sl3 => 7.0,
        // 5 MACs + update.
        Scheme::Sl5 => 11.0,
        // 5 MACs, ·1/s, one new curvature and minmod4 stack (the rest carried
        // over), f_ul/f_md/f_lc, MP bracket, median clip, clamp + update.
        Scheme::SlMpp5 => 64.0,
    }
}
