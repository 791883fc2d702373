//! The passes' entry into the shipped flux body.
//!
//! `vlasov6d-advection` writes its flux/update body ([`flux_update`]) once,
//! generic over [`Value`], and the kernels run it at `f64` and `f32x8`. The
//! passes instantiate the kernel at their own domains — intervals
//! ([`super::interval`]), operation counts ([`super::opcount`]), expression
//! trees ([`super::equiv`]) and the dependency taint below — through
//! `run_body`, so what they conclude is about the code the sweeps execute,
//! carried curvatures, loop prologue, positivity clamp and flux-form update
//! included, with no copy to keep in step with it.
//!
//! The laws a domain must keep (each holds for the concrete types): every
//! operation over-approximates the concrete one — an interval soundly
//! contains it, a taint includes every input that can influence it, a count
//! costs it. `clamp` defaults to `max` then `min`, which is `f64::clamp` and
//! `f32x8::clamp` for `lo ≤ hi`; that decomposition is what exposes the
//! clamp's upper bound to the interval domain, the heart of the positivity
//! argument.

use vlasov6d_advection::flux::{flux_update, Value, Weights};
use vlasov6d_advection::line::GHOST;
use vlasov6d_advection::Scheme;

/// The shipped body over the ghost-extended upwind line `up`
/// (`up.len() − 2·GHOST` cells) at weights `w`: every interface flux
/// (`F[j]` reads `up[j..j + 5]`) and every updated cell.
pub(crate) fn run_body<D: Value>(scheme: Scheme, w: &Weights<D>, up: &[D]) -> (Vec<D>, Vec<D::Out>)
where
    D::Out: Clone,
{
    let mut flux = Vec::new();
    let mut out = vec![D::c(0.0).narrow(); up.len() - 2 * GHOST];
    flux_update(scheme, || Some(w.clone()), up, &mut flux, &mut out);
    (flux, out)
}

/// Per-line weights that are all `x` — for domains in which the weights'
/// values do not matter (taint, counts), only that they are not cell data.
pub(crate) fn uniform_weights<D: Clone>(x: D) -> Weights<D> {
    Weights {
        s: x.clone(),
        inv_s: x.clone(),
        alpha: x.clone(),
        w: core::array::from_fn(|_| x.clone()),
    }
}

// ------------------------------------------------------------------------
// Taint domain: which line cells can influence a value.
// ------------------------------------------------------------------------

/// Dependency taint: a bitmask of input slots. Constants are untainted; every
/// operation unions its operands (a sound over-approximation of influence).
/// A clamp also records the slots its upper bound depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Taint {
    /// The slots the value depends on.
    pub deps: u32,
    /// For the result of a clamp, the slots of the bound it was clamped
    /// under; empty otherwise.
    pub clamp_hi: u32,
}

impl Taint {
    /// The taint of input slot `i`.
    pub fn input(i: usize) -> Taint {
        Taint {
            deps: 1 << i,
            clamp_hi: 0,
        }
    }

    fn union(&self, o: &Taint) -> Taint {
        Taint {
            deps: self.deps | o.deps,
            clamp_hi: 0,
        }
    }
}

/// The slots present in `mask`.
pub fn slots(mask: u32) -> Vec<usize> {
    (0..32).filter(|i| mask & (1 << i) != 0).collect()
}

impl Value for Taint {
    type Out = Taint;
    fn c(_: f64) -> Taint {
        Taint {
            deps: 0,
            clamp_hi: 0,
        }
    }
    fn add(&self, o: &Taint) -> Taint {
        self.union(o)
    }
    fn sub(&self, o: &Taint) -> Taint {
        self.union(o)
    }
    fn mul(&self, o: &Taint) -> Taint {
        self.union(o)
    }
    fn min(&self, o: &Taint) -> Taint {
        self.union(o)
    }
    fn max(&self, o: &Taint) -> Taint {
        self.union(o)
    }
    fn minmod(&self, o: &Taint) -> Taint {
        self.union(o)
    }
    fn clamp(&self, lo: &Taint, hi: &Taint) -> Taint {
        Taint {
            deps: self.deps | lo.deps | hi.deps,
            clamp_hi: hi.deps,
        }
    }
    fn narrow(self) -> Taint {
        self
    }
}

/// The body over the `2·GHOST + 1`-cell line whose cell `k` carries slot `k`
/// (the weights carry none: they depend on `s`, not the data): the flux
/// through the upwind face of the middle cell, which reads stencil slots
/// `0..5`, and the middle cell's update, which reads slot `GHOST + d` at
/// offset `d`.
pub(crate) fn taint_line(scheme: Scheme) -> (Taint, Taint) {
    let up: Vec<Taint> = (0..=2 * GHOST).map(Taint::input).collect();
    let (flux, out) = run_body(scheme, &uniform_weights(Taint::c(0.0)), &up);
    (flux[0], out[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_advection::flux::{median_clip, mp5_bracket, mp_alpha, sl5_weights};

    #[test]
    fn miri_smoke_taint_of_clamp_is_the_upwind_cell() {
        // The SL-MPP5 clamp bound depends on stencil slot 2 (the upwind
        // cell) and nothing else — the structural half of the positivity
        // argument.
        let (flux, _) = taint_line(Scheme::SlMpp5);
        assert_eq!(slots(flux.clamp_hi), vec![2]);
        // And the flux reads the whole five-cell stencil.
        assert_eq!(slots(flux.deps), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn miri_smoke_structural_footprints() {
        let flux = |scheme| slots(taint_line(scheme).0.deps);
        assert_eq!(flux(Scheme::Upwind1), vec![2]);
        assert_eq!(flux(Scheme::Sl3), vec![1, 2, 3]);
        assert_eq!(flux(Scheme::Sl5), vec![0, 1, 2, 3, 4]);
        assert_eq!(taint_line(Scheme::Sl5).0.clamp_hi, 0);
    }

    #[test]
    fn miri_smoke_f64_flux_matches_direct_computation() {
        // Spot-check the shipped body at f64, interface 0, against
        // hand-rolled kernel arithmetic.
        let s = 0.37;
        let w = Weights::at(Scheme::SlMpp5, s).expect("fractional shift");
        let stencil = [0.2f64, 1.4, 0.9, 0.1, 0.8];
        let up: Vec<f64> = stencil.iter().copied().chain([0.5, 0.3]).collect();
        let (flux, out) = run_body(Scheme::SlMpp5, &w, &up);
        let w5 = sl5_weights(s);
        let f_high: f64 = (0..5).map(|k| w5[k] * stencil[k]).sum();
        let f_sl = f_high / s;
        let (lo, hi) = mp5_bracket(&stencil, mp_alpha(s));
        let expect = (s * median_clip(f_sl, lo, hi)).clamp(0.0, stencil[2].max(0.0));
        assert_eq!(flux[0], expect);
        assert_eq!(out[0], (up[GHOST] - flux[1] + flux[0]) as f32);
    }
}
