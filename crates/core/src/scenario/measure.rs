//! Mode-amplitude probes and rate fits: turning a run's δρ history into a
//! damping/growth rate comparable to the dispersion-relation oracles.

use vlasov6d_mesh::Field3;

/// Which spatial Fourier mode of the density contrast to track.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// Spatial axis of the mode.
    pub axis: usize,
    /// Integer mode number `m` (`k = 2π m` on the unit box).
    pub mode: usize,
}

impl Default for ProbeSpec {
    fn default() -> Self {
        Self { axis: 0, mode: 1 }
    }
}

impl ProbeSpec {
    /// `|⟨δρ e^{−ikx}⟩|`: the tracked mode's amplitude, normalised per cell
    /// (so a field `δ cos kx` probes as `δ/2`).
    pub fn amplitude(&self, rho: &Field3) -> f64 {
        let dims = rho.dims();
        let n = dims[self.axis] as f64;
        let mean = rho.mean();
        let mut re = 0.0f64;
        let mut im = 0.0f64;
        let [n0, n1, n2] = dims;
        for i0 in 0..n0 {
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    let idx = [i0, i1, i2][self.axis] as f64;
                    let phase = -2.0 * std::f64::consts::PI * self.mode as f64 * (idx + 0.5) / n;
                    let v = rho.at(i0, i1, i2) - mean;
                    re += v * phase.cos();
                    im += v * phase.sin();
                }
            }
        }
        let cells = (n0 * n1 * n2) as f64;
        (re * re + im * im).sqrt() / cells
    }
}

/// Whether the oracle rate is a damping (fit the oscillation envelope) or a
/// growth (fit the exponential rise of the linear phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateKind {
    Damping,
    /// The log-slope of the amplitude itself: a growing mode's rise, or the
    /// decay of a purely damped mode that does not oscillate (`jeans-damping`).
    Growth,
}

/// A scenario's analytic-rate oracle: the expected `Im ω` from the
/// dispersion relation, the fit window, and the tolerance band.
#[derive(Debug, Clone, Copy)]
pub struct RateOracle {
    pub kind: RateKind,
    /// Expected rate (negative for damping) from the dispersion solver.
    pub expected: f64,
    /// Relative tolerance of the measured rate.
    pub rel_tol: f64,
    /// Fit window in simulation time.
    pub window: (f64, f64),
    /// Time to run the measurement to (≥ `window.1`).
    pub t_end: f64,
}

/// Outcome of an oracle measurement — a pure value, so the negative-control
/// test can re-judge the same measurement against a deliberately wrong
/// expectation.
#[derive(Debug, Clone, Copy)]
pub struct RateCheck {
    pub measured: f64,
    pub expected: f64,
    pub rel_tol: f64,
}

impl RateCheck {
    pub fn passed(&self) -> bool {
        (self.measured - self.expected).abs() <= self.rel_tol * self.expected.abs()
    }

    /// The same measurement judged against a perturbed expected rate — the
    /// negative control the oracle suite must see *fail*.
    pub fn with_expected(&self, expected: f64) -> Self {
        Self { expected, ..*self }
    }
}

impl RateOracle {
    /// Judge a measured `(t, amplitude)` history against this oracle.
    pub fn judge(&self, times: &[f64], amps: &[f64]) -> RateCheck {
        let measured = match self.kind {
            RateKind::Growth => fit_log_slope(times, amps, self.window),
            RateKind::Damping => fit_envelope_slope(times, amps, self.window),
        };
        RateCheck {
            measured,
            expected: self.expected,
            rel_tol: self.rel_tol,
        }
    }
}

/// Least-squares slope of `ln A(t)` over the window. Non-positive samples
/// are skipped (they carry no log information).
pub(crate) fn fit_log_slope(times: &[f64], amps: &[f64], window: (f64, f64)) -> f64 {
    let pts: Vec<(f64, f64)> = times
        .iter()
        .zip(amps)
        .filter(|(t, a)| **t >= window.0 && **t <= window.1 && **a > 0.0)
        .map(|(t, a)| (*t, a.ln()))
        .collect();
    slope(&pts)
}

/// Slope of `ln` of the oscillation envelope: local maxima of `A(t)` in the
/// window (a damped Langmuir wave's amplitude beats at 2ω, so the peaks
/// trace `e^{γt}` cleanly while the troughs touch zero).
pub(crate) fn fit_envelope_slope(times: &[f64], amps: &[f64], window: (f64, f64)) -> f64 {
    let mut pts = Vec::new();
    for i in 1..amps.len().saturating_sub(1) {
        let inside = times[i] >= window.0 && times[i] <= window.1;
        if inside && amps[i] > amps[i - 1] && amps[i] >= amps[i + 1] && amps[i] > 0.0 {
            pts.push((times[i], amps[i].ln()));
        }
    }
    slope(&pts)
}

fn slope(pts: &[(f64, f64)]) -> f64 {
    if pts.len() < 2 {
        return f64::NAN;
    }
    let n = pts.len() as f64;
    let (mut st, mut sy, mut stt, mut sty) = (0.0, 0.0, 0.0, 0.0);
    for (t, y) in pts {
        st += t;
        sy += y;
        stt += t * t;
        sty += t * y;
    }
    (n * sty - st * sy) / (n * stt - st * st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reads_cosine_amplitude() {
        let n = 16;
        let mut rho = Field3::zeros([n, 4, 4]);
        for i0 in 0..n {
            let x = (i0 as f64 + 0.5) / n as f64;
            let v = 1.0 + 0.04 * (2.0 * std::f64::consts::PI * x).cos();
            for i1 in 0..4 {
                for i2 in 0..4 {
                    *rho.at_mut(i0, i1, i2) = v;
                }
            }
        }
        let a = ProbeSpec::default().amplitude(&rho);
        assert!((a - 0.02).abs() < 1e-12, "amplitude {a}");
    }

    #[test]
    fn log_slope_recovers_exponential() {
        let times: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let amps: Vec<f64> = times.iter().map(|t| 1e-3 * (0.7 * t).exp()).collect();
        let g = fit_log_slope(&times, &amps, (0.5, 4.5));
        assert!((g - 0.7).abs() < 1e-9, "slope {g}");
    }

    #[test]
    fn envelope_slope_recovers_damped_oscillation() {
        let times: Vec<f64> = (0..2000).map(|i| i as f64 * 0.005).collect();
        let amps: Vec<f64> = times
            .iter()
            .map(|t| 0.02 * (-0.4 * t).exp() * (5.0 * t).cos().abs())
            .collect();
        let g = fit_envelope_slope(&times, &amps, (0.5, 9.0));
        assert!((g + 0.4).abs() < 0.01, "slope {g}");
    }

    #[test]
    fn rate_check_negative_control_fails() {
        let check = RateCheck {
            measured: -0.15,
            expected: -0.153,
            rel_tol: 0.2,
        };
        assert!(check.passed());
        assert!(!check.with_expected(-0.153 * 3.0).passed());
        assert!(!check.with_expected(-0.153 / 3.0).passed());
    }
}
