//! Self-contained equal-area sky pixelization for η maps.
//!
//! Healpix-style in spirit, but deliberately simpler: the sphere is cut into
//! `3·Nside` iso-latitude rings of equal width in `z = cos θ`, and every
//! ring is split into `4·Nside` pixels of equal width in `φ`. By Archimedes'
//! hat-box theorem a band of constant `Δz` has area `2π·Δz` regardless of
//! latitude, so **every pixel has exactly the same solid angle**
//! `4π / Npix` with `Npix = 12·Nside²` — the same pixel count as healpix at
//! the same `Nside`, with closed-form `ang2pix`/`pix2ang` and no basis
//! tables. Unlike healpix the pixels are not quasi-square near the poles
//! (polar pixels are thin in `φ`), which is irrelevant for binned means.
//!
//! Pixel ordering is ring-major: pixel `p = ring · 4·Nside + j` where
//! `ring` counts from the north pole (`z = 1`) and `j` from `φ = 0`.

use std::f64::consts::PI;

/// Equal-area pixelization with `Npix = 12·Nside²` pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqualAreaPixels {
    nside: usize,
}

impl EqualAreaPixels {
    /// New pixelization; `nside ≥ 1`.
    pub fn new(nside: usize) -> EqualAreaPixels {
        assert!(nside >= 1, "nside must be ≥ 1");
        EqualAreaPixels { nside }
    }

    /// The resolution parameter.
    pub fn nside(&self) -> usize {
        self.nside
    }

    /// Total pixel count `12·Nside²`.
    pub fn npix(&self) -> usize {
        12 * self.nside * self.nside
    }

    /// Number of iso-latitude rings (`3·Nside`).
    pub fn nrings(&self) -> usize {
        3 * self.nside
    }

    /// Pixels per ring (`4·Nside`).
    pub fn ring_len(&self) -> usize {
        4 * self.nside
    }

    /// Solid angle of every pixel: exactly `4π / Npix`.
    pub fn pixel_area(&self) -> f64 {
        4.0 * PI / self.npix() as f64
    }

    /// Pixel containing the direction `(θ, φ)` (colatitude `θ ∈ [0, π]`,
    /// azimuth `φ` arbitrary, wrapped into `[0, 2π)`).
    pub fn ang2pix(&self, theta: f64, phi: f64) -> usize {
        let z = theta.cos();
        // ring = floor((1 − z) / Δz) with Δz = 2 / nrings; clamp keeps the
        // south pole (z = −1, quotient exactly nrings) in the last ring.
        let ring = (((1.0 - z) * 0.5 * self.nrings() as f64) as usize).min(self.nrings() - 1);
        let phi = phi.rem_euclid(2.0 * PI);
        let j = ((phi / (2.0 * PI) * self.ring_len() as f64) as usize).min(self.ring_len() - 1);
        ring * self.ring_len() + j
    }

    /// Pixel containing the direction of a (not necessarily unit) vector.
    pub(crate) fn dir2pix(&self, dir: [f64; 3]) -> usize {
        let (theta, phi) = dir2ang(dir);
        self.ang2pix(theta, phi)
    }

    /// Centre `(θ, φ)` of pixel `p`: mid-`z` of its ring, mid-`φ` of its
    /// azimuthal slot.
    pub fn pix2ang(&self, p: usize) -> (f64, f64) {
        assert!(p < self.npix(), "pixel {p} out of range");
        let ring = p / self.ring_len();
        let j = p % self.ring_len();
        let z = 1.0 - 2.0 * (ring as f64 + 0.5) / self.nrings() as f64;
        let theta = z.clamp(-1.0, 1.0).acos();
        let phi = 2.0 * PI * (j as f64 + 0.5) / self.ring_len() as f64;
        (theta, phi)
    }
}

/// `(θ, φ)` of a (not necessarily unit) vector; `θ = 0` is `+z`, `φ`
/// measured from `+x` towards `+y`, in `[0, 2π)`. The zero vector maps to
/// the north pole.
pub(crate) fn dir2ang(dir: [f64; 3]) -> (f64, f64) {
    let r = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
    if r == 0.0 {
        return (0.0, 0.0);
    }
    let theta = (dir[2] / r).clamp(-1.0, 1.0).acos();
    let phi = dir[1].atan2(dir[0]).rem_euclid(2.0 * PI);
    (theta, phi)
}

/// Unit vector of the direction `(θ, φ)`.
pub(crate) fn ang2dir(theta: f64, phi: f64) -> [f64; 3] {
    let s = theta.sin();
    [s * phi.cos(), s * phi.sin(), theta.cos()]
}

#[cfg(test)]
impl EqualAreaPixels {
    /// Unit vector at the centre of pixel `p`.
    pub(crate) fn pix2dir(&self, p: usize) -> [f64; 3] {
        let (theta, phi) = self.pix2ang(p);
        ang2dir(theta, phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_counts_match_healpix_convention() {
        for nside in [1usize, 2, 4, 8] {
            let pix = EqualAreaPixels::new(nside);
            assert_eq!(pix.npix(), 12 * nside * nside);
            assert_eq!(pix.nrings() * pix.ring_len(), pix.npix());
        }
    }

    #[test]
    fn poles_and_equator_land_in_expected_rings() {
        let pix = EqualAreaPixels::new(2);
        // North pole → ring 0; south pole → last ring (clamped).
        assert_eq!(pix.ang2pix(0.0, 0.0) / pix.ring_len(), 0);
        assert_eq!(pix.ang2pix(PI, 0.0) / pix.ring_len(), pix.nrings() - 1);
        // Just south of the equator is the first ring of the southern half
        // (the equator itself sits on a ring boundary, where `cos(π/2)`'s
        // 1e-17 rounding decides the side).
        assert_eq!(
            pix.ang2pix(PI / 2.0 + 1e-6, 0.0) / pix.ring_len(),
            pix.nrings() / 2
        );
    }

    #[test]
    fn centres_round_trip_exactly() {
        let pix = EqualAreaPixels::new(4);
        for p in 0..pix.npix() {
            let (theta, phi) = pix.pix2ang(p);
            assert_eq!(pix.ang2pix(theta, phi), p, "pixel {p}");
        }
    }

    #[test]
    fn dir_round_trip_matches_ang_round_trip() {
        let pix = EqualAreaPixels::new(3);
        for p in 0..pix.npix() {
            assert_eq!(pix.dir2pix(pix.pix2dir(p)), p, "pixel {p}");
        }
    }

    #[test]
    fn negative_phi_wraps() {
        let pix = EqualAreaPixels::new(2);
        let p1 = pix.ang2pix(1.0, -0.1);
        let p2 = pix.ang2pix(1.0, 2.0 * PI - 0.1);
        assert_eq!(p1, p2);
    }
}
