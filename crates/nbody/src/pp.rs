//! The lane-batched short-range pair kernel — Phantom-GRAPE's role in the
//! paper's TreePM (§5.1.2).
//!
//! The paper's tree walk builds one interaction list per *group* of nearby
//! particles and hands it to the Phantom-GRAPE library (Tanikawa et al.
//! 2013), which sums it in SIMD registers: 1.2×10⁹ interactions/s per A64FX
//! core against 2.4×10⁷ for the non-SIMD build. This module is that kernel:
//!
//! * [`InteractionList`] — sources (particles and accepted monopoles) packed
//!   into SoA `f32` lanes in coordinates relative to the group centre, which
//!   is what makes single precision sufficient: the sources that dominate
//!   the force are the near ones, and those have the small coordinates.
//! * [`SplitKernel`] — everything of `m·S(r)/(r²+ε²)^{3/2}·d` that does not
//!   depend on the pair: the cutoff factor `S` of a [`ForceSplit`] as one
//!   polynomial in `r`, the softening and the masks' radii.
//! * [`SplitKernel::accel`] — the sum itself, eight pairs per lane
//!   operation, with the minimum-image wrap and the `r = 0` / `r > r_cut`
//!   masks taken branch-free in the lanes.
//!
//! The scalar `f64` reference it is tested against is
//! [`crate::tree::Tree::short_range_at`].

use vlasov6d_advection::simd::{f32x8, Isa, LANES};
use vlasov6d_poisson::ForceSplit;

/// Degree of the polynomial standing in for `S`.
const DEGREE: usize = 18;

/// `S(r)` is taken as zero beyond `r = 2 r_s · X_MAX`, where it is 5.2×10⁻⁷.
const X_MAX: f64 = 4.0;

/// `(d + M) − M` rounds an `f32` of magnitude below 2²² to the nearest
/// integer in two additions.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Sources of one group's walk, eight to a block. Lanes past [`Self::len`]
/// in the last block carry zero mass and contribute nothing.
#[derive(Debug, Clone, Default)]
pub struct InteractionList {
    x: Vec<f32x8>,
    y: Vec<f32x8>,
    z: Vec<f32x8>,
    m: Vec<f32x8>,
    len: usize,
}

impl InteractionList {
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
        self.z.clear();
        self.m.clear();
        self.len = 0;
    }

    /// Append a source displaced by `d` from the group centre.
    #[inline]
    pub fn push(&mut self, d: [f64; 3], mass: f64) {
        let lane = self.len % LANES;
        if lane == 0 {
            self.x.push(f32x8::ZERO);
            self.y.push(f32x8::ZERO);
            self.z.push(f32x8::ZERO);
            self.m.push(f32x8::ZERO);
        }
        let block = self.x.len() - 1;
        self.x[block].0[lane] = d[0] as f32;
        self.y[block].0[lane] = d[1] as f32;
        self.z[block].0[lane] = d[2] as f32;
        self.m[block].0[lane] = mass as f32;
        self.len += 1;
    }

    /// Sources pushed since the last [`Self::clear`].
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pairs one target's sum evaluates: [`Self::len`] rounded up to whole
    /// blocks.
    pub fn lanes(&self) -> usize {
        self.x.len() * LANES
    }
}

/// The pair-independent part of the split force, built once per walk.
#[derive(Debug, Clone)]
pub struct SplitKernel {
    /// `S(r) ≈ Σ_k coeff[k] zᵏ` with `z = r·z_scale − 1 ∈ [−1, 1]`.
    coeff: [[f32; LANES]; DEGREE + 1],
    z_scale: f32,
    /// Pairs with `r² > r2_max` are masked out.
    r2_max: f32,
    eps2: f32,
}

impl SplitKernel {
    /// Fit `S` on `[0, r_max]`, `r_max = min(r_cut, 2 r_s · X_MAX)`: Chebyshev
    /// interpolation of `split.short_force_factor`, re-expanded in powers of
    /// the scaled radius so the lanes evaluate it by Horner's rule. The
    /// absolute error stays below 10⁻⁶ for every `r_cut` (see the tests),
    /// and the interpolant's monomial coefficients sum to about 20, so `f32`
    /// evaluation loses nothing that matters.
    pub fn new(split: &ForceSplit, eps: f64, r_cut: f64) -> Self {
        const N: usize = DEGREE + 1;
        let r_max = r_cut.min(2.0 * split.r_s * X_MAX);
        let node = |j: usize| (std::f64::consts::PI * (j as f64 + 0.5) / N as f64).cos();
        let samples: [f64; N] =
            core::array::from_fn(|j| split.short_force_factor(0.5 * r_max * (node(j) + 1.0)));
        // Chebyshev coefficients, then Σ c_k T_k(z) in powers of z through
        // T_{k+1} = 2z T_k − T_{k−1}.
        let mut mono = [0.0f64; N];
        let (mut t_prev, mut t) = ([0.0f64; N], [0.0f64; N]);
        t[0] = 1.0;
        for k in 0..N {
            let weight = if k == 0 { 1.0 } else { 2.0 } / N as f64;
            let c_k = weight
                * (0..N)
                    .map(|j| {
                        let phase = std::f64::consts::PI * k as f64 * (j as f64 + 0.5) / N as f64;
                        samples[j] * phase.cos()
                    })
                    .sum::<f64>();
            for i in 0..N {
                mono[i] += c_k * t[i];
            }
            // T_1 = z T_0; `t_prev` is still zero then.
            let twice = if k == 0 { 1.0 } else { 2.0 };
            let mut t_next = [0.0f64; N];
            for i in 1..N {
                t_next[i] = twice * t[i - 1] - t_prev[i];
            }
            t_next[0] = -t_prev[0];
            (t_prev, t) = (t, t_next);
        }
        Self {
            coeff: mono.map(|c| [c as f32; LANES]),
            z_scale: (2.0 / r_max) as f32,
            r2_max: (r_max * r_max) as f32,
            eps2: (eps * eps) as f32,
        }
    }

    /// `Σ_j m_j S(r_j) d_j / (r_j² + ε²)^{3/2}` at a target displaced by
    /// `target` from the group centre, `d_j` the minimum-image displacement
    /// toward source `j`. A source at the target (`r = 0`) contributes
    /// exactly nothing. Lane sums are `f32`, added in lane order — the
    /// result depends on the list and nothing else, not even on which entry
    /// of the sum ([`vlasov6d_advection::simd`]) the host's CPU selects.
    pub fn accel(&self, target: [f32; 3], list: &InteractionList) -> [f64; 3] {
        match Isa::detect() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: called only after `is_x86_feature_detected!("avx2")`,
            // which is what `Isa::detect` returning `Avx2` or `Avx512` means.
            // The sum is `f32x8`-wide: on an AVX-512 host it takes the same
            // 256-bit entry.
            Isa::Avx2 | Isa::Avx512 => unsafe { self.accel_avx2(target, list) },
            _ => self.accel_lanes(target, list),
        }
    }

    /// # Safety
    /// Call only after `is_x86_feature_detected!("avx2")`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn accel_avx2(&self, target: [f32; 3], list: &InteractionList) -> [f64; 3] {
        self.accel_lanes(target, list)
    }

    /// The one body of [`Self::accel`].
    #[inline(always)]
    fn accel_lanes(&self, target: [f32; 3], list: &InteractionList) -> [f64; 3] {
        let [tx, ty, tz] = target;
        let mut ax = [0.0f32; LANES];
        let mut ay = [0.0f32; LANES];
        let mut az = [0.0f32; LANES];
        for b in 0..list.x.len() {
            let (xs, ys, zs, ms) = (&list.x[b].0, &list.y[b].0, &list.z[b].0, &list.m[b].0);
            for l in 0..LANES {
                let dx = wrap(xs[l] - tx);
                let dy = wrap(ys[l] - ty);
                let dz = wrap(zs[l] - tz);
                let r2 = dx * dx + dy * dy + dz * dz;
                let soft = r2 + self.eps2;
                let inv_r3 = 1.0 / (soft * soft.sqrt());
                let z = r2.sqrt() * self.z_scale - 1.0;
                let mut s = self.coeff[DEGREE][l];
                for k in (0..DEGREE).rev() {
                    s = s * z + self.coeff[k][l];
                }
                // A bit mask, not a branch (the lanes stay in step) and not
                // a product (with ε = 0 a coincident pair has `inv_r3 = ∞`).
                let keep = u32::from(r2 > 0.0) & u32::from(r2 <= self.r2_max);
                let f = f32::from_bits((ms[l] * s * inv_r3).to_bits() & keep.wrapping_neg());
                ax[l] += f * dx;
                ay[l] += f * dy;
                az[l] += f * dz;
            }
        }
        let sum = |lanes: [f32; LANES]| lanes.iter().map(|&v| f64::from(v)).sum::<f64>();
        [sum(ax), sum(ay), sum(az)]
    }
}

/// Minimum image of a coordinate difference in the unit box.
#[inline(always)]
fn wrap(d: f32) -> f32 {
    d - ((d + ROUND_MAGIC) - ROUND_MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The polynomial alone, as lane 0 evaluates it.
    fn cutoff(kernel: &SplitKernel, r: f64) -> f64 {
        let z = r as f32 * kernel.z_scale - 1.0;
        let s = (0..DEGREE)
            .rev()
            .fold(kernel.coeff[DEGREE][0], |s, k| s * z + kernel.coeff[k][0]);
        f64::from(s)
    }

    /// The `f64` sum the kernel stands in for, over explicit sources.
    fn scalar_sum(
        target: [f64; 3],
        sources: &[[f64; 3]],
        mass: f64,
        split: &ForceSplit,
        eps: f64,
        r_cut: f64,
    ) -> [f64; 3] {
        let mut acc = [0.0; 3];
        for &s in sources {
            crate::tree::pair_accel(target, s, mass, split, eps, r_cut, &mut acc);
        }
        acc
    }

    fn list_of(sources: &[[f64; 3]], mass: f64) -> InteractionList {
        let mut list = InteractionList::default();
        for &s in sources {
            list.push(s, mass);
        }
        list
    }

    fn scattered(n: usize, scale: f64) -> Vec<[f64; 3]> {
        let mut state = 17u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * scale
        };
        (0..n).map(|_| [next(), next(), next()]).collect()
    }

    #[test]
    fn cutoff_polynomial_is_within_1e6_of_the_split_factor() {
        // Every regime of r_cut / r_s: the TreePM default (3.6), the tests'
        // tighter tolerances, a cutoff inside the transition, and one past
        // `X_MAX`, where the factor is truncated to zero.
        for r_s in [0.01, 1.25 / 32.0, 1.25 / 16.0] {
            let split = ForceSplit::new(r_s);
            let cuts = [
                split.cutoff_radius(1e-5),
                split.cutoff_radius(1e-7),
                3.0 * r_s,
                12.0 * r_s,
            ];
            for r_cut in cuts {
                let kernel = SplitKernel::new(&split, 1e-3, r_cut);
                let r_max = f64::from(kernel.r2_max).sqrt();
                let mut worst = 0.0f64;
                for i in 0..4000 {
                    let r = r_cut * i as f64 / 4000.0;
                    let got = if r <= r_max { cutoff(&kernel, r) } else { 0.0 };
                    worst = worst.max((got - split.short_force_factor(r)).abs());
                }
                assert!(worst <= 1e-6, "r_s {r_s}, r_cut {r_cut}: {worst:.2e}");
            }
        }
    }

    #[test]
    fn lane_sum_matches_the_scalar_sum() {
        let split = ForceSplit::new(0.04);
        let (eps, r_cut) = (1e-3, split.cutoff_radius(1e-5));
        let sources = scattered(1000, 0.6);
        let kernel = SplitKernel::new(&split, eps, r_cut);
        let list = list_of(&sources, 1e-3);
        for &t in &scattered(20, 0.1)[10..] {
            let want = scalar_sum(t, &sources, 1e-3, &split, eps, r_cut);
            let got = kernel.accel(t.map(|c| c as f32), &list);
            let scale = want.iter().map(|c| c * c).sum::<f64>().sqrt();
            for i in 0..3 {
                assert!(
                    (got[i] - want[i]).abs() < 1e-5 * scale,
                    "axis {i}: {} vs {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn padding_lanes_are_inert() {
        // 9 sources fill one block and one lane of the next; the other seven
        // lanes sit at the group centre with zero mass — where a target may
        // be, too.
        let split = ForceSplit::new(0.05);
        let sources = scattered(9, 0.2);
        let kernel = SplitKernel::new(&split, 1e-3, 0.3);
        let list = list_of(&sources, 0.5);
        assert_eq!((list.len(), list.lanes()), (9, 16));
        for t in [[0.0; 3], [0.01, -0.02, 0.03]] {
            let want = scalar_sum(t, &sources, 0.5, &split, 1e-3, 0.3);
            let got = kernel.accel(t.map(|c| c as f32), &list);
            for i in 0..3 {
                assert!((got[i] - want[i]).abs() < 1e-5 * want[i].abs().max(1.0));
            }
        }
        assert_eq!(
            kernel.accel([0.1, 0.2, 0.3], &InteractionList::default()),
            [0.0; 3]
        );
    }

    #[test]
    fn coincident_source_contributes_exactly_nothing() {
        // With ε = 0 the pair's 1/r³ is infinite: it must be masked, not
        // multiplied, away.
        let split = ForceSplit::new(0.05);
        for eps in [0.0, 1e-3] {
            let kernel = SplitKernel::new(&split, eps, 0.3);
            let here = [0.0123, -0.0456, 0.0789];
            let alone = kernel.accel(here.map(|c| c as f32), &list_of(&[here], 1.0));
            assert_eq!(alone, [0.0; 3]);
            let with_far = list_of(&[here, [0.1, 0.0, 0.0]], 1.0);
            let far_only = list_of(&[[0.1, 0.0, 0.0]], 1.0);
            let t = here.map(|c| c as f32);
            assert_eq!(kernel.accel(t, &with_far), kernel.accel(t, &far_only));
        }
    }

    #[test]
    fn pairs_meet_at_their_nearest_image() {
        // Source and target on opposite sides of a cell centre half a box
        // from both: 0.9 apart as stored, 0.1 apart through the boundary.
        let split = ForceSplit::new(0.05);
        let kernel = SplitKernel::new(&split, 0.0, 0.3);
        let wrapped = kernel.accel([-0.45, 0.0, 0.0], &list_of(&[[0.45, 0.0, 0.0]], 1.0));
        let plain = kernel.accel([0.05, 0.0, 0.0], &list_of(&[[-0.05, 0.0, 0.0]], 1.0));
        assert!(plain[0] < 0.0, "pulled toward −x: {plain:?}");
        assert!((wrapped[0] / plain[0] - 1.0).abs() < 1e-5, "{wrapped:?}");
        // Beyond the cutoff in every image: nothing.
        let far = kernel.accel([0.0; 3], &list_of(&[[0.4, 0.0, 0.0]], 1.0));
        assert_eq!(far, [0.0; 3]);
    }

    /// The entry [`Isa::detect`] selects and the baseline entry give the same
    /// bits: long lists, padding lanes, a coincident source with and without
    /// softening, sources on either side of the cutoff edge, a wrapped pair.
    #[test]
    fn dispatched_accel_matches_baseline_bitwise() {
        use std::io::Write;
        // Raw stderr: the harness captures `println!`, and a run on a host
        // without AVX2 (baseline against itself) must show as one.
        let isa = Isa::detect().name();
        let _ = writeln!(
            std::io::stderr(),
            "pp::SplitKernel::accel: {isa} entry vs baseline entry"
        );

        let split = ForceSplit::new(0.04);
        let r_cut = split.cutoff_radius(1e-5);
        let here = [0.0123, -0.0456, 0.0789];
        let edge = |k: f64| [here[0] + r_cut * k, here[1], here[2]];
        let lists = [
            list_of(&scattered(1000, 0.6), 1e-3),
            list_of(&scattered(9, 0.2), 0.5),
            list_of(&[here, [0.1, 0.0, 0.0]], 1.0),
            list_of(&[edge(1.0 - 1e-6), edge(1.0), edge(1.0 + 1e-6)], 1.0),
            list_of(&[[0.45, 0.0, 0.0]], 1.0),
            InteractionList::default(),
        ];
        let mut targets = scattered(12, 0.1);
        targets.extend([here, [0.0; 3], [-0.45, 0.0, 0.0]]);
        for eps in [0.0, 1e-3] {
            let kernel = SplitKernel::new(&split, eps, r_cut);
            for (i, list) in lists.iter().enumerate() {
                for t in &targets {
                    let t = t.map(|c| c as f32);
                    let (fast, base) = (kernel.accel(t, list), kernel.accel_lanes(t, list));
                    assert_eq!(
                        fast.map(f64::to_bits),
                        base.map(f64::to_bits),
                        "eps {eps} list {i} target {t:?}"
                    );
                }
            }
        }
    }
}
