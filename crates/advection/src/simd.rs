//! Portable SIMD lane types, the LAT register-block transpose, and the
//! instruction-set dispatch of the lane kernels.
//!
//! The paper vectorises with A64FX SVE intrinsics (16 × f32 per 512-bit
//! register). Stable Rust exposes no portable intrinsics, so we use the
//! standard substitution: wrappers over `[f32; 8]` ([`f32x8`], one bundle of
//! eight lines) and `[f32; 16]` ([`f32x16`], two bundles — SVE's width),
//! each aligned to its size, whose lane-wise operations LLVM's SLP
//! vectoriser turns into one packed instruction each under `opt-level ≥ 2`.
//! One macro defines both. The *code shapes* of the paper's three kernel
//! variants — scalar strided, SIMD over contiguous lanes, and SIMD with the
//! load-and-transpose (LAT) trick — are preserved exactly; see
//! `vlasov6d-phase-space::sweep`.
//!
//! **One instruction per operation — checked, not assumed.** Left alone,
//! LLVM's *loop* vectoriser takes the per-position loop of the lane kernel
//! (to it, 8 × n plain `f32` operations) and re-vectorises it across
//! positions: 2,510 instructions per 8 interfaces, 263 of them lane-crossing
//! shuffles, 779 stack accesses. The body ([`crate::flux::flux_update`])
//! reads its stencil at `std::hint::black_box(j)`; a loop with opaque
//! addresses is no candidate, and the back end sees one `f32x8` operation
//! per source operation (126 instructions per interface, 97 since the
//! limiter is compare-selects; EXPERIMENTS.md, Table 1b). The update loop
//! reads at the same opaque index: left transparent, LLVM re-vectorised it
//! across positions in the `f32x16` instantiation (96 `vgatherqps` per
//! call). [`f32x8::min`] and `max` are a
//! compare-select in `minps` operand order: one instruction where `f32::min`
//! is three, for a NaN rule the kernels do not want. A lane type is the
//! body's [`Value`] at its width — `c` splats a constant rounded once to
//! `f32`; `minmod` and `minmod4` are `min`/`max` compare-selects with one
//! select for the sign of a zero, the sign-product form's bits on every
//! finite input (kerncheck proves it) — so the two widths are two impls of
//! the same trait, not two bodies.
//! To check: `objdump -d` of the `benchmark/` binary shows
//! `lanes::flux_update_avx2` (the body's `f32x8` instantiation, inlined into
//! its AVX2 entry) with no `vshuf*`/`vunpck*`/`vperm*`/`vinsertf128`/`vfmadd*`
//! and ≤ 97 instructions in its SL-MPP5 flux loop (126 with the sign-product
//! `minmod`), and the `f32x16` instantiation of `lanes::flux_update_avx512`
//! with ≤ 89 there (119).
//!
//! **Width.** Compiled for baseline x86-64 an `f32x8` operation is two
//! 4-lane SSE2 halves, an `f32x16` operation four. The two arithmetic lane
//! kernels — the flux body behind every sweep and
//! `vlasov6d-nbody::pp::SplitKernel::accel` — are each `#[inline(always)]`
//! (their helpers too: a closure LLVM declines to inline is a *call* into
//! baseline code) and entered through `#[target_feature]` shims that LLVM
//! compiles at full width: `avx2` (one 256-bit register per `f32x8`, two per
//! `f32x16`) and, for the flux body, `avx512f` (one 512-bit register per
//! `f32x16`). [`Isa::detect`] picks the entry from the CPU the process runs
//! on; which *width* runs is not the CPU's to decide but the sweep plan's —
//! two bundles of a task that share a shift are one `f32x16` on every host.
//! No shim asks for `fma` (`avx512f` implies it to LLVM, which still never
//! contracts: Rust does not allow it to), so every lane operation stays an
//! individually rounded IEEE operation, every entry produces the same bits
//! at either width, and a run is reproducible across hosts. A fused variant
//! would round differently and would have to be re-pinned against
//! kerncheck's ULP bounds. There is no way to choose the entry from outside:
//! the baseline arm is what hosts without AVX2 (and every non-x86-64 target,
//! and Miri) run. To check: `lanes::flux_update_avx512` in the same
//! disassembly computes on `zmm` registers with no
//! `vgather*`/`vshuf*`/`vperm*`/`vfmadd*`.
//!
//! **The transpose is the one place with intrinsics.** [`transpose8x8`] is the
//! Fig. 3 operation at width 8: an 8×8 f32 block held in eight lane
//! registers. Written as array exchanges (Eklundh, `8·log₂8 = 24` steps) it
//! compiled to 64 scalar loads and 64 scalar stores through the stack on
//! either ISA, which held the spatial `z` sweep and the `u_z` LAT staging at
//! half the speed of the packed directions. On x86-64 it is now SSE
//! `unpcklps`/`unpckhps`/`movlhps`/`movhlps` on the four 4×4 quadrants —
//! baseline instructions, so there is nothing to dispatch and no second path
//! on that target; the exchange loop is the body everywhere else and the
//! reference the bit-pattern test holds the intrinsics to. It is data
//! movement only, so no trajectory bit depends on which body ran. To check:
//! `ghosted_tile_task` (the spatial `z` sweep's tile body, periodic or
//! ghosted) in the same disassembly shows the four shuffles and no run of
//! `movss`.

use crate::flux::Value;

/// The instruction set the lane kernels are entered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// What the crate was compiled for: two SSE2 halves per `f32x8`, four
    /// per `f32x16` on x86-64.
    Baseline,
    /// One 256-bit register per `f32x8`, two per `f32x16`.
    Avx2,
    /// One 512-bit register per `f32x16` — the paper's SVE width; an
    /// `f32x8` stays one 256-bit register.
    Avx512,
}

impl Isa {
    /// The widest entry this host can run. `std` probes CPUID once per
    /// process and caches the answer, so the kernels ask on every call.
    /// [`Isa::Avx512`] means `avx512f` *and* `avx2` were detected, so every
    /// AVX2 entry is sound under it too.
    #[inline]
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            return Isa::Avx2;
        }
        Isa::Baseline
    }

    /// `"avx512f"` / `"avx2"` / `"baseline"` — the `kernel.isa` value in
    /// step records and bench headers.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512f",
        }
    }
}

/// Lanes per bundle: the lines one [`f32x8`] carries, and the half of an
/// [`f32x16`] one bundle of a pair occupies.
pub const LANES: usize = 8;

/// A lane vector of `f32`: position `i` of [`Lanes::WIDTH`] lines, one line
/// per lane — what the lane kernels advance ([`f32x8`], [`f32x16`]).
pub trait Lanes: Value<Out = Self> + Copy {
    /// The number of lanes.
    const WIDTH: usize;
    /// Every lane `0.0`.
    const ZERO: Self;
    /// The lanes in order.
    fn lanes(&self) -> &[f32];
    /// The lanes in order, writable.
    fn lanes_mut(&mut self) -> &mut [f32];
}

/// `−0` where `neg`, else `r`. Where the limiter asks for it `r` is `+0`, so
/// this sets its sign bit — as a select: an `or` of the shifted `bool` gave
/// the same flux loop, but LLVM scalarised the set-up `minmod4` before it in
/// the `f32x8` instantiation, with shuffles.
#[inline(always)]
fn neg_zero_if(neg: bool, r: f32) -> f32 {
    if neg {
        -0.0
    } else {
        r
    }
}

/// Defines a lane type of `$n` lanes aligned to its size: its lane-wise
/// operations, its [`Value`] instantiation of the flux body and its
/// [`Lanes`] impl — one definition for every width.
macro_rules! lane_type {
    ($(#[$doc:meta])* $name:ident, $n:literal, $align:literal) => {
        $(#[$doc])*
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        #[repr(C, align($align))]
        pub struct $name(pub [f32; $n]);

        impl $name {
            pub const ZERO: Self = Self([0.0; $n]);

            #[inline(always)]
            pub fn splat(v: f32) -> Self {
                Self([v; $n])
            }

            #[inline(always)]
            pub fn load(slice: &[f32]) -> Self {
                let mut out = [0.0f32; $n];
                out.copy_from_slice(&slice[..$n]);
                Self(out)
            }

            #[inline(always)]
            pub fn store(self, slice: &mut [f32]) {
                slice[..$n].copy_from_slice(&self.0);
            }

            /// Lane-wise minimum as one compare-select (`minps`): `o` where
            /// `o < self`, else `self` — `f32::min` on every non-NaN pair, ±0
            /// ties included. A NaN in `self` propagates; a NaN in `o`
            /// returns `self`.
            #[inline(always)]
            pub fn min(self, o: Self) -> Self {
                let pick = |a: f32, b: f32| if b < a { b } else { a };
                Self(core::array::from_fn(|i| pick(self.0[i], o.0[i])))
            }

            /// Lane-wise maximum, the mirror image of `min` (`maxps`).
            #[inline(always)]
            pub fn max(self, o: Self) -> Self {
                let pick = |a: f32, b: f32| if b > a { b } else { a };
                Self(core::array::from_fn(|i| pick(self.0[i], o.0[i])))
            }

            #[inline(always)]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                self.max(lo).min(hi)
            }

            /// `max(min(m, +0), p) + 0`: given the least (`p`) and greatest
            /// (`m`) of [`Value::minmod`]'s or [`Value::minmod4`]'s
            /// arguments, the one nearest zero where all share a sign, else
            /// `+0` (`+ 0` turns a `−0` into `+0`).
            #[inline(always)]
            fn limit(p: Self, m: Self) -> Self {
                m.min(Self::ZERO).max(p) + Self::ZERO
            }
        }

        lane_type!(@binop $name, Add, add, +);
        lane_type!(@binop $name, Sub, sub, -);
        lane_type!(@binop $name, Mul, mul, *);
        lane_type!(@binop $name, Div, div, /);

        impl core::ops::Neg for $name {
            type Output = Self;
            #[inline(always)]
            fn neg(self) -> Self {
                Self(core::array::from_fn(|i| -self.0[i]))
            }
        }

        impl core::ops::AddAssign for $name {
            #[inline(always)]
            fn add_assign(&mut self, o: Self) {
                *self = *self + o;
            }
        }

        impl core::ops::Mul<f32> for $name {
            type Output = Self;
            #[inline(always)]
            fn mul(self, s: f32) -> Self {
                self * Self::splat(s)
            }
        }

        /// The lane instantiation of the flux body: one lane operation per
        /// operation, constants rounded once to `f32`.
        impl Value for $name {
            type Out = $name;
            #[inline(always)]
            fn c(x: f64) -> Self {
                Self::splat(x as f32)
            }
            #[inline(always)]
            fn add(&self, o: &Self) -> Self {
                *self + *o
            }
            #[inline(always)]
            fn sub(&self, o: &Self) -> Self {
                *self - *o
            }
            #[inline(always)]
            fn mul(&self, o: &Self) -> Self {
                *self * *o
            }
            #[inline(always)]
            fn min(&self, o: &Self) -> Self {
                $name::min(*self, *o)
            }
            #[inline(always)]
            fn max(&self, o: &Self) -> Self {
                $name::max(*self, *o)
            }
            /// Compare-selects: `limit` of `p = min(a, b)`, `m = max(a, b)`,
            /// with the sign bit set where `p < 0` and `m` is a zero — the
            /// bits of `(sgn a + sgn b) · ½ · min(|a|, |b|)` on every finite
            /// pair. Explicit lane loops here and in `minmod4`, not per-lane
            /// closures: at width 16 LLVM outlined such a closure and called
            /// it inside the flux loop.
            #[inline(always)]
            fn minmod(&self, o: &Self) -> Self {
                let (p, m) = ($name::min(*self, *o), $name::max(*self, *o));
                let mut r = Self::limit(p, m);
                for i in 0..$n {
                    r.0[i] = neg_zero_if((p.0[i] < 0.0) & (m.0[i] == 0.0), r.0[i]);
                }
                r
            }
            /// `minmod`'s form over all four arguments. The nested
            /// sign-product stack is `−0` exactly where one pair is all
            /// negative and the other holds a zero or both signs.
            #[inline(always)]
            fn minmod4(&self, b: &Self, c: &Self, d: &Self) -> Self {
                let (p_ab, m_ab) = ($name::min(*self, *b), $name::max(*self, *b));
                let (p_cd, m_cd) = ($name::min(*c, *d), $name::max(*c, *d));
                let mut r = Self::limit(p_ab.min(p_cd), m_ab.max(m_cd));
                for i in 0..$n {
                    let (p_ab, m_ab, p_cd, m_cd) = (p_ab.0[i], m_ab.0[i], p_cd.0[i], m_cd.0[i]);
                    let ab_zero = (p_ab <= 0.0) & (m_ab >= 0.0);
                    let cd_zero = (p_cd <= 0.0) & (m_cd >= 0.0);
                    let neg = ((m_ab < 0.0) & cd_zero) | ((m_cd < 0.0) & ab_zero);
                    r.0[i] = neg_zero_if(neg, r.0[i]);
                }
                r
            }
            #[inline(always)]
            fn clamp(&self, lo: &Self, hi: &Self) -> Self {
                $name::clamp(*self, *lo, *hi)
            }
            #[inline(always)]
            fn narrow(self) -> Self {
                self
            }
        }

        impl Lanes for $name {
            const WIDTH: usize = $n;
            const ZERO: Self = Self([0.0; $n]);
            #[inline(always)]
            fn lanes(&self) -> &[f32] {
                &self.0
            }
            #[inline(always)]
            fn lanes_mut(&mut self) -> &mut [f32] {
                &mut self.0
            }
        }
    };
    (@binop $name:ident, $trait:ident, $method:ident, $op:tt) => {
        impl core::ops::$trait for $name {
            type Output = Self;
            #[inline(always)]
            fn $method(self, o: Self) -> Self {
                Self(core::array::from_fn(|i| self.0[i] $op o.0[i]))
            }
        }
    };
}

lane_type!(
    /// Eight packed `f32` lanes: one bundle. Its size equals its alignment,
    /// so an array of them has no padding (what [`transpose8x8`] relies on).
    f32x8,
    8,
    32
);

lane_type!(
    /// Sixteen packed `f32` lanes — one 512-bit SVE register of the paper:
    /// two bundles that share a shift, one per half.
    f32x16,
    16,
    64
);

/// In-register 8×8 transpose — the LAT primitive (paper Fig. 3 at width 8).
///
/// Data movement only: every one of the 64 bit patterns arrives unchanged. On
/// x86-64 it is SSE unpack/`movlhps`/`movhlps` on the four 4×4 quadrants
/// (baseline ISA, so one body whatever [`Isa::detect`] says); elsewhere, and
/// under Miri, the portable exchange loop, which is also the test reference.
#[inline(always)]
pub fn transpose8x8(rows: &mut [f32x8; 8]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    transpose8x8_sse(rows);
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    transpose8x8_portable(rows);
}

/// The block as quadrants `[A B; C D]` becomes `[Aᵀ Cᵀ; Bᵀ Dᵀ]`: each 4×4
/// quadrant is transposed in four registers (two unpacks pair rows, a
/// `movlhps`/`movhlps` pairs the pairs) and `B`, `C` trade places on the way
/// out: 32 shuffles and 32 packed moves.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline(always)]
fn transpose8x8_sse(rows: &mut [f32x8; 8]) {
    use core::arch::x86_64::{
        _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_storeu_ps, _mm_unpackhi_ps, _mm_unpacklo_ps,
    };
    // `rows` is 64 contiguous `f32`, borrowed mutably for the whole function:
    // `f32x8` is `repr(C)` over `[f32; 8]` and its size equals its alignment,
    // so the array has no padding.
    let p = rows.as_mut_ptr().cast::<f32>();
    // SAFETY: every access is a 4-float window `p[8·r + c .. 8·r + c + 4]`,
    // `r < 8`, `c ∈ {0, 4}`, of those 64, through the unaligned load/store;
    // the shuffles are SSE, part of the x86-64 baseline this `cfg` selects.
    unsafe {
        macro_rules! quadrant_t {
            ($row:expr, $col:expr) => {{
                let q = p.add(8 * $row + $col);
                let (r0, r1) = (_mm_loadu_ps(q), _mm_loadu_ps(q.add(8)));
                let (r2, r3) = (_mm_loadu_ps(q.add(16)), _mm_loadu_ps(q.add(24)));
                let (t0, t1) = (_mm_unpacklo_ps(r0, r1), _mm_unpacklo_ps(r2, r3));
                let (t2, t3) = (_mm_unpackhi_ps(r0, r1), _mm_unpackhi_ps(r2, r3));
                [
                    _mm_movelh_ps(t0, t1),
                    _mm_movehl_ps(t1, t0),
                    _mm_movelh_ps(t2, t3),
                    _mm_movehl_ps(t3, t2),
                ]
            }};
        }
        let (a, b) = (quadrant_t!(0, 0), quadrant_t!(0, 4));
        let (c, d) = (quadrant_t!(4, 0), quadrant_t!(4, 4));
        for r in 0..4 {
            _mm_storeu_ps(p.add(8 * r), a[r]);
            _mm_storeu_ps(p.add(8 * r + 4), c[r]);
            _mm_storeu_ps(p.add(8 * (r + 4)), b[r]);
            _mm_storeu_ps(p.add(8 * (r + 4) + 4), d[r]);
        }
    }
}

/// Eklundh's algorithm, the `n log₂ n` exchange structure the paper counts
/// ("64 instructions for 16×16"): at stage `s` every register pair
/// `(r, r+s)` with `r & s == 0` exchanges its off-diagonal s-wide lane groups
/// — one two-register shuffle per pair, 3 stages × 4 pairs. Bit `s` of the
/// row index trades places with bit `s` of the column index, so after stages
/// 1, 2, 4 the block is fully transposed.
#[cfg(any(test, miri, not(target_arch = "x86_64")))]
#[inline(always)]
fn transpose8x8_portable(rows: &mut [f32x8; 8]) {
    let mut s = 1usize;
    while s < 8 {
        let mut r = 0usize;
        while r < 8 {
            if r & s == 0 {
                let lo = rows[r].0;
                let hi = rows[r + s].0;
                let mut new_lo = lo;
                let mut new_hi = hi;
                let mut c = 0usize;
                while c < 8 {
                    if c & s != 0 {
                        new_lo[c] = hi[c - s];
                        new_hi[c - s] = lo[c];
                    }
                    c += 1;
                }
                rows[r].0 = new_lo;
                rows[r + s].0 = new_hi;
            }
            r += 1;
        }
        s <<= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splat_and_arithmetic() {
        let a = f32x8::splat(2.0);
        let b = f32x8([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!((a + b).0, [3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((a * b).0, [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
        assert_eq!((b - a).0, [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn min_max_clamp() {
        let a = f32x8([1.0, 5.0, -3.0, 0.0, 2.0, -2.0, 8.0, -8.0]);
        let lo = f32x8::splat(-1.0);
        let hi = f32x8::splat(2.0);
        let c = a.clamp(lo, hi);
        assert_eq!(c.0, [1.0, 2.0, -1.0, 0.0, 2.0, -1.0, 2.0, -1.0]);
    }

    /// The contract of `min`/`max`, at both widths: `f32::min`/`f32::max`
    /// to the bit on every non-NaN pair (normals, denormals, ±∞, all four ±0
    /// pairings, either operand order), and for NaN the `minps` rule — a NaN
    /// in `self` propagates, a NaN in the argument returns `self`.
    #[test]
    fn min_max_match_f32_bitwise_and_propagate_nan_in_self() {
        min_max_contract::<f32x8>();
        min_max_contract::<f32x16>();
    }

    fn min_max_contract<V: Lanes>() {
        use std::hint::black_box;
        let splat = |x: f32| {
            let mut v = V::ZERO;
            v.lanes_mut().fill(x);
            v
        };
        let grid = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            1.5,
            -2.5e-3,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-40,
            -3e-42,
            f32::from_bits(1),
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for &a in &grid {
            for &b in &grid {
                // `black_box`: the run-time lowering, not a constant fold.
                let (va, vb) = (splat(black_box(a)), splat(black_box(b)));
                let (lo, hi) = (va.min(&vb), va.max(&vb));
                let (want_lo, want_hi) = (
                    black_box(a).min(black_box(b)),
                    black_box(a).max(black_box(b)),
                );
                for l in 0..V::WIDTH {
                    let (lo, hi) = (lo.lanes()[l], hi.lanes()[l]);
                    assert_eq!(lo.to_bits(), want_lo.to_bits(), "min({a:e}, {b:e})");
                    assert_eq!(hi.to_bits(), want_hi.to_bits(), "max({a:e}, {b:e})");
                }
            }
            let (va, nan) = (splat(a), splat(f32::NAN));
            for l in 0..V::WIDTH {
                assert!(nan.min(&va).lanes()[l].is_nan() && nan.max(&va).lanes()[l].is_nan());
                assert!(nan.clamp(&va, &va).lanes()[l].is_nan());
                assert_eq!(va.min(&nan).lanes()[l].to_bits(), a.to_bits());
                assert_eq!(va.max(&nan).lanes()[l].to_bits(), a.to_bits());
            }
        }
    }

    #[test]
    fn load_store_round_trip() {
        let src: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let v = f32x8::load(&src);
        let mut dst = vec![0.0f32; 8];
        v.store(&mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn transpose_is_its_own_inverse() {
        let mut rows: [f32x8; 8] =
            core::array::from_fn(|r| f32x8(core::array::from_fn(|c| (r * 8 + c) as f32)));
        let orig = rows;
        transpose8x8(&mut rows);
        // Spot-check the transposed layout.
        assert_eq!(rows[0].0[3], 24.0); // column 0 of row 3
        assert_eq!(rows[5].0[2], 21.0); // (r=5,c=2) <- (2,5) = 2*8+5
        transpose8x8(&mut rows);
        assert_eq!(rows, orig);
    }

    #[test]
    fn transpose_moves_every_element_correctly() {
        let mut rows: [f32x8; 8] =
            core::array::from_fn(|r| f32x8(core::array::from_fn(|c| (100 * r + c) as f32)));
        transpose8x8(&mut rows);
        for r in 0..8 {
            for c in 0..8 {
                assert_eq!(rows[r].0[c], (100 * c + r) as f32);
            }
        }
    }

    /// The transpose is data movement: whatever body `transpose8x8` compiled
    /// to on this target moves all 64 *bit patterns* exactly as the portable
    /// exchange loop does — NaN payloads (quiet and signalling, either sign),
    /// ±0, denormals and ±∞ included — and twice is the identity.
    #[test]
    fn transpose_matches_the_portable_reference_on_every_bit_pattern() {
        const SPECIAL: [u32; 16] = [
            0x7fc0_0000, // quiet NaN
            0xffc1_2345, // quiet NaN, sign and payload
            0x7f80_0001, // signalling NaN
            0xffbf_ffff, // signalling NaN, sign and full payload
            0x7fff_ffff,
            0x0000_0000,
            0x8000_0000, // −0
            0x0000_0001, // smallest denormal
            0x807f_ffff, // largest denormal, negative
            0x0040_0000,
            0x7f80_0000, // +∞
            0xff80_0000, // −∞
            0x0080_0000, // MIN_POSITIVE
            0x7f7f_ffff, // MAX
            0x3f80_0000, // 1.0
            0xbf80_0000,
        ];
        for tile in 0..8u32 {
            // 64 distinct patterns: the specials at tile-dependent places,
            // the rest from an odd-multiplier bijection of the index.
            let bits: [u32; 64] = core::array::from_fn(|k| {
                let k = (k as u32 * 5 + tile * 11) % 64;
                match SPECIAL.get(k as usize) {
                    Some(&s) => s,
                    None => (k + 64 * tile).wrapping_mul(0x9e37_79b9) | 0x0100_0000,
                }
            });
            let mut seen = bits.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 64, "tile {tile}: patterns must be distinct");

            let orig: [f32x8; 8] = core::array::from_fn(|r| {
                f32x8(core::array::from_fn(|c| f32::from_bits(bits[8 * r + c])))
            });
            let (mut got, mut want) = (orig, orig);
            transpose8x8(&mut got);
            transpose8x8_portable(&mut want);
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!(
                        want[r].0[c].to_bits(),
                        bits[8 * c + r],
                        "reference ({r},{c})"
                    );
                    assert_eq!(
                        got[r].0[c].to_bits(),
                        bits[8 * c + r],
                        "tile {tile} ({r},{c})"
                    );
                }
            }
            transpose8x8(&mut got);
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!(got[r].0[c].to_bits(), bits[8 * r + c], "twice ({r},{c})");
                }
            }
        }
    }
}
