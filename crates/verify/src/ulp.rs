//! ULP distance between `f64`s, via the standard monotone bit-key trick:
//! reinterpret the sign-magnitude IEEE-754 encoding as a two's-complement-like
//! total order, so the integer distance between two keys is exactly the
//! number of representable values strictly between them (plus one).

/// Monotone integer key: `a <= b` (as floats, −0 and +0 tied) iff
/// `key(a) <= key(b)`.
fn key_f64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// ULP distance between two `f64`s. `0` iff `a == b` (so `−0 == +0` counts
/// as equal); `u64::MAX` if either is NaN.
pub(crate) fn ulp_diff_f64(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    if a == b {
        return 0;
    }
    key_f64(a).abs_diff(key_f64(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miri_smoke_ulp_distance_basics() {
        assert_eq!(ulp_diff_f64(1.0, 1.0), 0);
        assert_eq!(ulp_diff_f64(0.0, -0.0), 0);
        assert_eq!(ulp_diff_f64(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_diff_f64(-1.0, -1.0 - f64::EPSILON), 1);
        // Distance crosses zero correctly: the smallest denormals of each
        // sign are 3 apart (−0 and +0 are distinct representables between
        // them under the bit-key order, though they compare equal).
        let tiny = f64::from_bits(1);
        assert_eq!(ulp_diff_f64(tiny, -tiny), 3);
        assert_eq!(ulp_diff_f64(f64::NAN, 1.0), u64::MAX);
    }
}
