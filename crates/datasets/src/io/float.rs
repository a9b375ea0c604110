//! Decimal cell → `f32`, bit-identical to `str::parse::<f32>`.
//!
//! Clinger's fast path: a decimal `m · 10^e` with `m < 10^15` and
//! `|e| ≤ 22` has both factors exact in `f64`, so one IEEE multiply or
//! divide gives the correctly rounded `f64` of the decimal. The cast to
//! `f32` rounds a second time, and that double rounding can only differ
//! from a direct rounding when the `f64` lands exactly on an `f32`
//! midpoint. Those inputs, zeros, results outside the normal `f32` range
//! and every other shape of cell go to `str::parse::<f32>`, so both the
//! values and the error texts are the standard library's.

use std::num::ParseFloatError;

/// Powers of ten that are exact in `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Most significant digits whose integer is exact in `f64`.
const MAX_DIGITS: u32 = 15;

/// Longest fraction, and largest exponent, the fast path reads; longer
/// ones go to `str::parse`, so the exponent sum never overflows.
const MAX_EXP: usize = 1000;

/// The `f64` significand bits the cast to `f32` drops, and the pattern they
/// hold when the `f64` sits exactly halfway between two `f32`s.
const DROPPED: u64 = (1 << 29) - 1;
const HALFWAY: u64 = 1 << 28;

/// `s.parse::<f32>()`, with a fast path for `[+-]digits[.digits][e±dd]`.
pub(crate) fn parse_f32(s: &str) -> Result<f32, ParseFloatError> {
    match fast_prefix(s.as_bytes()) {
        Some((v, used)) if used == s.len() => Ok(v),
        _ => s.parse(),
    }
}

/// The fast path over the longest number-shaped prefix of `s`: the value
/// and the bytes it spans, or `None` to ask `str::parse`. When the prefix
/// is a whole cell, the value is exactly `str::parse::<f32>` of that cell.
pub(crate) fn fast_prefix(s: &[u8]) -> Option<(f32, usize)> {
    let at = |i: usize| s.get(i).map_or(10, |&c| c.wrapping_sub(b'0'));
    let (neg, mut i) = match s.first() {
        Some(b'-') => (true, 1),
        Some(b'+') => (false, 1),
        _ => (false, 0),
    };
    // Mantissa digits; `m` counts a digit as significant from its first
    // non-zero one on. Past MAX_DIGITS the wrapped `m` is never used.
    let (mut m, mut digits) = (0u64, 0u32);
    let mut digit = |d: u8| {
        m = m.wrapping_mul(10).wrapping_add(u64::from(d));
        digits = digits.saturating_add(u32::from(m != 0));
    };
    let int_start = i;
    while at(i) < 10 {
        digit(at(i));
        i += 1;
    }
    let mut seen = i > int_start;
    let mut exp = 0i32;
    if s.get(i) == Some(&b'.') {
        i += 1;
        let frac_start = i;
        while at(i) < 10 {
            digit(at(i));
            i += 1;
        }
        seen |= i > frac_start;
        if i - frac_start > MAX_EXP {
            return None;
        }
        exp = -((i - frac_start) as i32);
    }
    if !seen || digits > MAX_DIGITS {
        return None;
    }
    if s.get(i).is_some_and(|&c| c | 0x20 == b'e') {
        i += 1;
        let eneg = s.get(i) == Some(&b'-');
        if matches!(s.get(i), Some(b'-' | b'+')) {
            i += 1;
        }
        let (e_start, mut e) = (i, 0i32);
        while at(i) < 10 {
            e = e * 10 + i32::from(at(i));
            if e > MAX_EXP as i32 {
                return None;
            }
            i += 1;
        }
        if i == e_start {
            return None;
        }
        exp += if eneg { -e } else { e };
    }
    let p = *POW10.get(exp.unsigned_abs() as usize)?;
    if m == 0 {
        return None;
    }
    let x = if exp < 0 { m as f64 / p } else { m as f64 * p };
    if x.to_bits() & DROPPED == HALFWAY {
        return None;
    }
    let v = x as f32;
    if !v.is_normal() {
        return None;
    }
    Some((if neg { -v } else { v }, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `parse_f32` and `str::parse::<f32>` agree: equal bits, or equal
    /// error text.
    fn agrees(s: &str) -> Result<(), TestCaseError> {
        match (parse_f32(s), s.parse::<f32>()) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.to_bits(), b.to_bits(), "{:?}", s),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string(), "{:?}", s),
            (a, b) => prop_assert!(false, "{:?}: {:?} vs {:?}", s, a, b),
        }
        Ok(())
    }

    fn digits(rng: &mut StdRng, n: usize) -> String {
        (0..n)
            .map(|_| char::from(b'0' + rng.gen_range(0u8..10)))
            .collect()
    }

    fn sign(rng: &mut StdRng) -> &'static str {
        ["", "-", "+"][rng.gen_range(0usize..3)]
    }

    #[test]
    fn odd_shapes_match_str_parse() {
        for s in [
            "-0.0",
            "+1",
            ".5",
            "5.",
            "1e",
            "inf",
            "NaN",
            "1_0",
            "0",
            "-0",
            "+0.000",
            "0e5",
            ".",
            "-",
            "+",
            "",
            "e5",
            ".e1",
            "1e+",
            "1e-",
            "1E5",
            "1e+05",
            "1e0005",
            "+-1",
            "1.2.3",
            "1..2",
            "--1",
            " 1",
            "1 ",
            "0x10",
            "infinity",
            "-inf",
            "nan",
            "1e39",
            "-1e39",
            "3.4028235e38",
            "3.4028236e38",
            "1e-38",
            "1e-45",
            "1e-46",
            "1.17549435e-38",
            "999999999999999",
            "9999999999999999",
            "123456789012345e22",
            "1e22",
            "1e23",
            "1e-22",
            "1e-23",
            "0.000000000000000000000000001",
            "16777217",
            "16777219",
            "33554435",
            "0.1",
            "0.2",
            "0.3",
            "100000000000000000000",
        ] {
            agrees(s).unwrap();
        }
    }

    /// Fractions and exponents too long for the fast path's exponent
    /// arithmetic, including ones whose true exponent is small.
    #[test]
    fn long_fractions_and_exponents_match_str_parse() {
        for (zeros, exp) in [(989, 1005), (999, 1010), (1500, 1510), (30, 25), (0, 99999)] {
            for sign in ["", "-"] {
                agrees(&format!("0.{}1e{sign}{exp}", "0".repeat(zeros))).unwrap();
                agrees(&format!("1.{}e{sign}{exp}", "0".repeat(zeros))).unwrap();
            }
        }
        agrees(&format!("1e{}", "9".repeat(40))).unwrap();
        agrees(&format!("1e-{}", "9".repeat(40))).unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Shortest round-trip strings of random `f32` bit patterns, in both
        /// notations `{}` and `{:e}` produce.
        #[test]
        fn shortest_repr_of_random_bits(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..256 {
                let v = f32::from_bits(rng.gen::<u32>());
                agrees(&format!("{v}"))?;
                agrees(&format!("{v:e}"))?;
            }
        }

        /// Signed decimals of 1–20 digits with a point somewhere in them.
        #[test]
        fn random_decimals(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..256 {
                let n = rng.gen_range(1usize..=20);
                let d = digits(&mut rng, n);
                let at = rng.gen_range(0..=n);
                agrees(&format!("{}{}.{}", sign(&mut rng), &d[..at], &d[at..]))?;
            }
        }

        /// Mantissas with an exponent, either case and sign, in and just
        /// outside the fast path's range.
        #[test]
        fn exponent_forms(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..256 {
                let n = rng.gen_range(1usize..=17);
                let d = digits(&mut rng, n);
                let e = ["e", "E"][rng.gen_range(0usize..2)];
                let x = rng.gen_range(0i32..=50);
                let mant = match rng.gen_range(0u8..3) {
                    0 => d.clone(),
                    1 => format!("{}.{}", &d[..1], &d[1..]),
                    _ => format!("0.{d}"),
                };
                agrees(&format!("{}{mant}{e}{}{x}", sign(&mut rng), sign(&mut rng)))?;
            }
        }

        /// Decimals printed within one last-digit step of the exact midpoint
        /// between two adjacent `f32`s — where a double rounding would show.
        #[test]
        fn near_midpoints(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..256 {
                let lo = f32::from_bits(rng.gen_range(0x0080_0000u32..0x7f7f_ffff));
                let mid = (f64::from(lo) + f64::from(f32::from_bits(lo.to_bits() + 1))) / 2.0;
                // The shortest strings that read back as the midpoint itself.
                agrees(&format!("{mid}"))?;
                agrees(&format!("{mid:e}"))?;
                let prec = rng.gen_range(1usize..=16);
                let s = format!("{mid:.prec$e}");
                let (mant, exp) = s.split_once('e').unwrap();
                // Step the last printed digit by -1, 0 or +1.
                let (int, frac) = mant.split_once('.').unwrap();
                let step = rng.gen_range(-1i64..=1);
                let m: i64 = format!("{int}{frac}").parse::<i64>().unwrap() + step;
                let m = m.to_string();
                let s = format!("{}.{}e{exp}", &m[..1], &m[1..]);
                agrees(&s)?;
            }
        }
    }
}
