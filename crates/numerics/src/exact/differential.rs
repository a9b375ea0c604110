//! Differential battery: the flat [`ExactVec`] against the layout it
//! replaced — one independent [`ExactSum`] per point, kept here only as
//! the oracle. Every test applies the same calls to both and requires
//! bit-equal `value(i)` for every point and byte-equal `encode_into`.
//!
//! Run it at a larger case count with
//! `PROPTEST_CASES=4096 cargo test -p knnshap_numerics --lib exact::differential`.

use super::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The previous `ExactVec` storage: one `ExactSum` per point.
#[derive(Debug, Clone)]
struct OracleVec {
    sums: Vec<ExactSum>,
}

impl OracleVec {
    fn zeros(n: usize) -> Self {
        Self {
            sums: vec![ExactSum::new(); n],
        }
    }

    fn add_dense(&mut self, xs: &[f64]) {
        for (s, &x) in self.sums.iter_mut().zip(xs) {
            s.add(x);
        }
    }

    fn merge(&mut self, other: &OracleVec) {
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            a.merge(b);
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in &self.sums {
            s.encode_into(&mut out);
        }
        out
    }
}

/// One call, applied identically to a flat vector and its oracle.
#[derive(Debug, Clone)]
enum Op {
    Add(usize, f64),
    AddDense(Vec<f64>),
    MergeScalar(usize, ExactSum),
}

fn apply(op: &Op, flat: &mut ExactVec, oracle: &mut OracleVec) {
    match op {
        Op::Add(i, x) => {
            flat.add(*i, *x);
            oracle.sums[*i].add(*x);
        }
        Op::AddDense(xs) => {
            flat.add_dense(xs);
            oracle.add_dense(xs);
        }
        Op::MergeScalar(i, s) => {
            flat.merge_scalar(*i, s);
            oracle.sums[*i].merge(s);
        }
    }
}

fn encode(v: &ExactVec) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode_into(&mut out);
    out
}

/// Bit-equal values for every point and byte-equal records; then the
/// decoded plane must re-encode to the same bytes and round the same.
fn check(flat: &ExactVec, oracle: &OracleVec, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(flat.len(), oracle.sums.len());
    for (i, s) in oracle.sums.iter().enumerate() {
        prop_assert_eq!(
            flat.value(i).to_bits(),
            s.value().to_bits(),
            "{}: point {} flat {:?} oracle {:?}",
            what,
            i,
            flat.value(i),
            s.value()
        );
    }
    let bytes = encode(flat);
    prop_assert!(bytes == oracle.encode(), "{}: records differ", what);
    let mut pos = 0;
    let back = ExactVec::decode_from(&bytes, &mut pos, flat.len()).expect("decodes");
    prop_assert_eq!(pos, bytes.len());
    prop_assert!(encode(&back) == bytes, "{}: decode/encode round trip", what);
    for i in 0..flat.len() {
        prop_assert_eq!(back.value(i).to_bits(), flat.value(i).to_bits());
    }
    Ok(())
}

/// `2^e` for any `e` in the subnormal-to-max range, exactly.
fn pow2(e: i32) -> f64 {
    if e < -1022 {
        return pow2(e + 600) * pow2(-600);
    }
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Summand generator: mostly near a partial's base exponent `base`, with
/// full-range finite values, subnormals, ±0, ±inf, NaN, huge magnitudes and
/// exact negations of earlier summands mixed in.
struct Summands {
    rng: StdRng,
    history: Vec<f64>,
    /// Percent chance of drawing from the full exponent range.
    wild: u32,
}

impl Summands {
    fn draw(&mut self, base: i32) -> f64 {
        let rng = &mut self.rng;
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        let roll = rng.gen_range(0..100u32);
        let x = if roll < 10 && !self.history.is_empty() {
            // Exact cancellation of an earlier summand.
            -self.history[rng.gen_range(0..self.history.len())]
        } else if roll < 10 + self.wild {
            // Any finite f64, subnormals included.
            let exp = rng.gen_range(0..0x7FFu64);
            let frac = rng.gen::<u64>() & ((1 << 52) - 1);
            sign * f64::from_bits(exp << 52 | frac)
        } else if roll < 16 + self.wild {
            sign * f64::from_bits(rng.gen_range(1..1u64 << 52))
        } else if roll < 19 + self.wild {
            sign * 0.0
        } else if roll < 21 + self.wild {
            sign * f64::INFINITY
        } else if roll < 22 + self.wild {
            f64::NAN
        } else if roll < 23 + self.wild {
            sign * f64::MAX * rng.gen_range(0.5..1.0)
        } else {
            let e = (base + rng.gen_range(-48..48i32)).clamp(-1074, 1023);
            rng.gen_range(-1.0..1.0) * pow2(e)
        };
        if x.is_finite() && x != 0.0 {
            self.history.push(x);
        }
        x
    }

    fn op(&mut self, n: usize, base: i32) -> Op {
        let i = self.rng.gen_range(0..n);
        match self.rng.gen_range(0..10u32) {
            0..=4 => Op::Add(i, self.draw(base)),
            5..=7 => {
                let density = self.rng.gen_range(0.0..1.0);
                let xs = (0..n)
                    .map(|_| {
                        if self.rng.gen::<f64>() < density {
                            self.draw(base)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                Op::AddDense(xs)
            }
            _ => {
                let mut s = ExactSum::new();
                for _ in 0..self.rng.gen_range(1..5) {
                    s.add(self.draw(base));
                }
                if self.rng.gen_range(0..4) == 0 {
                    s.sweep_carries();
                }
                Op::MergeScalar(i, s)
            }
        }
    }
}

/// Split one random call stream over 1–4 partial vectors (each with its
/// own base exponent, so windows overlap, nest or are disjoint), check
/// every partial, then merge the partials in a random order — into a fresh
/// vector or into one of them — and check the total.
fn run_stream(seed: u64, wild: u32, base_range: std::ops::Range<i32>) -> Result<(), TestCaseError> {
    let mut g = Summands {
        rng: StdRng::seed_from_u64(seed),
        history: Vec::new(),
        wild,
    };
    let n = g.rng.gen_range(1..14usize);
    let parts = g.rng.gen_range(1..5usize);
    let base = g.rng.gen_range(base_range.clone());
    let bases: Vec<i32> = (0..parts)
        .map(|_| match g.rng.gen_range(0..3) {
            0 => base,
            1 => (base + g.rng.gen_range(-64..64i32)).clamp(-1074, 1023),
            _ => g.rng.gen_range(base_range.clone()),
        })
        .collect();
    let mut flat: Vec<ExactVec> = (0..parts).map(|_| ExactVec::zeros(n)).collect();
    let mut oracle: Vec<OracleVec> = (0..parts).map(|_| OracleVec::zeros(n)).collect();
    for _ in 0..g.rng.gen_range(0..120) {
        let p = g.rng.gen_range(0..parts);
        let op = g.op(n, bases[p]);
        apply(&op, &mut flat[p], &mut oracle[p]);
        if g.rng.gen_range(0..20) == 0 {
            // A carry sweep is invisible in the bits.
            flat[p].sweep_carries();
        }
    }
    for p in 0..parts {
        check(&flat[p], &oracle[p], &format!("partial {p}"))?;
    }
    let mut order: Vec<usize> = (0..parts).collect();
    for k in (1..parts).rev() {
        order.swap(k, g.rng.gen_range(0..=k));
    }
    let (mut total, mut total_oracle) = if g.rng.gen::<bool>() {
        (ExactVec::zeros(n), OracleVec::zeros(n))
    } else {
        let first = order.remove(0);
        (flat[first].clone(), oracle[first].clone())
    };
    for &p in &order {
        total.merge(&flat[p]);
        total_oracle.merge(&oracle[p]);
    }
    check(&total, &total_oracle, "merged")?;

    // A decoded plane keeps merging exactly.
    let bytes = encode(&total);
    let mut pos = 0;
    let mut back = ExactVec::decode_from(&bytes, &mut pos, n).expect("decodes");
    back.merge(&flat[0]);
    total_oracle.merge(&oracle[0]);
    check(&back, &total_oracle, "decoded + merged")
}

proptest! {
    /// Full exponent range −1074…1023: subnormals, ±0, ±inf, NaN, spills at
    /// deposit and merge time, windows near the top of the register.
    #[test]
    fn flat_matches_oracle_full_range(seed in any::<u64>()) {
        run_stream(seed, 12, -1070..1021)?;
    }

    /// Valuation-like magnitudes: the shared window and its fast paths.
    #[test]
    fn flat_matches_oracle_narrow_range(seed in any::<u64>()) {
        run_stream(seed, 0, -60..4)?;
    }
}

/// Unit-scale deposits plus `extra`, each into its own point.
fn unit_vec(n: usize, extra: &[(usize, f64)]) -> (ExactVec, OracleVec) {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let (mut flat, mut oracle) = (ExactVec::zeros(n), OracleVec::zeros(n));
    let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    apply(&Op::AddDense(xs), &mut flat, &mut oracle);
    for &(i, x) in extra {
        apply(&Op::Add(i, x), &mut flat, &mut oracle);
    }
    (flat, oracle)
}

fn assert_matches(flat: &ExactVec, oracle: &OracleVec, what: &str) {
    if let Err(e) = check(flat, oracle, what) {
        panic!("{e:?}");
    }
}

#[test]
fn outlier_deposit_spills_and_stays_exact() {
    let (flat, oracle) = unit_vec(6, &[(2, 1e300), (2, -0.25), (4, 1e-300)]);
    assert!(flat.width <= WIDTH_CAP);
    assert_eq!(
        flat.spill.keys().copied().collect::<Vec<_>>(),
        vec![2, 4],
        "both outliers spill"
    );
    assert_matches(&flat, &oracle, "deposit spill");
}

#[test]
fn outlier_merge_spills_and_stays_exact() {
    let (mut flat, mut oracle) = unit_vec(5, &[]);
    let (mut tiny, mut tiny_oracle) = (ExactVec::zeros(5), OracleVec::zeros(5));
    let xs = [3e-290, 0.0, -7e-291, 1e-289, 0.0];
    apply(&Op::AddDense(xs.to_vec()), &mut tiny, &mut tiny_oracle);
    flat.merge(&tiny);
    oracle.merge(&tiny_oracle);
    assert_eq!(
        flat.spill.keys().copied().collect::<Vec<_>>(),
        vec![0, 2, 3]
    );
    assert_matches(&flat, &oracle, "merge spill");
    // The other direction: the unit-scale rows spill into the tiny plane.
    tiny.merge(&unit_vec(5, &[]).0);
    tiny_oracle.merge(&unit_vec(5, &[]).1);
    assert_eq!(tiny.spill.len(), 5);
    assert_matches(&tiny, &tiny_oracle, "reverse merge spill");
}

#[test]
fn disjoint_windows_merge_within_the_cap() {
    let (mut a, mut a_oracle) = unit_vec(4, &[]);
    let (mut b, mut b_oracle) = (ExactVec::zeros(4), OracleVec::zeros(4));
    let xs = [pow2(-150), -pow2(-149), 0.0, 3.0 * pow2(-151)];
    apply(&Op::AddDense(xs.to_vec()), &mut b, &mut b_oracle);
    assert!(b.start + b.width <= a.start, "windows are disjoint");
    a.merge(&b);
    a_oracle.merge(&b_oracle);
    assert!(a.spill.is_empty(), "the union fits the cap");
    assert_matches(&a, &a_oracle, "disjoint windows");
}

#[test]
fn exact_cancellation_returns_to_the_zero_record() {
    let xs = [0.1, -3.5e-9, 7.0, f64::from_bits(5)];
    let (mut flat, mut oracle) = (ExactVec::zeros(4), OracleVec::zeros(4));
    apply(&Op::AddDense(xs.to_vec()), &mut flat, &mut oracle);
    let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
    apply(&Op::AddDense(neg), &mut flat, &mut oracle);
    assert_matches(&flat, &oracle, "cancelled");
    assert_eq!(flat.values(), vec![0.0; 4]);
    assert_eq!(encode(&flat), vec![0u8; 20], "four zero records");
}

#[test]
fn carry_out_of_the_top_limb_spills() {
    let (mut flat, mut oracle) = unit_vec(3, &[]);
    // A row whose top limb is far outside the post-sweep bound.
    let mut limbs = vec![0i64; flat.width];
    limbs[flat.width - 1] = 5 << 40;
    limbs[0] = -(3 << 35);
    let s = ExactSum::from_window(flat.start, &limbs, 0);
    apply(&Op::MergeScalar(1, s), &mut flat, &mut oracle);
    flat.sweep_carries();
    assert!(flat.spill.contains_key(&1), "the carry left the window");
    assert!(flat.plane.iter().all(|l| l.abs() <= 1 << 31));
    assert_matches(&flat, &oracle, "top carry");
}

#[test]
fn scalar_carry_past_the_register_spills() {
    let (mut flat, mut oracle) = unit_vec(2, &[]);
    // −2²¹⁷⁶ plus a few low limbs: only `ExactSum::top` can hold it.
    let mut s = ExactSum::from_window(40, &[7, -3], 0);
    s.top = -1;
    apply(&Op::MergeScalar(0, s), &mut flat, &mut oracle);
    assert!(flat.spill.contains_key(&0));
    for (i, o) in oracle.sums.iter().enumerate() {
        assert_eq!(flat.value(i).to_bits(), o.value().to_bits(), "point {i}");
    }
    assert_eq!(flat.value(0), f64::NEG_INFINITY);
}

#[test]
fn windows_near_the_register_top_round_through_the_slow_path() {
    let xs = [f64::MAX, -f64::MAX * 0.75, 1e300, f64::MAX];
    let (mut flat, mut oracle) = (ExactVec::zeros(4), OracleVec::zeros(4));
    apply(&Op::AddDense(xs.to_vec()), &mut flat, &mut oracle);
    apply(&Op::AddDense(xs.to_vec()), &mut flat, &mut oracle);
    assert!(flat.start + flat.width + 3 > LIMBS);
    assert_eq!(flat.value(0), f64::INFINITY, "2·MAX overflows like f64");
    assert_matches(&flat, &oracle, "register top");
}

#[test]
fn decode_allocation_is_bounded_by_the_cap() {
    // n zero records, then one record spanning the whole register.
    let n = 1000;
    let mut buf = vec![0u8; 5 * n];
    buf.extend_from_slice(&[1, 0, 0, LIMBS as u8, 0]);
    for _ in 0..LIMBS {
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
    }
    let mut pos = 0;
    let v = ExactVec::decode_from(&buf, &mut pos, n + 1).expect("decodes");
    assert_eq!(pos, buf.len());
    assert!(v.window_limbs() <= (n + 1) * WIDTH_CAP + LIMBS);
    assert_eq!(v.spill.len(), 1);
    let mut s = ExactSum::new();
    s.merge(&ExactSum::decode_from(&buf, &mut (5 * n)).unwrap());
    assert_eq!(v.value(n).to_bits(), s.value().to_bits());
    assert!(encode(&v) == buf);
}
