//! Differential battery: the row-blocked [`ExactVec`] against the layout
//! it replaced — one independent [`ExactSum`] per point, kept here only as
//! the oracle. Every test applies the same calls to both and requires
//! bit-equal `value(i)` for every point and byte-equal `encode_into`.
//! Short vectors (one block) exercise a block's window, spills and
//! specials; vectors around and past [`ExactVec::BLOCK`] rows exercise
//! blocks whose windows, spills and specials differ from their neighbours'.
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

/// Vector lengths just below, at and past one block, and a ragged
/// multi-block length.
const BLOCKED_SIZES: [usize; 4] = [
    ExactVec::BLOCK - 1,
    ExactVec::BLOCK,
    ExactVec::BLOCK + 1,
    3 * ExactVec::BLOCK + 7,
];

/// Split one random call stream of up to `max_ops` calls over 1–4 partial
/// vectors of one length drawn from `sizes` (each partial with its own base
/// exponent, so windows overlap, nest or are disjoint), check every
/// partial, then merge the partials in a random order — into a fresh
/// vector or into one of them — and check the total.
fn run_stream(
    seed: u64,
    wild: u32,
    base_range: std::ops::Range<i32>,
    sizes: &[usize],
    max_ops: usize,
) -> Result<(), TestCaseError> {
    let mut g = Summands {
        rng: StdRng::seed_from_u64(seed),
        history: Vec::new(),
        wild,
    };
    let n = sizes[g.rng.gen_range(0..sizes.len())];
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
    for _ in 0..g.rng.gen_range(0..max_ops) {
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

/// One-block lengths 1–13.
const SHORT_SIZES: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13];

proptest! {
    /// Full exponent range −1074…1023: subnormals, ±0, ±inf, NaN, spills at
    /// deposit and merge time, windows near the top of the register.
    #[test]
    fn flat_matches_oracle_full_range(seed in any::<u64>()) {
        run_stream(seed, 12, -1070..1021, &SHORT_SIZES, 120)?;
    }

    /// Valuation-like magnitudes: the shared window and its fast paths.
    #[test]
    fn flat_matches_oracle_narrow_range(seed in any::<u64>()) {
        run_stream(seed, 0, -60..4, &SHORT_SIZES, 120)?;
    }
}

proptest! {
    // Each case deposits thousands of points; a few hundred cases already
    // put spills and specials in every block position many times over.
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.min(256)))]

    /// Lengths around and past one block, full exponent range: sparse
    /// deposits land spills and specials in random blocks, and each block
    /// opens and widens its own window.
    #[test]
    fn blocked_matches_oracle_full_range(seed in any::<u64>()) {
        run_stream(seed, 12, -1070..1021, &BLOCKED_SIZES, 24)?;
    }

    /// Lengths around and past one block, valuation-like magnitudes.
    #[test]
    fn blocked_matches_oracle_narrow_range(seed in any::<u64>()) {
        run_stream(seed, 0, -60..4, &BLOCKED_SIZES, 24)?;
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

/// The one block of a vector shorter than a block.
fn only(v: &ExactVec) -> &ExactBlock {
    assert_eq!(v.blocks.len(), 1, "one block");
    &v.blocks[0]
}

/// The points whose state has a spill, as vector indices.
fn spilled(v: &ExactVec) -> Vec<usize> {
    let base = |b: usize| b * ExactVec::BLOCK;
    v.blocks
        .iter()
        .enumerate()
        .flat_map(|(b, blk)| blk.spill.keys().map(move |&r| base(b) + r))
        .collect()
}

#[test]
fn outlier_deposit_spills_and_stays_exact() {
    let (flat, oracle) = unit_vec(6, &[(2, 1e300), (2, -0.25), (4, 1e-300)]);
    assert!(only(&flat).width <= WIDTH_CAP);
    assert_eq!(spilled(&flat), vec![2, 4], "both outliers spill");
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
    assert_eq!(spilled(&flat), vec![0, 2, 3]);
    assert_matches(&flat, &oracle, "merge spill");
    // The other direction: the unit-scale rows spill into the tiny plane.
    tiny.merge(&unit_vec(5, &[]).0);
    tiny_oracle.merge(&unit_vec(5, &[]).1);
    assert_eq!(spilled(&tiny).len(), 5);
    assert_matches(&tiny, &tiny_oracle, "reverse merge spill");
}

#[test]
fn disjoint_windows_merge_within_the_cap() {
    let (mut a, mut a_oracle) = unit_vec(4, &[]);
    let (mut b, mut b_oracle) = (ExactVec::zeros(4), OracleVec::zeros(4));
    let xs = [pow2(-150), -pow2(-149), 0.0, 3.0 * pow2(-151)];
    apply(&Op::AddDense(xs.to_vec()), &mut b, &mut b_oracle);
    let (ab, bb) = (only(&a), only(&b));
    assert!(bb.start + bb.width <= ab.start, "windows are disjoint");
    a.merge(&b);
    a_oracle.merge(&b_oracle);
    assert!(spilled(&a).is_empty(), "the union fits the cap");
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
    let (start, width) = (only(&flat).start, only(&flat).width);
    // A row whose top limb is far outside the post-sweep bound.
    let mut limbs = vec![0i64; width];
    limbs[width - 1] = 5 << 40;
    limbs[0] = -(3 << 35);
    let s = ExactSum::from_window(start, &limbs, 0);
    apply(&Op::MergeScalar(1, s), &mut flat, &mut oracle);
    flat.sweep_carries();
    assert_eq!(spilled(&flat), vec![1], "the carry left the window");
    assert!(only(&flat).plane.iter().all(|l| l.abs() <= 1 << 31));
    assert_matches(&flat, &oracle, "top carry");
}

#[test]
fn scalar_carry_past_the_register_spills() {
    let (mut flat, mut oracle) = unit_vec(2, &[]);
    // −2²¹⁷⁶ plus a few low limbs: only `ExactSum::top` can hold it.
    let mut s = ExactSum::from_window(40, &[7, -3], 0);
    s.top = -1;
    apply(&Op::MergeScalar(0, s), &mut flat, &mut oracle);
    assert_eq!(spilled(&flat), vec![0]);
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
    assert!(only(&flat).start + only(&flat).width + 3 > LIMBS);
    assert_eq!(flat.value(0), f64::INFINITY, "2·MAX overflows like f64");
    assert_matches(&flat, &oracle, "register top");
}

/// `n` zero records with one record spanning the whole register at each
/// of `at`: the bytes, and the decoded vector.
fn wide_records(n: usize, at: &[usize]) -> (Vec<u8>, ExactVec) {
    let mut buf = Vec::new();
    for i in 0..n {
        if at.contains(&i) {
            buf.extend_from_slice(&[1, 0, 0, LIMBS as u8, 0]);
            for _ in 0..LIMBS {
                buf.extend_from_slice(&u32::MAX.to_le_bytes());
            }
        } else {
            buf.extend_from_slice(&[0; 5]);
        }
    }
    let mut pos = 0;
    let v = ExactVec::decode_from(&buf, &mut pos, n).expect("decodes");
    assert_eq!(pos, buf.len());
    (buf, v)
}

#[test]
fn decode_allocation_is_bounded_by_the_cap() {
    // n zero records, then one record spanning the whole register.
    let n = 1000;
    let (buf, v) = wide_records(n + 1, &[n]);
    assert!(v.window_limbs() <= (n + 1) * WIDTH_CAP + LIMBS);
    assert_eq!(spilled(&v), vec![n]);
    let mut s = ExactSum::new();
    s.merge(&ExactSum::decode_from(&buf, &mut (5 * n)).unwrap());
    assert_eq!(v.value(n).to_bits(), s.value().to_bits());
    assert!(encode(&v) == buf);
}

#[test]
fn blocked_decode_allocation_is_bounded_by_the_cap() {
    // The register-wide record in a middle block and in the ragged last
    // one: each spills within its own block, every other block stays empty.
    let n = 3 * ExactVec::BLOCK + 7;
    let at = [ExactVec::BLOCK + 5, n - 1];
    let (buf, v) = wide_records(n, &at);
    assert_eq!(v.blocks.len(), 4);
    assert!(v.window_limbs() <= n * WIDTH_CAP + at.len() * LIMBS);
    assert_eq!(spilled(&v), at.to_vec());
    assert!(v.blocks[0].plane.is_empty() && v.blocks[2].plane.is_empty());
    assert!(encode(&v) == buf);
}

/// Unit-scale dense deposits into every point of a vector of each blocked
/// length, then spills and specials into points of different blocks:
/// `value` bits, record bytes and the decode round trip match the oracle,
/// and so does a merge of two such vectors with unlike windows.
#[test]
fn blocked_lengths_match_the_oracle_with_spills_and_specials_in_different_blocks() {
    for n in BLOCKED_SIZES {
        let last = n - 1;
        let mid = n / 2;
        let extra = [
            (0, 1e300),
            (mid, 1e-300),
            (last, -3e250),
            (1, f64::INFINITY),
            (mid + 1, f64::NEG_INFINITY),
            (last, f64::NAN),
            (last - 1, f64::INFINITY),
            (last - 1, f64::NEG_INFINITY),
        ];
        let (mut flat, mut oracle) = unit_vec(n, &extra);
        assert_eq!(flat.blocks.len(), n.div_ceil(ExactVec::BLOCK), "n={n}");
        let mut want = vec![0, mid, last];
        want.dedup();
        assert_eq!(spilled(&flat), want, "n={n}");
        assert_matches(&flat, &oracle, &format!("n={n}"));

        // A partial at a different scale: its rows spill into `flat`'s
        // windows where they do not fit, block by block.
        let (mut other, mut other_oracle) = (ExactVec::zeros(n), OracleVec::zeros(n));
        let xs: Vec<f64> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    pow2(-200) * (i + 1) as f64
                } else {
                    0.0
                }
            })
            .collect();
        apply(&Op::AddDense(xs), &mut other, &mut other_oracle);
        apply(&Op::Add(mid, f64::NAN), &mut other, &mut other_oracle);
        flat.merge(&other);
        oracle.merge(&other_oracle);
        assert_matches(&flat, &oracle, &format!("n={n} merged"));
    }
}

/// Once every block is laid out, a deposit of a new magnitude widens only
/// its own block: the other blocks keep their windows and their planes
/// (same allocation), and every value still matches the oracle, before
/// and after a merge and a decode.
#[test]
fn a_block_widens_after_the_other_blocks_are_laid_out() {
    let n = 3 * ExactVec::BLOCK + 7;
    let (mut flat, mut oracle) = unit_vec(n, &[]);
    let before: Vec<(usize, usize, *const i64)> = flat
        .blocks
        .iter()
        .map(|b| (b.start, b.width, b.plane.as_ptr()))
        .collect();
    assert!(before.iter().all(|&(_, w, _)| w > 0 && w < WIDTH_CAP));
    let i = 2 * ExactVec::BLOCK + 11;
    apply(&Op::Add(i, pow2(40) * 1.5), &mut flat, &mut oracle);
    for (b, (blk, &(start, width, plane))) in flat.blocks.iter().zip(&before).enumerate() {
        if b == 2 {
            assert!(blk.width > width, "block 2 widens");
            assert!(blk.spill.is_empty(), "the widened window holds the deposit");
        } else {
            assert_eq!(
                (blk.start, blk.width, blk.plane.as_ptr()),
                (start, width, plane)
            );
        }
    }
    assert_matches(&flat, &oracle, "widened block");

    // Merging a laid-out vector into the widened one, and the widened one
    // into a fresh vector, stays exact too.
    let (other, other_oracle) = unit_vec(n, &[(i, -pow2(40))]);
    let mut fresh = ExactVec::zeros(n);
    fresh.merge(&flat);
    fresh.merge(&other);
    flat.merge(&other);
    oracle.merge(&other_oracle);
    assert_matches(&flat, &oracle, "widened block merged");
    assert!(encode(&fresh) == encode(&flat));
}

// ---------------------------------------------------------------------------
// The `i128` row path of `ExactBlock::{value, encode_into}` against the
// general one (canonical digits, or the row's whole state as an `ExactSum`).
// ---------------------------------------------------------------------------

/// A hand-laid block: `rows` plane rows over a window of 1–8 limbs placed
/// at the bottom of the register (subnormal rescales), at its top (huge
/// ones), at valuation magnitudes or anywhere. Each row is zero, a swept
/// row of signed residues, a negative one, a sparse one, or an un-swept
/// one whose limbs reach the `PENDING_MAX · 2³²` bound; a fifth of the rows
/// get a top limb of exactly ±2³⁰. With `odd`, a few rows also get a spill
/// or a special, which sends the whole block down the general path.
fn laid_out_block(rng: &mut StdRng, odd: bool) -> ExactBlock {
    let rows = rng.gen_range(1..24);
    let width = [1, 2, 3, 4, 4, 4, 5, 5, 5, 6, 8][rng.gen_range(0..11usize)];
    let start = match rng.gen_range(0..4) {
        0 => 0,
        1 => LIMBS - width,
        2 => rng.gen_range(28..34),
        _ => rng.gen_range(0..=LIMBS - width),
    };
    let top = start + width == LIMBS;
    let residue = |rng: &mut StdRng| rng.gen_range(-(1i64 << 31) + 1..=1i64 << 31);
    let unswept = (PENDING_MAX as i64) << LIMB_BITS;
    let mut plane = vec![0i64; rows * width];
    for row in plane.chunks_exact_mut(width) {
        let class = rng.gen_range(0..6);
        for l in row.iter_mut() {
            *l = match class {
                0 => 0,
                1 => residue(rng),
                2 => -residue(rng).abs(),
                3 if rng.gen_range(0..3) == 0 => residue(rng),
                3 => 0,
                // A window at the register's top keeps its carries inside.
                _ if top => residue(rng),
                _ => rng.gen_range(-unswept + 1..unswept),
            };
        }
        if rng.gen_range(0..5) == 0 {
            row[width - 1] = if rng.gen::<bool>() {
                1 << 30
            } else {
                -(1 << 30)
            };
        }
    }
    let mut b = ExactBlock::zeros(rows);
    b.start = start;
    b.width = width;
    b.plane = plane;
    b.pending = PENDING_MAX - 1;
    if odd {
        for _ in 0..rng.gen_range(1..4) {
            let r = rng.gen_range(0..rows);
            if rng.gen::<bool>() {
                let mut s = ExactSum::new();
                s.add(rng.gen_range(-1.0..1.0) * pow2(rng.gen_range(-1000..1000)));
                b.spill.insert(r, s);
            } else {
                let x = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
                b.fold_special(r, x);
            }
        }
    }
    b
}

/// Every row of `b`: `value` bits and record bytes equal the general path's
/// and those of the row's whole state as one `ExactSum`; only a block
/// holding no spill and no special takes the `i128` path. Returns how many
/// rows took it.
fn check_row_paths(b: &ExactBlock, what: &str) -> Result<usize, TestCaseError> {
    let mut fast = 0;
    let mut block_bytes = Vec::new();
    b.encode_into(&mut block_bytes);
    let mut slow_bytes = Vec::new();
    for r in 0..b.rows {
        let oracle = b.point_sum(r);
        let value = b.value(r);
        prop_assert_eq!(
            value.to_bits(),
            b.value_slow(r).to_bits(),
            "{}: row {}",
            what,
            r
        );
        prop_assert_eq!(
            value.to_bits(),
            oracle.value().to_bits(),
            "{}: row {}",
            what,
            r
        );
        let mut slow = Vec::new();
        b.encode_row_slow(r, &mut slow);
        let mut sum = Vec::new();
        oracle.encode_into(&mut sum);
        prop_assert!(slow == sum, "{}: row {} general record", what, r);
        slow_bytes.extend_from_slice(&slow);
        if !b.plain() {
            continue;
        }
        let Some((v, limb)) = b.row_i128(r) else {
            continue;
        };
        let mut quick = Vec::new();
        if write_i128(&mut quick, v, limb) {
            prop_assert!(quick == slow, "{}: row {} i128 record", what, r);
        }
        if round_i128(v, limb).is_some() {
            fast += 1;
        }
    }
    prop_assert!(block_bytes == slow_bytes, "{}: block records", what);
    Ok(fast)
}

proptest! {
    /// Hand-laid blocks: zero, negative and sparse rows, top limbs at
    /// ±2³⁰, un-swept limbs near `PENDING_MAX`, 4- and 5-limb windows at
    /// both ends of the register, and blocks holding spills or specials.
    #[test]
    fn i128_rows_match_the_general_path(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for odd in [false, true] {
            let b = laid_out_block(&mut rng, odd);
            let what = format!("start {} width {} odd {odd}", b.start, b.width);
            prop_assert_eq!(b.plain(), !odd, "{}", what);
            check_row_paths(&b, &what)?;
        }
    }
}

/// Valuation-scale vectors — dense unit deposits, their negations, merges —
/// take the `i128` path on every row, and agree with the general path.
#[test]
fn valuation_rows_take_the_i128_path() {
    for n in [1, 13, ExactVec::BLOCK + 1] {
        let (mut flat, _) = unit_vec(n, &[]);
        let neg: Vec<f64> = (0..n).map(|i| -(i as f64) * 1e-3).collect();
        flat.add_dense(&neg);
        for (i, b) in flat.blocks.iter().enumerate() {
            let fast = check_row_paths(b, &format!("n={n} block {i}")).unwrap();
            assert_eq!(fast, b.rows, "n={n} block {i}: every row folds");
        }
    }
    // One spill or special anywhere in a block sends all its rows down the
    // general path, with the same bits.
    let (flat, _) = unit_vec(6, &[(2, 1e300), (4, f64::NAN)]);
    assert_eq!(check_row_paths(only(&flat), "odd").unwrap(), 0);
}

// ---------------------------------------------------------------------------
// Zeros are neutral: what lets a fold skip the rows an item left at zero.
// ---------------------------------------------------------------------------

/// A vector of a length from `SHORT_SIZES` or `BLOCKED_SIZES` after a
/// random call stream (or none) at valuation magnitudes (`narrow`) or over
/// the full exponent range.
fn random_vec(g: &mut Summands, narrow: bool) -> ExactVec {
    let n = if g.rng.gen::<bool>() {
        SHORT_SIZES[g.rng.gen_range(0..SHORT_SIZES.len())]
    } else {
        BLOCKED_SIZES[g.rng.gen_range(0..BLOCKED_SIZES.len())]
    };
    let base = if narrow {
        g.rng.gen_range(-60..4)
    } else {
        g.rng.gen_range(-1070..1021)
    };
    let (mut flat, mut oracle) = (ExactVec::zeros(n), OracleVec::zeros(n));
    for _ in 0..g.rng.gen_range(0..16) {
        let op = g.op(n, base);
        apply(&op, &mut flat, &mut oracle);
    }
    flat
}

/// Set every block's `pending` count to one of the values around a sweep.
fn set_pending(v: &mut ExactVec, rng: &mut StdRng) {
    for b in &mut v.blocks {
        b.pending = [
            0,
            1,
            PENDING_MAX - 2,
            PENDING_MAX - 1,
            rng.gen_range(0..PENDING_MAX),
        ][rng.gen_range(0..5usize)];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.min(256)))]

    /// Depositing `±0.0` — through `add`, `add_dense`, or a `merge` of a
    /// vector that received only zeros — changes no value and no encoded
    /// byte, whatever the blocks' pending counts (a deposit that reaches
    /// the threshold sweeps carries); and a vector that received only
    /// zeros encodes like `ExactVec::zeros`, with no limb laid out.
    #[test]
    fn zeros_are_neutral_at_any_pending_count(seed in any::<u64>(), narrow in any::<bool>()) {
        let wild = if narrow { 0 } else { 12 };
        let mut g = Summands { rng: StdRng::seed_from_u64(seed), history: Vec::new(), wild };
        let built = random_vec(&mut g, narrow);
        let n = built.len();
        let rng = &mut g.rng;
        let zero = |rng: &mut StdRng| if rng.gen::<bool>() { 0.0 } else { -0.0 };
        let mut zeros_only = ExactVec::zeros(n);
        for (what, mut v) in [("built", built.clone()), ("fresh", ExactVec::zeros(n))] {
            let (want, values) = if what == "built" {
                (encode(&built), built.values())
            } else {
                (encode(&ExactVec::zeros(n)), vec![0.0; n])
            };
            for step in 0..12 {
                set_pending(&mut v, rng);
                match rng.gen_range(0..4u32) {
                    0 => v.add(rng.gen_range(0..n), zero(rng)),
                    1 => {
                        let xs: Vec<f64> = (0..n).map(|_| zero(rng)).collect();
                        v.add_dense(&xs);
                        zeros_only.add_dense(&xs);
                    }
                    2 => v.merge(&zeros_only),
                    _ => {
                        set_pending(&mut zeros_only, rng);
                        v.merge(&zeros_only);
                    }
                }
                prop_assert!(encode(&v) == want, "{}: step {} records", what, step);
                for (i, x) in values.iter().enumerate() {
                    prop_assert_eq!(v.value(i).to_bits(), x.to_bits(), "{}: step {} point {}", what, step, i);
                }
            }
            if what == "fresh" {
                prop_assert_eq!(v.window_limbs(), 0, "zeros lay out no limb");
            }
        }
        prop_assert_eq!(zeros_only.window_limbs(), 0);
    }
}

/// One call of a row-op stream.
#[derive(Debug, Clone, Copy)]
enum RowOp {
    Add,
    AddDense,
    /// Deposit the negation of every finite summand the row holds.
    Cancel,
    PushZero,
}

/// A random stream of `add`, `add_dense`, cancellations and zero-row
/// appends on one vector, with each row's deposits logged; rows driven
/// back to zero are checked on the spot. At the end a fresh vector fed
/// each row's log in order must round and encode like the one that grew.
fn run_row_ops(
    seed: u64,
    wild: u32,
    base_range: std::ops::Range<i32>,
    sizes: &[usize],
    max_ops: usize,
) -> Result<(), TestCaseError> {
    let mut g = Summands {
        rng: StdRng::seed_from_u64(seed),
        history: Vec::new(),
        wild,
    };
    let n = sizes[g.rng.gen_range(0..sizes.len())];
    let base = g.rng.gen_range(base_range);
    let mut flat = ExactVec::zeros(n);
    let mut logs: Vec<Vec<f64>> = vec![Vec::new(); n];
    for step in 0..g.rng.gen_range(0..max_ops) {
        let op = [
            RowOp::Add,
            RowOp::Add,
            RowOp::Add,
            RowOp::AddDense,
            RowOp::Cancel,
            RowOp::Cancel,
            RowOp::PushZero,
        ][g.rng.gen_range(0..7usize)];
        let n = flat.len();
        let i = g.rng.gen_range(0..n.max(1));
        match op {
            RowOp::PushZero => {
                flat.push_zero_row();
                logs.push(Vec::new());
            }
            _ if n == 0 => continue,
            RowOp::Add => {
                let x = g.draw(base);
                flat.add(i, x);
                logs[i].push(x);
            }
            RowOp::AddDense => {
                let xs: Vec<f64> = (0..n)
                    .map(|_| {
                        if g.rng.gen::<f64>() < 0.3 {
                            g.draw(base)
                        } else {
                            0.0
                        }
                    })
                    .collect();
                flat.add_dense(&xs);
                for (log, &x) in logs.iter_mut().zip(&xs) {
                    log.push(x);
                }
            }
            RowOp::Cancel => {
                let negated: Vec<f64> = logs[i]
                    .iter()
                    .filter(|x| x.is_finite())
                    .map(|x| -x)
                    .collect();
                for &x in &negated {
                    flat.add(i, x);
                }
                logs[i].extend(negated);
                if logs[i].iter().all(|x| x.is_finite()) {
                    prop_assert!(flat.is_zero(i), "step {}: row {} is not zero", step, i);
                    prop_assert_eq!(flat.value(i).to_bits(), 0, "step {}: row {}", step, i);
                }
            }
        }
        if g.rng.gen_range(0..20) == 0 {
            set_pending(&mut flat, &mut g.rng);
        }
        prop_assert_eq!(flat.len(), logs.len());
    }
    let mut fresh = ExactVec::zeros(logs.len());
    for (i, log) in logs.iter().enumerate() {
        for &x in log {
            fresh.add(i, x);
        }
    }
    for i in 0..fresh.len() {
        prop_assert_eq!(
            flat.value(i).to_bits(),
            fresh.value(i).to_bits(),
            "row {}: grown {:?} fresh {:?}",
            i,
            flat.value(i),
            fresh.value(i)
        );
        prop_assert_eq!(flat.is_zero(i), fresh.is_zero(i), "row {}", i);
    }
    prop_assert!(encode(&flat) == encode(&fresh), "records differ");
    Ok(())
}

proptest! {
    /// Row ops on one block, full exponent range and valuation
    /// magnitudes: rows that spill, hold specials, widen the window, or
    /// return to zero keep their sums as the vector grows.
    #[test]
    fn row_ops_match_a_fresh_vector_short(seed in any::<u64>(), narrow in any::<bool>()) {
        let (wild, bases) = if narrow { (0, -60..4) } else { (12, -1070..1021) };
        run_row_ops(seed, wild, bases, &SHORT_SIZES, 160)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ProptestConfig::default().cases.min(256)))]

    /// Row ops around and past one block: appends open a new block at a
    /// block boundary, across windows, spills and specials that differ
    /// block to block.
    #[test]
    fn row_ops_match_a_fresh_vector_blocked(seed in any::<u64>(), narrow in any::<bool>()) {
        let (wild, bases) = if narrow { (0, -60..4) } else { (12, -1070..1021) };
        run_row_ops(seed, wild, bases, &BLOCKED_SIZES, 48)?;
    }
}
