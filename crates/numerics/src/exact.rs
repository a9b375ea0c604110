//! Exact (error-free) floating-point accumulation with an order- and
//! grouping-invariant merge — the numerical substrate of the sharded
//! valuation runtime.
//!
//! ## Why compensated sums are not enough for sharding
//!
//! The parallel runtime's blocked Neumaier folds ([`crate::compensated`])
//! are bitwise-reproducible because the *reduction tree is fixed*: a pure
//! function of the item count. Sharding breaks that premise — a job split
//! into 7 shard files and merged must produce the same bits as the same job
//! split into 2, or not split at all, so the reduction tree now depends on
//! an operator's deployment choice. No rounded partial sum survives that:
//! `fl(fl(a+b)+c) ≠ fl(a+fl(b+c))` in general, so Neumaier partials merged
//! in shard order drift by a few ulps as the shard count changes.
//!
//! [`ExactSum`] removes rounding from the accumulation entirely. It is a
//! fixed-point *superaccumulator* (Kulisch-style): a 2176-bit signed
//! fixed-point register, held as 68 × 32-bit limbs inside `i64`s so carries
//! can be deferred, spanning every bit position an `f64` can occupy
//! (2⁻¹⁰⁷⁴ … 2¹⁰²³) plus 78 bits of carry headroom. Adding an `f64` deposits
//! its 53-bit significand into at most three limbs — *exactly*, no rounding.
//! The represented value is therefore the true real-number sum of everything
//! deposited, and:
//!
//! * [`merge`](ExactSum::merge) (limb-wise addition) is exact, hence
//!   mathematically associative and commutative — **any** partition of a
//!   summand multiset into shards, merged in **any** order, reproduces the
//!   single accumulator state;
//! * [`value`](ExactSum::value) rounds the exact sum to the nearest `f64`
//!   (ties to even) once, so the returned bits are a pure function of the
//!   summand multiset — never of thread counts, block sizes, or shard
//!   boundaries.
//!
//! That is the determinism contract the `knnshap_core::sharding` module
//! builds on.
//!
//! ## Storage
//!
//! A scalar [`ExactSum`] stores a **lazily-sized window** of the register:
//! a fresh accumulator holds no limbs (~56 bytes), and deposits grow the
//! window only over the limb positions their magnitudes touch.
//!
//! The per-training-point vector [`ExactVec`] — the state every exact
//! valuation ends in — stores its points in fixed-size **row blocks**
//! ([`ExactBlock`], [`ExactVec::BLOCK`] rows each). A block holds one flat,
//! point-major **limb plane**: a single `Vec<i64>` of `rows × width` limbs
//! over a window of register positions shared by the block's rows, with no
//! per-point header or heap allocation. The window is capped at
//! `WIDTH_CAP` (= 8) limbs, so a plane costs at most 64 bytes per point
//! (4–5 limbs, 32–40 bytes, for exact and Monte Carlo valuation sums). A
//! deposit or merged row that falls outside its block's capped window goes
//! to a sparse per-point spill (an ordinary `ExactSum`), and nonfinite
//! summands to a sparse per-point `f64` table, so exactness never depends
//! on the window: a point's state is its plane row plus its spill plus its
//! special. Deposits, merges and the rounding in [`ExactVec::value`] walk
//! each plane linearly. In a block without spills or specials, a row whose
//! limbs fold into one `i128` — every row of a valuation sum — rounds with
//! one `as f64` and an exact exponent shift, and encodes its digits
//! straight from the `i128`; other rows go through their canonical digits,
//! and only spilled points and windows near the top of the register take
//! the slower path through `ExactSum`. Blocks are laid out,
//! widened, spilled and swept independently, so threads can deposit into
//! one shared vector block by block ([`ExactVec::blocks_mut`]), as
//! `knnshap_core::sharding`'s dense fold does, instead of each holding a
//! whole vector of its own.
//!
//! ```
//! use knnshap_numerics::exact::ExactSum;
//!
//! // Catastrophic cancellation, grouped two different ways.
//! let xs = [1.0, 1e100, 1.0, -1e100];
//! let mut whole = ExactSum::new();
//! for &x in &xs {
//!     whole.add(x);
//! }
//! let (mut left, mut right) = (ExactSum::new(), ExactSum::new());
//! left.add(xs[0]);
//! left.add(xs[1]);
//! right.add(xs[2]);
//! right.add(xs[3]);
//! left.merge(&right);
//! assert_eq!(whole.value(), 2.0);
//! assert_eq!(whole.value().to_bits(), left.value().to_bits());
//! ```

use std::collections::BTreeMap;

/// Bits per limb window. Limbs are kept in `i64`s so up to
/// [`PENDING_MAX`] deposits can accumulate before a carry sweep.
const LIMB_BITS: u32 = 32;

/// Number of limbs: bit positions `p ∈ 0..68·32` with weight `2^(p − 1074)`,
/// i.e. 2⁻¹⁰⁷⁴ (the least subnormal) up to 2¹¹⁰¹ — 78 bits of headroom above
/// the largest finite `f64` (< 2¹⁰²⁴), so ~2⁷⁸ maximal-magnitude deposits
/// would be needed to overflow the register.
const LIMBS: usize = 68;

/// Carry sweep threshold. Each deposit moves a limb by `< 2³²`, so limbs stay
/// well inside `i64` as long as at most `2²⁹` deposits (or merges of swept
/// accumulators) happen between sweeps: `2²⁹ · 2³² = 2⁶¹ < 2⁶³`, and a merge
/// of two accumulators each below the threshold stays `< 2⁶²`.
const PENDING_MAX: u32 = 1 << 29;

const LIMB_MASK: i64 = 0xFFFF_FFFF;

/// Widest shared window an [`ExactVec`] plane may hold, in limbs. A deposit
/// site spans three limbs plus one headroom limb, so the capped window
/// covers deposits across five consecutive limb positions (160 bits of
/// exponent range) before anything spills. The valuation sums measured
/// need 4 limbs (exact at N = 2·10⁴, Monte Carlo) to 5 (exact at
/// N = 3·10⁵), so any cap ≥ 5 lays them out identically; 8 leaves room for
/// skewed value ranges while keeping the plane at ≤ 64 bytes per point.
const WIDTH_CAP: usize = 8;

/// Signed residue of `v` modulo 2³² in `(−2³¹, 2³¹]`, and the carry out.
#[inline]
fn signed_residue(v: i64) -> (i64, i64) {
    let mut r = v & LIMB_MASK;
    if r >= 1 << 31 {
        r -= 1 << LIMB_BITS;
    }
    (r, (v - r) >> LIMB_BITS)
}

/// Where a finite nonzero `x` lands in the register: its lowest limb index
/// and the three signed limb contributions (53 significand bits shifted by
/// < 32 span at most 85 bits = 3 limbs).
#[inline]
fn deposit_site(x: f64) -> (usize, [i64; 3]) {
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as u32;
    let frac = bits & ((1u64 << 52) - 1);
    // value = ±m · 2^(shift − 1074)
    let (m, shift) = if exp == 0 {
        (frac, 0u32)
    } else {
        (frac | (1u64 << 52), exp - 1)
    };
    let wide = (m as u128) << (shift % LIMB_BITS);
    let c = [
        (wide as u64 & LIMB_MASK as u64) as i64,
        ((wide >> 32) as u64 & LIMB_MASK as u64) as i64,
        (wide >> 64) as i64,
    ];
    // Branch-free negation: `(c ^ −1) − (−1) = −c`.
    let neg = (bits as i64) >> 63;
    ((shift / LIMB_BITS) as usize, c.map(|v| (v ^ neg) - neg))
}

/// Fold the nonfinite summand `x` into the side-channel sum `acc`. Kept
/// out of line so every fold compiles to one operand order: when both
/// operands are NaN the result's sign and payload follow that order, which
/// the optimizer may otherwise commute differently at each inlined site.
#[inline(never)]
fn add_special(acc: f64, x: f64) -> f64 {
    acc + x
}

/// Sign/magnitude form of the signed limb slice `limbs` plus a carry `top`
/// one position above it, in place: on return every limb is a magnitude
/// digit in `[0, 2³²)` and the result is `(sign, overflow)`, `sign = 0` iff
/// the value is zero. `overflow` reports a magnitude that does not fit the
/// slice (the digits are then meaningless).
fn to_sign_magnitude(limbs: &mut [i64], top: i64) -> (i8, bool) {
    // Strict sweep: every limb to [0, 2³²), signed residue to `top`.
    let mut carry = 0i64;
    for l in limbs.iter_mut() {
        let v = *l + carry;
        let r = v & LIMB_MASK;
        carry = (v - r) >> LIMB_BITS;
        *l = r;
    }
    let top = top + carry;
    if top == 0 {
        let zero = limbs.iter().all(|&l| l == 0);
        return (if zero { 0 } else { 1 }, false);
    }
    if top > 0 {
        return (1, true);
    }
    // Negative: magnitude = two's-complement negate over base-2³² digits.
    let mut carry = 1i64;
    for l in limbs.iter_mut() {
        let v = (LIMB_MASK - *l) + carry;
        *l = v & LIMB_MASK;
        carry = v >> LIMB_BITS;
    }
    (-1, -top - 1 + carry != 0)
}

/// Round a sign/magnitude value to the nearest `f64` (ties to even).
/// `mag[i]` is the magnitude digit at register limb `base + i`; digits
/// outside the slice are zero.
fn round_magnitude(sign: i8, mag: &[i64], base: usize) -> f64 {
    if sign == 0 {
        return 0.0;
    }
    // Highest nonzero limb and overall MSB position.
    let h = match mag.iter().rposition(|&l| l != 0) {
        Some(h) => base + h,
        None => return 0.0,
    };
    let limb = |i: isize| -> u128 {
        match usize::try_from(i - base as isize) {
            Ok(j) if j < mag.len() => mag[j] as u128,
            _ => 0,
        }
    };
    let msb_in_limb = 127 - limb(h as isize).leading_zeros() as usize; // < 32
    let p = h * LIMB_BITS as usize + msb_in_limb;
    let signf = if sign > 0 { 1.0 } else { -1.0 };
    if p <= 52 {
        // The whole magnitude fits below bit 53: it is an exact
        // subnormal or small normal, m · 2⁻¹⁰⁷⁴ with m < 2⁵³ — which is
        // precisely `f64::from_bits(m)`.
        let m = (limb(0) as u64) | ((limb(1) as u64) << 32);
        return signf * f64::from_bits(m);
    }
    // General case: take the 53 bits below the MSB, round by guard +
    // sticky. Gather a 96-bit window of the top three limbs.
    let hi = h as isize;
    let w: u128 = (limb(hi) << 64) | (limb(hi - 1) << 32) | limb(hi - 2);
    // MSB of `w` sits at bit q = p − 32·(h−2); q ∈ [64, 95].
    let q = (p as isize - 32 * (hi - 2)) as u32;
    let m53 = (w >> (q - 52)) as u64; // 53 bits, MSB set
    let guard = (w >> (q - 53)) & 1 == 1;
    let mut sticky = w & ((1u128 << (q - 53)) - 1) != 0;
    if !sticky {
        let below = (hi - 2 - base as isize).clamp(0, mag.len() as isize) as usize;
        sticky = mag[..below].iter().any(|&l| l != 0);
    }
    let mut mantissa = m53;
    // Unbiased exponent of the MSB: p − 1074; biased: p − 51.
    let mut biased = p as i64 - 51;
    if guard && (sticky || mantissa & 1 == 1) {
        mantissa += 1;
        if mantissa == 1u64 << 53 {
            mantissa >>= 1;
            biased += 1;
        }
    }
    if biased >= 0x7FF {
        return signf * f64::INFINITY;
    }
    let bits = ((sign < 0) as u64) << 63 | (biased as u64) << 52 | (mantissa & ((1u64 << 52) - 1));
    f64::from_bits(bits)
}

/// `v · 2^(32·limb − 1074)` rounded to the nearest `f64` (ties to even),
/// when that is zero or a normal `f64`: `v as f64` rounds the 53 leading
/// bits once, and moving its exponent by the limb's weight is exact in the
/// normal range. `None` when the result would be subnormal or overflow —
/// those need the general [`round_magnitude`].
#[inline]
fn round_i128(v: i128, limb: usize) -> Option<f64> {
    if v == 0 {
        return Some(0.0);
    }
    let bits = (v as f64).to_bits();
    let biased = ((bits >> 52) & 0x7FF) as i64 + LIMB_BITS as i64 * limb as i64 - 1074;
    (1..0x7FF)
        .contains(&biased)
        .then(|| f64::from_bits(bits & !(0x7FF << 52) | (biased as u64) << 52))
}

/// Append the canonical record of `v · 2^(32·limb − 1074)` with no special
/// (the format [`write_record`] writes): `|v|`'s base-2³² digits from its
/// lowest nonzero one to its highest. `false`, with nothing written, when a
/// digit would lie past the register.
#[inline]
fn write_i128(out: &mut Vec<u8>, v: i128, limb: usize) -> bool {
    let mag = v.unsigned_abs();
    if mag == 0 {
        out.extend_from_slice(&[0; 5]);
        return true;
    }
    let (lo, hi) = (
        mag.trailing_zeros() / LIMB_BITS,
        (127 - mag.leading_zeros()) / LIMB_BITS,
    );
    let (start, len) = (limb + lo as usize, (hi - lo + 1) as usize);
    if start + len > LIMBS {
        return false;
    }
    // The little-endian bytes of `mag >> 32·lo` are its digits, lowest
    // first: append a whole record of four digits, then cut the ones past
    // the highest (they are zero).
    let mut record = [0u8; 5 + 16];
    record[0] = v.signum() as u8;
    record[1..3].copy_from_slice(&(start as u16).to_le_bytes());
    record[3..5].copy_from_slice(&(len as u16).to_le_bytes());
    record[5..].copy_from_slice(&(mag >> (LIMB_BITS * lo)).to_le_bytes());
    out.extend_from_slice(&record);
    out.truncate(out.len() - 4 * (4 - len));
    true
}

/// Append one canonical record (format in [`ExactSum::encode_into`]) for a
/// sign/magnitude value whose digit `mag[i]` sits at register limb
/// `base + i`, with an optional nonfinite special.
fn write_record(out: &mut Vec<u8>, sign: i8, mag: &[i64], base: usize, special: Option<f64>) {
    let (start, digits) = match mag.iter().position(|&l| l != 0) {
        None => (0, &mag[..0]),
        Some(f) => {
            let last = mag.iter().rposition(|&l| l != 0).expect("nonzero digit");
            (base + f, &mag[f..=last])
        }
    };
    // A special always forces code ±2 (even over a zero finite part, so
    // the decoder knows to read the special field); a negative-or-zero
    // magnitude under code +2 is fine — the sign only scales the limbs.
    let sign_code = match special {
        Some(_) if sign < 0 => -2,
        Some(_) => 2,
        None => sign,
    };
    out.push(sign_code as u8);
    if let Some(s) = special {
        out.extend_from_slice(&s.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(start as u16).to_le_bytes());
    out.extend_from_slice(&(digits.len() as u16).to_le_bytes());
    for &l in digits {
        out.extend_from_slice(&(l as u32).to_le_bytes());
    }
}

/// One validated record, borrowed from the byte buffer.
struct Record<'a> {
    negative: bool,
    special: Option<f64>,
    /// Register limb of the first magnitude digit.
    start: usize,
    /// `4 × len` little-endian `u32` magnitude digits.
    digits: &'a [u8],
}

impl Record<'_> {
    fn len(&self) -> usize {
        self.digits.len() / 4
    }

    /// The signed limbs, lowest first.
    fn limbs(&self) -> impl Iterator<Item = i64> + '_ {
        let neg = self.negative;
        self.digits.chunks_exact(4).map(move |d| {
            let l = u32::from_le_bytes(d.try_into().expect("4 bytes")) as i64;
            if neg {
                -l
            } else {
                l
            }
        })
    }

    /// Parse one record written by [`write_record`], advancing `pos`.
    fn decode<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Record<'a>, DecodeError> {
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], DecodeError> {
            let s = buf
                .get(*pos..*pos + n)
                .ok_or(DecodeError("record truncated"))?;
            *pos += n;
            Ok(s)
        };
        // Validate the raw byte before any signed arithmetic (0x80 would
        // overflow `i8::abs`): the only legal encodings are 0, ±1 and ±2
        // (0xFE/0xFF as two's complement).
        let (sign, has_special) = match take(pos, 1)?[0] {
            0x00 => (0i8, false),
            0x01 => (1, false),
            0xFF => (-1, false),
            0x02 => (1, true),
            0xFE => (-1, true),
            _ => return Err(DecodeError("bad sign byte")),
        };
        let special = if has_special {
            Some(f64::from_bits(u64::from_le_bytes(
                take(pos, 8)?.try_into().expect("8 bytes"),
            )))
        } else {
            None
        };
        let start = u16::from_le_bytes(take(pos, 2)?.try_into().expect("2 bytes")) as usize;
        let len = u16::from_le_bytes(take(pos, 2)?.try_into().expect("2 bytes")) as usize;
        if start + len > LIMBS {
            return Err(DecodeError("limb window out of range"));
        }
        if sign == 0 && len != 0 {
            return Err(DecodeError("zero sign with nonzero limbs"));
        }
        Ok(Record {
            negative: sign < 0,
            special,
            start,
            digits: take(pos, 4 * len)?,
        })
    }
}

/// An exact accumulator for `f64` summands.
///
/// ### Determinism contract
///
/// The state represents the *exact* real sum of every finite summand ever
/// [`add`](Self::add)ed (plus an `f64`-semantics side channel for nonfinite
/// summands). [`merge`](Self::merge) is exact, so the state — and therefore
/// [`value`](Self::value), the correctly-rounded (nearest, ties-to-even)
/// `f64` — depends only on the **multiset** of summands: any grouping of the
/// summands into partial accumulators, merged in any order, yields
/// bitwise-identical results.
///
/// Nonfinite summands (`±inf`, NaN) are folded through ordinary `f64`
/// addition in a side register and dominate [`value`](Self::value), so
/// overflow/invalid propagation matches what a plain `f64` loop would report.
///
/// ### Windowed storage
///
/// Only the contiguous limb window the deposits have touched is
/// materialized: `limbs[i]` carries weight `2^(32·(start + i) − 1074)`, and
/// positions outside `start .. start + limbs.len()` are implicitly zero. A
/// fresh accumulator allocates nothing; the window grows (and, after carry
/// sweeps, shrinks back) to the magnitude range actually in use. The value
/// represented is independent of the window bounds, so none of the
/// determinism contract depends on them.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    /// Limb index (in the full 68-limb register) of `limbs[0]`.
    start: usize,
    /// Signed limb window; entry `i` carries `limbs[i] · 2^(32·(start+i) − 1074)`.
    limbs: Vec<i64>,
    /// Carry out of the top limb (kept separately so sweeps never lose bits).
    top: i64,
    /// Deposits/merges since the last carry sweep.
    pending: u32,
    /// `f64`-folded nonfinite summands; meaningful iff `has_special`.
    special: f64,
    has_special: bool,
}

/// Decoding failures for [`ExactSum::decode_from`] /
/// [`ExactVec::decode_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exact-accumulator decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl ExactSum {
    pub fn new() -> Self {
        Self::default()
    }

    /// The finite state `limbs · 2^(32·start − 1074)`, with `pending`
    /// bounding the limbs as for a deposit count (see [`PENDING_MAX`]).
    fn from_window(start: usize, limbs: &[i64], pending: u32) -> Self {
        Self {
            start,
            limbs: limbs.to_vec(),
            pending,
            ..Self::default()
        }
    }

    /// Deposit one summand. Exact for finite `x` (including subnormals);
    /// `±0.0` is a no-op; nonfinite `x` folds into the special register.
    #[inline]
    pub fn add(&mut self, x: f64) {
        if x == 0.0 {
            return;
        }
        if !x.is_finite() {
            self.fold_special(x);
            return;
        }
        let (li, c) = deposit_site(x);
        let o = self.ensure_window(li, li + 3);
        for (l, c) in self.limbs[o..o + 3].iter_mut().zip(c) {
            *l += c;
        }
        self.bump_pending(1);
    }

    fn fold_special(&mut self, x: f64) {
        self.special = if self.has_special {
            add_special(self.special, x)
        } else {
            x
        };
        self.has_special = true;
    }

    /// Grow the window (if needed) to cover limb positions `lo..hi` of the
    /// full register, returning `lo`'s offset inside the window.
    fn ensure_window(&mut self, lo: usize, hi: usize) -> usize {
        debug_assert!(lo < hi && hi <= LIMBS);
        if self.limbs.is_empty() {
            self.start = lo;
            self.limbs.resize(hi - lo, 0);
            return 0;
        }
        if lo < self.start {
            let grow = self.start - lo;
            self.limbs.splice(0..0, std::iter::repeat(0).take(grow));
            self.start = lo;
        }
        if hi > self.start + self.limbs.len() {
            self.limbs.resize(hi - self.start, 0);
        }
        lo - self.start
    }

    /// Number of limbs currently materialized — the lazily-sized window's
    /// footprint (each limb is 8 bytes). A fresh accumulator reports 0; the
    /// full register would be 68.
    pub fn window_limbs(&self) -> usize {
        self.limbs.len()
    }

    /// Fold another accumulator in. Exact: limb-wise integer addition over
    /// the union of the two windows, so the result represents the sum of
    /// both exact states regardless of how the summands were originally
    /// grouped.
    pub fn merge(&mut self, other: &ExactSum) {
        if !other.limbs.is_empty() {
            let o = self.ensure_window(other.start, other.start + other.limbs.len());
            for (a, &b) in self.limbs[o..].iter_mut().zip(&other.limbs) {
                *a += b;
            }
        }
        self.top += other.top;
        if other.has_special {
            self.fold_special(other.special);
        }
        self.bump_pending(other.pending.saturating_add(1));
    }

    #[inline]
    fn bump_pending(&mut self, by: u32) {
        self.pending = self.pending.saturating_add(by);
        if self.pending >= PENDING_MAX {
            self.sweep_carries();
        }
    }

    /// Bound the window's limbs again: each becomes a **signed** residue in
    /// `(−2³¹, 2³¹]` with the quotient carried upward, so a negative sum
    /// stays local to its window instead of rippling borrow limbs across the
    /// whole register (the strict nonnegative form is only materialized
    /// transiently, in [`canonical`](Self::canonical)). A carry past the
    /// window's top extends the window; one past the register goes to `top`.
    /// Trailing/leading zero limbs are trimmed, so sweeps also *shrink*
    /// windows that cancellation has emptied.
    fn sweep_carries(&mut self) {
        let mut carry = 0i64;
        for l in &mut self.limbs {
            let (r, c) = signed_residue(*l + carry);
            *l = r;
            carry = c;
        }
        while carry != 0 && self.start + self.limbs.len() < LIMBS {
            let (r, c) = signed_residue(carry);
            self.limbs.push(r);
            carry = c;
        }
        self.top += carry;
        while let Some(0) = self.limbs.last() {
            self.limbs.pop();
        }
        let lead = self.limbs.iter().take_while(|&&l| l == 0).count();
        if lead > 0 {
            self.limbs.drain(..lead);
            self.start += lead;
        }
        if self.limbs.is_empty() {
            self.start = 0;
        }
        self.pending = 0;
    }

    /// Canonical sign/magnitude form: `(sign, limbs)` with every magnitude
    /// limb in `[0, 2³²)`, materialized over the **full** register (the
    /// windowed state is only a storage optimization). `sign = 0` iff the
    /// exact sum is zero. A `top` residue that survives canonicalization
    /// means the sum left the register's range (≥ 2¹¹⁰¹ in magnitude); it is
    /// mapped to a saturated sign reported by the boolean.
    fn canonical(&self) -> (i8, [i64; LIMBS], bool) {
        let mut full = [0i64; LIMBS];
        full[self.start..self.start + self.limbs.len()].copy_from_slice(&self.limbs);
        let (sign, saturated) = to_sign_magnitude(&mut full, self.top);
        (sign, full, saturated)
    }

    /// The exact sum rounded once to the nearest `f64` (ties to even), or
    /// the `f64`-folded nonfinite result if any nonfinite summand arrived.
    pub fn value(&self) -> f64 {
        let finite = self.finite_value();
        if self.has_special {
            finite + self.special
        } else {
            finite
        }
    }

    fn finite_value(&self) -> f64 {
        let (sign, mag, saturated) = self.canonical();
        if saturated {
            // Beyond 2^1101: saturate (unreachable without ~2^78
            // max-magnitude deposits, but defined behavior regardless).
            return if sign > 0 {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        round_magnitude(sign, &mag, 0)
    }

    /// True iff no summand has ever been deposited (or they cancelled to an
    /// exact zero) and no nonfinite summand arrived.
    pub fn is_zero(&self) -> bool {
        !self.has_special && self.canonical().0 == 0
    }

    /// Append the canonical serialized record (little-endian):
    ///
    /// ```text
    /// sign: i8          // −1, 0, +1; 2/−2 when a nonfinite special follows
    /// [special: f64 bits, only when |sign| == 2]
    /// start: u16        // first nonzero magnitude limb (0 when sign == 0)
    /// len:   u16        // nonzero-window length in limbs
    /// limbs: u32 × len  // magnitude limbs, canonical [0, 2³²)
    /// ```
    ///
    /// The record is a pure function of the exact sum (canonicalized before
    /// writing), so equal sums — however they were grouped or ordered —
    /// serialize to identical bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let (sign, mag, saturated) = self.canonical();
        debug_assert!(!saturated, "saturated ExactSum cannot be serialized");
        write_record(out, sign, &mag, 0, self.has_special.then_some(self.special));
    }

    /// Decode one record written by [`encode_into`](Self::encode_into),
    /// advancing `pos`.
    pub fn decode_from(buf: &[u8], pos: &mut usize) -> Result<ExactSum, DecodeError> {
        let r = Record::decode(buf, pos)?;
        let mut s = Self::from_record(&r);
        if let Some(x) = r.special {
            s.fold_special(x);
        }
        Ok(s)
    }

    /// The finite part of a decoded record.
    fn from_record(r: &Record<'_>) -> ExactSum {
        let mut s = ExactSum::new();
        if r.len() > 0 {
            s.start = r.start;
            s.limbs = r.limbs().collect();
            // Decoded limbs reach 2³² − 1 in magnitude (two sweeps' worth of
            // the post-sweep bound), so account for them in the overflow
            // budget as two deposits.
            s.pending = 2;
        }
        s
    }
}

/// A vector of exact accumulators — one per training point.
///
/// Carries the same determinism contract as [`ExactSum`]: the materialized
/// [`values`](Self::values) depend only on the multiset of `(index, summand)`
/// deposits, never on their order or on how deposits were split across
/// merged partial vectors. This is the state the sharded valuation runtime
/// serializes into shard files; point `i`'s record is byte for byte the
/// record an `ExactSum` holding the same deposits writes.
///
/// ### Row-blocked storage
///
/// The points are cut into [`ExactBlock`]s of [`BLOCK`](Self::BLOCK) rows
/// (the last one shorter); point `i` is row `i % BLOCK` of block
/// `i / BLOCK`. Each block keeps its own window of register limbs
/// `start .. start + width`, and its rows' limbs live in one point-major
/// plane: `plane[r · width + c]` carries row `r`'s limb at register
/// position `start + c`. Beside the plane sit two sparse per-row tables:
///
/// * the **spill** — an `ExactSum` for a row that received a deposit or
///   merged row the window could not cover within `WIDTH_CAP` limbs;
/// * the **specials** — the `f64`-folded nonfinite summands, with
///   `ExactSum`'s side-channel semantics.
///
/// A point's exact state is the sum of its plane row, its spill and its
/// special. `zeros(n)` allocates no limbs; a block's first deposits set its
/// window, which keeps one headroom limb above the highest deposit site so
/// carry sweeps stay inside it, and grows (by re-laying that block's plane
/// alone) only on the first deposits of a new magnitude into the block.
/// Memory is at most `8 · WIDTH_CAP` = 64 bytes per point, plus one scalar
/// window (≤ 68 limbs, ~0.6 KiB) for each spilled point — paid only by
/// points whose summands lie more than ~2¹⁶⁰ apart.
///
/// One `pending` counter per block bounds its plane limbs, as in
/// `ExactSum`: `add` and `add_dense` count 1, a merge counts the other
/// block's count + 1, and reaching the threshold runs one in-place carry
/// sweep over the block's plane.
///
/// Blocks are independent, so [`blocks_mut`](Self::blocks_mut) lets
/// several threads deposit dense vectors into one shared `ExactVec`, each
/// block behind its own lock, instead of each thread filling a vector of
/// its own and merging it.
#[derive(Debug, Clone)]
pub struct ExactVec {
    n: usize,
    /// `n.div_ceil(BLOCK)` blocks in row order.
    blocks: Vec<ExactBlock>,
}

/// One [`ExactVec::BLOCK`]-row block of an [`ExactVec`] (see its storage
/// notes): a limb window shared by the block's rows, their point-major
/// plane, and sparse spill and special tables keyed by row within the
/// block.
#[derive(Debug, Clone)]
pub struct ExactBlock {
    rows: usize,
    /// Register limb of plane column 0.
    start: usize,
    /// Limbs per row; 0 until the first deposit.
    width: usize,
    /// `rows × width` signed limbs, row-major.
    plane: Vec<i64>,
    /// Deposits and merged rows the capped window could not cover.
    spill: BTreeMap<usize, ExactSum>,
    /// `f64`-folded nonfinite summands per row.
    special: BTreeMap<usize, f64>,
    /// Deposits/merges since the last carry sweep of the plane.
    pending: u32,
}

// See `ExactVec::BLOCK`: a block's plane at the width cap stays below
// glibc's default mmap threshold.
const _: () = assert!(ExactVec::BLOCK * WIDTH_CAP * 8 < 128 << 10);

/// Canonical sign/magnitude digits of one plane row, widened by three
/// limbs so every carry out of the row fits.
struct RowDigits {
    sign: i8,
    mag: [i64; WIDTH_CAP + 3],
    len: usize,
}

impl ExactVec {
    /// Rows per [`ExactBlock`]. At the `WIDTH_CAP` of 8 limbs a block's
    /// plane is 64 KiB (40 KiB at the 5-limb windows valuation sums need),
    /// below glibc's default mmap threshold of 128 KiB: freeing a larger,
    /// mmapped buffer raises that threshold for the rest of the process,
    /// and a long-lived process such as the `serve` daemon then keeps more
    /// heap resident. Widening a window re-lays one block, so a widening
    /// holds at most one extra block plane, never a second whole vector.
    pub const BLOCK: usize = 1024;

    /// `n` zeroed accumulators.
    pub fn zeros(n: usize) -> Self {
        let blocks = (0..n)
            .step_by(Self::BLOCK)
            .map(|lo| ExactBlock::zeros(Self::BLOCK.min(n - lo)))
            .collect();
        Self { n, blocks }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The blocks in row order: block `b` holds points
    /// `b · BLOCK .. min((b + 1) · BLOCK, len)`. Deposits into different
    /// blocks touch disjoint state.
    pub fn blocks_mut(&mut self) -> &mut [ExactBlock] {
        &mut self.blocks
    }

    /// The block holding point `i`, and `i`'s row in it.
    #[inline]
    fn locate(&self, i: usize) -> (&ExactBlock, usize) {
        assert!(i < self.n, "index {i} out of range 0..{}", self.n);
        (&self.blocks[i / Self::BLOCK], i % Self::BLOCK)
    }

    #[inline]
    fn locate_mut(&mut self, i: usize) -> (&mut ExactBlock, usize) {
        assert!(i < self.n, "index {i} out of range 0..{}", self.n);
        (&mut self.blocks[i / Self::BLOCK], i % Self::BLOCK)
    }

    /// Deposit `x` into accumulator `i`.
    #[inline]
    pub fn add(&mut self, i: usize, x: f64) {
        let (b, r) = self.locate_mut(i);
        b.deposit(r, x);
        b.bump_pending(1);
    }

    /// Deposit a dense per-point vector (`xs[i]` into accumulator `i`);
    /// zero entries cost one branch. Panics on length mismatch.
    pub fn add_dense(&mut self, xs: &[f64]) {
        assert_eq!(self.len(), xs.len(), "length mismatch");
        for (b, xs) in self.blocks.iter_mut().zip(xs.chunks(Self::BLOCK)) {
            b.add_dense(xs);
        }
    }

    /// Fold one scalar accumulator into slot `i` (exact).
    pub fn merge_scalar(&mut self, i: usize, s: &ExactSum) {
        let (b, r) = self.locate_mut(i);
        b.merge_scalar(r, s);
    }

    /// Append one zeroed accumulator.
    pub fn push_zero_row(&mut self) {
        match self.blocks.last_mut() {
            Some(b) if b.rows < Self::BLOCK => {
                b.rows += 1;
                b.plane.resize(b.rows * b.width, 0);
            }
            _ => self.blocks.push(ExactBlock::zeros(1)),
        }
        self.n += 1;
    }

    /// Whether accumulator `i` holds exactly zero: its deposits cancel and
    /// none was nonfinite.
    pub fn is_zero(&self, i: usize) -> bool {
        let (b, r) = self.locate(i);
        b.point_sum(r).is_zero()
    }

    /// Element-wise exact merge. Panics on length mismatch.
    pub fn merge(&mut self, other: &ExactVec) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            a.merge(b);
        }
    }

    /// Rounded total of accumulator `i`.
    #[inline]
    pub fn value(&self, i: usize) -> f64 {
        let (b, r) = self.locate(i);
        b.value(r)
    }

    /// Materialize every rounded total.
    pub fn values(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.value(i)).collect()
    }

    /// Total materialized limbs — every block plane plus every spilled
    /// window (8 bytes per limb). `zeros(n)` reports 0.
    pub fn window_limbs(&self) -> usize {
        self.blocks.iter().map(ExactBlock::window_limbs).sum()
    }

    /// Append every accumulator's canonical record (see
    /// [`ExactSum::encode_into`]) — the bytes one `ExactSum` per point
    /// holding the same deposits would write.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for b in &self.blocks {
            b.encode_into(out);
        }
    }

    /// Decode `n` records, advancing `pos`. Each block's window is sized
    /// from its own records (a first pass validates them and takes the
    /// union of their limb spans), so each plane is laid out once; records
    /// outside a block's capped window go to its spill. Allocation is
    /// bounded by `n` rows of at most `WIDTH_CAP` limbs plus each spilled
    /// record's own limbs.
    pub fn decode_from(buf: &[u8], pos: &mut usize, n: usize) -> Result<ExactVec, DecodeError> {
        let blocks = (0..n)
            .step_by(Self::BLOCK)
            .map(|lo| ExactBlock::decode_from(buf, pos, Self::BLOCK.min(n - lo)))
            .collect::<Result<_, _>>()?;
        Ok(ExactVec { n, blocks })
    }

    /// Carry-sweep every block now (a sweep never moves a bit).
    #[cfg(test)]
    fn sweep_carries(&mut self) {
        self.blocks.iter_mut().for_each(ExactBlock::sweep_carries);
    }
}

impl ExactBlock {
    fn zeros(rows: usize) -> Self {
        Self {
            rows,
            start: 0,
            width: 0,
            plane: Vec::new(),
            spill: BTreeMap::new(),
            special: BTreeMap::new(),
            pending: 0,
        }
    }

    /// Rows in this block.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Deposit a dense per-row vector (`xs[r]` into row `r`), exactly as
    /// [`ExactVec::add_dense`] deposits this block's slice of its input.
    /// Panics on length mismatch.
    pub fn add_dense(&mut self, xs: &[f64]) {
        assert_eq!(self.rows, xs.len(), "length mismatch");
        if self.width == 0 {
            self.open_window_for(xs);
        }
        for (r, &x) in xs.iter().enumerate() {
            self.deposit(r, x);
        }
        self.bump_pending(1);
    }

    /// Three-limb add of `x` into row `r` when the window covers its site
    /// (with a headroom limb above); everything else takes the cold path.
    #[inline(always)]
    fn deposit(&mut self, r: usize, x: f64) {
        if x == 0.0 {
            return;
        }
        if x.is_finite() {
            let (li, c) = deposit_site(x);
            if li >= self.start && li + 4 <= self.start + self.width {
                let o = r * self.width + (li - self.start);
                for (l, c) in self.plane[o..o + 3].iter_mut().zip(c) {
                    *l += c;
                }
                return;
            }
        }
        self.deposit_outside(r, x);
    }

    #[cold]
    #[inline(never)]
    fn deposit_outside(&mut self, r: usize, x: f64) {
        if !x.is_finite() {
            self.fold_special(r, x);
            return;
        }
        let li = deposit_site(x).0;
        if self.cover(li, li + 4) {
            self.deposit(r, x);
        } else {
            self.spill.entry(r).or_default().add(x);
        }
    }

    /// Size a fresh window for a whole dense deposit at once, so its first
    /// `add_dense` lays out the plane once instead of once per new
    /// magnitude. A range wider than the cap keeps its largest magnitudes.
    fn open_window_for(&mut self, xs: &[f64]) {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &x in xs {
            if x != 0.0 && x.is_finite() {
                let li = deposit_site(x).0;
                lo = lo.min(li);
                hi = hi.max(li + 4);
            }
        }
        if lo < hi {
            self.cover(lo.max(hi.saturating_sub(WIDTH_CAP)), hi);
        }
    }

    /// Make the window cover register limbs `lo..hi`, growing it (and
    /// re-laying the plane) if the capped width allows; `false` if not.
    fn cover(&mut self, lo: usize, hi: usize) -> bool {
        let (new_lo, new_hi) = if self.width == 0 {
            (lo, hi)
        } else {
            (lo.min(self.start), hi.max(self.start + self.width))
        };
        if new_hi - new_lo > WIDTH_CAP || new_hi > LIMBS {
            return false;
        }
        if new_lo != self.start || new_hi - new_lo != self.width {
            let width = new_hi - new_lo;
            let mut plane = vec![0i64; self.rows * width];
            if self.width > 0 {
                let off = self.start - new_lo;
                for (new, old) in plane
                    .chunks_exact_mut(width)
                    .zip(self.plane.chunks_exact(self.width))
                {
                    new[off..off + self.width].copy_from_slice(old);
                }
            }
            self.plane = plane;
            self.start = new_lo;
            self.width = width;
        }
        true
    }

    fn fold_special(&mut self, r: usize, x: f64) {
        self.special
            .entry(r)
            .and_modify(|s| *s = add_special(*s, x))
            .or_insert(x);
    }

    /// Add the signed limbs `limbs` (register positions `start ..`) into
    /// row `r`: into the plane when the window can cover their nonzero
    /// span, else into the row's spill. `pending` bounds the limbs as in
    /// [`ExactSum::from_window`].
    fn merge_row(&mut self, r: usize, start: usize, limbs: &[i64], pending: u32) {
        let Some(first) = limbs.iter().position(|&l| l != 0) else {
            return;
        };
        let last = limbs.iter().rposition(|&l| l != 0).expect("nonzero limb");
        let (lo, limbs) = (start + first, &limbs[first..=last]);
        if self.cover(lo, lo + limbs.len()) {
            let o = r * self.width + (lo - self.start);
            for (a, &b) in self.plane[o..o + limbs.len()].iter_mut().zip(limbs) {
                *a += b;
            }
        } else {
            let s = ExactSum::from_window(lo, limbs, pending);
            self.spill.entry(r).or_default().merge(&s);
        }
    }

    /// Fold one scalar accumulator into row `r` (exact).
    fn merge_scalar(&mut self, r: usize, s: &ExactSum) {
        if s.top == 0 {
            self.merge_row(r, s.start, &s.limbs, s.pending);
        } else {
            // A carry past the register: only `ExactSum` can hold it.
            let mut finite = s.clone();
            finite.has_special = false;
            self.spill.entry(r).or_default().merge(&finite);
        }
        if s.has_special {
            self.fold_special(r, s.special);
        }
        self.bump_pending(s.pending.saturating_add(1));
    }

    /// Row-wise exact merge of a block of the same length.
    fn merge(&mut self, other: &ExactBlock) {
        debug_assert_eq!(self.rows, other.rows);
        if other.width > 0 {
            let (lo, hi) = (other.start, other.start + other.width);
            if self.width == 0 {
                self.start = other.start;
                self.width = other.width;
                self.plane.clone_from(&other.plane);
            } else if self.cover(lo, hi) {
                let off = lo - self.start;
                if off == 0 && self.width == other.width {
                    for (a, &b) in self.plane.iter_mut().zip(&other.plane) {
                        *a += b;
                    }
                } else {
                    for (row, orow) in self
                        .plane
                        .chunks_exact_mut(self.width)
                        .zip(other.plane.chunks_exact(other.width))
                    {
                        for (a, &b) in row[off..off + other.width].iter_mut().zip(orow) {
                            *a += b;
                        }
                    }
                }
            } else {
                for (r, orow) in other.plane.chunks_exact(other.width).enumerate() {
                    self.merge_row(r, other.start, orow, other.pending);
                }
            }
        }
        for (&r, s) in &other.spill {
            self.spill.entry(r).or_default().merge(s);
        }
        for (&r, &x) in &other.special {
            self.fold_special(r, x);
        }
        self.bump_pending(other.pending.saturating_add(1));
    }

    #[inline]
    fn bump_pending(&mut self, by: u32) {
        self.pending = self.pending.saturating_add(by);
        if self.pending >= PENDING_MAX {
            self.sweep_carries();
        }
    }

    /// In-place carry sweep over the whole plane: every limb back to a
    /// signed residue in `(−2³¹, 2³¹]`. A carry out of a row's top limb —
    /// ~2³¹ deposits at the highest site, which the headroom limb absorbs
    /// in practice — moves to the row's spill.
    fn sweep_carries(&mut self) {
        let (start, width) = (self.start, self.width);
        if width > 0 {
            for (r, row) in self.plane.chunks_exact_mut(width).enumerate() {
                let mut carry = 0i64;
                for l in row.iter_mut() {
                    let (res, c) = signed_residue(*l + carry);
                    *l = res;
                    carry = c;
                }
                if carry != 0 {
                    let mut s = ExactSum::new();
                    if start + width < LIMBS {
                        s.start = start + width;
                        s.limbs.push(carry);
                    } else {
                        s.top = carry;
                    }
                    self.spill.entry(r).or_default().merge(&s);
                }
            }
        }
        self.pending = 0;
    }

    /// Whether the rows take the `i128` path ([`row_i128`](Self::row_i128)):
    /// the block holds no spill and no special.
    #[inline]
    fn plain(&self) -> bool {
        self.spill.is_empty() && self.special.is_empty()
    }

    /// Row `r` of a [`plain`](Self::plain) block as `(v, limb)` with value
    /// `v · 2^(32·limb − 1074)`, when the row's limbs from its lowest
    /// nonzero one up fold into an `i128` — which the 4–5 limb windows of
    /// valuation sums do. `None` sends the row to the general path.
    #[inline]
    fn row_i128(&self, r: usize) -> Option<(i128, usize)> {
        let row = &self.plane[r * self.width..(r + 1) * self.width];
        let Some(first) = row.iter().position(|&l| l != 0) else {
            return Some((0, 0));
        };
        // Below 2⁹⁴ before each shift, so `v · 2³² + l` stays below 2¹²⁷.
        const LIMIT: i128 = 1 << 94;
        let mut v = 0i128;
        for &l in row[first..].iter().rev() {
            if !(-LIMIT..LIMIT).contains(&v) {
                return None;
            }
            v = (v << LIMB_BITS) + l as i128;
        }
        Some((v, self.start + first))
    }

    /// Row `r`'s canonical digits straight from its plane row, or `None`
    /// when the row has a spill or the widened row would run past the
    /// register — those round through [`point_sum`](Self::point_sum).
    #[inline]
    fn row_digits(&self, r: usize) -> Option<RowDigits> {
        if self.start + self.width + 3 > LIMBS || self.spill.contains_key(&r) {
            return None;
        }
        let mut mag = [0i64; WIDTH_CAP + 3];
        let len = self.width + 3;
        if self.width > 0 {
            mag[..self.width].copy_from_slice(&self.plane[r * self.width..(r + 1) * self.width]);
        }
        let (sign, overflow) = to_sign_magnitude(&mut mag[..len], 0);
        debug_assert!(!overflow, "three extra limbs hold any row carry");
        Some(RowDigits { sign, mag, len })
    }

    /// Row `r`'s whole state as one scalar accumulator: plane row, spill
    /// and special.
    fn point_sum(&self, r: usize) -> ExactSum {
        let mut s = if self.width > 0 {
            let row = &self.plane[r * self.width..(r + 1) * self.width];
            ExactSum::from_window(self.start, row, self.pending)
        } else {
            ExactSum::new()
        };
        if let Some(spill) = self.spill.get(&r) {
            s.merge(spill);
        }
        if let Some(&x) = self.special.get(&r) {
            s.fold_special(x);
        }
        s
    }

    /// Rounded total of row `r`: through [`round_i128`] when the row folds
    /// into an `i128` and its value is a normal `f64`, else
    /// [`value_slow`](Self::value_slow).
    #[inline]
    fn value(&self, r: usize) -> f64 {
        let fast = self.plain().then(|| self.row_i128(r)).flatten();
        match fast.and_then(|(v, limb)| round_i128(v, limb)) {
            Some(x) => x,
            None => self.value_slow(r),
        }
    }

    /// Rounded total of row `r` from its canonical digits.
    fn value_slow(&self, r: usize) -> f64 {
        let Some(d) = self.row_digits(r) else {
            return self.point_sum(r).value();
        };
        let finite = round_magnitude(d.sign, &d.mag[..d.len], self.start);
        match self.special.get(&r) {
            Some(&x) => finite + x,
            None => finite,
        }
    }

    fn window_limbs(&self) -> usize {
        self.plane.len()
            + self
                .spill
                .values()
                .map(ExactSum::window_limbs)
                .sum::<usize>()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let plain = self.plain();
        for r in 0..self.rows {
            let fast = plain
                && self
                    .row_i128(r)
                    .is_some_and(|(v, limb)| write_i128(out, v, limb));
            if !fast {
                self.encode_row_slow(r, out);
            }
        }
    }

    /// Row `r`'s record from its canonical digits.
    fn encode_row_slow(&self, r: usize, out: &mut Vec<u8>) {
        match self.row_digits(r) {
            Some(d) => write_record(
                out,
                d.sign,
                &d.mag[..d.len],
                self.start,
                self.special.get(&r).copied(),
            ),
            None => self.point_sum(r).encode_into(out),
        }
    }

    /// Decode `rows` records (see [`ExactVec::decode_from`]).
    fn decode_from(buf: &[u8], pos: &mut usize, rows: usize) -> Result<ExactBlock, DecodeError> {
        let (mut lo, mut hi) = (usize::MAX, 0);
        let mut scan = *pos;
        for _ in 0..rows {
            let r = Record::decode(buf, &mut scan)?;
            if r.len() > 0 {
                lo = lo.min(r.start);
                hi = hi.max(r.start + r.len());
            }
        }
        let mut b = ExactBlock::zeros(rows);
        if lo < hi {
            // One headroom limb above, like a deposit window; keep the
            // largest magnitudes when the span exceeds the cap.
            let hi = (hi + 1).min(LIMBS);
            b.cover(lo.max(hi.saturating_sub(WIDTH_CAP)), hi);
            b.pending = 2; // decoded limbs reach 2³² − 1, as in `ExactSum`
        }
        for row in 0..rows {
            let r = Record::decode(buf, pos).expect("validated by the first pass");
            let (lo, len) = (r.start, r.len());
            if len > 0 && b.width > 0 && lo >= b.start && lo + len <= b.start + b.width {
                let o = row * b.width + (lo - b.start);
                for (l, x) in b.plane[o..o + len].iter_mut().zip(r.limbs()) {
                    *l = x;
                }
            } else if len > 0 {
                b.spill.insert(row, ExactSum::from_record(&r));
            }
            if let Some(x) = r.special {
                b.fold_special(row, x);
            }
        }
        Ok(b)
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sum_of(xs: &[f64]) -> ExactSum {
        let mut s = ExactSum::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    #[test]
    fn single_summand_roundtrips_bitwise() {
        let cases = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -3.25e-7,
            f64::MIN_POSITIVE,          // least normal
            f64::from_bits(1),          // least subnormal
            f64::from_bits(0xFFF_FFFF), // random subnormal
            f64::MAX,
            f64::MIN,
            1.2345678901234567e300,
            -9.87e-310,
        ];
        for &x in &cases {
            let got = sum_of(&[x]).value();
            // ±0.0 both come back as +0.0 (an exact zero has no sign).
            if x == 0.0 {
                assert_eq!(got.to_bits(), 0.0f64.to_bits(), "x={x:?}");
            } else {
                assert_eq!(got.to_bits(), x.to_bits(), "x={x:?}");
            }
        }
    }

    #[test]
    fn classic_cancellation_is_exact() {
        assert_eq!(sum_of(&[1.0, 1e100, 1.0, -1e100]).value(), 2.0);
        assert_eq!(sum_of(&[1e308, -1e308, 1e-308, -1e-308]).value(), 0.0);
        // Ten copies of fl(0.1) = 7205759403792794·2⁻⁵⁶ sum exactly to
        // 1 + 2⁻⁵⁴, which correctly rounds to 1.0 — what `math.fsum` reports,
        // and what a naive f64 chain famously does not (0.9999999999999999).
        assert_eq!(sum_of(&[0.1; 10]).value(), 1.0);
    }

    #[test]
    fn matches_i128_reference_on_bounded_exponents() {
        // Summands m · 2^e with m ∈ ±[0, 2³²), e ∈ [0, 60): the exact sum
        // fits an i128, whose `as f64` conversion is correctly rounded.
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..200 {
            let xs: Vec<(i128, f64)> = (0..50)
                .map(|_| {
                    let m = rng.gen_range(-(1i64 << 32)..(1i64 << 32)) as i128;
                    let e = rng.gen_range(0..60u32);
                    (m << e, (m as f64) * (2.0f64).powi(e as i32))
                })
                .collect();
            let exact_int: i128 = xs.iter().map(|&(i, _)| i).sum();
            let s = sum_of(&xs.iter().map(|&(_, f)| f).collect::<Vec<_>>());
            assert_eq!(
                s.value().to_bits(),
                (exact_int as f64).to_bits(),
                "exact_int={exact_int}"
            );
        }
    }

    #[test]
    fn ties_round_to_even() {
        let two53 = 9007199254740992.0; // 2^53
                                        // 2^53 + 1 is exactly halfway, LSB even → stays 2^53.
        assert_eq!(sum_of(&[two53, 1.0]).value(), two53);
        // 2^53 + 3 is halfway between 2^53+2 and 2^53+4 → rounds to +4.
        assert_eq!(sum_of(&[two53, 3.0]).value(), two53 + 4.0);
        // 2^53 + 1 + tiny is above halfway → rounds up.
        assert_eq!(sum_of(&[two53, 1.0, 1e-30]).value(), two53 + 2.0);
        // Negative mirror.
        assert_eq!(sum_of(&[-two53, -1.0]).value(), -two53);
        assert_eq!(sum_of(&[-two53, -3.0]).value(), -(two53 + 4.0));
    }

    #[test]
    fn mantissa_carry_on_rounding() {
        let below_two = 2.0 - 2.0f64.powi(-52); // predecessor of 2.0
                                                // (2 − 2⁻⁵²) + 2⁻⁵⁴ = 2 − 3·2⁻⁵⁴ is below the halfway point → down.
        assert_eq!(sum_of(&[below_two, 2.0f64.powi(-54)]).value(), below_two);
        // (2 − 2⁻⁵²) + 2⁻⁵³ = 2 − 2⁻⁵³ is exactly halfway; ties-to-even
        // carries the mantissa across the binade boundary to exactly 2.0.
        assert_eq!(sum_of(&[below_two, 2.0f64.powi(-53)]).value(), 2.0);
    }

    #[test]
    fn subnormal_arithmetic_is_exact() {
        let tiny = f64::from_bits(1); // 2^-1074
        assert_eq!(sum_of(&[tiny, tiny, tiny]).value(), f64::from_bits(3));
        assert_eq!(sum_of(&[tiny, -tiny]).value(), 0.0);
        // Crossing from subnormal into normal range.
        let almost = f64::MIN_POSITIVE - tiny;
        assert_eq!(sum_of(&[almost, tiny]).value(), f64::MIN_POSITIVE);
    }

    #[test]
    fn overflow_saturates_like_f64() {
        let s = sum_of(&[f64::MAX, f64::MAX]);
        assert_eq!(s.value(), f64::INFINITY);
        let s = sum_of(&[f64::MIN, f64::MIN]);
        assert_eq!(s.value(), f64::NEG_INFINITY);
        // …but unlike f64, intermediate overflow that cancels is recovered.
        assert_eq!(
            sum_of(&[f64::MAX, f64::MAX, -f64::MAX, -f64::MAX]).value(),
            0.0
        );
    }

    #[test]
    fn nonfinite_summands_propagate() {
        assert_eq!(sum_of(&[1.0, f64::INFINITY]).value(), f64::INFINITY);
        assert_eq!(sum_of(&[f64::NEG_INFINITY, 5.0]).value(), f64::NEG_INFINITY);
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY]).value().is_nan());
        assert!(sum_of(&[f64::NAN, 1.0]).value().is_nan());
        // Specials survive a merge.
        let mut a = sum_of(&[1.0]);
        a.merge(&sum_of(&[f64::INFINITY]));
        assert_eq!(a.value(), f64::INFINITY);
    }

    #[test]
    fn order_and_grouping_invariance_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..50 {
            // Wildly mixed magnitudes, signs, and a few exact duplicates.
            let mut xs: Vec<f64> = (0..120)
                .map(|_| {
                    let m: f64 = rng.gen_range(-1.0..1.0);
                    let e: i32 = rng.gen_range(-80..80);
                    m * (2.0f64).powi(e)
                })
                .collect();
            let reference = sum_of(&xs).value();

            // Shuffle, then split into a random number of contiguous groups,
            // sum each group independently, merge in a random order.
            knnshap_numerics_shuffle(&mut rng, &mut xs);
            let k = rng.gen_range(1..10usize);
            let mut parts: Vec<ExactSum> = xs.chunks(xs.len().div_ceil(k)).map(sum_of).collect();
            knnshap_numerics_shuffle(&mut rng, &mut parts);
            let mut total = ExactSum::new();
            for p in &parts {
                total.merge(p);
            }
            assert_eq!(
                total.value().to_bits(),
                reference.to_bits(),
                "round={round}"
            );
        }
    }

    /// Local Fisher–Yates so this module doesn't depend on `sampling`.
    fn knnshap_numerics_shuffle<R: Rng, T>(rng: &mut R, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }

    #[test]
    fn windows_are_lazy_and_stay_small_for_similar_magnitudes() {
        // A fresh accumulator materializes nothing.
        assert_eq!(ExactSum::new().window_limbs(), 0);
        assert_eq!(ExactVec::zeros(1000).window_limbs(), 0);

        // Unit-scale deposits touch a 3-limb site; thousands of them (with
        // sweeps) stay within a handful of limbs — not the full 68-limb
        // register.
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = ExactSum::new();
        for _ in 0..5_000 {
            s.add(rng.gen_range(-1.0..1.0));
        }
        assert!(s.window_limbs() <= 6, "window = {}", s.window_limbs());

        // Mixing in a very different magnitude grows the window to span it…
        s.add(1e300);
        assert!(s.window_limbs() > 20, "window = {}", s.window_limbs());
        // …and the value is still the exact sum (spot check vs fresh order).
        assert!(s.value() == 1e300 || (s.value() - 1e300).abs() < 1e285);
    }

    #[test]
    fn sweeps_shrink_windows_emptied_by_cancellation() {
        let mut s = ExactSum::new();
        s.add(1e100);
        s.add(-1e100);
        let grown = s.window_limbs();
        assert!(grown >= 3);
        s.sweep_carries();
        assert_eq!(s.window_limbs(), 0, "cancelled window must trim to empty");
        assert!(s.is_zero());
        // And the accumulator remains fully usable afterwards.
        s.add(2.5);
        assert_eq!(s.value(), 2.5);
    }

    #[test]
    fn window_growth_covers_front_and_back_extensions() {
        // Deposit order forces both front (smaller magnitude) and back
        // (larger magnitude) window growth, plus merges across disjoint
        // windows — all must agree with a flat accumulation bitwise.
        let xs = [
            1.0,
            2.0f64.powi(-500),
            2.0f64.powi(700),
            -1.5,
            2.0f64.powi(-800),
        ];
        let whole = sum_of(&xs);
        for split in 1..xs.len() {
            let mut a = sum_of(&xs[..split]);
            a.merge(&sum_of(&xs[split..]));
            assert_eq!(
                a.value().to_bits(),
                whole.value().to_bits(),
                "split={split}"
            );
        }
    }

    #[test]
    fn many_deposits_trigger_carry_sweeps() {
        // 3·10^6 deposits of 0.1 — enough to exercise pending bookkeeping —
        // must equal the correctly-rounded exact sum. fl(0.1) = m/2^55 with
        // m = 3602879701896397; 3e6·m is exact in i128.
        let mut s = ExactSum::new();
        for _ in 0..3_000_000 {
            s.add(0.1);
        }
        let exact = (3_000_000i128 * 3602879701896397) as f64 / (2.0f64).powi(55);
        assert_eq!(s.value().to_bits(), exact.to_bits());
    }

    #[test]
    fn encode_decode_roundtrips_and_is_canonical() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let xs: Vec<f64> = (0..40)
                .map(|_| rng.gen_range(-1.0..1.0) * (2.0f64).powi(rng.gen_range(-60..60)))
                .collect();
            let a = sum_of(&xs);
            // A differently-grouped accumulation of the same multiset…
            let mut b = sum_of(&xs[..17]);
            b.merge(&sum_of(&xs[17..]));
            let (mut ba, mut bb) = (Vec::new(), Vec::new());
            a.encode_into(&mut ba);
            b.encode_into(&mut bb);
            // …serializes to identical bytes (canonical form).
            assert_eq!(ba, bb);
            let mut pos = 0;
            let back = ExactSum::decode_from(&ba, &mut pos).unwrap();
            assert_eq!(pos, ba.len(), "record length self-describes");
            assert_eq!(back.value().to_bits(), a.value().to_bits());
        }
    }

    #[test]
    fn encode_decode_zero_and_special() {
        let z = ExactSum::new();
        let mut buf = Vec::new();
        z.encode_into(&mut buf);
        assert_eq!(buf, vec![0u8, 0, 0, 0, 0]); // sign 0, start 0, len 0
        let mut pos = 0;
        assert_eq!(ExactSum::decode_from(&buf, &mut pos).unwrap().value(), 0.0);

        // A special over a ZERO finite part must still round-trip (the sign
        // code carries the special flag even when no limbs follow).
        let mut pure = ExactSum::new();
        pure.add(f64::NEG_INFINITY);
        let mut buf = Vec::new();
        pure.encode_into(&mut buf);
        let mut pos = 0;
        let back = ExactSum::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.value(), f64::NEG_INFINITY);

        let s = sum_of(&[2.5, f64::INFINITY]);
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        let mut pos = 0;
        let back = ExactSum::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.value(), f64::INFINITY);
        // The finite part survives alongside the special.
        let mut minus_inf = ExactSum::new();
        minus_inf.add(f64::NEG_INFINITY);
        let mut c = back;
        c.merge(&minus_inf);
        assert!(c.value().is_nan()); // inf + (−inf) = NaN, f64 semantics
    }

    #[test]
    fn decode_rejects_malformed_records() {
        assert!(ExactSum::decode_from(&[], &mut 0).is_err());
        // Truncated limb payload.
        let mut buf = Vec::new();
        sum_of(&[1.5]).encode_into(&mut buf);
        buf.pop();
        assert!(ExactSum::decode_from(&buf, &mut 0).is_err());
        // Window out of range.
        let bad = [1u8, 0xFF, 0xFF, 2, 0];
        assert!(ExactSum::decode_from(&bad, &mut 0).is_err());
        // Bad sign bytes — including 0x80, whose naive `as i8` + `abs()`
        // interpretation would overflow-panic in debug builds.
        for bad_sign in [7u8, 0x80, 0xFD, 3] {
            let bad = [bad_sign, 0, 0, 0, 0];
            assert!(
                ExactSum::decode_from(&bad, &mut 0).is_err(),
                "{bad_sign:#x}"
            );
        }
        // Zero sign but nonzero window length.
        let bad = [0u8, 0, 0, 1, 0, 1, 0, 0, 0];
        assert!(ExactSum::decode_from(&bad, &mut 0).is_err());
    }

    #[test]
    fn vec_merge_matches_flat_accumulation() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 7;
        let deposits: Vec<(usize, f64)> = (0..500)
            .map(|_| {
                (
                    rng.gen_range(0..n),
                    rng.gen_range(-1.0..1.0) * (2.0f64).powi(rng.gen_range(-40..40)),
                )
            })
            .collect();
        let mut whole = ExactVec::zeros(n);
        for &(i, x) in &deposits {
            whole.add(i, x);
        }
        let mut left = ExactVec::zeros(n);
        let mut right = ExactVec::zeros(n);
        for &(i, x) in &deposits[..250] {
            left.add(i, x);
        }
        for &(i, x) in &deposits[250..] {
            right.add(i, x);
        }
        left.merge(&right);
        for i in 0..n {
            assert_eq!(left.value(i).to_bits(), whole.value(i).to_bits(), "i={i}");
        }
        assert_eq!(left.values(), whole.values());

        // Vector serialization round-trip.
        let mut buf = Vec::new();
        whole.encode_into(&mut buf);
        let mut pos = 0;
        let back = ExactVec::decode_from(&buf, &mut pos, n).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(back.values(), whole.values());
    }

    #[test]
    fn add_dense_skips_zeros_and_checks_length() {
        let mut v = ExactVec::zeros(3);
        v.add_dense(&[1.0, 0.0, -2.0]);
        v.add_dense(&[0.5, 0.0, 0.0]);
        assert_eq!(v.values(), vec![1.5, 0.0, -2.0]);
        assert!(!v.is_empty());
        assert_eq!(v.len(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vec_merge_rejects_length_mismatch() {
        let mut a = ExactVec::zeros(2);
        a.merge(&ExactVec::zeros(3));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_dense_rejects_length_mismatch() {
        let mut a = ExactVec::zeros(2);
        a.add_dense(&[1.0; 3]);
    }
}
