//! Order-sensitive 64-bit content fingerprints (SplitMix64-style mixing).
//!
//! Shared by every on-disk artifact that must refuse to combine with inputs
//! it was not computed from: `KNNSHARD` partials, `KNNJOBPLAN` directories
//! and `KNNGRAPH` neighbor graphs all stamp dataset/parameter fingerprints
//! built here. The goal is to detect *operator mistakes* — two invocations
//! that disagree on datasets, seeds or parameters — not to resist
//! adversaries. [`ByteDigest`] is the same idea for raw file bytes: a job's
//! training-set snapshot records the digest of the CSV it was parsed from.

/// Order-sensitive 64-bit fingerprint builder (SplitMix64-style mixing).
/// Used to detect operator mistakes — two invocations that disagree on
/// datasets, seeds or parameters — not to resist adversaries.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new(domain: &str) -> Self {
        let mut f = Fingerprint(0x9E37_79B9_7F4A_7C15);
        for b in domain.bytes() {
            f = f.u64(b as u64);
        }
        f
    }

    #[must_use]
    pub fn u64(self, x: u64) -> Self {
        let mut z = self.0 ^ x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Fingerprint((z ^ (z >> 27)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    #[must_use]
    pub fn f64(self, x: f64) -> Self {
        self.u64(x.to_bits())
    }

    #[must_use]
    pub fn f32s(self, xs: &[f32]) -> Self {
        let mut f = self.u64(xs.len() as u64);
        for &x in xs {
            f = f.u64(x.to_bits() as u64);
        }
        f
    }

    #[must_use]
    pub fn u32s(self, xs: &[u32]) -> Self {
        let mut f = self.u64(xs.len() as u64);
        for &x in xs {
            f = f.u64(x as u64);
        }
        f
    }

    #[must_use]
    pub fn f64s(self, xs: &[f64]) -> Self {
        let mut f = self.u64(xs.len() as u64);
        for &x in xs {
            f = f.f64(x);
        }
        f
    }

    pub fn finish(self) -> u64 {
        self.0 ^ (self.0 >> 31)
    }
}

/// A streaming 64-bit digest of a byte sequence: a pure function of the
/// bytes, whatever pieces they arrive in. Four independent lanes each fold
/// one little-endian word of every 32-byte stripe (the xxHash64 round), so
/// the digest runs at memory speed; the last, partial stripe is zero-padded
/// and the byte count is folded in with the lanes. Like [`Fingerprint`],
/// it detects changed files, not adversaries.
#[derive(Debug, Clone)]
pub struct ByteDigest {
    lanes: [u64; 4],
    /// The bytes of a stripe not completed yet.
    held: [u8; 32],
    held_len: usize,
    len: u64,
}

const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;

impl Default for ByteDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl ByteDigest {
    pub fn new() -> Self {
        Self {
            lanes: [PRIME1, PRIME2, 0, PRIME1.wrapping_neg()],
            held: [0; 32],
            held_len: 0,
            len: 0,
        }
    }

    /// The digest of `bytes` in one piece.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut d = Self::new();
        d.update(bytes);
        d.finish()
    }

    /// Fold the next `bytes` of the sequence.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.held_len > 0 {
            let take = (32 - self.held_len).min(bytes.len());
            self.held[self.held_len..self.held_len + take].copy_from_slice(&bytes[..take]);
            self.held_len += take;
            bytes = &bytes[take..];
            if self.held_len < 32 {
                return;
            }
            let stripe = self.held;
            self.stripe(&stripe);
            self.held_len = 0;
        }
        let mut stripes = bytes.chunks_exact(32);
        for s in stripes.by_ref() {
            self.stripe(s.try_into().expect("32-byte chunk"));
        }
        let rest = stripes.remainder();
        self.held[..rest.len()].copy_from_slice(rest);
        self.held_len = rest.len();
    }

    #[inline]
    fn stripe(&mut self, s: &[u8; 32]) {
        for (lane, word) in self.lanes.iter_mut().zip(s.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = lane
                .wrapping_add(w.wrapping_mul(PRIME2))
                .rotate_left(31)
                .wrapping_mul(PRIME1);
        }
    }

    /// Bytes folded so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digest of every byte folded so far.
    pub fn finish(&self) -> u64 {
        let mut d = self.clone();
        if d.held_len > 0 {
            let mut last = [0u8; 32];
            last[..d.held_len].copy_from_slice(&d.held[..d.held_len]);
            d.stripe(&last);
        }
        let f = Fingerprint::new("bytes").u64(d.len);
        d.lanes.iter().fold(f, |f, &lane| f.u64(lane)).finish()
    }
}

/// A reader that digests every byte it hands out, in order: wrap the source
/// a parser consumes to learn the digest of exactly what it read.
#[derive(Debug)]
pub struct DigestReader<R> {
    inner: R,
    digest: ByteDigest,
}

impl<R> DigestReader<R> {
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            digest: ByteDigest::new(),
        }
    }

    /// The digest of the bytes read so far.
    pub fn digest(&self) -> &ByteDigest {
        &self.digest
    }
}

impl<R: std::io::Read> std::io::Read for DigestReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest.update(&buf[..n]);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_digest_does_not_depend_on_the_pieces() {
        let bytes: Vec<u8> = (0..1000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        for len in [0usize, 1, 31, 32, 33, 64, 100, 1000] {
            let whole = ByteDigest::of(&bytes[..len]);
            for piece in [1usize, 5, 31, 32, 40, 97] {
                let mut d = ByteDigest::new();
                for p in bytes[..len].chunks(piece) {
                    d.update(p);
                }
                assert_eq!(d.len(), len as u64);
                assert_eq!(d.finish(), whole, "{len} bytes in pieces of {piece}");
            }
        }
    }

    #[test]
    fn byte_digest_sees_every_byte_and_the_length() {
        let bytes = b"0.5,1.25,0\n-3,4e-2,1\n".to_vec();
        let base = ByteDigest::of(&bytes);
        for i in 0..bytes.len() {
            let mut edited = bytes.clone();
            edited[i] ^= 1;
            assert_ne!(ByteDigest::of(&edited), base, "byte {i}");
        }
        // A trailing zero byte is not the zero padding of the last stripe.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_ne!(ByteDigest::of(&padded), base);
        assert_ne!(ByteDigest::of(&[]), ByteDigest::of(&[0]));
    }

    #[test]
    fn digest_reader_digests_what_it_reads() {
        use std::io::Read;
        let bytes: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut r = DigestReader::new(&bytes[..]);
        let mut out = Vec::new();
        let mut buf = [0u8; 7];
        loop {
            let n = r.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, bytes);
        assert_eq!(r.digest().finish(), ByteDigest::of(&bytes));
        assert_eq!(r.digest().len(), 300);
    }

    #[test]
    fn order_and_domain_sensitive() {
        let a = Fingerprint::new("t").u64(1).u64(2).finish();
        let b = Fingerprint::new("t").u64(2).u64(1).finish();
        let c = Fingerprint::new("u").u64(1).u64(2).finish();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn slice_hashing_is_length_prefixed() {
        // [1.0, 2.0] must not collide with [1.0] ++ [2.0] hashed separately.
        let joined = Fingerprint::new("t").f32s(&[1.0, 2.0]).finish();
        let split = Fingerprint::new("t").f32s(&[1.0]).f32s(&[2.0]).finish();
        assert_ne!(joined, split);
    }
}
