//! Bit-packed bitmaps.
//!
//! One bit per row, stored in little-endian `u64` words. Used in two roles:
//!
//! * **validity** — set ⇒ the value is valid, clear ⇒ NULL, and
//! * **selection masks** — set ⇒ the row passed a predicate (the vectorized
//!   filter path combines masks with word-level [`Bitmap::and`] /
//!   [`Bitmap::or`] instead of per-row booleans).

/// A growable bitmap.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// A bitmap of `len` bits, all set (no NULLs).
    pub fn all_valid(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bitmap { words, len }
    }

    /// A bitmap of `len` bits, all clear.
    pub fn all_clear(len: usize) -> Self {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Build from a boolean slice (selection-mask construction).
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut out = Bitmap::all_clear(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                out.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        out
    }

    /// Build `len` bits from a per-index predicate.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut out = Bitmap::all_clear(len);
        for i in 0..len {
            if f(i) {
                out.words[i / 64] |= 1u64 << (i % 64);
            }
        }
        out
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Whether bit `i` is set. Panics past the end (indexing contract, same
    /// as slices).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits (valid values).
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of clear bits (NULLs).
    pub fn count_null(&self) -> usize {
        self.len - self.count_set()
    }

    /// True iff every bit is set — lets encoders skip the null path.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    /// True iff at least one bit is set. Word-level, so an all-false
    /// selection mask short-circuits in O(words).
    pub fn any_set(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Set bit `i` (must be in range).
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Set every bit in `[from, to)`, whole words at a time. This is what
    /// lets an RLE predicate kernel fill a run's worth of selection mask in
    /// O(run/64) instead of O(run).
    pub fn set_range(&mut self, from: usize, to: usize) {
        assert!(
            from <= to && to <= self.len,
            "bitmap range {from}..{to} out of range {}",
            self.len
        );
        if from == to {
            return;
        }
        let (fw, fb) = (from / 64, from % 64);
        let (lw, lb) = ((to - 1) / 64, (to - 1) % 64);
        let head = u64::MAX << fb;
        let tail = u64::MAX >> (63 - lb);
        if fw == lw {
            self.words[fw] |= head & tail;
            return;
        }
        self.words[fw] |= head;
        for w in &mut self.words[fw + 1..lw] {
            *w = u64::MAX;
        }
        self.words[lw] |= tail;
    }

    /// Word-level intersection of two equal-length bitmaps (Kleene "both
    /// definitely true" for selection masks).
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch in and()");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
            len: self.len,
        }
    }

    /// Word-level union of two equal-length bitmaps.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch in or()");
        Bitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
            len: self.len,
        }
    }

    /// Visit every set bit's index in ascending order, skipping clear words
    /// wholesale (the fast inner loop of the vectorized filter).
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    /// Append all bits of `other`.
    pub fn extend(&mut self, other: &Bitmap) {
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// Bits `[from, to)` as a new bitmap.
    pub fn slice(&self, from: usize, to: usize) -> Bitmap {
        assert!(from <= to && to <= self.len);
        let mut out = Bitmap::new();
        for i in from..to {
            out.push(self.get(i));
        }
        out
    }

    /// Serialize: bit count then words.
    pub fn to_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Deserialize from `bytes` starting at `*pos`; advances `*pos`.
    pub fn from_bytes(bytes: &[u8], pos: &mut usize) -> Option<Bitmap> {
        let len = read_u64(bytes, pos)? as usize;
        let nwords = len.div_ceil(64);
        let mut words = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            words.push(read_u64(bytes, pos)?);
        }
        Some(Bitmap { words, len })
    }
}

pub(crate) fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let end = pos.checked_add(8)?;
    let slice = bytes.get(*pos..end)?;
    *pos = end;
    Some(u64::from_le_bytes(slice.try_into().expect("8-byte slice")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut b = Bitmap::new();
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        for &v in &pattern {
            b.push(v);
        }
        assert_eq!(b.len(), 200);
        for (i, &v) in pattern.iter().enumerate() {
            assert_eq!(b.get(i), v, "bit {i}");
        }
        assert_eq!(b.count_set(), pattern.iter().filter(|&&v| v).count());
        assert_eq!(b.count_null(), 200 - b.count_set());
    }

    #[test]
    fn all_valid_sets_exactly_len_bits() {
        for len in [0, 1, 63, 64, 65, 128, 130] {
            let b = Bitmap::all_valid(len);
            assert_eq!(b.len(), len);
            assert_eq!(b.count_set(), len, "len={len}");
            assert!(b.all_set());
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let mut b = Bitmap::new();
        for i in 0..77 {
            b.push(i % 7 != 2);
        }
        let mut buf = Vec::new();
        b.to_bytes(&mut buf);
        let mut pos = 0;
        let back = Bitmap::from_bytes(&buf, &mut pos).unwrap();
        assert_eq!(back, b);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn truncated_bytes_return_none() {
        let b = Bitmap::all_valid(100);
        let mut buf = Vec::new();
        b.to_bytes(&mut buf);
        buf.truncate(buf.len() - 1);
        let mut pos = 0;
        assert!(Bitmap::from_bytes(&buf, &mut pos).is_none());
    }

    #[test]
    fn extend_and_slice() {
        let mut a = Bitmap::new();
        a.push(true);
        a.push(false);
        let mut b = Bitmap::new();
        b.push(false);
        b.push(true);
        a.extend(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(
            (0..4).map(|i| a.get(i)).collect::<Vec<_>>(),
            vec![true, false, false, true]
        );
        let s = a.slice(1, 3);
        assert_eq!(s.len(), 2);
        assert!(!s.get(0));
        assert!(!s.get(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_panics() {
        Bitmap::all_valid(3).get(3);
    }

    #[test]
    fn set_range_matches_per_bit_loop() {
        for len in [1, 63, 64, 65, 130, 200] {
            for (from, to) in [
                (0, 0),
                (0, 1),
                (3.min(len), 17.min(len)),
                (0, len),
                (len / 2, len),
            ] {
                let mut fast = Bitmap::all_clear(len);
                fast.set_range(from, to);
                let slow = Bitmap::from_fn(len, |i| i >= from && i < to);
                assert_eq!(fast, slow, "len={len} range={from}..{to}");
            }
        }
        // Range fills must not spill past `len` into padding bits.
        let mut b = Bitmap::all_clear(70);
        b.set_range(60, 70);
        assert_eq!(b.count_set(), 10);
    }
}
