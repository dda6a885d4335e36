//! The on-chip counter array (§III.C of the paper).
//!
//! One counter per bucket (or per slot in the blocked variant), recording
//! how many live copies the occupying item currently has in the whole
//! table. Counts never exceed `d ≤ 4`, so 2–3 bits suffice ("for the case
//! of d = 3, each counter costs only 2 bits"); counters are packed into
//! 64-bit words exactly as an SRAM implementation would.
//!
//! The array serves the sequential stores (`store::PlainStore`) only:
//! it is their on-chip model and what `McCuckoo::onchip_bytes` counts.
//! The concurrent table keeps each bucket's counter in a byte of the
//! bucket's slot record instead, on the line its writer loads anyway.
//!
//! Tombstones (deletion solution 2, §III.B.3) need one extra state beyond
//! `0..=d`. Rather than widening every counter, a separate packed bit
//! plane is allocated lazily the first time a tombstone is set — tables
//! configured without tombstone deletion pay nothing.

use crate::prefetch::huge_plane;

/// Packed counter array with optional tombstone plane.
#[derive(Debug)]
pub struct CounterArray {
    bits: u32,
    mask: u64,
    per_word: usize,
    /// `log2(per_word)` when `per_word` is a power of two (every
    /// `max_value ≤ 3`), so a counter's word is found by shift.
    word_shift: Option<u32>,
    len: usize,
    words: Box<[u64]>,
    /// Lazily allocated tombstone bit plane (1 bit per counter).
    tombs: Option<Box<[u64]>>,
    max_value: u8,
}

impl CounterArray {
    /// Array of `len` counters able to hold values `0..=max_value`.
    ///
    /// # Panics
    /// Panics if `max_value == 0` or `max_value > 15`.
    pub fn new(len: usize, max_value: u8) -> Self {
        assert!(max_value >= 1, "counters must hold at least 0..=1");
        assert!(max_value <= 15, "counter width capped at 4 bits");
        let bits = 8 - max_value.leading_zeros() % 8; // ceil(log2(max+1))
        let bits = bits.max(1);
        let per_word = (64 / bits) as usize;
        Self {
            bits,
            mask: (1u64 << bits) - 1,
            per_word,
            word_shift: per_word
                .is_power_of_two()
                .then(|| per_word.trailing_zeros()),
            len,
            words: huge_plane(len.div_ceil(per_word), || 0).into_boxed_slice(),
            tombs: None,
            max_value,
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no counters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per counter (on-chip budget accounting; tombstone plane adds
    /// one more bit per counter once allocated).
    pub fn bits_per_counter(&self) -> u32 {
        self.bits + if self.tombs.is_some() { 1 } else { 0 }
    }

    /// Total on-chip bytes consumed.
    pub fn onchip_bytes(&self) -> usize {
        self.words.len() * 8 + self.tombs.as_ref().map_or(0, |t| t.len() * 8)
    }

    /// Word index and bit offset of counter `i`.
    #[inline]
    fn locate(&self, i: usize) -> (usize, u32) {
        debug_assert!(i < self.len);
        let (w, r) = match self.word_shift {
            Some(shift) => (i >> shift, i & (self.per_word - 1)),
            None => (i / self.per_word, i % self.per_word),
        };
        (w, r as u32 * self.bits)
    }

    /// Counter value at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u8 {
        let (w, off) = self.locate(i);
        ((self.words[w] >> off) & self.mask) as u8
    }

    /// Prefetch the word holding counter `i`.
    #[inline]
    pub(crate) fn prefetch(&self, i: usize) {
        crate::prefetch::prefetch_index(&self.words, self.locate(i).0);
    }

    /// Set counter `i` to `v`, clearing any tombstone.
    #[inline]
    pub fn set(&mut self, i: usize, v: u8) {
        debug_assert!(
            v <= self.max_value,
            "counter value {v} exceeds max {}",
            self.max_value
        );
        let (w, off) = self.locate(i);
        let word = &mut self.words[w];
        *word = (*word & !(self.mask << off)) | ((v as u64) << off);
        if let Some(t) = &mut self.tombs {
            t[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Whether counter `i` carries a tombstone mark.
    #[inline]
    pub fn is_tombstone(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.tombs
            .as_ref()
            .is_some_and(|t| t[i / 64] >> (i % 64) & 1 == 1)
    }

    /// Mark counter `i` as deleted: value forced to 0, tombstone bit set.
    pub fn set_tombstone(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.set(i, 0);
        let len = self.len;
        let t = self
            .tombs
            .get_or_insert_with(|| vec![0; len.div_ceil(64)].into_boxed_slice());
        t[i / 64] |= 1u64 << (i % 64);
    }

    /// Convenience for the insertion rules: counter reads as *empty*
    /// (usable bucket) when 0 or tombstoned; tombstones read as 0 anyway,
    /// so this is just `get(i) == 0`.
    #[inline]
    pub fn reads_empty_for_insert(&self, i: usize) -> bool {
        self.get(i) == 0
    }

    /// Convenience for lookup rule 1: a tombstone is treated as non-zero
    /// ("treated as zero for insertion but as non-zero for lookups").
    #[inline]
    pub fn reads_zero_for_lookup(&self, i: usize) -> bool {
        self.get(i) == 0 && !self.is_tombstone(i)
    }

    /// Reset every counter (and tombstone) to 0 — what a table `clear`
    /// or flag refresh does.
    pub fn reset(&mut self) {
        self.words.fill(0);
        if let Some(t) = &mut self.tombs {
            t.fill(0);
        }
    }

    /// Iterator over all counter values.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hash_kit::SplitMix64;

    #[test]
    fn width_selection() {
        assert_eq!(CounterArray::new(10, 1).bits, 1);
        assert_eq!(CounterArray::new(10, 2).bits, 2);
        assert_eq!(CounterArray::new(10, 3).bits, 2); // paper: d=3 → 2 bits
        assert_eq!(CounterArray::new(10, 4).bits, 3);
        assert_eq!(CounterArray::new(10, 7).bits, 3);
        assert_eq!(CounterArray::new(10, 15).bits, 4);
    }

    #[test]
    fn set_get_roundtrip_all_positions() {
        let n = 1000;
        let mut c = CounterArray::new(n, 3);
        let mut rng = SplitMix64::new(1);
        let vals: Vec<u8> = (0..n).map(|_| rng.next_below(4) as u8).collect();
        for (i, &v) in vals.iter().enumerate() {
            c.set(i, v);
        }
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(c.get(i), v, "position {i}");
        }
    }

    #[test]
    fn neighbours_are_not_disturbed() {
        let mut c = CounterArray::new(100, 3);
        for i in 0..100 {
            c.set(i, 1);
        }
        c.set(50, 3);
        assert_eq!(c.get(49), 1);
        assert_eq!(c.get(50), 3);
        assert_eq!(c.get(51), 1);
    }

    #[test]
    fn tombstone_semantics() {
        let mut c = CounterArray::new(64, 3);
        c.set(5, 2);
        c.set_tombstone(5);
        assert_eq!(c.get(5), 0);
        assert!(c.is_tombstone(5));
        assert!(c.reads_empty_for_insert(5)); // insertion sees empty
        assert!(!c.reads_zero_for_lookup(5)); // lookup rule 1 sees non-zero
                                              // Re-occupying clears the tombstone.
        c.set(5, 3);
        assert!(!c.is_tombstone(5));
        assert_eq!(c.get(5), 3);
        assert!(!c.reads_empty_for_insert(5));
    }

    #[test]
    fn tombstone_plane_is_lazy() {
        let mut c = CounterArray::new(1000, 3);
        assert_eq!(c.bits_per_counter(), 2);
        let base = c.onchip_bytes();
        c.set_tombstone(0);
        assert_eq!(c.bits_per_counter(), 3);
        assert!(c.onchip_bytes() > base);
    }

    #[test]
    fn onchip_budget_matches_paper() {
        // 3×n buckets with 2-bit counters: the paper's on-chip cost.
        let n = 1 << 20;
        let c = CounterArray::new(3 * n, 3);
        // 3 * 2^20 counters * 2 bits = 768 KiB.
        assert_eq!(c.onchip_bytes(), 3 * n * 2 / 8);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = CounterArray::new(100, 3);
        c.set(1, 3);
        c.set_tombstone(2);
        c.reset();
        assert_eq!(c.get(1), 0);
        assert!(!c.is_tombstone(2));
    }

    #[test]
    fn zero_before_any_set() {
        let c = CounterArray::new(77, 3);
        assert!(c.iter().all(|v| v == 0));
        assert!((0..77).all(|i| c.reads_zero_for_lookup(i)));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn overflow_value_is_rejected_in_debug() {
        let mut c = CounterArray::new(4, 3);
        c.set(0, 4);
    }

    #[test]
    fn word_boundary_positions() {
        // 2-bit counters: 32 per word; test around indices 31/32/33.
        let mut c = CounterArray::new(70, 3);
        for i in [31usize, 32, 33, 63, 64, 65] {
            c.set(i, 2);
            assert_eq!(c.get(i), 2);
        }
        // Check neighbours unaffected.
        assert_eq!(c.get(30), 0);
        assert_eq!(c.get(34), 0);
    }
}
