//! Slot storage: the one seam through which the
//! [`Engine`](crate::engine::Engine) reaches its slots and counters.
//! [`PlainStore`] holds the sequential tables' planes (slots, stash
//! flags, the packed on-chip [`CounterArray`]). [`SeqStore`] is the
//! concurrent table's writer handle on [`SeqCells`] — one [`SeqSlot`]
//! record per bucket, four atomic words (seqlock version, key, value,
//! and a meta word holding occupancy, slot hints and the bucket's copy
//! counter) so a probe, and every counter read the writer makes, costs
//! one line — shared through an `Arc` with the lock-free readers; every
//! content write is one version bracket. Keys and values live in those
//! words through [`Word`], so no read is ever a data race: a torn read
//! decodes garbage that the version check then discards. The plain store
//! lends its entries; the seqlocked one hands out decoded copies.
//! Neither store keeps a fingerprint tag: probes confirm a slot by the
//! key in its entry.

use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use crate::counters::CounterArray;
use crate::engine::MAX_D;
use crate::prefetch::huge_plane;

/// Slot `S0..=S7` of a copy within its bucket, or `None` when a
/// candidate table holds no copy (the Fig. 5 slot hints; blocked buckets
/// have at most 8 slots). A `#[repr(u8)]` enum, so `Option<Entry>` takes
/// its niche.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotHint {
    S0,
    S1,
    S2,
    S3,
    S4,
    S5,
    S6,
    S7,
    None,
}

impl SlotHint {
    /// The hint naming `slot` (`slot < 8`; larger values, as a torn read
    /// may give, read as `None`). `static`: a literal is rebuilt per call.
    #[inline]
    pub(crate) fn at(slot: usize) -> Self {
        use SlotHint::*;
        static ALL: [SlotHint; 9] = [S0, S1, S2, S3, S4, S5, S6, S7, None];
        ALL[slot.min(8)]
    }

    /// The slot this hint names, if any.
    #[inline]
    pub(crate) fn slot(self) -> Option<usize> {
        (self != SlotHint::None).then_some(self as usize)
    }
}

/// A key or value the concurrent table stores as one atomic word, so a
/// slot record is four `u64` words (version, key, value, and a meta word
/// of occupancy, hints and counter) and the served tables hold
/// pointer-sized `Copy` payloads only; index fat values through an
/// arena, as [`crate::MultisetIndex`] does. `from_word` must accept any
/// word: a reader racing a write may decode a torn one, which its
/// version check then discards.
pub trait Word: Copy {
    /// This value as a word.
    fn to_word(self) -> u64;
    /// The value `to_word` gave `w` (any value for any other word).
    fn from_word(w: u64) -> Self;
}

impl Word for u64 {
    #[inline]
    fn to_word(self) -> u64 {
        self
    }

    #[inline]
    fn from_word(w: u64) -> Self {
        w
    }
}

/// A stored item plus its copy-location metadata.
#[derive(Debug, Clone, Copy)]
pub struct Entry<K, V> {
    pub(crate) key: K,
    pub(crate) value: V,
    /// Slot of this item's copy in candidate table `t` at creation time
    /// (`SlotHint::None` when table `t` received no copy). Written
    /// identically into every copy; entries can go stale when a sibling
    /// copy is destroyed, so they are always cross-checked against
    /// counters (and content when still ambiguous). Travels with the item
    /// off-chip — the victim read that counter maintenance needs anyway
    /// brings it in for free, sparing most verification reads (Fig. 5).
    pub(crate) hints: [SlotHint; MAX_D],
}

/// Storage behind the engine. Slot indices are global
/// (`(table * n + bucket) * l + slot`); metering stays with the engine.
pub trait SlotStore<K, V> {
    /// Collision resolution must plan a whole chain before moving
    /// anything: the mutate-as-you-walk random walk briefly leaves its
    /// carried item in no slot at all, which readers racing the writer
    /// would observe as a lost key (§III.H).
    const PLANS_FIRST: bool;
    /// One slot's entry as [`SlotStore::entry`] hands it out: a borrow
    /// where the store can lend one, a decoded copy where it cannot
    /// (`Copy`, so holding one across a write leaves no destructor due).
    type Read<'a>: Deref<Target = Entry<K, V>> + Copy
    where
        Self: 'a;
    /// Empty storage for `slots` slots in `buckets` buckets whose
    /// counters hold `0..=max_count`.
    fn new(slots: usize, buckets: usize, max_count: u8) -> Self;
    /// Number of slots.
    fn len(&self) -> usize;
    /// Copy counter of slot `i`.
    fn counter(&self, i: usize) -> u8;
    /// Set counter `i` (clears a tombstone).
    fn set_counter(&mut self, i: usize, v: u8);
    /// The entry in slot `i`.
    fn entry(&self, i: usize) -> Option<Self::Read<'_>>;
    /// Write `entry` into slot `i`.
    fn put(&mut self, i: usize, entry: Entry<K, V>);
    /// Rewrite the value of occupied slot `i`, leaving its key and hints.
    fn put_value(&mut self, i: usize, value: V);
    /// Clear slot `i`, returning its entry.
    fn take(&mut self, i: usize) -> Option<Entry<K, V>>;
    // The defaults describe a store with no stash flags and no
    // tombstones.
    /// Tombstone counter `i`.
    fn set_tombstone(&mut self, _i: usize) {
        unreachable!("this store deletes by counter reset");
    }
    /// Whether counter `i` carries a tombstone.
    fn is_tombstone(&self, _i: usize) -> bool {
        false
    }
    /// Stash flag of `bucket`.
    fn flag(&self, _bucket: usize) -> bool {
        false
    }
    /// Raise the stash flag of `bucket`.
    fn raise_flag(&mut self, _bucket: usize) {
        unreachable!("this store has no stash");
    }
    /// Lower every stash flag.
    fn clear_flags(&mut self) {}
    /// Empty every slot, counter and flag.
    fn clear(&mut self);
    /// Prefetch slot `i`'s entry (stash flags are read only while the
    /// stash holds items, so they are not worth a line).
    fn prefetch(&self, i: usize);
}

/// The sequential tables' storage planes.
#[derive(Debug)]
pub struct PlainStore<K, V> {
    /// Off-chip slots.
    pub(crate) slots: Vec<Option<Entry<K, V>>>,
    /// Off-chip 1-bit stash flags, one per bucket (read/written together
    /// with the bucket, so they cost no dedicated accesses on lookups).
    pub(crate) flags: Vec<bool>,
    /// On-chip per-slot copy counters.
    pub(crate) counters: CounterArray,
}

impl<K, V> SlotStore<K, V> for PlainStore<K, V> {
    const PLANS_FIRST: bool = false;
    type Read<'a>
        = &'a Entry<K, V>
    where
        Self: 'a;

    fn new(slots: usize, buckets: usize, max_count: u8) -> Self {
        Self {
            slots: huge_plane(slots, || None),
            flags: huge_plane(buckets, || false),
            counters: CounterArray::new(slots, max_count),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn counter(&self, i: usize) -> u8 {
        self.counters.get(i)
    }

    fn set_counter(&mut self, i: usize, v: u8) {
        self.counters.set(i, v);
    }

    fn set_tombstone(&mut self, i: usize) {
        self.counters.set_tombstone(i);
    }

    #[inline]
    fn is_tombstone(&self, i: usize) -> bool {
        self.counters.is_tombstone(i)
    }

    fn entry(&self, i: usize) -> Option<&Entry<K, V>> {
        self.slots[i].as_ref()
    }

    fn put(&mut self, i: usize, entry: Entry<K, V>) {
        self.slots[i] = Some(entry);
    }

    fn put_value(&mut self, i: usize, value: V) {
        self.slots[i].as_mut().expect("slot occupied").value = value;
    }

    fn take(&mut self, i: usize) -> Option<Entry<K, V>> {
        self.slots[i].take()
    }

    fn flag(&self, bucket: usize) -> bool {
        self.flags[bucket]
    }

    fn raise_flag(&mut self, bucket: usize) {
        self.flags[bucket] = true;
    }

    fn clear_flags(&mut self) {
        self.flags.fill(false);
    }

    fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.flags.fill(false);
        self.counters.reset();
    }

    fn prefetch(&self, i: usize) {
        crate::prefetch::prefetch_index(&self.slots, i);
    }
}

/// One seqlocked slot: the bucket's version, content and copy counter
/// in one record of four atomic words, so a probe's version check and
/// content read, and the writer's counter read, share a cache line.
/// Aligned to 32 B: two slots fill a 64 B line and none straddles two.
#[repr(C, align(32))]
pub(crate) struct SeqSlot<K, V> {
    /// Seqlock version: odd while a content write is in flight.
    version: AtomicU64,
    key: AtomicU64,
    value: AtomicU64,
    /// Byte 0: 1 when the slot is occupied, 0 when empty; byte `1 + t`:
    /// the hint for candidate table `t`; byte 5: the bucket's copy
    /// counter, which only the writer reads.
    meta: AtomicU64,
    _payload: PhantomData<fn() -> (K, V)>,
}

/// The meta word's counter byte (byte 5), as a shift and a mask.
const COUNTER_SHIFT: u32 = 40;
const COUNTER_MASK: u64 = 0xff << COUNTER_SHIFT;

impl<K, V> SeqSlot<K, V> {
    fn empty() -> Self {
        Self {
            version: AtomicU64::new(0),
            key: AtomicU64::new(0),
            value: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            _payload: PhantomData,
        }
    }
}

impl<K: Word, V: Word> SeqSlot<K, V> {
    /// Relaxed load of the content words, decoded. Unvalidated: only a
    /// version bracket makes the result an entry that was ever stored.
    #[inline]
    fn load(&self) -> Option<Entry<K, V>> {
        let meta = self.meta.load(Ordering::Relaxed).to_le_bytes();
        (meta[0] != 0).then(|| Entry {
            key: K::from_word(self.key.load(Ordering::Relaxed)),
            value: V::from_word(self.value.load(Ordering::Relaxed)),
            hints: std::array::from_fn(|t| SlotHint::at(meta[t + 1].into())),
        })
    }

    /// Relaxed stores of the content words (empty: the meta word alone),
    /// keeping the counter byte.
    #[inline]
    fn store(&self, content: Option<Entry<K, V>>) {
        let meta = content.map_or(0, |e| {
            self.key.store(e.key.to_word(), Ordering::Relaxed);
            self.value.store(e.value.to_word(), Ordering::Relaxed);
            let [h0, h1, h2, h3] = e.hints.map(|h| h as u8);
            u64::from_le_bytes([1, h0, h1, h2, h3, 0, 0, 0])
        });
        let counter = self.meta.load(Ordering::Relaxed) & COUNTER_MASK;
        self.meta.store(meta | counter, Ordering::Relaxed);
    }
}

/// The seqlocked slot records the concurrent table's writer and
/// readers share (one slot per bucket). Every field is atomic, so
/// sharing it needs no argument.
pub(crate) struct SeqCells<K, V> {
    pub(crate) slots: Box<[SeqSlot<K, V>]>,
}

impl<K: Word, V: Word> SeqCells<K, V> {
    /// Acquire-load of cell `i`'s version.
    pub(crate) fn version(&self, i: usize) -> u64 {
        self.slots[i].version.load(Ordering::Acquire)
    }

    /// Read cell `i`, which stood at the even `version` before the call:
    /// `None` when a writer intervened (the words were torn and their
    /// decoding is discarded).
    #[inline]
    pub(crate) fn read_at(&self, i: usize, version: u64) -> Option<Option<Entry<K, V>>> {
        let slot = &self.slots[i];
        let content = slot.load();
        fence(Ordering::Acquire);
        (slot.version.load(Ordering::Relaxed) == version).then_some(content)
    }

    /// Seqlock-validated read of cell `i`: spins until it observes a
    /// stable even version around the load.
    pub(crate) fn read_stable(&self, i: usize) -> Option<Entry<K, V>> {
        loop {
            let v = self.version(i);
            if v % 2 == 0 {
                if let Some(content) = self.read_at(i, v) {
                    return content;
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Prefetch slot `i`'s record (version, content and counter: one
    /// line).
    pub(crate) fn prefetch(&self, i: usize) {
        crate::prefetch::prefetch_index(&self.slots, i);
    }

    /// Whether every version is even (no write in flight).
    pub(crate) fn quiescent(&self) -> Result<(), String> {
        match self
            .slots
            .iter()
            .position(|s| s.version.load(Ordering::Acquire) % 2 != 0)
        {
            Some(i) => Err(format!("bucket {i}: odd version while quiescent")),
            None => Ok(()),
        }
    }
}

/// The concurrent table's store: the writer's unique handle on the
/// shared [`SeqCells`].
pub(crate) struct SeqStore<K, V> {
    shared: Arc<SeqCells<K, V>>,
}

/// An entry the seqlocked store decoded from its words: the store's
/// [`SlotStore::Read`], a copy rather than a borrow.
#[derive(Clone, Copy)]
pub(crate) struct Decoded<K, V>(Entry<K, V>);

impl<K, V> Deref for Decoded<K, V> {
    type Target = Entry<K, V>;

    fn deref(&self) -> &Entry<K, V> {
        &self.0
    }
}

impl<K: Word, V: Word> SeqStore<K, V> {
    /// A read-only handle on the cells for the lock-free readers.
    pub(crate) fn share(&self) -> Arc<SeqCells<K, V>> {
        Arc::clone(&self.shared)
    }

    /// Writer-side write of slot `i`'s words by `write`, bracketed by
    /// version bumps (odd while in flight).
    fn publish(&mut self, i: usize, write: impl FnOnce(&SeqSlot<K, V>)) {
        let slot = &self.shared.slots[i];
        // One writer (`&mut self`), so the version moves by plain
        // loads/stores; the release fence keeps the odd store ahead of
        // the content words for any racing reader.
        let v = slot.version.load(Ordering::Relaxed);
        debug_assert_eq!(v % 2, 0, "bucket {i}: concurrent writers");
        slot.version.store(v + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        write(slot);
        slot.version.store(v + 2, Ordering::Release);
    }
}

impl<K: Word, V: Word> SlotStore<K, V> for SeqStore<K, V> {
    const PLANS_FIRST: bool = true;
    type Read<'a>
        = Decoded<K, V>
    where
        Self: 'a;

    fn new(slots: usize, buckets: usize, _max_count: u8) -> Self {
        debug_assert_eq!(slots, buckets, "one slot per bucket");
        Self {
            shared: Arc::new(SeqCells {
                slots: huge_plane(slots, SeqSlot::empty).into_boxed_slice(),
            }),
        }
    }

    fn len(&self) -> usize {
        self.shared.slots.len()
    }

    #[inline]
    fn counter(&self, i: usize) -> u8 {
        (self.shared.slots[i].meta.load(Ordering::Relaxed) >> COUNTER_SHIFT) as u8
    }

    /// A plain store to the meta word, with no version bump: readers
    /// decode only the occupied byte and the hints, which it leaves as
    /// they are, so a read racing it is whole either way.
    #[inline]
    fn set_counter(&mut self, i: usize, v: u8) {
        let meta = &self.shared.slots[i].meta;
        let rest = meta.load(Ordering::Relaxed) & !COUNTER_MASK;
        meta.store(rest | u64::from(v) << COUNTER_SHIFT, Ordering::Relaxed);
    }

    /// The writer's own read: no write is in flight while it holds
    /// `&self`, so no version bracket is needed.
    #[inline]
    fn entry(&self, i: usize) -> Option<Decoded<K, V>> {
        self.shared.slots[i].load().map(Decoded)
    }

    fn put(&mut self, i: usize, entry: Entry<K, V>) {
        self.publish(i, |slot| slot.store(Some(entry)));
    }

    /// The value word alone, in its own version bracket.
    fn put_value(&mut self, i: usize, value: V) {
        self.publish(i, |slot| {
            slot.value.store(value.to_word(), Ordering::Relaxed)
        });
    }

    fn take(&mut self, i: usize) -> Option<Entry<K, V>> {
        let old = self.shared.slots[i].load();
        self.publish(i, |slot| slot.store(None));
        old
    }

    /// Each counter, then its cell in its own bracket, so a racing
    /// reader sees every bucket either intact or empty.
    fn clear(&mut self) {
        for i in 0..self.len() {
            self.set_counter(i, 0);
            self.publish(i, |slot| slot.store(None));
        }
    }

    fn prefetch(&self, i: usize) {
        self.shared.prefetch(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_hints_give_option_entry_a_niche() {
        assert_eq!(std::mem::size_of::<Option<Entry<u64, u64>>>(), 24);
        assert_eq!(std::mem::size_of::<SlotHint>(), 1);
        for s in 0..8 {
            assert_eq!(SlotHint::at(s).slot(), Some(s));
        }
        assert_eq!(SlotHint::None.slot(), None);
    }

    #[test]
    fn seq_slots_are_half_a_line_and_never_straddle_one() {
        assert_eq!(std::mem::size_of::<SeqSlot<u64, u64>>(), 32);
        assert_eq!(std::mem::align_of::<SeqSlot<u64, u64>>(), 32);
        let store = <SeqStore<u64, u64> as SlotStore<u64, u64>>::new(999, 999, 3);
        let cells = store.share();
        assert_eq!(cells.slots.len(), 999);
        for slot in cells.slots.iter() {
            let addr = slot as *const SeqSlot<u64, u64> as usize;
            assert_eq!(addr % 32, 0, "slot at {addr:#x} is not 32-aligned");
            assert_eq!(std::ptr::addr_of!(slot.version) as usize, addr);
        }
    }

    /// The entry a torn-read writer publishes for `key`: its value and
    /// every hint are functions of the key, so an entry stitched from
    /// two writes is visibly inconsistent.
    fn entry_for(key: u64) -> Entry<u64, u64> {
        Entry {
            key,
            value: !key.rotate_left(17),
            hints: std::array::from_fn(|t| SlotHint::at((key as usize + t) % 8)),
        }
    }

    fn consistent(e: &Entry<u64, u64>) -> bool {
        let want = entry_for(e.key);
        e.value == want.value && e.hints == want.hints
    }

    /// Slot `i`'s raw words: version, key, value, meta.
    fn words(store: &SeqStore<u64, u64>, i: usize) -> [u64; 4] {
        let s = &store.shared.slots[i];
        [&s.version, &s.key, &s.value, &s.meta].map(|w| w.load(Ordering::Relaxed))
    }

    fn seq_store(slots: usize) -> SeqStore<u64, u64> {
        <SeqStore<u64, u64> as SlotStore<u64, u64>>::new(slots, slots, 3)
    }

    /// A counter-only store rewrites the counter byte and nothing else:
    /// no version bump, and the occupied byte, hints, key and value of
    /// the slot, empty or occupied, stay as they were.
    #[test]
    fn set_counter_moves_only_the_counter_byte() {
        let mut store = seq_store(2);
        store.put(1, entry_for(0xDEAD_BEEF));
        for i in 0..2 {
            for v in [3, 1, 0, 2] {
                let before = words(&store, i);
                store.set_counter(i, v);
                let after = words(&store, i);
                assert_eq!(store.counter(i), v, "slot {i}");
                assert_eq!(
                    after[..3],
                    before[..3],
                    "slot {i}: version, key or value moved"
                );
                assert_eq!(
                    after[3] & !COUNTER_MASK,
                    before[3] & !COUNTER_MASK,
                    "slot {i}: occupied byte or hints moved"
                );
            }
        }
        assert_eq!(store.entry(0).map(|e| e.key), None);
        assert!(consistent(&store.entry(1).unwrap()));
        assert_eq!(store.share().quiescent(), Ok(()));
    }

    /// Content writes keep the counter byte: the engine's explicit
    /// counter stores are the only ones.
    #[test]
    fn content_writes_keep_the_counter_byte() {
        let mut store = seq_store(1);
        for v in 1..=3 {
            store.set_counter(0, v);
            store.put(0, entry_for(u64::from(v) << 40 | 7));
            assert_eq!(store.counter(0), v, "put");
            store.put_value(0, 99);
            assert_eq!(store.counter(0), v, "put_value");
            assert_eq!(store.entry(0).unwrap().value, 99);
            assert!(store.take(0).is_some());
            assert_eq!(store.counter(0), v, "take");
            assert!(store.entry(0).is_none());
        }
    }

    /// `clear` empties every slot and zeroes every counter byte.
    #[test]
    fn clear_zeroes_the_counter_byte() {
        let mut store = seq_store(4);
        for i in 0..4 {
            store.put(i, entry_for(i as u64 + 1));
            store.set_counter(i, 3);
        }
        store.clear();
        for i in 0..4 {
            assert_eq!(store.counter(i), 0, "slot {i}");
            assert!(store.entry(i).is_none(), "slot {i}");
            assert_eq!(words(&store, i)[3], 0, "slot {i}: meta word");
        }
    }

    /// One writer republishes one slot between entries that differ in
    /// every word, and empties it now and then; readers racing it
    /// through `read_stable` and `read_at` must only ever get whole
    /// entries.
    #[test]
    fn seqlock_reads_never_see_a_torn_entry() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let mut store = <SeqStore<u64, u64> as SlotStore<u64, u64>>::new(2, 2, 3);
        let cells = store.share();
        let done = AtomicBool::new(false);
        let seen = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut entries = 0u64;
                        while !done.load(Ordering::Relaxed) {
                            if let Some(e) = cells.read_stable(0) {
                                assert!(consistent(&e), "read_stable tore: {e:?}");
                                entries += 1;
                            }
                            let v = cells.version(0);
                            if v % 2 == 0 {
                                if let Some(Some(e)) = cells.read_at(0, v) {
                                    assert!(consistent(&e), "read_at tore: {e:?}");
                                    entries += 1;
                                }
                            }
                        }
                        entries
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_millis(300);
            let mut key = 0u64;
            while Instant::now() < deadline {
                for _ in 0..256 {
                    key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    if key % 16 == 0 {
                        store.take(0);
                    } else {
                        store.put(0, entry_for(key));
                    }
                }
            }
            done.store(true, Ordering::Relaxed);
            readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
        });
        assert!(seen > 0, "the readers saw no entry");
    }
}
