//! Slot storage: the one seam through which the
//! [`Engine`](crate::engine::Engine) reaches its slots and counters.
//! [`PlainStore`] holds the sequential tables' planes (slots, stash
//! flags, [`CounterArray`]). [`SeqStore`] is the concurrent table's
//! writer handle on [`SeqCells`] — one [`SeqSlot`] record per bucket,
//! its seqlock version beside its cell so a probe costs one line, plus
//! the counters, shared through an `Arc` with the lock-free readers;
//! every content write is one version bracket. It is unique
//! and writes through `&mut self`, so the writer borrows a cell only
//! while no write is in flight. Neither store keeps a fingerprint tag:
//! probes confirm a slot by the key in its entry.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
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
    /// The hint naming `slot` (`slot < 8`).
    #[inline]
    pub(crate) fn at(slot: usize) -> Self {
        use SlotHint::*;
        [S0, S1, S2, S3, S4, S5, S6, S7][slot]
    }

    /// The slot this hint names, if any.
    #[inline]
    pub(crate) fn slot(self) -> Option<usize> {
        (self != SlotHint::None).then_some(self as usize)
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
    /// Empty storage for `slots` slots in `buckets` buckets whose
    /// counters hold `0..=max_count`.
    fn new(slots: usize, buckets: usize, max_count: u8) -> Self;
    /// Number of slots.
    fn len(&self) -> usize {
        self.counters().len()
    }
    /// The on-chip copy counters.
    fn counters(&self) -> &CounterArray;
    /// Set counter `i` (clears a tombstone).
    fn set_counter(&mut self, i: usize, v: u8);
    /// The entry in slot `i`.
    fn entry(&self, i: usize) -> Option<&Entry<K, V>>;
    /// Write `entry` into slot `i`.
    fn put(&mut self, i: usize, entry: Entry<K, V>);
    /// Clear slot `i`, returning its entry.
    fn take(&mut self, i: usize) -> Option<Entry<K, V>>;
    // The defaults describe a store with no stash flags and no
    // tombstones.
    /// Tombstone counter `i`.
    fn set_tombstone(&mut self, _i: usize) {
        unreachable!("this store deletes by counter reset");
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

    fn new(slots: usize, buckets: usize, max_count: u8) -> Self {
        Self {
            slots: huge_plane(slots, || None),
            flags: huge_plane(buckets, || false),
            counters: CounterArray::new(slots, max_count),
        }
    }

    fn counters(&self) -> &CounterArray {
        &self.counters
    }

    fn set_counter(&mut self, i: usize, v: u8) {
        self.counters.set(i, v);
    }

    fn set_tombstone(&mut self, i: usize) {
        self.counters.set_tombstone(i);
    }

    fn entry(&self, i: usize) -> Option<&Entry<K, V>> {
        self.slots[i].as_ref()
    }

    fn put(&mut self, i: usize, entry: Entry<K, V>) {
        self.slots[i] = Some(entry);
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
        for s in &mut self.slots {
            *s = None;
        }
        self.flags.fill(false);
        self.counters.reset();
    }

    fn prefetch(&self, i: usize) {
        crate::prefetch::prefetch_index(&self.slots, i);
    }
}

/// One seqlocked slot: the bucket's version and its cell in one record,
/// so a probe's version check and content read share a cache line.
/// Aligned to 32 B: for `u64`/`u64` (8 B version + 24 B cell) two slots
/// fill a 64 B line and none straddles two.
#[repr(C, align(32))]
pub(crate) struct SeqSlot<K, V> {
    /// Seqlock version: odd while a content write is in flight.
    version: AtomicU64,
    cell: UnsafeCell<Option<Entry<K, V>>>,
}

/// The seqlocked slot records and counters the concurrent table's
/// writer and readers share (one slot per bucket).
pub(crate) struct SeqCells<K, V> {
    pub(crate) slots: Box<[SeqSlot<K, V>]>,
    pub(crate) counters: CounterArray,
}

// SAFETY: the versions and counters are atomics. The cells (each
// slot's `UnsafeCell`) are written only through the one `SeqStore` handle
// (`&mut self`, held by the engine behind the concurrent table's writer
// lock), each write bracketed by its version. Everyone else reads either
// through `read_at`/`read_stable`, which type the bytes only after the
// version proves they were not torn, or through the writer handle while
// no write is in flight. Entries are `Copy` (the store is only built for
// `K, V: Copy`), so no drop races exist.
unsafe impl<K: Send, V: Send> Sync for SeqCells<K, V> {}

impl<K: Copy, V: Copy> SeqCells<K, V> {
    /// Acquire-load of cell `i`'s version.
    pub(crate) fn version(&self, i: usize) -> u64 {
        self.slots[i].version.load(Ordering::Acquire)
    }

    /// Read cell `i`, which stood at the even `version` before the call:
    /// `None` when a writer intervened (the bytes were torn and are
    /// discarded untyped).
    pub(crate) fn read_at(&self, i: usize, version: u64) -> Option<Option<Entry<K, V>>> {
        let slot = &self.slots[i];
        // SAFETY: the bytes land in `MaybeUninit`, so a torn read is
        // never typed; they are interpreted only after the version check
        // proves no writer intervened.
        let raw = unsafe {
            std::ptr::read_volatile(slot.cell.get().cast::<MaybeUninit<Option<Entry<K, V>>>>())
        };
        fence(Ordering::Acquire);
        if slot.version.load(Ordering::Relaxed) != version {
            return None;
        }
        // SAFETY: the version stood at the same even value before and
        // after the copy, so no write overlapped it: the bytes are a
        // complete `Option<Entry>`.
        Some(unsafe { raw.assume_init() })
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

    /// Prefetch slot `i`'s record (version and cell: one line).
    pub(crate) fn prefetch(&self, i: usize) {
        crate::prefetch::prefetch_index(&self.slots, i);
    }

    /// Bytes of the slot records plus the counter words.
    pub(crate) fn mem_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.slots) + self.counters.onchip_bytes()
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

impl<K: Copy, V: Copy> SeqStore<K, V> {
    /// A read-only handle on the cells for the lock-free readers.
    pub(crate) fn share(&self) -> Arc<SeqCells<K, V>> {
        Arc::clone(&self.shared)
    }

    /// Writer-side content write, bracketed by version bumps (odd while
    /// in flight).
    fn publish(&mut self, i: usize, content: Option<Entry<K, V>>) {
        let slot = &self.shared.slots[i];
        // One writer (`&mut self`), so the version moves by plain
        // loads/stores; the release fence keeps the odd store ahead of
        // the content bytes for any racing reader.
        let v = slot.version.load(Ordering::Relaxed);
        debug_assert_eq!(v % 2, 0, "bucket {i}: concurrent writers");
        slot.version.store(v + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: this handle is the only writer; racing readers validate
        // against the odd version and discard whatever bytes they read.
        unsafe { std::ptr::write_volatile(slot.cell.get(), content) };
        slot.version.store(v + 2, Ordering::Release);
    }
}

impl<K: Copy, V: Copy> SlotStore<K, V> for SeqStore<K, V> {
    const PLANS_FIRST: bool = true;

    fn new(slots: usize, buckets: usize, max_count: u8) -> Self {
        debug_assert_eq!(slots, buckets, "one slot per bucket");
        Self {
            shared: Arc::new(SeqCells {
                slots: huge_plane(slots, || SeqSlot {
                    version: AtomicU64::new(0),
                    cell: UnsafeCell::new(None),
                })
                .into_boxed_slice(),
                counters: CounterArray::new(slots, max_count),
            }),
        }
    }

    fn counters(&self) -> &CounterArray {
        &self.shared.counters
    }

    fn set_counter(&mut self, i: usize, v: u8) {
        self.shared.counters.store(i, v);
    }

    fn entry(&self, i: usize) -> Option<&Entry<K, V>> {
        // SAFETY: only this handle writes cells, through `&mut self`, so
        // no write can happen while the returned borrow lives.
        unsafe { (*self.shared.slots[i].cell.get()).as_ref() }
    }

    fn put(&mut self, i: usize, entry: Entry<K, V>) {
        self.publish(i, Some(entry));
    }

    fn take(&mut self, i: usize) -> Option<Entry<K, V>> {
        let old = self.entry(i).copied();
        self.publish(i, None);
        old
    }

    /// Counters first, then each cell in its own bracket, so a racing
    /// reader sees every bucket either intact or empty.
    fn clear(&mut self) {
        for i in 0..self.len() {
            self.shared.counters.store(i, 0);
            self.publish(i, None);
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
}
