//! Full-table rehash and resize — the "costly remedy" (§I, §II.B) that
//! McCuckoo's stash exists to avoid, provided for completeness and for
//! the auto-growing [`crate::McMap`] wrapper.
//!
//! The traditional procedure: read out every stored item, draw a fresh
//! set of hash functions (optionally over a bigger table), and re-insert
//! everything. During a rehash the table is unusable — exactly the cost
//! the paper's Tables II–III argue a large off-chip stash amortises away.
//! Metering reflects the procedure: one off-chip read per scanned bucket
//! plus the ordinary cost of every re-insertion.

use hash_kit::KeyHash;

use crate::engine::Engine;
use crate::single::SingleLayout;

/// Outcome of a successful rehash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RehashReport {
    /// Items re-inserted into the main table.
    pub reinserted: usize,
    /// Items that ended in the stash after the rehash.
    pub stashed: usize,
    /// New total bucket count.
    pub new_capacity: usize,
}

/// A rehash that could not place every item (only possible with
/// [`crate::StashPolicy::None`]). The table holds everything that fit;
/// `leftover` holds the rest, in no particular order.
#[derive(Debug)]
pub struct RehashOverflow<K, V> {
    /// Items that did not fit; nothing was lost.
    pub leftover: Vec<(K, V)>,
    /// Report for the items that did fit.
    pub report: RehashReport,
}

impl<K: KeyHash + Eq + Clone, V: Clone> Engine<K, V, SingleLayout> {
    /// Rehash all items with freshly derived hash functions, optionally
    /// into `new_buckets_per_table` buckets per sub-table (same size
    /// when `None`). Items in the stash are re-offered to the main
    /// table.
    ///
    /// On [`crate::StashPolicy::None`] tables the rehash can overflow;
    /// the unplaced items are handed back in [`RehashOverflow`] and the
    /// table remains valid with everything else.
    pub fn rehash(
        &mut self,
        new_buckets_per_table: Option<usize>,
        new_seed: u64,
    ) -> Result<RehashReport, RehashOverflow<K, V>> {
        // Read-out phase: the modelled system scans the whole table.
        self.meter().offchip_read(self.capacity() as u64);
        let items = self.drain_items();
        let total = items.len();
        self.rebuild_storage(new_buckets_per_table, new_seed);
        let leftover = self.place_all(items);
        let report = RehashReport {
            reinserted: total - leftover.len() - self.stash_len(),
            stashed: self.stash_len(),
            new_capacity: self.capacity(),
        };
        if leftover.is_empty() {
            Ok(report)
        } else {
            Err(RehashOverflow { leftover, report })
        }
    }

    /// Grow to double the per-table bucket count and rehash.
    pub fn grow(&mut self, new_seed: u64) -> Result<RehashReport, RehashOverflow<K, V>> {
        let n = self.buckets_per_table();
        self.rehash(Some(n * 2), new_seed)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{DeletionMode, McConfig, StashPolicy};
    use crate::single::McCuckoo;
    use workloads::UniqueKeys;

    #[test]
    fn rehash_preserves_every_item() {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(512, 1));
        let mut keys = UniqueKeys::new(2);
        let ks = keys.take_vec(1_200);
        for &k in &ks {
            t.insert_new(k, k + 1).unwrap();
        }
        let before_len = t.len();
        let report = t.rehash(None, 99).unwrap();
        assert_eq!(t.len(), before_len);
        assert_eq!(report.reinserted + report.stashed, before_len);
        for &k in &ks {
            assert_eq!(t.get(&k), Some(&(k + 1)));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn grow_doubles_capacity_and_keeps_items() {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(256, 3));
        let mut keys = UniqueKeys::new(4);
        let ks = keys.take_vec(700); // ~91% load
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        let old_cap = t.capacity();
        let report = t.grow(5).unwrap();
        assert_eq!(t.capacity(), old_cap * 2);
        assert_eq!(report.new_capacity, old_cap * 2);
        // At half the load, nothing should need the stash.
        assert_eq!(t.stash_len(), 0);
        for &k in &ks {
            assert_eq!(t.get(&k), Some(&k));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn rehash_drains_a_loaded_stash() {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(128, 6).with_maxloop(20));
        let mut keys = UniqueKeys::new(7);
        // Fill to 100%: guaranteed stash use.
        let ks = keys.take_vec(3 * 128);
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        assert!(t.stash_len() > 0);
        let report = t.grow(8).unwrap();
        assert_eq!(report.stashed, 0, "grown table must absorb the stash");
        for &k in &ks {
            assert_eq!(t.get(&k), Some(&k));
        }
    }

    #[test]
    fn rehash_overflow_hands_items_back() {
        // Stash-less table shrunk below its content: overflow expected,
        // but nothing may be lost.
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(
            McConfig::paper(256, 9)
                .with_stash(StashPolicy::None)
                .with_maxloop(20),
        );
        let mut keys = UniqueKeys::new(10);
        let ks = keys.take_vec(600);
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        match t.rehash(Some(64), 11) {
            Ok(r) => {
                // 600 items into 192 buckets cannot fit; Ok means a bug.
                panic!("impossible fit reported: {r:?}");
            }
            Err(overflow) => {
                let in_table: usize = t.len();
                assert_eq!(in_table + overflow.leftover.len(), ks.len());
                for (k, v) in &overflow.leftover {
                    assert_eq!(k, v);
                }
                t.check_invariants().unwrap();
            }
        }
    }

    #[test]
    fn rehash_works_with_deletion_modes() {
        for mode in [DeletionMode::Reset, DeletionMode::Tombstone] {
            let mut t: McCuckoo<u64, u64> =
                McCuckoo::new(McConfig::paper(256, 12).with_deletion(mode));
            let mut keys = UniqueKeys::new(13);
            let ks = keys.take_vec(500);
            for &k in &ks {
                t.insert_new(k, k).unwrap();
            }
            for &k in ks.iter().take(250) {
                t.remove(&k);
            }
            t.rehash(None, 14).unwrap();
            for &k in ks.iter().take(250) {
                assert_eq!(t.get(&k), None, "{mode:?}: deleted key revived");
            }
            for &k in ks.iter().skip(250) {
                assert_eq!(t.get(&k), Some(&k), "{mode:?}: live key lost");
            }
            t.check_invariants().unwrap();
        }
    }
}
