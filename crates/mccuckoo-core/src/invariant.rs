//! Structural validation.
//!
//! Every table exposes `check_invariants()`, an exhaustive validator of
//! the multi-copy bookkeeping:
//!
//! * a counter of 0 (or a tombstone) ⇔ a vacant bucket/slot;
//! * an occupied location is one of its occupant's candidates;
//! * the occupant of a location with counter `c` has exactly `c` live
//!   copies, all carrying counter `c`;
//! * the distinct-item count matches a full scan;
//! * no stashed key is simultaneously present in the main table.
//!
//! The test suites call the validator after mutation batches; the
//! `paranoid` crate feature makes every mutating operation self-check.

use crate::Word;

/// Types that can exhaustively validate their internal invariants.
pub trait Validate {
    /// Return the first violated invariant as a human-readable message.
    fn validate(&self) -> Result<(), String>;
}

impl<K: hash_kit::KeyHash + Eq + Clone, V: Clone, L: crate::engine::BucketLayout> Validate
    for crate::engine::Engine<K, V, L>
{
    fn validate(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

impl<K: hash_kit::KeyHash + Eq + Word, V: Word> Validate for crate::ConcurrentMcCuckoo<K, V> {
    fn validate(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

impl<K: hash_kit::KeyHash + Eq + Word, V: Word> Validate for crate::ShardedMcCuckoo<K, V> {
    fn validate(&self) -> Result<(), String> {
        self.check_invariants()
    }
}

impl<K: hash_kit::KeyHash + Eq + Clone, V> Validate for crate::MultisetIndex<K, V> {
    fn validate(&self) -> Result<(), String> {
        self.check_invariants()
    }
}
