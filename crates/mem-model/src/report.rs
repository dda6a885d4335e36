//! Per-operation reports shared by every table implementation.
//!
//! The paper's evaluation tracks, per insertion: whether a *real* collision
//! occurred (all candidates unusable without relocation), how many
//! kick-outs were performed, and whether the item ended up in the table or
//! the stash. Every table in this workspace (McCuckoo and the baselines)
//! returns an [`InsertReport`] so the harness can drive them uniformly.

use jsonlite::{impl_json_enum, impl_json_struct};

/// Where an inserted item ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Placed in the main table.
    Placed,
    /// The key already existed; its value was updated in place (upsert
    /// APIs only — the paper's workloads use distinct keys).
    Updated,
    /// Collision resolution failed; the item went to the stash.
    Stashed,
    /// Collision resolution failed and no stash is configured — the
    /// insert failed (the caller would have to rehash).
    Failed,
}

/// Instrumentation of a single insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// Final placement of the item.
    pub outcome: InsertOutcome,
    /// Number of items relocated (kicked out) during this insertion.
    pub kickouts: u32,
    /// `true` if a real collision occurred: every candidate location was
    /// occupied (for McCuckoo: occupied by sole copies, counter 1
    /// everywhere) so at least one relocation was required or the item was
    /// stashed.
    pub collision: bool,
    /// Copies of the inserted item written to the main table (always ≤ d;
    /// exactly 0 or 1 for single-copy baselines; for McCuckoo this is the
    /// redundancy achieved at insert time).
    pub copies_written: u8,
}

impl_json_enum!(InsertOutcome {
    Placed,
    Updated,
    Stashed,
    Failed
});
impl_json_struct!(InsertReport {
    outcome,
    kickouts,
    collision,
    copies_written
});

impl InsertReport {
    /// A collision-free placement that wrote `copies` copies.
    pub fn clean(copies: u8) -> Self {
        Self {
            outcome: InsertOutcome::Placed,
            kickouts: 0,
            collision: false,
            copies_written: copies,
        }
    }

    /// An upsert that found the key present and rewrote `copies` of its
    /// copies in place (0 when the existing entry was left untouched).
    pub fn updated(copies: u8) -> Self {
        Self {
            outcome: InsertOutcome::Updated,
            kickouts: 0,
            collision: false,
            copies_written: copies,
        }
    }

    /// A rejected insert that mutated nothing (its kick chain was planned
    /// before any move, and no plan was found).
    pub fn failed() -> Self {
        Self {
            outcome: InsertOutcome::Failed,
            kickouts: 0,
            collision: true,
            copies_written: 0,
        }
    }

    /// Whether the item is findable in the structure (table or stash).
    pub fn stored(&self) -> bool {
        matches!(
            self.outcome,
            InsertOutcome::Placed | InsertOutcome::Updated | InsertOutcome::Stashed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_shape() {
        let r = InsertReport::clean(3);
        assert_eq!(r.outcome, InsertOutcome::Placed);
        assert_eq!(r.kickouts, 0);
        assert!(!r.collision);
        assert_eq!(r.copies_written, 3);
        assert!(r.stored());
    }

    #[test]
    fn updated_and_failed_report_shapes() {
        let u = InsertReport::updated(2);
        assert_eq!(u.outcome, InsertOutcome::Updated);
        assert_eq!((u.kickouts, u.collision, u.copies_written), (0, false, 2));
        assert!(u.stored());
        let f = InsertReport::failed();
        assert_eq!(f.outcome, InsertOutcome::Failed);
        assert_eq!((f.kickouts, f.collision, f.copies_written), (0, true, 0));
        assert!(!f.stored());
    }

    #[test]
    fn failed_is_not_stored() {
        let r = InsertReport {
            outcome: InsertOutcome::Failed,
            kickouts: 500,
            collision: true,
            copies_written: 0,
        };
        assert!(!r.stored());
    }

    #[test]
    fn stashed_is_stored() {
        let r = InsertReport {
            outcome: InsertOutcome::Stashed,
            kickouts: 200,
            collision: true,
            copies_written: 0,
        };
        assert!(r.stored());
    }

    #[test]
    fn serde_roundtrip() {
        let r = InsertReport::clean(1);
        let s = jsonlite::to_string(&r);
        assert_eq!(jsonlite::from_str::<InsertReport>(&s).unwrap(), r);
    }
}
