//! Seeded table-operation sequences.
//!
//! A sequence is a plain `Vec<TableOp>`: fully materialised, so it can
//! be replayed, subset by the shrinker, and printed in a failure report.
//! Generation is deterministic per `(seed, profile, n)` — the generator
//! derives everything from a [`SplitMix64`] stream and never consults
//! ambient state.
//!
//! Keys are drawn from a small integer domain chosen by the profile:
//! narrow domains force duplicate hits (upserts, re-deletes), wide
//! domains near the table capacity force stash traffic and kick-out
//! storms. Values are the op's position in the sequence, so a stale
//! value read after an update is immediately visible in a report.

use std::fmt;

use hash_kit::SplitMix64;

/// One operation against a key-value table under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableOp {
    /// Upsert `key → value`.
    Insert(u64, u64),
    /// Insert a key the oracle believes absent (the runner downgrades
    /// this to a no-op when the key turns out live, so subsequences
    /// produced by the shrinker stay valid).
    InsertNew(u64, u64),
    /// Point lookup; result compared against the oracle.
    Get(u64),
    /// Membership probe; result compared against the oracle.
    Contains(u64),
    /// Delete; returned value compared against the oracle.
    Remove(u64),
    /// Drop everything.
    Clear,
    /// Re-synchronise the stash flags (no observable result; the
    /// post-batch sweep verifies nothing was lost).
    RefreshStash,
}

impl fmt::Display for TableOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableOp::Insert(k, v) => write!(f, "ins {k}={v}"),
            TableOp::InsertNew(k, v) => write!(f, "new {k}={v}"),
            TableOp::Get(k) => write!(f, "get {k}"),
            TableOp::Contains(k) => write!(f, "has {k}"),
            TableOp::Remove(k) => write!(f, "del {k}"),
            TableOp::Clear => write!(f, "clear"),
            TableOp::RefreshStash => write!(f, "refresh"),
        }
    }
}

/// Adversarial mix selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixProfile {
    /// All op kinds at moderate weights over a mid-sized key domain.
    Balanced,
    /// Narrow key domain: most inserts hit live keys (upsert path) and
    /// most deletes re-delete already-dead keys.
    DuplicateHeavy,
    /// Deletion-dominated churn: exercises counter resets, tombstones
    /// and the re-insertion of scarred buckets.
    DeleteHeavy,
    /// Insert-dominated at a key domain close to table capacity: the
    /// table operates at very high load, stashing and kicking out.
    NearFull,
    /// Almost pure upserts over a tiny key domain: the same keys are
    /// re-inserted over and over with fresh values, with only occasional
    /// lookups to observe them and almost no deletions. Targets the
    /// update-in-place path (a destructive remove-then-insert upsert
    /// shows up immediately as churn, lost keys or stale values).
    UpsertHammer,
    /// Insert/remove churn over a tiny key domain, meant for several
    /// writer threads sharing one concurrent table: every op contends
    /// for the table's one writer lock. No `Clear`/`RefreshStash` —
    /// those need whole-table coordination and would make multi-writer
    /// oracle reconciliation undecidable.
    Contended,
    /// Write-skewed churn over a mid-sized key domain, meant to run
    /// *while a shard split drains the table*: heavy upserts keep the
    /// forwarding redo path hot, steady removes race the migration
    /// cursor's insert-then-remove window, and frequent lookups observe
    /// every intermediate state. No `Clear`/`RefreshStash` (whole-table
    /// coordination; `Clear` additionally serialises against the split
    /// lock, which would turn the mix into a migration barrier).
    GrowUnderFire,
}

impl MixProfile {
    /// All profiles, for sweep drivers.
    pub const ALL: [MixProfile; 7] = [
        MixProfile::Balanced,
        MixProfile::DuplicateHeavy,
        MixProfile::DeleteHeavy,
        MixProfile::NearFull,
        MixProfile::UpsertHammer,
        MixProfile::Contended,
        MixProfile::GrowUnderFire,
    ];

    /// Op-kind weights: insert, insert_new, get, contains, remove,
    /// clear, refresh_stash.
    fn weights(self) -> [u32; 7] {
        match self {
            MixProfile::Balanced => [25, 10, 25, 10, 20, 1, 4],
            MixProfile::DuplicateHeavy => [40, 15, 20, 5, 15, 1, 4],
            MixProfile::DeleteHeavy => [25, 5, 15, 5, 40, 2, 8],
            MixProfile::NearFull => [60, 10, 10, 3, 12, 0, 5],
            MixProfile::UpsertHammer => [80, 2, 12, 3, 2, 0, 1],
            MixProfile::Contended => [55, 5, 15, 5, 20, 0, 0],
            MixProfile::GrowUnderFire => [45, 10, 25, 5, 15, 0, 0],
        }
    }

    /// Key-domain size for a table of `capacity` total buckets.
    pub fn key_domain(self, capacity: usize) -> u64 {
        match self {
            MixProfile::Balanced => (capacity as u64 / 2).max(8),
            MixProfile::DuplicateHeavy => 24,
            MixProfile::DeleteHeavy => (capacity as u64 / 4).max(8),
            // ~95% of capacity: the stash works for a living.
            MixProfile::NearFull => (capacity as u64 * 95 / 100).max(8),
            // Tiny domain: nearly every insert hits a live key.
            MixProfile::UpsertHammer => 12,
            // Tiny domain: writers keep revisiting the same few keys.
            MixProfile::Contended => 10,
            // Roomy enough that splits have real key volume to drain,
            // small enough that writers keep revisiting migrating keys.
            MixProfile::GrowUnderFire => (capacity as u64 / 3).max(16),
        }
    }
}

/// Generate `n` operations for `(seed, profile)` over `key_domain` keys.
///
/// Deterministic: equal arguments give an identical sequence. `InsertNew`
/// ops are biased toward keys the generator believes dead, but the
/// differential runner re-checks against its oracle, so any subsequence
/// of the output is also a valid sequence.
pub fn gen_ops(seed: u64, profile: MixProfile, n: usize, key_domain: u64) -> Vec<TableOp> {
    assert!(key_domain > 0, "key domain must be non-empty");
    let mut rng = SplitMix64::new(seed ^ SEED_SALT);
    let weights = profile.weights();
    let total: u32 = weights.iter().sum();
    // Track (approximate) liveness to aim InsertNew at dead keys.
    let mut live = vec![false; key_domain as usize];
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let v = i as u64 + 1;
        let mut roll = rng.next_below(total as u64) as u32;
        let mut kind = 0usize;
        for (j, &w) in weights.iter().enumerate() {
            if roll < w {
                kind = j;
                break;
            }
            roll -= w;
        }
        let k = rng.next_below(key_domain);
        let op = match kind {
            0 => {
                live[k as usize] = true;
                TableOp::Insert(k, v)
            }
            1 => {
                // Retry a few times for a dead key; fall back to k.
                let mut kn = k;
                for _ in 0..4 {
                    if !live[kn as usize] {
                        break;
                    }
                    kn = rng.next_below(key_domain);
                }
                live[kn as usize] = true;
                TableOp::InsertNew(kn, v)
            }
            2 => TableOp::Get(k),
            3 => TableOp::Contains(k),
            4 => {
                live[k as usize] = false;
                TableOp::Remove(k)
            }
            5 => {
                live.fill(false);
                TableOp::Clear
            }
            _ => TableOp::RefreshStash,
        };
        ops.push(op);
    }
    ops
}

/// Decorrelates testkit streams from the tables' own hash seeds.
const SEED_SALT: u64 = 0x7E57_4B17_5EED_5A17;

/// Render a sequence compactly for failure reports.
pub fn format_ops(ops: &[TableOp]) -> String {
    let items: Vec<String> = ops.iter().map(|o| o.to_string()).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = gen_ops(42, MixProfile::Balanced, 5_000, 128);
        let b = gen_ops(42, MixProfile::Balanced, 5_000, 128);
        assert_eq!(a, b);
        let c = gen_ops(43, MixProfile::Balanced, 5_000, 128);
        assert_ne!(a, c);
    }

    #[test]
    fn profiles_have_distinct_shapes() {
        let count = |p: MixProfile, f: fn(&TableOp) -> bool| {
            gen_ops(7, p, 10_000, 64).iter().filter(|o| f(o)).count()
        };
        let removes = |o: &TableOp| matches!(o, TableOp::Remove(_));
        let inserts = |o: &TableOp| matches!(o, TableOp::Insert(..) | TableOp::InsertNew(..));
        assert!(count(MixProfile::DeleteHeavy, removes) > count(MixProfile::Balanced, removes));
        assert!(count(MixProfile::NearFull, inserts) > count(MixProfile::Balanced, inserts));
    }

    #[test]
    fn keys_stay_in_domain() {
        for op in gen_ops(9, MixProfile::DuplicateHeavy, 2_000, 24) {
            let k = match op {
                TableOp::Insert(k, _)
                | TableOp::InsertNew(k, _)
                | TableOp::Get(k)
                | TableOp::Contains(k)
                | TableOp::Remove(k) => k,
                TableOp::Clear | TableOp::RefreshStash => continue,
            };
            assert!(k < 24);
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TableOp::Insert(3, 4).to_string(), "ins 3=4");
        assert_eq!(
            format_ops(&[TableOp::Clear, TableOp::Get(1)]),
            "[clear, get 1]"
        );
    }
}
