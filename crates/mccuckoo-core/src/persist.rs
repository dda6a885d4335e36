//! Logical snapshots — persistence for the McCuckoo tables.
//!
//! A [`TableSnapshot`] captures the table's configuration and its
//! logical content (every stored `(key, value)` pair, including the
//! stash). Restoring rebuilds the table by re-running the insertion
//! procedure; because the configuration carries the hash seed, the
//! restored table serves the same keys with the same candidate sets.
//!
//! Snapshots are deliberately *logical*, not bit-exact: physical copy
//! placement depends on insertion order, which a snapshot does not
//! preserve. Everything observable through the public API — membership,
//! values, deletion mode, screening soundness — is preserved; access
//! counts may differ marginally after a restore. This keeps the format
//! stable across internal layout changes, which is what a production
//! system wants from a persistence format.

use hash_kit::KeyHash;
use jsonlite::{FromJson, Json, JsonError, ToJson};

use crate::blocked::{BlockedConfig, BlockedLayout, BlockedMcCuckoo, SLOTS};
use crate::config::McConfig;
use crate::engine::{BucketLayout, Engine};
use crate::single::{McCuckoo, SingleLayout};

/// A serialisable snapshot of a single-slot table.
#[derive(Debug, Clone)]
pub struct TableSnapshot<K, V> {
    /// The configuration the table was built with (seed included).
    pub config: McConfig,
    /// Every stored pair (main table and stash), unordered.
    pub items: Vec<(K, V)>,
}

impl<K: ToJson, V: ToJson> ToJson for TableSnapshot<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("config".to_owned(), self.config.to_json()),
            ("items".to_owned(), self.items.to_json()),
        ])
    }
}

impl<K: FromJson, V: FromJson> FromJson for TableSnapshot<K, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            config: FromJson::from_json(field(j, "config")?)?,
            items: FromJson::from_json(field(j, "items")?)?,
        })
    }
}

/// A serialisable snapshot of a blocked table. Reading ignores the
/// `aggressive_lookup` flag older snapshots carry: the lookup extension
/// it switched on is gone, and the items restore the same without it.
#[derive(Debug, Clone)]
pub struct BlockedSnapshot<K, V> {
    /// Base configuration.
    pub config: McConfig,
    /// Slots per bucket.
    pub slots: usize,
    /// Every stored pair, unordered.
    pub items: Vec<(K, V)>,
}

impl<K: ToJson, V: ToJson> ToJson for BlockedSnapshot<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("config".to_owned(), self.config.to_json()),
            ("slots".to_owned(), self.slots.to_json()),
            ("items".to_owned(), self.items.to_json()),
        ])
    }
}

/// Field `name` of the snapshot object `j`.
pub(crate) fn field<'j>(j: &'j Json, name: &str) -> Result<&'j Json, JsonError> {
    j.get(name)
        .ok_or_else(|| JsonError(format!("missing field '{name}'")))
}

impl<K: FromJson, V: FromJson> FromJson for BlockedSnapshot<K, V> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        let slots = FromJson::from_json(field(j, "slots")?)?;
        if !SLOTS.contains(&slots) {
            return Err(JsonError(format!("{slots} slots per bucket, not 1..=8")));
        }
        Ok(Self {
            config: FromJson::from_json(field(j, "config")?)?,
            slots,
            items: FromJson::from_json(field(j, "items")?)?,
        })
    }
}

/// A snapshot restore that could not re-place every item — only possible
/// with [`crate::StashPolicy::None`] when the snapshot was taken of an
/// overfull table (or restored into a smaller geometry). **Nothing is
/// lost**: every snapshot item is handed back, partitioned into the ones
/// that fit and the ones that did not.
#[derive(Debug)]
pub struct SnapshotOverflow<K, V> {
    /// Items that were successfully re-placed before the overflow was
    /// detected (drained back out of the partial table).
    pub placed: Vec<(K, V)>,
    /// Items that could not be placed, in no particular order. Because
    /// restores re-run the insertion procedure, an unplaceable entry is
    /// the last item *evicted* by a failed kick walk, which need not be
    /// the pair that was offered (cf. [`crate::engine::McFull`]).
    pub leftover: Vec<(K, V)>,
}

impl<K, V> SnapshotOverflow<K, V> {
    /// All snapshot items, placed and unplaced alike.
    pub fn into_items(self) -> Vec<(K, V)> {
        let mut items = self.placed;
        items.extend(self.leftover);
        items
    }
}

impl<K: KeyHash + Eq + Clone, V: Clone> Engine<K, V, SingleLayout> {
    /// Capture a logical snapshot of the table.
    pub fn to_snapshot(&self) -> TableSnapshot<K, V> {
        TableSnapshot {
            config: self.config_snapshot(),
            items: self.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }

    /// Rebuild a table from a snapshot, reporting any items that could
    /// not be re-placed instead of dropping them. With a stash
    /// configured, restores cannot overflow (failed walks spill to the
    /// stash as usual); with [`crate::StashPolicy::None`] an overfull
    /// snapshot returns [`SnapshotOverflow`] carrying every item.
    pub fn try_from_snapshot(
        snapshot: TableSnapshot<K, V>,
    ) -> Result<Self, SnapshotOverflow<K, V>> {
        McCuckoo::new(snapshot.config).restore(snapshot.items)
    }
}

impl<K: KeyHash + Eq + Clone, V: Clone> Engine<K, V, BlockedLayout> {
    /// Capture a logical snapshot of the table.
    pub fn to_snapshot(&self) -> BlockedSnapshot<K, V> {
        BlockedSnapshot {
            config: self.config_snapshot(),
            slots: self.slots_per_bucket(),
            items: self.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        }
    }

    /// Rebuild a table from a snapshot, reporting any items that could
    /// not be re-placed instead of dropping them (see
    /// [`Engine::try_from_snapshot`]).
    pub fn try_from_snapshot(
        snapshot: BlockedSnapshot<K, V>,
    ) -> Result<Self, SnapshotOverflow<K, V>> {
        BlockedMcCuckoo::new(BlockedConfig {
            base: snapshot.config,
            slots: snapshot.slots,
        })
        .restore(snapshot.items)
    }
}

impl<K: KeyHash + Eq + Clone, V: Clone, L: BucketLayout> Engine<K, V, L> {
    /// Place a snapshot's `items` into this fresh table.
    fn restore(mut self, items: Vec<(K, V)>) -> Result<Self, SnapshotOverflow<K, V>> {
        let leftover = self.place_all(items);
        if leftover.is_empty() {
            Ok(self)
        } else {
            Err(SnapshotOverflow {
                placed: self.drain_items(),
                leftover,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeletionMode;
    use workloads::UniqueKeys;

    #[test]
    fn single_snapshot_roundtrips_through_json() {
        let mut t: McCuckoo<u64, String> =
            McCuckoo::new(McConfig::paper(512, 1).with_deletion(DeletionMode::Reset));
        let mut keys = UniqueKeys::new(2);
        let ks = keys.take_vec(1_000);
        for &k in &ks {
            t.insert_new(k, format!("v{k}")).unwrap();
        }
        // Mix in some deletions so the snapshot sees a scarred table.
        for &k in ks.iter().take(200) {
            t.remove(&k);
        }
        let snap = t.to_snapshot();
        let json = jsonlite::to_string(&snap);
        let back: TableSnapshot<u64, String> = jsonlite::from_str(&json).unwrap();
        let restored = McCuckoo::try_from_snapshot(back).expect("stash-backed restore fits");
        assert_eq!(restored.len(), t.len());
        for &k in ks.iter().take(200) {
            assert_eq!(restored.get(&k), None);
        }
        for &k in ks.iter().skip(200) {
            assert_eq!(restored.get(&k), Some(&format!("v{k}")));
        }
        restored.check_invariants().unwrap();
    }

    #[test]
    fn snapshot_preserves_stash_content() {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper(100, 3).with_maxloop(20));
        let mut keys = UniqueKeys::new(4);
        let ks = keys.take_vec(300); // 100% load: stash in use
        for &k in &ks {
            t.insert_new(k, k).unwrap();
        }
        assert!(t.stash_len() > 0);
        let restored = McCuckoo::try_from_snapshot(t.to_snapshot()).expect("stash absorbs all");
        for &k in &ks {
            assert_eq!(restored.get(&k), Some(&k), "key lost through snapshot");
        }
        restored.check_invariants().unwrap();
    }

    #[test]
    fn blocked_snapshot_roundtrips() {
        let mut t: BlockedMcCuckoo<u64, u64> = BlockedMcCuckoo::new(BlockedConfig {
            base: McConfig::paper_with_deletion(128, 5),
            slots: 3,
        });
        let mut keys = UniqueKeys::new(6);
        let ks = keys.take_vec(1_000);
        for &k in &ks {
            t.insert_new(k, k.wrapping_mul(3)).unwrap();
        }
        // Older snapshots also carried an `aggressive_lookup` flag; one
        // that still does must restore every key.
        let json = jsonlite::to_string(&t.to_snapshot()).replacen(
            "\"slots\":3,",
            "\"slots\":3,\"aggressive_lookup\":true,",
            1,
        );
        assert!(json.contains("\"aggressive_lookup\":true"));
        let back: BlockedSnapshot<u64, u64> = jsonlite::from_str(&json).unwrap();
        assert_eq!(back.slots, 3);
        let restored = BlockedMcCuckoo::try_from_snapshot(back).expect("restore fits");
        for &k in &ks {
            assert_eq!(restored.get(&k), Some(&(k.wrapping_mul(3))));
        }
        restored.check_invariants().unwrap();
        // A slot count no blocked table supports is a parse error, not a
        // panic in `try_from_snapshot`.
        for bad in ["\"slots\":0,", "\"slots\":9,"] {
            let edited = json.replacen("\"slots\":3,", bad, 1);
            let err = jsonlite::from_str::<BlockedSnapshot<u64, u64>>(&edited).unwrap_err();
            assert!(err.0.contains("slots per bucket"), "{bad}: got {}", err.0);
        }
    }

    /// The bug this module used to have: a stash-less overfull snapshot
    /// silently dropped the items that failed re-insertion (behind a
    /// `debug_assert`, i.e. invisibly in release builds). The fallible
    /// path must hand every single item back. This test is part of the
    /// release-mode CI run, so the guarantee is proven without
    /// debug assertions.
    #[test]
    fn try_from_snapshot_reports_overflow_without_losing_items() {
        use crate::config::StashPolicy;
        // 8 buckets × 3 sub-tables = 24 slots, no stash: 200 items
        // cannot possibly fit.
        let config = McConfig {
            stash: StashPolicy::None,
            maxloop: 8,
            ..McConfig::paper(8, 9)
        };
        let items: Vec<(u64, u64)> = (0..200u64).map(|k| (k, k.wrapping_mul(7))).collect();
        let snap = TableSnapshot {
            config,
            items: items.clone(),
        };
        let overflow = McCuckoo::try_from_snapshot(snap).expect_err("24 slots cannot hold 200");
        assert!(!overflow.leftover.is_empty(), "overflow must be reported");
        // Nothing lost: placed ∪ leftover is a permutation of the
        // snapshot (leftovers are walk evictees, so order and even the
        // placed/leftover split are not the offered order).
        let mut all = overflow.into_items();
        all.sort_unstable();
        let mut want = items;
        want.sort_unstable();
        assert_eq!(all, want, "every snapshot item must be handed back");
    }

    #[test]
    fn legacy_min_counter_snapshot_restores_the_policy() {
        use crate::config::KickPolicyKind;
        let mut t: McCuckoo<u64, u64> =
            McCuckoo::new(McConfig::paper(64, 3).with_kick_policy(KickPolicyKind::MinCounter));
        for k in 0..150u64 {
            t.insert_new(k, k + 1).unwrap();
        }
        // Rewrite the config into the layout that still carried a
        // separate `resolution` field.
        let json = jsonlite::to_string(&t.to_snapshot()).replacen(
            "\"kick\":\"MinCounter\"",
            "\"resolution\":\"MinCounter\",\"kick\":\"RandomWalk\"",
            1,
        );
        assert!(json.contains("resolution"));
        let snap: TableSnapshot<u64, u64> = jsonlite::from_str(&json).unwrap();
        let r = McCuckoo::try_from_snapshot(snap).unwrap();
        assert_eq!(r.stats().kick_policy, "min-counter");
        assert!(r.kick_history.is_some());
        for k in 0..150u64 {
            assert_eq!(r.get(&k), Some(&(k + 1)));
        }
    }

    #[test]
    fn blocked_try_from_snapshot_overflow_preserves_items() {
        use crate::config::StashPolicy;
        let snap = BlockedSnapshot {
            config: McConfig {
                stash: StashPolicy::None,
                maxloop: 8,
                ..McConfig::paper(4, 13)
            },
            slots: 2,
            items: (0..200u64).map(|k| (k, k ^ 0xA5)).collect(),
        };
        let items = snap.items.clone();
        let overflow =
            BlockedMcCuckoo::try_from_snapshot(snap).expect_err("24 slots cannot hold 200");
        assert!(!overflow.leftover.is_empty());
        let mut all = overflow.into_items();
        all.sort_unstable();
        let mut want = items;
        want.sort_unstable();
        assert_eq!(all, want);
    }

    #[test]
    fn try_from_snapshot_ok_roundtrip() {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper_with_deletion(256, 15));
        let mut keys = UniqueKeys::new(16);
        let ks = keys.take_vec(400);
        for &k in &ks {
            t.insert_new(k, k + 1).unwrap();
        }
        let restored = McCuckoo::try_from_snapshot(t.to_snapshot()).expect("fits");
        for &k in &ks {
            assert_eq!(restored.get(&k), Some(&(k + 1)));
        }
        restored.check_invariants().unwrap();
    }

    #[test]
    fn restored_table_remains_fully_operational() {
        let mut t: McCuckoo<u64, u64> = McCuckoo::new(McConfig::paper_with_deletion(256, 7));
        let mut keys = UniqueKeys::new(8);
        for &k in &keys.take_vec(400) {
            t.insert_new(k, k).unwrap();
        }
        let mut restored = McCuckoo::try_from_snapshot(t.to_snapshot()).expect("restore fits");
        // Insert, update, delete on the restored instance.
        let more = keys.take_vec(200);
        for &k in &more {
            restored.insert_new(k, k).unwrap();
        }
        for &k in &more {
            restored.insert(k, k + 1).unwrap();
            assert_eq!(restored.get(&k), Some(&(k + 1)));
            assert_eq!(restored.remove(&k), Some(k + 1));
        }
        restored.check_invariants().unwrap();
    }
}
