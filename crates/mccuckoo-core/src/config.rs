//! Configuration of McCuckoo tables.

use hash_kit::FamilyKind;
use jsonlite::{impl_json_enum, FromJson, Json, JsonError, ToJson};

/// How deletions are handled (§III.B.3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeletionMode {
    /// Deletions are not supported; [`crate::McCuckoo::remove`] panics.
    /// In exchange, lookup rule 1 applies in full: *any* candidate
    /// counter of 0 proves the key absent without touching off-chip
    /// memory (the counters form a Bloom filter).
    #[default]
    Disabled,
    /// Solution 1: deleting resets the copies' counters to 0. Lookup
    /// rule 1 must then be skipped (a zero may be a deletion scar), but
    /// the remaining pruning rules still apply and freed buckets are
    /// reusable immediately.
    Reset,
    /// Solution 2: deleted buckets are marked with a tombstone that is
    /// treated as *zero for insertion but non-zero for lookups*, keeping
    /// rule 1 sound at the cost of gradually fading filter power. Suited
    /// to workloads "where deletions rarely happen".
    Tombstone,
}

/// How an insertion resolves a *real* collision — every candidate
/// bucket holds a sole copy, so the counters prove a displacement chain
/// is needed — by choosing and traversing that chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KickPolicyKind {
    /// The paper's mutate-as-you-walk random walk (§III.D): a uniformly
    /// random victim, never stepping straight back. `maxloop` counts
    /// *walk hops*. A failed walk leaves its relocations in place and
    /// stashes the last carried item.
    #[default]
    RandomWalk,
    /// Breadth-first search over the eviction tree: finds a *shortest*
    /// displacement chain before moving anything, so a failed insert is
    /// naturally a strict no-op. `maxloop` counts *expanded nodes*.
    Bfs,
    /// Depth-bounded bubbling per "Efficient d-ary Cuckoo Hashing at
    /// High Load Factors by Bubbling Up" (arXiv 2501.02312): recursive
    /// eviction with a small depth bound, planned up front like BFS.
    /// `maxloop` counts *visited nodes*; the depth bound is derived
    /// (≈ log₂ maxloop, clamped to 2..=8).
    Bubble,
    /// MinCounter (paper ref \[17\]): the random walk, but each hop
    /// evicts from the least-kicked ("coldest") candidate bucket per
    /// on-chip 5-bit kick-history counters, ties broken randomly.
    /// Walk semantics and budget are [`KickPolicyKind::RandomWalk`]'s.
    /// The concurrent tables keep no kick history: every bucket is
    /// equally cold, so they plan it as the plain random walk — which
    /// *is* MinCounter with every tie broken randomly.
    MinCounter,
}

impl KickPolicyKind {
    /// Stable lowercase label used in stats, CSV output, and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            KickPolicyKind::RandomWalk => "random-walk",
            KickPolicyKind::Bfs => "bfs",
            KickPolicyKind::Bubble => "bubble",
            KickPolicyKind::MinCounter => "min-counter",
        }
    }

    /// All policies, in sweep order.
    pub const ALL: [KickPolicyKind; 4] = [
        KickPolicyKind::RandomWalk,
        KickPolicyKind::Bfs,
        KickPolicyKind::Bubble,
        KickPolicyKind::MinCounter,
    ];
}

/// Stash configuration (§III.E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StashPolicy {
    /// No stash: a failed insertion reports [`crate::single::McFull`].
    #[default]
    None,
    /// Unbounded off-chip stash with linear scan. McCuckoo's counter +
    /// flag pre-screening makes visits so rare that scan cost is
    /// irrelevant to the figures; kept for clarity.
    Linear,
    /// Off-chip stash organised as a small open-addressing hash ("more
    /// advanced hash techniques to construct the stash, so that checking
    /// it can be finished with minimal access").
    Hashed,
}

/// Full configuration of a [`crate::McCuckoo`] / input to the blocked
/// variant's [`crate::BlockedConfig`].
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Number of hash functions / sub-tables (the paper uses 3; 2..=4
    /// supported).
    pub d: usize,
    /// Buckets per sub-table.
    pub buckets_per_table: usize,
    /// Kick-out budget before an insertion is declared failed.
    pub maxloop: u32,
    /// Collision resolution policy for real collisions.
    pub kick: KickPolicyKind,
    /// Deletion handling.
    pub deletion: DeletionMode,
    /// Stash behaviour.
    pub stash: StashPolicy,
    /// Hash family construction.
    pub family: FamilyKind,
    /// Master seed.
    pub seed: u64,
}

impl_json_enum!(DeletionMode {
    Disabled,
    Reset,
    Tombstone
});
impl_json_enum!(KickPolicyKind {
    RandomWalk,
    Bfs,
    Bubble,
    MinCounter
});
impl_json_enum!(StashPolicy {
    None,
    Linear,
    Hashed
});
impl ToJson for McConfig {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("d".to_owned(), self.d.to_json()),
            (
                "buckets_per_table".to_owned(),
                self.buckets_per_table.to_json(),
            ),
            ("maxloop".to_owned(), self.maxloop.to_json()),
            ("kick".to_owned(), self.kick.to_json()),
            ("deletion".to_owned(), self.deletion.to_json()),
            ("stash".to_owned(), self.stash.to_json()),
            ("family".to_owned(), self.family.to_json()),
            ("seed".to_owned(), self.seed.to_json()),
        ])
    }
}

/// Also reads configs written when MinCounter was a separate
/// `resolution` field. It only ever refined the random walk, so
/// `"resolution":"MinCounter"` with `"kick":"RandomWalk"` reads as
/// [`KickPolicyKind::MinCounter`]; any other `resolution` is ignored.
/// A config outside the structural limits is an error, not a panic
/// later at build time.
impl FromJson for McConfig {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        fn field<T: FromJson>(j: &Json, name: &str) -> Result<T, JsonError> {
            T::from_json(
                j.get(name)
                    .ok_or_else(|| JsonError(format!("missing field '{name}' on McConfig")))?,
            )
        }
        let mut kick = field(j, "kick")?;
        if kick == KickPolicyKind::RandomWalk
            && matches!(j.get("resolution"), Some(Json::Str(r)) if r == "MinCounter")
        {
            kick = KickPolicyKind::MinCounter;
        }
        let config = Self {
            d: field(j, "d")?,
            buckets_per_table: field(j, "buckets_per_table")?,
            maxloop: field(j, "maxloop")?,
            kick,
            deletion: field(j, "deletion")?,
            stash: field(j, "stash")?,
            family: field(j, "family")?,
            seed: field(j, "seed")?,
        };
        config.check().map_err(JsonError)?;
        Ok(config)
    }
}

impl McConfig {
    /// The paper's software configuration: d = 3, random-walk, maxloop
    /// 500, off-chip stash, deletions disabled (the insertion/lookup
    /// experiments never delete).
    pub fn paper(buckets_per_table: usize, seed: u64) -> Self {
        Self {
            d: 3,
            buckets_per_table,
            maxloop: 500,
            kick: KickPolicyKind::RandomWalk,
            deletion: DeletionMode::Disabled,
            stash: StashPolicy::Linear,
            family: FamilyKind::Independent,
            seed,
        }
    }

    /// Paper configuration with deletions enabled in `Reset` mode
    /// (used by the deletion experiments, Fig. 14).
    pub fn paper_with_deletion(buckets_per_table: usize, seed: u64) -> Self {
        Self {
            deletion: DeletionMode::Reset,
            ..Self::paper(buckets_per_table, seed)
        }
    }

    /// Builder-style setters.
    pub fn with_d(mut self, d: usize) -> Self {
        self.d = d;
        self
    }

    /// Set the kick-out budget.
    pub fn with_maxloop(mut self, maxloop: u32) -> Self {
        self.maxloop = maxloop;
        self
    }

    /// Set the deletion mode.
    pub fn with_deletion(mut self, mode: DeletionMode) -> Self {
        self.deletion = mode;
        self
    }

    /// Set the stash policy.
    pub fn with_stash(mut self, stash: StashPolicy) -> Self {
        self.stash = stash;
        self
    }

    /// Set the collision resolution policy.
    pub fn with_kick_policy(mut self, kick: KickPolicyKind) -> Self {
        self.kick = kick;
        self
    }

    /// Set the hash family.
    pub fn with_family(mut self, family: FamilyKind) -> Self {
        self.family = family;
        self
    }

    /// Validate structural limits.
    ///
    /// # Panics
    /// Panics if `d` is outside `2..=4` or the table is empty.
    pub(crate) fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }

    /// The structural limits: `d` in `2..=4`, a non-empty table, a
    /// positive `maxloop`.
    fn check(&self) -> Result<(), String> {
        if !(2..=4).contains(&self.d) {
            let d = self.d;
            Err(format!(
                "McCuckoo supports 2..=4 hash functions (paper uses 3), got {d}"
            ))
        } else if self.buckets_per_table == 0 {
            Err("table must be non-empty".into())
        } else if self.maxloop == 0 {
            Err("maxloop must be positive".into())
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = McConfig::paper(100, 1);
        assert_eq!(c.d, 3);
        assert_eq!(c.maxloop, 500);
        assert_eq!(c.kick, KickPolicyKind::RandomWalk);
        assert_eq!(c.deletion, DeletionMode::Disabled);
        assert_eq!(c.stash, StashPolicy::Linear);
        c.validate();
    }

    #[test]
    fn builder_setters_chain() {
        let c = McConfig::paper(10, 2)
            .with_d(4)
            .with_maxloop(50)
            .with_deletion(DeletionMode::Tombstone)
            .with_stash(StashPolicy::Hashed)
            .with_kick_policy(KickPolicyKind::Bfs);
        assert_eq!(c.d, 4);
        assert_eq!(c.maxloop, 50);
        assert_eq!(c.deletion, DeletionMode::Tombstone);
        assert_eq!(c.stash, StashPolicy::Hashed);
        assert_eq!(c.kick, KickPolicyKind::Bfs);
    }

    #[test]
    fn kick_policy_labels_are_stable() {
        assert_eq!(KickPolicyKind::RandomWalk.label(), "random-walk");
        assert_eq!(KickPolicyKind::Bfs.label(), "bfs");
        assert_eq!(KickPolicyKind::Bubble.label(), "bubble");
        assert_eq!(KickPolicyKind::MinCounter.label(), "min-counter");
        assert_eq!(KickPolicyKind::ALL.len(), 4);
    }

    /// A config as written when MinCounter was a separate field.
    fn legacy_json(resolution: &str, kick: &str) -> String {
        format!(
            "{{\"d\":3,\"buckets_per_table\":100,\"maxloop\":500,\
             \"resolution\":\"{resolution}\",\"kick\":\"{kick}\",\
             \"deletion\":\"Disabled\",\"stash\":\"Linear\",\
             \"family\":\"Independent\",\"seed\":1}}"
        )
    }

    #[test]
    fn legacy_resolution_field_folds_into_the_kick_policy() {
        let kick = |json: &str| jsonlite::from_str::<McConfig>(json).unwrap().kick;
        let cases = [
            ("MinCounter", "RandomWalk", KickPolicyKind::MinCounter),
            ("MinCounter", "Bfs", KickPolicyKind::Bfs),
            ("MinCounter", "Bubble", KickPolicyKind::Bubble),
            ("RandomWalk", "RandomWalk", KickPolicyKind::RandomWalk),
            ("Unknown", "RandomWalk", KickPolicyKind::RandomWalk),
        ];
        for (resolution, written, want) in cases {
            assert_eq!(kick(&legacy_json(resolution, written)), want);
        }
    }

    #[test]
    fn config_json_has_no_resolution_field() {
        for kind in KickPolicyKind::ALL {
            let c = McConfig::paper(100, 1).with_kick_policy(kind);
            let json = jsonlite::to_string(&c);
            assert!(!json.contains("resolution"), "{json}");
            let back: McConfig = jsonlite::from_str(&json).unwrap();
            assert_eq!(back.kick, kind);
            assert_eq!(jsonlite::to_string(&back), json);
        }
        let missing = jsonlite::to_string(&McConfig::paper(100, 1)).replacen("\"seed\":1", "", 1);
        assert!(jsonlite::from_str::<McConfig>(&missing).is_err());
    }

    #[test]
    fn out_of_limit_json_configs_are_typed_errors() {
        let json = jsonlite::to_string(&McConfig::paper(100, 1));
        for (from, to) in [
            ("\"d\":3", "\"d\":7"),
            ("\"d\":3", "\"d\":1"),
            ("\"buckets_per_table\":100", "\"buckets_per_table\":0"),
            ("\"maxloop\":500", "\"maxloop\":0"),
        ] {
            let edited = json.replacen(from, to, 1);
            assert_ne!(edited, json, "{from} not in the config");
            assert!(
                jsonlite::from_str::<McConfig>(&edited).is_err(),
                "{to} parsed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "2..=4 hash functions")]
    fn d5_rejected() {
        McConfig::paper(10, 0).with_d(5).validate();
    }

    #[test]
    #[should_panic(expected = "2..=4 hash functions")]
    fn d1_rejected() {
        McConfig::paper(10, 0).with_d(1).validate();
    }
}
