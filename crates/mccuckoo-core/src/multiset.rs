//! Multiset support (§III.H of the paper).
//!
//! McCuckoo cannot store duplicate keys among an item's copies — the
//! copies must stay identical. The paper's prescription: "it can act as
//! an indexing structure pointing to the address where all those items
//! are actually stored." [`MultisetIndex`] implements exactly that: the
//! McCuckoo table maps each key to the head of a linked chain in an
//! external record arena; duplicates chain through the arena, and the
//! table is updated (an upsert rewriting all copies) only when the head
//! moves.

use hash_kit::KeyHash;

use crate::config::McConfig;
use crate::single::{McCuckoo, McFull};

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Node<V> {
    value: V,
    next: u32,
}

/// A multiset keyed by `K`: any number of values per key.
///
/// ```
/// use mccuckoo_core::{DeletionMode, McConfig, MultisetIndex};
///
/// let mut m: MultisetIndex<u64, &str> =
///     MultisetIndex::new(McConfig::paper(64, 3).with_deletion(DeletionMode::Reset));
/// m.push(7, "first").unwrap();
/// m.push(7, "second").unwrap();
/// assert_eq!(m.count(&7), 2);
/// let vals: Vec<&&str> = m.get_all(&7).collect();
/// assert_eq!(vals, [&"second", &"first"]); // most recent first
/// assert_eq!(m.pop_one(&7), Some("second"));
/// ```
#[derive(Debug)]
pub struct MultisetIndex<K, V> {
    /// Key → chain head (arena index).
    index: McCuckoo<K, u32>,
    arena: Vec<Option<Node<V>>>,
    free: Vec<u32>,
    values: usize,
}

impl<K: KeyHash + Eq + Clone, V> MultisetIndex<K, V> {
    /// Build over a table configured by `config`.
    pub fn new(config: McConfig) -> Self {
        Self {
            index: McCuckoo::new(config),
            arena: Vec::new(),
            free: Vec::new(),
            values: 0,
        }
    }

    /// Total stored values (counting duplicates).
    pub fn len(&self) -> usize {
        self.values
    }

    /// True if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.values == 0
    }

    /// Distinct keys present.
    pub fn distinct_keys(&self) -> usize {
        self.index.len()
    }

    fn alloc(&mut self, node: Node<V>) -> u32 {
        if let Some(i) = self.free.pop() {
            self.arena[i as usize] = Some(node);
            i
        } else {
            self.arena.push(Some(node));
            (self.arena.len() - 1) as u32
        }
    }

    /// Add one `(key, value)` occurrence.
    pub fn push(&mut self, key: K, value: V) -> Result<(), McFull<K, u32>> {
        let head = self.index.get(&key).copied();
        let node = Node {
            value,
            next: head.unwrap_or(NIL),
        };
        let idx = self.alloc(node);
        // Upsert: rewrites all copies when the key already exists.
        let out = match self.index.insert(key, idx) {
            Ok(_) => {
                self.values += 1;
                Ok(())
            }
            Err(full) => {
                // Roll the arena back so a failed insert leaks nothing.
                self.arena[idx as usize] = None;
                self.free.push(idx);
                Err(full)
            }
        };
        self.check_paranoid();
        out
    }

    /// Iterate the values stored under `key`, most recent first.
    pub fn get_all<'a>(&'a self, key: &K) -> impl Iterator<Item = &'a V> + 'a {
        let mut cursor = self.index.get(key).copied().unwrap_or(NIL);
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let node = self.arena[cursor as usize]
                .as_ref()
                .expect("chain nodes are live");
            cursor = node.next;
            Some(&node.value)
        })
    }

    /// Number of values under `key`.
    pub fn count(&self, key: &K) -> usize {
        self.get_all(key).count()
    }

    /// Remove all values under `key`, returning them (most recent first).
    ///
    /// # Panics
    /// Panics if the underlying table was configured with
    /// [`crate::DeletionMode::Disabled`].
    pub fn remove_all(&mut self, key: &K) -> Vec<V> {
        let Some(head) = self.index.remove(key) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut cursor = head;
        while cursor != NIL {
            let node = self.arena[cursor as usize]
                .take()
                .expect("chain nodes are live");
            self.free.push(cursor);
            out.push(node.value);
            cursor = node.next;
        }
        self.values -= out.len();
        self.check_paranoid();
        out
    }

    /// Remove one (the most recent) value under `key`.
    pub fn pop_one(&mut self, key: &K) -> Option<V> {
        let head = *self.index.get(key)?;
        let node = self.arena[head as usize]
            .take()
            .expect("chain nodes are live");
        self.free.push(head);
        self.values -= 1;
        if node.next == NIL {
            self.index.remove(key);
        } else {
            let Ok(_) = self.index.insert(key.clone(), node.next) else {
                unreachable!("updating an existing key cannot fail")
            };
        }
        self.check_paranoid();
        Some(node.value)
    }

    /// Drop every value and key; arena storage is retained for reuse.
    pub fn clear(&mut self) {
        self.index.clear();
        self.free.clear();
        for (i, slot) in self.arena.iter_mut().enumerate() {
            *slot = None;
            self.free.push(i as u32);
        }
        self.values = 0;
        self.check_paranoid();
    }

    /// Exhaustive structural validation (see [`crate::invariant`]): the
    /// underlying index validates, every chain is acyclic over live
    /// arena nodes, the free list covers exactly the dead nodes, and the
    /// value/distinct counts match a full walk.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.index.check_invariants()?;
        let mut visited = vec![false; self.arena.len()];
        let mut walked = 0usize;
        for (_, &head) in self.index.iter() {
            let mut cursor = head;
            let mut steps = 0usize;
            while cursor != NIL {
                let i = cursor as usize;
                if i >= self.arena.len() {
                    return Err(format!("chain cursor {i} out of arena bounds"));
                }
                if visited[i] {
                    return Err(format!("arena node {i} reached twice (cycle or share)"));
                }
                visited[i] = true;
                walked += 1;
                steps += 1;
                if steps > self.arena.len() {
                    return Err("chain longer than arena (cycle)".into());
                }
                let Some(node) = self.arena[i].as_ref() else {
                    return Err(format!("chain reaches dead arena node {i}"));
                };
                cursor = node.next;
            }
        }
        if walked != self.values {
            return Err(format!(
                "value count {} but chains hold {walked}",
                self.values
            ));
        }
        let live = self.arena.iter().filter(|s| s.is_some()).count();
        if live != walked {
            return Err(format!("{live} live arena nodes but {walked} reachable"));
        }
        for &f in &self.free {
            let i = f as usize;
            if i >= self.arena.len() {
                return Err(format!("free-list entry {i} out of arena bounds"));
            }
            if self.arena[i].is_some() {
                return Err(format!("free-list entry {i} points at a live node"));
            }
        }
        if self.free.len() != self.arena.len() - live {
            return Err(format!(
                "free-list holds {} but {} arena nodes are dead",
                self.free.len(),
                self.arena.len() - live
            ));
        }
        Ok(())
    }

    #[cfg(feature = "paranoid")]
    fn check_paranoid(&self) {
        self.check_invariants()
            .expect("paranoid: invariant violated after mutation");
    }

    #[cfg(not(feature = "paranoid"))]
    #[inline(always)]
    fn check_paranoid(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeletionMode;
    use std::collections::HashMap;

    fn multiset() -> MultisetIndex<u64, String> {
        MultisetIndex::new(McConfig::paper(256, 1).with_deletion(DeletionMode::Reset))
    }

    #[test]
    fn push_and_get_all() {
        let mut m = multiset();
        m.push(1, "a".into()).unwrap();
        m.push(1, "b".into()).unwrap();
        m.push(2, "c".into()).unwrap();
        let got: Vec<&String> = m.get_all(&1).collect();
        assert_eq!(got, ["b", "a"]); // most recent first
        assert_eq!(m.count(&1), 2);
        assert_eq!(m.count(&2), 1);
        assert_eq!(m.count(&3), 0);
        assert_eq!(m.len(), 3);
        assert_eq!(m.distinct_keys(), 2);
    }

    #[test]
    fn remove_all_frees_and_reuses_arena() {
        let mut m = multiset();
        for i in 0..10u64 {
            m.push(7, format!("v{i}")).unwrap();
        }
        let removed = m.remove_all(&7);
        assert_eq!(removed.len(), 10);
        assert_eq!(removed[0], "v9");
        assert!(m.is_empty());
        // Arena slots must be recycled.
        let before = m.arena.len();
        for i in 0..10u64 {
            m.push(8, format!("w{i}")).unwrap();
        }
        assert_eq!(m.arena.len(), before, "freelist must be reused");
    }

    #[test]
    fn pop_one_peels_the_chain() {
        let mut m = multiset();
        m.push(5, "x".into()).unwrap();
        m.push(5, "y".into()).unwrap();
        assert_eq!(m.pop_one(&5), Some("y".into()));
        assert_eq!(m.count(&5), 1);
        assert_eq!(m.pop_one(&5), Some("x".into()));
        assert_eq!(m.count(&5), 0);
        assert_eq!(m.pop_one(&5), None);
        assert_eq!(m.distinct_keys(), 0);
    }

    #[test]
    fn differential_against_hashmap_of_vecs() {
        let mut m: MultisetIndex<u64, u64> =
            MultisetIndex::new(McConfig::paper(512, 2).with_deletion(DeletionMode::Reset));
        let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut rng = hash_kit::SplitMix64::new(3);
        // Scaled down under `paranoid`: every mutation validates.
        #[cfg(feature = "paranoid")]
        let steps = 3_000u64;
        #[cfg(not(feature = "paranoid"))]
        let steps = 20_000u64;
        for step in 0..steps {
            let k = rng.next_below(300);
            match rng.next_below(4) {
                0 | 1 => {
                    m.push(k, step).unwrap();
                    model.entry(k).or_default().push(step);
                }
                2 => {
                    let got: Vec<u64> = m.get_all(&k).copied().collect();
                    let mut want = model.get(&k).cloned().unwrap_or_default();
                    want.reverse();
                    assert_eq!(got, want);
                }
                _ => {
                    let got = m.pop_one(&k);
                    let want = model.get_mut(&k).and_then(|v| v.pop());
                    if model.get(&k).is_some_and(|v| v.is_empty()) {
                        model.remove(&k);
                    }
                    assert_eq!(got, want);
                }
            }
        }
        let model_len: usize = model.values().map(|v| v.len()).sum();
        assert_eq!(m.len(), model_len);
        assert_eq!(m.distinct_keys(), model.len());
    }
}
