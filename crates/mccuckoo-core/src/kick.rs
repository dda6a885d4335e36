//! Pluggable kick-walk planning: the `KickPolicy` layer.
//!
//! A *real* collision (every candidate slot of the inserted key holds a
//! sole copy, `EvictionGraph::counter` 1 everywhere) is
//! resolved by displacing a chain of sole-copy items. This module owns
//! the *choice* of that chain; the [`crate::engine::Engine`] — the one
//! `EvictionGraph` implementor, and the writer of every table,
//! [`crate::ConcurrentMcCuckoo`] included — owns its *execution*
//! (terminal settle → backward chain shift → front write, back to front
//! in MemC3 order). On the plain store the configured
//! [`KickPolicyKind::RandomWalk`] and [`KickPolicyKind::MinCounter`]
//! instead run the paper's original mutate-as-you-walk random walk,
//! whose observable behaviour (RNG draw order, metering, kick history,
//! failure semantics) predates this layer and is preserved bit-for-bit;
//! the concurrent table's seqlocked store plans every policy, so its
//! lock-free readers never see a displaced item missing.
//!
//! A plan is a `Vec<usize>` of global slot indices: `path[0]` is a
//! candidate slot of the inserted key, each `path[i+1]` is a candidate
//! slot of the item occupying `path[i]`, every slot on the chain holds a
//! sole copy, and the *terminal* occupant is settleable by the ordinary
//! insertion principles: a counter-0 slot among its candidates, or a
//! redundant copy with counter ≥ 2 outside the bucket being vacated.
//! Overwriting a redundant copy never makes its owner unavailable, so
//! both terminal kinds are safe to execute while readers race (§III.H).
//! Because planning only reads, a failed plan is a strict no-op on the
//! table.
//!
//! ## Budget semantics (`maxloop`)
//!
//! | policy        | `maxloop` counts            | chain shape            |
//! |---------------|-----------------------------|------------------------|
//! | `random-walk` | walk hops (a trapped walk's restart spends one) | one random simple path |
//! | `min-counter` | as `random-walk` (planned *as* the random walk: a planner has no kick history, so every bucket is equally cold) | one random simple path |
//! | `bfs`         | expanded (occupant-read) nodes | shortest chain found by breadth-first search |
//! | `bubble`      | visited (occupant-read) nodes | first chain found by backtracking depth-first eviction |
//!
//! BFS ("Efficient d-ary Cuckoo Hashing at High Load Factors by
//! Bubbling Up", arXiv 2501.02312, and the classic BFS insertion
//! literature) explores the eviction tree breadth-first, so the chain
//! it returns is a *shortest* one and insertions stay O(1) moves in
//! expectation even at very high load; bubbling explores the same tree
//! depth-first — a non-revisiting random walk that *backtracks* out of
//! dead subtrees instead of burning budget in them, so its reach per
//! visited node dominates the plain walk's.

use hash_kit::SplitMix64;

use crate::config::KickPolicyKind;
use crate::engine::MAX_D;

/// Read-only view of a table's eviction graph, implemented by the
/// engine over either slot store. All methods are reads;
/// implementors meter them (one off-chip read per
/// [`occupant`](EvictionGraph::occupant), on-chip reads via
/// [`meter_onchip`](EvictionGraph::meter_onchip) — raw
/// [`counter`](EvictionGraph::counter) peeks are unmetered so planners
/// control the modelled cost explicitly).
pub(crate) trait EvictionGraph {
    /// Stored key type.
    type Key: Clone;

    /// Number of hash functions (`d`).
    fn d(&self) -> usize;

    /// Slots per bucket (`l`).
    fn l(&self) -> usize;

    /// Raw, unmetered peek at a slot's copy counter.
    fn counter(&self, slot: usize) -> u8;

    /// Global candidate-bucket indices of `key` (first `d` valid).
    fn cands(&self, key: &Self::Key) -> [usize; MAX_D];

    /// Global slot index of `(bucket, slot-in-bucket)`.
    fn slot_of(&self, bucket: usize, slot: usize) -> usize;

    /// The key occupying `slot`, metering one off-chip read. `None` for
    /// an empty slot, which planners treat as a dead end. Planning runs
    /// under exclusive write access, so the answer is exact.
    fn occupant(&self, slot: usize) -> Option<Self::Key>;

    /// Meter `n` on-chip counter reads.
    fn meter_onchip(&self, n: u64);
}

/// Bucket that global slot index `slot` belongs to.
#[inline]
fn bucket_of<G: EvictionGraph>(g: &G, slot: usize) -> usize {
    slot / g.l()
}

/// Whether the item `key` occupying `from_slot` can settle by the
/// insertion principles: a counter-0 slot among its candidates, or a
/// redundant (counter ≥ 2) slot outside the bucket it is vacating.
/// Short-circuits like the counter scans it models; the caller meters
/// the scan.
#[inline]
fn settleable<G: EvictionGraph>(g: &G, cands: &[usize; MAX_D], from_slot: usize) -> bool {
    let from_bucket = bucket_of(g, from_slot);
    (0..g.d()).any(|i| {
        (0..g.l()).any(|s| {
            let c = g.counter(g.slot_of(cands[i], s));
            c == 0 || (c >= 2 && cands[i] != from_bucket)
        })
    })
}

/// Plan a displacement chain for `key` under `kind`. On success `path`
/// holds the chain's global slot indices and `true` is returned; on
/// failure `path`'s contents are unspecified and nothing in the table
/// was touched (planning only reads).
pub(crate) fn plan_kick<G: EvictionGraph>(
    g: &G,
    kind: KickPolicyKind,
    key: &G::Key,
    rng: &mut SplitMix64,
    maxloop: u32,
    path: &mut Vec<usize>,
) -> bool {
    match kind {
        // Planners see no kick history, so every bucket is equally cold:
        // MinCounter with random tie-breaks is the random walk.
        KickPolicyKind::RandomWalk | KickPolicyKind::MinCounter => {
            plan_random_walk(g, key, rng, maxloop, path)
        }
        KickPolicyKind::Bfs => plan_bfs(g, key, maxloop, path),
        KickPolicyKind::Bubble => plan_bubble(g, key, rng, maxloop, path),
    }
}

/// Random-walk planner: one random simple path, never revisiting a
/// bucket already on the chain, up to `maxloop` iterations.
///
/// Each hop draws one `next_below(m)` among the unvisited candidates
/// (plus a slot draw when `l > 1`) and meters one off-chip occupant read
/// and one on-chip `d·l` counter scan. A walk that traps itself — every
/// candidate of the carried item already on the chain — restarts from
/// the inserted key instead of giving up, spending one iteration of the
/// same budget; the table may well have room elsewhere. Walks that never
/// trap draw exactly as before the restart existed.
pub(crate) fn plan_random_walk<G: EvictionGraph>(
    g: &G,
    key: &G::Key,
    rng: &mut SplitMix64,
    maxloop: u32,
    path: &mut Vec<usize>,
) -> bool {
    path.clear();
    let d = g.d();
    let l = g.l();
    let mut cur_key = key.clone();
    for _ in 0..maxloop {
        let cands = g.cands(&cur_key);
        let mut choices = [usize::MAX; MAX_D];
        let mut m = 0usize;
        for &b in cands.iter().take(d) {
            if !path.iter().any(|&s| bucket_of(g, s) == b) {
                choices[m] = b;
                m += 1;
            }
        }
        if m == 0 {
            path.clear();
            cur_key = key.clone();
            continue;
        }
        let vb = choices[rng.next_below(m as u64) as usize];
        let vs = if l == 1 {
            0
        } else {
            rng.next_below(l as u64) as usize
        };
        let next = g.slot_of(vb, vs);
        path.push(next);
        let Some(occupant) = g.occupant(next) else {
            return false;
        };
        let ocands = g.cands(&occupant);
        g.meter_onchip((d * l) as u64);
        if settleable(g, &ocands, next) {
            return true;
        }
        cur_key = occupant;
    }
    false
}

/// BFS planner: breadth-first search over the eviction tree, expanding
/// at most `maxloop` nodes, with a global visited-bucket set keeping
/// chains simple. Returns a *shortest* displacement chain, found before
/// anything moves — which is why a failed BFS insert needs no unwind
/// log.
pub(crate) fn plan_bfs<G: EvictionGraph>(
    g: &G,
    key: &G::Key,
    maxloop: u32,
    path: &mut Vec<usize>,
) -> bool {
    path.clear();
    let d = g.d();
    let l = g.l();
    // Arena of (slot, parent index into the arena; usize::MAX = root).
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    let mut visited: Vec<usize> = Vec::with_capacity(d * 4);
    let cands = g.cands(key);
    for &b in cands.iter().take(d) {
        visited.push(b);
        for s in 0..l {
            let slot = g.slot_of(b, s);
            // Only sole copies are displaceable chain links.
            if g.counter(slot) == 1 {
                nodes.push((slot, usize::MAX));
            }
        }
    }
    let mut head = 0usize;
    let mut expanded = 0u32;
    while head < nodes.len() && expanded < maxloop {
        let (slot, _) = nodes[head];
        expanded += 1;
        let Some(occupant) = g.occupant(slot) else {
            head += 1;
            continue;
        };
        let ocands = g.cands(&occupant);
        g.meter_onchip((d * l) as u64);
        if settleable(g, &ocands, slot) {
            // Reconstruct root → goal through the parent pointers.
            let mut at = head;
            while at != usize::MAX {
                path.push(nodes[at].0);
                at = nodes[at].1;
            }
            path.reverse();
            return true;
        }
        for &b in ocands.iter().take(d) {
            if visited.contains(&b) {
                continue;
            }
            visited.push(b);
            for s in 0..l {
                let child = g.slot_of(b, s);
                if g.counter(child) == 1 {
                    nodes.push((child, head));
                }
            }
        }
        head += 1;
    }
    false
}

/// Bubbling planner (after arXiv 2501.02312): recursive eviction with
/// backtracking. Explores the eviction tree depth-first, visiting at
/// most `maxloop` nodes in total, with the candidate exploration order
/// rotated by the RNG so repeated insertions do not all hammer the same
/// subtree. Two deliberate choices make its reach dominate the random
/// walk's at equal budget: depth is bounded only by the visit budget
/// (near saturation the augmenting chains are *long*, and a
/// depth-capped search cannot reach them), and exclusion is
/// **chain-local** — a bucket is skipped only while it is on the
/// current chain, exactly the walk's rule, so a bucket abandoned in a
/// dead branch can still serve as a link elsewhere. The first branch
/// explored is therefore distributed like a random walk, and
/// backtracking out of dead ends is pure upside. Like BFS, the chain
/// is found before anything moves.
pub(crate) fn plan_bubble<G: EvictionGraph>(
    g: &G,
    key: &G::Key,
    rng: &mut SplitMix64,
    maxloop: u32,
    path: &mut Vec<usize>,
) -> bool {
    path.clear();
    let d = g.d();
    let l = g.l();
    let depth_limit = (maxloop as usize).max(2);
    let mut budget = maxloop;
    let cands = g.cands(key);
    let rot = rng.next_below(d as u64) as usize;
    for j in 0..d {
        let b = cands[(j + rot) % d];
        for s in 0..l {
            let slot = g.slot_of(b, s);
            if g.counter(slot) != 1 {
                continue;
            }
            path.push(slot);
            if bubble_dfs(g, slot, depth_limit - 1, &mut budget, rng, path) {
                return true;
            }
            path.pop();
        }
    }
    false
}

/// One bubbling step: can the occupant of `slot` settle, and if not,
/// which of its candidates do we evict next? Returns `true` with the
/// chain completed in `path`.
fn bubble_dfs<G: EvictionGraph>(
    g: &G,
    slot: usize,
    depth_left: usize,
    budget: &mut u32,
    rng: &mut SplitMix64,
    path: &mut Vec<usize>,
) -> bool {
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    let d = g.d();
    let l = g.l();
    let Some(occupant) = g.occupant(slot) else {
        return false;
    };
    let ocands = g.cands(&occupant);
    g.meter_onchip((d * l) as u64);
    if settleable(g, &ocands, slot) {
        return true;
    }
    if depth_left == 0 {
        return false;
    }
    let rot = rng.next_below(d as u64) as usize;
    for j in 0..d {
        let b = ocands[(j + rot) % d];
        if path.iter().any(|&p| bucket_of(g, p) == b) {
            continue;
        }
        for s in 0..l {
            let child = g.slot_of(b, s);
            if g.counter(child) != 1 {
                continue;
            }
            path.push(child);
            if bubble_dfs(g, child, depth_left - 1, budget, rng, path) {
                return true;
            }
            path.pop();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny in-memory eviction graph: `d` = 2, `l` configurable, keys
    /// are u64, candidate buckets are fixed per key by a lookup table.
    #[derive(Debug)]
    struct ToyGraph {
        d: usize,
        l: usize,
        counters: Vec<u8>,
        occupants: Vec<Option<u64>>,
        // key → candidate buckets
        cands: std::collections::HashMap<u64, [usize; MAX_D]>,
    }

    impl EvictionGraph for ToyGraph {
        type Key = u64;
        fn d(&self) -> usize {
            self.d
        }
        fn l(&self) -> usize {
            self.l
        }
        fn counter(&self, slot: usize) -> u8 {
            self.counters[slot]
        }
        fn cands(&self, key: &u64) -> [usize; MAX_D] {
            self.cands[key]
        }
        fn slot_of(&self, bucket: usize, slot: usize) -> usize {
            bucket * self.l + slot
        }
        fn occupant(&self, slot: usize) -> Option<u64> {
            self.occupants[slot]
        }
        fn meter_onchip(&self, _n: u64) {}
    }

    /// Buckets 0..4, l = 1. Key 100 hashes to {0, 1}, both full of sole
    /// copies; occupant of 0 (key 10) hashes to {0, 2}; occupant of 2
    /// (key 20) hashes to {2, 3}; bucket 3 is empty. The only chain is
    /// 0 → 2 (terminal occupant 20 settles into 3).
    fn chain_graph() -> ToyGraph {
        let mut cands = std::collections::HashMap::new();
        cands.insert(100u64, [0usize, 1, usize::MAX, usize::MAX]);
        cands.insert(10u64, [0usize, 2, usize::MAX, usize::MAX]);
        cands.insert(11u64, [1usize, 0, usize::MAX, usize::MAX]);
        cands.insert(20u64, [2usize, 3, usize::MAX, usize::MAX]);
        ToyGraph {
            d: 2,
            l: 1,
            counters: vec![1, 1, 1, 0],
            occupants: vec![Some(10), Some(11), Some(20), None],
            cands,
        }
    }

    #[test]
    fn bfs_finds_the_shortest_chain() {
        let g = chain_graph();
        let mut path = Vec::new();
        assert!(plan_bfs(&g, &100, 100, &mut path));
        // Shortest chain: evict 10 from slot 0; 10 settles… no — 10's
        // candidates are {0, 2}, both counter 1, so the chain must
        // continue to slot 2, whose occupant 20 settles into bucket 3.
        assert_eq!(path, vec![0, 2]);
    }

    #[test]
    fn bubble_finds_a_chain_within_depth() {
        let g = chain_graph();
        let mut rng = SplitMix64::new(7);
        let mut path = Vec::new();
        assert!(plan_bubble(&g, &100, &mut rng, 100, &mut path));
        assert_eq!(path, vec![0, 2], "only one viable chain exists");
    }

    #[test]
    fn random_walk_respects_the_hop_budget() {
        let g = chain_graph();
        let mut path = Vec::new();
        // One hop cannot complete the two-link chain: hop 1 lands on
        // bucket 0 or 1, neither of whose occupants can settle.
        let mut rng = SplitMix64::new(3);
        assert!(!plan_random_walk(&g, &100, &mut rng, 1, &mut path));
        // With budget, some seed finds a chain ending at slot 2 (whose
        // occupant is the only settleable item); depending on the first
        // draw the walk reaches it as [0, 2] or [1, 0, 2].
        let mut found = false;
        for seed in 0..16 {
            let mut rng = SplitMix64::new(seed);
            if plan_random_walk(&g, &100, &mut rng, 10, &mut path) {
                assert_eq!(path.last(), Some(&2));
                assert!(path == vec![0, 2] || path == vec![1, 0, 2]);
                found = true;
                break;
            }
        }
        assert!(found, "a short random walk must find the only chain");
    }

    #[test]
    fn failed_plans_report_false_without_panicking() {
        let mut g = chain_graph();
        g.counters[3] = 1; // close the only escape hatch
        g.occupants[3] = Some(21);
        g.cands.insert(21, [3usize, 2, usize::MAX, usize::MAX]);
        let mut path = Vec::new();
        let mut rng = SplitMix64::new(1);
        for kind in KickPolicyKind::ALL {
            assert!(
                !plan_kick(&g, kind, &100, &mut rng, 50, &mut path),
                "{kind:?} must fail on a saturated graph"
            );
        }
    }

    #[test]
    fn every_policy_accepts_a_redundant_copy_terminal() {
        let mut g = chain_graph();
        // Bucket 3 now holds a redundant copy (counter 2) instead of
        // being empty: the terminal occupant 20 settles by overwriting
        // it, so every policy still finds the chain 0 → 2.
        g.counters[3] = 2;
        g.occupants[3] = Some(21);
        g.cands.insert(21, [3usize, 1, usize::MAX, usize::MAX]);
        let mut path = Vec::new();
        for kind in KickPolicyKind::ALL {
            let mut found = false;
            for seed in 0..16 {
                let mut rng = SplitMix64::new(seed);
                if plan_kick(&g, kind, &100, &mut rng, 100, &mut path) {
                    assert_eq!(path.last(), Some(&2), "{kind:?}: wrong terminal");
                    found = true;
                    break;
                }
            }
            assert!(found, "{kind:?} must accept the overwrite terminal");
        }
    }

    /// Buckets 0..4, l = 1. Key 100 hashes to {0, 1}. Through bucket 0
    /// the walk traps: 10 → {0, 2}, 20 → {2, 0}, so after 0 → 2 every
    /// candidate of 20 is on the chain. Through bucket 1 the occupant
    /// 11 → {1, 3} settles into the empty bucket 3.
    fn trap_graph() -> ToyGraph {
        let mut cands = std::collections::HashMap::new();
        cands.insert(100u64, [0usize, 1, usize::MAX, usize::MAX]);
        cands.insert(10u64, [0usize, 2, usize::MAX, usize::MAX]);
        cands.insert(11u64, [1usize, 3, usize::MAX, usize::MAX]);
        cands.insert(20u64, [2usize, 0, usize::MAX, usize::MAX]);
        ToyGraph {
            d: 2,
            l: 1,
            counters: vec![1, 1, 1, 0],
            occupants: vec![Some(10), Some(11), Some(20), None],
            cands,
        }
    }

    #[test]
    fn random_walk_restarts_after_trapping_itself() {
        let g = trap_graph();
        let mut path = Vec::new();
        let mut trapped = 0;
        for seed in 0..16 {
            // The first draw picks among the key's two candidates; a 0
            // sends the walk into the trap.
            if SplitMix64::new(seed).next_below(2) == 0 {
                trapped += 1;
            }
            let mut rng = SplitMix64::new(seed);
            assert!(
                plan_random_walk(&g, &100, &mut rng, 50, &mut path),
                "seed {seed}: a chain exists, the walk must find it"
            );
            assert_eq!(path, vec![1], "seed {seed}");
        }
        assert!(trapped > 0, "no seed exercised the trap");
    }
}
