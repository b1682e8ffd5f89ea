//! Per-community path statistics — step 0 of the method.
//!
//! §5.1: *"We calculated the on-path:off-path ratio of a community by
//! counting the number of unique AS paths the community appeared on-path
//! and off-path, respectively."* The on-path test includes siblings (§5.2:
//! "the ASN (or a sibling thereof)").
//!
//! The reduction runs over a columnar [`ObservationStore`]: paths,
//! community sets, and individual communities are dense `u32` IDs, tuple
//! dedup is a sort over packed `u64` keys, per-community accumulation
//! indexes a flat slot array (a per-slot last-path marker dedups pairs in
//! path-major order, so there is no second sort and no hashing in the
//! loop), sibling orgs are dense org-IDs precomputed per unique path, and
//! the on-path test is a binary search in a sorted interned slice.
//! The parallel variant shards by interned path ID — every occurrence of
//! a path carries the same ID, so each unique path lands in exactly one
//! shard and per-shard counts merge by summation, bit-identical to the
//! sequential reduction at any thread count. The `Observation`-slice
//! entry points survive as thin wrappers that build a store first, and the
//! checkpoint accumulator runs the same kernel over its unique tuples.

use bgp_relationships::SiblingMap;
use bgp_types::fx::{FxHashMap, FxHashSet};
use bgp_types::par::{effective_threads, par_map_indexed};
use bgp_types::store::{Interner, ObservationStore};
use bgp_types::{Asn, Community, Observation};

/// Unique-path counts for one community.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCounts {
    /// Unique AS paths containing the owner (or a sibling).
    pub on: u32,
    /// Unique AS paths not containing the owner or any sibling.
    pub off: u32,
}

impl PathCounts {
    /// The per-community on:off ratio used inside mixed clusters.
    ///
    /// `off == 0` has no finite ratio; the on-count itself is used as a
    /// conservative proxy (equivalent to assuming one unseen off-path
    /// sighting), which keeps never-off-path communities strongly on the
    /// informational side without infinities.
    pub fn ratio(&self) -> f64 {
        if self.off == 0 {
            self.on as f64
        } else {
            self.on as f64 / self.off as f64
        }
    }
}

/// Aggregated path statistics over a set of observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathStats {
    /// Per-community unique-path counts.
    pub per_community: FxHashMap<Community, PathCounts>,
    /// Every ASN appearing in any unique AS path (for the never-on-path
    /// exclusion rule).
    pub seen_asns: FxHashSet<Asn>,
    /// Number of unique `(AS path, communities)` tuples (the §4 unit:
    /// "≈174M tuples" in the paper).
    pub unique_tuples: usize,
    /// Number of unique AS paths.
    pub unique_paths: usize,
}

/// The owner of one community slot, resolved once before the reduction to
/// its full sibling family: either the bare ASN value (owners the sibling
/// map doesn't know, or sole members of their org — `expand(α) = [α]`) or
/// a `family_pool` range holding every sibling's ASN value. The on-path
/// test is then a binary search of each family member in the path's sorted
/// unique-member slice — the reference reduction's
/// `expand(α).iter().any(|a| members.contains(a))` verbatim, minus the
/// hashing. Resolution happens per community *slot* (hundreds), never per
/// path or per tuple.
#[derive(Clone, Copy)]
enum SlotOwner {
    Plain(u32),
    Family { lo: u32, hi: u32 },
}

/// Precomputed on-path test over one interner: per-community-slot owner
/// family resolution. Built once, then every `(community slot, path ID)`
/// test is a handful of binary searches over dense values — no hashing,
/// no sibling-family walk. Shared with the artifact consistency check.
pub(crate) struct OnPathIndex {
    resolved: Vec<SlotOwner>,
    /// ASN values of multi-member owner families, ranged by `SlotOwner::Family`.
    family_pool: Vec<u32>,
}

impl OnPathIndex {
    pub(crate) fn build(interner: &Interner, siblings: &SiblingMap) -> Self {
        let mut family_pool = Vec::new();
        let resolved = (0..interner.community_count() as u32)
            .map(|slot| {
                let owner = Asn::new(interner.community(slot).asn as u32);
                let family = siblings.expand_ref(&owner);
                if family.len() <= 1 {
                    SlotOwner::Plain(owner.value())
                } else {
                    let lo = family_pool.len() as u32;
                    family_pool.extend(family.iter().map(|a| a.value()));
                    SlotOwner::Family {
                        lo,
                        hi: family_pool.len() as u32,
                    }
                }
            })
            .collect();
        OnPathIndex {
            resolved,
            family_pool,
        }
    }

    /// Whether the owner of community slot `slot` (or one of its siblings)
    /// appears on path `path_id`.
    pub(crate) fn on_path(&self, interner: &Interner, path_id: u32, slot: u32) -> bool {
        let members = interner.path_members(path_id);
        match self.resolved[slot as usize] {
            SlotOwner::Plain(asn) => members.binary_search(&asn).is_ok(),
            SlotOwner::Family { lo, hi } => self.family_pool[lo as usize..hi as usize]
                .iter()
                .any(|asn| members.binary_search(asn).is_ok()),
        }
    }
}

/// One shard of the reduction: all tuples whose interned path ID is
/// `shard` modulo `shard_count` (`shard_count == 1` is the full input).
///
/// Exact under merging-by-sum because sharding by path ID partitions
/// *unique paths*: every occurrence of a path carries the same dense ID,
/// so a community's unique on/off paths in this shard are disjoint from
/// every other shard's.
fn shard_stats(
    interner: &Interner,
    index: &OnPathIndex,
    tuples: impl Iterator<Item = (u32, u32)>,
    shard: u32,
    shard_count: u32,
) -> (Vec<PathCounts>, usize, usize) {
    // Dedup tuples: pack (path ID, cset ID) into one u64 and sort. The
    // sort is path-major, so unique paths fall out as key runs.
    let mut tuples: Vec<u64> = tuples
        .filter(|&(p, _)| shard_count == 1 || p % shard_count == shard)
        .map(|(p, c)| (u64::from(p) << 32) | u64::from(c))
        .collect();
    tuples.sort_unstable();
    tuples.dedup();
    let unique_tuples = tuples.len();

    // Count unique (community, path) pairs straight off the sorted run:
    // within one path's run of csets a community's slot can repeat, and
    // the `last_path` marker collapses those repeats; once the run moves
    // to the next path the old path never comes back (path-major order),
    // so one marker word per slot is a full dedup — no pair sort at all.
    // One on-path test (a binary search over a handful of entries) per
    // surviving pair.
    let slot_count = index.resolved.len();
    let mut counts = vec![PathCounts::default(); slot_count];
    let mut last_path = vec![u64::MAX; slot_count];
    let mut unique_paths = 0usize;
    let mut prev_path = u64::MAX;
    for &key in &tuples {
        let path = key >> 32;
        if path != prev_path {
            unique_paths += 1;
            prev_path = path;
        }
        let pid = path as u32;
        for &slot in interner.cset_slots(key as u32) {
            let s = slot as usize;
            if last_path[s] == path {
                continue;
            }
            last_path[s] = path;
            if index.on_path(interner, pid, slot) {
                counts[s].on += 1;
            } else {
                counts[s].off += 1;
            }
        }
    }

    (counts, unique_tuples, unique_paths)
}

impl PathStats {
    /// Reduce a columnar store to statistics, sequentially.
    pub fn from_store(store: &ObservationStore, siblings: &SiblingMap) -> Self {
        Self::from_store_threaded(store, siblings, 1)
    }

    /// [`PathStats::from_store`] across worker threads (`0` = one per
    /// CPU). The input is sharded by interned path ID — no rehashing of
    /// full paths — and each shard reduced independently; partial counts
    /// merge by summation. Bit-identical to the sequential reduction at
    /// any thread count.
    pub fn from_store_threaded(
        store: &ObservationStore,
        siblings: &SiblingMap,
        threads: usize,
    ) -> Self {
        Self::from_tuples(store.interner(), || store.tuples(), siblings, threads)
    }

    /// The one reduction behind every statistics path: the `(path ID,
    /// cset ID)` tuples that `tuples` yields (duplicates allowed), over
    /// the paths and community sets of `interner`, with the on-path test
    /// under `siblings`. [`from_store`](Self::from_store) feeds it a
    /// store's per-observation tuples; the checkpoint accumulator feeds it
    /// its unique tuples. Every interned path must occur in some tuple
    /// (`seen_asns` is read off the interned paths).
    pub(crate) fn from_tuples<I>(
        interner: &Interner,
        tuples: impl Fn() -> I + Sync,
        siblings: &SiblingMap,
        threads: usize,
    ) -> Self
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let threads = effective_threads(threads);
        let index = OnPathIndex::build(interner, siblings);
        let shard_count = if threads <= 1 || interner.path_count() < 2 {
            1
        } else {
            threads as u32
        };
        let parts: Vec<_> = if shard_count == 1 {
            vec![shard_stats(interner, &index, tuples(), 0, 1)]
        } else {
            par_map_indexed(shard_count as usize, threads, |i| {
                shard_stats(interner, &index, tuples(), i as u32, shard_count)
            })
        };

        let mut stats = PathStats::default();
        // Shards partition communities *per path*, not communities: the
        // same slot can collect counts in several shards, so sum, then
        // materialize only slots that occurred in at least one tuple.
        let mut totals = vec![PathCounts::default(); index.resolved.len()];
        for (counts, unique_tuples, unique_paths) in parts {
            for (total, part) in totals.iter_mut().zip(&counts) {
                total.on += part.on;
                total.off += part.off;
            }
            stats.unique_tuples += unique_tuples;
            stats.unique_paths += unique_paths;
        }
        for (slot, &counts) in totals.iter().enumerate() {
            if counts.on + counts.off > 0 {
                stats
                    .per_community
                    .insert(interner.community(slot as u32), counts);
            }
        }
        // Every interned path occurs in some tuple, so the union of
        // interned member slices is exactly the old per-observation scan.
        // Sort-dedup the flat member pool first: hashing only the distinct
        // survivors is far cheaper than hashing every entry.
        let mut vals: Vec<u32> = interner.member_values().to_vec();
        vals.sort_unstable();
        vals.dedup();
        stats.seen_asns.reserve(vals.len());
        stats.seen_asns.extend(vals.iter().map(|&a| Asn::new(a)));
        stats
    }

    /// Reduce observations to statistics. Duplicate `(path, communities)`
    /// tuples collapse; a community's on/off counts are over unique paths.
    ///
    /// Thin wrapper: interns into an [`ObservationStore`] and runs the
    /// columnar kernel.
    pub fn from_observations(observations: &[Observation], siblings: &SiblingMap) -> Self {
        let store = ObservationStore::from_observations(observations);
        Self::from_store(&store, siblings)
    }

    /// [`PathStats::from_observations`] across worker threads (`0` = one
    /// per CPU). Thin wrapper over [`from_store_threaded`](Self::from_store_threaded).
    pub fn from_observations_threaded(
        observations: &[Observation],
        siblings: &SiblingMap,
        threads: usize,
    ) -> Self {
        let store = ObservationStore::from_observations(observations);
        Self::from_store_threaded(&store, siblings, threads)
    }

    /// Observed communities grouped by owner ASN, each group's `β` values
    /// sorted ascending. Deterministic order (by ASN).
    pub fn by_owner(&self) -> Vec<(u16, Vec<u16>)> {
        let mut map: FxHashMap<u16, Vec<u16>> = FxHashMap::default();
        for c in self.per_community.keys() {
            map.entry(c.asn).or_default().push(c.value);
        }
        let mut out: Vec<(u16, Vec<u16>)> = map.into_iter().collect();
        for (_, betas) in &mut out {
            betas.sort_unstable();
            betas.dedup();
        }
        out.sort_unstable_by_key(|(asn, _)| *asn);
        out
    }

    /// Total distinct communities observed.
    pub fn community_count(&self) -> usize {
        self.per_community.len()
    }

    /// The counts for one community, if observed.
    pub fn counts(&self, c: Community) -> Option<PathCounts> {
        self.per_community.get(&c).copied()
    }
}

/// The original hash-set reduction, retained verbatim as the reference
/// oracle for the columnar kernel (see `crates/core/tests/proptests.rs`).
/// Not part of the public API surface proper — test/diagnostic use only.
#[doc(hidden)]
pub fn reference_stats(observations: &[Observation], siblings: &SiblingMap) -> PathStats {
    use bgp_types::AsPath;
    use std::collections::hash_map::Entry;

    let mut path_ids: FxHashMap<&AsPath, u32> = FxHashMap::default();
    let mut tuples: FxHashSet<(u32, &[Community])> = FxHashSet::default();
    for obs in observations {
        let next = path_ids.len() as u32;
        let id = match path_ids.entry(&obs.path) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => *v.insert(next),
        };
        tuples.insert((id, obs.communities.as_slice()));
    }

    let mut members: Vec<FxHashSet<Asn>> = vec![FxHashSet::default(); path_ids.len()];
    let mut seen_asns = FxHashSet::default();
    for (path, &id) in &path_ids {
        let set: FxHashSet<Asn> = path.iter().collect();
        seen_asns.extend(set.iter().copied());
        members[id as usize] = set;
    }

    let mut on_paths: FxHashMap<Community, FxHashSet<u32>> = FxHashMap::default();
    let mut off_paths: FxHashMap<Community, FxHashSet<u32>> = FxHashMap::default();
    for &(path_id, communities) in &tuples {
        for &c in communities {
            let owner = Asn::new(c.asn as u32);
            let family = siblings.expand(owner);
            let on = family.iter().any(|a| members[path_id as usize].contains(a));
            if on {
                on_paths.entry(c).or_default().insert(path_id);
            } else {
                off_paths.entry(c).or_default().insert(path_id);
            }
        }
    }

    let mut per_community: FxHashMap<Community, PathCounts> = FxHashMap::default();
    for (c, set) in on_paths {
        per_community.entry(c).or_default().on = set.len() as u32;
    }
    for (c, set) in off_paths {
        per_community.entry(c).or_default().off = set.len() as u32;
    }

    PathStats {
        per_community,
        seen_asns,
        unique_tuples: tuples.len(),
        unique_paths: path_ids.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(vp: u32, path: &str, comms: &[(u16, u16)]) -> Observation {
        Observation {
            vp: Asn::new(vp),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: path.parse().unwrap(),
            communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
            large_communities: Vec::new(),
            time: 0,
        }
    }

    #[test]
    fn fig5_counting() {
        // The three collector paths of Fig 5. Community 1299:2569 rides
        // routes via 65432 (off-path) and via 7018|1299 (on-path);
        // 1299:35130 is always on-path.
        let observations = vec![
            obs(65541, "65541 3356 1299 64496", &[(1299, 35130)]),
            obs(65432, "65432 64496", &[(1299, 2569)]),
            obs(
                65269,
                "65269 7018 1299 64496",
                &[(1299, 2569), (1299, 35130)],
            ),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        let action = stats.counts(Community::new(1299, 2569)).unwrap();
        assert_eq!((action.on, action.off), (1, 1));
        let info = stats.counts(Community::new(1299, 35130)).unwrap();
        assert_eq!((info.on, info.off), (2, 0));
        assert_eq!(stats.unique_paths, 3);
        assert_eq!(stats.unique_tuples, 3);
        assert!(stats.seen_asns.contains(&Asn::new(1299)));
        assert!(!stats.seen_asns.contains(&Asn::new(9999)));
    }

    #[test]
    fn duplicate_tuples_collapse() {
        let observations = vec![
            obs(65541, "65541 1299 64496", &[(1299, 1)]),
            obs(65541, "65541 1299 64496", &[(1299, 1)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        let counts = stats.counts(Community::new(1299, 1)).unwrap();
        assert_eq!((counts.on, counts.off), (1, 0));
        assert_eq!(stats.unique_tuples, 1);
    }

    #[test]
    fn same_path_different_communities_counts_path_once() {
        let observations = vec![
            obs(65541, "65541 1299 64496", &[(1299, 1)]),
            obs(65541, "65541 1299 64496", &[(1299, 1), (1299, 2)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        // Two distinct tuples, one unique path; 1299:1 on one unique path.
        assert_eq!(stats.unique_tuples, 2);
        assert_eq!(stats.unique_paths, 1);
        assert_eq!(stats.counts(Community::new(1299, 1)).unwrap().on, 1);
    }

    #[test]
    fn sibling_expansion_marks_on_path() {
        // 64500 is a sibling of 1299: a path containing 64500 counts as
        // on-path for 1299's communities.
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64500)]]);
        let observations = vec![obs(65541, "65541 64500 64496", &[(1299, 7)])];
        let with = PathStats::from_observations(&observations, &siblings);
        assert_eq!(with.counts(Community::new(1299, 7)).unwrap().on, 1);
        let without = PathStats::from_observations(&observations, &SiblingMap::default());
        assert_eq!(without.counts(Community::new(1299, 7)).unwrap().off, 1);
    }

    #[test]
    fn known_org_owner_off_its_own_paths_counts_off() {
        // An owner with a known org must still count off-path on paths
        // carrying *other* orgs only (exercises the org-ID branch both
        // ways).
        let siblings = SiblingMap::from_orgs(vec![
            vec![Asn::new(1299), Asn::new(64500)],
            vec![Asn::new(3356)],
        ]);
        let observations = vec![
            obs(1, "1 3356 64496", &[(1299, 7)]),
            obs(1, "1 64500 64496", &[(1299, 7)]),
        ];
        let stats = PathStats::from_observations(&observations, &siblings);
        let c = stats.counts(Community::new(1299, 7)).unwrap();
        assert_eq!((c.on, c.off), (1, 1));
    }

    #[test]
    fn ratio_semantics() {
        assert_eq!(PathCounts { on: 320, off: 2 }.ratio(), 160.0);
        assert_eq!(PathCounts { on: 57, off: 0 }.ratio(), 57.0);
        assert_eq!(PathCounts { on: 0, off: 9 }.ratio(), 0.0);
    }

    #[test]
    fn by_owner_groups_and_sorts() {
        let observations = vec![
            obs(1, "1 2 3", &[(200, 9), (100, 5), (100, 1)]),
            obs(1, "1 2 4", &[(100, 5)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        let grouped = stats.by_owner();
        assert_eq!(grouped, vec![(100, vec![1, 5]), (200, vec![9])]);
    }

    #[test]
    fn duplicate_paths_do_not_burn_interned_ids() {
        // Regression: interleaved duplicates of the same path must reuse
        // the first ID so IDs stay dense in 0..unique_paths (the members
        // table is indexed by ID; a burned ID would leave a hole or panic).
        let observations = vec![
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(1, "1 1299 64496", &[(1299, 2)]),
            obs(2, "2 64496", &[(1299, 3)]),
            obs(1, "1 1299 64496", &[(1299, 4)]),
            obs(2, "2 64496", &[(1299, 3)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        assert_eq!(stats.unique_paths, 2);
        assert_eq!(stats.unique_tuples, 4);
        // Each community rides exactly one unique path.
        for beta in 1..=4 {
            let c = stats.counts(Community::new(1299, beta)).unwrap();
            assert_eq!(c.on + c.off, 1, "1299:{beta} should sit on one path");
        }
    }

    #[test]
    fn threaded_stats_match_sequential_at_any_thread_count() {
        // A mixed workload: duplicates, shared paths, multiple owners.
        let mut observations = Vec::new();
        for i in 0..40u32 {
            observations.push(obs(
                65000 + (i % 5),
                &format!("{} 1299 {}", 65000 + (i % 5), 64496 + (i % 7)),
                &[(1299, (i % 11) as u16), (3356, (i % 3) as u16)],
            ));
            observations.push(obs(
                65100 + (i % 3),
                &format!("{} 64496", 65100 + (i % 3)),
                &[(1299, (i % 11) as u16)],
            ));
        }
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64500)]]);
        let sequential = PathStats::from_observations(&observations, &siblings);
        for threads in [1, 2, 3, 8] {
            let parallel = PathStats::from_observations_threaded(&observations, &siblings, threads);
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn kernel_matches_reference_reduction() {
        let mut observations = Vec::new();
        for i in 0..60u32 {
            observations.push(obs(
                65000 + (i % 4),
                &format!("{} 3356 1299 {}", 65000 + (i % 4), 64496 + (i % 9)),
                &[(1299, (i % 13) as u16), (65000, (i % 2) as u16)],
            ));
        }
        // Prepending + an AS_SET path for good measure.
        observations.push(obs(7, "7 1299 1299 64496", &[(1299, 3)]));
        observations.push(obs(7, "7 {1299,3356} 64496", &[(1299, 3)]));
        let siblings = SiblingMap::from_orgs(vec![
            vec![Asn::new(1299), Asn::new(64500)],
            vec![Asn::new(65000), Asn::new(65001)],
        ]);
        assert_eq!(
            PathStats::from_observations(&observations, &siblings),
            reference_stats(&observations, &siblings)
        );
    }

    #[test]
    fn prepending_does_not_double_count() {
        let observations = vec![
            obs(1, "1 1299 1299 1299 64496", &[(1299, 5)]),
            obs(1, "1 1299 64496", &[(1299, 5)]),
        ];
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        // Two distinct paths (prepending makes them different strings).
        assert_eq!(stats.counts(Community::new(1299, 5)).unwrap().on, 2);
    }
}
