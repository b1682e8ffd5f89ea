//! Columnar, fully interned observation storage.
//!
//! The reduction at the heart of the method (§4–5.1: ≈174M `(AS path,
//! communities)` tuples folded into per-community on/off unique-path
//! counts) is memory-bound long before it is compute-bound. Storing each
//! observation as an owned [`Observation`] builds a small heap graph per
//! record — an `AsPath` with per-segment `Vec`s plus a `Vec<Community>` —
//! even though the distinct paths and community sets number in the
//! thousands while observations number in the millions.
//!
//! [`ObservationStore`] inverts that layout. AS paths and community *sets*
//! are interned **once**, at ingestion, into dense `u32` IDs by an exact
//! [`Interner`]; per-path derived data (sorted unique ASN members) is
//! computed once per unique path; and the observations themselves become
//! parallel flat columns of IDs and scalars. Interned paths are themselves
//! flat: per-path segment descriptors and ASN values live in shared pools,
//! borrowed back out as [`AsPathView`]s, so interning from a decoder's
//! borrowed [`ObservationView`] never touches the heap on the duplicate
//! (hot) path — see [`ObservationSink::push_observation_view`]. The stats
//! kernel then runs entirely over dense integers: tuple dedup is a sort
//! over packed `u64` keys, the on-path test is a binary search in a sorted
//! member slice, and sharding by path ID partitions unique paths exactly
//! (every occurrence of a path carries the same ID), so parallel partial
//! counts merge by summation with no rehashing.
//!
//! The same [`Interner`] backs the checkpoint accumulator
//! (`bgp_intent::checkpoint::StatsAccumulator`), which keeps unique
//! `(path, cset)` ID tuples instead of per-observation columns.
//!
//! One invariant matters for correctness elsewhere: **community-set
//! identity is the exact ordered list.** Tuple dedup is order- and
//! duplicate-sensitive (`(path, [a, b])` ≠ `(path, [b, a])`), so the
//! interner keys on the literal `Vec<Community>`, not a sorted set.

use crate::fx::{fx_hash_one, FxHashMap};
use crate::observation::Observation;
use crate::{AsPath, AsPathView, Asn, Community, LargeCommunity, Prefix};

/// One decoded route sighting borrowed from a decoder's buffers: the
/// zero-copy counterpart of [`Observation`]. The path and attribute
/// slices typically point into a per-file scratch arena (wire values need
/// byte-order conversion, so they cannot alias the raw read buffer) and
/// are valid only until the decoder reuses it — sinks must intern or copy
/// before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservationView<'a> {
    /// The vantage point (collector peer) that exported the route.
    pub vp: Asn,
    /// The observed prefix.
    pub prefix: Prefix,
    /// The AS path as recorded, borrowed as flat slices.
    pub path: AsPathView<'a>,
    /// Regular communities on the route.
    pub communities: &'a [Community],
    /// Large communities (RFC 8092) on the route.
    pub large_communities: &'a [LargeCommunity],
    /// Unix seconds when the route was (last) observed.
    pub time: u32,
}

impl ObservationView<'_> {
    /// Materialize an owned [`Observation`] (the default-sink escape path).
    pub fn to_observation(&self) -> Observation {
        Observation {
            vp: self.vp,
            prefix: self.prefix,
            path: self.path.to_path(),
            communities: self.communities.to_vec(),
            large_communities: self.large_communities.to_vec(),
            time: self.time,
        }
    }
}

/// Anything observations can be folded into as they are decoded.
///
/// MRT ingestion is generic over this sink so the same decode path can
/// materialize a `Vec<Observation>` (the historical API, still the unit
/// for per-file reports and checkpoint fingerprints) or fold directly
/// into an [`ObservationStore`] without ever building the intermediate
/// vector.
pub trait ObservationSink {
    /// Fold one decoded observation into the sink.
    fn push_observation(&mut self, obs: Observation);
    /// Number of observations folded so far.
    fn observation_count(&self) -> usize;
    /// Fold one *borrowed* observation into the sink — the zero-copy entry
    /// point used by the view decoder. The default materializes an owned
    /// [`Observation`] and delegates, so every sink accepts views;
    /// [`ObservationStore`] overrides it to intern straight from the
    /// borrowed slices with no per-record allocation.
    fn push_observation_view(&mut self, view: &ObservationView<'_>) {
        self.push_observation(view.to_observation());
    }
}

impl ObservationSink for Vec<Observation> {
    fn push_observation(&mut self, obs: Observation) {
        self.push(obs);
    }
    fn observation_count(&self) -> usize {
        self.len()
    }
}

impl ObservationSink for ObservationStore {
    fn push_observation(&mut self, obs: Observation) {
        self.push_owned(obs);
    }
    fn observation_count(&self) -> usize {
        self.len()
    }
    fn push_observation_view(&mut self, view: &ObservationView<'_>) {
        self.push_view(view);
    }
}

/// Sentinel marking an empty [`FpMap`] slot. Dense IDs can never reach it:
/// that many unique elements would exhaust memory long before.
const FP_EMPTY: u32 = u32::MAX;

/// A minimal open-addressing map from precomputed 64-bit fingerprints to
/// dense IDs — the store's hottest structure, probed twice per
/// observation. The fingerprint is already a mixed hash, so a slot index
/// is just its low bits and a probe is one or two cache lines of linear
/// scan; no re-hashing, no metadata bytes. Keys are unique by
/// construction (fingerprint collisions between distinct values go to the
/// exact-keyed `*_dups` overflow maps and never insert here twice).
#[derive(Debug, Clone, Default)]
struct FpMap {
    /// `(fingerprint, id)` pairs; capacity is a power of two, `FP_EMPTY`
    /// ids mark free slots. Load factor stays ≤ 3/4.
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl FpMap {
    #[inline]
    fn get(&self, fp: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        loop {
            let (slot_fp, id) = self.slots[i];
            if id == FP_EMPTY {
                return None;
            }
            if slot_fp == fp {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Insert a fingerprint known to be absent.
    #[inline]
    fn insert(&mut self, fp: u64, id: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        while self.slots[i].1 != FP_EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = (fp, id);
        self.len += 1;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![(0, FP_EMPTY); cap]);
        let mask = cap - 1;
        for (fp, id) in old {
            if id != FP_EMPTY {
                let mut i = fp as usize & mask;
                while self.slots[i].1 != FP_EMPTY {
                    i = (i + 1) & mask;
                }
                self.slots[i] = (fp, id);
            }
        }
    }
}

/// Exact interner for AS paths, community sets and individual communities:
/// every distinct value gets a dense `u32` ID, in first-seen order.
///
/// Identity is exact. The hot probe is keyed by a 64-bit fingerprint, but
/// a fingerprint hit is confirmed against the stored value, and distinct
/// values that share a fingerprint go to exact-keyed overflow maps. The
/// fingerprint is an internal probe key only; nothing outside the
/// interner sees it.
///
/// [`ObservationStore`] is this interner plus per-observation columns;
/// the checkpoint accumulator is this interner plus a unique-tuple column.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    // ---- interned AS paths (ID space: 0..path_count) ----
    /// Fingerprint → path ID. Keying the hot probe by the precomputed
    /// `u64` (instead of the full `AsPath`) makes the per-observation
    /// probe a single-word scan; `path_dups` catches fingerprint
    /// collisions exactly.
    path_ids: FpMap,
    path_dups: FxHashMap<AsPath, u32>,
    /// Per path ID, the probe fingerprint, so [`remap`](Self::remap)
    /// re-interns without rehashing.
    path_fingerprints: Vec<u64>,
    /// `path_seg_offsets[id]..path_seg_offsets[id+1]` indexes `path_segs`.
    path_seg_offsets: Vec<u32>,
    /// Per-segment `(tag, ASN count)` pairs of each interned path
    /// (`SEG_SET`/`SEG_SEQUENCE` tags — the flat wire shape).
    path_segs: Vec<(u8, u32)>,
    /// `path_asn_offsets[id]..path_asn_offsets[id+1]` indexes `path_asns`.
    path_asn_offsets: Vec<u32>,
    /// Every ASN of each interned path in path order (prepends and set
    /// members inline) — the [`AsPathView`] backing pool.
    path_asns: Vec<u32>,
    /// `member_offsets[id]..member_offsets[id+1]` indexes `members`.
    member_offsets: Vec<u32>,
    /// Sorted, deduped ASN values of each path (prepends collapse here).
    members: Vec<u32>,

    // ---- interned community sets (ID space: 0..cset_count) ----
    /// Fingerprint → community-set ID, with the same exact collision
    /// fallback as `path_ids`/`path_dups`.
    cset_ids: FpMap,
    cset_dups: FxHashMap<Vec<Community>, u32>,
    /// `cset_offsets[id]..cset_offsets[id+1]` indexes `cset_pool`.
    cset_offsets: Vec<u32>,
    /// Exact ordered community lists (order and duplicates preserved —
    /// tuple identity is order-sensitive).
    cset_pool: Vec<Community>,
    /// Dense community-slot ID per `cset_pool` entry (parallel array), so
    /// the stats kernel indexes per-community state with no hashing.
    cset_slot_pool: Vec<u32>,

    // ---- interned individual communities (slot space: 0..community_count) ----
    community_ids: FxHashMap<u32, u32>,
    communities: Vec<Community>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The ID of a borrowed path, interning it on first sight.
    pub fn intern_path(&mut self, view: &AsPathView<'_>) -> u32 {
        self.intern_path_view(view, view.fingerprint())
    }

    /// The ID of an owned path, interning it on first sight. No heap
    /// traffic when the path is already interned: the owned path hashes
    /// exactly as its flat view does, and is compared in place.
    pub fn intern_owned_path(&mut self, path: &AsPath) -> u32 {
        let fp = fx_hash_one(path);
        match self.path_ids.get(fp) {
            Some(id) if self.path_view(id).matches(path) => id,
            _ => {
                let (mut segs, mut asns) = (Vec::new(), Vec::new());
                self.intern_path_view(&AsPathView::of(path, &mut segs, &mut asns), fp)
            }
        }
    }

    /// Intern a borrowed path with its precomputed fingerprint. The hot
    /// (already-interned) outcome is a probe plus two slice compares.
    /// Fingerprint collisions between distinct paths fall back to the
    /// exact-keyed `path_dups` overflow map (materializing the path once).
    fn intern_path_view(&mut self, view: &AsPathView<'_>, fp: u64) -> u32 {
        if let Some(id) = self.path_ids.get(fp) {
            if self.path_view(id) == *view {
                return id;
            }
            let owned = view.to_path();
            if let Some(&id) = self.path_dups.get(&owned) {
                return id;
            }
            let id = self.push_unique_path_view(view, fp);
            self.path_dups.insert(owned, id);
            return id;
        }
        let id = self.push_unique_path_view(view, fp);
        self.path_ids.insert(fp, id);
        id
    }

    /// Append a path known to be new, deriving its sorted member slice in
    /// place (no scratch allocation) and closing the offset rows.
    fn push_unique_path_view(&mut self, view: &AsPathView<'_>, fp: u64) -> u32 {
        if self.member_offsets.is_empty() {
            self.member_offsets.push(0);
            self.path_seg_offsets.push(0);
            self.path_asn_offsets.push(0);
        }
        let id = self.path_fingerprints.len() as u32;
        self.path_segs.extend_from_slice(view.segs);
        self.path_asns.extend_from_slice(view.asns);
        let member_start = self.members.len();
        self.members.extend_from_slice(view.asns);
        let tail = &mut self.members[member_start..];
        tail.sort_unstable();
        if !tail.is_empty() {
            let mut w = 0;
            for r in 1..tail.len() {
                if tail[r] != tail[w] {
                    w += 1;
                    tail[w] = tail[r];
                }
            }
            self.members.truncate(member_start + w + 1);
        }
        self.member_offsets.push(self.members.len() as u32);
        self.path_seg_offsets.push(self.path_segs.len() as u32);
        self.path_asn_offsets.push(self.path_asns.len() as u32);
        self.path_fingerprints.push(fp);
        id
    }

    /// The ID of an exact ordered community list, interning it on first
    /// sight.
    pub fn intern_cset(&mut self, communities: &[Community]) -> u32 {
        let fp = fx_hash_one(communities);
        if let Some(id) = self.cset_ids.get(fp) {
            if self.cset(id) == communities {
                return id;
            }
            if let Some(&id) = self.cset_dups.get(communities) {
                return id;
            }
            let id = self.push_unique_cset(communities);
            self.cset_dups.insert(communities.to_vec(), id);
            return id;
        }
        let id = self.push_unique_cset(communities);
        self.cset_ids.insert(fp, id);
        id
    }

    fn push_unique_cset(&mut self, communities: &[Community]) -> u32 {
        if self.cset_offsets.is_empty() {
            self.cset_offsets.push(0);
        }
        let id = self.cset_offsets.len() as u32 - 1;
        self.cset_pool.extend_from_slice(communities);
        for &c in communities {
            let next = self.communities.len() as u32;
            let slot = *self.community_ids.entry(c.to_u32()).or_insert(next);
            if slot == next {
                self.communities.push(c);
            }
            self.cset_slot_pool.push(slot);
        }
        self.cset_offsets.push(self.cset_pool.len() as u32);
        id
    }

    /// Re-intern every path and community set of `other`, in `other`'s ID
    /// order (one probe per *unique* element, reusing its fingerprints),
    /// and return the ID maps `other` path ID → own path ID and `other`
    /// cset ID → own cset ID.
    pub fn remap(&mut self, other: &Interner) -> (Vec<u32>, Vec<u32>) {
        let paths = (0..other.path_count() as u32)
            .map(|id| {
                self.intern_path_view(&other.path_view(id), other.path_fingerprints[id as usize])
            })
            .collect();
        let csets = (0..other.cset_count() as u32)
            .map(|id| self.intern_cset(other.cset(id)))
            .collect();
        (paths, csets)
    }

    /// Number of distinct AS paths interned.
    pub fn path_count(&self) -> usize {
        self.path_fingerprints.len()
    }

    /// Number of distinct community sets interned.
    pub fn cset_count(&self) -> usize {
        self.cset_offsets.len().saturating_sub(1)
    }

    /// Number of distinct individual communities interned (slot space).
    pub fn community_count(&self) -> usize {
        self.communities.len()
    }

    /// Paths that fell back to the exact-key interner map because another
    /// path shared their 64-bit fingerprint. Astronomically rare in
    /// practice; a nonzero value is worth surfacing in telemetry because
    /// every fallback entry clones its key.
    pub fn path_collision_count(&self) -> usize {
        self.path_dups.len()
    }

    /// Community sets interned through the exact-key collision fallback —
    /// the `cset` analogue of [`Interner::path_collision_count`].
    pub fn cset_collision_count(&self) -> usize {
        self.cset_dups.len()
    }

    /// The community behind a dense slot ID.
    pub fn community(&self, slot: u32) -> Community {
        self.communities[slot as usize]
    }

    /// Dense community-slot IDs of a community-set ID, parallel to
    /// [`cset`](Self::cset) (order and duplicates preserved).
    pub fn cset_slots(&self, id: u32) -> &[u32] {
        let lo = self.cset_offsets[id as usize] as usize;
        let hi = self.cset_offsets[id as usize + 1] as usize;
        &self.cset_slot_pool[lo..hi]
    }

    /// The interned path for a path ID, borrowed from the flat pools.
    pub fn path_view(&self, id: u32) -> AsPathView<'_> {
        let i = id as usize;
        let seg_lo = self.path_seg_offsets[i] as usize;
        let seg_hi = self.path_seg_offsets[i + 1] as usize;
        AsPathView {
            segs: &self.path_segs[seg_lo..seg_hi],
            asns: self.path_hops(id),
        }
    }

    /// Every ASN of the interned path in path order, duplicates (prepends)
    /// and set members inline — the flat form of `path.iter()`.
    pub fn path_hops(&self, id: u32) -> &[u32] {
        let lo = self.path_asn_offsets[id as usize] as usize;
        let hi = self.path_asn_offsets[id as usize + 1] as usize;
        &self.path_asns[lo..hi]
    }

    /// Materialize the interned path for a path ID. Reconstructs from the
    /// flat pools — use [`path_view`](Self::path_view) /
    /// [`path_hops`](Self::path_hops) on hot paths.
    pub fn path(&self, id: u32) -> AsPath {
        self.path_view(id).to_path()
    }

    /// Sorted, deduped ASN values of the interned path. The on-path test
    /// is a binary search in this slice.
    pub fn path_members(&self, id: u32) -> &[u32] {
        let lo = self.member_offsets[id as usize] as usize;
        let hi = self.member_offsets[id as usize + 1] as usize;
        &self.members[lo..hi]
    }

    /// The whole member pool: the concatenation of every interned path's
    /// sorted unique ASNs. One pass over this slice visits every ASN that
    /// appears on any path (with cross-path duplicates).
    pub fn member_values(&self) -> &[u32] {
        &self.members
    }

    /// The exact ordered community list for a community-set ID.
    pub fn cset(&self, id: u32) -> &[Community] {
        let lo = self.cset_offsets[id as usize] as usize;
        let hi = self.cset_offsets[id as usize + 1] as usize;
        &self.cset_pool[lo..hi]
    }
}

/// Columnar observation storage: an [`Interner`] for paths and community
/// sets, plus per-observation columns.
///
/// Per observation the store keeps two dense IDs (path, community set)
/// plus the scalar columns (`vp`, `prefix`, `time`) and a flat pool for
/// the rare large communities — roughly 40 bytes per observation versus
/// the several heap allocations of an owned [`Observation`]. The
/// interner's read accessors are available on the store through `Deref`.
/// See DESIGN.md § "Data layout".
#[derive(Debug, Clone, Default)]
pub struct ObservationStore {
    interner: Interner,
    // ---- per-observation columns (index space: 0..len) ----
    obs_path: Vec<u32>,
    obs_cset: Vec<u32>,
    vps: Vec<Asn>,
    prefixes: Vec<Prefix>,
    times: Vec<u32>,
    /// `large_offsets[i]..large_offsets[i+1]` indexes `large_pool`.
    large_offsets: Vec<u32>,
    large_pool: Vec<LargeCommunity>,
}

impl std::ops::Deref for ObservationStore {
    type Target = Interner;

    fn deref(&self) -> &Interner {
        &self.interner
    }
}

impl ObservationStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store from an observation slice (the thin-wrapper entry
    /// point used by the `Observation`-slice APIs).
    pub fn from_observations(observations: &[Observation]) -> Self {
        let mut store = Self::new();
        store.extend_from_slice(observations);
        store
    }

    /// Fold every observation of `observations` into the store.
    pub fn extend_from_slice(&mut self, observations: &[Observation]) {
        let n = observations.len();
        self.obs_path.reserve(n);
        self.obs_cset.reserve(n);
        self.vps.reserve(n);
        self.prefixes.reserve(n);
        self.times.reserve(n);
        self.large_offsets.reserve(n);
        // Flatten each owned path into reused scratch once, then hash and
        // verify against the flat slices: one pointer-chasing walk of the
        // nested `AsPath` per observation instead of two (hash + compare).
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        for obs in observations {
            self.push_with_scratch(obs, &mut segs, &mut asns);
        }
    }

    /// Fold one observation in, interning its path and community set.
    /// Copies the path / community list into the pools only on first sight.
    pub fn push(&mut self, obs: &Observation) {
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        self.push_with_scratch(obs, &mut segs, &mut asns);
    }

    fn push_with_scratch(
        &mut self,
        obs: &Observation,
        segs: &mut Vec<(u8, u32)>,
        asns: &mut Vec<u32>,
    ) {
        let path_id = self
            .interner
            .intern_path(&AsPathView::of(&obs.path, segs, asns));
        let cset_id = self.interner.intern_cset(&obs.communities);
        self.push_row(
            path_id,
            cset_id,
            obs.vp,
            obs.prefix,
            obs.time,
            &obs.large_communities,
        );
    }

    /// Fold one owned observation in. Equivalent to [`push`](Self::push);
    /// the allocation win stays the same (duplicate paths/sets are dropped
    /// either way), so this simply delegates.
    pub fn push_owned(&mut self, obs: Observation) {
        self.push(&obs);
    }

    /// Fold one borrowed observation in — the zero-copy ingestion path.
    /// Steady state (path and community set already interned) touches no
    /// heap at all: two fingerprint probes, two slice compares, six column
    /// pushes. First sight of a path/set copies the slices into the flat
    /// pools.
    pub fn push_view(&mut self, view: &ObservationView<'_>) {
        let path_id = self.interner.intern_path(&view.path);
        let cset_id = self.interner.intern_cset(view.communities);
        self.push_row(
            path_id,
            cset_id,
            view.vp,
            view.prefix,
            view.time,
            view.large_communities,
        );
    }

    fn push_row(
        &mut self,
        path_id: u32,
        cset_id: u32,
        vp: Asn,
        prefix: Prefix,
        time: u32,
        large: &[LargeCommunity],
    ) {
        self.obs_path.push(path_id);
        self.obs_cset.push(cset_id);
        self.vps.push(vp);
        self.prefixes.push(prefix);
        self.times.push(time);
        self.large_pool.extend_from_slice(large);
        self.large_offsets.push(self.large_pool.len() as u32);
    }

    /// Fold another store into this one, re-interning its unique paths and
    /// community sets ([`Interner::remap`]), then a dense ID remap per
    /// observation. Observation order is `self` then `other`, so folding
    /// per-file stores in input order reproduces the sequential
    /// single-sink order exactly.
    pub fn merge(&mut self, other: &ObservationStore) {
        let (path_map, cset_map) = self.interner.remap(&other.interner);
        for i in 0..other.len() {
            self.push_row(
                path_map[other.obs_path[i] as usize],
                cset_map[other.obs_cset[i] as usize],
                other.vps[i],
                other.prefixes[i],
                other.times[i],
                other.large(i),
            );
        }
    }

    /// The interner behind the store's path and community-set IDs.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Number of observations stored.
    pub fn len(&self) -> usize {
        self.obs_path.len()
    }

    /// Whether the store holds no observations.
    pub fn is_empty(&self) -> bool {
        self.obs_path.is_empty()
    }

    /// The `(path ID, community-set ID)` tuple of each observation, in
    /// insertion order.
    pub fn tuples(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.obs_path
            .iter()
            .zip(self.obs_cset.iter())
            .map(|(&p, &c)| (p, c))
    }

    /// Path ID of observation `i`.
    pub fn obs_path_id(&self, i: usize) -> u32 {
        self.obs_path[i]
    }

    /// Community-set ID of observation `i`.
    pub fn obs_cset_id(&self, i: usize) -> u32 {
        self.obs_cset[i]
    }

    /// Vantage point of observation `i`.
    pub fn vp(&self, i: usize) -> Asn {
        self.vps[i]
    }

    /// Prefix of observation `i`.
    pub fn prefix(&self, i: usize) -> Prefix {
        self.prefixes[i]
    }

    /// Timestamp of observation `i`.
    pub fn time(&self, i: usize) -> u32 {
        self.times[i]
    }

    /// Large communities of observation `i` (usually empty).
    pub fn large(&self, i: usize) -> &[LargeCommunity] {
        let lo = if i == 0 {
            0
        } else {
            self.large_offsets[i - 1] as usize
        };
        let hi = self.large_offsets[i] as usize;
        &self.large_pool[lo..hi]
    }

    /// Reconstruct observation `i` as an owned [`Observation`].
    pub fn get(&self, i: usize) -> Observation {
        Observation {
            vp: self.vps[i],
            prefix: self.prefixes[i],
            path: self.path(self.obs_path[i]),
            communities: self.cset(self.obs_cset[i]).to_vec(),
            large_communities: self.large(i).to_vec(),
            time: self.times[i],
        }
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
            time: 7,
        }
    }

    #[test]
    fn interns_paths_and_csets_densely() {
        let observations = vec![
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(1, "1 1299 64496", &[(1299, 2)]),
            obs(2, "2 64496", &[(1299, 1)]),
            obs(1, "1 1299 64496", &[(1299, 1)]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.len(), 4);
        assert_eq!(store.path_count(), 2);
        assert_eq!(store.cset_count(), 2);
        // Duplicate rows share IDs; first and last rows are identical tuples.
        assert_eq!(store.obs_path_id(0), store.obs_path_id(3));
        assert_eq!(store.obs_cset_id(0), store.obs_cset_id(3));
        assert_eq!(store.path_members(store.obs_path_id(0)), &[1, 1299, 64496]);
    }

    #[test]
    fn fingerprint_colliding_paths_intern_apart_by_either_route() {
        // Two valid paths with one 64-bit fingerprint.
        let a: AsPath = "213641905 64500".parse().unwrap();
        let b: AsPath = "1456344755 537186471".parse().unwrap();
        assert_eq!(fx_hash_one(&a), fx_hash_one(&b));
        let mut interner = Interner::new();
        let (id_a, id_b) = (
            interner.intern_owned_path(&a),
            interner.intern_owned_path(&b),
        );
        assert_ne!(id_a, id_b);
        assert_eq!(interner.path_collision_count(), 1);
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        assert_eq!(
            interner.intern_path(&AsPathView::of(&b, &mut segs, &mut asns)),
            id_b
        );
        assert_eq!(interner.intern_owned_path(&a), id_a);
        assert_eq!((interner.path(id_a), interner.path(id_b)), (a, b));
    }

    #[test]
    fn prepending_and_sets_produce_distinct_paths_but_collapsed_members() {
        let observations = vec![
            obs(1, "1 1299 1299 64496", &[]),
            obs(1, "1 1299 64496", &[]),
            obs(1, "1 1299 {64496,64497}", &[]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.path_count(), 3);
        assert_eq!(store.path_members(0), &[1, 1299, 64496]);
        assert_eq!(store.path_members(2), &[1, 1299, 64496, 64497]);
    }

    #[test]
    fn path_views_roundtrip_and_expose_flat_hops() {
        let observations = vec![
            obs(1, "1 1299 1299 {64496,64497} 7", &[]),
            obs(1, "2 3", &[]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.len(), observations.len());
        for (i, expected) in observations.iter().enumerate() {
            let id = store.obs_path_id(i);
            let view = store.path_view(id);
            assert!(view.matches(&expected.path));
            assert_eq!(view.to_path(), expected.path);
            assert_eq!(store.path(id), expected.path);
        }
        assert_eq!(store.path_hops(0), &[1, 1299, 1299, 64496, 64497, 7]);
        assert_eq!(store.path_hops(1), &[2, 3]);
    }

    #[test]
    fn cset_identity_is_order_and_duplicate_sensitive() {
        let observations = vec![
            obs(1, "1 2", &[(100, 1), (100, 2)]),
            obs(1, "1 2", &[(100, 2), (100, 1)]),
            obs(1, "1 2", &[(100, 1), (100, 1)]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.cset_count(), 3);
    }

    #[test]
    fn community_slots_parallel_the_cset_pool() {
        let observations = vec![
            obs(1, "1 2", &[(100, 1), (100, 2), (100, 1)]),
            obs(1, "1 3", &[(100, 2), (200, 7)]),
        ];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.community_count(), 3);
        for id in 0..store.cset_count() as u32 {
            let slots = store.cset_slots(id);
            let comms = store.cset(id);
            assert_eq!(slots.len(), comms.len());
            for (&slot, &c) in slots.iter().zip(comms) {
                assert_eq!(store.community(slot), c);
            }
        }
        // Duplicate community within a cset keeps its slot.
        assert_eq!(store.cset_slots(0)[0], store.cset_slots(0)[2]);
        // Shared community across csets shares a slot.
        assert_eq!(store.cset_slots(0)[1], store.cset_slots(1)[0]);
    }

    #[test]
    fn roundtrips_observations() {
        let mut original = obs(9, "9 3356 {64496,64500} 1299", &[(3356, 55)]);
        original.large_communities = vec![LargeCommunity {
            global: 3356,
            local1: 1,
            local2: 2,
        }];
        let observations = vec![obs(1, "1 2", &[]), original.clone()];
        let store = ObservationStore::from_observations(&observations);
        assert_eq!(store.get(0), observations[0]);
        assert_eq!(store.get(1), original);
    }

    #[test]
    fn merge_reinterns_and_preserves_order() {
        let a = ObservationStore::from_observations(&[
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(2, "2 64496", &[]),
        ]);
        let b = ObservationStore::from_observations(&[
            obs(3, "1 1299 64496", &[(1299, 1)]), // same path+cset as a[0]
            obs(4, "4 64496", &[(1299, 9)]),
        ]);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.path_count(), 3);
        assert_eq!(merged.obs_path_id(0), merged.obs_path_id(2));
        assert_eq!(merged.obs_cset_id(0), merged.obs_cset_id(2));
        for i in 0..2 {
            assert_eq!(merged.get(i), a.get(i));
            assert_eq!(merged.get(i + 2), b.get(i));
        }
    }

    #[test]
    fn sink_parity_between_vec_and_store() {
        let observations = vec![
            obs(1, "1 1299 64496", &[(1299, 1)]),
            obs(2, "2 64496", &[(1299, 2)]),
        ];
        let mut vec_sink: Vec<Observation> = Vec::new();
        let mut store_sink = ObservationStore::new();
        for o in &observations {
            ObservationSink::push_observation(&mut vec_sink, o.clone());
            ObservationSink::push_observation(&mut store_sink, o.clone());
        }
        assert_eq!(vec_sink.observation_count(), store_sink.observation_count());
        for (i, o) in vec_sink.iter().enumerate() {
            assert_eq!(store_sink.get(i), *o);
        }
    }

    #[test]
    fn view_push_matches_owned_push() {
        use crate::aspath::AsPathView;
        let mut original = obs(9, "9 3356 {64496,64500} 1299", &[(3356, 55), (1299, 7)]);
        original.large_communities = vec![LargeCommunity::new(3356, 1, 2)];
        let observations = vec![
            obs(1, "1 1299 64496", &[(1299, 1)]),
            original,
            obs(1, "1 1299 64496", &[(1299, 1)]), // duplicate: hot view path
            obs(2, "", &[]),                      // empty path and cset
        ];
        let mut owned_store = ObservationStore::new();
        let mut view_store = ObservationStore::new();
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        for o in &observations {
            owned_store.push(o);
            let view = ObservationView {
                vp: o.vp,
                prefix: o.prefix,
                path: AsPathView::of(&o.path, &mut segs, &mut asns),
                communities: &o.communities,
                large_communities: &o.large_communities,
                time: o.time,
            };
            ObservationSink::push_observation_view(&mut view_store, &view);
        }
        assert_eq!(owned_store.len(), view_store.len());
        assert_eq!(owned_store.path_count(), view_store.path_count());
        assert_eq!(owned_store.cset_count(), view_store.cset_count());
        for i in 0..owned_store.len() {
            assert_eq!(owned_store.get(i), view_store.get(i));
            assert_eq!(owned_store.obs_path_id(i), view_store.obs_path_id(i));
            assert_eq!(owned_store.obs_cset_id(i), view_store.obs_cset_id(i));
        }
        for id in 0..owned_store.path_count() as u32 {
            assert_eq!(owned_store.path_view(id), view_store.path_view(id));
            assert_eq!(owned_store.path_members(id), view_store.path_members(id));
        }
    }

    #[test]
    fn default_view_push_on_vec_sink_materializes() {
        use crate::aspath::AsPathView;
        let o = obs(1, "1 1299 {2,3}", &[(1299, 1)]);
        let (mut segs, mut asns) = (Vec::new(), Vec::new());
        let view = ObservationView {
            vp: o.vp,
            prefix: o.prefix,
            path: AsPathView::of(&o.path, &mut segs, &mut asns),
            communities: &o.communities,
            large_communities: &o.large_communities,
            time: o.time,
        };
        let mut sink: Vec<Observation> = Vec::new();
        sink.push_observation_view(&view);
        assert_eq!(sink, vec![o]);
    }

    #[test]
    fn fp_map_survives_growth_and_zero_fingerprints() {
        // fx_hash_one of an empty path is 0 — the map must not confuse a
        // legitimate zero fingerprint with an empty slot.
        let mut map = FpMap::default();
        assert_eq!(map.get(0), None);
        map.insert(0, 42);
        assert_eq!(map.get(0), Some(42));
        for i in 1..2000u64 {
            map.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i as u32);
        }
        assert_eq!(map.get(0), Some(42));
        for i in 1..2000u64 {
            assert_eq!(
                map.get(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                Some(i as u32)
            );
        }
        assert_eq!(map.get(7), None);
    }
}
