//! Streaming inference — the engine behind `bgpcomm watch`.
//!
//! A long-running daemon folds a continuous BGP update stream into rolling
//! [`PathStats`] over sliding time windows and reclassifies *only* the
//! owner ASes a window advance actually touched, surfacing label changes
//! ("flaps") as first-class metrics. The pieces:
//!
//! * [`WindowedClassifier`] — a ring of per-bucket [`StatsAccumulator`]s
//!   keyed by `observation.time / window_secs`, plus the current label map.
//!   Each advance merges the retained buckets into windowed stats, diffs
//!   them against the stats of the previous reclassification, and re-runs
//!   the classifier for dirty owners only. Late observations to evicted
//!   buckets are dropped and counted, never folded twice.
//! * [`WatchCheckpoint`] — atomic (temp + fsync + rename), sealed binary
//!   manifest holding the stream cursor, the cumulative accumulator, every
//!   retained bucket, the label map, and the flap counters. It shares the
//!   batch checkpoint's envelope ([`crate::checkpoint`], "On-disk
//!   format"): counters, geometry, labels and exclusions in the JSON
//!   header, then the cumulative state and each bucket's state, in
//!   ascending bucket order, as column blocks of interned paths, community
//!   sets and unique tuples. Restoring it reproduces the daemon's exact
//!   state at the recorded cursor, so a resumed run counts the same flaps
//!   an uninterrupted one would.
//! * [`run_watch`] — the daemon loop: a [`StreamDecoder`] over a
//!   [`ResumingStream`] (bounded queue, backpressure, reconnect, stall
//!   detection), advance-before-fold window maintenance, a checkpoint at
//!   every window advance, and a graceful-shutdown path that flushes a
//!   valid checkpoint before reporting.
//!
//! # Why the cumulative accumulator is the recovery substrate
//!
//! The per-bucket ring drives *windowed* classification; crash recovery
//! and batch parity ride on the *cumulative* [`StatsAccumulator`], which
//! keeps each unique `(path, community set)` tuple once, by exact
//! identity. A kill -9 between checkpoints loses nothing but the cursor
//! distance: the resumed run re-requests the stream from the last
//! checkpoint's cursor and re-folds the re-delivered records, and every
//! tuple that was already in the state stays counted exactly once. At a
//! quiescent point the cumulative stats (and the labels classified from
//! them) are therefore identical to a batch run over the same delivered
//! bytes — the invariant the streaming CI job pins with `cmp`.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bgp_mrt::stream::{ResumingStream, StreamCounters, StreamSource, StreamTuning};
use bgp_mrt::{IngestReport, RecoverConfig, StreamDecoder};
use bgp_relationships::SiblingMap;
use bgp_types::fx::{FxHashMap, FxHashSet};
use bgp_types::obs::MetricsRegistry;
use bgp_types::{Asn, Community, Intent, Observation};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    encode_sealed, load_sealed, save_sealed, seal_of, CheckpointLoadError, Sealed, StatsAccumulator,
};
use crate::classify::{classify, classify_owner, Exclusion, Inference, InferenceConfig};
use crate::stats::{PathCounts, PathStats};

/// Version stamp inside every watch checkpoint; bump on layout changes so
/// a resume against an incompatible manifest refuses instead of
/// misreading. Schema 2 is the sealed binary envelope shared with the
/// batch checkpoint (see [`crate::checkpoint`], "On-disk format"); schema
/// 3 holds interned paths, community sets and tuples in place of
/// fingerprint columns.
pub const WATCH_CHECKPOINT_SCHEMA: u32 = 3;

/// Sliding-window geometry: bucket width in stream seconds and how many
/// buckets the window retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowConfig {
    /// Bucket width: observations land in bucket `time / window_secs`.
    pub window_secs: u32,
    /// Retained buckets. The windowed statistics at any moment cover the
    /// newest `windows` buckets; older buckets are evicted on advance.
    pub windows: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        WindowConfig {
            window_secs: 3600,
            windows: 24,
        }
    }
}

impl WindowConfig {
    /// The bucket index an observation timestamp falls in.
    fn bucket_of(&self, time: u32) -> u64 {
        u64::from(time) / u64::from(self.window_secs.max(1))
    }
}

/// Pack a community into the `u32` the checkpoint serializes (`asn` in the
/// high half, `value` in the low half — sortable by owner).
fn pack(c: Community) -> u32 {
    (u32::from(c.asn) << 16) | u32::from(c.value)
}

fn unpack(p: u32) -> Community {
    Community::new((p >> 16) as u16, p as u16)
}

/// Rolling windowed classification with incremental reclassify and flap
/// accounting.
///
/// Invariant maintained across [`observe`](Self::observe) /
/// [`reclassify`](Self::reclassify): the label and exclusion maps equal a
/// full [`classify`] over the windowed statistics *as of the last
/// reclassification* — the incremental dirty-owner pass is an
/// optimization, never an approximation (pinned by tests).
#[derive(Debug)]
pub struct WindowedClassifier {
    window: WindowConfig,
    cfg: InferenceConfig,
    /// Retained buckets, ascending by index. Sparse: only buckets that
    /// received at least one observation (plus the head) exist.
    buckets: VecDeque<(u64, StatsAccumulator)>,
    /// Windowed stats at the last reclassification — the diff base for
    /// dirty-owner detection.
    prev: PathStats,
    /// Current label per community, equal to `classify(prev)`'s labels.
    labels: FxHashMap<Community, Intent>,
    /// Current exclusions, equal to `classify(prev)`'s exclusions.
    excluded: FxHashMap<Community, Exclusion>,
    /// Communities currently holding a label or exclusion, per owner —
    /// the removal index for incremental reclassification.
    owner_communities: FxHashMap<u16, Vec<Community>>,
    flaps: u64,
    advances: u64,
    late_drops: u64,
    reclassified_owners: u64,
}

impl WindowedClassifier {
    /// An empty classifier.
    pub fn new(window: WindowConfig, cfg: InferenceConfig) -> Self {
        WindowedClassifier {
            window,
            cfg,
            buckets: VecDeque::new(),
            prev: PathStats::default(),
            labels: FxHashMap::default(),
            excluded: FxHashMap::default(),
            owner_communities: FxHashMap::default(),
            flaps: 0,
            advances: 0,
            late_drops: 0,
            reclassified_owners: 0,
        }
    }

    /// The window geometry.
    pub fn window(&self) -> WindowConfig {
        self.window
    }

    /// Current label per community (as of the last reclassification).
    pub fn labels(&self) -> &FxHashMap<Community, Intent> {
        &self.labels
    }

    /// Current exclusions (as of the last reclassification).
    pub fn excluded(&self) -> &FxHashMap<Community, Exclusion> {
        &self.excluded
    }

    /// Total label flips observed across all reclassifications: a flap is
    /// a community *labeled in both rounds* whose [`Intent`] changed.
    /// Appearing, disappearing, or moving to/from exclusion is churn, not
    /// a flap.
    pub fn flaps(&self) -> u64 {
        self.flaps
    }

    /// Window advances so far.
    pub fn advances(&self) -> u64 {
        self.advances
    }

    /// Observations dropped because their bucket was already evicted.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Owner ASes re-run through the classifier across all
    /// reclassifications (the incremental work metric; a full pass each
    /// advance would count every owner every time).
    pub fn reclassified_owners(&self) -> u64 {
        self.reclassified_owners
    }

    /// Retained bucket count.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The windowed statistics right now, on-path tested under
    /// `siblings`: the union of every retained bucket (including folds
    /// since the last reclassification).
    pub fn windowed_stats(&self, siblings: &SiblingMap) -> PathStats {
        let mut acc = StatsAccumulator::new();
        for (_, bucket) in &self.buckets {
            acc.merge(bucket);
        }
        acc.stats_under(siblings)
    }

    /// Fold one observation. If it opens a newer bucket than the current
    /// head, the window advances first — evict expired buckets, reclassify
    /// dirty owners — and *then* the observation folds into the new head
    /// (advance-before-fold). Returns `true` when an advance (and thus a
    /// reclassification) happened, so the daemon can apply its checkpoint
    /// cadence.
    pub fn observe(&mut self, obs: &Observation, siblings: &SiblingMap) -> bool {
        let bucket = self.window.bucket_of(obs.time);
        let head = match self.buckets.back() {
            Some(&(head, _)) => head,
            None => {
                // First observation seeds the head bucket; nothing to
                // reclassify yet.
                self.buckets.push_back((bucket, StatsAccumulator::new()));
                self.fold_into(self.buckets.len() - 1, obs, siblings);
                return false;
            }
        };
        if bucket > head {
            self.advance_to(bucket, siblings);
            let last = self.buckets.len() - 1;
            self.fold_into(last, obs, siblings);
            return true;
        }
        // In-window: the head bucket or a late (but retained) one.
        let floor = (head + 1).saturating_sub(self.window.windows as u64);
        if bucket < floor {
            self.late_drops += 1;
            return false;
        }
        match self.buckets.binary_search_by_key(&bucket, |&(i, _)| i) {
            Ok(at) => self.fold_into(at, obs, siblings),
            Err(at) => {
                self.buckets.insert(at, (bucket, StatsAccumulator::new()));
                self.fold_into(at, obs, siblings);
            }
        }
        false
    }

    fn fold_into(&mut self, at: usize, obs: &Observation, siblings: &SiblingMap) {
        self.buckets[at]
            .1
            .ingest_ordered(std::slice::from_ref(obs), siblings);
    }

    /// Advance the head to `new_head`: evict buckets that fall out of the
    /// retention window, open the new head, reclassify.
    fn advance_to(&mut self, new_head: u64, siblings: &SiblingMap) {
        self.buckets.push_back((new_head, StatsAccumulator::new()));
        let floor = (new_head + 1).saturating_sub(self.window.windows as u64);
        while matches!(self.buckets.front(), Some(&(i, _)) if i < floor) {
            self.buckets.pop_front();
        }
        self.advances += 1;
        self.reclassify(siblings);
    }

    /// Recompute labels against the current windowed statistics,
    /// re-running the classifier only for owners whose inputs changed
    /// since the last reclassification, and fold label flips into the flap
    /// counter. Returns the flaps counted this round.
    ///
    /// An owner's classification depends on exactly two inputs: the path
    /// counts of its own communities, and whether its sibling family
    /// intersects the windowed `seen_asns` (the never-on-path exclusion).
    /// The dirty set is the union of owners touched through either — so
    /// skipping the rest is exact, not heuristic.
    pub fn reclassify(&mut self, siblings: &SiblingMap) -> u64 {
        let new = self.windowed_stats(siblings);

        let mut dirty: Vec<u16> = Vec::new();
        for (c, counts) in &new.per_community {
            if self.prev.per_community.get(c) != Some(counts) {
                dirty.push(c.asn);
            }
        }
        for c in self.prev.per_community.keys() {
            if !new.per_community.contains_key(c) {
                dirty.push(c.asn);
            }
        }
        let mut changed_asns: FxHashSet<Asn> = FxHashSet::default();
        for a in &new.seen_asns {
            if !self.prev.seen_asns.contains(a) {
                changed_asns.insert(*a);
            }
        }
        for a in &self.prev.seen_asns {
            if !new.seen_asns.contains(a) {
                changed_asns.insert(*a);
            }
        }
        if !changed_asns.is_empty() {
            let owners: FxHashSet<u16> = new
                .per_community
                .keys()
                .chain(self.prev.per_community.keys())
                .map(|c| c.asn)
                .collect();
            for &asn in &owners {
                let owner = Asn::new(u32::from(asn));
                let hit = if self.cfg.use_siblings {
                    siblings
                        .expand_ref(&owner)
                        .iter()
                        .any(|a| changed_asns.contains(a))
                } else {
                    changed_asns.contains(&owner)
                };
                if hit {
                    dirty.push(asn);
                }
            }
        }
        dirty.sort_unstable();
        dirty.dedup();

        let by_owner = new.by_owner();
        let mut flaps_now = 0u64;
        let mut scratch = Inference::default();
        for &asn in &dirty {
            scratch.labels.clear();
            scratch.excluded.clear();
            scratch.clusters.clear();
            if let Ok(i) = by_owner.binary_search_by_key(&asn, |(a, _)| *a) {
                classify_owner(&new, siblings, &self.cfg, asn, &by_owner[i].1, &mut scratch);
            }
            for c in self.owner_communities.remove(&asn).unwrap_or_default() {
                let was = self.labels.remove(&c);
                self.excluded.remove(&c);
                if let (Some(old), Some(&now)) = (was, scratch.labels.get(&c)) {
                    if old != now {
                        flaps_now += 1;
                    }
                }
            }
            if !scratch.labels.is_empty() || !scratch.excluded.is_empty() {
                let mut comms: Vec<Community> = scratch
                    .labels
                    .keys()
                    .chain(scratch.excluded.keys())
                    .copied()
                    .collect();
                comms.sort_unstable();
                comms.dedup();
                self.owner_communities.insert(asn, comms);
            }
            for (c, i) in scratch.labels.drain() {
                self.labels.insert(c, i);
            }
            for (c, e) in scratch.excluded.drain() {
                self.excluded.insert(c, e);
            }
            self.reclassified_owners += 1;
        }
        self.flaps += flaps_now;
        self.prev = new;
        flaps_now
    }

    /// Rebuild from a checkpoint — the exact state at the recorded cursor,
    /// including the diff base, so the resumed run counts the same flaps
    /// an uninterrupted one would.
    pub fn from_checkpoint(cp: &WatchCheckpoint, cfg: InferenceConfig) -> Self {
        let mut labels: FxHashMap<Community, Intent> = FxHashMap::default();
        for &(p, intent) in &cp.labels {
            labels.insert(unpack(p), intent);
        }
        let mut excluded: FxHashMap<Community, Exclusion> = FxHashMap::default();
        for &(p, reason) in &cp.excluded {
            excluded.insert(unpack(p), reason);
        }
        let mut owner_communities: FxHashMap<u16, Vec<Community>> = FxHashMap::default();
        let mut comms: Vec<Community> = labels.keys().chain(excluded.keys()).copied().collect();
        comms.sort_unstable();
        comms.dedup();
        for c in comms {
            owner_communities.entry(c.asn).or_default().push(c);
        }
        WindowedClassifier {
            window: WindowConfig {
                window_secs: cp.window_secs,
                windows: cp.windows,
            },
            cfg,
            buckets: cp
                .buckets
                .iter()
                .map(|b| (b.index, b.stats.clone()))
                .collect(),
            prev: cp.windowed.to_stats(),
            labels,
            excluded,
            owner_communities,
            flaps: cp.flaps,
            advances: cp.advances,
            late_drops: cp.late_drops,
            reclassified_owners: cp.reclassified_owners,
        }
    }
}

/// One retained bucket inside a [`WatchCheckpoint`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchBucket {
    /// The bucket index (`time / window_secs`).
    pub index: u64,
    /// The bucket's statistics state (a column block on disk).
    #[serde(skip)]
    pub stats: StatsAccumulator,
}

/// Serialized diff base: the windowed [`PathStats`] at the last
/// reclassification, stored exactly so a resumed run's next dirty-owner
/// diff — and therefore its flap count — matches the uninterrupted run.
/// (It is *not* derivable from the buckets: folds into the head bucket
/// after the reclassification are part of the buckets but not of the diff
/// base.)
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowedStatsSnapshot {
    /// `(packed community, on, off)` sorted by packed key.
    pub counts: Vec<(u32, u32, u32)>,
    /// ASN values on any windowed path, sorted.
    pub seen_asns: Vec<u32>,
    /// Unique `(path, communities)` tuples in the window.
    pub unique_tuples: u64,
    /// Unique AS paths in the window.
    pub unique_paths: u64,
}

impl WindowedStatsSnapshot {
    fn from_stats(stats: &PathStats) -> Self {
        let mut counts: Vec<(u32, u32, u32)> = stats
            .per_community
            .iter()
            .map(|(&c, pc)| (pack(c), pc.on, pc.off))
            .collect();
        counts.sort_unstable_by_key(|&(p, _, _)| p);
        let mut seen_asns: Vec<u32> = stats.seen_asns.iter().map(|a| a.value()).collect();
        seen_asns.sort_unstable();
        WindowedStatsSnapshot {
            counts,
            seen_asns,
            unique_tuples: stats.unique_tuples as u64,
            unique_paths: stats.unique_paths as u64,
        }
    }

    fn to_stats(&self) -> PathStats {
        let mut per_community: FxHashMap<Community, PathCounts> = FxHashMap::default();
        for &(p, on, off) in &self.counts {
            per_community.insert(unpack(p), PathCounts { on, off });
        }
        PathStats {
            per_community,
            seen_asns: self.seen_asns.iter().map(|&a| Asn::new(a)).collect(),
            unique_tuples: self.unique_tuples as usize,
            unique_paths: self.unique_paths as usize,
        }
    }
}

/// The streaming daemon's crash-recovery manifest: everything needed to
/// resume at `cursor` with bit-identical downstream behavior. Written
/// atomically ([`save_atomic`](Self::save_atomic)) and sealed, in the same
/// binary envelope as the batch
/// [`Checkpoint`](crate::checkpoint::Checkpoint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchCheckpoint {
    /// Layout version ([`WATCH_CHECKPOINT_SCHEMA`]), stored in the
    /// envelope prelude.
    #[serde(skip)]
    pub schema: u32,
    /// FNV-1a 64 over the written file with the seal slot zeroed; filled
    /// in by [`load`](Self::load).
    #[serde(skip)]
    pub checksum: u64,
    /// Resume position in the delivered byte stream (frame-aligned: every
    /// byte before it has been decoded or resynced past and folded).
    pub cursor: u64,
    /// MRT records decoded so far.
    pub records: u64,
    /// Observations folded so far.
    pub observations: u64,
    /// Window advances so far.
    pub advances: u64,
    /// Label flips counted so far.
    pub flaps: u64,
    /// Late observations dropped so far.
    pub late_drops: u64,
    /// Owners re-run through the classifier so far.
    pub reclassified_owners: u64,
    /// Bucket width the run was started with (resume refuses a mismatch).
    pub window_secs: u32,
    /// Retained bucket count the run was started with.
    pub windows: usize,
    /// The cumulative state (batch-parity substrate; the first column
    /// block on disk).
    #[serde(skip)]
    pub cumulative: StatsAccumulator,
    /// Every retained window bucket, ascending by index.
    pub buckets: Vec<WatchBucket>,
    /// The dirty-owner diff base (see [`WindowedStatsSnapshot`]).
    pub windowed: WindowedStatsSnapshot,
    /// Current labels as `(packed community, intent)`, sorted by key.
    pub labels: Vec<(u32, Intent)>,
    /// Current exclusions as `(packed community, reason)`, sorted by key.
    pub excluded: Vec<(u32, Exclusion)>,
}

impl WatchCheckpoint {
    /// Capture the daemon's state: a copy of the cumulative state and of
    /// every retained bucket, without their sibling maps.
    pub fn capture(
        classifier: &WindowedClassifier,
        cumulative: &StatsAccumulator,
        cursor: u64,
        records: u64,
        observations: u64,
    ) -> WatchCheckpoint {
        let mut labels: Vec<(u32, Intent)> = classifier
            .labels
            .iter()
            .map(|(&c, &i)| (pack(c), i))
            .collect();
        labels.sort_unstable_by_key(|&(p, _)| p);
        let mut excluded: Vec<(u32, Exclusion)> = classifier
            .excluded
            .iter()
            .map(|(&c, &e)| (pack(c), e))
            .collect();
        excluded.sort_unstable_by_key(|&(p, _)| p);
        let buckets = classifier
            .buckets
            .iter()
            .map(|(index, acc)| WatchBucket {
                index: *index,
                stats: acc.detached(),
            })
            .collect();
        WatchCheckpoint {
            schema: WATCH_CHECKPOINT_SCHEMA,
            checksum: 0,
            cursor,
            records,
            observations,
            advances: classifier.advances,
            flaps: classifier.flaps,
            late_drops: classifier.late_drops,
            reclassified_owners: classifier.reclassified_owners,
            window_secs: classifier.window.window_secs,
            windows: classifier.window.windows,
            cumulative: cumulative.detached(),
            buckets,
            windowed: WindowedStatsSnapshot::from_stats(&classifier.prev),
            labels,
            excluded,
        }
    }

    /// The seal [`save_atomic`](Self::save_atomic) would embed: FNV-1a 64
    /// over the encoded file with the seal slot zeroed.
    pub fn payload_checksum(&self) -> u64 {
        seal_of(&encode_sealed(self))
    }

    /// Encode and seal, then
    /// [`write_atomic`](bgp_types::durable::write_atomic). A crash at any
    /// point leaves the previous checkpoint or this one — never a torn
    /// file.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        save_sealed(self, path)
    }

    /// Load and validate: magic, schema, seal, header, then the column
    /// blocks. Truncation, bit flips, forged lengths and pre-binary JSON
    /// checkpoints are rejected with a typed error, never a panic or
    /// partial state.
    pub fn load(path: &Path) -> Result<WatchCheckpoint, CheckpointLoadError> {
        load_sealed(path)
    }
}

impl Sealed for WatchCheckpoint {
    const MAGIC: [u8; 8] = *b"BGPWTCH\0";
    const SCHEMA: u32 = WATCH_CHECKPOINT_SCHEMA;

    fn schema(&self) -> u32 {
        self.schema
    }

    fn set_prelude(&mut self, schema: u32, checksum: u64) {
        self.schema = schema;
        self.checksum = checksum;
    }

    fn columns(&self) -> Vec<&StatsAccumulator> {
        std::iter::once(&self.cumulative)
            .chain(self.buckets.iter().map(|b| &b.stats))
            .collect()
    }

    fn columns_mut(&mut self) -> Vec<&mut StatsAccumulator> {
        std::iter::once(&mut self.cumulative)
            .chain(self.buckets.iter_mut().map(|b| &mut b.stats))
            .collect()
    }
}

/// Everything [`run_watch`] needs beyond the source and sibling map.
#[derive(Debug, Clone, Default)]
pub struct WatchOptions {
    /// Sliding-window geometry.
    pub window: WindowConfig,
    /// Classifier parameters.
    pub infer: InferenceConfig,
    /// Delivery-layer tuning (queue cap, stall timeout, retry, quiesce).
    pub tuning: StreamTuning,
    /// Decode resilience policy (error budget, resync bounds).
    pub recover: RecoverConfig,
    /// Checkpoint manifest path, written at every window advance; `None`
    /// disables checkpointing (and resume).
    pub checkpoint: Option<PathBuf>,
    /// Metrics registry to record `watch/*`, `classify/*`, `stream/*`, and
    /// `ingest/*` series into.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// Test injection: sleep this long after each record, making the
    /// consumer slow enough to exercise backpressure deterministically.
    pub slow_fold: Option<Duration>,
    /// Test injection: simulate a SIGKILL (`process::exit(9)`, no
    /// checkpoint flush, no cleanup) at the first record boundary after
    /// this many total window advances.
    pub crash_after_windows: Option<u64>,
}

/// What a watch run produced (at shutdown or the quiescent point).
#[derive(Debug)]
pub struct WatchOutcome {
    /// Whether the run resumed from an existing checkpoint.
    pub resumed: bool,
    /// MRT records decoded (including any re-delivered after resume).
    pub records: u64,
    /// Observations folded.
    pub observations: u64,
    /// Window advances.
    pub advances: u64,
    /// Label flips counted.
    pub flaps: u64,
    /// Late observations dropped.
    pub late_drops: u64,
    /// Owners re-run through the incremental classifier.
    pub reclassified_owners: u64,
    /// Final stream cursor (bytes delivered and folded).
    pub cursor: u64,
    /// Windowed labels at the end of the run.
    pub windowed_labels: FxHashMap<Community, Intent>,
    /// Cumulative statistics over everything delivered.
    pub stats: PathStats,
    /// Full classification of the cumulative statistics — the object the
    /// batch-parity check compares against a batch run.
    pub inference: Inference,
    /// Decode accounting. `aborted` is set when the stream aborted (the
    /// reconnect or decode error budget ran out); the run still reports,
    /// but flushes no final checkpoint.
    pub report: IngestReport,
    /// Delivery-layer counters (reconnects, stalls, backpressure, queue
    /// peak).
    pub counters: Arc<StreamCounters>,
}

/// Why [`run_watch`] refused to start or could not finish. An aborted
/// stream is not one of them: it ends the run with
/// [`IngestReport::aborted`] set, as the batch readers report it.
#[derive(Debug)]
pub enum WatchError {
    /// The checkpoint could not be loaded (unreadable, corrupt, or another
    /// schema).
    Checkpoint(CheckpointLoadError),
    /// The checkpoint was written under another window geometry.
    Geometry(String),
    /// Writing a checkpoint failed.
    Save(io::Error),
}

impl WatchError {
    /// Whether the checkpoint existed but its *contents* were refused, as
    /// [`CheckpointLoadError::is_invalid_data`] tells it.
    pub fn is_invalid_data(&self) -> bool {
        match self {
            WatchError::Checkpoint(e) => e.is_invalid_data(),
            WatchError::Geometry(_) => true,
            WatchError::Save(_) => false,
        }
    }
}

impl fmt::Display for WatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchError::Checkpoint(e) => e.fmt(f),
            WatchError::Geometry(detail) => f.write_str(detail),
            WatchError::Save(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WatchError {}

/// Record the run's series into `metrics` (end-of-run totals, matching the
/// batch pipeline's convention).
fn record_watch_metrics(
    metrics: &MetricsRegistry,
    outcome_counters: &StreamCounters,
    classifier: &WindowedClassifier,
    records: u64,
    observations: u64,
    report: &IngestReport,
) {
    metrics.counter("watch/records").add(records);
    metrics.counter("watch/observations").add(observations);
    metrics
        .counter("watch/windows_advanced")
        .add(classifier.advances());
    metrics
        .counter("watch/late_drops")
        .add(classifier.late_drops());
    metrics.counter("classify/flaps").add(classifier.flaps());
    metrics
        .counter("classify/reclassified_owners")
        .add(classifier.reclassified_owners());
    let c = outcome_counters;
    metrics
        .counter("ingest/backpressure_stalls")
        .add(c.backpressure_stalls.load(Ordering::SeqCst));
    metrics
        .counter("stream/connections")
        .add(c.connections.load(Ordering::SeqCst));
    metrics
        .counter("stream/reconnects")
        .add(c.reconnects.load(Ordering::SeqCst));
    metrics
        .counter("stream/stalls")
        .add(c.stalls.load(Ordering::SeqCst));
    metrics
        .counter("stream/disconnects")
        .add(c.disconnects.load(Ordering::SeqCst));
    metrics
        .counter("stream/delivered_bytes")
        .add(c.delivered_bytes.load(Ordering::SeqCst));
    metrics
        .gauge("stream/queue_peak_bytes")
        .set(i64::try_from(c.queue_peak_bytes.load(Ordering::SeqCst)).unwrap_or(i64::MAX));
    report.record_metrics(metrics);
}

/// Run the streaming daemon over `source` until shutdown, the quiescent
/// point ([`StreamTuning::quiesce_after`]), or an abort (reconnect or
/// decode error budget exhausted, reported in the outcome's
/// [`IngestReport::aborted`]).
///
/// The loop per decoded record: fold each observation into the windowed
/// classifier (advance-before-fold) and the cumulative accumulator; at
/// record boundaries after a window advance, honor the crash injection and
/// write a checkpoint (only ever at record boundaries, so the cursor is
/// consistent with exactly the folds performed). On exit a final
/// reclassification brings labels up to date with the head bucket, a final
/// checkpoint is flushed unless the stream aborted, and metrics are
/// recorded — the same path for graceful shutdown, quiesce and abort.
pub fn run_watch<S: StreamSource>(
    source: S,
    siblings: &SiblingMap,
    opts: &WatchOptions,
    shutdown: Arc<AtomicBool>,
) -> Result<WatchOutcome, WatchError> {
    let mut resumed = false;
    let (mut classifier, mut cumulative, cursor_base, base_records, mut observations) =
        match opts.checkpoint.as_deref() {
            Some(path) if path.exists() => {
                let cp = WatchCheckpoint::load(path).map_err(WatchError::Checkpoint)?;
                if cp.window_secs != opts.window.window_secs || cp.windows != opts.window.windows {
                    return Err(WatchError::Geometry(format!(
                        "checkpoint window geometry {}s x {} does not match requested {}s x {}",
                        cp.window_secs, cp.windows, opts.window.window_secs, opts.window.windows
                    )));
                }
                resumed = true;
                (
                    WindowedClassifier::from_checkpoint(&cp, opts.infer.clone()),
                    StatsAccumulator::from_snapshot(cp.cumulative, siblings),
                    cp.cursor,
                    cp.records,
                    cp.observations,
                )
            }
            _ => (
                WindowedClassifier::new(opts.window, opts.infer.clone()),
                StatsAccumulator::new(),
                0,
                0,
                0,
            ),
        };

    let counters = Arc::new(StreamCounters::default());
    let stream = ResumingStream::new(
        source,
        opts.tuning.clone(),
        cursor_base,
        shutdown,
        counters.clone(),
    );
    let mut decoder = StreamDecoder::new(stream, opts.recover.clone());

    let mut batch: Vec<Observation> = Vec::new();
    loop {
        batch.clear();
        if decoder.next_record(&mut batch).is_none() {
            break;
        }
        let mut advanced = false;
        for obs in &batch {
            advanced |= classifier.observe(obs, siblings);
        }
        if !batch.is_empty() {
            cumulative.ingest_ordered(&batch, siblings);
            observations += batch.len() as u64;
        }
        if let Some(pause) = opts.slow_fold {
            std::thread::sleep(pause);
        }
        if advanced {
            if let Some(after) = opts.crash_after_windows {
                if classifier.advances() >= after {
                    // Simulated SIGKILL for crash-recovery tests: no
                    // checkpoint flush, no teardown, exit code 9 (mirrors
                    // 128+SIGKILL conventions without raising a signal).
                    std::process::exit(9);
                }
            }
            if let Some(path) = opts.checkpoint.as_deref() {
                let cursor = cursor_base + decoder.consumed_bytes();
                let records = base_records + decoder.records_decoded();
                WatchCheckpoint::capture(&classifier, &cumulative, cursor, records, observations)
                    .save_atomic(path)
                    .map_err(WatchError::Save)?;
            }
        }
    }

    // Bring labels up to date with the head bucket's folds. A quiescent or
    // shutting-down run then flushes a final checkpoint so a restart
    // resumes from here instead of re-delivering the tail; an aborted one
    // keeps the last checkpoint written before the abort.
    let report = decoder.report();
    classifier.reclassify(siblings);
    let cursor = cursor_base + decoder.consumed_bytes();
    let records = base_records + decoder.records_decoded();
    if let (Some(path), None) = (opts.checkpoint.as_deref(), &report.aborted) {
        WatchCheckpoint::capture(&classifier, &cumulative, cursor, records, observations)
            .save_atomic(path)
            .map_err(WatchError::Save)?;
    }

    let stats = cumulative.to_stats();
    let inference = classify(&stats, siblings, &opts.infer);
    if let Some(metrics) = opts.metrics.as_deref() {
        record_watch_metrics(
            metrics,
            &counters,
            &classifier,
            records,
            observations,
            &report,
        );
    }
    Ok(WatchOutcome {
        resumed,
        records,
        observations,
        advances: classifier.advances(),
        flaps: classifier.flaps(),
        late_drops: classifier.late_drops(),
        reclassified_owners: classifier.reclassified_owners(),
        cursor,
        windowed_labels: classifier.labels().clone(),
        stats,
        inference,
        report,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_mrt::stream::MemoryFeed;
    use bgp_types::Asn;

    fn obs(vp: u32, path: &str, comms: &[(u16, u16)], time: u32) -> Observation {
        Observation {
            vp: Asn::new(vp),
            prefix: "10.0.0.0/24".parse().unwrap(),
            path: path.parse().unwrap(),
            communities: comms.iter().map(|&(a, b)| Community::new(a, b)).collect(),
            large_communities: Vec::new(),
            time,
        }
    }

    /// A churn workload: owner 100's community 100:10 alternates between
    /// information-looking windows (only on-path sightings) and
    /// action-looking windows (off-path sightings appear); owner 200 stays
    /// stable; owner 300 appears and disappears. Window width 100s.
    fn churn_stream() -> Vec<Observation> {
        let mut all = Vec::new();
        for w in 0u32..8 {
            let t = w * 100 + 5;
            // Keep owners on some path every window so exclusion stays off.
            all.push(obs(900, "900 100 999", &[], t));
            all.push(obs(900, "900 200 999", &[], t));
            if w % 2 == 0 {
                // Information-looking: 100:10 only on paths through 100.
                all.push(obs(
                    901,
                    &format!("901 100 {}", 600 + w),
                    &[(100, 10)],
                    t + 1,
                ));
                all.push(obs(
                    902,
                    &format!("902 100 {}", 700 + w),
                    &[(100, 10)],
                    t + 2,
                ));
            } else {
                // Action-looking: 100:10 rides paths avoiding 100 too.
                all.push(obs(903, &format!("903 {}", 800 + w), &[(100, 10)], t + 1));
                all.push(obs(
                    901,
                    &format!("901 100 {}", 600 + w),
                    &[(100, 10)],
                    t + 2,
                ));
            }
            // Stable information community.
            all.push(obs(904, "904 200 650", &[(200, 30)], t + 3));
            if w % 3 == 0 {
                all.push(obs(905, "905 300 660", &[(300, 40)], t + 4));
            }
        }
        all
    }

    fn window_cfg() -> WindowConfig {
        WindowConfig {
            window_secs: 100,
            windows: 2,
        }
    }

    #[test]
    fn incremental_reclassify_matches_full_classify() {
        let siblings = SiblingMap::default();
        let cfg = InferenceConfig {
            threads: 1,
            ..InferenceConfig::default()
        };
        let mut wc = WindowedClassifier::new(window_cfg(), cfg.clone());
        for (i, o) in churn_stream().iter().enumerate() {
            wc.observe(o, &siblings);
            // Pin the invariant at several mid-stream points, not only at
            // the end: after a manual reclassify the incremental maps must
            // equal a full classify over the windowed statistics.
            if i % 5 == 4 {
                wc.reclassify(&siblings);
                let full = classify(&wc.windowed_stats(&siblings), &siblings, &cfg);
                assert_eq!(wc.labels(), &full.labels, "labels diverged at obs {i}");
                assert_eq!(
                    wc.excluded(),
                    &full.excluded,
                    "exclusions diverged at obs {i}"
                );
            }
        }
        wc.reclassify(&siblings);
        let full = classify(&wc.windowed_stats(&siblings), &siblings, &cfg);
        assert_eq!(wc.labels(), &full.labels);
        assert_eq!(wc.excluded(), &full.excluded);
        assert!(wc.advances() >= 7, "windows advanced: {}", wc.advances());
        assert!(wc.flaps() > 0, "churn scenario must flap");
        // Incrementality is real: strictly fewer owner runs than a full
        // pass every advance would cost (3+ owners x 7+ advances).
        assert!(
            wc.reclassified_owners() < 3 * wc.advances(),
            "reclassified {} owners over {} advances — not incremental",
            wc.reclassified_owners(),
            wc.advances()
        );
    }

    #[test]
    fn flaps_deterministic_across_thread_counts() {
        let siblings = SiblingMap::default();
        let stream = churn_stream();
        let mut baseline: Option<(u64, FxHashMap<Community, Intent>)> = None;
        for threads in [1usize, 2, 8] {
            let cfg = InferenceConfig {
                threads,
                ..InferenceConfig::default()
            };
            let mut wc = WindowedClassifier::new(window_cfg(), cfg);
            for o in &stream {
                wc.observe(o, &siblings);
            }
            wc.reclassify(&siblings);
            match &baseline {
                None => baseline = Some((wc.flaps(), wc.labels().clone())),
                Some((flaps, labels)) => {
                    assert_eq!(wc.flaps(), *flaps, "flaps differ at threads={threads}");
                    assert_eq!(wc.labels(), labels, "labels differ at threads={threads}");
                }
            }
        }
        assert!(baseline.unwrap().0 > 0);
    }

    #[test]
    fn flaps_survive_checkpoint_resume() {
        let siblings = SiblingMap::default();
        let cfg = InferenceConfig {
            threads: 1,
            ..InferenceConfig::default()
        };
        let stream = churn_stream();

        let mut uninterrupted = WindowedClassifier::new(window_cfg(), cfg.clone());
        let mut cumulative_a = StatsAccumulator::new();
        for o in &stream {
            uninterrupted.observe(o, &siblings);
            cumulative_a.ingest_ordered(std::slice::from_ref(o), &siblings);
        }
        uninterrupted.reclassify(&siblings);

        // Crash at every possible boundary: the resumed run must always
        // land on the identical flap count and label map.
        for cut in [3usize, 9, 17, 25] {
            let mut before = WindowedClassifier::new(window_cfg(), cfg.clone());
            let mut cumulative_b = StatsAccumulator::new();
            for o in &stream[..cut] {
                before.observe(o, &siblings);
                cumulative_b.ingest_ordered(std::slice::from_ref(o), &siblings);
            }
            let cp = WatchCheckpoint::capture(&before, &cumulative_b, 0, 0, cut as u64);
            let mut resumed = WindowedClassifier::from_checkpoint(&cp, cfg.clone());
            let mut cumulative_r = StatsAccumulator::from_snapshot(cp.cumulative, &siblings);
            for o in &stream[cut..] {
                resumed.observe(o, &siblings);
                cumulative_r.ingest_ordered(std::slice::from_ref(o), &siblings);
            }
            resumed.reclassify(&siblings);
            assert_eq!(
                resumed.flaps(),
                uninterrupted.flaps(),
                "flaps differ, cut={cut}"
            );
            assert_eq!(
                resumed.labels(),
                uninterrupted.labels(),
                "labels differ, cut={cut}"
            );
            assert_eq!(
                cumulative_r.to_stats(),
                cumulative_a.to_stats(),
                "cumulative stats differ, cut={cut}"
            );
        }
    }

    #[test]
    fn late_observations_fold_or_drop_deterministically() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(
            WindowConfig {
                window_secs: 100,
                windows: 2,
            },
            InferenceConfig::default(),
        );
        wc.observe(&obs(1, "1 100 2", &[(100, 1)], 50), &siblings); // bucket 0
        wc.observe(&obs(1, "1 100 3", &[(100, 1)], 550), &siblings); // bucket 5
                                                                     // Late but retained (bucket 4): folds, no drop.
        wc.observe(&obs(1, "1 100 4", &[(100, 2)], 450), &siblings);
        assert_eq!(wc.late_drops(), 0);
        assert_eq!(wc.bucket_count(), 2);
        // Evicted bucket (0): dropped and counted, never folded.
        wc.observe(&obs(1, "1 100 5", &[(100, 3)], 60), &siblings);
        assert_eq!(wc.late_drops(), 1);
        let stats = wc.windowed_stats(&siblings);
        assert!(stats.counts(Community::new(100, 2)).is_some());
        assert!(stats.counts(Community::new(100, 3)).is_none());
    }

    #[test]
    fn watch_checkpoint_roundtrips_and_rejects_damage() {
        let siblings = SiblingMap::default();
        let mut wc = WindowedClassifier::new(window_cfg(), InferenceConfig::default());
        let mut cumulative = StatsAccumulator::new();
        for o in &churn_stream()[..12] {
            wc.observe(o, &siblings);
            cumulative.ingest_ordered(std::slice::from_ref(o), &siblings);
        }
        let cp = WatchCheckpoint::capture(&wc, &cumulative, 777, 12, 12);

        let dir = std::env::temp_dir().join(format!("bgp-watch-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("watch.json");
        cp.save_atomic(&path).unwrap();
        let loaded = WatchCheckpoint::load(&path).unwrap();
        assert_eq!(loaded.cursor, 777);
        assert_eq!(loaded.flaps, cp.flaps);
        assert_eq!(loaded.labels, cp.labels);
        assert_eq!(loaded.buckets.len(), cp.buckets.len());

        // One flipped byte inside the payload must be rejected.
        let mut raw = std::fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] = raw[mid].wrapping_add(1);
        std::fs::write(&path, &raw).unwrap();
        let err = WatchCheckpoint::load(&path).unwrap_err();
        assert!(err.is_invalid_data(), "got: {err}");

        // Missing file is a clean not-found, the fresh-start signal.
        std::fs::remove_file(&path).unwrap();
        assert!(WatchCheckpoint::load(&path).unwrap_err().is_not_found());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// End-to-end over an in-memory feed: the daemon's cumulative
    /// classification at the quiescent point equals a batch run over the
    /// same bytes, and the rolling machinery (advances, checkpoints)
    /// actually engaged.
    #[test]
    fn run_watch_matches_batch_over_memory_feed() {
        use bgp_experiments::scenario::{Scenario, ScenarioConfig};

        let scenario = Scenario::build(&ScenarioConfig {
            seed: 0x57A7C4,
            scale: 0.08,
            ..ScenarioConfig::default()
        });
        let sim = scenario.simulator();
        let mut wire = Vec::new();
        scenario.stream_collect(&sim, 4, &mut wire).unwrap();
        let bytes = Arc::new(wire);

        let dir = std::env::temp_dir().join(format!("bgp-watch-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cp_path = dir.join("watch.json");
        let _ = std::fs::remove_file(&cp_path);

        let opts = WatchOptions {
            window: WindowConfig {
                window_secs: 14_400,
                windows: 3,
            },
            infer: InferenceConfig {
                threads: 1,
                ..InferenceConfig::default()
            },
            tuning: StreamTuning {
                queue_bytes: 64 << 10,
                chunk_bytes: 8 << 10,
                stall_timeout: Duration::from_millis(200),
                quiesce_after: Some(2),
                ..StreamTuning::default()
            },
            checkpoint: Some(cp_path.clone()),
            ..WatchOptions::default()
        };
        let outcome = run_watch(
            MemoryFeed::new(bytes.clone()),
            &scenario.siblings,
            &opts,
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();

        assert!(outcome.advances > 0, "windows must advance");
        assert_eq!(outcome.cursor, bytes.len() as u64);
        assert!(cp_path.exists(), "final checkpoint must be flushed");

        // Batch over the same bytes, through the same accumulator
        // semantics the streaming side uses.
        let observations = bgp_mrt::obs::read_observations(&bytes[..]).unwrap();
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&observations, &scenario.siblings);
        let batch = classify(&acc.to_stats(), &scenario.siblings, &opts.infer);
        assert_eq!(outcome.stats, acc.to_stats());
        assert_eq!(outcome.inference.labels, batch.labels);
        assert_eq!(outcome.inference.excluded, batch.excluded);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
