//! Crash-safe incremental runs: an exact, mergeable statistics state and
//! an atomic checkpoint manifest.
//!
//! Long supervised runs over hundreds of archives must survive a crash —
//! OOM kill, power loss, a poisoned worker — without redoing days of
//! ingestion. The pieces here make that possible:
//!
//! * [`StatsAccumulator`] folds observations file-by-file into an exact
//!   state: the interned AS paths and community sets it has seen (the
//!   same [`Interner`] an [`ObservationStore`] uses) and the unique
//!   `(path ID, cset ID)` tuples, in first-seen order. Its
//!   [`to_stats`](StatsAccumulator::to_stats) runs the batch statistics
//!   kernel over those tuples, so per-file states merge into the same
//!   [`PathStats`] a single-shot reduction produces — batch, checkpoint,
//!   shard and watch share one stats engine (see "Why interned tuples").
//! * [`Checkpoint`] records which input files completed (with a
//!   byte-length + FNV-1a fingerprint each, via [`fingerprint_file`]), the
//!   ingest accounting so far, and the accumulator. [`Checkpoint::save_atomic`]
//!   writes temp-file-then-rename so a crash mid-write leaves the previous
//!   checkpoint intact, never a torn one.
//!
//! # On-disk format
//!
//! `Checkpoint` and the watch daemon's
//! [`WatchCheckpoint`](crate::watch::WatchCheckpoint) share one sealed
//! binary envelope and one loader:
//!
//! ```text
//! magic      [u8; 8]   "BGPCKPT\0" (batch / shard) or "BGPWTCH\0" (watch)
//! schema     u32 LE
//! seal       u64 LE    FNV-1a 64 over the whole file, this slot zeroed
//! header_len u64 LE
//! header     [u8; header_len]   compact JSON: every small field
//! columns    one block per StatsAccumulator, in a fixed order:
//!   n_paths, n_segs, n_asns, n_csets, n_communities, n_tuples   u64 LE each
//!   path_seg_ends [u32 LE; n_paths]   each path's end offset into segs
//!   path_asn_ends [u32 LE; n_paths]   each path's end offset into asns
//!   segs   per segment: tag u8, ASN count u32 LE
//!   asns   [u32 LE; n_asns]
//!   cset_ends [u32 LE; n_csets]       each set's end offset into communities
//!   communities [u32 LE; n_communities]   asn << 16 | value
//!   tuples per tuple: path ID u32 LE, cset ID u32 LE
//! ```
//!
//! The columns are the interner's own flat pools, written in ID order, so
//! encoding is a copy. The loader checks, in order: magic, schema, seal,
//! header, then each column block, testing every recorded length against
//! the bytes that remain before allocating for it, and refuses trailing
//! bytes. Within a block it refuses offsets that decrease or do not end at
//! their pool's length, unknown segment tags, segment counts that do not
//! sum to their path's ASN count, duplicate paths, sets or tuples, tuple
//! IDs out of range, and paths or sets no tuple uses — so a loaded state
//! is always one some sequence of folds could have built. A JSON manifest
//! from an older build (it starts with `{`) is refused as
//! [`CheckpointLoadError::LegacyJson`].
//!
//! # Why interned tuples
//!
//! [`PathStats`] merging by summing counts is only exact when every
//! occurrence of an AS path lands in the same shard (the invariant of the
//! hash-sharded parallel reduction). Per-*file* partials violate it: the
//! same path appears in many files, and summing would double-count unique
//! paths. The accumulator keeps the paths themselves instead: merging
//! re-interns the other state's unique paths and community sets, exactly
//! (a fingerprint only picks the probe slot), remaps its tuples, and drops
//! the ones already present. A path seen in ten files is one path, and
//! two distinct paths are never one.
//!
//! The on-path test runs in [`to_stats`](StatsAccumulator::to_stats), not
//! at fold time, so the stored state does not depend on the sibling map:
//! a run resumed under a different `--siblings` counts every file under
//! the map it was given.

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use bgp_mrt::IngestReport;
use bgp_relationships::SiblingMap;
use bgp_types::aspath::{SEG_SEQUENCE, SEG_SET};
use bgp_types::durable::{fnv1a, write_atomic, FNV_OFFSET};
use bgp_types::fx::FxHashSet;
use bgp_types::store::{Interner, ObservationStore};
use bgp_types::{AsPathView, Community, Observation};
use serde::{Deserialize, Serialize};

use crate::stats::PathStats;

/// Version stamp inside every checkpoint file; bump on layout changes so a
/// resume against an incompatible manifest refuses instead of misreading.
/// Schema 2 added the mandatory payload `checksum`; schema 3 replaced the
/// JSON manifest with the sealed binary envelope; schema 4 replaced the
/// fingerprint columns with the interned paths, community sets and tuple
/// column (see "On-disk format").
pub const CHECKPOINT_SCHEMA: u32 = 4;

/// Incrementally built path statistics: exact, and mergeable across files.
///
/// Feed it observations in any grouping and any order
/// ([`ingest_ordered`] or [`ingest_store`] per file, [`merge`] across
/// partial accumulators); [`to_stats`] yields the same [`PathStats`] as a
/// one-shot [`PathStats::from_observations`] over the concatenated input.
/// The state itself — and so its checkpoint bytes — depends only on the
/// sequence of observations folded in: IDs and tuples are in first-seen
/// order.
///
/// The on-path test runs in [`to_stats`] under the sibling map the
/// accumulator holds: the one [`from_snapshot`] was given, or else the
/// first one an ingest call (or a merged-in accumulator) brought. A run
/// uses one map throughout; a later call with a different map does not
/// replace it.
///
/// [`ingest_ordered`]: StatsAccumulator::ingest_ordered
/// [`ingest_store`]: StatsAccumulator::ingest_store
/// [`merge`]: StatsAccumulator::merge
/// [`to_stats`]: StatsAccumulator::to_stats
/// [`from_snapshot`]: StatsAccumulator::from_snapshot
#[derive(Debug, Clone, Default)]
pub struct StatsAccumulator {
    /// Every AS path and community set folded in, by dense ID.
    interner: Interner,
    /// The unique `(path ID, cset ID)` tuples, in first-seen order.
    tuples: Vec<(u32, u32)>,
    /// `tuples` as packed keys, for dedup.
    seen: FxHashSet<u64>,
    /// The map [`to_stats`](Self::to_stats) runs the on-path test under.
    siblings: Option<SiblingMap>,
}

/// Equal states: the same paths, community sets and tuples under the same
/// IDs. The sibling map is the run's configuration, not state, and is not
/// compared (a loaded checkpoint holds none).
impl PartialEq for StatsAccumulator {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.interner, &other.interner);
        self.tuples == other.tuples
            && a.path_count() == b.path_count()
            && a.cset_count() == b.cset_count()
            && (0..a.path_count() as u32).all(|id| a.path_view(id) == b.path_view(id))
            && (0..a.cset_count() as u32).all(|id| a.cset(id) == b.cset(id))
    }
}

impl StatsAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// `snapshot` (typically a loaded checkpoint's state) with the on-path
    /// test set to run under `siblings` — the resume path. Whatever map
    /// the state was folded under before does not matter: the state holds
    /// no on-path decisions.
    pub fn from_snapshot(snapshot: StatsAccumulator, siblings: &SiblingMap) -> Self {
        StatsAccumulator {
            siblings: Some(siblings.clone()),
            ..snapshot
        }
    }

    /// Fold observations in, in the order given.
    pub fn ingest_ordered(&mut self, observations: &[Observation], siblings: &SiblingMap) {
        self.adopt(siblings);
        for obs in observations {
            let path = self.interner.intern_owned_path(&obs.path);
            let cset = self.interner.intern_cset(&obs.communities);
            self.insert(path, cset);
        }
    }

    /// Fold a columnar [`ObservationStore`] in — the path used when MRT
    /// decoding folded straight into a store. The store's unique paths and
    /// community sets are re-interned once each, then its rows are folded
    /// in order. The resulting state, IDs included, is the one
    /// [`ingest_ordered`](Self::ingest_ordered) builds from the same
    /// observations.
    pub fn ingest_store(&mut self, store: &ObservationStore, siblings: &SiblingMap) {
        self.adopt(siblings);
        self.absorb(store.interner(), store.tuples());
    }

    /// Union another accumulator in: re-intern its unique paths and
    /// community sets, remap its tuples, and keep the new ones. Merge order
    /// changes IDs, never [`to_stats`](Self::to_stats).
    pub fn merge(&mut self, other: &StatsAccumulator) {
        if let Some(siblings) = &other.siblings {
            self.adopt(siblings);
        }
        self.absorb(&other.interner, other.tuples.iter().copied());
    }

    fn adopt(&mut self, siblings: &SiblingMap) {
        if self.siblings.is_none() {
            self.siblings = Some(siblings.clone());
        }
    }

    fn absorb(&mut self, interner: &Interner, tuples: impl Iterator<Item = (u32, u32)>) {
        let (paths, csets) = self.interner.remap(interner);
        for (path, cset) in tuples {
            self.insert(paths[path as usize], csets[cset as usize]);
        }
    }

    fn insert(&mut self, path: u32, cset: u32) {
        if self.seen.insert((u64::from(path) << 32) | u64::from(cset)) {
            self.tuples.push((path, cset));
        }
    }

    /// The same state without the sibling map — what a checkpoint stores.
    pub(crate) fn detached(&self) -> Self {
        StatsAccumulator {
            interner: self.interner.clone(),
            tuples: self.tuples.clone(),
            seen: self.seen.clone(),
            siblings: None,
        }
    }

    /// Collapse to the [`PathStats`] the classifier consumes, with the
    /// on-path test under the accumulator's sibling map (none: no
    /// siblings).
    pub fn to_stats(&self) -> PathStats {
        self.stats_under(self.siblings.as_ref().unwrap_or(&SiblingMap::default()))
    }

    /// [`to_stats`](Self::to_stats) under an explicit sibling map: the
    /// batch kernel over the unique tuples.
    pub(crate) fn stats_under(&self, siblings: &SiblingMap) -> PathStats {
        PathStats::from_tuples(&self.interner, || self.tuples.iter().copied(), siblings, 1)
    }
}

/// Byte length + FNV-1a 64 hash of a file's contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileFingerprint {
    /// File length in bytes.
    pub bytes: u64,
    /// FNV-1a 64 over the contents.
    pub hash: u64,
}

/// Fingerprint a file by streaming its contents (FNV-1a 64).
pub fn fingerprint_file(path: &Path) -> io::Result<FileFingerprint> {
    let mut file = File::open(path)?;
    let mut buf = [0u8; 64 * 1024];
    let mut hash: u64 = FNV_OFFSET;
    let mut bytes: u64 = 0;
    loop {
        let n = match file.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        bytes += n as u64;
        hash = fnv1a(hash, &buf[..n]);
    }
    Ok(FileFingerprint { bytes, hash })
}

/// One input file recorded as fully ingested.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedFile {
    /// The file path as given on the command line.
    pub path: String,
    /// Its [`FileFingerprint`] at ingest time.
    pub fingerprint: FileFingerprint,
}

/// Why loading a checkpoint (or shard artifact) was refused. Corruption is
/// always a clean typed error — never a panic, never silently-partial
/// state folded into a run.
#[derive(Debug)]
pub enum CheckpointLoadError {
    /// The file could not be read at all (missing, permissions, I/O).
    Io {
        /// The manifest path.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The bytes on disk are not a well-formed manifest: bad magic,
    /// truncated file, a seal (payload checksum) mismatch from bit rot or a
    /// torn write, an unparsable header, a column length that overruns the
    /// file, or trailing bytes.
    Corrupt {
        /// The manifest path.
        path: PathBuf,
        /// What exactly failed to validate.
        detail: String,
    },
    /// A well-formed manifest written by an incompatible layout version.
    SchemaMismatch {
        /// The manifest path.
        path: PathBuf,
        /// The schema recorded in the file.
        found: u32,
        /// The schema this build reads and writes.
        expected: u32,
    },
    /// A JSON manifest written by a build that predates the binary
    /// envelope (batch schema 2, watch schema 1). Refused, never
    /// migrated: delete it, or finish that run with the older binary.
    LegacyJson {
        /// The manifest path.
        path: PathBuf,
    },
}

impl CheckpointLoadError {
    /// Whether the file existed but its *contents* were rejected
    /// (corruption or schema) — the cases a caller should surface as a
    /// refused checkpoint rather than a generic I/O failure.
    pub fn is_invalid_data(&self) -> bool {
        !matches!(self, CheckpointLoadError::Io { .. })
    }

    /// Whether the underlying failure is that the file does not exist.
    pub fn is_not_found(&self) -> bool {
        matches!(self, CheckpointLoadError::Io { source, .. }
                 if source.kind() == io::ErrorKind::NotFound)
    }
}

impl fmt::Display for CheckpointLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointLoadError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CheckpointLoadError::Corrupt { path, detail } => {
                write!(
                    f,
                    "{}: corrupt or truncated checkpoint ({detail})",
                    path.display()
                )
            }
            CheckpointLoadError::SchemaMismatch {
                path,
                found,
                expected,
            } => {
                write!(
                    f,
                    "{}: checkpoint schema {found} (this build writes {expected})",
                    path.display()
                )
            }
            CheckpointLoadError::LegacyJson { path } => {
                write!(
                    f,
                    "{}: pre-binary JSON checkpoint from an older build; \
                     delete it, or finish that run with the older binary",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for CheckpointLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointLoadError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The crash-safe run manifest: which files are done, the accounting so
/// far, and the statistics state to resume from.
///
/// On disk it is the sealed binary envelope (module docs, "On-disk
/// format"): the small fields travel in the JSON header, `snapshot` as
/// the one column block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Layout version ([`CHECKPOINT_SCHEMA`]), stored in the envelope
    /// prelude.
    #[serde(skip)]
    pub schema: u32,
    /// FNV-1a 64 over the written file with the seal slot zeroed —
    /// recomputed on load so a truncated or bit-flipped manifest is
    /// rejected instead of resuming from silently-wrong state. Filled in
    /// by [`load`](Self::load); ignored by [`save_atomic`](Self::save_atomic),
    /// which always writes a fresh seal.
    #[serde(skip)]
    pub checksum: u64,
    /// Files fully ingested, in completion (= input) order. Files that
    /// failed (open error, abort, worker panic) are *not* recorded, so a
    /// resumed run retries them.
    pub files: Vec<CompletedFile>,
    /// Merged ingest accounting over the completed files.
    pub report: IngestReport,
    /// The statistics state over the completed files (the column block).
    /// A loaded checkpoint's state holds no sibling map; resume it with
    /// [`StatsAccumulator::from_snapshot`].
    #[serde(skip)]
    pub snapshot: StatsAccumulator,
}

impl Default for Checkpoint {
    fn default() -> Self {
        Checkpoint {
            schema: CHECKPOINT_SCHEMA,
            checksum: 0,
            files: Vec::new(),
            report: IngestReport::default(),
            snapshot: StatsAccumulator::default(),
        }
    }
}

impl Checkpoint {
    /// A fresh, empty manifest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `path` is already recorded, and with which fingerprint.
    pub fn completed(&self, path: &str) -> Option<&FileFingerprint> {
        self.files
            .iter()
            .find(|f| f.path == path)
            .map(|f| &f.fingerprint)
    }

    /// The seal [`save_atomic`](Self::save_atomic) would embed: FNV-1a 64
    /// over the encoded file with the seal slot zeroed. Independent of the
    /// `checksum` field itself.
    pub fn payload_checksum(&self) -> u64 {
        seal_of(&encode_sealed(self))
    }

    /// Encode and seal the manifest, then [`write_atomic`]. A crash at any
    /// point leaves either the previous checkpoint or the new one — never
    /// a torn file.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        save_sealed(self, path)
    }

    /// Load and validate a manifest: magic, schema, seal, header, then the
    /// column block. Truncation, bit flips, forged lengths and pre-binary
    /// JSON manifests are rejected with a typed [`CheckpointLoadError`] —
    /// never a panic, never partial state.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointLoadError> {
        load_sealed(path)
    }
}

impl Sealed for Checkpoint {
    const MAGIC: [u8; 8] = *b"BGPCKPT\0";
    const SCHEMA: u32 = CHECKPOINT_SCHEMA;

    fn schema(&self) -> u32 {
        self.schema
    }

    fn set_prelude(&mut self, schema: u32, checksum: u64) {
        self.schema = schema;
        self.checksum = checksum;
    }

    fn columns(&self) -> Vec<&StatsAccumulator> {
        vec![&self.snapshot]
    }

    fn columns_mut(&mut self) -> Vec<&mut StatsAccumulator> {
        vec![&mut self.snapshot]
    }
}

/// A manifest stored as the sealed binary envelope described in the
/// module docs ("On-disk format"): [`Checkpoint`] (and so every shard
/// artifact) and the watch daemon's checkpoint. The header is the value's
/// own serde form, with the column fields and `schema`/`checksum`
/// `#[serde(skip)]`ped.
pub(crate) trait Sealed: Serialize + for<'de> Deserialize<'de> {
    /// File magic: which manifest kind this is.
    const MAGIC: [u8; 8];
    /// The layout version this build reads and writes.
    const SCHEMA: u32;
    /// The layout version recorded in this value.
    fn schema(&self) -> u32;
    /// Store the prelude's schema and seal into a freshly loaded value.
    fn set_prelude(&mut self, schema: u32, checksum: u64);
    /// The column blocks, in file order.
    fn columns(&self) -> Vec<&StatsAccumulator>;
    /// Slots for the column blocks, in file order, once the header has
    /// been parsed (it fixes how many there are).
    fn columns_mut(&mut self) -> Vec<&mut StatsAccumulator>;
}

const SCHEMA_AT: usize = 8;
const SEAL_AT: usize = 12;
const HEADER_LEN_AT: usize = 20;
const PRELUDE_LEN: usize = 28;
/// Bytes per encoded segment: tag u8, ASN count u32.
const SEG_LEN: usize = 5;

/// Element counts of one column block, in header order.
struct BlockCounts {
    paths: usize,
    segs: usize,
    asns: usize,
    csets: usize,
    communities: usize,
    tuples: usize,
}

impl BlockCounts {
    fn of(acc: &StatsAccumulator) -> Self {
        let it = &acc.interner;
        let (mut segs, mut asns) = (0, 0);
        for id in 0..it.path_count() as u32 {
            let path = it.path_view(id);
            segs += path.segs.len();
            asns += path.asns.len();
        }
        BlockCounts {
            paths: it.path_count(),
            segs,
            asns,
            csets: it.cset_count(),
            communities: (0..it.cset_count() as u32)
                .map(|id| it.cset(id).len())
                .sum(),
            tuples: acc.tuples.len(),
        }
    }

    fn encoded_len(&self) -> usize {
        6 * 8
            + 2 * 4 * self.paths
            + SEG_LEN * self.segs
            + 4 * (self.asns + self.csets + self.communities)
            + 8 * self.tuples
    }
}

fn put_len(buf: &mut Vec<u8>, n: usize) {
    buf.extend_from_slice(&(n as u64).to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Write each item's running end offset, `len(item)` summed.
fn put_ends(buf: &mut Vec<u8>, lens: impl Iterator<Item = usize>) {
    let mut end = 0;
    for len in lens {
        end += len;
        put_u32(buf, end as u32);
    }
}

fn encode_column(acc: &StatsAccumulator, counts: &BlockCounts, buf: &mut Vec<u8>) {
    let it = &acc.interner;
    for n in [
        counts.paths,
        counts.segs,
        counts.asns,
        counts.csets,
        counts.communities,
        counts.tuples,
    ] {
        put_len(buf, n);
    }
    let paths = || (0..it.path_count() as u32).map(|id| it.path_view(id));
    let csets = || (0..it.cset_count() as u32).map(|id| it.cset(id));
    put_ends(buf, paths().map(|p| p.segs.len()));
    put_ends(buf, paths().map(|p| p.asns.len()));
    for path in paths() {
        for &(tag, len) in path.segs {
            buf.push(tag);
            put_u32(buf, len);
        }
    }
    for path in paths() {
        path.asns.iter().for_each(|&a| put_u32(buf, a));
    }
    put_ends(buf, csets().map(<[Community]>::len));
    for cset in csets() {
        cset.iter().for_each(|c| put_u32(buf, c.to_u32()));
    }
    for &(path, cset) in &acc.tuples {
        put_u32(buf, path);
        put_u32(buf, cset);
    }
}

/// Encode `value` as a sealed envelope, straight from the borrow: one
/// pass, one allocation sized up front, then the seal.
pub(crate) fn encode_sealed<T: Sealed>(value: &T) -> Vec<u8> {
    let header = serde_json::to_string(value).expect("in-memory checkpoint header serializes");
    let columns: Vec<_> = value
        .columns()
        .into_iter()
        .map(|acc| (acc, BlockCounts::of(acc)))
        .collect();
    let len =
        PRELUDE_LEN + header.len() + columns.iter().map(|(_, n)| n.encoded_len()).sum::<usize>();
    let mut buf = Vec::with_capacity(len);
    buf.extend_from_slice(&T::MAGIC);
    buf.extend_from_slice(&value.schema().to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes());
    put_len(&mut buf, header.len());
    buf.extend_from_slice(header.as_bytes());
    for (acc, counts) in &columns {
        encode_column(acc, counts, &mut buf);
    }
    debug_assert_eq!(buf.len(), len);
    let seal = fnv1a(FNV_OFFSET, &buf);
    buf[SEAL_AT..SEAL_AT + 8].copy_from_slice(&seal.to_le_bytes());
    buf
}

/// The seal recorded in an encoded envelope.
pub(crate) fn seal_of(encoded: &[u8]) -> u64 {
    u64::from_le_bytes(
        encoded[SEAL_AT..SEAL_AT + 8]
            .try_into()
            .expect("8-byte slot"),
    )
}

/// Encode, seal, and [`write_atomic`].
pub(crate) fn save_sealed<T: Sealed>(value: &T, path: &Path) -> io::Result<()> {
    write_atomic(path, &encode_sealed(value))
}

/// A bounds-checked cursor over an envelope's bytes. Every recorded length
/// is checked (with checked arithmetic) against what remains *before*
/// anything is allocated for it.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if n > self.rest.len() {
            return Err(format!(
                "{what} needs {n} bytes, {} remain",
                self.rest.len()
            ));
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes taken")))
    }

    /// `count` as a `usize`, refused unless `count × width` bytes remain.
    fn fits(&self, count: u64, width: usize, what: &str) -> Result<usize, String> {
        usize::try_from(count)
            .ok()
            .filter(|&n| n.checked_mul(width).is_some_and(|b| b <= self.rest.len()))
            .ok_or_else(|| {
                format!(
                    "{what} length {count} overruns the {} bytes that remain",
                    self.rest.len()
                )
            })
    }

    /// The bytes of `count` elements of `width` bytes each.
    fn array(&mut self, count: u64, width: usize, what: &str) -> Result<&'a [u8], String> {
        let n = self.fits(count, width, what)?;
        self.take(n * width, what)
    }

    /// `count` little-endian `u32`s.
    fn u32s(&mut self, count: u64, what: &str) -> Result<Vec<u32>, String> {
        Ok(self
            .array(count, 4, what)?
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")))
            .collect())
    }
}

/// Refuse end offsets that decrease or do not end at `pool` (an empty
/// list must have an empty pool).
fn check_ends(ends: &[u32], pool: usize, what: &str) -> Result<(), String> {
    let monotone = ends.windows(2).all(|w| w[0] <= w[1]);
    if !monotone || ends.last().map_or(0, |&e| e as usize) != pool {
        return Err(format!(
            "{what} offsets are not non-decreasing up to the pool length {pool}"
        ));
    }
    Ok(())
}

/// `ends[i-1]..ends[i]` (with `ends[-1] = 0`).
fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let lo = if i == 0 { 0 } else { ends[i - 1] as usize };
    lo..ends[i] as usize
}

/// Decode and validate one column block, rebuilding the accumulator by
/// re-interning its paths and community sets in ID order.
fn decode_column(r: &mut Cursor<'_>) -> Result<StatsAccumulator, String> {
    let n_paths = r.u64("path count")?;
    let n_segs = r.u64("segment count")?;
    let n_asns = r.u64("ASN count")?;
    let n_csets = r.u64("community-set count")?;
    let n_communities = r.u64("community count")?;
    let n_tuples = r.u64("tuple count")?;
    let seg_ends = r.u32s(n_paths, "path segment offsets")?;
    let asn_ends = r.u32s(n_paths, "path ASN offsets")?;
    let segs: Vec<(u8, u32)> = r
        .array(n_segs, SEG_LEN, "segments")?
        .chunks_exact(SEG_LEN)
        .map(|b| (b[0], u32::from_le_bytes([b[1], b[2], b[3], b[4]])))
        .collect();
    let asns = r.u32s(n_asns, "ASNs")?;
    let cset_ends = r.u32s(n_csets, "community-set offsets")?;
    let communities: Vec<Community> = r
        .u32s(n_communities, "communities")?
        .into_iter()
        .map(Community::from_u32)
        .collect();
    let tuples = r.array(n_tuples, 8, "tuples")?;

    check_ends(&seg_ends, segs.len(), "path segment")?;
    check_ends(&asn_ends, asns.len(), "path ASN")?;
    check_ends(&cset_ends, communities.len(), "community-set")?;
    if let Some(&(tag, _)) = segs
        .iter()
        .find(|(t, _)| *t != SEG_SET && *t != SEG_SEQUENCE)
    {
        return Err(format!("unknown segment tag {tag}"));
    }
    let mut acc = StatsAccumulator::new();
    for id in 0..seg_ends.len() {
        let path = AsPathView {
            segs: &segs[span(&seg_ends, id)],
            asns: &asns[span(&asn_ends, id)],
        };
        let sum: u64 = path.segs.iter().map(|&(_, n)| u64::from(n)).sum();
        if sum != path.asns.len() as u64 {
            return Err(format!(
                "path {id}: segment counts sum to {sum}, its ASN offsets span {}",
                path.asns.len()
            ));
        }
        if acc.interner.intern_path(&path) as usize != id {
            return Err(format!("path {id} repeats an earlier path"));
        }
    }
    for id in 0..cset_ends.len() {
        if acc.interner.intern_cset(&communities[span(&cset_ends, id)]) as usize != id {
            return Err(format!("community set {id} repeats an earlier set"));
        }
    }
    let (mut path_used, mut cset_used) =
        (vec![false; seg_ends.len()], vec![false; cset_ends.len()]);
    acc.tuples.reserve(tuples.len() / 8);
    for (i, t) in tuples.chunks_exact(8).enumerate() {
        let path = u32::from_le_bytes(t[..4].try_into().expect("4 bytes"));
        let cset = u32::from_le_bytes(t[4..].try_into().expect("4 bytes"));
        if path as usize >= path_used.len() || cset as usize >= cset_used.len() {
            return Err(format!(
                "tuple {i}: ({path}, {cset}) out of range ({} paths, {} community sets)",
                path_used.len(),
                cset_used.len()
            ));
        }
        if !acc.seen.insert((u64::from(path) << 32) | u64::from(cset)) {
            return Err(format!("tuple {i} repeats an earlier tuple"));
        }
        acc.tuples.push((path, cset));
        path_used[path as usize] = true;
        cset_used[cset as usize] = true;
    }
    if path_used.contains(&false) || cset_used.contains(&false) {
        return Err("a path or community set belongs to no tuple".to_string());
    }
    Ok(acc)
}

/// Read and validate a sealed manifest, in order: magic, schema, seal,
/// header, columns, no trailing bytes. Every failure is a typed
/// [`CheckpointLoadError`]; nothing is allocated beyond the file's own
/// size, whatever the recorded lengths claim.
pub(crate) fn load_sealed<T: Sealed>(path: &Path) -> Result<T, CheckpointLoadError> {
    let mut raw = std::fs::read(path).map_err(|source| CheckpointLoadError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let corrupt = |detail: String| CheckpointLoadError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if !raw.starts_with(&T::MAGIC) {
        if raw.first() == Some(&b'{') {
            return Err(CheckpointLoadError::LegacyJson {
                path: path.to_path_buf(),
            });
        }
        return Err(corrupt(if T::MAGIC.starts_with(&raw) {
            format!("truncated to {} bytes", raw.len())
        } else {
            "bad magic".to_string()
        }));
    }
    if raw.len() < PRELUDE_LEN {
        return Err(corrupt(format!("truncated to {} bytes", raw.len())));
    }
    let schema = u32::from_le_bytes(raw[SCHEMA_AT..SEAL_AT].try_into().expect("4 bytes"));
    if schema != T::SCHEMA {
        return Err(CheckpointLoadError::SchemaMismatch {
            path: path.to_path_buf(),
            found: schema,
            expected: T::SCHEMA,
        });
    }
    let recorded = seal_of(&raw);
    raw[SEAL_AT..SEAL_AT + 8].fill(0);
    let computed = fnv1a(FNV_OFFSET, &raw);
    if recorded != computed {
        return Err(corrupt(format!(
            "payload checksum {recorded:#018x} recorded, {computed:#018x} computed"
        )));
    }
    let mut r = Cursor {
        rest: &raw[HEADER_LEN_AT..],
    };
    let header_len = r.u64("header length").map_err(corrupt)?;
    let header = r.array(header_len, 1, "header").map_err(corrupt)?;
    let mut value: T =
        serde_json::from_slice(header).map_err(|e| corrupt(format!("header: {e}")))?;
    value.set_prelude(schema, recorded);
    for slot in value.columns_mut() {
        *slot = decode_column(&mut r).map_err(corrupt)?;
    }
    if !r.rest.is_empty() {
        return Err(corrupt(format!("{} trailing bytes", r.rest.len())));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_types::Asn;

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

    /// A workload with cross-file path overlap, duplicates, and multiple
    /// owners — the cases where count-based merging would double-count.
    fn workload() -> Vec<Observation> {
        let mut all = Vec::new();
        for i in 0..30u32 {
            all.push(obs(
                65000 + (i % 4),
                &format!("{} 1299 {}", 65000 + (i % 4), 64496 + (i % 5)),
                &[(1299, (i % 7) as u16), (3356, (i % 3) as u16)],
            ));
            all.push(obs(
                65100 + (i % 2),
                &format!("{} 64496", 65100 + (i % 2)),
                &[(1299, (i % 7) as u16)],
            ));
        }
        all
    }

    #[test]
    fn accumulator_matches_one_shot_stats() {
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let direct = PathStats::from_observations(&all, &siblings);
        // Ingest in three uneven "files"; paths recur across the splits.
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&all[..7], &siblings);
        acc.ingest_ordered(&all[7..40], &siblings);
        acc.ingest_ordered(&all[40..], &siblings);
        assert_eq!(acc.to_stats(), direct);
    }

    #[test]
    fn ingest_store_matches_ingest_bit_for_bit() {
        // The columnar fold must be indistinguishable from the slice fold:
        // same IDs, same tuple order, and hence the same checkpoint bytes,
        // across the same "file" boundaries.
        let all = workload();
        let siblings = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut via_slices = StatsAccumulator::new();
        via_slices.ingest_ordered(&all[..11], &siblings);
        via_slices.ingest_ordered(&all[11..], &siblings);
        let mut via_store = StatsAccumulator::new();
        via_store.ingest_store(&ObservationStore::from_observations(&all[..11]), &siblings);
        via_store.ingest_store(&ObservationStore::from_observations(&all[11..]), &siblings);
        assert_eq!(via_store, via_slices);
        assert_eq!(via_store.to_stats(), via_slices.to_stats());
        let bytes = |acc: &StatsAccumulator| {
            encode_sealed(&Checkpoint {
                snapshot: acc.clone(),
                ..Checkpoint::new()
            })
        };
        assert_eq!(bytes(&via_store), bytes(&via_slices));
    }

    /// Two valid paths whose 64-bit path fingerprints are equal
    /// (`0x00e3_cb7c_4080_b204`).
    fn colliding_pair() -> [Observation; 2] {
        [
            obs(213641905, "213641905 64500", &[(100, 1)]),
            obs(1456344755, "1456344755 537186471", &[(100, 1)]),
        ]
    }

    #[test]
    fn colliding_paths_stay_distinct_in_one_file_or_two() {
        let pair = colliding_pair();
        let fingerprint = |o: &Observation| {
            let (mut segs, mut asns) = (Vec::new(), Vec::new());
            AsPathView::of(&o.path, &mut segs, &mut asns).fingerprint()
        };
        assert_eq!(fingerprint(&pair[0]), fingerprint(&pair[1]));
        let siblings = SiblingMap::default();
        let mut one = StatsAccumulator::new();
        one.ingest_ordered(&pair, &siblings);
        let mut first = StatsAccumulator::new();
        first.ingest_ordered(&pair[..1], &siblings);
        let mut second = StatsAccumulator::new();
        second.ingest_store(&ObservationStore::from_observations(&pair[1..]), &siblings);
        let mut split = first.clone();
        split.merge(&second);
        let mut resumed = StatsAccumulator::from_snapshot(first, &siblings);
        resumed.ingest_ordered(&pair[1..], &siblings);
        for acc in [&one, &split, &resumed] {
            let stats = acc.to_stats();
            let counts = stats.counts(Community::new(100, 1)).unwrap();
            assert_eq!((counts.on, counts.off), (0, 2));
            assert_eq!((stats.unique_paths, stats.unique_tuples), (2, 2));
            let mut asns: Vec<u32> = stats.seen_asns.iter().map(|a| a.value()).collect();
            asns.sort_unstable();
            assert_eq!(asns, [64500, 213641905, 537186471, 1456344755]);
            assert_eq!(stats, PathStats::from_observations(&pair, &siblings));
        }
    }

    #[test]
    fn on_path_test_runs_under_the_resumed_map() {
        // Folded under no siblings, resumed under a map that makes 64999 a
        // sibling of 1299: every tuple is counted under the new map.
        let all = workload();
        let old = SiblingMap::default();
        let new = SiblingMap::from_orgs(vec![vec![Asn::new(1299), Asn::new(64999)]]);
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&all[..20], &old);
        let mut resumed = StatsAccumulator::from_snapshot(acc.detached(), &new);
        resumed.ingest_ordered(&all[20..], &old);
        assert_eq!(resumed.to_stats(), PathStats::from_observations(&all, &new));
    }

    #[test]
    fn checkpoint_saves_atomically_and_reloads() {
        let dir = std::env::temp_dir().join("bgp-intent-ckpt-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");

        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&workload(), &SiblingMap::default());
        let mut cp = Checkpoint::new();
        cp.files.push(CompletedFile {
            path: "a.mrt".into(),
            fingerprint: FileFingerprint {
                bytes: 10,
                hash: 99,
            },
        });
        cp.report.records_read = 60;
        cp.snapshot = acc;
        cp.save_atomic(&path).unwrap();
        // No temp file left behind.
        assert!(!path.with_file_name("run.ckpt.tmp").exists());
        let back = Checkpoint::load(&path).unwrap();
        // The written manifest carries the sealed checksum; everything
        // else round-trips exactly.
        assert_eq!(back.checksum, cp.payload_checksum());
        assert_eq!(back.files, cp.files);
        assert_eq!(back.report, cp.report);
        assert_eq!(back.snapshot, cp.snapshot);
        assert_eq!(
            back.completed("a.mrt"),
            Some(&FileFingerprint {
                bytes: 10,
                hash: 99
            })
        );
        assert_eq!(back.completed("b.mrt"), None);

        // Overwriting is just as safe.
        cp.files.clear();
        cp.save_atomic(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().files, cp.files);
    }

    #[test]
    fn checkpoint_schema_mismatch_is_refused() {
        let dir = std::env::temp_dir().join("bgp-intent-ckpt-schema");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let mut cp = Checkpoint::new();
        cp.schema = CHECKPOINT_SCHEMA + 1;
        cp.save_atomic(&path).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointLoadError::SchemaMismatch { found, expected, .. }
                    if found == CHECKPOINT_SCHEMA + 1 && expected == CHECKPOINT_SCHEMA
            ),
            "{err}"
        );
        assert!(err.is_invalid_data());
        assert!(err.to_string().contains("schema"));
    }

    /// A realistic sealed manifest on disk, for corruption tests.
    fn saved_checkpoint(dir_name: &str) -> (std::path::PathBuf, Checkpoint) {
        let dir = std::env::temp_dir().join(dir_name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let mut acc = StatsAccumulator::new();
        acc.ingest_ordered(&workload(), &SiblingMap::default());
        let mut cp = Checkpoint::new();
        cp.files.push(CompletedFile {
            path: "updates.00.mrt".into(),
            fingerprint: FileFingerprint {
                bytes: 4096,
                hash: 0xdead_beef,
            },
        });
        cp.report.records_read = 120;
        cp.report.bytes_ok = 4096;
        cp.report.bytes_read = 4096;
        cp.snapshot = acc;
        cp.save_atomic(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        (path, loaded)
    }

    #[test]
    fn truncated_checkpoint_is_rejected_not_panicked() {
        let (path, _) = saved_checkpoint("bgp-intent-ckpt-truncate");
        let full = std::fs::read(&path).unwrap();
        // Every truncation point — empty file, inside the magic, inside the
        // header, inside the column block, the last words gone — must
        // yield a clean typed error.
        for cut in [0, 1, full.len() / 4, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(
                matches!(err, CheckpointLoadError::Corrupt { .. }),
                "cut at {cut}: {err}"
            );
            assert!(err.is_invalid_data(), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flipped_checkpoint_never_yields_wrong_state() {
        let (path, original) = saved_checkpoint("bgp-intent-ckpt-bitflip");
        let full = std::fs::read(&path).unwrap();
        let mut caught = 0usize;
        // Flip one bit at a spread of positions. Each damaged file must
        // either be rejected (parse error, schema, or checksum mismatch)
        // or — when the flip only touched insignificant whitespace —
        // reload to exactly the original state. Silent partial state is
        // the one forbidden outcome.
        for pos in (0..full.len()).step_by(7) {
            let mut damaged = full.clone();
            damaged[pos] ^= 0x10;
            std::fs::write(&path, &damaged).unwrap();
            match Checkpoint::load(&path) {
                Err(e) => {
                    assert!(e.is_invalid_data(), "flip at {pos}: {e}");
                    caught += 1;
                }
                Ok(cp) => assert_eq!(cp, original, "flip at {pos} must not alter loaded state"),
            }
        }
        assert!(caught > 0, "at least some flips must corrupt the payload");
    }

    #[test]
    fn checksum_seal_survives_reload_and_detects_field_tampering() {
        let (path, loaded) = saved_checkpoint("bgp-intent-ckpt-tamper");
        assert_eq!(loaded.checksum, loaded.payload_checksum());
        let raw = std::fs::read(&path).unwrap();
        let expect_checksum_refusal = |damaged: &[u8], what: &str| {
            std::fs::write(&path, damaged).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(
                matches!(err, CheckpointLoadError::Corrupt { ref detail, .. } if detail.contains("checksum")),
                "{what}: {err}"
            );
        };
        // Rewrite one digit of a header value without resealing: the header
        // still parses and the schema still matches — only the seal
        // catches it.
        let needle = b"\"records_read\":120";
        let at = raw
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("tamper target must exist in the header");
        let mut header_tampered = raw.clone();
        header_tampered[at + needle.len() - 1] = b'1';
        expect_checksum_refusal(&header_tampered, "header byte");
        // One byte inside the column block (the last tuple's cset ID):
        // every length still fits, so again only the seal catches it.
        let mut column_tampered = raw.clone();
        let last = column_tampered.len() - 1;
        column_tampered[last] ^= 0x01;
        expect_checksum_refusal(&column_tampered, "column byte");
    }

    #[test]
    fn pre_binary_json_checkpoint_is_refused_as_legacy() {
        let dir = std::env::temp_dir().join("bgp-intent-ckpt-legacy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        std::fs::write(
            &path,
            "{\n  \"checksum\": 10966095916983126331,\n  \"files\": [],\n  \"schema\": 2\n}\n",
        )
        .unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(err, CheckpointLoadError::LegacyJson { .. }),
            "{err}"
        );
        assert!(err.is_invalid_data());
        assert!(
            err.to_string().contains("pre-binary JSON checkpoint"),
            "{err}"
        );
    }

    #[test]
    fn missing_checkpoint_is_an_io_not_found_error() {
        let path = std::env::temp_dir().join("bgp-intent-ckpt-missing/none.ckpt");
        let err = Checkpoint::load(&path).unwrap_err();
        assert!(err.is_not_found(), "{err}");
        assert!(!err.is_invalid_data());
    }

    #[test]
    fn file_fingerprints_track_content() {
        let dir = std::env::temp_dir().join("bgp-intent-ckpt-fp");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        std::fs::write(&path, b"hello mrt").unwrap();
        let a = fingerprint_file(&path).unwrap();
        assert_eq!(a.bytes, 9);
        assert_eq!(a, fingerprint_file(&path).unwrap(), "stable across reads");
        // Same length, different content: the hash catches it.
        std::fs::write(&path, b"hello mrT").unwrap();
        let b = fingerprint_file(&path).unwrap();
        assert_eq!(b.bytes, a.bytes);
        assert_ne!(b.hash, a.hash);
    }
}
