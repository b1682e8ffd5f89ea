//! The label artifact: inference output as a servable binary file.
//!
//! `infer`'s JSON label dump is fine for humans and diffs, but the north
//! star is serving "is `3356:2003` action or information?" at millions of
//! lookups per second. This crate defines the on-disk **label artifact**
//! — sorted dense columns keyed by the packed `(α:β)` word — plus a
//! zero-copy loader and the binary-search lookup kernel on top of it.
//!
//! # Layout (version 1, all integers little-endian)
//!
//! ```text
//! header (48 bytes)
//!   0  magic        "BGPA"
//!   4  version      u32  (= 1)
//!   8  entries      u64  (n, > 0)
//!   16 owners       u64  (m = distinct α values)
//!   24 checksum     u64  (FNV-1a 64 over the whole payload)
//!   32 payload_len  u64
//!   40 reserved     u64  (zero)
//! payload (sections in fixed order, each 8-byte aligned)
//!   keys        n × u64   packed community keys, strictly ascending
//!   labels      n × u8    0 = action, 1 = information (padded to 8)
//!   confidence  n × f64   label confidence in (0, 1]
//!   ratio       n × f64   the containing cluster's on:off ratio
//!   on_paths    n × u64   cluster on-path unique-path total
//!   off_paths   n × u64   cluster off-path unique-path total
//!   owners      m × (u32 α, u32 start)   first row index per owner α
//! ```
//!
//! The key is [`Community::packed_key`]: `(α << 16 | β)` widened to `u64`.
//! Point lookups binary-search the key column (`O(log n)`, ~27 probes at
//! the paper's 80k labels); `α`-prefix scans binary-search the owner
//! index instead and return a contiguous row range.
//!
//! # Why mmap is safe here
//!
//! Artifacts are written with the same atomic temp-file-then-rename
//! discipline as checkpoints and never modified in place, so a reader
//! can never observe a torn write. Loading validates the magic, version,
//! section geometry, payload checksum, key ordering, and owner index
//! before any lookup runs. And every access after that goes through
//! bounds-checked byte slices (`u64::from_le_bytes` on subslices) — no
//! pointer casts, no alignment assumptions — so even a hostile file that
//! somehow passed validation could only yield wrong values, never
//! undefined behavior. The one `unsafe` block in this crate is the
//! `mmap`/`munmap` pair itself, confined to `backing`, and a plain
//! heap read ([`LabelArtifact::load_heap`]) provides the same artifact
//! with no `unsafe` at all (and is the non-unix fallback).

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::File;
use std::io::{self, Read};
use std::path::{Path, PathBuf};

use bgp_types::durable::{fnv1a, write_atomic, FNV_OFFSET};
use bgp_types::par::{effective_threads, par_map_indexed};
use bgp_types::{Community, Intent};

/// First four bytes of every label artifact.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"BGPA";

/// Layout version this build reads and writes; bump on any layout change
/// so an old reader refuses instead of misreading.
pub const ARTIFACT_VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 48;

/// One classified community as served from (or written into) an artifact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelRow {
    /// The community.
    pub community: Community,
    /// Its inferred intent.
    pub label: Intent,
    /// Label confidence in `(0, 1]`: 1.0 for the unambiguous never-off-path
    /// / never-on-path cases, otherwise how far the cluster ratio sits from
    /// the decision threshold.
    pub confidence: f64,
    /// The containing cluster's on:off ratio (the classification evidence).
    pub ratio: f64,
    /// The containing cluster's on-path unique-path total.
    pub on_paths: u64,
    /// The containing cluster's off-path unique-path total.
    pub off_paths: u64,
}

/// Why loading an artifact was refused. Corruption is always a clean typed
/// error — never a panic, never a partially-validated artifact served.
#[derive(Debug)]
pub enum ArtifactError {
    /// The file could not be read at all (missing, permissions, I/O).
    Io {
        /// The artifact path.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The file does not start with the artifact magic.
    BadMagic {
        /// The artifact path.
        path: PathBuf,
    },
    /// A well-formed header written by an incompatible layout version.
    BadVersion {
        /// The artifact path.
        path: PathBuf,
        /// The version recorded in the file.
        found: u32,
        /// The version this build reads.
        expected: u32,
    },
    /// The byte length does not match the recorded geometry (truncated
    /// download, torn copy, or a header bit flip in the counts).
    Truncated {
        /// The artifact path.
        path: PathBuf,
        /// What exactly failed to line up.
        detail: String,
    },
    /// The payload checksum does not match (bit rot, payload corruption).
    ChecksumMismatch {
        /// The artifact path.
        path: PathBuf,
        /// Checksum recorded in the header.
        recorded: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// A structurally valid artifact with zero entries — nothing to serve,
    /// and almost certainly an upstream inference bug; refused rather than
    /// silently answering "unknown" to every query.
    Empty {
        /// The artifact path.
        path: PathBuf,
    },
    /// The payload passed its checksum but violates an invariant the
    /// lookup kernel relies on (unsorted keys, bad label byte, owner
    /// index mismatch) — only reachable for files not produced by
    /// [`write_artifact_atomic`].
    Invalid {
        /// The artifact path.
        path: PathBuf,
        /// The violated invariant.
        detail: String,
    },
}

impl ArtifactError {
    /// Whether the file existed but its *contents* were rejected — the
    /// cases a caller should surface as a refused artifact rather than a
    /// generic I/O failure (mirrors `CheckpointLoadError::is_invalid_data`).
    pub fn is_invalid_data(&self) -> bool {
        !matches!(self, ArtifactError::Io { .. })
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            ArtifactError::BadMagic { path } => {
                write!(f, "{}: not a label artifact (bad magic)", path.display())
            }
            ArtifactError::BadVersion {
                path,
                found,
                expected,
            } => write!(
                f,
                "{}: artifact version {found}, this build reads {expected}",
                path.display()
            ),
            ArtifactError::Truncated { path, detail } => {
                write!(
                    f,
                    "{}: truncated or torn artifact ({detail})",
                    path.display()
                )
            }
            ArtifactError::ChecksumMismatch {
                path,
                recorded,
                computed,
            } => write!(
                f,
                "{}: payload checksum {recorded:#018x} recorded, {computed:#018x} computed",
                path.display()
            ),
            ArtifactError::Empty { path } => {
                write!(f, "{}: artifact holds zero labels", path.display())
            }
            ArtifactError::Invalid { path, detail } => {
                write!(f, "{}: invalid artifact ({detail})", path.display())
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Byte offsets of each payload section, derived from the entry and owner
/// counts. Shared by the writer and the loader so they cannot disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sections {
    keys: usize,
    labels: usize,
    confidence: usize,
    ratio: usize,
    on: usize,
    off: usize,
    owners: usize,
    payload_len: usize,
}

impl Sections {
    /// `None` when the counts overflow the layout arithmetic — only
    /// reachable from a corrupted header (a bit flip in the count fields
    /// can claim ~2^63 entries), so the loader treats it as truncation.
    fn for_counts(n: usize, m: usize) -> Option<Sections> {
        let n8 = n.checked_mul(8)?;
        let keys = 0;
        let labels = n8;
        let labels_padded = n.checked_add(7)? & !7;
        let confidence = labels.checked_add(labels_padded)?;
        let ratio = confidence.checked_add(n8)?;
        let on = ratio.checked_add(n8)?;
        let off = on.checked_add(n8)?;
        let owners = off.checked_add(n8)?;
        let payload_len = owners.checked_add(m.checked_mul(8)?)?;
        Some(Sections {
            keys,
            labels,
            confidence,
            ratio,
            on,
            off,
            owners,
            payload_len,
        })
    }
}

fn label_byte(intent: Intent) -> u8 {
    match intent {
        Intent::Action => 0,
        Intent::Information => 1,
    }
}

/// Serialize `rows` (which must be sorted strictly ascending by
/// [`Community::packed_key`]) into artifact bytes: header + payload.
///
/// Exposed so tests and in-memory consumers can build an artifact without
/// touching the filesystem; [`write_artifact_atomic`] is the production
/// entry point.
pub fn encode_artifact(rows: &[LabelRow]) -> io::Result<Vec<u8>> {
    for pair in rows.windows(2) {
        if pair[0].community.packed_key() >= pair[1].community.packed_key() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "label rows must be sorted strictly ascending by packed key \
                     ({} does not precede {})",
                    pair[0].community, pair[1].community
                ),
            ));
        }
    }
    let n = rows.len();
    let mut owner_index: Vec<(u16, u32)> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        if owner_index.last().map(|&(a, _)| a) != Some(row.community.asn) {
            owner_index.push((row.community.asn, i as u32));
        }
    }
    let m = owner_index.len();
    let sec = Sections::for_counts(n, m).expect("in-memory row count cannot overflow the layout");

    let mut payload = vec![0u8; sec.payload_len];
    for (i, row) in rows.iter().enumerate() {
        payload[sec.keys + i * 8..sec.keys + i * 8 + 8]
            .copy_from_slice(&row.community.packed_key().to_le_bytes());
        payload[sec.labels + i] = label_byte(row.label);
        payload[sec.confidence + i * 8..sec.confidence + i * 8 + 8]
            .copy_from_slice(&row.confidence.to_le_bytes());
        payload[sec.ratio + i * 8..sec.ratio + i * 8 + 8].copy_from_slice(&row.ratio.to_le_bytes());
        payload[sec.on + i * 8..sec.on + i * 8 + 8].copy_from_slice(&row.on_paths.to_le_bytes());
        payload[sec.off + i * 8..sec.off + i * 8 + 8].copy_from_slice(&row.off_paths.to_le_bytes());
    }
    for (j, &(alpha, start)) in owner_index.iter().enumerate() {
        payload[sec.owners + j * 8..sec.owners + j * 8 + 4]
            .copy_from_slice(&u32::from(alpha).to_le_bytes());
        payload[sec.owners + j * 8 + 4..sec.owners + j * 8 + 8]
            .copy_from_slice(&start.to_le_bytes());
    }

    let mut out = Vec::with_capacity(HEADER_LEN + sec.payload_len);
    out.extend_from_slice(&ARTIFACT_MAGIC);
    out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
    out.extend_from_slice(&(sec.payload_len as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    debug_assert_eq!(out.len(), HEADER_LEN);
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Write an artifact with the atomic temp-file-then-rename discipline:
/// serialize to `<path>.tmp` in the same directory, fsync, rename over
/// `path`. A crash at any point leaves either the previous artifact or
/// the new one — never a torn file (the precondition for mmap serving).
pub fn write_artifact_atomic(path: &Path, rows: &[LabelRow]) -> io::Result<()> {
    write_atomic(path, &encode_artifact(rows)?)
}

/// The memory-mapped (unix) backing; plain `Vec<u8>` everywhere else and
/// as the fallback. This module owns the only `unsafe` in the crate.
#[cfg(unix)]
#[allow(unsafe_code)]
mod backing {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    /// A read-only private mapping of a whole file.
    pub struct Mmap {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // The mapping is PROT_READ and owned for its whole lifetime; exposing
    // &[u8] from multiple threads is as safe as sharing a Vec<u8>.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Map `len` bytes of `file` read-only; `None` if the kernel
        /// refuses (callers fall back to a heap read).
        pub fn map(file: &File, len: usize) -> Option<Mmap> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 || ptr.is_null() {
                return None;
            }
            Some(Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr..ptr+len is a live PROT_READ mapping for as long
            // as self exists, and the borrow cannot outlive self.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: exactly the region map() returned, unmapped once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

enum Backing {
    Heap(Vec<u8>),
    #[cfg(unix)]
    Mmap(backing::Mmap),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            Backing::Heap(v) => v,
            #[cfg(unix)]
            Backing::Mmap(m) => m.bytes(),
        }
    }
}

/// A loaded, fully validated label artifact, ready to serve lookups.
///
/// Columns are read in place from the backing bytes (mmap on unix, heap
/// elsewhere) — loading is O(n) validation, not a deserialization copy.
pub struct LabelArtifact {
    backing: Backing,
    entries: usize,
    owners: usize,
    sections: Sections,
}

impl fmt::Debug for LabelArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LabelArtifact")
            .field("entries", &self.entries)
            .field("owners", &self.owners)
            .field("mmapped", &self.is_mmapped())
            .finish()
    }
}

impl LabelArtifact {
    /// Load an artifact, preferring a zero-copy memory mapping (unix);
    /// falls back to [`load_heap`](Self::load_heap) when mapping fails.
    pub fn load(path: &Path) -> Result<LabelArtifact, ArtifactError> {
        #[cfg(unix)]
        {
            let file = File::open(path).map_err(|source| ArtifactError::Io {
                path: path.to_path_buf(),
                source,
            })?;
            let len = file
                .metadata()
                .map_err(|source| ArtifactError::Io {
                    path: path.to_path_buf(),
                    source,
                })?
                .len() as usize;
            if let Some(map) = backing::Mmap::map(&file, len) {
                return Self::validate(path, Backing::Mmap(map));
            }
        }
        Self::load_heap(path)
    }

    /// Load an artifact by reading the whole file onto the heap — the
    /// no-`unsafe` path, also used as the mmap fallback.
    pub fn load_heap(path: &Path) -> Result<LabelArtifact, ArtifactError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|source| ArtifactError::Io {
                path: path.to_path_buf(),
                source,
            })?;
        Self::validate(path, Backing::Heap(bytes))
    }

    /// Validate header geometry, checksum, and every invariant the lookup
    /// kernel relies on. All errors are typed; nothing is served from a
    /// file that fails any check.
    fn validate(path: &Path, backing: Backing) -> Result<LabelArtifact, ArtifactError> {
        let at = |p: &Path, detail: String| ArtifactError::Truncated {
            path: p.to_path_buf(),
            detail,
        };
        let bytes = backing.bytes();
        if bytes.len() < HEADER_LEN {
            return Err(at(
                path,
                format!("{} bytes, header alone is {HEADER_LEN}", bytes.len()),
            ));
        }
        if bytes[0..4] != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        let u32_at = |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4"));
        let u64_at = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8"));
        let version = u32_at(4);
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::BadVersion {
                path: path.to_path_buf(),
                found: version,
                expected: ARTIFACT_VERSION,
            });
        }
        let entries = u64_at(8) as usize;
        let owners = u64_at(16) as usize;
        let checksum = u64_at(24);
        let payload_len = u64_at(32) as usize;
        if entries == 0 {
            return Err(ArtifactError::Empty {
                path: path.to_path_buf(),
            });
        }
        // Geometry first: the section layout implied by the counts must
        // match the recorded payload length and the actual byte count,
        // so every column access below is in bounds by construction.
        if owners > entries {
            return Err(at(path, format!("{owners} owners > {entries} entries")));
        }
        let sections = match Sections::for_counts(entries, owners) {
            Some(s) => s,
            None => {
                return Err(at(
                    path,
                    format!("{entries} entries / {owners} owners overflow the layout"),
                ))
            }
        };
        if sections.payload_len != payload_len {
            return Err(at(
                path,
                format!(
                    "payload length {payload_len} recorded, {} implied by {entries} entries / {owners} owners",
                    sections.payload_len
                ),
            ));
        }
        if bytes.len() != HEADER_LEN + payload_len {
            return Err(at(
                path,
                format!(
                    "{} bytes on disk, {} expected",
                    bytes.len(),
                    HEADER_LEN + payload_len
                ),
            ));
        }
        let payload = &bytes[HEADER_LEN..];
        let computed = fnv1a(FNV_OFFSET, payload);
        if computed != checksum {
            return Err(ArtifactError::ChecksumMismatch {
                path: path.to_path_buf(),
                recorded: checksum,
                computed,
            });
        }
        let invalid = |detail: String| ArtifactError::Invalid {
            path: path.to_path_buf(),
            detail,
        };
        // Keys: strictly ascending (binary search's invariant) and within
        // the packed 32-bit community space.
        let key_at =
            |i: usize| u64::from_le_bytes(payload[i * 8..i * 8 + 8].try_into().expect("8"));
        let mut prev: Option<u64> = None;
        for i in 0..entries {
            let key = key_at(i);
            if key > u64::from(u32::MAX) {
                return Err(invalid(format!(
                    "key {key:#x} outside the packed α:β space"
                )));
            }
            if let Some(p) = prev {
                if key <= p {
                    return Err(invalid(format!("keys not strictly ascending at row {i}")));
                }
            }
            prev = Some(key);
        }
        // Labels: only the two defined bytes; padding must be zero.
        for (i, &b) in payload[sections.labels..sections.confidence]
            .iter()
            .enumerate()
        {
            let expect_pad = i >= entries;
            if (expect_pad && b != 0) || (!expect_pad && b > 1) {
                return Err(invalid(format!("label byte {b} at row {i}")));
            }
        }
        // Owner index: must be exactly the index the writer derives from
        // the key column (the lookup kernel trusts its starts blindly).
        let mut expected: Vec<(u32, u32)> = Vec::new();
        for i in 0..entries {
            let alpha = (key_at(i) >> 16) as u32;
            if expected.last().map(|&(a, _)| a) != Some(alpha) {
                expected.push((alpha, i as u32));
            }
        }
        if expected.len() != owners {
            return Err(invalid(format!(
                "{owners} owner entries recorded, {} implied by the key column",
                expected.len()
            )));
        }
        for (j, &(alpha, start)) in expected.iter().enumerate() {
            let got_alpha = u32::from_le_bytes(
                payload[sections.owners + j * 8..sections.owners + j * 8 + 4]
                    .try_into()
                    .expect("4"),
            );
            let got_start = u32::from_le_bytes(
                payload[sections.owners + j * 8 + 4..sections.owners + j * 8 + 8]
                    .try_into()
                    .expect("4"),
            );
            if (got_alpha, got_start) != (alpha, start) {
                return Err(invalid(format!(
                    "owner index entry {j} is ({got_alpha}, {got_start}), expected ({alpha}, {start})"
                )));
            }
        }
        Ok(LabelArtifact {
            backing,
            entries,
            owners,
            sections,
        })
    }

    fn payload(&self) -> &[u8] {
        &self.backing.bytes()[HEADER_LEN..]
    }

    /// Number of labeled communities.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Always false — zero-entry artifacts are refused at load.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct owner ASes.
    pub fn owner_count(&self) -> usize {
        self.owners
    }

    /// Whether this artifact is served from a memory mapping (as opposed
    /// to the heap fallback).
    pub fn is_mmapped(&self) -> bool {
        match self.backing {
            Backing::Heap(_) => false,
            #[cfg(unix)]
            Backing::Mmap(_) => true,
        }
    }

    #[inline]
    fn key_at(&self, i: usize) -> u64 {
        let p = self.payload();
        u64::from_le_bytes(p[i * 8..i * 8 + 8].try_into().expect("8"))
    }

    #[inline]
    fn f64_at(&self, section: usize, i: usize) -> f64 {
        let p = self.payload();
        f64::from_le_bytes(
            p[section + i * 8..section + i * 8 + 8]
                .try_into()
                .expect("8"),
        )
    }

    #[inline]
    fn u64_at(&self, section: usize, i: usize) -> u64 {
        let p = self.payload();
        u64::from_le_bytes(
            p[section + i * 8..section + i * 8 + 8]
                .try_into()
                .expect("8"),
        )
    }

    /// The `i`-th row in key order. Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> LabelRow {
        assert!(i < self.entries, "row {i} out of bounds ({})", self.entries);
        let sec = &self.sections;
        LabelRow {
            community: Community::from_u32(self.key_at(i) as u32),
            label: if self.payload()[sec.labels + i] == 0 {
                Intent::Action
            } else {
                Intent::Information
            },
            confidence: self.f64_at(sec.confidence, i),
            ratio: self.f64_at(sec.ratio, i),
            on_paths: self.u64_at(sec.on, i),
            off_paths: self.u64_at(sec.off, i),
        }
    }

    /// Row index of `c`, if classified — the binary-search core every
    /// lookup goes through.
    #[inline]
    pub fn find(&self, c: Community) -> Option<usize> {
        let key = c.packed_key();
        let (mut lo, mut hi) = (0usize, self.entries);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key_at(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.entries && self.key_at(lo) == key).then_some(lo)
    }

    /// Point lookup: the full row for `c`, if classified.
    #[inline]
    pub fn get(&self, c: Community) -> Option<LabelRow> {
        self.find(c).map(|i| self.row(i))
    }

    /// Just the intent for `c` — the cheapest query (one column touched).
    #[inline]
    pub fn label(&self, c: Community) -> Option<Intent> {
        self.find(c).map(|i| {
            if self.payload()[self.sections.labels + i] == 0 {
                Intent::Action
            } else {
                Intent::Information
            }
        })
    }

    /// Batch lookup, fanned out over `threads` workers (`0` = one per
    /// CPU, `1` = sequential). Results are index-aligned with `keys`, and
    /// identical at any thread count.
    pub fn get_batch(&self, keys: &[Community], threads: usize) -> Vec<Option<LabelRow>> {
        let threads = effective_threads(threads).min(keys.len().max(1));
        if threads <= 1 {
            return keys.iter().map(|&k| self.get(k)).collect();
        }
        let chunk_size = keys.len().div_ceil(threads * 4).max(1);
        let chunks: Vec<&[Community]> = keys.chunks(chunk_size).collect();
        let parts = par_map_indexed(chunks.len(), threads, |i| {
            chunks[i].iter().map(|&k| self.get(k)).collect::<Vec<_>>()
        });
        parts.into_iter().flatten().collect()
    }

    /// The contiguous row range owned by `α` (empty if the owner has no
    /// classified communities) — the `α`-prefix scan, via the owner index
    /// instead of a key-column search.
    pub fn owner_range(&self, asn: u16) -> std::ops::Range<usize> {
        let sec = &self.sections;
        let alpha_at = |j: usize| {
            u32::from_le_bytes(
                self.payload()[sec.owners + j * 8..sec.owners + j * 8 + 4]
                    .try_into()
                    .expect("4"),
            )
        };
        let start_at = |j: usize| {
            u32::from_le_bytes(
                self.payload()[sec.owners + j * 8 + 4..sec.owners + j * 8 + 8]
                    .try_into()
                    .expect("4"),
            ) as usize
        };
        let target = u32::from(asn);
        let (mut lo, mut hi) = (0usize, self.owners);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if alpha_at(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo >= self.owners || alpha_at(lo) != target {
            return 0..0;
        }
        let start = start_at(lo);
        let end = if lo + 1 < self.owners {
            start_at(lo + 1)
        } else {
            self.entries
        };
        start..end
    }

    /// All rows for owner `α`, in `β` order.
    pub fn owner_rows(&self, asn: u16) -> Vec<LabelRow> {
        self.owner_range(asn).map(|i| self.row(i)).collect()
    }

    /// Iterate every row in key order.
    pub fn rows(&self) -> impl Iterator<Item = LabelRow> + '_ {
        (0..self.entries).map(|i| self.row(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "bgp-artifact-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(tag)
    }

    fn sample_rows() -> Vec<LabelRow> {
        let row = |asn: u16, value: u16, label: Intent, ratio: f64, on: u64, off: u64| LabelRow {
            community: Community::new(asn, value),
            label,
            confidence: if off == 0 || on == 0 {
                1.0
            } else {
                ratio / (ratio + 160.0)
            },
            ratio,
            on_paths: on,
            off_paths: off,
        };
        vec![
            row(174, 7, Intent::Action, 0.25, 3, 12),
            row(1299, 2569, Intent::Action, 0.0, 0, 9),
            row(1299, 20000, Intent::Information, 412.5, 825, 2),
            row(1299, 35130, Intent::Information, 37.0, 37, 0),
            row(3356, 3, Intent::Action, 1.5, 3, 2),
            row(3356, 2003, Intent::Information, 900.0, 1800, 2),
        ]
    }

    fn write_sample(tag: &str) -> (PathBuf, Vec<LabelRow>) {
        let rows = sample_rows();
        let path = temp_path(tag);
        write_artifact_atomic(&path, &rows).expect("write artifact");
        (path, rows)
    }

    #[test]
    fn round_trips_through_both_backings() {
        let (path, rows) = write_sample("roundtrip.art");
        for artifact in [
            LabelArtifact::load(&path).expect("mmap load"),
            LabelArtifact::load_heap(&path).expect("heap load"),
        ] {
            assert_eq!(artifact.len(), rows.len());
            assert_eq!(artifact.owner_count(), 3);
            let back: Vec<LabelRow> = artifact.rows().collect();
            assert_eq!(back, rows);
        }
        #[cfg(unix)]
        assert!(LabelArtifact::load(&path).expect("load").is_mmapped());
    }

    #[test]
    fn point_lookups_hit_and_miss() {
        let (path, rows) = write_sample("lookup.art");
        let artifact = LabelArtifact::load(&path).expect("load");
        for row in &rows {
            assert_eq!(artifact.get(row.community), Some(*row));
            assert_eq!(artifact.label(row.community), Some(row.label));
        }
        for miss in [
            Community::new(0, 0),
            Community::new(174, 8),
            Community::new(1299, 2568),
            Community::new(3356, 2004),
            Community::new(65535, 65535),
        ] {
            assert_eq!(artifact.get(miss), None);
            assert_eq!(artifact.label(miss), None);
        }
    }

    #[test]
    fn owner_scans_return_contiguous_beta_ranges() {
        let (path, rows) = write_sample("owners.art");
        let artifact = LabelArtifact::load(&path).expect("load");
        assert_eq!(artifact.owner_range(1299), 1..4);
        assert_eq!(artifact.owner_rows(1299), rows[1..4].to_vec());
        assert_eq!(artifact.owner_range(174), 0..1);
        assert_eq!(artifact.owner_range(3356), 4..6);
        assert_eq!(artifact.owner_range(2914), 0..0);
        assert!(artifact.owner_rows(2914).is_empty());
    }

    #[test]
    fn batch_lookup_is_identical_at_any_thread_count() {
        let (path, rows) = write_sample("batch.art");
        let artifact = LabelArtifact::load(&path).expect("load");
        let mut keys: Vec<Community> = rows.iter().map(|r| r.community).collect();
        // Interleave misses so both arms are exercised.
        keys.extend((0..100).map(|i| Community::new(9000 + i as u16, i as u16)));
        let baseline = artifact.get_batch(&keys, 1);
        assert_eq!(baseline.len(), keys.len());
        for threads in [2, 3, 8] {
            assert_eq!(
                artifact.get_batch(&keys, threads),
                baseline,
                "threads={threads}"
            );
        }
        for (key, result) in keys.iter().zip(&baseline) {
            assert_eq!(*result, artifact.get(*key));
        }
    }

    #[test]
    fn unsorted_rows_are_refused_by_the_writer() {
        let mut rows = sample_rows();
        rows.swap(0, 3);
        let err = encode_artifact(&rows).expect_err("unsorted must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let dup = vec![rows[1], rows[1]];
        assert!(encode_artifact(&dup).is_err(), "duplicate keys must fail");
    }

    #[test]
    fn zero_entry_artifacts_fail_closed() {
        let path = temp_path("empty.art");
        write_artifact_atomic(&path, &[]).expect("write empty");
        let err = LabelArtifact::load(&path).expect_err("empty must be refused");
        assert!(matches!(err, ArtifactError::Empty { .. }), "{err}");
        assert!(err.is_invalid_data());
    }

    #[test]
    fn wrong_version_fails_closed() {
        let (path, _) = write_sample("version.art");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[4..8].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = LabelArtifact::load(&path).expect_err("version must be refused");
        assert!(
            matches!(
                err,
                ArtifactError::BadVersion {
                    found,
                    expected: ARTIFACT_VERSION,
                    ..
                } if found == ARTIFACT_VERSION + 1
            ),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_fails_closed() {
        let (path, _) = write_sample("magic.art");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] ^= 0x20;
        std::fs::write(&path, &bytes).expect("rewrite");
        let err = LabelArtifact::load(&path).expect_err("magic must be refused");
        assert!(matches!(err, ArtifactError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn every_truncation_point_fails_closed() {
        let (path, _) = write_sample("truncate.art");
        let bytes = std::fs::read(&path).expect("read");
        // Every prefix, stepped to keep the test fast but cover all
        // regions: inside the header, each section boundary, and the tail.
        let mut cuts: Vec<usize> = (0..bytes.len()).step_by(7).collect();
        cuts.push(bytes.len() - 1);
        for cut in cuts {
            std::fs::write(&path, &bytes[..cut]).expect("truncate");
            match LabelArtifact::load(&path) {
                Err(e) => assert!(e.is_invalid_data(), "cut at {cut}: {e}"),
                Ok(_) => panic!("truncation at {cut} was accepted"),
            }
            // The safe loader must agree byte-for-byte on refusal.
            assert!(LabelArtifact::load_heap(&path).is_err(), "heap, cut {cut}");
        }
    }

    #[test]
    fn every_bit_flip_fails_closed_or_is_detected() {
        let (path, rows) = write_sample("bitflip.art");
        let bytes = std::fs::read(&path).expect("read");
        // Flip one bit at a time across the whole file (stepping bytes to
        // keep it fast; every header byte, stride through the payload).
        let positions: Vec<usize> = (0..HEADER_LEN)
            .chain((HEADER_LEN..bytes.len()).step_by(11))
            .collect();
        for pos in positions {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << (pos % 8);
            std::fs::write(&path, &corrupt).expect("rewrite");
            match LabelArtifact::load(&path) {
                Err(e) => assert!(e.is_invalid_data(), "flip at {pos}: {e}"),
                // A flip in the reserved header word is the only bit the
                // format does not seal; anything else must be refused.
                Ok(artifact) => {
                    assert!((40..48).contains(&pos), "flip at {pos} was accepted");
                    assert_eq!(artifact.rows().collect::<Vec<_>>(), rows);
                }
            }
        }
    }

    #[test]
    fn payload_and_checksum_flips_are_checksum_mismatches() {
        let (path, _) = write_sample("checksum.art");
        let mut bytes = std::fs::read(&path).expect("read");
        let payload_pos = HEADER_LEN + 3;
        bytes[payload_pos] ^= 0x80;
        std::fs::write(&path, &bytes).expect("rewrite");
        for load in [LabelArtifact::load, LabelArtifact::load_heap] {
            let err = load(&path).expect_err("payload flip");
            assert!(
                matches!(err, ArtifactError::ChecksumMismatch { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = temp_path("missing.art");
        let err = LabelArtifact::load(&path).expect_err("missing file");
        assert!(matches!(err, ArtifactError::Io { .. }), "{err}");
        assert!(!err.is_invalid_data());
    }

    #[test]
    fn f64_columns_round_trip_bit_exactly() {
        let mut rows = sample_rows();
        rows[0].confidence = 0.1 + 0.2; // a value with a noisy decimal form
        rows[0].ratio = f64::MIN_POSITIVE;
        let path = temp_path("bits.art");
        write_artifact_atomic(&path, &rows).expect("write");
        let artifact = LabelArtifact::load(&path).expect("load");
        let back = artifact.row(0);
        assert_eq!(back.confidence.to_bits(), rows[0].confidence.to_bits());
        assert_eq!(back.ratio.to_bits(), rows[0].ratio.to_bits());
    }
}
