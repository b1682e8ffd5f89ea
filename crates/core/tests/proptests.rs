//! Property-based tests: invariants of clustering, statistics,
//! classification, and the sealed checkpoint envelope.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use bgp_intent::classify::{classify, InferenceConfig};
use bgp_intent::cluster::gap_clusters;
use bgp_intent::stats::{reference_stats, PathCounts, PathStats};
use bgp_intent::{
    Checkpoint, CheckpointLoadError, CompletedFile, FileFingerprint, StatsAccumulator,
    WatchCheckpoint, WindowConfig, WindowedClassifier,
};
use bgp_relationships::SiblingMap;
use bgp_types::durable::{fnv1a, FNV_OFFSET};
use bgp_types::store::ObservationStore;
use bgp_types::{AsPath, Asn, Community, Observation, PathSegment};

/// Records the largest single heap request made on the current thread
/// while armed ([`largest_allocation`]), so a test can hold the checkpoint
/// loader to "nothing bigger than the file", whatever a forged length
/// claims.
struct PeakAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
        }
    });
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static PEAK_ALLOC: PeakAlloc = PeakAlloc;

/// Run `f` and return its result with the largest single allocation it
/// made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|peak| peak.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (out, PEAK.with(Cell::get))
}

fn arb_betas() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::btree_set(any::<u16>(), 0..80).prop_map(|s| s.into_iter().collect())
}

fn arb_observations() -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec(
        (
            1u32..50,                               // vp
            prop::collection::vec(2u32..200, 1..5), // path tail
            prop::collection::vec((1u16..300, any::<u16>()), 0..6),
        ),
        0..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(vp, tail, comms)| {
                let mut communities: Vec<Community> = comms
                    .into_iter()
                    .map(|(a, b)| Community::new(a, b))
                    .collect();
                communities.sort_unstable();
                communities.dedup();
                Observation {
                    vp: Asn::new(vp),
                    prefix: "10.0.0.0/24".parse().unwrap(),
                    path: AsPath::from_sequence(std::iter::once(vp).chain(tail).map(Asn::new)),
                    communities,
                    large_communities: Vec::new(),
                    time: 0,
                }
            })
            .collect()
    })
}

/// Disjoint sibling organizations over the same small ASN range the messy
/// observations draw from, so on-path decisions routinely go through a
/// sibling rather than the owner itself.
fn arb_siblings() -> impl Strategy<Value = SiblingMap> {
    prop::collection::btree_set(1u32..40, 0..12).prop_map(|asns| {
        let asns: Vec<u32> = asns.into_iter().collect();
        SiblingMap::from_orgs(
            asns.chunks(3)
                .map(|org| org.iter().map(|&a| Asn::new(a)).collect::<Vec<_>>()),
        )
    })
}

/// Observations exercising everything the interned kernel must get right:
/// duplicate rows, prepended hops, `AS_SET` segments, and community lists
/// that recur across rows in different orders (distinct store identities).
fn arb_messy_observations() -> impl Strategy<Value = Vec<Observation>> {
    let segment = (any::<bool>(), prop::collection::vec(1u32..40, 1..4));
    let row = (
        1u32..40,                                         // vp / head ASN
        0usize..3,                                        // head prepend count
        prop::collection::vec(segment, 0..3),             // tail, sets included
        prop::collection::vec((1u16..40, 0u16..6), 0..6), // communities, unsorted
    );
    prop::collection::vec(row, 0..40).prop_map(|rows| {
        rows.into_iter()
            .map(|(vp, prepend, tail, comms)| {
                let mut segments = vec![PathSegment::Sequence(vec![Asn::new(vp); 1 + prepend])];
                segments.extend(tail.into_iter().map(|(set, members)| {
                    let members: Vec<Asn> = members.into_iter().map(Asn::new).collect();
                    if set {
                        PathSegment::Set(members)
                    } else {
                        PathSegment::Sequence(members)
                    }
                }));
                Observation {
                    vp: Asn::new(vp),
                    prefix: "10.0.0.0/24".parse().unwrap(),
                    path: AsPath::from_segments(segments),
                    communities: comms
                        .into_iter()
                        .map(|(a, b)| Community::new(a, b))
                        .collect(),
                    large_communities: Vec::new(),
                    time: 0,
                }
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn clusters_partition_the_input(betas in arb_betas(), gap in 0u16..2000) {
        let clusters = gap_clusters(7, &betas, gap);
        let flattened: Vec<u16> =
            clusters.iter().flat_map(|c| c.betas.iter().copied()).collect();
        prop_assert_eq!(flattened, betas);
    }

    #[test]
    fn cluster_boundaries_respect_gap(betas in arb_betas(), gap in 0u16..2000) {
        let clusters = gap_clusters(7, &betas, gap);
        for c in &clusters {
            for w in c.betas.windows(2) {
                prop_assert!(w[1] - w[0] <= gap, "intra-cluster gap exceeds {gap}");
            }
        }
        for w in clusters.windows(2) {
            let last = *w[0].betas.last().unwrap();
            let first = w[1].betas[0];
            prop_assert!(first - last > gap, "adjacent clusters closer than {gap}");
        }
    }

    #[test]
    fn larger_gap_never_more_clusters(betas in arb_betas(), g1 in 0u16..1000, g2 in 0u16..1000) {
        let (small, large) = if g1 <= g2 { (g1, g2) } else { (g2, g1) };
        let a = gap_clusters(7, &betas, small).len();
        let b = gap_clusters(7, &betas, large).len();
        prop_assert!(b <= a, "gap {large} made {b} clusters > gap {small}'s {a}");
    }

    #[test]
    fn stats_counts_are_bounded_by_unique_paths(observations in arb_observations()) {
        let stats = PathStats::from_observations(&observations, &SiblingMap::default());
        for counts in stats.per_community.values() {
            prop_assert!((counts.on as usize) <= stats.unique_paths);
            prop_assert!((counts.off as usize) <= stats.unique_paths);
            prop_assert!((counts.on + counts.off) as usize <= stats.unique_paths);
        }
        prop_assert!(stats.unique_paths <= observations.len().max(1));
    }

    #[test]
    fn every_observed_community_is_labeled_or_excluded(observations in arb_observations()) {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&observations, &siblings);
        let inference = classify(&stats, &siblings, &InferenceConfig::default());
        for c in stats.per_community.keys() {
            let labeled = inference.labels.contains_key(c);
            let excluded = inference.excluded.contains_key(c);
            prop_assert!(labeled ^ excluded, "{c} labeled={labeled} excluded={excluded}");
        }
        prop_assert_eq!(
            inference.labels.len() + inference.excluded.len(),
            stats.community_count()
        );
    }

    #[test]
    fn cluster_labels_agree_with_community_labels(observations in arb_observations()) {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&observations, &siblings);
        let inference = classify(&stats, &siblings, &InferenceConfig::default());
        for lc in &inference.clusters {
            for &beta in &lc.cluster.betas {
                let c = Community::new(lc.cluster.asn, beta);
                prop_assert_eq!(inference.labels.get(&c), Some(&lc.label));
            }
        }
    }

    #[test]
    fn gap_zero_yields_singleton_clusters(observations in arb_observations()) {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&observations, &siblings);
        let cfg = InferenceConfig { min_gap: 0, ..InferenceConfig::default() };
        let inference = classify(&stats, &siblings, &cfg);
        for lc in &inference.clusters {
            prop_assert_eq!(lc.cluster.betas.len(), 1);
        }
    }

    #[test]
    fn ratio_is_finite_and_nonnegative(on in any::<u32>(), off in any::<u32>()) {
        let r = PathCounts { on, off }.ratio();
        prop_assert!(r.is_finite());
        prop_assert!(r >= 0.0);
    }

    #[test]
    fn kernel_matches_reference_on_messy_inputs(
        observations in arb_messy_observations(),
        siblings in arb_siblings(),
    ) {
        let kernel = PathStats::from_observations(&observations, &siblings);
        let reference = reference_stats(&observations, &siblings);
        prop_assert_eq!(kernel, reference);
    }

    #[test]
    fn kernel_identical_at_any_thread_count(
        observations in arb_messy_observations(),
        siblings in arb_siblings(),
    ) {
        let store = ObservationStore::from_observations(&observations);
        let base = PathStats::from_store(&store, &siblings);
        for threads in [1usize, 2, 8] {
            prop_assert_eq!(
                &PathStats::from_store_threaded(&store, &siblings, threads),
                &base
            );
            prop_assert_eq!(
                &PathStats::from_observations_threaded(&observations, &siblings, threads),
                &base
            );
        }
    }

    #[test]
    fn accumulator_matches_reference_however_split_merged_or_resumed(
        observations in arb_messy_observations(),
        siblings in arb_siblings(),
        n_files in 1usize..5,
    ) {
        let reference = reference_stats(&observations, &siblings);
        let chunk = observations.len().div_ceil(n_files).max(1);
        let files: Vec<&[Observation]> = observations.chunks(chunk).collect();
        let states: Vec<StatsAccumulator> = files
            .iter()
            .map(|file| {
                let mut acc = StatsAccumulator::new();
                acc.ingest_store(&ObservationStore::from_observations(file), &siblings);
                acc
            })
            .collect();
        let mut forward = StatsAccumulator::new();
        states.iter().for_each(|s| forward.merge(s));
        let mut reverse = StatsAccumulator::new();
        states.iter().rev().for_each(|s| reverse.merge(s));
        prop_assert_eq!(&forward.to_stats(), &reference);
        prop_assert_eq!(&reverse.to_stats(), &reference);

        // One run checkpointing after every file, and one that crashes
        // after the middle file's checkpoint and resumes from its bytes.
        let dir = envelope_dir("oracle");
        let save = |acc: &StatsAccumulator, name: &str| {
            let path = dir.join(name);
            Checkpoint { snapshot: acc.clone(), ..Checkpoint::new() }.save_atomic(&path).unwrap();
            path
        };
        let crash_after = files.len() / 2;
        let mut full = StatsAccumulator::new();
        let mut resumed = None;
        for (i, file) in files.iter().enumerate() {
            full.ingest_ordered(file, &siblings);
            let path = save(&full, "full.ckpt");
            if i == crash_after {
                let loaded = Checkpoint::load(&path).unwrap().snapshot;
                resumed = Some(StatsAccumulator::from_snapshot(loaded, &siblings));
            } else if let Some(r) = resumed.as_mut() {
                r.ingest_store(&ObservationStore::from_observations(file), &siblings);
            }
        }
        prop_assert_eq!(&full.to_stats(), &reference);
        if let Some(r) = resumed {
            prop_assert_eq!(&r.to_stats(), &reference);
            let uninterrupted = std::fs::read(save(&full, "full.ckpt")).unwrap();
            prop_assert_eq!(std::fs::read(save(&r, "resumed.ckpt")).unwrap(), uninterrupted);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn classification_is_deterministic(observations in arb_observations()) {
        let siblings = SiblingMap::default();
        let stats = PathStats::from_observations(&observations, &siblings);
        let a = classify(&stats, &siblings, &InferenceConfig::default());
        let b = classify(&stats, &siblings, &InferenceConfig::default());
        prop_assert_eq!(a.labels, b.labels);
        prop_assert_eq!(a.excluded, b.excluded);
    }
}

/// A fresh directory for one test case's checkpoint files, unique across
/// concurrently running tests.
fn envelope_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bgp-intent-envelope-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Envelope prelude offsets (module docs of `bgp_intent::checkpoint`,
/// "On-disk format"): magic, schema u32, seal u64, header length u64.
const SEAL_AT: usize = 12;
const PRELUDE_LEN: usize = 28;

fn le_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Re-seal an edited envelope so the seal passes and the loader's own
/// length checks are what must refuse it.
fn reseal(bytes: &mut [u8]) {
    bytes[SEAL_AT..SEAL_AT + 8].fill(0);
    let seal = fnv1a(FNV_OFFSET, bytes);
    bytes[SEAL_AT..SEAL_AT + 8].copy_from_slice(&seal.to_le_bytes());
}

/// Where the first column block's count fields and arrays sit, from the
/// layout in the module docs of `bgp_intent::checkpoint`: six `u64`
/// counts (paths, segments, ASNs, community sets, communities, tuples),
/// then the arrays in order, each with its element width and the count
/// that sizes it.
struct FirstBlock {
    counts_at: usize,
    counts: [usize; 6],
    /// `(start, width, count field)` of each array, in file order.
    arrays: [(usize, usize, usize); 7],
}

impl FirstBlock {
    const PATH_SEG_ENDS: usize = 0;
    const PATH_ASN_ENDS: usize = 1;
    const SEGS: usize = 2;
    const CSET_ENDS: usize = 4;
    const TUPLES: usize = 6;

    fn of(sealed: &[u8]) -> Self {
        let counts_at = PRELUDE_LEN + le_u64(sealed, PRELUDE_LEN - 8) as usize;
        let counts: [usize; 6] =
            std::array::from_fn(|i| le_u64(sealed, counts_at + 8 * i) as usize);
        let mut at = counts_at + 48;
        let arrays =
            [(4, 0), (4, 0), (5, 1), (4, 2), (4, 3), (4, 4), (8, 5)].map(|(width, field)| {
                let start = at;
                at += width * counts[field];
                (start, width, field)
            });
        FirstBlock {
            counts_at,
            counts,
            arrays,
        }
    }

    fn u32_at(bytes: &[u8], at: usize) -> u32 {
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    }
}

/// Forged copies of a sealed envelope, each resealed: the header length
/// and each of the first column block's six counts set to `u64::MAX` and
/// to one element more than the bytes left at its first array can hold.
fn forged_lengths(sealed: &[u8]) -> Vec<(String, Vec<u8>)> {
    let len = sealed.len();
    let block = FirstBlock::of(sealed);
    let mut fields = vec![(
        "header length".to_string(),
        PRELUDE_LEN - 8,
        len - PRELUDE_LEN + 1,
    )];
    let names = [
        "paths",
        "segments",
        "ASNs",
        "community sets",
        "communities",
        "tuples",
    ];
    for (field, name) in names.into_iter().enumerate() {
        let &(start, width, _) = block.arrays.iter().find(|a| a.2 == field).unwrap();
        fields.push((
            name.to_string(),
            block.counts_at + 8 * field,
            (len - start) / width + 1,
        ));
    }
    let mut forged = Vec::new();
    for (name, at, one_past) in fields {
        for value in [u64::MAX, one_past as u64] {
            let mut bytes = sealed.to_vec();
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            reseal(&mut bytes);
            forged.push((format!("{name} = {value}"), bytes));
        }
    }
    forged
}

/// Resealed copies whose lengths all fit but whose first column block is
/// inconsistent, each with the phrase its refusal must name: a tuple's
/// path ID at the path count, a segment count one more than its path's
/// ASNs, and each offset list whose first end passes its second.
fn forged_contents(sealed: &[u8]) -> Vec<(String, &'static str, Vec<u8>)> {
    let block = FirstBlock::of(sealed);
    let mut forged = Vec::new();
    let mut edit = |what: &str, needle: &'static str, at: usize, value: u32| {
        let mut bytes = sealed.to_vec();
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut bytes);
        forged.push((what.to_string(), needle, bytes));
    };
    let (tuples, _, _) = block.arrays[FirstBlock::TUPLES];
    if block.counts[5] > 0 {
        edit(
            "tuple path ID",
            "out of range",
            tuples,
            block.counts[0] as u32,
        );
    }
    let (segs, _, _) = block.arrays[FirstBlock::SEGS];
    if block.counts[1] > 0 {
        let count = FirstBlock::u32_at(sealed, segs + 1);
        edit("segment count", "segment counts", segs + 1, count + 1);
    }
    for array in [
        FirstBlock::PATH_SEG_ENDS,
        FirstBlock::PATH_ASN_ENDS,
        FirstBlock::CSET_ENDS,
    ] {
        let (start, _, field) = block.arrays[array];
        if block.counts[field] >= 2 {
            let second = FirstBlock::u32_at(sealed, start + 4);
            edit("offsets", "offsets", start, second + 1);
        }
    }
    forged
}

/// The damage every sealed envelope must survive: each strict prefix,
/// each forged length and each inconsistent column is refused as
/// `Corrupt` — never a panic, and never an allocation sized by a forged
/// claim: no single request larger than the file itself or than the
/// largest one loading the genuine file makes.
fn assert_damage_refused<T: std::fmt::Debug>(
    path: &Path,
    load: fn(&Path) -> Result<T, CheckpointLoadError>,
) {
    let sealed = std::fs::read(path).unwrap();
    let (genuine, genuine_peak) = largest_allocation(|| load(path));
    genuine.unwrap();
    let bound = genuine_peak.max(sealed.len());
    // Shorten the one file in place, longest prefix first.
    let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    for cut in (0..sealed.len()).rev() {
        file.set_len(cut as u64).unwrap();
        let err = load(path).unwrap_err();
        assert!(
            matches!(err, CheckpointLoadError::Corrupt { .. }),
            "cut at {cut}/{}: {err}",
            sealed.len()
        );
    }
    drop(file);
    let forged = forged_lengths(&sealed)
        .into_iter()
        .map(|(what, bytes)| (what, "", bytes))
        .chain(forged_contents(&sealed));
    for (what, needle, bytes) in forged {
        std::fs::write(path, &bytes).unwrap();
        let (result, peak) = largest_allocation(|| load(path));
        let err = result.unwrap_err();
        assert!(
            matches!(err, CheckpointLoadError::Corrupt { ref detail, .. } if detail.contains(needle)),
            "forged {what}: {err}"
        );
        assert!(
            peak <= bound,
            "forged {what}: allocated {peak} bytes, bound {bound} ({}-byte file)",
            bytes.len()
        );
    }
    std::fs::write(path, &sealed).unwrap();
}

/// Observations spread over time so a watch run crosses window advances.
fn timed(mut observations: Vec<Observation>, step: u32) -> Vec<Observation> {
    for (i, o) in observations.iter_mut().enumerate() {
        o.time = i as u32 * step;
    }
    observations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn checkpoint_envelope_roundtrips_and_refuses_damage(
        observations in arb_observations(),
        siblings in arb_siblings(),
        cadence in 1usize..12,
    ) {
        let dir = envelope_dir("batch");
        let path = dir.join("run.ckpt");
        let mut cp = Checkpoint::new();
        for (i, file) in observations.chunks(cadence).enumerate() {
            cp.snapshot.ingest_ordered(file, &siblings);
            cp.files.push(CompletedFile {
                path: format!("updates.{i:02}.mrt"),
                fingerprint: FileFingerprint { bytes: file.len() as u64, hash: i as u64 },
            });
            cp.report.records_read += file.len() as u64;
        }
        cp.save_atomic(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        prop_assert_eq!(&back, &Checkpoint { checksum: cp.payload_checksum(), ..cp.clone() });
        assert_damage_refused(&path, Checkpoint::load);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn watch_checkpoint_envelope_roundtrips_and_refuses_damage(
        observations in arb_observations(),
        siblings in arb_siblings(),
        step in 1u32..60,
        cadence in 1usize..12,
    ) {
        let dir = envelope_dir("watch");
        let path = dir.join("watch.ckpt");
        let window = WindowConfig { window_secs: 100, windows: 3 };
        let mut classifier = WindowedClassifier::new(window, InferenceConfig::default());
        let mut cumulative = StatsAccumulator::new();
        let observations = timed(observations, step);
        let mut cp = WatchCheckpoint::capture(&classifier, &cumulative, 0, 0, 0);
        for (i, batch) in observations.chunks(cadence).enumerate() {
            for o in batch {
                classifier.observe(o, &siblings);
            }
            cumulative.ingest_ordered(batch, &siblings);
            let seen = (i * cadence + batch.len()) as u64;
            cp = WatchCheckpoint::capture(&classifier, &cumulative, 40 * seen, seen, seen);
        }
        cp.save_atomic(&path).unwrap();
        let back = WatchCheckpoint::load(&path).unwrap();
        prop_assert_eq!(&back, &WatchCheckpoint { checksum: cp.payload_checksum(), ..cp.clone() });
        assert_damage_refused(&path, WatchCheckpoint::load);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
