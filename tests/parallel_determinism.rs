//! The parallel pipeline's headline guarantee: at *any* thread count the
//! output is bit-identical to the sequential run — for multi-file MRT
//! ingestion (including files with injected corruption, where the merged
//! byte ledger must still balance), for strict ingestion, and for the full
//! statistics → clustering → classification → evaluation pipeline.

use std::fs;
use std::path::{Path, PathBuf};

use bgp_community_intent::experiments::{Scenario, ScenarioConfig};
use bgp_community_intent::intent::{run_inference, InferenceConfig, PipelineResult};
use bgp_community_intent::mrt::faults::corrupt_stream;
use bgp_community_intent::mrt::obs::{
    read_observations_parallel_store_telemetry, read_observations_resilient_into,
    write_update_stream, FileStoreIngest,
};
use bgp_community_intent::mrt::readahead::DEFAULT_BLOCK_SIZE;
use bgp_community_intent::mrt::{IngestReport, IngestTuning, RecoverConfig};
use bgp_community_intent::types::store::ObservationStore;
use bgp_community_intent::types::{Asn, Observation, Telemetry};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn scenario() -> Scenario {
    Scenario::build(&ScenarioConfig {
        scale: 0.1,
        documented: 10,
        ..ScenarioConfig::default()
    })
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgp-par-determinism-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Split `observations` into three MRT update archives; optionally corrupt
/// the middle one with seeded faults. Returns the file paths.
fn archives(dir: &Path, observations: &[Observation], corrupt_middle: bool) -> Vec<PathBuf> {
    let chunk = observations.len().div_ceil(3).max(1);
    observations
        .chunks(chunk)
        .enumerate()
        .map(|(i, obs)| {
            let mut buf = Vec::new();
            write_update_stream(&mut buf, Asn::new(6447), obs).unwrap();
            if corrupt_middle && i == 1 {
                let (damaged, log) = corrupt_stream(&buf, 11, 0.05);
                assert!(log.count() > 0, "corruption must actually land");
                buf = damaged;
            }
            let path = dir.join(format!("chunk{i}.mrt"));
            fs::write(&path, buf).unwrap();
            path
        })
        .collect()
}

/// One sequential resilient read of `path` under `cfg`.
fn read_file(path: &Path, cfg: &RecoverConfig) -> (Vec<Observation>, IngestReport) {
    let mut observations = Vec::new();
    let report =
        read_observations_resilient_into(fs::File::open(path).unwrap(), cfg, &mut observations);
    (observations, report)
}

/// The multi-file entry point under the default supervision, untraced.
fn read_parallel(
    paths: &[PathBuf],
    cfg: &RecoverConfig,
    threads: usize,
) -> (Vec<FileStoreIngest>, IngestReport) {
    read_observations_parallel_store_telemetry(
        paths,
        cfg,
        &IngestTuning::default(),
        threads,
        &Telemetry::disabled(),
    )
}

/// A store's rows, in order.
fn rows(store: &ObservationStore) -> Vec<Observation> {
    (0..store.len()).map(|i| store.get(i)).collect()
}

#[test]
fn lenient_multi_file_ingest_is_identical_at_any_thread_count() {
    let observations = scenario().collect(1);
    assert!(observations.len() >= 3, "scenario too small to split");
    let dir = workdir("lenient");
    let paths = archives(&dir, &observations, true);
    let cfg = RecoverConfig::default();

    // Sequential reference: one resilient read per file, in order.
    let reference: Vec<_> = paths.iter().map(|p| read_file(p, &cfg)).collect();

    for threads in THREAD_COUNTS {
        let (files, merged) = read_parallel(&paths, &cfg, threads);
        assert_eq!(files.len(), paths.len());
        for (file, (obs, report)) in files.iter().zip(&reference) {
            assert_eq!(&rows(&file.store), obs, "threads = {threads}");
            // The supervised chain prefetches through a readahead layer the
            // direct read does not have; its block count is deterministic
            // (completely filled blocks of the default size). Everything
            // else in the report matches the direct read exactly.
            let mut normalized = file.report.clone();
            assert_eq!(
                normalized.readahead_blocks,
                normalized.bytes_read.div_ceil(DEFAULT_BLOCK_SIZE as u64),
                "threads = {threads}"
            );
            normalized.readahead_blocks = report.readahead_blocks;
            assert_eq!(&normalized, report, "threads = {threads}");
        }
        // The merged ledger must balance even with a corrupted file in the
        // middle: every byte is either decoded or accounted as skipped.
        assert_eq!(
            merged.bytes_ok + merged.bytes_skipped,
            merged.bytes_read,
            "threads = {threads}"
        );
        assert!(merged.bytes_skipped > 0, "corruption went unnoticed");
        let mut by_hand = reference
            .iter()
            .fold(IngestReport::default(), |mut acc, (_, r)| {
                acc.merge(r);
                acc
            });
        // Direct reads carry no readahead layer; the supervised merge sums
        // one deterministic block count per file.
        assert_eq!(
            merged.readahead_blocks,
            files.iter().map(|f| f.report.readahead_blocks).sum::<u64>(),
            "threads = {threads}"
        );
        by_hand.readahead_blocks = merged.readahead_blocks;
        assert_eq!(merged, by_hand, "threads = {threads}");
    }
}

#[test]
fn strict_multi_file_ingest_is_identical_at_any_thread_count() {
    let observations = scenario().collect(1);
    let dir = workdir("strict");
    let paths = archives(&dir, &observations, false);

    // Strict ingestion is an error budget of zero.
    let strict = RecoverConfig {
        max_errors: Some(0),
        ..RecoverConfig::default()
    };
    let reference: Vec<_> = paths
        .iter()
        .map(|p| {
            let (observations, report) = read_file(p, &strict);
            assert!(report.aborted.is_none(), "{}: {report:?}", p.display());
            observations
        })
        .collect();

    for threads in THREAD_COUNTS {
        let (files, merged) = read_parallel(&paths, &strict, threads);
        assert!(merged.aborted.is_none(), "threads = {threads}");
        let per_file: Vec<_> = files.iter().map(|f| rows(&f.store)).collect();
        assert_eq!(per_file, reference, "threads = {threads}");
    }
}

#[test]
fn full_pipeline_result_is_identical_at_any_thread_count() {
    let scenario = scenario();
    let observations = scenario.collect(1);

    let run = |threads: usize| -> PipelineResult {
        let cfg = InferenceConfig {
            threads,
            ..InferenceConfig::default()
        };
        run_inference(
            &observations,
            &scenario.siblings,
            &cfg,
            Some(&scenario.dict),
        )
    };

    let baseline = run(1);
    assert!(
        baseline.stats.community_count() > 0,
        "scenario produced no communities"
    );
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads), baseline, "threads = {threads}");
    }
    // `0` resolves to one worker per CPU — still identical.
    assert_eq!(run(0), baseline, "threads = 0");
}
