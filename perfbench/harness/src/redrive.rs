//! The traced run: `infer_week` and `watch_week` re-driven in-process.
//!
//! A pass makes the calls the `bgpcomm` subcommand makes, in the same order
//! and with the same settings, through the layers' public functions, and
//! records one span around every call. It reports each layer's self time
//! and checks its labels against the reference. `perfbench/run.py` runs one
//! pass per invocation, alternating with the untraced command, and takes
//! medians.

use std::fs::File;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bgp_dictionary::GroundTruthDictionary;
use bgp_intent::classify::classify;
use bgp_intent::eval::evaluate;
use bgp_intent::{
    label_rows, write_inference_artifact, PathStats, StatsAccumulator, WatchCheckpoint,
    WindowConfig, WindowedClassifier,
};
use bgp_mrt::obs::read_observations_parallel_store_telemetry;
use bgp_mrt::{
    FileTailFeed, IngestTuning, RecoverConfig, ResumingStream, StreamCounters, StreamDecoder,
    StreamTuning,
};
use bgp_relationships::SiblingMap;
use bgp_types::store::ObservationStore;
use bgp_types::{Observation, Telemetry};

use crate::gen::read_rows;
use crate::trace::{SpanId, Tracer};
use crate::{cli_config, THREADS};

/// The `--ratio` default of `bgpcomm`, under which labels are written.
const RATIO: f64 = 160.0;

/// One pass's result: the per-layer figures, the time inside the traced
/// layers (the pass minus the harness's own glue), and the label check.
fn pass_json(
    t: &Tracer,
    root: SpanId,
    layers: Vec<(&'static str, f64)>,
    labels_ok: bool,
) -> serde_json::Value {
    let traced_s = t.duration_s(root) - t.self_seconds(root)["pass"];
    let layers: serde_json::Map = layers
        .into_iter()
        .map(|(name, value)| (name.to_string(), serde_json::json!(value)))
        .collect();
    serde_json::json!({
        "attempted": 1,
        "failed": u64::from(!labels_ok),
        "traced_s": traced_s,
        "layers": layers,
    })
}

fn load_siblings(dir: &Path) -> io::Result<SiblingMap> {
    let file = File::open(dir.join("siblings.json"))?;
    serde_json::from_reader(BufReader::new(file)).map_err(io::Error::other)
}

/// Self time per span name under `root`, zero for a name that never ran.
fn self_times(tracer: &Tracer, root: SpanId) -> impl Fn(&str) -> f64 {
    let own = tracer.self_seconds(root);
    move |name| own.get(name).copied().unwrap_or(0.0)
}

/// `bgpcomm infer --mrt ... --siblings --dict --artifact-out --threads 2`.
pub fn infer(
    dir: &Path,
    files: &[PathBuf],
    artifact_out: &Path,
    trace_out: &Path,
    pass: u32,
) -> io::Result<serde_json::Value> {
    let siblings = load_siblings(dir)?;
    let dict =
        GroundTruthDictionary::from_json(BufReader::new(File::open(dir.join("dictionary.json"))?))
            .map_err(io::Error::other)?;
    let reference = read_rows(&dir.join("ref_rows.tsv"))?;
    let cfg = cli_config(THREADS);
    let recover = RecoverConfig::default();
    let tuning = IngestTuning::default();
    let disabled = Telemetry::disabled();
    let mut t = Tracer::new("infer_week", pass);

    let root = t.enter("pass");
    let id = t.enter("mrt.decode");
    let (decoded, report) =
        read_observations_parallel_store_telemetry(files, &recover, &tuning, THREADS, &disabled);
    t.count(id, "records", report.records_read);
    t.count(id, "bytes", report.bytes_read);
    t.count(id, "skipped_records", report.records_skipped);
    t.exit(id);

    let id = t.enter("store.merge");
    let mut store = ObservationStore::new();
    for file in decoded {
        store.merge(&file.store);
    }
    t.count(id, "observations", store.len() as u64);
    t.count(id, "unique_paths", store.path_count() as u64);
    t.count(id, "unique_csets", store.cset_count() as u64);
    t.exit(id);

    let stats = t.span("stats.from_store", || {
        PathStats::from_store_threaded(&store, &siblings, THREADS)
    });
    let inference = t.span("classify", || classify(&stats, &siblings, &cfg));
    t.span("eval", || evaluate(&inference, &dict));

    let id = t.enter("artifact.write");
    write_inference_artifact(artifact_out, &inference, RATIO)?;
    t.count(id, "bytes", std::fs::metadata(artifact_out)?.len());
    t.exit(id);
    t.exit(root);

    let self_s = self_times(&t, root);
    let layers = vec![
        ("mrt.decode_s", self_s("mrt.decode")),
        ("mrt.records", report.records_read as f64),
        ("mrt.bytes", report.bytes_read as f64),
        ("mrt.skipped_records", report.records_skipped as f64),
        ("store.merge_s", self_s("store.merge")),
        ("store.path_ratio", ratio(store.path_count(), store.len())),
        ("store.cset_ratio", ratio(store.cset_count(), store.len())),
        ("stats.from_store_s", self_s("stats.from_store")),
        ("classify.s", self_s("classify")),
        ("eval.s", self_s("eval")),
        ("artifact.write_s", self_s("artifact.write")),
        (
            "artifact.bytes",
            std::fs::metadata(artifact_out)?.len() as f64,
        ),
    ];
    let out = pass_json(&t, root, layers, label_rows(&inference, RATIO) == reference);
    t.write_jsonl(trace_out)?;
    Ok(out)
}

fn ratio(part: usize, whole: usize) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// `bgpcomm watch --tail ARCHIVE --quiesce-after 1 --checkpoint CK
/// --siblings --threads 2` from an empty checkpoint, every other flag at
/// its default.
pub fn watch(
    dir: &Path,
    archive: &Path,
    checkpoint: &Path,
    trace_out: &Path,
    pass: u32,
) -> io::Result<serde_json::Value> {
    let siblings = load_siblings(dir)?;
    let reference = read_rows(&dir.join("ref_rows.tsv"))?;
    let cfg = cli_config(THREADS);
    let window = WindowConfig {
        window_secs: 3600,
        windows: 24,
    };
    let mut tuning = StreamTuning {
        queue_bytes: 4096 << 10,
        chunk_bytes: 64 << 10,
        stall_timeout: Duration::from_millis(2000),
        quiesce_after: Some(1),
        ..StreamTuning::default()
    };
    tuning.retry.max_attempts = IngestTuning::default().retry.max_attempts;
    let mut t = Tracer::new("watch_week", pass);

    match std::fs::remove_file(checkpoint) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let root = t.enter("pass");
    let mut classifier = WindowedClassifier::new(window, cfg.clone());
    let mut cumulative = StatsAccumulator::new();
    let counters = Arc::new(StreamCounters::default());
    let stream = ResumingStream::new(
        FileTailFeed::new(archive.to_path_buf()),
        tuning.clone(),
        0,
        Arc::new(AtomicBool::new(false)),
        counters.clone(),
    );
    let mut decoder = StreamDecoder::new(stream, RecoverConfig::default());
    let (mut observations, mut saves, mut saved_bytes) = (0u64, 0u64, 0u64);
    let mut save = |t: &mut Tracer,
                    classifier: &mut WindowedClassifier,
                    cumulative: &mut StatsAccumulator,
                    cursor: u64,
                    records: u64,
                    observations: u64|
     -> io::Result<()> {
        let cp = t.span("checkpoint.capture", || {
            WatchCheckpoint::capture(classifier, cumulative, cursor, records, observations)
        });
        let id = t.enter("checkpoint.save");
        cp.save_atomic(checkpoint)?;
        t.exit(id);
        saves += 1;
        saved_bytes += std::fs::metadata(checkpoint)?.len();
        Ok(())
    };

    let mut batch: Vec<Observation> = Vec::new();
    loop {
        batch.clear();
        let id = t.enter("stream.decode");
        let step = decoder.next_record(&mut batch);
        t.exit(id);
        if step.is_none() {
            break;
        }
        let mut advanced = false;
        for obs in &batch {
            let id = t.enter("watch.observe");
            let adv = classifier.observe(obs, &siblings);
            t.exit_as(id, if adv { "watch.advance" } else { "watch.fold" });
            advanced |= adv;
        }
        if !batch.is_empty() {
            t.span("checkpoint.cumulative", || {
                cumulative.ingest_ordered(&batch, &siblings)
            });
            observations += batch.len() as u64;
        }
        if advanced {
            let (cursor, records) = (decoder.consumed_bytes(), decoder.records_decoded());
            save(
                &mut t,
                &mut classifier,
                &mut cumulative,
                cursor,
                records,
                observations,
            )?;
        }
    }
    let report = decoder.report();
    if let Some(reason) = &report.aborted {
        return Err(io::Error::other(format!("stream aborted: {reason}")));
    }
    t.span("classify.final", || classifier.reclassify(&siblings));
    let (cursor, records) = (decoder.consumed_bytes(), decoder.records_decoded());
    save(
        &mut t,
        &mut classifier,
        &mut cumulative,
        cursor,
        records,
        observations,
    )?;
    let stats = t.span("checkpoint.cumulative", || cumulative.to_stats());
    let inference = t.span("classify.final", || classify(&stats, &siblings, &cfg));
    t.exit(root);

    let self_s = self_times(&t, root);
    let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::SeqCst) as f64;
    let layers = vec![
        ("stream.decode_s", self_s("stream.decode")),
        (
            "stream.backpressure_stalls",
            load(&counters.backpressure_stalls),
        ),
        ("stream.queue_peak_bytes", load(&counters.queue_peak_bytes)),
        ("watch.fold_s", self_s("watch.fold")),
        ("watch.advance_s", self_s("watch.advance")),
        ("watch.advances", classifier.advances() as f64),
        (
            "watch.reclassified_owners",
            classifier.reclassified_owners() as f64,
        ),
        ("watch.late_drops", classifier.late_drops() as f64),
        ("checkpoint.cumulative_s", self_s("checkpoint.cumulative")),
        ("checkpoint.capture_s", self_s("checkpoint.capture")),
        ("checkpoint.save_s", self_s("checkpoint.save")),
        ("checkpoint.saves", saves as f64),
        ("checkpoint.bytes", saved_bytes as f64),
        ("classify.final_s", self_s("classify.final")),
    ];
    let out = pass_json(&t, root, layers, label_rows(&inference, RATIO) == reference);
    t.write_jsonl(trace_out)?;
    Ok(out)
}
