//! Subcommand implementations.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};

use std::io::Write;
use std::sync::Arc;

use bgp_artifact::{LabelArtifact, LabelRow};
use bgp_dictionary::GroundTruthDictionary;
use bgp_experiments::{Args, Scenario, ScenarioConfig};
use bgp_intent::{
    check_store, fingerprint_file, label_rows, run_inference_from_stats_telemetry,
    run_inference_store_telemetry, write_inference_artifact, Checkpoint, CompletedFile, Exclusion,
    InferenceConfig, PipelineResult, StatsAccumulator,
};
use bgp_mrt::obs::{
    read_observations_parallel_store_telemetry, write_rib_dump, write_update_stream,
};
use bgp_mrt::{FlakyConfig, IngestReport, IngestTuning, RecoverConfig};
use bgp_relationships::SiblingMap;
use bgp_types::obs::{JsonLinesSink, StderrSink};
use bgp_types::par::effective_threads;
use bgp_types::store::ObservationStore;
use bgp_types::{Asn, Community, Intent, MetricsRegistry, Telemetry, Tracer};

/// Top-level usage text.
pub const USAGE: &str = "\
bgpcomm — BGP community intent inference (IMC'23 reproduction)

USAGE:
    bgpcomm stats    --mrt FILE [--mrt FILE ...] [--strict] [--max-errors N]
                     [--report FILE] [--threads N] [--metrics-out FILE]
                     [--trace] [--trace-json FILE]
    bgpcomm infer    --mrt FILE [--mrt FILE ...] [--gap N] [--ratio N]
                     [--dict FILE] [--siblings FILE] [--json FILE] [--top N]
                     [--artifact-out FILE] [--strict] [--max-errors N]
                     [--report FILE] [--threads N]
                     [--checkpoint FILE [--resume]] [--metrics-out FILE]
                     [--trace] [--trace-json FILE]
    bgpcomm shard    --mrt FILE [--mrt FILE ...] --shard-dir DIR [--workers N]
                     [--shard-retries N] [--shard-deadline-ms N]
                     [--allow-shard-failures K] [--gap N] [--ratio N]
                     [--dict FILE] [--siblings FILE] [--json FILE] [--top N]
                     [--artifact-out FILE] [--max-errors N] [--report FILE]
                     [--threads N] [--metrics-out FILE] [--trace]
                     [--trace-json FILE]
    bgpcomm watch    (--connect HOST:PORT | --unix PATH | --tail FILE)
                     [--window-secs N] [--windows N] [--checkpoint FILE]
                     [--queue-kb N] [--chunk-kb N] [--stall-ms N]
                     [--retry-attempts N] [--quiesce-after N]
                     [--gap N] [--ratio N] [--siblings FILE] [--json FILE]
                     [--artifact-out FILE] [--max-errors N] [--report FILE]
                     [--metrics-out FILE]
    bgpcomm query    --artifact FILE [--key A:B[,A:B ...]] [--batch FILE]
                     [--owner A] [--bench N] [--threads N]
                     [--check MRT[,MRT ...]] [--siblings FILE]
                     [--max-errors N] [--report FILE] [--metrics-out FILE]
                     [--trace] [--trace-json FILE]
    bgpcomm feed     --listen HOST:PORT (--mrt FILE [--mrt FILE ...] |
                     [--scale F] [--seed N] [--days N])
                     [--throttle BYTES:MS]
    bgpcomm validate --mrt FILE [--mrt FILE ...]
    bgpcomm compare  --old FILE --new FILE
    bgpcomm generate --out DIR [--scale F] [--seed N] [--days N] [--docs N]
                     [--stream]

COMMANDS:
    stats     Summarize MRT archives: records, tuples, paths, communities.
    infer     Classify observed communities as action or information.
    shard     `infer` across N supervised worker subprocesses: input files
              are partitioned round-robin, each worker writes a snapshot
              artifact, failed/stalled workers are retried, and the merged
              classification is bit-identical to a single-process run.
    watch     Long-running streaming daemon: consume a continuous update
              stream, fold into rolling time windows, reclassify only what
              each window advance touched, and checkpoint so a crash (even
              kill -9) resumes without double-counting.
    feed      Serve an MRT byte stream over TCP with the watch resume
              protocol (tests, demos, CI; real deployments put a collector
              behind the same protocol).
    query     Serve label lookups from an artifact written by
              `infer/shard/watch --artifact-out`: point keys, batch files,
              owner scans, a self-driving benchmark, and `--check` — stream
              an archive and flag routes whose observed communities
              contradict their inferred intent (exit 7 on any anomaly).
    validate  Lint MRT archives: per-record-type counts and decode errors.
    compare   Diff two label files from `infer --json` (drift monitoring;
              exit 7 on any intent flip).
    generate  Write a synthetic collector dataset + ground-truth dictionary.

INGESTION (stats, infer):
    By default damaged MRT input degrades gracefully: the reader skips
    undecodable records, resynchronizes past framing corruption, and prints
    an ingest summary to stderr.
    --strict        Abort on the first decode error (exit code 2): an
                    error budget of zero.
    --max-errors N  Abort once more than N decode errors occur (exit 3).
                    Dropped RIB entries (peer index out of range) count.
    --report FILE   Write the machine-readable ingest report (JSON) to FILE,
                    or to stdout if FILE is `-`.
    --threads N     Worker threads: MRT files decode in parallel (one file
                    per worker) and the analysis stages shard across N
                    threads. 0 = one per CPU (default). Output is identical
                    at any thread count.
    --retry-attempts N
                    Attempts per I/O operation before a transient failure
                    (EINTR, stall) is surfaced (default 4; deterministic
                    exponential backoff, 2ms doubling to 100ms).

CHECKPOINTS (infer, lenient mode):
    --checkpoint FILE
                    Crash-safe incremental runs: after every fully ingested
                    MRT file, record its completion (byte length + content
                    hash) and a statistics snapshot in FILE, written
                    atomically (temp file + rename). Failed files are not
                    recorded and are retried on resume.
    --resume        Continue a checkpointed run: files recorded in FILE are
                    fingerprint-checked and skipped. A changed input file,
                    an unknown recorded file, or a schema mismatch refuses
                    with exit 4. The resumed output is bit-identical to an
                    uninterrupted run.

OBSERVABILITY (stats, infer, shard, watch, query):
    --metrics-out FILE
                    Write a JSON metrics snapshot to FILE (`-` = stdout):
                    ingest bytes/records/retries/faults, interner occupancy,
                    stats-kernel output shape, classification tallies with a
                    ratio histogram around the 160:1 threshold, checkpoint
                    write/verify latencies, and per-stage wall-clock totals.
                    Key order is stable; everything outside `timings` is
                    bit-identical at any thread count. Written on success
                    and on every failure, like --report.
    --trace         Pretty-print completed spans (per-file ingest, pipeline
                    stages) to stderr, indented by nesting depth.
    --trace-json FILE
                    Write completed spans as JSON-lines to FILE (`-` =
                    stdout) for jq triage of slow or lossy runs. Takes
                    precedence over --trace.

SHARDED RUNS (shard):
    --shard-dir DIR Working directory for per-shard artifacts, heartbeat
                    files, and worker logs. Re-running the same command
                    reuses the valid artifacts already present, so a
                    partially failed run resumes instead of restarting.
    --workers N     Worker subprocesses (0 = one per CPU). The partition
                    never changes the output: merged statistics are
                    bit-identical at any worker count.
    --shard-retries N
                    Re-runs allowed per shard after its first failure
                    (default 2), with deterministic exponential backoff.
    --shard-deadline-ms N
                    A worker that makes no heartbeat progress for this long
                    is killed and the attempt counts as a stall
                    (default 30000).
    --allow-shard-failures K
                    Tolerate up to K permanently failed shards: the run
                    completes from the surviving shards and the exact
                    coverage shortfall (shards/files/bytes lost) is folded
                    into the ingest report and metrics snapshot. More than
                    K failed shards aborts with exit 5.

STREAMING (watch, feed):
    --connect HOST:PORT / --unix PATH / --tail FILE
                    Where the update stream comes from: a framed TCP or
                    unix-domain socket feed (resume protocol, see `feed`),
                    or a growing file on disk.
    --window-secs N --windows N
                    Sliding-window geometry: N windows of N seconds of
                    *stream time* (default 24 x 3600). Classification runs
                    over the union of the retained windows; observations
                    older than the retention floor are dropped and counted.
    --checkpoint FILE
                    Crash-safe streaming: at every window advance,
                    atomically checkpoint the stream cursor, window
                    contents, and labels. A restarted watch with the same
                    checkpoint resumes at the cursor with no
                    double-counting — bit-identical at the quiescent point
                    to an uninterrupted run. Unlike `infer`, an existing
                    checkpoint resumes automatically (a daemon restart IS
                    the resume path).
    --queue-kb N / --chunk-kb N
                    Bounded ingest queue: at most N KiB buffered between
                    the delivery thread and the fold loop (default 4096),
                    read in chunk-kb pieces (default 64). A full queue
                    blocks the producer and counts a backpressure stall —
                    memory stays bounded no matter how fast the feed is.
    --stall-ms N    A connection delivering nothing for this long is torn
                    down and reconnected at the cursor (default 2000).
    --quiesce-after N
                    Exit cleanly after N consecutive reconnects that
                    deliver zero new bytes (the quiescent point, for
                    batch-parity checks and CI). Default: run until
                    SIGTERM/SIGINT.
    --json FILE     Write the cumulative labels on exit, byte-identical to
                    `infer --json` over the same delivered prefix.
    --listen HOST:PORT
                    (feed) Bind address; the actually bound address is
                    printed to stdout (use port 0 for tests).
    --throttle BYTES:MS
                    (feed) Pace delivery: BYTES per write, MS sleep between.
    Without --mrt, `feed` serves a generated scenario stream (--scale,
    --seed, --days as in `generate`).

SERVING (infer, shard, watch, query):
    --artifact-out FILE
                    Also write the labels as a versioned, checksummed,
                    memory-mappable artifact (sorted columns keyed by the
                    packed α:β word), written atomically. Field-for-field
                    equivalent to the --json label file.
    --artifact FILE (query) The artifact to serve from. A corrupt,
                    truncated, or incompatible artifact is refused with
                    exit 4, like a bad checkpoint.
    --key A:B       (query) Point lookup(s); repeatable and/or
                    comma-separated. Misses print `unknown` (still exit 0).
    --batch FILE    (query) One community per line (# comments and blank
                    lines skipped), looked up via the batch API across
                    --threads workers.
    --owner A       (query) Print every label owned by AS A via the
                    owner-partitioned index (contiguous α-prefix scan).
    --bench N       (query) Self-driving benchmark: N deterministic
                    single-key lookups (~1/16 misses) plus the same keys
                    through the batch API; prints Mlookups/s for both.
    --check MRT     (query) Stream archive(s) and flag routes whose
                    communities contradict their inferred intent class:
                    a never-off-path information community seen off-path,
                    or a never-on-path action community seen on-path.
                    Any anomaly exits 7 (after printing the exact set).

FAULT INJECTION (testing the supervision layer):
    --inject-panic-after N   Panic a decode worker after N records per file.
    --inject-flaky SEED      Inject seeded transient I/O faults (interrupts,
                             stalls, short reads) into every file read.
    --inject-crash-after N   With --checkpoint: exit (code 9) after N newly
                             committed files, simulating a crash.
    --inject-kill-shard I    With shard: crash shard I's worker (exit 9) on
                             its first attempt; retries then succeed.
    --inject-stall-shard I   With shard: stall shard I's worker past the
                             heartbeat deadline on its first attempt.
    --inject-fail-shard I    With shard: crash shard I's worker on *every*
                             attempt, exhausting its retry budget.
    --inject-stream-faults SEED[:RATE]
                             With watch: wrap the source in seeded stream
                             fault injection (disconnects mid-frame, stalls,
                             partial frames, duplicate delivery, corrupt
                             bursts).
    --slow-fold-ms N         With watch: sleep N ms per record, making the
                             consumer slow enough to exercise backpressure.
    --inject-crash-after-windows N
                             With watch: simulate SIGKILL (exit 9, no
                             checkpoint flush) after N window advances.

EXIT CODES:
    0  success                        5  failed shards exceeded allowance
    1  usage or generic error         6  stream aborted (budget exhausted)
    2  decode error in --strict mode  7  anomalies (query --check) or
    3  ingestion aborted                 intent flips (compare)
    4  checkpoint/artifact refused    9  injected crash
";

// The process exit-code contract, consolidated (mirrored in DESIGN.md and
// the USAGE text above — keep all three in sync):
//
// | code | constant          | meaning                                          |
// |------|-------------------|--------------------------------------------------|
// | 0    | —                 | success                                          |
// | 1    | `EXIT_USAGE`      | usage error or generic failure                   |
// | 2    | `EXIT_DECODE`     | decode error under `--strict`                    |
// | 3    | `EXIT_ABORTED`    | lenient ingestion aborted (error budget, I/O)    |
// | 4    | `EXIT_CHECKPOINT` | checkpoint or label artifact refused (corrupt)   |
// | 5    | `EXIT_SHARD`      | permanently failed shards exceeded the allowance |
// | 6    | `EXIT_STREAM`     | watch stream aborted (reconnect/decode budget)   |
// | 7    | `EXIT_ANOMALY`    | `query --check` contradictions, `compare` flips  |
// | 9    | `EXIT_CRASH`      | deliberate `--inject-crash-after` kill hook      |

/// Exit code for a usage error or any otherwise-unclassified failure.
pub const EXIT_USAGE: u8 = 1;
/// Exit code for a decode error under `--strict`.
pub const EXIT_DECODE: u8 = 2;
/// Exit code for an aborted lenient ingest (error budget, fatal I/O).
pub const EXIT_ABORTED: u8 = 3;
/// Exit code for a refused checkpoint (fingerprint or schema mismatch, or a
/// checkpoint that would be silently overwritten without `--resume`) — and,
/// same failure class, a label artifact whose contents were refused at load
/// (corrupt, truncated, wrong version, empty).
pub const EXIT_CHECKPOINT: u8 = 4;
/// Exit code for a sharded run whose permanently failed shards exceeded
/// `--allow-shard-failures`.
pub const EXIT_SHARD: u8 = 5;
/// Exit code for a watch stream that aborted: the reconnect budget or the
/// decode error budget ran out before shutdown or the quiescent point.
pub const EXIT_STREAM: u8 = 6;
/// Exit code when `query --check` found at least one route whose observed
/// communities contradict their inferred intent class, or `compare` found
/// at least one intent flip.
pub const EXIT_ANOMALY: u8 = 7;
/// Exit code of the deliberate `--inject-crash-after` kill hook.
pub const EXIT_CRASH: u8 = 9;

/// Run-level shutdown flag, set by the SIGTERM/SIGINT handler installed by
/// [`install_shutdown_handlers`]. `watch` drains and flushes a final
/// checkpoint; `shard` forwards the TERM to its workers and waits for their
/// artifact flush.
pub static SHUTDOWN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Install SIGTERM/SIGINT handlers that set [`SHUTDOWN`] (and nothing
/// else — flag stores are async-signal-safe). Only the long-running
/// commands (`watch`, `feed`, `shard`) install this; everything else keeps
/// the default die-on-signal disposition.
#[cfg(unix)]
pub fn install_shutdown_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn request_shutdown(_signum: i32) {
        SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = request_shutdown as *const () as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

#[cfg(not(unix))]
pub fn install_shutdown_handlers() {}

/// A command failure: user-facing message plus the process exit code.
#[derive(Debug)]
pub struct Failure {
    /// What went wrong, for stderr.
    pub message: String,
    /// Process exit code (1 = generic, see `EXIT_*`).
    pub code: u8,
}

impl Failure {
    fn new(code: u8, message: impl Into<String>) -> Self {
        Failure {
            message: message.into(),
            code,
        }
    }

    /// A refused input file (checkpoint or label artifact): exit 4 when
    /// the file was read and its contents were rejected, exit 1 for any
    /// other I/O failure.
    fn refused(invalid_data: bool, message: String) -> Self {
        let code = if invalid_data {
            EXIT_CHECKPOINT
        } else {
            EXIT_USAGE
        };
        Failure::new(code, message)
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure {
            message,
            code: EXIT_USAGE,
        }
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::from(message.to_string())
    }
}

/// Every value of a list flag, in both the repeated form (`--mrt a --mrt
/// b`) and comma-separated within one flag.
fn list_values(args: &Args, name: &str) -> Vec<String> {
    args.get_all(name)
        .iter()
        .flat_map(|v| v.split(','))
        .map(str::to_string)
        .collect()
}

fn mrt_files(args: &Args) -> Result<Vec<String>, String> {
    let all = list_values(args, "mrt");
    if all.is_empty() {
        return Err("at least one --mrt FILE is required".into());
    }
    Ok(all)
}

/// Ingestion policy assembled from `--strict`, `--max-errors`, `--threads`,
/// the retry knob, and the fault-injection hooks. `--strict` is an error
/// budget of zero; the flag itself is kept only to pick its exit code and
/// to refuse the modes that need lenient ingestion.
struct IngestOptions {
    strict: bool,
    recover: RecoverConfig,
    tuning: IngestTuning,
    threads: usize,
}

impl IngestOptions {
    fn from_args(args: &Args) -> Result<Self, String> {
        let strict = args.flag("strict");
        let max_errors = args.get_opt("max-errors")?;
        if strict && max_errors.is_some() {
            return Err("--strict and --max-errors are mutually exclusive".into());
        }
        let recover = RecoverConfig {
            max_errors: if strict { Some(0) } else { max_errors },
            ..RecoverConfig::default()
        };
        let mut tuning = IngestTuning::default();
        tuning.retry.max_attempts = args.get("retry-attempts", tuning.retry.max_attempts)?;
        if tuning.retry.max_attempts == 0 {
            return Err("--retry-attempts must be at least 1".into());
        }
        tuning.panic_after_records = args.get_opt("inject-panic-after")?;
        tuning.flaky = args.get_opt("inject-flaky")?.map(|seed| FlakyConfig {
            seed,
            ..FlakyConfig::default()
        });
        Ok(IngestOptions {
            strict,
            recover,
            tuning,
            threads: args.get("threads", 0usize)?,
        })
    }

    /// Refuse `--strict` for a mode that needs lenient ingestion (it
    /// commits or streams partial progress).
    fn require_lenient(&self, mode: &str) -> Result<(), String> {
        if self.strict {
            return Err(format!(
                "{mode} runs lenient ingestion only (drop --strict)"
            ));
        }
        Ok(())
    }

    /// The failure for an aborted ingest: exit 2 under `--strict` (its
    /// budget of zero names the first decode error), exit 3 otherwise
    /// (error budget exceeded, unrecoverable I/O).
    fn aborted(&self, why: String) -> Failure {
        if self.strict {
            Failure::new(EXIT_DECODE, format!("parse {why}"))
        } else {
            Failure::new(EXIT_ABORTED, format!("ingestion aborted: {why}"))
        }
    }
}

/// A command's accounting: the [`Telemetry`] bundle `--trace` and
/// `--trace-json` configure, and where `--metrics-out` and `--report` go.
/// [`Accounting::run`] is the one exit path of every command that takes
/// them.
struct Accounting {
    telemetry: Telemetry,
    metrics_out: Option<String>,
    report_out: Option<String>,
}

impl Accounting {
    /// Set up the accounting, run `body` under it, then write
    /// `--metrics-out` whether `body` succeeded or failed. If both fail,
    /// the command's own failure is the one reported.
    fn run(
        args: &Args,
        body: impl FnOnce(&Accounting) -> Result<(), Failure>,
    ) -> Result<(), Failure> {
        let acct = Accounting::from_args(args)?;
        let outcome = body(&acct);
        outcome.and(acct.write_metrics())
    }

    fn from_args(args: &Args) -> Result<Self, Failure> {
        let metrics_out = args.get_str("metrics-out").map(str::to_string);
        let tracer = if let Some(path) = args.get_str("trace-json") {
            let writer: Box<dyn Write + Send> = if path == "-" {
                Box::new(std::io::stdout())
            } else {
                let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
                Box::new(BufWriter::new(file))
            };
            Tracer::new(Arc::new(JsonLinesSink::new(writer)))
        } else if args.flag("trace") {
            Tracer::new(Arc::new(StderrSink))
        } else {
            Tracer::disabled()
        };
        let metrics = metrics_out
            .is_some()
            .then(|| Arc::new(MetricsRegistry::new()));
        Ok(Accounting {
            telemetry: Telemetry { tracer, metrics },
            metrics_out,
            report_out: args.get_str("report").map(str::to_string),
        })
    }

    /// Honor `--metrics-out` with a snapshot of everything recorded so far.
    fn write_metrics(&self) -> Result<(), Failure> {
        match (&self.metrics_out, self.telemetry.snapshot()) {
            (Some(path), Some(snapshot)) => write_json_out(
                path,
                "metrics snapshot",
                serde_json::to_string_pretty(&snapshot),
            ),
            _ => Ok(()),
        }
    }

    /// Honor `--report` with the command's ingest report.
    fn report(&self, report: &IngestReport) -> Result<(), Failure> {
        match &self.report_out {
            Some(path) => {
                write_json_out(path, "ingest report", serde_json::to_string_pretty(report))
            }
            None => Ok(()),
        }
    }
}

/// Write serialized JSON to `path`, or to stdout when `path` is `-`.
fn write_json_out(path: &str, what: &str, json: serde_json::Result<String>) -> Result<(), Failure> {
    let json = json.map_err(|e| format!("serialize {what}: {e}"))?;
    if path == "-" {
        println!("{json}");
    } else {
        std::fs::write(path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {what} to {path}");
    }
    Ok(())
}

/// Load observations from every `--mrt` file under the chosen policy.
///
/// Every file decodes straight into a per-file columnar store; folding
/// them in input order reproduces the sequential single-sink read, so no
/// flat `Vec<Observation>` is ever materialized. The merged
/// [`IngestReport`] is written (`--report`) before any failure is
/// returned, so scripts still get the accounting; an aborted ingest fails
/// as [`IngestOptions::aborted`] says.
fn load_observations(
    paths: &[String],
    opts: &IngestOptions,
    acct: &Accounting,
) -> Result<(ObservationStore, IngestReport), Failure> {
    // Unreadable input is a usage error (exit 1) in both modes, checked up
    // front so it is reported before any decode work fans out.
    for path in paths {
        File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    }
    let path_bufs: Vec<PathBuf> = paths.iter().map(PathBuf::from).collect();
    let (files, merged) = read_observations_parallel_store_telemetry(
        &path_bufs,
        &opts.recover,
        &opts.tuning,
        opts.threads,
        &acct.telemetry,
    );
    let mut store = ObservationStore::new();
    let mut aborted: Option<String> = None;
    for (path, file) in paths.iter().zip(files) {
        eprintln!(
            "{path}: {} observations ({})",
            file.store.len(),
            file.report.summary()
        );
        if let Some(why) = &file.report.aborted {
            aborted.get_or_insert_with(|| format!("{path}: {why}"));
        }
        store.merge(&file.store);
    }
    let written = acct.report(&merged);
    match aborted {
        Some(why) => Err(opts.aborted(why)),
        None => written.map(|()| (store, merged)),
    }
}

fn load_siblings(args: &Args) -> Result<SiblingMap, String> {
    match args.get_str("siblings") {
        None => Ok(SiblingMap::default()),
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            serde_json::from_reader(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))
        }
    }
}

/// `bgpcomm stats`
pub fn stats(raw: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(raw)?;
    let opts = IngestOptions::from_args(&args)?;
    Accounting::run(&args, |acct| stats_accounted(&args, &opts, acct))
}

fn stats_accounted(args: &Args, opts: &IngestOptions, acct: &Accounting) -> Result<(), Failure> {
    let (store, report) = load_observations(&mrt_files(args)?, opts, acct)?;

    // Everything falls out of the interners: paths and community sets are
    // already deduped, tuples dedup over dense ID pairs, and the scalar
    // columns sort+dedup without hashing a single string.
    let mut tuples: Vec<u64> = store
        .tuples()
        .map(|(p, c)| (u64::from(p) << 32) | u64::from(c))
        .collect();
    tuples.sort_unstable();
    tuples.dedup();
    let mut communities = HashSet::new();
    let mut owners = HashSet::new();
    for id in 0..store.cset_count() as u32 {
        for c in store.cset(id) {
            communities.insert(*c);
            owners.insert(c.asn);
        }
    }
    let mut vps: Vec<_> = (0..store.len()).map(|i| store.vp(i)).collect();
    vps.sort_unstable();
    vps.dedup();
    let mut prefixes: Vec<_> = (0..store.len()).map(|i| store.prefix(i)).collect();
    prefixes.sort_unstable();
    prefixes.dedup();
    println!("observations        : {}", store.len());
    println!("vantage points      : {}", vps.len());
    println!("prefixes            : {}", prefixes.len());
    println!("unique AS paths     : {}", store.path_count());
    println!("unique tuples       : {}", tuples.len());
    println!("distinct communities: {}", communities.len());
    println!("community owners    : {}", owners.len());
    if !report.is_clean() {
        println!("ingest degradation  : {}", report.summary());
    }
    Ok(())
}

/// `--checkpoint` / `--resume` / `--inject-crash-after` policy for `infer`.
struct CheckpointOptions {
    path: PathBuf,
    resume: bool,
    /// Deliberate kill hook: exit ([`EXIT_CRASH`]) after this many files
    /// committed *this run*.
    crash_after: Option<u64>,
}

impl CheckpointOptions {
    fn from_args(args: &Args) -> Result<Option<Self>, String> {
        let Some(path) = args.get_str("checkpoint") else {
            if args.flag("resume") {
                return Err("--resume requires --checkpoint FILE".into());
            }
            if args.get_str("inject-crash-after").is_some() {
                return Err("--inject-crash-after requires --checkpoint FILE".into());
            }
            return Ok(None);
        };
        Ok(Some(CheckpointOptions {
            path: PathBuf::from(path),
            resume: args.flag("resume"),
            crash_after: args.get_opt("inject-crash-after")?,
        }))
    }
}

/// Load (under `--resume`) or create the checkpoint manifest, refusing the
/// silent-overwrite and incompatible-schema cases.
fn open_checkpoint(ckpt: &CheckpointOptions) -> Result<Checkpoint, Failure> {
    if !ckpt.path.exists() {
        if ckpt.resume {
            eprintln!(
                "checkpoint {} does not exist yet; starting fresh",
                ckpt.path.display()
            );
        }
        return Ok(Checkpoint::new());
    }
    if !ckpt.resume {
        return Err(Failure::new(
            EXIT_CHECKPOINT,
            format!(
                "checkpoint {} already exists; pass --resume to continue it or remove it to start over",
                ckpt.path.display()
            ),
        ));
    }
    Checkpoint::load(&ckpt.path)
        .map_err(|e| Failure::refused(e.is_invalid_data(), format!("load checkpoint: {e}")))
}

/// The crash-safe incremental `infer` path: ingest file-by-file into a
/// [`StatsAccumulator`], committing the checkpoint atomically after every
/// completed file, and classify from the accumulated statistics. Output is
/// bit-identical to the non-checkpointed path at any thread count and
/// across any crash/resume split.
fn infer_checkpointed(
    paths: &[String],
    opts: &IngestOptions,
    siblings: &SiblingMap,
    cfg: &InferenceConfig,
    dict: Option<&GroundTruthDictionary>,
    ckpt: &CheckpointOptions,
    acct: &Accounting,
) -> Result<PipelineResult, Failure> {
    opts.require_lenient("infer --checkpoint")?;
    let tel = &acct.telemetry;
    let mut checkpoint = open_checkpoint(ckpt)?;

    // A recorded file missing from the inputs means this is a different
    // run; refuse rather than classify from statistics of unseen data.
    for done in &checkpoint.files {
        if !paths.contains(&done.path) {
            return Err(Failure::new(
                EXIT_CHECKPOINT,
                format!(
                    "checkpoint records {} which is not among the --mrt inputs",
                    done.path
                ),
            ));
        }
    }
    // Completed files must still be the bytes that were ingested.
    let verified_files = tel
        .registry()
        .map(|m| m.counter("checkpoint/verified_files"));
    let mut pending: Vec<&String> = Vec::new();
    for path in paths {
        match checkpoint.completed(path) {
            None => pending.push(path),
            Some(recorded) => {
                let now = tel
                    .stage("checkpoint_verify", || fingerprint_file(Path::new(path)))
                    .map_err(|e| format!("fingerprint {path}: {e}"))?;
                if now != *recorded {
                    return Err(Failure::new(
                        EXIT_CHECKPOINT,
                        format!(
                            "{path} changed since it was checkpointed \
                             ({} bytes/hash {:#x} now vs {} bytes/hash {:#x} recorded); \
                             remove the checkpoint to re-ingest",
                            now.bytes, now.hash, recorded.bytes, recorded.hash
                        ),
                    ));
                }
                if let Some(c) = &verified_files {
                    c.inc();
                }
                eprintln!("{path}: skipped (checkpointed, fingerprint verified)");
            }
        }
    }

    // The state holds no on-path decisions: every file, whichever run
    // folded it, is counted under this run's sibling map.
    checkpoint.snapshot =
        StatsAccumulator::from_snapshot(std::mem::take(&mut checkpoint.snapshot), siblings);
    let mut merged = checkpoint.report.clone();
    let mut aborted: Option<String> = None;
    let mut committed_this_run = 0u64;

    // Waves of one file per worker: parallel decode, then per-file commits
    // in input order so every checkpoint state equals a sequential prefix.
    let wave = effective_threads(opts.threads).max(1);
    // Ingest metrics are recorded once from the final merged report (which
    // also covers files committed by previous runs), so the wave reads get
    // a spans-only telemetry view to avoid double counting.
    let wave_tel = Telemetry {
        tracer: tel.tracer.clone(),
        metrics: None,
    };
    for chunk in pending.chunks(wave) {
        let chunk_paths: Vec<PathBuf> = chunk.iter().map(PathBuf::from).collect();
        let fingerprints: Vec<std::io::Result<_>> = tel.stage("checkpoint_fingerprint", || {
            chunk_paths.iter().map(|p| fingerprint_file(p)).collect()
        });
        let (files, _) = read_observations_parallel_store_telemetry(
            &chunk_paths,
            &opts.recover,
            &opts.tuning,
            opts.threads,
            &wave_tel,
        );
        for (file, fingerprint) in files.into_iter().zip(fingerprints) {
            let path = file.path.display().to_string();
            eprintln!(
                "{path}: {} observations ({})",
                file.store.len(),
                file.report.summary()
            );
            merged.merge(&file.report);
            let fingerprint = match (&file.report.aborted, fingerprint) {
                (Some(why), _) => {
                    // Failed files are not committed: a resumed run retries
                    // them from scratch.
                    aborted.get_or_insert_with(|| format!("{path}: {why}"));
                    continue;
                }
                (None, Err(e)) => {
                    aborted.get_or_insert_with(|| format!("{path}: fingerprint: {e}"));
                    continue;
                }
                (None, Ok(fp)) => fp,
            };
            checkpoint.snapshot.ingest_store(&file.store, siblings);
            checkpoint.files.push(CompletedFile { path, fingerprint });
            checkpoint.report.merge(&file.report);
            tel.stage("checkpoint_write", || checkpoint.save_atomic(&ckpt.path))
                .map_err(|e| format!("write checkpoint {}: {e}", ckpt.path.display()))?;
            if let Some(metrics) = tel.registry() {
                metrics.counter("checkpoint/writes").inc();
            }
            committed_this_run += 1;
            if ckpt.crash_after == Some(committed_this_run) {
                return Err(Failure::new(
                    EXIT_CRASH,
                    format!(
                        "injected crash after {committed_this_run} committed file(s) \
                         (checkpoint intact; resume with --resume)"
                    ),
                ));
            }
        }
    }

    let written = acct.report(&merged);
    if let Some(why) = aborted {
        return Err(opts.aborted(why));
    }
    written?;
    Ok(run_inference_from_stats_telemetry(
        checkpoint.snapshot.to_stats(),
        siblings,
        cfg,
        dict,
        Some(merged),
        tel,
    ))
}

/// The shared inference knobs (`--gap`, `--ratio`) for `infer` and `shard`.
fn inference_config(args: &Args, threads: usize) -> Result<InferenceConfig, String> {
    Ok(InferenceConfig {
        min_gap: args.get("gap", 140u16)?,
        ratio_threshold: args.get("ratio", 160.0f64)?,
        threads,
        ..InferenceConfig::default()
    })
}

/// Load the `--dict` ground-truth dictionary, when given.
fn load_dict(args: &Args) -> Result<Option<GroundTruthDictionary>, String> {
    match args.get_str("dict") {
        None => Ok(None),
        Some(path) => {
            let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
            Ok(Some(
                GroundTruthDictionary::from_json(BufReader::new(file))
                    .map_err(|e| format!("parse {path}: {e}"))?,
            ))
        }
    }
}

/// Print the classification summary, the `--top` label sample, and the
/// `--json` label file. Shared verbatim by `infer` and `shard`, which is
/// what makes their stdout and label files byte-comparable.
fn print_inference(args: &Args, result: &PipelineResult) -> Result<(), Failure> {
    let (action, info) = result.inference.intent_counts();
    println!("observed communities : {}", result.stats.community_count());
    println!(
        "classified           : {} ({info} information, {action} action)",
        result.inference.labels.len()
    );
    println!("owner ASes           : {}", result.inference.owner_count());
    let count = |e: Exclusion| {
        result
            .inference
            .excluded
            .values()
            .filter(|x| **x == e)
            .count()
    };
    println!(
        "excluded             : {} private-ASN, {} reserved, {} never-on-path",
        count(Exclusion::PrivateAsn),
        count(Exclusion::ReservedAsn),
        count(Exclusion::NeverOnPath),
    );
    if let Some(eval) = &result.evaluation {
        println!(
            "dictionary evaluation: {}/{} correct ({:.1}%)",
            eval.correct,
            eval.total,
            eval.accuracy() * 100.0
        );
    }
    if let Some(ingest) = &result.ingest {
        if !ingest.is_clean() {
            println!("ingest degradation   : {}", ingest.summary());
        }
    }

    // Human-readable sample, largest owners first.
    let top: usize = args.get("top", 10)?;
    if top > 0 {
        let mut labels: Vec<_> = result.inference.labels.iter().collect();
        labels.sort_by_key(|(c, _)| **c);
        println!("\nfirst {} labels:", top.min(labels.len()));
        for (c, intent) in labels.into_iter().take(top) {
            println!("  {c:<12} {intent}");
        }
    }

    let ratio_threshold: f64 = args.get("ratio", 160.0f64)?;
    if let Some(path) = args.get_str("json") {
        write_labels_json(path, &result.inference, ratio_threshold)?;
    }
    if let Some(path) = args.get_str("artifact-out") {
        write_artifact_out(path, &result.inference, ratio_threshold)?;
    }
    Ok(())
}

/// Write an inference's labels as the canonical JSON label file. Shared by
/// `infer`, `shard`, and `watch` — which is what makes a watch run's label
/// file byte-comparable (`cmp`) to a batch run over the same prefix. Built
/// from the same sorted [`LabelRow`]s the artifact writer serializes, so the
/// JSON file and the artifact agree field-for-field by construction.
fn write_labels_json(
    path: &str,
    inference: &bgp_intent::Inference,
    ratio_threshold: f64,
) -> Result<(), Failure> {
    // label_rows sorts on the packed key, which orders exactly like the
    // typed (asn, value) key: no lossy fallback, and community order is
    // the natural order rather than lexicographic.
    let rows = label_rows(inference, ratio_threshold);
    let labels: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "community": r.community.to_string(),
                "intent": r.label,
                "confidence": r.confidence,
                "ratio": r.ratio,
                "on_paths": r.on_paths,
                "off_paths": r.off_paths,
            })
        })
        .collect();
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    serde_json::to_writer_pretty(BufWriter::new(file), &labels)
        .map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {} labels to {path}", rows.len());
    Ok(())
}

/// Write an inference's labels as the servable binary artifact
/// (`--artifact-out`), atomically. Shared by `infer`, `shard`, and `watch`.
fn write_artifact_out(
    path: &str,
    inference: &bgp_intent::Inference,
    ratio_threshold: f64,
) -> Result<(), Failure> {
    let n = write_inference_artifact(Path::new(path), inference, ratio_threshold)
        .map_err(|e| format!("write artifact {path}: {e}"))?;
    eprintln!("wrote {n} labels to {path} (artifact)");
    Ok(())
}

/// `bgpcomm infer`
pub fn infer(raw: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(raw)?;
    let opts = IngestOptions::from_args(&args)?;
    let siblings = load_siblings(&args)?;
    let cfg = inference_config(&args, opts.threads)?;
    let dict = load_dict(&args)?;

    Accounting::run(&args, |acct| {
        let result = match CheckpointOptions::from_args(&args)? {
            Some(ckpt) => infer_checkpointed(
                &mrt_files(&args)?,
                &opts,
                &siblings,
                &cfg,
                dict.as_ref(),
                &ckpt,
                acct,
            )?,
            None => {
                let (store, report) = load_observations(&mrt_files(&args)?, &opts, acct)?;
                let tel = &acct.telemetry;
                let mut result =
                    run_inference_store_telemetry(&store, &siblings, &cfg, dict.as_ref(), tel);
                result.ingest = Some(report);
                result
            }
        };
        print_inference(&args, &result)
    })
}

/// `bgpcomm shard-worker` — one shard of a supervised `shard` run
/// (internal: spawned by the supervisor, but callable by hand for
/// debugging). Ingests its `--mrt` files sequentially, touching the
/// `--heartbeat` file after every completed file, and finally writes its
/// accumulated statistics as a checkpoint-format artifact to `--out` with
/// the atomic temp+rename discipline. A crash at any point leaves either
/// no artifact or a complete, checksummed one — never a torn file — which
/// is what lets the supervisor treat "valid artifact exists" as the one
/// and only success signal.
pub fn shard_worker(raw: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(raw)?;
    let opts = IngestOptions::from_args(&args)?;
    opts.require_lenient("shard-worker")?;
    let out = PathBuf::from(args.get_str("out").ok_or("--out FILE is required")?);
    let heartbeat = args.get_str("heartbeat").map(PathBuf::from);
    let crash_after: Option<u64> = args.get_opt("inject-crash-after")?;
    let stall_ms: Option<u64> = args.get_opt("inject-stall-ms")?;
    let siblings = load_siblings(&args)?;
    let paths = mrt_files(&args)?;

    let beat = |n: usize| {
        if let Some(hb) = &heartbeat {
            // Heartbeat loss must never fail the shard — the worst case is
            // the supervisor killing a healthy worker, which retries.
            let _ = std::fs::write(hb, format!("{n}\n"));
        }
    };
    beat(0);

    let mut manifest = Checkpoint::new();
    let tel = Telemetry::disabled();
    for (i, path) in paths.iter().enumerate() {
        // Fingerprint before decoding, like the checkpointed path: the
        // artifact records the bytes that were actually ingested, so the
        // supervisor (and a later resume) can detect input drift.
        let fingerprint =
            fingerprint_file(Path::new(path)).map_err(|e| format!("fingerprint {path}: {e}"))?;
        let (files, _) = read_observations_parallel_store_telemetry(
            &[PathBuf::from(path)],
            &opts.recover,
            &opts.tuning,
            opts.threads,
            &tel,
        );
        let file = files
            .into_iter()
            .next()
            .ok_or_else(|| format!("{path}: ingestion produced no result"))?;
        eprintln!(
            "{path}: {} observations ({})",
            file.store.len(),
            file.report.summary()
        );
        manifest.report.merge(&file.report);
        if let Some(why) = &file.report.aborted {
            return Err(Failure::new(
                EXIT_ABORTED,
                format!("ingestion aborted: {path}: {why}"),
            ));
        }
        manifest.snapshot.ingest_store(&file.store, &siblings);
        manifest.files.push(CompletedFile {
            path: path.clone(),
            fingerprint,
        });
        beat(i + 1);
        if crash_after == Some((i + 1) as u64) {
            return Err(Failure::new(
                EXIT_CRASH,
                format!("injected crash after {} ingested file(s)", i + 1),
            ));
        }
        if i == 0 {
            if let Some(ms) = stall_ms {
                // Simulated hang: no heartbeat progress and no exit until
                // (far past) the supervisor's stall deadline.
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
    }
    manifest
        .save_atomic(&out)
        .map_err(|e| format!("write artifact {}: {e}", out.display()))?;
    eprintln!(
        "shard artifact: {} ({} file(s), {} records)",
        out.display(),
        manifest.files.len(),
        manifest.report.records_read
    );
    Ok(())
}

/// `bgpcomm shard` — `infer` across N supervised worker subprocesses.
pub fn shard(raw: Vec<String>) -> Result<(), Failure> {
    use bgp_intent::{
        plan_shards, supervise_with_shutdown, ShardEvent, ShardSpec, SupervisorConfig,
    };
    use bgp_mrt::retry::RetryPolicy;
    use std::process::{Command, Stdio};
    use std::time::Duration;

    let args = Args::parse(raw)?;
    let opts = IngestOptions::from_args(&args)?;
    opts.require_lenient("shard")?;
    let siblings = load_siblings(&args)?;
    let cfg = inference_config(&args, opts.threads)?;
    let dict = load_dict(&args)?;

    let parse_indices = |name: &str| -> Result<Vec<usize>, String> {
        args.get_all(name)
            .iter()
            .map(|raw| raw.parse().map_err(|e| format!("--{name} {raw}: {e}")))
            .collect()
    };

    Accounting::run(&args, |acct| {
        let tel = &acct.telemetry;
        let paths = mrt_files(&args)?;
        // Unreadable input is a usage error here, not N worker failures.
        for path in &paths {
            File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        }
        let shard_dir = PathBuf::from(
            args.get_str("shard-dir")
                .ok_or("--shard-dir DIR is required")?,
        );
        std::fs::create_dir_all(&shard_dir)
            .map_err(|e| format!("create {}: {e}", shard_dir.display()))?;
        let workers = effective_threads(args.get("workers", 0usize)?).max(1);
        let allow: u64 = args.get("allow-shard-failures", 0u64)?;
        let retries: u32 = args.get("shard-retries", 2u32)?;
        let deadline_ms: u64 = args.get("shard-deadline-ms", 30_000u64)?;
        let kill_shards = parse_indices("inject-kill-shard")?;
        let stall_shards = parse_indices("inject-stall-shard")?;
        let fail_shards = parse_indices("inject-fail-shard")?;

        let specs = plan_shards(&paths, workers, &shard_dir);
        let sup_cfg = SupervisorConfig {
            retry: RetryPolicy {
                max_attempts: retries + 1,
                base_delay: Duration::from_millis(50),
                max_delay: Duration::from_secs(2),
                per_file_deadline: None,
            },
            stall_deadline: Duration::from_millis(deadline_ms.max(1)),
            poll_interval: Duration::from_millis(25),
            term_grace: Duration::from_secs(5),
        };
        eprintln!(
            "supervising {} shard(s) over {} file(s) ({} attempt(s) per shard, {}ms stall deadline)",
            specs.len(),
            paths.len(),
            sup_cfg.retry.max_attempts,
            deadline_ms
        );

        let exe = std::env::current_exe().map_err(|e| format!("locate bgpcomm binary: {e}"))?;
        // Ingestion policy travels to the workers verbatim; analysis and
        // output flags stay with the supervisor.
        let mut forwarded: Vec<String> = Vec::new();
        for key in [
            "siblings",
            "max-errors",
            "retry-attempts",
            "inject-flaky",
            "inject-panic-after",
            "threads",
        ] {
            if let Some(value) = args.get_str(key) {
                forwarded.push(format!("--{key}"));
                forwarded.push(value.to_string());
            }
        }
        let command = |spec: &ShardSpec, attempt: u32| {
            let mut cmd = Command::new(&exe);
            cmd.arg("shard-worker")
                .arg("--mrt")
                .arg(spec.files.join(","))
                .arg("--out")
                .arg(&spec.artifact)
                .arg("--heartbeat")
                .arg(&spec.heartbeat)
                .args(&forwarded);
            if fail_shards.contains(&spec.index)
                || (attempt == 1 && kill_shards.contains(&spec.index))
            {
                cmd.arg("--inject-crash-after").arg("1");
            }
            if attempt == 1 && stall_shards.contains(&spec.index) {
                let ms = deadline_ms.max(1).saturating_mul(20);
                cmd.arg("--inject-stall-ms").arg(ms.to_string());
            }
            // Worker chatter goes to a per-shard log (last attempt wins)
            // so the supervisor's own progress stream stays readable.
            let log = shard_dir.join(format!("shard-{:03}.log", spec.index));
            match File::create(&log) {
                Ok(file) => cmd.stderr(Stdio::from(file)),
                Err(_) => cmd.stderr(Stdio::null()),
            };
            cmd.stdout(Stdio::null());
            cmd
        };
        let outcomes = supervise_with_shutdown(
            &specs,
            &sup_cfg,
            command,
            |event| match event {
                ShardEvent::Reused { shard } => {
                    eprintln!(
                        "shard {}: reusing valid artifact from a previous run",
                        shard.index
                    );
                }
                ShardEvent::Started { shard, attempt } => {
                    eprintln!(
                        "shard {}: attempt {attempt} ({} file(s))",
                        shard.index,
                        shard.files.len()
                    );
                }
                ShardEvent::Retrying {
                    shard,
                    attempt,
                    failure,
                    backoff,
                } => {
                    eprintln!(
                        "shard {}: attempt {attempt} failed ({failure}); retrying in {backoff:?}",
                        shard.index
                    );
                }
                ShardEvent::Succeeded { shard, attempt } => {
                    eprintln!(
                        "shard {}: artifact validated (attempt {attempt})",
                        shard.index
                    );
                }
                ShardEvent::GaveUp {
                    shard,
                    attempts,
                    failure,
                } => {
                    eprintln!(
                        "shard {}: permanently failed after {attempts} attempt(s): {failure}",
                        shard.index
                    );
                }
                ShardEvent::Interrupted { shard } => {
                    eprintln!(
                        "shard {}: interrupted by shutdown before completing (resumable)",
                        shard.index
                    );
                }
            },
            &SHUTDOWN,
        );

        // Merge in shard order. The per-shard states hold the interned
        // paths and unique tuples themselves, so this union is exact and
        // the classification downstream is bit-identical to a
        // single-process run over the covered files.
        let mut merged = IngestReport::default();
        let mut accumulator = StatsAccumulator::from_snapshot(StatsAccumulator::new(), &siblings);
        let mut failed = 0u64;
        let mut reused = 0u64;
        let mut retries_total = 0u64;
        let mut covered_files = 0u64;
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            retries_total += outcome.retries();
            reused += u64::from(outcome.reused);
            match &outcome.artifact {
                Some(artifact) => {
                    merged.merge(&artifact.report);
                    accumulator.merge(&artifact.snapshot);
                    covered_files += spec.files.len() as u64;
                }
                None => {
                    failed += 1;
                    merged.shards_failed += 1;
                    merged.files_lost += spec.files.len() as u64;
                    for file in &spec.files {
                        merged.bytes_lost += std::fs::metadata(file).map(|m| m.len()).unwrap_or(0);
                    }
                }
            }
        }
        if let Some(metrics) = tel.registry() {
            metrics.counter("shard/shards").add(specs.len() as u64);
            metrics.counter("shard/retries").add(retries_total);
            metrics.counter("shard/failed").add(failed);
            metrics.counter("shard/reused").add(reused);
            metrics
                .counter("shard/coverage_bytes")
                .add(merged.bytes_read);
            // The single-process path counts input files at read time
            // (see `read_observations_parallel_store_telemetry`); workers
            // run with telemetry disabled, so account for the files that
            // actually made it into the merge here.
            metrics.counter("ingest/files").add(covered_files);
        }
        let written = acct.report(&merged);
        if SHUTDOWN.load(std::sync::atomic::Ordering::SeqCst) {
            return Err(Failure::new(
                EXIT_ABORTED,
                format!(
                    "shutdown requested; {failed} shard(s) left incomplete \
                     (artifacts are valid or absent, heartbeats removed); \
                     re-running the same command resumes only those shards"
                ),
            ));
        }
        if failed > allow {
            return Err(Failure::new(
                EXIT_SHARD,
                format!(
                    "{failed} shard(s) failed permanently after {} attempt(s) each \
                     (allowance {allow}); see {}/shard-*.log; \
                     re-running the same command retries only the failed shards",
                    sup_cfg.retry.max_attempts,
                    shard_dir.display()
                ),
            ));
        }
        written?;
        if failed > 0 {
            eprintln!(
                "continuing without {failed} failed shard(s): {} file(s) / {} byte(s) not covered",
                merged.files_lost, merged.bytes_lost
            );
        }
        let result = run_inference_from_stats_telemetry(
            accumulator.to_stats(),
            &siblings,
            &cfg,
            dict.as_ref(),
            Some(merged),
            tel,
        );
        print_inference(&args, &result)
    })
}

/// A boxed stream source, so `watch` can pick TCP / unix socket / file
/// tail (optionally wrapped in fault injection) at runtime and still call
/// the generic [`bgp_intent::run_watch`].
struct DynSource(Box<dyn bgp_mrt::StreamSource>);

impl bgp_mrt::StreamSource for DynSource {
    fn connect(&mut self, offset: u64) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        self.0.connect(offset)
    }

    fn describe(&self) -> String {
        self.0.describe()
    }
}

/// `bgpcomm watch` — the streaming inference daemon.
pub fn watch(raw: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(raw)?;
    let iopts = IngestOptions::from_args(&args)?;
    iopts.require_lenient("watch")?;
    let siblings = load_siblings(&args)?;
    let cfg = inference_config(&args, iopts.threads)?;
    Accounting::run(&args, |acct| {
        watch_accounted(&args, &iopts, &siblings, cfg, acct)
    })
}

fn watch_accounted(
    args: &Args,
    iopts: &IngestOptions,
    siblings: &SiblingMap,
    cfg: InferenceConfig,
    acct: &Accounting,
) -> Result<(), Failure> {
    use bgp_intent::{run_watch, WatchOptions, WindowConfig};
    use bgp_mrt::{
        FaultyFeed, FeedAddr, FileTailFeed, SocketFeed, StreamFaultConfig, StreamTuning,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    let stall_ms: u64 = args.get("stall-ms", 2000u64)?;
    let stall = Duration::from_millis(stall_ms.max(1));
    let connect = args.get_str("connect");
    let unix_path = args.get_str("unix");
    let tail = args.get_str("tail");
    if [connect, unix_path, tail].iter().flatten().count() != 1 {
        return Err("exactly one of --connect, --unix, --tail is required".into());
    }
    let source: Box<dyn bgp_mrt::StreamSource> = if let Some(addr) = connect {
        Box::new(SocketFeed::new(FeedAddr::Tcp(addr.to_string()), stall))
    } else if let Some(path) = unix_path {
        #[cfg(unix)]
        {
            Box::new(SocketFeed::new(FeedAddr::Unix(PathBuf::from(path)), stall))
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            return Err("--unix is only available on unix platforms".into());
        }
    } else {
        Box::new(FileTailFeed::new(PathBuf::from(tail.expect("one source"))))
    };
    let source: Box<dyn bgp_mrt::StreamSource> = match args.get_str("inject-stream-faults") {
        None => source,
        Some(raw) => {
            let (seed_raw, rate_raw) = match raw.split_once(':') {
                Some((s, r)) => (s, Some(r)),
                None => (raw, None),
            };
            let mut fault_cfg = StreamFaultConfig {
                seed: seed_raw
                    .parse()
                    .map_err(|e| format!("--inject-stream-faults {raw}: {e}"))?,
                ..StreamFaultConfig::default()
            };
            if let Some(rate) = rate_raw {
                fault_cfg.rate = rate
                    .parse()
                    .map_err(|e| format!("--inject-stream-faults {raw}: {e}"))?;
            }
            Box::new(FaultyFeed::new(DynSource(source), fault_cfg))
        }
    };
    let source = DynSource(source);

    let mut tuning = StreamTuning {
        queue_bytes: args.get("queue-kb", 4096usize)?.max(1) << 10,
        chunk_bytes: args.get("chunk-kb", 64usize)?.max(1) << 10,
        stall_timeout: stall,
        ..StreamTuning::default()
    };
    tuning.retry.max_attempts = iopts.tuning.retry.max_attempts;
    tuning.quiesce_after = args.get_opt("quiesce-after")?;
    let opts = WatchOptions {
        window: WindowConfig {
            window_secs: args.get("window-secs", 3600u32)?.max(1),
            windows: args.get("windows", 24usize)?.max(1),
        },
        infer: cfg,
        tuning,
        recover: iopts.recover.clone(),
        checkpoint: args.get_str("checkpoint").map(PathBuf::from),
        metrics: acct.telemetry.metrics.clone(),
        slow_fold: args.get_opt("slow-fold-ms")?.map(Duration::from_millis),
        crash_after_windows: args.get_opt("inject-crash-after-windows")?,
    };

    // Bridge the process-global signal flag into the Arc the stream layer
    // shares with its delivery thread.
    let shutdown = Arc::new(AtomicBool::new(false));
    {
        let flag = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if SHUTDOWN.load(Ordering::SeqCst) {
                flag.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        });
    }

    eprintln!(
        "watch: {} (window {}s x {}, queue {} KiB, checkpoint {})",
        bgp_mrt::StreamSource::describe(&source),
        opts.window.window_secs,
        opts.window.windows,
        opts.tuning.queue_bytes >> 10,
        opts.checkpoint
            .as_deref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "disabled".into()),
    );
    let outcome = run_watch(source, siblings, &opts, shutdown)
        .map_err(|e| Failure::refused(e.is_invalid_data(), format!("watch: {e}")))?;
    if let Some(why) = &outcome.report.aborted {
        // The abort is the failure reported, even if the report write fails.
        let _ = acct.report(&outcome.report);
        return Err(Failure::new(EXIT_STREAM, format!("watch: {why}")));
    }

    if outcome.resumed {
        eprintln!(
            "watch: resumed from checkpoint (cursor caught up to {})",
            outcome.cursor
        );
    }
    let c = &outcome.counters;
    let load = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::SeqCst);
    println!("records              : {}", outcome.records);
    println!("observations         : {}", outcome.observations);
    println!("window advances      : {}", outcome.advances);
    println!("label flaps          : {}", outcome.flaps);
    println!("late drops           : {}", outcome.late_drops);
    println!("reclassified owners  : {}", outcome.reclassified_owners);
    println!("stream cursor        : {} bytes", outcome.cursor);
    println!(
        "stream               : {} connection(s), {} reconnect(s), {} stall(s), {} disconnect(s)",
        load(&c.connections),
        load(&c.reconnects),
        load(&c.stalls),
        load(&c.disconnects),
    );
    println!("backpressure stalls  : {}", load(&c.backpressure_stalls));
    println!("queue peak           : {} bytes", load(&c.queue_peak_bytes));
    println!("windowed labels      : {}", outcome.windowed_labels.len());
    println!("cumulative labels    : {}", outcome.inference.labels.len());
    if !outcome.report.is_clean() {
        println!("ingest degradation   : {}", outcome.report.summary());
    }
    acct.report(&outcome.report)?;
    if let Some(path) = args.get_str("json") {
        write_labels_json(path, &outcome.inference, opts.infer.ratio_threshold)?;
    }
    if let Some(path) = args.get_str("artifact-out") {
        write_artifact_out(path, &outcome.inference, opts.infer.ratio_threshold)?;
    }
    Ok(())
}

/// Histogram bounds (nanoseconds) for per-lookup latency. Single lookups
/// against a warm mmap resolve in the hundreds of nanoseconds; the tail
/// buckets catch cold pages and scheduler noise.
const LOOKUP_LATENCY_BOUNDS: &[u64] = &[100, 250, 500, 1_000, 2_500, 5_000, 10_000, 100_000];

/// `bgpcomm query` — serve lookups from a label artifact.
///
/// Operations (any combination; at least one is required): `--key` point
/// lookups, `--batch` file lookups through the parallel batch API,
/// `--owner` α-prefix scans, `--bench` self-driving throughput measurement,
/// and `--check` — stream MRT archive(s) and flag routes whose observed
/// communities contradict their inferred intent class (exit 7 if any).
pub fn query(raw: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(raw)?;
    Accounting::run(&args, |acct| query_accounted(&args, acct))
}

fn query_accounted(args: &Args, acct: &Accounting) -> Result<(), Failure> {
    use std::time::Instant;

    let tel = &acct.telemetry;
    let threads: usize = args.get("threads", 0usize)?;

    let path = args
        .get_str("artifact")
        .ok_or("--artifact FILE is required")?;
    // A refused artifact is the same failure class as a refused checkpoint.
    let artifact = tel
        .stage("query_load", || LabelArtifact::load(Path::new(path)))
        .map_err(|e| Failure::refused(e.is_invalid_data(), format!("query: {e}")))?;
    eprintln!(
        "artifact: {} labels across {} owners from {path} ({})",
        artifact.len(),
        artifact.owner_count(),
        if artifact.is_mmapped() {
            "mmap"
        } else {
            "heap"
        },
    );

    // The `query/*` metrics surface: lookup volume, hit ratio, and a
    // per-lookup latency histogram for the point-lookup paths.
    let lookups = tel.registry().map(|r| r.counter("query/lookups"));
    let hits = tel.registry().map(|r| r.counter("query/hits"));
    let misses = tel.registry().map(|r| r.counter("query/misses"));
    let latency = tel
        .registry()
        .map(|r| r.histogram("query/latency_ns", LOOKUP_LATENCY_BOUNDS));
    let account = |row: &Option<LabelRow>, elapsed_ns: u64| {
        if let Some(c) = &lookups {
            c.inc();
        }
        if let Some(c) = if row.is_some() { &hits } else { &misses } {
            c.inc();
        }
        if elapsed_ns > 0 {
            if let Some(h) = &latency {
                h.observe(elapsed_ns);
            }
        }
    };
    let print_row = |c: Community, row: Option<LabelRow>| match row {
        Some(r) => println!(
            "{c} {} confidence={} ratio={} on={} off={}",
            r.label, r.confidence, r.ratio, r.on_paths, r.off_paths
        ),
        None => println!("{c} unknown"),
    };

    let mut ran_operation = false;

    // --key A:B[,A:B ...] (repeatable): point lookups through `get`.
    let key_specs = list_values(args, "key");
    if !key_specs.is_empty() {
        ran_operation = true;
        for spec in key_specs {
            let c: Community = spec.parse().map_err(|e| format!("--key {spec}: {e}"))?;
            let start = Instant::now();
            let row = artifact.get(c);
            account(&row, start.elapsed().as_nanos() as u64);
            print_row(c, row);
        }
    }

    // --batch FILE: one community per line, through the batch API.
    if let Some(batch_path) = args.get_str("batch") {
        ran_operation = true;
        let text =
            std::fs::read_to_string(batch_path).map_err(|e| format!("read {batch_path}: {e}"))?;
        let mut keys = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let c: Community = line
                .parse()
                .map_err(|e| format!("{batch_path}:{}: {e}", lineno + 1))?;
            keys.push(c);
        }
        let start = Instant::now();
        let rows = artifact.get_batch(&keys, threads);
        let elapsed = start.elapsed();
        let found = rows.iter().flatten().count();
        for (c, row) in keys.iter().zip(rows) {
            account(&row, 0);
            print_row(*c, row);
        }
        if let Some(r) = tel.registry() {
            r.record_duration("query/batch_ns", elapsed);
        }
        let secs = elapsed.as_secs_f64();
        eprintln!(
            "batch: {} lookups in {elapsed:?} ({found} found{})",
            keys.len(),
            if secs > 0.0 {
                format!(", {:.2} Mlookups/s", keys.len() as f64 / secs / 1e6)
            } else {
                String::new()
            },
        );
    }

    // --owner A: contiguous α-prefix scan via the owner index.
    if let Some(owner_spec) = args.get_str("owner") {
        ran_operation = true;
        let asn: u16 = owner_spec
            .parse()
            .map_err(|e| format!("--owner {owner_spec}: {e}"))?;
        let rows = artifact.owner_rows(asn);
        for r in &rows {
            print_row(r.community, Some(*r));
        }
        eprintln!("owner {asn}: {} labels", rows.len());
    }

    // --bench N: self-driving benchmark over the artifact's own key space,
    // ~1/16 keys perturbed into misses, deterministic xorshift64 walk.
    let bench_n: usize = args.get("bench", 0usize)?;
    if bench_n > 0 {
        ran_operation = true;
        if let Some(report) = bench_lookups(&artifact, bench_n, threads) {
            if let (Some(c), Some(h), Some(m)) = (&lookups, &hits, &misses) {
                c.add(report.total as u64);
                h.add(report.hits as u64);
                m.add(report.misses as u64);
            }
            if let Some(r) = tel.registry() {
                r.record_duration("query/bench_single_ns", report.single);
                r.record_duration("query/bench_batch_ns", report.batch);
            }
            eprintln!(
                "bench: {} single-key lookups in {:?} ({:.2} Mlookups/s)",
                bench_n,
                report.single,
                bench_n as f64 / report.single.as_secs_f64() / 1e6,
            );
            eprintln!(
                "bench: {} batch lookups in {:?} ({:.2} Mlookups/s, {} threads)",
                bench_n,
                report.batch,
                bench_n as f64 / report.batch.as_secs_f64() / 1e6,
                effective_threads(threads),
            );
        }
    }

    // --check MRT[,MRT ...]: stream the archive(s) and flag contradictions.
    if !args.get_all("mrt").is_empty() {
        return Err(Failure::from(
            "query: use --check FILE (not --mrt) for anomaly checking",
        ));
    }
    let check_files = list_values(args, "check");
    if !check_files.is_empty() {
        ran_operation = true;
        let iopts = IngestOptions::from_args(args)?;
        let siblings = load_siblings(args)?;
        let (store, _report) = load_observations(&check_files, &iopts, acct)?;
        let report = tel.stage("query_check", || check_store(&artifact, &store, &siblings));
        if let Some(r) = tel.registry() {
            r.counter("query/check_observations")
                .add(report.observations as u64);
            r.counter("query/check_checked").add(report.checked as u64);
            r.counter("query/check_unknown").add(report.unknown as u64);
            r.counter("query/check_anomalies")
                .add(report.anomalies.len() as u64);
        }
        for a in &report.anomalies {
            println!(
                "anomaly {} {} vp={} prefix={} obs={}",
                a.kind, a.community, a.vp, a.prefix, a.index
            );
        }
        println!(
            "check: {} observations, {} checked, {} unknown, {} anomalies",
            report.observations,
            report.checked,
            report.unknown,
            report.anomalies.len(),
        );
        if !report.anomalies.is_empty() {
            return Err(Failure::new(
                EXIT_ANOMALY,
                format!(
                    "query: {} route(s) contradict their inferred intent",
                    report.anomalies.len()
                ),
            ));
        }
    }

    if !ran_operation {
        return Err(Failure::from(
            "query: nothing to do — give --key, --batch, --owner, --bench, or --check",
        ));
    }
    Ok(())
}

/// What [`bench_lookups`] measured.
struct BenchReport {
    total: usize,
    hits: usize,
    misses: usize,
    single: std::time::Duration,
    batch: std::time::Duration,
}

/// Drive `--bench N`: build a deterministic workload from the artifact's
/// own key space (~1/16 perturbed into misses), then time the same keys
/// through the single-key path and the batch path. Returns `None` for an
/// empty artifact (the loader already refuses those, so this is defensive).
fn bench_lookups(artifact: &LabelArtifact, n: usize, threads: usize) -> Option<BenchReport> {
    use std::hint::black_box;
    use std::time::Instant;

    if artifact.is_empty() {
        return None;
    }
    // xorshift64 with a fixed seed: the workload is reproducible across
    // runs and machines, so throughput numbers are comparable.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut step = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let keys: Vec<Community> = (0..n)
        .map(|_| {
            let r = step();
            let row = artifact.row((r % artifact.len() as u64) as usize);
            let c = row.community;
            if r % 16 == 0 {
                // Perturb ~1/16 into (likely) misses so the miss path —
                // a full-depth binary search — stays represented.
                Community::new(c.asn, c.value.wrapping_add(1))
            } else {
                c
            }
        })
        .collect();

    // Warm up: touch every page once so mmap faults don't count.
    let mut warm = 0usize;
    for &k in &keys {
        warm += artifact.get(k).is_some() as usize;
    }
    black_box(warm);

    let start = Instant::now();
    let mut hits = 0usize;
    for &k in &keys {
        hits += artifact.get(k).is_some() as usize;
    }
    let single = start.elapsed();
    black_box(hits);

    let start = Instant::now();
    let rows = artifact.get_batch(&keys, threads);
    let batch = start.elapsed();
    let batch_hits = rows.iter().flatten().count();
    assert_eq!(hits, batch_hits, "single and batch paths must agree");

    Some(BenchReport {
        total: n,
        hits,
        misses: n - hits,
        single,
        batch,
    })
}

/// `bgpcomm feed` — serve an MRT byte stream over TCP with the watch
/// resume protocol.
pub fn feed(raw: Vec<String>) -> Result<(), Failure> {
    use bgp_mrt::{FeedServer, FeedServerOptions};
    use std::time::Duration;

    let args = Args::parse(raw)?;
    let listen = args.get_str("listen").unwrap_or("127.0.0.1:0");
    let bytes: Vec<u8> = if args.get_all("mrt").is_empty() {
        let days: u32 = args.get("days", 4)?;
        let scenario_cfg = ScenarioConfig::from_args(&args)?;
        eprintln!(
            "feed: generating scenario stream (seed {}, scale {}, {} days)...",
            scenario_cfg.seed, scenario_cfg.scale, days
        );
        let scenario = Scenario::build(&scenario_cfg);
        let sim = scenario.simulator();
        let mut buf = Vec::new();
        scenario
            .stream_collect(&sim, days, &mut buf)
            .map_err(|e| format!("generate stream: {e}"))?;
        buf
    } else {
        let mut buf = Vec::new();
        for path in mrt_files(&args)? {
            let mut file = File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
            std::io::Read::read_to_end(&mut file, &mut buf)
                .map_err(|e| format!("read {path}: {e}"))?;
        }
        buf
    };
    let throttle = match args.get_str("throttle") {
        None => None,
        Some(raw) => {
            let (chunk, ms) = raw
                .split_once(':')
                .ok_or_else(|| format!("--throttle {raw}: expected BYTES:MS"))?;
            Some((
                chunk
                    .parse::<usize>()
                    .map_err(|e| format!("--throttle {raw}: {e}"))?
                    .max(1),
                Duration::from_millis(ms.parse().map_err(|e| format!("--throttle {raw}: {e}"))?),
            ))
        }
    };

    let listener =
        std::net::TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    // Scripts (and the e2e tests) read the bound address from this line —
    // flush it before blocking in the accept loop.
    println!("listening on {addr} ({} bytes)", bytes.len());
    let _ = std::io::stdout().flush();

    let server = FeedServer::new(Arc::new(bytes), FeedServerOptions { throttle });
    let served = server
        .serve_tcp(listener, &SHUTDOWN)
        .map_err(|e| format!("serve: {e}"))?;
    eprintln!("feed: served {served} connection(s)");
    Ok(())
}

/// `bgpcomm validate`
pub fn validate(raw: Vec<String>) -> Result<(), Failure> {
    use bgp_mrt::records::MrtRecord;
    use bgp_mrt::{MrtError, MrtReader};

    let args = Args::parse(raw)?;
    let mut total_bad = 0u64;
    for path in mrt_files(&args)? {
        let file = File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
        let mut reader = MrtReader::new(BufReader::new(file));
        let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let mut errors: Vec<String> = Vec::new();
        let mut aborted = false;
        for item in reader.by_ref() {
            match item {
                Ok(rec) => {
                    let kind = match rec.record {
                        MrtRecord::PeerIndexTable(_) => "PEER_INDEX_TABLE",
                        MrtRecord::Rib(_) => "RIB",
                        MrtRecord::TableDump(_) => "TABLE_DUMP (legacy)",
                        MrtRecord::Message(_) => "BGP4MP_MESSAGE",
                        MrtRecord::StateChange(_) => "BGP4MP_STATE_CHANGE",
                    };
                    *counts.entry(kind).or_default() += 1;
                }
                Err(e @ (MrtError::Io(_) | MrtError::Truncated { .. })) => {
                    errors.push(format!("fatal: {e}"));
                    aborted = true;
                    break;
                }
                Err(e) => {
                    if errors.len() < 10 {
                        errors.push(e.to_string());
                    }
                }
            }
        }
        println!("{path}:");
        for (kind, n) in &counts {
            println!("  {kind:<22} {n}");
        }
        println!(
            "  decoded {} records, skipped {}",
            reader.records_read(),
            reader.records_skipped()
        );
        for e in &errors {
            println!("  error: {e}");
        }
        if aborted {
            println!("  (stream aborted before the end)");
        }
        total_bad += reader.records_skipped() + u64::from(aborted);
    }
    if total_bad > 0 {
        Err(format!("{total_bad} undecodable record(s)").into())
    } else {
        Ok(())
    }
}

/// Load an `infer --json` label file into a map.
fn load_labels(path: &str) -> Result<std::collections::BTreeMap<String, String>, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let entries: Vec<serde_json::Value> =
        serde_json::from_reader(BufReader::new(file)).map_err(|e| format!("parse {path}: {e}"))?;
    let mut map = std::collections::BTreeMap::new();
    for entry in entries {
        let community = entry["community"]
            .as_str()
            .ok_or_else(|| format!("{path}: entry without community"))?;
        let intent = entry["intent"]
            .as_str()
            .ok_or_else(|| format!("{path}: entry without intent"))?;
        map.insert(community.to_string(), intent.to_string());
    }
    Ok(map)
}

/// `bgpcomm compare`
pub fn compare(raw: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(raw)?;
    let old_path = args.get_str("old").ok_or("--old FILE is required")?;
    let new_path = args.get_str("new").ok_or("--new FILE is required")?;
    let old = load_labels(old_path)?;
    let new = load_labels(new_path)?;

    let mut appeared = 0u64;
    let mut disappeared = 0u64;
    let mut flipped: Vec<(&String, &String, &String)> = Vec::new();
    for (c, intent) in &new {
        match old.get(c) {
            None => appeared += 1,
            Some(prev) if prev != intent => flipped.push((c, prev, intent)),
            Some(_) => {}
        }
    }
    for c in old.keys() {
        if !new.contains_key(c) {
            disappeared += 1;
        }
    }
    println!("old labels     : {}", old.len());
    println!("new labels     : {}", new.len());
    println!("appeared       : {appeared}");
    println!("disappeared    : {disappeared}");
    println!("intent flips   : {}", flipped.len());
    for (c, prev, now) in flipped.iter().take(20) {
        println!("  {c:<14} {prev} -> {now}");
    }
    if flipped.len() > 20 {
        println!("  ... and {} more", flipped.len() - 20);
    }
    // Flips are the anomaly signal (§4: coarse categories were stable
    // 2007 -> 2023); surface them in their own exit code for scripting.
    if flipped.is_empty() {
        Ok(())
    } else {
        Err(Failure::new(
            EXIT_ANOMALY,
            format!("{} intent flip(s) detected", flipped.len()),
        ))
    }
}

/// `bgpcomm generate`
pub fn generate(raw: Vec<String>) -> Result<(), Failure> {
    let args = Args::parse(raw)?;
    let out = args.get_str("out").ok_or("--out DIR is required")?;
    let days: u32 = args.get("days", 7)?;
    let scenario_cfg = ScenarioConfig::from_args(&args)?;
    std::fs::create_dir_all(out).map_err(|e| format!("create {out}: {e}"))?;
    let dir = Path::new(out);

    eprintln!(
        "generating world (seed {}, scale {}) with {} days of data...",
        scenario_cfg.seed, scenario_cfg.scale, days
    );
    let scenario = Scenario::build(&scenario_cfg);
    let sim = scenario.simulator();

    if args.flag("stream") {
        // Large-archive mode: everything goes into one file, one day at a
        // time, so peak memory stays bounded by the biggest single day no
        // matter how many gigabytes the archive grows to.
        let path = dir.join("archive.mrt");
        let file = File::create(&path).map_err(|e| format!("create archive.mrt: {e}"))?;
        let summary = scenario
            .stream_collect(&sim, days, BufWriter::new(file))
            .map_err(|e| format!("write archive.mrt: {e}"))?;
        println!(
            "{}: {} observations in {} MRT records (streamed)",
            path.display(),
            summary.observations,
            summary.records
        );
    } else {
        let rib_path = dir.join("rib.mrt");
        let rib = sim.collect_rib(&scenario.vps);
        let file = File::create(&rib_path).map_err(|e| format!("create rib.mrt: {e}"))?;
        write_rib_dump(BufWriter::new(file), scenario.sim_cfg.base_timestamp, &rib)
            .map_err(|e| format!("write rib.mrt: {e}"))?;
        println!("{}: {} routes", rib_path.display(), rib.len());

        for day in 1..days {
            let path = dir.join(format!("updates.day{day}.mrt"));
            let updates = sim.collect_churn_day(&scenario.vps, day);
            let file = File::create(&path).map_err(|e| format!("create updates: {e}"))?;
            write_update_stream(BufWriter::new(file), Asn::new(6447), &updates)
                .map_err(|e| format!("write updates: {e}"))?;
            println!("{}: {} updates", path.display(), updates.len());
        }
    }

    let dict_path = dir.join("dictionary.json");
    let file = File::create(&dict_path).map_err(|e| format!("create dictionary: {e}"))?;
    scenario
        .dict
        .to_json(BufWriter::new(file))
        .map_err(|e| format!("write dictionary: {e}"))?;
    let (a, i) = scenario.dict.entry_counts();
    println!(
        "{}: {} action + {} info patterns",
        dict_path.display(),
        a,
        i
    );

    let sib_path = dir.join("siblings.json");
    let file = File::create(&sib_path).map_err(|e| format!("create siblings: {e}"))?;
    serde_json::to_writer_pretty(BufWriter::new(file), &scenario.siblings)
        .map_err(|e| format!("write siblings: {e}"))?;
    println!("{}: as2org sibling map", sib_path.display());

    // Ground-truth intent per defined community, for scoring external tools.
    let dot_path = dir.join("topology.dot");
    std::fs::write(&dot_path, bgp_topology::to_dot(&scenario.topo))
        .map_err(|e| format!("write topology.dot: {e}"))?;
    println!("{}: Graphviz rendering of the AS graph", dot_path.display());

    let truth_path = dir.join("truth.json");
    let mut truth: Vec<serde_json::Value> = Vec::new();
    for asn in scenario.policies.asns_sorted() {
        // An AS listed without a policy would be an internal inconsistency;
        // surface it as an error instead of panicking mid-write.
        let policy = scenario.policies.get(asn).ok_or_else(|| {
            format!("internal error: AS{asn} is listed in the policy table but has no policy")
        })?;
        for (&beta, purpose) in &policy.defs {
            truth.push(serde_json::json!({
                "community": format!("{}:{}", asn, beta),
                "intent": match purpose.intent() {
                    Intent::Action => "action",
                    Intent::Information => "information",
                },
            }));
        }
    }
    let file = File::create(&truth_path).map_err(|e| format!("create truth: {e}"))?;
    serde_json::to_writer_pretty(BufWriter::new(file), &truth)
        .map_err(|e| format!("write truth: {e}"))?;
    println!(
        "{}: {} ground-truth labels",
        truth_path.display(),
        truth.len()
    );
    Ok(())
}
