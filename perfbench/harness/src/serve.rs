//! `serve_routes`: one closed-loop client over a loaded label artifact.
//!
//! A request is one generated route's community set, looked up key by key
//! with `LabelArtifact::get`, the way a consumer embedding the artifact
//! checks a route. A request's clock covers its lookups only; its answers
//! are compared with the reference rows after the clock stops, and a
//! request with any wrong answer counts as failed. Every [`LOAD_EVERY`]
//! requests the client loads the artifact afresh, so the set-up samples
//! spread over the whole run.
//!
//! The artifact is far smaller than the client's own request set, and
//! smaller than the kernel's error on a resident-set reading, so memory is
//! counted instead: the bytes the served artifact maps plus the peak heap
//! that loading and lookups allocate, tracked by a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use bgp_artifact::{LabelArtifact, LabelRow};
use bgp_types::Community;

use crate::gen::{read_rows, Requests};
use crate::median;
use crate::trace::Tracer;

/// Marks a key the reference has no label for.
const MISS: u32 = u32::MAX;

/// Requests per lookup span in the traced run.
const CHUNK: usize = 1024;

/// Requests between two timed artifact loads.
const LOAD_EVERY: usize = 16 * CHUNK;

/// Room for the load timings, reserved before heap counting starts.
const MAX_LOADS: usize = 1 << 16;

/// Latencies below this many nanoseconds are counted per nanosecond.
const EXACT_NS: usize = 1 << 16;

/// Slower latencies are counted per microsecond up to this many; longer
/// ones land in the last bucket.
const COARSE_US: usize = 1 << 16;

/// Serve the requests in `dir` from `artifact` in a closed loop for
/// `seconds`, loading the artifact afresh every [`LOAD_EVERY`] requests.
pub fn serve(
    dir: &Path,
    artifact: &Path,
    seconds: f64,
    trace_out: Option<&Path>,
) -> io::Result<serde_json::Value> {
    let rows = read_rows(&dir.join("ref_rows.tsv"))?;
    let index: HashMap<u32, u32> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| (r.community.to_u32(), i as u32))
        .collect();
    let requests = Requests::read(&dir.join("requests.bin"))?;
    if requests.len() == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "no requests"));
    }
    let expected: Vec<u32> = requests
        .keys
        .iter()
        .map(|k| index.get(k).copied().unwrap_or(MISS))
        .collect();
    drop(index);
    let check = |i: usize, answers: &[Option<LabelRow>]| -> bool {
        answers
            .iter()
            .zip(&expected[requests.range(i)])
            .all(|(got, &e)| match (got, e) {
                (None, MISS) => true,
                (Some(row), e) if e != MISS => *row == rows[e as usize],
                _ => false,
            })
    };

    // Everything the client itself keeps is allocated up front, so the
    // heap counted from the first load on is the artifact's.
    let widest = (0..requests.len())
        .map(|i| requests.range(i).len())
        .max()
        .unwrap_or(0);
    let chunk_keys = match trace_out {
        Some(_) => CHUNK * widest,
        None => widest,
    };
    let mut answers: Vec<Option<LabelRow>> = Vec::with_capacity(chunk_keys);
    let mut load_s = Vec::with_capacity(MAX_LOADS);
    let mut latency = Latency::new();

    let mut tracer = trace_out.map(|_| Tracer::new("serve_routes", 0));
    let root = tracer.as_mut().map(|t| t.enter("pass"));
    let heap = HeapCount::start();
    let art = timed_load(artifact, &mut tracer, &mut load_s)?;

    let budget = Duration::from_secs_f64(seconds);
    let (mut served, mut lookups, mut hits, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut busy = Duration::ZERO;
    let mut next = 0usize;
    let start = Instant::now();
    while start.elapsed() < budget {
        match tracer.as_mut() {
            None => {
                for _ in 0..LOAD_EVERY {
                    let keys = &requests.keys[requests.range(next)];
                    let t0 = Instant::now();
                    answers.extend(keys.iter().map(|&k| art.get(Community::from_u32(k))));
                    let took = t0.elapsed();
                    busy += took;
                    latency.record(took.as_nanos() as u64);
                    hits += answers.iter().filter(|a| a.is_some()).count() as u64;
                    failed += u64::from(!check(next, &answers));
                    lookups += keys.len() as u64;
                    answers.clear();
                    served += 1;
                    next = (next + 1) % requests.len();
                }
            }
            Some(t) => {
                for _ in 0..LOAD_EVERY / CHUNK {
                    let first = next;
                    let id = t.enter("artifact.lookup");
                    for _ in 0..CHUNK {
                        let keys = &requests.keys[requests.range(next)];
                        answers.extend(keys.iter().map(|&k| art.get(Community::from_u32(k))));
                        next = (next + 1) % requests.len();
                    }
                    t.exit(id);
                    let h = answers.iter().filter(|a| a.is_some()).count() as u64;
                    t.count(id, "lookups", answers.len() as u64);
                    t.count(id, "hits", h);
                    let mut rest = &answers[..];
                    for r in 0..CHUNK {
                        let i = (first + r) % requests.len();
                        let (mine, tail) = rest.split_at(requests.range(i).len());
                        failed += u64::from(!check(i, mine));
                        rest = tail;
                    }
                    lookups += answers.len() as u64;
                    hits += h;
                    served += CHUNK as u64;
                    answers.clear();
                }
            }
        }
        drop(timed_load(artifact, &mut tracer, &mut load_s)?);
    }
    let heap_peak = heap.stop();

    let busy_s = busy.as_secs_f64();
    let state_mb = std::fs::metadata(artifact)?.len() as f64 / 1e6;
    let mapped_mb = if art.is_mmapped() { state_mb } else { 0.0 };
    Ok(match (tracer, trace_out) {
        (Some(mut t), Some(path)) => {
            let root = root.expect("traced runs open a root span");
            t.exit(root);
            t.write_jsonl(path)?;
            let busy = t.self_seconds(root)["artifact.lookup"];
            let layers = serde_json::json!({
                "artifact.load_s": median(&mut load_s),
                "artifact.lookup_ns": busy * 1e9 / lookups.max(1) as f64,
                "artifact.hit_ratio": hits as f64 / lookups.max(1) as f64,
            });
            serde_json::json!({ "attempted": served, "failed": failed, "layers": layers })
        }
        _ => serde_json::json!({
            "attempted": served,
            "failed": failed,
            "setup_s": median(&mut load_s),
            "loads": load_s.len(),
            "requests": served,
            "lookups": lookups,
            "hits": hits,
            "busy_s": busy_s,
            "requests_per_s": served as f64 / busy_s,
            "lookups_per_s": lookups as f64 / busy_s,
            "request_p50_us": latency.quantile(0.50) as f64 / 1e3,
            "request_p99_us": latency.quantile(0.99) as f64 / 1e3,
            "peak_rss_mb": mapped_mb + heap_peak as f64 / 1e6,
            "state_mb": state_mb,
        }),
    })
}

/// `LabelArtifact::load` (mmap and full validation), timed into `load_s`.
fn timed_load(
    path: &Path,
    tracer: &mut Option<Tracer>,
    load_s: &mut Vec<f64>,
) -> io::Result<LabelArtifact> {
    let span = tracer.as_mut().map(|t| t.enter("artifact.load"));
    let start = Instant::now();
    let art = LabelArtifact::load(path).map_err(|e| io::Error::other(e.to_string()))?;
    load_s.push(start.elapsed().as_secs_f64());
    if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
        t.exit(id);
    }
    Ok(art)
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Whether allocations are being counted; only while serving, so the
/// traced re-drives pay one relaxed load per allocation.
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since counting started.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The highest `LIVE` reached.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, counting live heap bytes while [`COUNTING`].
struct Counting;

fn note(delta: isize) {
    if COUNTING.load(Relaxed) {
        let live = LIVE.fetch_add(delta, Relaxed) + delta;
        PEAK.fetch_max(live, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

/// One counting interval; the process has at most one at a time.
struct HeapCount;

impl HeapCount {
    fn start() -> HeapCount {
        LIVE.store(0, Relaxed);
        PEAK.store(0, Relaxed);
        COUNTING.store(true, Relaxed);
        HeapCount
    }

    /// The peak of live heap bytes allocated since [`HeapCount::start`].
    fn stop(self) -> u64 {
        COUNTING.store(false, Relaxed);
        PEAK.load(Relaxed).max(0) as u64
    }
}

/// Request latencies: exact counts per nanosecond below [`EXACT_NS`], per
/// microsecond above.
struct Latency {
    exact: Vec<u64>,
    coarse: Vec<u64>,
    total: u64,
}

impl Latency {
    fn new() -> Latency {
        Latency {
            exact: vec![0; EXACT_NS],
            coarse: vec![0; COARSE_US],
            total: 0,
        }
    }

    fn record(&mut self, ns: u64) {
        match self.exact.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.coarse[((ns / 1000) as usize).min(COARSE_US - 1)] += 1,
        }
        self.total += 1;
    }

    /// The smallest latency at or below which a `q` share of requests fell.
    fn quantile(&self, q: f64) -> u64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0u64;
        for (ns, &c) in self.exact.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ns as u64;
            }
        }
        for (us, &c) in self.coarse.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return us as u64 * 1000;
            }
        }
        0
    }
}
