//! End-to-end behavior of `bgpcomm watch` and `bgpcomm feed`: the daemon's
//! quiescent-point labels must be byte-identical to a batch `infer` over
//! the same delivered bytes — including under injected disconnects, stalls,
//! and corrupt bursts — a kill -9 mid-run must resume from the checkpoint
//! without double-counting, and the bounded ingest queue must exhibit
//! explicit backpressure instead of unbounded growth.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use bgp_mrt::obs::write_update_stream;
use bgp_types::{Asn, Community, Observation};

const EXIT_ABORTED: i32 = 3;
const EXIT_STREAM: i32 = 6;
const EXIT_CRASH: i32 = 9;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-watch-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Observations whose timestamps stride 400s apart, so a 3600s window
/// advances roughly every 9 of them — plenty of window churn per archive.
fn observations(offset: u32, n: u32) -> Vec<Observation> {
    (0..n)
        .map(|i| {
            let i = offset + i;
            Observation {
                vp: Asn::new(64500 + (i % 4)),
                prefix: format!("10.{}.{}.0/24", i / 250, i % 250).parse().unwrap(),
                path: format!("{} 1299 {}", 64500 + (i % 4), 64496 + (i % 8))
                    .parse()
                    .unwrap(),
                communities: vec![Community::new(1299, 2000 + (i % 7) as u16)],
                large_communities: Vec::new(),
                time: 1_000_000 + i * 400,
            }
        })
        .collect()
}

fn archives(dir: &Path, count: u32, per_file: u32) -> Vec<PathBuf> {
    (0..count)
        .map(|f| {
            let path = dir.join(format!("updates.{f:02}.mrt"));
            let mut buf = Vec::new();
            write_update_stream(
                &mut buf,
                Asn::new(6447),
                &observations(f * per_file / 2, per_file),
            )
            .unwrap();
            fs::write(&path, buf).unwrap();
            path
        })
        .collect()
}

fn mrt_args(paths: &[PathBuf]) -> Vec<&str> {
    paths
        .iter()
        .flat_map(|p| ["--mrt", p.to_str().unwrap()])
        .collect()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Start a `feed` subprocess serving the given archives and read the bound
/// address off its stdout.
fn spawn_feed(paths: &[PathBuf], throttle: Option<&str>) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgpcomm"));
    cmd.arg("feed").arg("--listen").arg("127.0.0.1:0");
    for p in paths {
        cmd.arg("--mrt").arg(p);
    }
    if let Some(t) = throttle {
        cmd.arg("--throttle").arg(t);
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn feed");
    let stdout = child.stdout.take().expect("feed stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read feed banner");
    let addr = line
        .split_whitespace()
        .nth(2)
        .unwrap_or_else(|| panic!("feed banner without address: {line:?}"))
        .to_string();
    (child, addr)
}

/// Run `watch` against `addr` with labels + metrics under `dir/<tag>.*`.
fn run_watch(addr: &str, dir: &Path, tag: &str, extra: &[&str]) -> Output {
    let json = dir.join(format!("{tag}.json"));
    let metrics = dir.join(format!("{tag}-metrics.json"));
    let ckpt = dir.join(format!("{tag}.ckpt"));
    let mut args = vec![
        "watch".to_string(),
        "--connect".into(),
        addr.into(),
        "--window-secs".into(),
        "3600".into(),
        "--windows".into(),
        "6".into(),
        "--quiesce-after".into(),
        "2".into(),
        "--stall-ms".into(),
        "300".into(),
        "--checkpoint".into(),
        ckpt.to_str().unwrap().into(),
        "--json".into(),
        json.to_str().unwrap().into(),
        "--metrics-out".into(),
        metrics.to_str().unwrap().into(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    bgpcomm(&args)
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

fn counters(dir: &Path, tag: &str) -> serde_json::Map {
    let snapshot: serde_json::Value =
        serde_json::from_slice(&read(dir, &format!("{tag}-metrics.json"))).unwrap();
    snapshot["counters"].as_object().unwrap().clone()
}

#[test]
fn quiescent_watch_matches_batch_infer_bit_for_bit() {
    let dir = workdir("parity");
    let paths = archives(&dir, 3, 60);
    let batch = bgpcomm(
        &[
            &["infer", "--json", dir.join("batch.json").to_str().unwrap()],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    assert_eq!(batch.status.code(), Some(0), "{}", stderr_of(&batch));

    let (mut feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "clean", &[]);
    let _ = feed.kill();
    let _ = feed.wait();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        read(&dir, "clean.json"),
        read(&dir, "batch.json"),
        "quiescent-point labels must equal a batch run over the same bytes"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("window advances"),
        "summary must report window churn: {stdout}"
    );
    let c = counters(&dir, "clean");
    assert!(c["watch/windows_advanced"].as_u64().unwrap() > 0);
    assert!(c["watch/records"].as_u64().unwrap() > 0);
}

#[test]
fn injected_disconnects_stalls_and_corruption_do_not_change_the_labels() {
    let dir = workdir("faults");
    let paths = archives(&dir, 3, 60);
    let batch = bgpcomm(
        &[
            &["infer", "--json", dir.join("batch.json").to_str().unwrap()],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    assert_eq!(batch.status.code(), Some(0), "{}", stderr_of(&batch));

    // Aggressive schedule: most connections get hit by one of the five
    // stream fault kinds (disconnect mid-frame, indefinite stall, partial
    // frame, duplicate delivery, corrupt burst).
    let (mut feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(
        &addr,
        &dir,
        "faulty",
        &["--inject-stream-faults", "99:0.9", "--retry-attempts", "8"],
    );
    let _ = feed.kill();
    let _ = feed.wait();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        read(&dir, "faulty.json"),
        read(&dir, "batch.json"),
        "reconnect-and-resume must deliver the same labels under faults"
    );
    let c = counters(&dir, "faulty");
    assert!(
        c["stream/reconnects"].as_u64().unwrap() > 0,
        "the fault schedule must actually interrupt delivery: {c:?}"
    );
}

#[test]
fn feed_outage_mid_run_is_survived_by_reconnecting_at_the_cursor() {
    let dir = workdir("outage");
    let paths = archives(&dir, 3, 60);
    let batch = bgpcomm(
        &[
            &["infer", "--json", dir.join("batch.json").to_str().unwrap()],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    assert_eq!(batch.status.code(), Some(0), "{}", stderr_of(&batch));

    // Pin a port by briefly binding it, so a second feed can come back on
    // the same address after the first is killed.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let addr = format!("127.0.0.1:{port}");

    // First feed trickles bytes out slowly, then dies mid-delivery (a real
    // collector outage, not an injected one).
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgpcomm"));
    cmd.arg("feed").arg("--listen").arg(&addr);
    for p in &paths {
        cmd.arg("--mrt").arg(p);
    }
    cmd.arg("--throttle").arg("2048:10");
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    let mut feed1 = cmd.spawn().expect("spawn feed");

    let watcher = {
        let dir = dir.clone();
        let addr = addr.clone();
        std::thread::spawn(move || run_watch(&addr, &dir, "outage", &["--retry-attempts", "40"]))
    };
    std::thread::sleep(Duration::from_millis(600));
    feed1.kill().unwrap();
    let _ = feed1.wait();
    std::thread::sleep(Duration::from_millis(300));
    // Recovery: a fresh feed on the same address serves the full stream;
    // the daemon reconnects at its cursor and finishes.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgpcomm"));
    cmd.arg("feed").arg("--listen").arg(&addr);
    for p in &paths {
        cmd.arg("--mrt").arg(p);
    }
    cmd.stdout(Stdio::null()).stderr(Stdio::null());
    let mut feed2 = cmd.spawn().expect("respawn feed");

    let out = watcher.join().expect("watch thread");
    let _ = feed2.kill();
    let _ = feed2.wait();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(
        read(&dir, "outage.json"),
        read(&dir, "batch.json"),
        "an outage plus reconnect must not change the labels"
    );
}

#[test]
fn kill_nine_mid_run_resumes_from_the_checkpoint_without_double_counting() {
    let dir = workdir("crash");
    let paths = archives(&dir, 3, 60);
    let batch = bgpcomm(
        &[
            &["infer", "--json", dir.join("batch.json").to_str().unwrap()],
            &mrt_args(&paths)[..],
        ]
        .concat(),
    );
    assert_eq!(batch.status.code(), Some(0), "{}", stderr_of(&batch));

    // First run dies like a SIGKILL (exit 9, no checkpoint flush, no
    // cleanup) after 4 window advances.
    let (mut feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "crash", &["--inject-crash-after-windows", "4"]);
    assert_eq!(out.status.code(), Some(EXIT_CRASH), "{}", stderr_of(&out));
    assert!(
        dir.join("crash.ckpt").exists(),
        "a checkpoint must exist from before the crash"
    );

    // Second run, same command minus the injection: resumes at the
    // checkpoint cursor and finishes; re-delivered bytes are absorbed by
    // the content-based statistics, so the labels still equal the batch
    // run — no double-counting.
    let out = run_watch(&addr, &dir, "crash", &[]);
    let _ = feed.kill();
    let _ = feed.wait();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("resumed from checkpoint"),
        "the restart must actually resume: {stderr}"
    );
    assert_eq!(
        read(&dir, "crash.json"),
        read(&dir, "batch.json"),
        "crash + resume must be bit-identical to an uninterrupted batch run"
    );
}

#[test]
fn backpressure_bounds_the_ingest_queue_under_a_slow_consumer() {
    let dir = workdir("backpressure");
    let paths = archives(&dir, 3, 60);
    let (mut feed, addr) = spawn_feed(&paths, None);
    // 4 KiB queue, 1 KiB chunks, and a consumer that sleeps per record:
    // the producer must hit the queue cap and block, not buffer the whole
    // stream.
    let out = run_watch(
        &addr,
        &dir,
        "slow",
        &["--queue-kb", "4", "--chunk-kb", "1", "--slow-fold-ms", "2"],
    );
    let _ = feed.kill();
    let _ = feed.wait();
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    let c = counters(&dir, "slow");
    assert!(
        c["ingest/backpressure_stalls"].as_u64().unwrap() > 0,
        "slow consumer must observe backpressure: {c:?}"
    );
    let snapshot: serde_json::Value =
        serde_json::from_slice(&read(&dir, "slow-metrics.json")).unwrap();
    let peak = snapshot["gauges"]["stream/queue_peak_bytes"]
        .as_u64()
        .unwrap();
    // Queue cap + one chunk in the producer's hand + one in the consumer's.
    assert!(
        peak <= (4 + 2) * 1024,
        "queue occupancy must respect the cap: peak {peak}"
    );
}

#[test]
fn watch_refuses_a_checkpoint_with_different_window_geometry() {
    let dir = workdir("geometry");
    let paths = archives(&dir, 2, 40);
    let (mut feed, addr) = spawn_feed(&paths, None);
    let out = run_watch(&addr, &dir, "geom", &[]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));

    // Same checkpoint, different --windows: refused with the checkpoint
    // exit code, not silently reinterpreted.
    let ckpt = dir.join("geom.ckpt");
    let out = bgpcomm(&[
        "watch",
        "--connect",
        &addr,
        "--window-secs",
        "3600",
        "--windows",
        "3",
        "--quiesce-after",
        "2",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    let _ = feed.kill();
    let _ = feed.wait();
    assert_eq!(out.status.code(), Some(4), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("geometry"), "{}", stderr_of(&out));
}

#[test]
fn an_aborted_stream_still_writes_its_report_and_metrics() {
    let dir = workdir("abort");
    let path = &archives(&dir, 1, 200)[0];
    let mut bytes = fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid..mid + 48].fill(0xee);
    fs::write(path, &bytes).unwrap();
    let report = dir.join("abort-report.json");
    let out = bgpcomm(&[
        "watch",
        "--tail",
        path.to_str().unwrap(),
        "--quiesce-after",
        "1",
        "--max-errors",
        "0",
        "--report",
        report.to_str().unwrap(),
        "--metrics-out",
        dir.join("abort-metrics.json").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(EXIT_STREAM), "{}", stderr_of(&out));
    let report: serde_json::Value =
        serde_json::from_slice(&read(&dir, "abort-report.json")).unwrap();
    assert!(!report["aborted"].is_null(), "{report}");
    assert_eq!(
        report["errors"]["budget_exceeded"].as_u64(),
        Some(1),
        "{report}"
    );
    let c = counters(&dir, "abort");
    assert_eq!(
        c["ingest/errors/budget_exceeded"].as_u64(),
        Some(1),
        "{c:?}"
    );
    assert_eq!(
        c["ingest/records_read"].as_u64(),
        report["records_read"].as_u64(),
        "{c:?}"
    );
}

#[test]
fn watch_usage_errors() {
    // No source.
    let out = bgpcomm(&["watch"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("exactly one of"),
        "{}",
        stderr_of(&out)
    );
    // Two sources.
    let out = bgpcomm(&["watch", "--connect", "127.0.0.1:1", "--tail", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr_of(&out).contains("exactly one of"),
        "{}",
        stderr_of(&out)
    );
}

#[cfg(unix)]
#[test]
fn sigterm_mid_shard_run_leaves_only_valid_or_absent_artifacts() {
    let dir = workdir("shard-sigterm");
    let paths = archives(&dir, 4, 40);
    let shard_dir = dir.join("shards");

    // Shard 0's worker hangs for 20x the (large) stall deadline after its
    // first file — it will still be asleep when the TERM arrives. Shard 1
    // finishes normally first.
    let first_json = dir.join("first.json");
    let mut args = vec![
        "shard",
        "--shard-dir",
        shard_dir.to_str().unwrap(),
        "--workers",
        "2",
        "--shard-deadline-ms",
        "60000",
        "--inject-stall-shard",
        "0",
        "--json",
        first_json.to_str().unwrap(),
    ];
    let mrt = mrt_args(&paths);
    args.extend(&mrt);
    let supervisor = Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn shard supervisor");

    // Wait for shard 1's artifact (the fast one), then TERM the supervisor
    // while shard 0's worker is still hanging.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !shard_dir.join("shard-001.ckpt").exists() {
        assert!(Instant::now() < deadline, "shard 1 never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(supervisor.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let out = supervisor.wait_with_output().expect("wait supervisor");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_ABORTED), "{stderr}");
    assert!(stderr.contains("interrupted"), "{stderr}");

    // The contract: every artifact present validates; the interrupted
    // shard's artifact is absent, not torn; no heartbeat files remain.
    assert!(!shard_dir.join("shard-000.ckpt").exists());
    assert!(shard_dir.join("shard-001.ckpt").exists());
    let leftover_heartbeats: Vec<_> = fs::read_dir(&shard_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".hb"))
        .collect();
    assert!(
        leftover_heartbeats.is_empty(),
        "stale heartbeats left behind: {leftover_heartbeats:?}"
    );

    // Re-running the same command (no injection) resumes: shard 1 is
    // adopted, shard 0 re-runs, and the result matches a single-process
    // run.
    let single = bgpcomm(
        &[
            &["infer", "--json", dir.join("single.json").to_str().unwrap()],
            &mrt[..],
        ]
        .concat(),
    );
    assert_eq!(single.status.code(), Some(0), "{}", stderr_of(&single));
    let second_json = dir.join("second.json");
    let mut args = vec![
        "shard",
        "--shard-dir",
        shard_dir.to_str().unwrap(),
        "--workers",
        "2",
        "--json",
        second_json.to_str().unwrap(),
    ];
    args.extend(&mrt);
    let out = bgpcomm(&args);
    let stderr = stderr_of(&out);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("shard 1: reusing valid artifact"),
        "{stderr}"
    );
    assert_eq!(
        read(&dir, "second.json"),
        read(&dir, "single.json"),
        "the resumed run must match an uninterrupted single-process run"
    );
}

#[test]
fn watch_refuses_a_pre_binary_json_checkpoint() {
    let dir = workdir("pre-binary");
    let paths = archives(&dir, 1, 40);
    // A watch checkpoint exactly as builds before the binary envelope
    // wrote it: compact schema-1 JSON (fingerprint arrays trimmed).
    let old = concat!(
        r#"{"advances":0,"buckets":[{"index":467496,"stats":{"communities":"#,
        r#"[{"asn":1299,"off":[],"on":[17213590879203443071],"value":2000}],"#,
        r#""paths":[17213590879203443071],"seen_asns":[1299,64500],"#,
        r#""tuples":[4130919434467855057]}}],"checksum":8696964914786526113,"#,
        r#""cumulative":{"communities":[{"asn":1299,"off":[],"#,
        r#""on":[17213590879203443071],"value":2000}],"paths":[17213590879203443071],"#,
        r#""seen_asns":[1299,64500],"tuples":[4130919434467855057]},"cursor":10655,"#,
        r#""excluded":[],"flaps":0,"labels":[[85133264,"information"]],"late_drops":0,"#,
        r#""observations":72,"reclassified_owners":1,"records":72,"schema":1,"#,
        r#""window_secs":3600,"windowed":{"counts":[[85133264,1,0]],"#,
        r#""seen_asns":[1299,64500],"unique_paths":1,"unique_tuples":1},"windows":24}"#,
    );
    let ckpt = dir.join("old.ckpt");
    fs::write(&ckpt, old).unwrap();
    let out = bgpcomm(&[
        "watch",
        "--tail",
        paths[0].to_str().unwrap(),
        "--quiesce-after",
        "1",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("pre-binary JSON checkpoint"),
        "{}",
        stderr_of(&out)
    );
    // Refused, not overwritten.
    assert_eq!(fs::read_to_string(&ckpt).unwrap(), old);
}
