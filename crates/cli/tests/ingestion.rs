//! Exit-code and summary behavior of the `bgpcomm` ingestion policies:
//! default lenient, `--strict`, `--max-errors`, and `--report`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bgp_mrt::faults::{
    FaultConfig, FaultInjector, FaultKind, ALL_FAULT_KINDS, BODY_LOCAL_FAULT_KINDS,
};
use bgp_mrt::obs::{write_rib_dump, write_update_stream};
use bgp_mrt::{MrtReader, RecoveringReader};
use bgp_types::{Asn, Community, Observation};

const EXIT_DECODE: i32 = 2;
const EXIT_ABORTED: i32 = 3;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-ingest-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn observations(n: u32) -> Vec<Observation> {
    (0..n)
        .map(|i| Observation {
            vp: Asn::new(64500 + (i % 4)),
            prefix: format!("10.{}.{}.0/24", i / 250, i % 250).parse().unwrap(),
            path: format!("{} 1299 {}", 64500 + (i % 4), 64496 + (i % 8))
                .parse()
                .unwrap(),
            communities: vec![Community::new(1299, 2000 + (i % 7) as u16)],
            large_communities: Vec::new(),
            time: 1_000_000 + i,
        })
        .collect()
}

fn clean_archive(dir: &Path) -> PathBuf {
    let path = dir.join("updates.mrt");
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(120)).unwrap();
    fs::write(&path, buf).unwrap();
    path
}

fn corrupted_archive(dir: &Path) -> PathBuf {
    let path = dir.join("updates.corrupt.mrt");
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(120)).unwrap();
    let inj = FaultInjector::new(FaultConfig {
        seed: 7,
        rate: 0.1,
        kinds: vec![FaultKind::UnknownType, FaultKind::BodyBitFlip],
    });
    let (damaged, log) = inj.corrupt(&buf);
    assert!(log.count() > 0, "corruption must actually land");
    fs::write(&path, damaged).unwrap();
    path
}

#[test]
fn stats_on_clean_input_exits_zero_without_degradation_notice() {
    let dir = workdir("clean");
    let mrt = clean_archive(&dir);
    let out = bgpcomm(&["stats", "--mrt", mrt.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("observations        : 120"), "{stdout}");
    assert!(!stdout.contains("ingest degradation"), "{stdout}");
}

#[test]
fn repeated_mrt_flags_load_every_file() {
    let dir = workdir("multi");
    let a = dir.join("a.mrt");
    let b = dir.join("b.mrt");
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(80)).unwrap();
    fs::write(&a, &buf).unwrap();
    buf.clear();
    write_update_stream(&mut buf, Asn::new(6447), &observations(40)).unwrap();
    fs::write(&b, buf).unwrap();
    let out = bgpcomm(&[
        "stats",
        "--mrt",
        a.to_str().unwrap(),
        "--mrt",
        b.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("observations        : 120"), "{stdout}");
}

#[test]
fn lenient_infer_completes_on_corrupted_input_and_prints_summary() {
    let dir = workdir("lenient");
    let mrt = corrupted_archive(&dir);
    let out = bgpcomm(&["infer", "--mrt", mrt.to_str().unwrap(), "--top", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("ingest degradation"), "{stdout}");
    assert!(stderr.contains("records decoded"), "{stderr}");
}

#[test]
fn strict_infer_fails_fast_on_the_same_corrupted_input() {
    let dir = workdir("strict");
    let mrt = corrupted_archive(&dir);
    let out = bgpcomm(&["infer", "--strict", "--mrt", mrt.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_DECODE), "stderr: {stderr}");
    assert!(stderr.contains("parse"), "{stderr}");
}

#[test]
fn error_budget_aborts_with_distinct_exit_code() {
    let dir = workdir("budget");
    let mrt = corrupted_archive(&dir);
    let out = bgpcomm(&["stats", "--mrt", mrt.to_str().unwrap(), "--max-errors", "0"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_ABORTED), "stderr: {stderr}");
    assert!(stderr.contains("ingestion aborted"), "{stderr}");
}

#[test]
fn threads_flag_gives_identical_output_at_any_count() {
    let dir = workdir("threads");
    let a = dir.join("a.mrt");
    let b = dir.join("b.mrt");
    let c = corrupted_archive(&dir);
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), &observations(80)).unwrap();
    fs::write(&a, &buf).unwrap();
    buf.clear();
    write_update_stream(&mut buf, Asn::new(6447), &observations(40)).unwrap();
    fs::write(&b, buf).unwrap();

    let run = |threads: &str| {
        let out = bgpcomm(&[
            "infer",
            "--mrt",
            a.to_str().unwrap(),
            "--mrt",
            b.to_str().unwrap(),
            "--mrt",
            c.to_str().unwrap(),
            "--threads",
            threads,
            "--top",
            "5",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "threads={threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    let sequential = run("1");
    assert!(sequential.contains("classified"), "{sequential}");
    for threads in ["2", "8", "0"] {
        assert_eq!(run(threads), sequential, "threads={threads}");
    }
}

#[test]
fn strict_and_max_errors_are_mutually_exclusive() {
    let out = bgpcomm(&["stats", "--mrt", "x.mrt", "--strict", "--max-errors", "3"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn report_flag_writes_machine_readable_ingest_report() {
    let dir = workdir("report");
    let mrt = corrupted_archive(&dir);
    let report_path = dir.join("ingest.json");
    let out = bgpcomm(&[
        "stats",
        "--mrt",
        mrt.to_str().unwrap(),
        "--report",
        report_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let report: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&report_path).unwrap()).unwrap();
    assert!(report["records_read"].as_u64().unwrap() > 0);
    let ok = report["bytes_ok"].as_u64().unwrap();
    let skipped = report["bytes_skipped"].as_u64().unwrap();
    assert_eq!(ok + skipped, report["bytes_read"].as_u64().unwrap());
    assert!(report["errors"]["unsupported"].as_u64().is_some());
}

/// A RIB dump whose leading PEER_INDEX_TABLE record is cut off: every RIB
/// entry then points at a peer index outside the (empty) peer table.
fn rib_without_peer_table(dir: &Path) -> PathBuf {
    let mut buf = Vec::new();
    write_rib_dump(&mut buf, 1_000_000, &observations(2)).unwrap();
    let first_len = 12 + u32::from_be_bytes(buf[8..12].try_into().unwrap()) as usize;
    let path = dir.join("rib.no-peers.mrt");
    fs::write(&path, &buf[first_len..]).unwrap();
    path
}

#[test]
fn dropped_rib_entries_count_toward_the_error_budget() {
    let dir = workdir("no-peers");
    let mrt = rib_without_peer_table(&dir);
    let report_path = dir.join("ingest.json");
    let out = bgpcomm(&[
        "stats",
        "--mrt",
        mrt.to_str().unwrap(),
        "--max-errors",
        "0",
        "--report",
        report_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_ABORTED), "stderr: {stderr}");
    let report: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report["errors"]["malformed"].as_u64(), Some(1), "{report}");
    assert!(report["aborted"].as_str().is_some(), "{report}");

    let out = bgpcomm(&["stats", "--strict", "--mrt", mrt.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(EXIT_DECODE), "stderr: {stderr}");
    assert!(
        stderr.contains("malformed RIB entry: peer index 0 out of range"),
        "{stderr}"
    );
}

#[test]
fn strict_infer_writes_the_same_labels_as_lenient_at_any_thread_count() {
    let dir = workdir("strict-clean");
    let rib = dir.join("rib.mrt");
    let mut buf = Vec::new();
    write_rib_dump(&mut buf, 1_000_000, &observations(300)).unwrap();
    fs::write(&rib, &buf).unwrap();
    let mut mrt_args = vec!["--mrt".to_string(), rib.display().to_string()];
    for day in 0..2u32 {
        let path = dir.join(format!("updates.{day}.mrt"));
        buf.clear();
        write_update_stream(&mut buf, Asn::new(6447), &observations(200 + 50 * day)).unwrap();
        fs::write(&path, &buf).unwrap();
        mrt_args.extend(["--mrt".to_string(), path.display().to_string()]);
    }

    let run = |name: &str, threads: &str, strict: bool| -> (Vec<u8>, Vec<u8>) {
        let json = dir.join(format!("{name}.json"));
        let artifact = dir.join(format!("{name}.bga"));
        let mut args = vec!["infer", "--top", "0", "--threads", threads];
        if strict {
            args.push("--strict");
        }
        args.extend(["--json", json.to_str().unwrap()]);
        args.extend(["--artifact-out", artifact.to_str().unwrap()]);
        args.extend(mrt_args.iter().map(String::as_str));
        let out = bgpcomm(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: {stderr}");
        (fs::read(json).unwrap(), fs::read(artifact).unwrap())
    };

    let lenient = run("lenient", "1", false);
    assert!(lenient.0.len() > 2, "labels were inferred");
    for threads in ["1", "2", "8"] {
        let strict = run(&format!("strict-{threads}"), threads, true);
        assert!(strict.0 == lenient.0, "--json differs at threads={threads}");
        assert!(
            strict.1 == lenient.1,
            "--artifact-out differs at threads={threads}"
        );
    }
}

#[test]
fn strict_fails_on_every_fault_kind_naming_the_first_error() {
    let dir = workdir("strict-faults");
    let mut clean = Vec::new();
    write_update_stream(&mut clean, Asn::new(6447), &observations(120)).unwrap();
    for (i, &kind) in ALL_FAULT_KINDS.iter().enumerate() {
        let (damaged, log) = FaultInjector::new(FaultConfig {
            seed: 40 + i as u64,
            rate: 0.25,
            kinds: vec![kind],
        })
        .corrupt(&clean);
        assert!(log.count() > 0, "{kind:?}: corruption must land");
        let mut reader = RecoveringReader::new(&damaged[..]);
        reader.by_ref().for_each(drop);
        assert!(
            reader.report().errors.decode_errors() > 0,
            "{kind:?}: the damage must be detectable"
        );

        let path = dir.join(format!("{kind:?}.mrt"));
        fs::write(&path, &damaged).unwrap();
        let out = bgpcomm(&["infer", "--strict", "--mrt", path.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(EXIT_DECODE), "{kind:?}: {stderr}");
        assert!(stderr.contains("parse"), "{kind:?}: {stderr}");

        if BODY_LOCAL_FAULT_KINDS.contains(&kind) {
            let first = MrtReader::new(&damaged[..])
                .find_map(Result::err)
                .expect("record-local damage surfaces in the owned reader");
            assert!(
                stderr.contains(&first.to_string()),
                "{kind:?}: expected `{first}` in {stderr}"
            );
        }
    }
}
