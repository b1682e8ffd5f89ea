//! End-to-end tests of the `bgpcomm` binary: generate → stats → infer.

use std::path::PathBuf;
use std::process::Command;

fn bgpcomm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(cmd: &mut Command) -> (String, String, bool) {
    let out = cmd.output().expect("spawn bgpcomm");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn full_cli_workflow() {
    let dir = workdir("workflow");
    let out = dir.to_str().unwrap().to_string();

    // generate
    let (stdout, stderr, ok) = run(bgpcomm().args([
        "generate", "--out", &out, "--scale", "0.1", "--days", "2", "--docs", "10",
    ]));
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("rib.mrt"), "{stdout}");
    for file in [
        "rib.mrt",
        "updates.day1.mrt",
        "dictionary.json",
        "siblings.json",
        "truth.json",
    ] {
        assert!(dir.join(file).exists(), "{file} missing");
    }

    // stats
    let mrt = format!("{out}/rib.mrt,{out}/updates.day1.mrt");
    let (stdout, stderr, ok) = run(bgpcomm().args(["stats", "--mrt", &mrt]));
    assert!(ok, "stats failed: {stderr}");
    assert!(stdout.contains("unique AS paths"), "{stdout}");
    assert!(stdout.contains("distinct communities"), "{stdout}");

    // infer with evaluation and JSON output
    let labels = dir.join("labels.json");
    let (stdout, stderr, ok) = run(bgpcomm().args([
        "infer",
        "--mrt",
        &mrt,
        "--dict",
        &format!("{out}/dictionary.json"),
        "--siblings",
        &format!("{out}/siblings.json"),
        "--json",
        labels.to_str().unwrap(),
        "--top",
        "3",
    ]));
    assert!(ok, "infer failed: {stderr}");
    assert!(stdout.contains("classified"), "{stdout}");
    assert!(stdout.contains("dictionary evaluation"), "{stdout}");

    // The JSON release parses and has the expected shape.
    let parsed: serde_json::Value =
        serde_json::from_slice(&std::fs::read(&labels).unwrap()).unwrap();
    let array = parsed.as_array().expect("label array");
    assert!(!array.is_empty());
    for entry in array.iter().take(5) {
        assert!(entry["community"].as_str().unwrap().contains(':'));
        let intent = entry["intent"].as_str().unwrap();
        assert!(intent == "action" || intent == "information");
    }
}

#[test]
fn validate_reports_counts_and_errors() {
    let dir = workdir("validate");
    let out = dir.to_str().unwrap().to_string();
    let (_, stderr, ok) = run(bgpcomm().args([
        "generate", "--out", &out, "--scale", "0.1", "--days", "1", "--docs", "5",
    ]));
    assert!(ok, "generate failed: {stderr}");

    let rib = format!("{out}/rib.mrt");
    let (stdout, _, ok) = run(bgpcomm().args(["validate", "--mrt", &rib]));
    assert!(ok);
    assert!(stdout.contains("PEER_INDEX_TABLE"), "{stdout}");
    assert!(stdout.contains("skipped 0"), "{stdout}");

    // Append an undecodable record: validate reports it and exits nonzero.
    let mut bytes = std::fs::read(&rib).unwrap();
    bytes.extend_from_slice(&1u32.to_be_bytes());
    bytes.extend_from_slice(&99u16.to_be_bytes());
    bytes.extend_from_slice(&0u16.to_be_bytes());
    bytes.extend_from_slice(&3u32.to_be_bytes());
    bytes.extend_from_slice(&[1, 2, 3]);
    let bad = dir.join("bad.mrt");
    std::fs::write(&bad, bytes).unwrap();
    let (stdout, _, ok) = run(bgpcomm().args(["validate", "--mrt", bad.to_str().unwrap()]));
    assert!(!ok, "validate should fail on undecodable records");
    assert!(stdout.contains("skipped 1"), "{stdout}");
}

#[test]
fn compare_detects_flips_and_churn() {
    let dir = workdir("compare");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(
        &old,
        serde_json::json!([
            {"community": "1299:2569", "intent": "action"},
            {"community": "1299:35130", "intent": "information"},
            {"community": "3356:100", "intent": "information"},
        ])
        .to_string(),
    )
    .unwrap();
    std::fs::write(
        &new,
        serde_json::json!([
            {"community": "1299:2569", "intent": "action"},
            {"community": "1299:35130", "intent": "action"},
            {"community": "174:7", "intent": "information"},
        ])
        .to_string(),
    )
    .unwrap();
    let out = bgpcomm()
        .args([
            "compare",
            "--old",
            old.to_str().unwrap(),
            "--new",
            new.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bgpcomm");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Flips exit 7 (EXIT_ANOMALY), apart from a usage error's 1.
    assert_eq!(out.status.code(), Some(7), "flips must fail the exit code");
    assert!(stdout.contains("appeared       : 1"), "{stdout}");
    assert!(stdout.contains("disappeared    : 1"), "{stdout}");
    assert!(stdout.contains("intent flips   : 1"), "{stdout}");
    assert!(stdout.contains("1299:35130"), "{stdout}");

    // Identical files: success.
    let (stdout, _, ok) = run(bgpcomm().args([
        "compare",
        "--old",
        old.to_str().unwrap(),
        "--new",
        old.to_str().unwrap(),
    ]));
    assert!(ok, "{stdout}");
    assert!(stdout.contains("intent flips   : 0"));

    // A missing label file is a usage error, not a flip.
    let out = bgpcomm()
        .args([
            "compare",
            "--old",
            dir.join("missing.json").to_str().unwrap(),
            "--new",
            new.to_str().unwrap(),
        ])
        .output()
        .expect("spawn bgpcomm");
    assert_eq!(out.status.code(), Some(1), "a missing label file exits 1");
}

#[test]
fn help_and_errors() {
    let (_, stderr, ok) = run(bgpcomm().arg("--help"));
    assert!(ok);
    assert!(stderr.contains("USAGE"));

    let (_, stderr, ok) = run(bgpcomm().arg("frobnicate"));
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (_, stderr, ok) = run(bgpcomm().arg("infer"));
    assert!(!ok);
    assert!(stderr.contains("--mrt"));

    let (_, stderr, ok) = run(bgpcomm().args(["stats", "--mrt", "/nonexistent.mrt"]));
    assert!(!ok);
    assert!(stderr.contains("open"));
}
