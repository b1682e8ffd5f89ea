//! Every run mode counts unique AS paths exactly: two distinct paths that
//! share a 64-bit hash stay two paths in `infer`, `infer --checkpoint`
//! across a crash, `shard` and `watch`, and a resumed run counts every
//! file under the sibling map it was given.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bgp_mrt::obs::write_update_stream;
use bgp_types::{Asn, Community, Observation};

const EXIT_CRASH: i32 = 9;

fn bgpcomm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bgpcomm"))
        .args(args)
        .output()
        .expect("spawn bgpcomm")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgpcomm-exact-{name}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn obs(path: &str, community: (u16, u16), time: u32) -> Observation {
    Observation {
        vp: path.split_whitespace().next().unwrap().parse().unwrap(),
        prefix: "10.0.0.0/24".parse().unwrap(),
        path: path.parse().unwrap(),
        communities: vec![Community::new(community.0, community.1)],
        large_communities: Vec::new(),
        time,
    }
}

fn write_archive(dir: &Path, name: &str, observations: &[Observation]) -> PathBuf {
    let path = dir.join(name);
    let mut buf = Vec::new();
    write_update_stream(&mut buf, Asn::new(6447), observations).unwrap();
    fs::write(&path, buf).unwrap();
    path
}

/// A sibling file making each group one organization.
fn write_siblings(dir: &Path, name: &str, orgs: &[&[u32]]) -> PathBuf {
    let members: Vec<String> = orgs.iter().map(|org| format!("{org:?}")).collect();
    let org_of: Vec<String> = orgs
        .iter()
        .enumerate()
        .flat_map(|(i, org)| org.iter().map(move |a| format!("\"{a}\": {i}")))
        .collect();
    let path = dir.join(name);
    fs::write(
        &path,
        format!(
            "{{\"members\": [{}], \"org_of\": {{{}}}}}",
            members.join(", "),
            org_of.join(", ")
        ),
    )
    .unwrap();
    path
}

/// Run `command` over `inputs` with `--json dir/<tag>.json` plus `extra`;
/// returns the process output and the label bytes.
fn labels(
    command: &str,
    inputs: &[PathBuf],
    dir: &Path,
    tag: &str,
    extra: &[&str],
) -> (Output, Vec<u8>) {
    let json = dir.join(format!("{tag}.json"));
    let _ = fs::remove_file(&json);
    let mut args = vec![command, "--top", "0", "--json", json.to_str().unwrap()];
    for p in inputs {
        args.extend(["--mrt", p.to_str().unwrap()]);
    }
    args.extend(extra);
    let out = bgpcomm(&args);
    let bytes = fs::read(&json).unwrap_or_default();
    (out, bytes)
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `infer --checkpoint` killed after `crash_after` committed files, then
/// resumed with `resume_extra`; returns the resumed run's labels.
fn crash_and_resume(
    inputs: &[PathBuf],
    dir: &Path,
    tag: &str,
    crash_after: &str,
    first_extra: &[&str],
    resume_extra: &[&str],
) -> Vec<u8> {
    let ckpt = dir.join(format!("{tag}.ckpt"));
    let _ = fs::remove_file(&ckpt);
    let ckpt = ckpt.to_str().unwrap();
    let mut first = vec!["--checkpoint", ckpt, "--inject-crash-after", crash_after];
    first.extend(first_extra);
    let (out, _) = labels("infer", inputs, dir, tag, &first);
    assert_eq!(
        out.status.code(),
        Some(EXIT_CRASH),
        "{tag}: {}",
        stderr_of(&out)
    );
    let mut resume = vec!["--checkpoint", ckpt, "--resume"];
    resume.extend(resume_extra);
    let (out, resumed) = labels("infer", inputs, dir, tag, &resume);
    assert_eq!(out.status.code(), Some(0), "{tag}: {}", stderr_of(&out));
    resumed
}

#[test]
fn fingerprint_colliding_paths_get_identical_labels_in_every_mode() {
    let dir = workdir("collide");
    // `213641905 64500` and `1456344755 537186471` hash to the same 64-bit
    // path fingerprint. AS 100 is a sibling of 213641905, so 100:1 rides
    // one path on-path and the other off-path.
    let pair = [
        obs("213641905 64500", (100, 1), 1_000_000),
        obs("1456344755 537186471", (100, 1), 1_000_400),
    ];
    let both = write_archive(&dir, "pair.mrt", &pair);
    let split = [
        write_archive(&dir, "a.mrt", &pair[..1]),
        write_archive(&dir, "b.mrt", &pair[1..]),
    ];
    let siblings = write_siblings(&dir, "siblings.json", &[&[100, 213641905]]);
    let siblings = ["--siblings", siblings.to_str().unwrap()];

    let (out, reference) = labels(
        "infer",
        std::slice::from_ref(&both),
        &dir,
        "reference",
        &siblings,
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let text = String::from_utf8_lossy(&reference);
    assert!(text.contains("\"on_paths\": 1"), "{text}");
    assert!(text.contains("\"off_paths\": 1"), "{text}");

    let mut runs = vec![(
        "infer, two files",
        labels("infer", &split, &dir, "split", &siblings).1,
    )];
    for (name, inputs) in [
        ("one file", vec![both.clone()]),
        ("two files", split.to_vec()),
    ] {
        let resumed = crash_and_resume(&inputs, &dir, "ckpt", "1", &siblings, &siblings);
        runs.push((name, resumed));
    }
    for workers in ["1", "2"] {
        let shard_dir = dir.join(format!("shards-{workers}"));
        let mut extra = vec![
            "--shard-dir",
            shard_dir.to_str().unwrap(),
            "--workers",
            workers,
        ];
        extra.extend(siblings);
        let (out, bytes) = labels("shard", &split, &dir, "shard", &extra);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        runs.push(("shard", bytes));
    }
    let watch_json = dir.join("watch.json");
    let out = bgpcomm(&[
        "watch",
        "--tail",
        both.to_str().unwrap(),
        "--quiesce-after",
        "1",
        "--siblings",
        siblings[1],
        "--json",
        watch_json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    runs.push(("watch", fs::read(&watch_json).unwrap()));

    for (mode, bytes) in runs {
        assert_eq!(
            String::from_utf8_lossy(&bytes),
            text,
            "{mode}: labels differ from infer over the same records"
        );
    }
}

#[test]
fn resume_under_a_different_sibling_map_counts_every_file_under_it() {
    let dir = workdir("siblings-resume");
    // Community 100:k rides paths through 200 (a sibling of 100 only in
    // map B) and through 100 itself, spread over three files.
    let files: Vec<PathBuf> = (0..3u32)
        .map(|f| {
            let rows: Vec<Observation> = (0..12u32)
                .map(|i| {
                    let n = f * 12 + i;
                    let via = if n % 3 == 0 { 100 } else { 200 };
                    obs(
                        &format!("{} {via} {}", 64500 + n % 4, 3000 + n),
                        (100, (n % 5) as u16),
                        1_000_000 + n,
                    )
                })
                .collect();
            write_archive(&dir, &format!("updates.{f:02}.mrt"), &rows)
        })
        .collect();
    let map_a = write_siblings(&dir, "a.json", &[&[100], &[200]]);
    let map_b = write_siblings(&dir, "b.json", &[&[100, 200]]);
    let a = ["--siblings", map_a.to_str().unwrap()];
    let b = ["--siblings", map_b.to_str().unwrap()];

    let (out, fresh_b) = labels("infer", &files, &dir, "fresh-b", &b);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let (_, fresh_a) = labels("infer", &files, &dir, "fresh-a", &a);
    assert_ne!(fresh_a, fresh_b, "the two maps must label differently");

    for crash_after in ["1", "2"] {
        let resumed = crash_and_resume(&files, &dir, "mixed", crash_after, &a, &b);
        assert_eq!(
            String::from_utf8_lossy(&resumed),
            String::from_utf8_lossy(&fresh_b),
            "checkpointed under map A after {crash_after} file(s), resumed under B"
        );
    }
}
