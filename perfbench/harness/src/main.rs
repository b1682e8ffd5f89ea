//! `perfbench-harness` — the compiled half of the repository benchmark.
//!
//! `perfbench/run.py` drives it; each subcommand prints one JSON object on
//! stdout.
//!
//! ```text
//! perfbench-harness calibrate
//! perfbench-harness gen         --seed N --scale S --layout week|stream --out DIR
//! perfbench-harness serve       --dir DIR --artifact FILE --seconds S [--trace FILE]
//! perfbench-harness trace-infer --dir DIR --artifact-out FILE --trace FILE --pass N
//! perfbench-harness trace-watch --dir DIR --checkpoint FILE --trace FILE --pass N
//! ```

mod calibrate;
mod gen;
mod redrive;
mod serve;
mod trace;

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bgp_intent::InferenceConfig;

/// Worker threads of every measured run (`nproc` on the reference host);
/// `perfbench/run.py` passes the same count to `bgpcomm`.
pub const THREADS: usize = 2;

/// The inference settings `bgpcomm` runs with by default (`--gap 140
/// --ratio 160`) at `threads` workers.
pub fn cli_config(threads: usize) -> InferenceConfig {
    InferenceConfig {
        min_gap: 140,
        ratio_threshold: 160.0,
        threads,
        ..InferenceConfig::default()
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// `--key value` pairs.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.str(key).map(PathBuf::from)
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse()
            .map_err(|_| format!("--{key} {raw}: not a number"))
    }

    fn opt_path(&self, key: &str) -> Option<PathBuf> {
        self.0.get(key).map(PathBuf::from)
    }
}

/// The MRT files of a generated week, in `inputs.json` order.
fn week_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let manifest: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("inputs.json"))?)
            .map_err(io::Error::other)?;
    let files = manifest["files"]
        .as_array()
        .ok_or_else(|| io::Error::other("inputs.json has no file list"))?;
    Ok(files
        .iter()
        .filter_map(|f| f.as_str())
        .map(|f| dir.join(f))
        .collect())
}

fn run(command: &str, args: &Args) -> Result<serde_json::Value, String> {
    let io = |e: io::Error| e.to_string();
    match command {
        "calibrate" => Ok(serde_json::json!({ "seconds": calibrate::kernel() })),
        "gen" => {
            let layout = match args.str("layout")? {
                "week" => gen::Layout::Week,
                "stream" => gen::Layout::Stream,
                other => return Err(format!("--layout {other}: expected week or stream")),
            };
            let out = args.path("out")?;
            gen::generate(args.num("seed")?, args.num("scale")?, layout, &out).map_err(io)?;
            serde_json::from_str(&std::fs::read_to_string(out.join("inputs.json")).map_err(io)?)
                .map_err(|e| e.to_string())
        }
        "serve" => serve::serve(
            &args.path("dir")?,
            &args.path("artifact")?,
            args.num("seconds")?,
            args.opt_path("trace").as_deref(),
        )
        .map_err(io),
        "trace-infer" => {
            let dir = args.path("dir")?;
            redrive::infer(
                &dir,
                &week_files(&dir).map_err(io)?,
                &args.path("artifact-out")?,
                &args.path("trace")?,
                args.num("pass")?,
            )
            .map_err(io)
        }
        "trace-watch" => {
            let dir = args.path("dir")?;
            redrive::watch(
                &dir,
                &dir.join("archive.mrt"),
                &args.path("checkpoint")?,
                &args.path("trace")?,
                args.num("pass")?,
            )
            .map_err(io)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!(
            "usage: perfbench-harness calibrate|gen|serve|trace-infer|trace-watch --flag value ..."
        );
        return ExitCode::from(2);
    };
    match Args::parse(rest).and_then(|args| run(command, &args)) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-harness {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
