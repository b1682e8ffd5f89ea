//! Seeded inputs and their reference outputs.
//!
//! Inputs come from the library `Scenario` API. The world — topology,
//! policies, dictionary, siblings and vantage points — is the one the
//! paper reproduction documents (seed [`WORLD_SEED`]); the workload seed
//! drives the simulation over it: which origins signal which communities,
//! the churn of every day, and the order of the route requests. Holding
//! the world fixed keeps input sizes close across seeds, so a figure moves
//! with the code rather than with the size of the world a seed happened to
//! draw. The reference labels come from
//! `bgp_intent::run_inference` over the generator's own observations —
//! single-threaded, from memory, never through the MRT decoders or the
//! per-file store merge that the measured runs take.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use bgp_artifact::LabelRow;
use bgp_experiments::{Scenario, ScenarioConfig};
use bgp_intent::{label_rows, run_inference_store, write_inference_artifact};
use bgp_mrt::obs::{write_rib_dump, write_update_stream};
use bgp_types::store::ObservationStore;
use bgp_types::{Asn, Community, Intent, Observation};

use crate::cli_config;

/// Seed of the benchmark world (the reproduction's documented seed).
pub const WORLD_SEED: u64 = 20230501;

/// Collector ASN stamped on update streams (the one `bgpcomm generate` uses).
const COLLECTOR: u32 = 6447;

/// Days in a generated week: the RIB snapshot, then six days of updates.
const DAYS: u32 = 7;

/// How the generated MRT is laid out on disk.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `rib.mrt` plus one `updates.dayN.mrt` per further day (the batch
    /// `infer` input), the dictionary, and the route requests.
    Week,
    /// The same days streamed into one `archive.mrt` (the `watch` input).
    Stream,
}

/// Build the world at `scale`, simulate it under `seed`, write a week of MRT under
/// `out` in `layout`, then the reference outputs and `inputs.json`.
pub fn generate(seed: u64, scale: f64, layout: Layout, out: &Path) -> io::Result<()> {
    std::fs::create_dir_all(out)?;
    let mut scenario = Scenario::build(&ScenarioConfig {
        seed: WORLD_SEED,
        scale,
        ..ScenarioConfig::default()
    });
    scenario.sim_cfg.seed = seed;
    let sim = scenario.simulator();

    // Day 0 is the RIB snapshot, days 1.. are update churn.
    let mut parts = vec![sim.collect_rib(&scenario.vps)];
    parts.extend((1..DAYS).map(|day| sim.collect_churn_day(&scenario.vps, day)));
    let write_part = |w: &mut BufWriter<File>, day: usize| -> io::Result<u64> {
        let written = if day == 0 {
            write_rib_dump(w, scenario.sim_cfg.base_timestamp, &parts[0])
        } else {
            write_update_stream(w, Asn::new(COLLECTOR), &parts[day])
        };
        written.map_err(io::Error::other)
    };
    let mut files = Vec::new();
    let mut records = 0u64;
    match layout {
        Layout::Week => {
            for day in 0..parts.len() {
                let name = match day {
                    0 => "rib.mrt".to_string(),
                    _ => format!("updates.day{day}.mrt"),
                };
                let mut w = create(&out.join(&name))?;
                records += write_part(&mut w, day)?;
                finish(w)?;
                files.push(name);
            }
        }
        Layout::Stream => {
            let mut w = create(&out.join("archive.mrt"))?;
            for day in 0..parts.len() {
                records += write_part(&mut w, day)?;
            }
            finish(w)?;
            files.push("archive.mrt".to_string());
        }
    }
    let observations: Vec<Observation> = parts.concat();
    drop(parts);

    let mut w = create(&out.join("siblings.json"))?;
    serde_json::to_writer(&mut w, &scenario.siblings).map_err(io::Error::other)?;
    finish(w)?;
    if layout == Layout::Week {
        let mut w = create(&out.join("dictionary.json"))?;
        scenario.dict.to_json(&mut w).map_err(io::Error::other)?;
        finish(w)?;
        write_requests(&observations, seed, &out.join("requests.bin"))?;
    }

    let store = ObservationStore::from_observations(&observations);
    // The reference runs single-threaded; the measured runs use several.
    let cfg = cli_config(1);
    let result = run_inference_store(&store, &scenario.siblings, &cfg, None);
    let rows = label_rows(&result.inference, cfg.ratio_threshold);
    write_labels_json(&rows, &out.join("ref_labels.json"))?;
    write_rows(&rows, &out.join("ref_rows.tsv"))?;
    write_inference_artifact(&out.join("ref.art"), &result.inference, cfg.ratio_threshold)?;

    let mut bytes = 0u64;
    for f in &files {
        bytes += std::fs::metadata(out.join(f))?.len();
    }
    let n = store.len().max(1) as f64;
    let manifest = serde_json::json!({
        "seed": seed,
        "scale": scale,
        "days": DAYS,
        "files": files,
        "observations": store.len(),
        "records": records,
        "bytes": bytes,
        "unique_paths": store.path_count(),
        "unique_csets": store.cset_count(),
        "path_ratio": store.path_count() as f64 / n,
        "cset_ratio": store.cset_count() as f64 / n,
        "labels": rows.len(),
    });
    // Written last: its presence marks a complete input set.
    std::fs::write(out.join("inputs.json"), manifest.to_string() + "\n")
}

fn create(path: &Path) -> io::Result<BufWriter<File>> {
    Ok(BufWriter::new(File::create(path)?))
}

fn finish(mut w: BufWriter<File>) -> io::Result<()> {
    w.flush()?;
    w.get_ref().sync_all()
}

/// The canonical label file, field for field what `bgpcomm infer --json`
/// writes for the same rows.
fn write_labels_json(rows: &[LabelRow], path: &Path) -> io::Result<()> {
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
    let mut w = create(path)?;
    serde_json::to_writer(&mut w, &labels).map_err(io::Error::other)?;
    finish(w)
}

/// Reference rows for the serving client, floats as exact bit patterns:
/// `key label confidence_bits ratio_bits on_paths off_paths`.
fn write_rows(rows: &[LabelRow], path: &Path) -> io::Result<()> {
    let mut w = create(path)?;
    for r in rows {
        let label = u8::from(r.label == Intent::Information);
        writeln!(
            w,
            "{} {label} {:x} {:x} {} {}",
            r.community.to_u32(),
            r.confidence.to_bits(),
            r.ratio.to_bits(),
            r.on_paths,
            r.off_paths
        )?;
    }
    finish(w)
}

/// Read the rows [`write_rows`] wrote.
pub fn read_rows(path: &Path) -> io::Result<Vec<LabelRow>> {
    let bad = |line: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad row {line:?}"));
    let text = std::fs::read_to_string(path)?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split(' ').collect();
        let [key, label, conf, ratio, on, off] = f[..] else {
            return Err(bad(line));
        };
        let int = |s: &str| s.parse::<u64>().map_err(|_| bad(line));
        let bits = |s: &str| u64::from_str_radix(s, 16).map_err(|_| bad(line));
        rows.push(LabelRow {
            community: Community::from_u32(u32::try_from(int(key)?).map_err(|_| bad(line))?),
            label: if int(label)? == 1 {
                Intent::Information
            } else {
                Intent::Action
            },
            confidence: f64::from_bits(bits(conf)?),
            ratio: f64::from_bits(bits(ratio)?),
            on_paths: int(on)?,
            off_paths: int(off)?,
        });
    }
    Ok(rows)
}

/// Magic of the request file.
const REQUESTS_MAGIC: &[u8; 8] = b"PBRQ0001";

/// One request per observation with a non-empty community set: its
/// communities as packed RFC 1997 words, in a seeded shuffled order.
/// Layout: magic, request count `n` and key count as u64, `n + 1` u32
/// offsets into the key column, then the keys (all little-endian).
fn write_requests(observations: &[Observation], seed: u64, path: &Path) -> io::Result<()> {
    let mut order: Vec<usize> = (0..observations.len())
        .filter(|&i| !observations[i].communities.is_empty())
        .collect();
    let mut rng = XorShift::new(seed ^ 0x5E2E_0000_0000_0001);
    for i in (1..order.len()).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut offsets = Vec::with_capacity(order.len() + 1);
    let mut keys: Vec<u32> = Vec::new();
    offsets.push(0u32);
    for &i in &order {
        keys.extend(observations[i].communities.iter().map(|c| c.to_u32()));
        offsets.push(u32::try_from(keys.len()).map_err(io::Error::other)?);
    }
    let mut w = create(path)?;
    w.write_all(REQUESTS_MAGIC)?;
    w.write_all(&(order.len() as u64).to_le_bytes())?;
    w.write_all(&(keys.len() as u64).to_le_bytes())?;
    for v in offsets.iter().chain(&keys) {
        w.write_all(&v.to_le_bytes())?;
    }
    finish(w)
}

/// Route requests: request `i` is `keys[offsets[i]..offsets[i + 1]]`.
pub struct Requests {
    pub offsets: Vec<u32>,
    pub keys: Vec<u32>,
}

impl Requests {
    pub fn read(path: &Path) -> io::Result<Requests> {
        let raw = std::fs::read(path)?;
        let bad = || io::Error::new(io::ErrorKind::InvalidData, "corrupt request file");
        if raw.len() < 24 || &raw[..8] != REQUESTS_MAGIC {
            return Err(bad());
        }
        let n = u64::from_le_bytes(raw[8..16].try_into().expect("8 bytes")) as usize;
        let k = u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes")) as usize;
        if raw.len() != 24 + 4 * (n + 1 + k) {
            return Err(bad());
        }
        let words = |bytes: &[u8]| -> Vec<u32> {
            bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect()
        };
        let (offsets, keys) = raw[24..].split_at(4 * (n + 1));
        Ok(Requests {
            offsets: words(offsets),
            keys: words(keys),
        })
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }
}

/// xorshift64*: small, seedable, good enough to shuffle.
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}
