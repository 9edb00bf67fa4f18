//! Workload set-up: corpora generated from the seed the way
//! `wmx generate` writes them, the owner's marked copy, and (for
//! `suspect_audit`) the damaged copies.

use std::fs;
use std::path::{Path, PathBuf};

use wmx_attacks::fault::{GarbleAttack, GarbleMode, TruncationAttack};
use wmx_attacks::{AlterationAttack, ReductionAttack};
use wmx_cli::profile::resolve;
use wmx_cli::queryfile;
use wmx_core::{embed, Watermark};
use wmx_crypto::SecretKey;
use wmx_data::{jobs, publications};
use wmx_xml::{to_pretty_string, to_string, Document};

use crate::ops::BITS;

pub const WORKLOADS: &[&str] = &["pub_owner", "jobs_stream", "suspect_audit"];

/// Which corpus a workload generates and whether it audits damaged
/// copies.
pub struct Spec {
    pub profile: &'static str,
    pub records: usize,
    pub damaged: bool,
    /// Embed rounds per iteration. `suspect_audit` runs 15 detect ops
    /// per iteration, so it repeats its embeds to take as many embed
    /// samples per run as the other workloads.
    pub embed_rounds: usize,
}

pub fn spec(workload: &str) -> Option<Spec> {
    Some(match workload {
        "pub_owner" => Spec {
            profile: "publications",
            records: 30_000,
            damaged: false,
            embed_rounds: 1,
        },
        "jobs_stream" => Spec {
            profile: "jobs",
            records: 25_000,
            damaged: false,
            embed_rounds: 1,
        },
        "suspect_audit" => Spec {
            profile: "publications",
            records: 20_000,
            damaged: true,
            embed_rounds: 2,
        },
        _ => return None,
    })
}

/// A file the ops read: the corpus, or a suspect copy.
pub struct Copy {
    pub name: &'static str,
    pub path: PathBuf,
    pub mib: f64,
    /// Records the copy was made from (after deletions).
    pub records: usize,
}

/// Everything the timed ops and the output checks need. Set-up keeps
/// no document in memory: the ops read their inputs from files.
pub struct Prepared {
    pub profile: &'static str,
    pub key: String,
    pub message: String,
    /// The unmarked corpus the embed ops read.
    pub input: Copy,
    /// The owner's marked copy and its query file, made by `embed`.
    pub marked: PathBuf,
    pub queries: PathBuf,
    /// Digest of the marked copy's compact form: every embed op must
    /// reproduce it.
    pub marked_digest: u64,
    pub queries_digest: u64,
    /// Digest of the query file's lines in sorted order: the stream
    /// engines write the same query set in record order.
    pub query_set_digest: u64,
    /// Copies the detect ops read: the clean marked copy, or the five
    /// damaged copies on `suspect_audit` (read with `--forensics`).
    pub copies: Vec<Copy>,
    pub forensic: bool,
    pub embed_rounds: usize,
}

pub fn digest(bytes: &[u8]) -> u64 {
    // FNV-1a: deterministic across runs and processes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn query_set_digest(text: &str) -> u64 {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    digest(lines.join("\n").as_bytes())
}

pub fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn write(path: &Path, bytes: &[u8]) -> Result<f64, String> {
    fs::write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(mib(bytes.len()))
}

fn generate(spec: &Spec, seed: u64) -> Document {
    match spec.profile {
        "jobs" => {
            jobs::generate(&jobs::JobsConfig {
                records: spec.records,
                companies: (spec.records / 25).max(2),
                seed,
                gamma: 3,
            })
            .doc
        }
        _ => {
            publications::generate(&publications::PublicationsConfig {
                records: spec.records,
                editors: (spec.records / 20).max(2),
                seed,
                gamma: 3,
            })
            .doc
        }
    }
}

fn record_count(doc: &Document) -> usize {
    doc.root_element()
        .map_or(0, |root| doc.child_elements(root).count())
}

/// Generates, writes, marks and (on `suspect_audit`) damages the
/// workload's inputs under `dir`.
pub fn prepare(workload: &str, seed: u64, dir: &Path) -> Result<Prepared, String> {
    let spec = spec(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let key = format!("perfbench-key-{seed}");
    let message = format!("(c) perfbench owner {seed}");

    let original = generate(&spec, seed);
    let input_path = dir.join("input.xml");
    let input = Copy {
        name: "input",
        mib: write(&input_path, to_pretty_string(&original).as_bytes())?,
        path: input_path,
        records: spec.records,
    };

    let profile = resolve(spec.profile).ok_or("unknown profile")?;
    let config = profile.config.clone().with_redundancy(1);
    let mut marked = original;
    let report = embed(
        &mut marked,
        &profile.binding,
        &profile.fds,
        &config,
        &SecretKey::from_passphrase(&key),
        &Watermark::from_message(&message, BITS),
    )
    .map_err(|e| format!("set-up embedding failed: {e}"))?;
    let marked_digest = digest(to_string(&marked).as_bytes());
    let marked_pretty = to_pretty_string(&marked);
    let marked_path = dir.join("marked.xml");
    let marked_mib = write(&marked_path, marked_pretty.as_bytes())?;
    let qtext = queryfile::to_string(&report.queries);
    let queries = dir.join("marked.wmxq");
    write(&queries, qtext.as_bytes())?;

    let copies = if spec.damaged {
        damage(&marked, &marked_pretty, seed, dir)?
    } else {
        vec![Copy {
            name: "clean",
            path: marked_path.clone(),
            mib: marked_mib,
            records: spec.records,
        }]
    };
    Ok(Prepared {
        profile: spec.profile,
        key,
        message,
        input,
        marked: marked_path,
        queries,
        marked_digest,
        queries_digest: digest(qtext.as_bytes()),
        query_set_digest: query_set_digest(&qtext),
        copies,
        forensic: spec.damaged,
        embed_rounds: spec.embed_rounds,
    })
}

/// The five damaged copies of a marked publications document.
fn damage(marked: &Document, pretty: &str, seed: u64, dir: &Path) -> Result<Vec<Copy>, String> {
    let records = record_count(marked);
    let mut copies = Vec::new();
    let mut add = |name: &'static str, bytes: &[u8], records: usize| -> Result<(), String> {
        let path = dir.join(format!("{name}.xml"));
        let mib = write(&path, bytes)?;
        copies.push(Copy {
            name,
            path,
            mib,
            records,
        });
        Ok(())
    };

    let mut altered = marked.clone();
    AlterationAttack::values(0.10, vec!["/db/book/year".to_string()], seed).apply(&mut altered);
    add("alter10", to_pretty_string(&altered).as_bytes(), records)?;
    drop(altered);

    let mut reduced = marked.clone();
    ReductionAttack::new(0.80, "/db/book", seed).apply(&mut reduced);
    let kept = record_count(&reduced);
    add("reduce80", to_pretty_string(&reduced).as_bytes(), kept)?;
    drop(reduced);

    let digits = GarbleAttack::new(0.5, 4096, GarbleMode::ScrambleDigits, seed).apply(pretty);
    add("garble_digits", &digits, records)?;
    let utf8 = GarbleAttack::new(0.5, 64, GarbleMode::InvalidUtf8, seed).apply(pretty);
    add("garble_utf8", &utf8, records)?;
    let cut = TruncationAttack::new(0.60).apply(pretty);
    add("truncate60", cut.as_bytes(), records)?;
    Ok(copies)
}
