//! The `wmx` binary's streaming commands behave the same at every
//! `--workers` count: the same verdict on damaged copies, and no partial
//! output file from a failed embed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wmx_attacks::{GarbleAttack, GarbleMode, TruncationAttack};

const KEY: &str = "workers-secret";
const MESSAGE: &str = "© workers";

fn wmx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wmx"))
        .args(args)
        .output()
        .expect("wmx runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wmx-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn path(dir: &Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

fn generate(db: &str) {
    let out = wmx(&[
        "generate",
        "--profile",
        "publications",
        "--records",
        "600",
        "--seed",
        "5",
        "--out",
        db,
    ]);
    assert!(out.status.success(), "{out:?}");
}

/// Exit code and every stdout line except the timing-bearing `chunks:`
/// line of `stream-detect --forensics`.
fn verdict(input: &str, workers: usize) -> (Option<i32>, Vec<String>) {
    let workers = workers.to_string();
    let out = wmx(&[
        "stream-detect",
        "--profile",
        "publications",
        "--in",
        input,
        "--key",
        KEY,
        "--message",
        MESSAGE,
        "--forensics",
        "--workers",
        &workers,
    ]);
    let lines = String::from_utf8(out.stdout)
        .expect("utf-8 stdout")
        .lines()
        .filter(|line| !line.starts_with("chunks:"))
        .map(str::to_string)
        .collect();
    (out.status.code(), lines)
}

#[test]
fn stream_detect_gives_one_verdict_at_every_worker_count() {
    let dir = scratch_dir("verdict");
    let (db, marked, queries) = (
        path(&dir, "db.xml"),
        path(&dir, "marked.xml"),
        path(&dir, "q.wmxq"),
    );
    generate(&db);
    let out = wmx(&[
        "stream-embed",
        "--profile",
        "publications",
        "--in",
        &db,
        "--key",
        KEY,
        "--message",
        MESSAGE,
        "--out",
        &marked,
        "--queries",
        &queries,
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&marked).unwrap();
    let garbled = path(&dir, "garbled.xml");
    std::fs::write(
        &garbled,
        GarbleAttack::new(0.5, 64, GarbleMode::InvalidUtf8, 1).apply(&text),
    )
    .unwrap();
    let truncated = path(&dir, "truncated.xml");
    std::fs::write(&truncated, TruncationAttack::new(0.6).apply(&text)).unwrap();

    for input in [&garbled, &truncated] {
        let (code, lines) = verdict(input, 1);
        assert_eq!(code, Some(3), "{input}: detected but damaged: {lines:?}");
        assert!(
            lines.iter().any(|l| l.starts_with("stream fault:")),
            "{input}: {lines:?}"
        );
        for workers in [2, 3] {
            assert_eq!(
                verdict(input, workers),
                (code, lines.clone()),
                "{input} at --workers {workers}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_parallel_stream_embed_leaves_no_output_file() {
    let dir = scratch_dir("failed-embed");
    let (db, cut, marked, queries) = (
        path(&dir, "db.xml"),
        path(&dir, "cut.xml"),
        path(&dir, "marked.xml"),
        path(&dir, "q.wmxq"),
    );
    generate(&db);
    let text = std::fs::read_to_string(&db).unwrap();
    std::fs::write(&cut, TruncationAttack::new(0.6).apply(&text)).unwrap();
    let out = wmx(&[
        "stream-embed",
        "--profile",
        "publications",
        "--in",
        &cut,
        "--key",
        KEY,
        "--message",
        MESSAGE,
        "--workers",
        "2",
        "--out",
        &marked,
        "--queries",
        &queries,
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(!Path::new(&marked).exists(), "partial output left behind");
    assert!(!Path::new(&format!("{marked}.tmp")).exists());
    let _ = std::fs::remove_dir_all(&dir);
}
