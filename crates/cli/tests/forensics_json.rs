//! `--forensics json` leaves stdout to the JSON report alone: `detect`
//! and `stream-detect` send their summary and verdict lines to stderr
//! in that mode and keep their exit codes.

use std::path::PathBuf;
use std::process::{Command, Output};
use wmx_attacks::TruncationAttack;
use wmx_telemetry::Json;

const KEY: &str = "json-secret";
const MESSAGE: &str = "© json";

fn wmx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wmx"))
        .args(args)
        .output()
        .expect("wmx runs")
}

/// Parses stdout as one JSON document and checks it is a forensics
/// report; returns stderr for the caller's line checks.
fn json_report(out: &Output) -> String {
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8 stdout");
    let report = Json::parse(&stdout)
        .unwrap_or_else(|e| panic!("stdout is not one JSON document ({e}):\n{stdout}"));
    assert!(report.get("total_units").is_some(), "{stdout}");
    assert!(report.get("tampered").is_some(), "{stdout}");
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn forensics_json_stdout_is_the_report_alone() {
    let dir = std::env::temp_dir().join(format!("wmx-cli-forensics-json-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| -> String {
        let p: PathBuf = dir.join(name);
        p.to_string_lossy().into_owned()
    };
    let (db, marked, queries, cut) = (
        path("db.xml"),
        path("marked.xml"),
        path("q.wmxq"),
        path("cut.xml"),
    );
    let ok = |out: Output| assert!(out.status.success(), "{out:?}");
    ok(wmx(&[
        "generate",
        "--profile",
        "publications",
        "--records",
        "300",
        "--seed",
        "4",
        "--out",
        &db,
    ]));
    ok(wmx(&[
        "embed",
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
    ]));
    let text = std::fs::read_to_string(&marked).unwrap();
    std::fs::write(&cut, TruncationAttack::new(0.6).apply(&text)).unwrap();

    let out = wmx(&[
        "detect",
        "--profile",
        "publications",
        "--in",
        &marked,
        "--key",
        KEY,
        "--message",
        MESSAGE,
        "--queries",
        &queries,
        "--forensics",
        "json",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stderr = json_report(&out);
    assert!(stderr.contains("queries located:"), "{stderr}");
    assert!(stderr.contains("WATERMARK DETECTED"), "{stderr}");

    for workers in ["1", "2"] {
        let stream_detect = |input: &str| {
            wmx(&[
                "stream-detect",
                "--profile",
                "publications",
                "--in",
                input,
                "--key",
                KEY,
                "--message",
                MESSAGE,
                "--workers",
                workers,
                "--forensics",
                "json",
            ])
        };
        let out = stream_detect(&marked);
        assert_eq!(out.status.code(), Some(0), "--workers {workers}: {out:?}");
        let stderr = json_report(&out);
        assert!(stderr.contains("chunks:"), "{stderr}");
        assert!(stderr.contains("units voted:"), "{stderr}");
        assert!(stderr.contains("WATERMARK DETECTED"), "{stderr}");

        // A cut stream salvages a partial verdict: detected but tampered.
        let out = stream_detect(&cut);
        assert_eq!(out.status.code(), Some(3), "--workers {workers}: {out:?}");
        let stderr = json_report(&out);
        assert!(stderr.contains("stream fault:"), "{stderr}");
        assert!(stderr.contains("TAMPERED"), "{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
