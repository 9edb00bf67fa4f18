//! `wmx embed --audit-log` times every phase of the command, including
//! the document clone and the usability check that follow parsing.

use std::process::Command;
use wmx_telemetry::{validate_audit_line, Json};

fn wmx(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_wmx"))
        .args(args)
        .output()
        .expect("wmx runs");
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn embed_audit_line_lists_clone_and_usability_phases() {
    let dir = std::env::temp_dir().join(format!("wmx-cli-embed-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (db, marked, queries, audit) = (
        path("db.xml"),
        path("marked.xml"),
        path("q.wmxq"),
        path("audit.jsonl"),
    );
    wmx(&[
        "generate",
        "--profile",
        "publications",
        "--records",
        "120",
        "--seed",
        "3",
        "--out",
        &db,
    ]);
    wmx(&[
        "embed",
        "--profile",
        "publications",
        "--in",
        &db,
        "--key",
        "audit-secret",
        "--message",
        "© audit",
        "--out",
        &marked,
        "--queries",
        &queries,
        "--audit-log",
        &audit,
    ]);

    let text = std::fs::read_to_string(&audit).expect("audit log written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one audit line per invocation");
    validate_audit_line(lines[0]).expect("valid audit line");
    let event = Json::parse(lines[0]).expect("audit line parses");
    let phases = event.get("phases").expect("phases recorded");
    for phase in ["parse", "clone", "embed", "usability", "serialize"] {
        assert!(
            phases.get(phase).and_then(Json::as_usize).is_some(),
            "embed audit line lacks phase {phase}: {}",
            lines[0]
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
