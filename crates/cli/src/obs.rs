//! CLI observability plumbing: `--telemetry-json`, `--audit-log`, and
//! `--trace` handling shared by the embed/detect commands.
//!
//! One [`Obs`] value brackets a command: [`Obs::begin`] enables trace
//! buffering when anything will consume it and pre-registers the
//! canonical metric catalog, [`Obs::finish`] drains the trace into the
//! audit event's per-phase timings, pretty-prints the span tree for
//! `--trace`, appends the audit line, and writes the validated
//! registry snapshot.

use std::path::Path;

use crate::args::Args;
use wmx_telemetry::{
    disable_trace, enable_trace, global, global_snapshot, phase_totals, render_trace, take_trace,
    validate_snapshot, AuditEvent, AuditSink,
};

/// Every metric the instrumented crates can emit, pre-registered (at
/// zero / empty) whenever a snapshot was requested. A single `wmx
/// detect` run exercises only part of the pipeline — a DOM detect
/// compiles no plan and streams no chunks — but consumers of the
/// snapshot still get the full catalog with zero values, the standard
/// metrics-exporter contract. Kept in one place so the README catalog,
/// this list, and the snapshot contents cannot drift apart.
pub const COUNTER_CATALOG: [&str; 17] = [
    "core.plan_cache.hits",
    "core.plan_cache.misses",
    "stream.records",
    "stream.chunks",
    "stream.votes",
    "stream.merges",
    "xpath.batch.calls",
    "xpath.batch.groups",
    "xpath.batch.answered",
    "xpath.batch.fallback",
    "lexer.text_spans_zero_copy",
    "lexer.text_spans_materialized",
    "detect.suspect_units",
    "detect.suspect_records",
    "detect.recovered_units",
    "recovery.repaired_nodes",
    "cli.invocations",
];

/// Histograms: the streaming chunk latencies plus one `span.<name>`
/// histogram per phase span the engines emit.
pub const HISTOGRAM_CATALOG: [&str; 17] = [
    "stream.chunk_micros",
    "span.parse",
    "span.clone",
    "span.serialize",
    "span.embed",
    "span.embed.plan",
    "span.embed.select",
    "span.embed.mark",
    "span.usability",
    "span.detect",
    "span.detect.resolve",
    "span.detect.select",
    "span.detect.extract",
    "span.detect.forensic",
    "span.stream_embed",
    "span.stream_detect",
    "span.recovery.repair",
];

/// Telemetry switches parsed from one command invocation.
#[derive(Debug, Default)]
pub struct Obs {
    telemetry_json: Option<String>,
    audit_log: Option<String>,
    trace: bool,
}

impl Obs {
    /// Reads `--telemetry-json`, `--audit-log`, and `--trace`.
    pub fn from_args(args: &Args) -> Obs {
        Obs {
            telemetry_json: args.optional("telemetry-json").map(str::to_string),
            audit_log: args.optional("audit-log").map(str::to_string),
            trace: args.optional("trace").is_some(),
        }
    }

    /// Arms tracing and warms the metric catalog. Call before the
    /// command does any instrumented work.
    pub fn begin(&self) {
        if self.trace || self.audit_log.is_some() {
            enable_trace();
            take_trace(); // start from a clean thread-local buffer
        }
        if self.telemetry_json.is_some() {
            let registry = global();
            for name in COUNTER_CATALOG {
                registry.counter(name);
            }
            for name in HISTOGRAM_CATALOG {
                registry.histogram(name);
            }
        }
        global().counter("cli.invocations").inc();
    }

    /// Completes the command's telemetry: fills `event.phases` from the
    /// trace, prints the span tree (`--trace`), appends the audit line
    /// (`--audit-log`), and writes the validated snapshot
    /// (`--telemetry-json`).
    pub fn finish(&self, mut event: AuditEvent) -> Result<(), String> {
        if self.trace || self.audit_log.is_some() {
            let events = take_trace();
            disable_trace();
            event.phases = phase_totals(&events)
                .into_iter()
                .map(|(name, micros)| (name.to_string(), micros))
                .collect();
            if self.trace {
                print!("{}", render_trace(&events));
            }
        }
        if let Some(path) = &self.audit_log {
            let sink = AuditSink::append_to(Path::new(path))
                .map_err(|e| format!("cannot open audit log {path}: {e}"))?;
            sink.record(&event)
                .map_err(|e| format!("cannot append to audit log {path}: {e}"))?;
        }
        if let Some(path) = &self.telemetry_json {
            let snapshot = global_snapshot();
            validate_snapshot(&snapshot)
                .map_err(|e| format!("telemetry snapshot failed validation: {e}"))?;
            std::fs::write(path, snapshot.to_pretty_string())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        Ok(())
    }
}
