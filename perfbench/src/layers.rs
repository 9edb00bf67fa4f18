//! The traced run and its per-layer metrics.
//!
//! The traced run first makes one untraced pass that releases free heap
//! before every op, for per-op peak memory. It then alternates an
//! untraced iteration with a traced one until the time is up. A traced
//! iteration runs the same ops with a span around each public call,
//! then a set of probes: layer calls the ops make only inside a larger
//! call (plan compile and execute, PRF selection, the top-level reader,
//! batched query answering), and the detect variant the workload's ops
//! do not run (plain detect on `suspect_audit`, forensic detect
//! elsewhere) on the clean marked copy. A layer metric is taken from
//! the ops' spans when the ops make that call, and from the probes'
//! spans otherwise.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use wmx_cli::profile::resolve;
use wmx_core::{global_plan_cache, SelectionPlan, UnitMarker};
use wmx_crypto::SecretKey;
use wmx_stream::{ChunkTiming, TopEvent, TopLevelReader};
use wmx_xpath::{batch_select, Evaluator, Query};

use crate::calib::Calibrator;
use crate::ops;
use crate::trace::Tracer;
use crate::workload::Prepared;
use crate::{median, params, run_iteration, Engine, Iteration, Meter, Metric};

/// Folds a parallel op's chunk timings into the iteration counts: the
/// largest slowest/fastest chunk ratio, and the op's wall time outside
/// its slowest chunk.
pub fn chunk_counts(counts: &mut BTreeMap<&'static str, f64>, timings: &[ChunkTiming], secs: f64) {
    let (Some(min), Some(max)) = (
        timings.iter().map(|t| t.micros).min(),
        timings.iter().map(|t| t.micros).max(),
    ) else {
        return;
    };
    let skew = max as f64 / (min.max(1)) as f64;
    let entry = counts.entry("stream.chunk_skew").or_insert(0.0);
    *entry = entry.max(skew);
    *counts.entry("stream.par_serial_s").or_insert(0.0) += secs - max as f64 / 1e6;
}

/// Layer calls the ops make only inside a larger call, each as its own
/// probe op.
fn probes(t: &mut Tracer, prep: &Prepared, counts: &mut BTreeMap<&'static str, f64>) {
    let profile = resolve(prep.profile).expect("known profile");
    let config = profile.config.clone().with_redundancy(1);

    t.enter("probe.plan");
    let text = t.span("probe.read", || std::fs::read_to_string(&prep.input.path));
    let parse_start = Instant::now();
    let doc = text
        .ok()
        .and_then(|text| t.span("probe.parse", || wmx_xml::parse(&text)).ok());
    let parse_secs = parse_start.elapsed().as_secs_f64();
    if let Some(doc) = &doc {
        counts.insert("xml.parse_mb_s", prep.input.mib / parse_secs);
        let cold = t.span("core.plan_compile", || {
            SelectionPlan::compile(&profile.binding, &profile.fds, &config)
        });
        let units = t.span("core.plan_execute", || {
            global_plan_cache()
                .get_or_compile(&profile.binding, &profile.fds, &config)
                .map(|plan| (plan.execute(doc), plan))
        });
        if let (Ok(_), Ok((units, plan))) = (cold, units) {
            let marker = UnitMarker::new(SecretKey::from_passphrase(&prep.key));
            let table = plan.table();
            let selected = t.span("crypto.select", || {
                units
                    .iter()
                    .filter(|u| marker.is_selected(&u.key.id(table), config.gamma))
                    .count()
            });
            counts.insert("core.units", units.len() as f64);
            counts.insert(
                "crypto.selected_frac",
                selected as f64 / units.len().max(1) as f64,
            );
        }
    }
    drop(doc);
    t.exit();

    t.enter("probe.reader");
    let records = t.span("stream.reader", || -> Result<usize, String> {
        let file = File::open(&prep.input.path).map_err(|e| e.to_string())?;
        let mut reader = TopLevelReader::new(BufReader::new(file));
        let mut records = 0;
        while let Some(ev) = reader.next_event().map_err(|e| e.to_string())? {
            if matches!(ev, TopEvent::Record(_)) {
                records += 1;
            }
        }
        Ok(records)
    });
    if let Ok(n) = records {
        counts.insert("stream.records", n as f64);
    }
    t.exit();

    t.enter("probe.batch");
    let doc = std::fs::read_to_string(&prep.marked)
        .ok()
        .and_then(|text| t.span("probe.parse", || wmx_xml::parse(&text)).ok());
    let stored = std::fs::read_to_string(&prep.queries)
        .ok()
        .and_then(|text| wmx_cli::queryfile::from_string(&text).ok());
    if let (Some(doc), Some(stored)) = (doc, stored) {
        let queries: Vec<Query> = t.span("probe.compile", || {
            stored
                .iter()
                .filter_map(|q| Query::compile(&q.xpath).ok())
                .collect()
        });
        let answered = t.span("xpath.batch_select", || {
            let evaluator = Evaluator::new(&doc);
            batch_select(&evaluator, &queries)
        });
        let batched = answered.iter().filter(|a| a.is_some()).count();
        counts.insert("xpath.queries", queries.len() as f64);
        counts.insert(
            "xpath.batched_frac",
            batched as f64 / queries.len().max(1) as f64,
        );
    }
    t.exit();

    // The detect variant the ops do not run, on the clean marked copy.
    let forensic = !prep.forensic;
    let p = params(prep);
    t.enter("probe.dom_detect");
    if let Ok(d) = ops::dom_detect(t, &p, &prep.marked, &prep.queries, forensic) {
        match &d.forensics {
            Some(f) => {
                *counts.entry("core.suspect_records").or_insert(0.0) += f.suspect_records as f64
            }
            None => {
                counts.insert(
                    "core.located_frac",
                    d.located_queries as f64 / d.total_queries.max(1) as f64,
                );
            }
        }
    }
    t.exit();
    for (root, workers) in [("probe.stream_detect", 1), ("probe.par_detect", 2)] {
        t.enter(root);
        let r = ops::stream_detect(t, &p, &prep.marked, workers, forensic);
        if let (Ok(s), 1, true) = (&r, workers, forensic) {
            *counts.entry("stream.salvaged_records").or_insert(0.0) +=
                s.records.unwrap_or(0) as f64;
            *counts.entry("stream.copy_records").or_insert(0.0) += prep.input.records as f64;
        }
        t.exit();
    }
}

/// Where a per-layer metric is read from.
enum Source {
    /// Seconds in spans of this name, summed over the iteration's ops
    /// (or over its probes, when the ops make no such call).
    Span(&'static str),
    /// A value the iteration counted.
    Count(&'static str),
}

use Source::{Count, Span};

/// Per-layer metrics: name, unit, source.
const LAYERS: &[(&str, &str, Source)] = &[
    ("io.read_s", "s", Span("io.read")),
    ("io.write_s", "s", Span("io.write")),
    ("xml.parse_s", "s", Span("xml.parse")),
    ("xml.parse_mb_s", "MiB/s", Count("xml.parse_mb_s")),
    ("xml.nodes", "count", Count("xml.nodes")),
    ("xml.clone_s", "s", Span("xml.clone")),
    ("xml.serialize_s", "s", Span("xml.serialize")),
    ("schema.validate_s", "s", Span("schema.validate")),
    ("core.plan_compile_s", "s", Span("core.plan_compile")),
    ("core.plan_execute_s", "s", Span("core.plan_execute")),
    ("core.units", "count", Count("core.units")),
    ("crypto.select_s", "s", Span("crypto.select")),
    (
        "crypto.selected_frac",
        "fraction",
        Count("crypto.selected_frac"),
    ),
    ("core.embed_s", "s", Span("core.embed")),
    ("core.marked_units", "count", Count("core.marked_units")),
    ("core.marked_frac", "fraction", Count("core.marked_frac")),
    ("core.embed.plan_s", "s", Span("core.embed>embed.plan")),
    ("core.embed.select_s", "s", Span("core.embed>embed.select")),
    ("core.embed.mark_s", "s", Span("core.embed>embed.mark")),
    ("core.usability_s", "s", Span("core.usability")),
    (
        "core.usability_templates",
        "count",
        Count("core.usability_templates"),
    ),
    ("cli.queryfile_write_s", "s", Span("cli.queryfile_write")),
    ("cli.queryfile_read_s", "s", Span("cli.queryfile_read")),
    ("xpath.batch_select_s", "s", Span("xpath.batch_select")),
    ("xpath.queries", "count", Count("xpath.queries")),
    (
        "xpath.batched_frac",
        "fraction",
        Count("xpath.batched_frac"),
    ),
    ("core.detect_s", "s", Span("core.detect")),
    ("core.located_frac", "fraction", Count("core.located_frac")),
    (
        "core.detect.resolve_s",
        "s",
        Span("core.detect>detect.resolve"),
    ),
    (
        "core.detect.select_s",
        "s",
        Span("core.detect>detect.select"),
    ),
    (
        "core.detect.extract_s",
        "s",
        Span("core.detect>detect.extract"),
    ),
    ("core.detect_forensic_s", "s", Span("core.detect_forensic")),
    (
        "core.suspect_records",
        "count",
        Count("core.suspect_records"),
    ),
    ("stream.reader_s", "s", Span("stream.reader")),
    ("stream.records", "count", Count("stream.records")),
    ("stream.embed_s", "s", Span("stream.embed")),
    ("stream.detect_s", "s", Span("stream.detect")),
    (
        "stream.peak_resident_nodes",
        "count",
        Count("stream.peak_resident_nodes"),
    ),
    ("stream.par_embed_s", "s", Span("stream.par_embed")),
    ("stream.par_detect_s", "s", Span("stream.par_detect")),
    ("stream.par_speedup", "ratio", Count("stream.par_speedup")),
    ("stream.chunk_skew", "ratio", Count("stream.chunk_skew")),
    ("stream.par_serial_s", "s", Count("stream.par_serial_s")),
    (
        "stream.seq_peak_rss_mb",
        "MiB",
        Count("stream.seq_peak_rss_mb"),
    ),
    (
        "stream.par_peak_rss_mb",
        "MiB",
        Count("stream.par_peak_rss_mb"),
    ),
    (
        "stream.detect_forensic_s",
        "s",
        Span("stream.detect_forensic"),
    ),
    (
        "stream.salvaged_frac",
        "fraction",
        Count("stream.salvaged_frac"),
    ),
    ("stream.par_forensic_s", "s", Span("stream.par_forensic")),
    (
        "trace.unattributed_frac",
        "fraction",
        Count("trace.unattributed_frac"),
    ),
    (
        "trace.overhead_frac",
        "fraction",
        Count("trace.overhead_frac"),
    ),
];

/// Sequential over parallel op time in an untraced iteration.
fn par_speedup(it: &Iteration) -> f64 {
    let secs = |engine: Engine| -> f64 {
        it.ops
            .iter()
            .filter(|o| o.engine == engine)
            .map(|o| o.secs)
            .sum()
    };
    secs(Engine::Stream) / secs(Engine::Par)
}

/// Peak memory of the sequential and parallel stream ops, from an
/// iteration that released free heap before every op.
fn stream_peaks(it: &Iteration) -> Vec<(&'static str, f64)> {
    let peak = |engine: Engine| {
        it.ops
            .iter()
            .filter(|o| o.engine == engine)
            .filter_map(|o| o.rss_mb)
            .reduce(f64::max)
    };
    [
        ("stream.seq_peak_rss_mb", peak(Engine::Stream)),
        ("stream.par_peak_rss_mb", peak(Engine::Par)),
    ]
    .into_iter()
    .filter_map(|(name, v)| Some((name, v?)))
    .collect()
}

/// Runs the traced run; returns the untraced and traced iterations, the
/// tracer with every span, and the per-layer metrics.
pub fn traced_run(
    meter: &Meter,
    prep: &Prepared,
    work: &Path,
    start: Instant,
    seconds: f64,
) -> (
    Vec<Iteration>,
    Vec<Iteration>,
    Tracer,
    BTreeMap<String, Metric>,
) {
    let mut traced = Tracer::new(true);
    let mut untraced_iters = Vec::new();
    let mut traced_iters = Vec::new();
    let mut per_iter: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let trimming = Meter {
        cal: Calibrator::new(),
        trim_heap: true,
    };
    let memory_pass = run_iteration(&mut Tracer::new(false), &trimming, prep, work);
    let peaks = stream_peaks(&memory_pass);
    untraced_iters.push(memory_pass);
    while traced_iters.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let plain = run_iteration(&mut Tracer::new(false), meter, prep, work);

        let from = traced.mark();
        let mut it = run_iteration(&mut traced, meter, prep, work);
        let mut counts = std::mem::take(&mut it.counts);
        probes(&mut traced, prep, &mut counts);
        let op_totals = traced.totals_since(from, "op.");
        let probe_totals = traced.totals_since(from, "probe.");
        let (wall, uncovered) = traced.coverage_since(from, "op.");
        counts.insert("trace.unattributed_frac", uncovered / wall);
        counts.insert(
            "trace.overhead_frac",
            (it.op_secs() - plain.op_secs()) / plain.op_secs(),
        );
        counts.insert("stream.par_speedup", par_speedup(&plain));
        counts.extend(peaks.iter().copied());
        if let (Some(salvaged), Some(total)) = (
            counts.get("stream.salvaged_records"),
            counts.get("stream.copy_records"),
        ) {
            let frac = salvaged / total;
            counts.insert("stream.salvaged_frac", frac);
        }

        let mut values = BTreeMap::new();
        for (name, _, source) in LAYERS {
            let value = match source {
                Span(span) => op_totals.get(*span).or(probe_totals.get(*span)).copied(),
                Count(count) => counts.get(count).copied(),
            };
            if let Some(v) = value {
                values.insert(*name, v);
            }
        }
        per_iter.push(values);
        untraced_iters.push(plain);
        traced_iters.push(it);
    }

    let mut metrics = BTreeMap::new();
    for &(name, unit, _) in LAYERS {
        let vals: Vec<f64> = per_iter
            .iter()
            .filter_map(|m| m.get(name).copied())
            .collect();
        if vals.is_empty() {
            eprintln!("perfbench: layer metric {name} was not measured");
            continue;
        }
        metrics.insert(
            name.to_string(),
            Metric {
                value: median(&vals),
                unit,
            },
        );
    }
    (untraced_iters, traced_iters, traced, metrics)
}
