//! The timed ops. Each does the work of one `wmx` subcommand, file in to
//! file out, calling the same public functions in the same order as
//! `wmx_cli::commands`, with a trace span around each call.

use std::fs;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use wmx_cli::profile::{resolve, Profile};
use wmx_cli::queryfile;
use wmx_core::{
    detect, detect_forensic, embed, measure_usability, DetectionInput, EncoderConfig,
    ForensicContext, ForensicsReport, Watermark,
};
use wmx_crypto::SecretKey;
use wmx_stream::{ChunkTiming, StreamContext, StreamFault};
use wmx_xml::{parse, to_pretty_string, Document};

use crate::trace::Tracer;

/// The CLI defaults: `--bits 24`, `--threshold 0.85`, `--redundancy 1`.
pub const BITS: usize = 24;
pub const THRESHOLD: f64 = 0.85;

/// What every op is told: the profile and the owner's secrets.
pub struct Params<'a> {
    pub profile: &'a str,
    pub key: &'a str,
    pub message: &'a str,
}

impl Params<'_> {
    fn load(
        &self,
        t: &mut Tracer,
    ) -> Result<(Profile, EncoderConfig, SecretKey, Watermark), String> {
        t.span("cli.args", || {
            let profile = resolve(self.profile).ok_or("unknown profile")?;
            let config = profile.config.clone().with_redundancy(1);
            let key = SecretKey::from_passphrase(self.key);
            let watermark = Watermark::from_message(self.message, BITS);
            Ok((profile, config, key, watermark))
        })
    }
}

/// The result of an embed op that the output checks need.
pub struct EmbedOut {
    /// The DOM engine's marked tree (its compact form is the reference
    /// the stream engines must match byte for byte).
    pub marked: Option<Document>,
    pub total_units: usize,
    pub selected_units: usize,
    pub marked_units: usize,
    pub nodes: usize,
    pub usability_templates: usize,
    pub peak_resident_nodes: usize,
    pub chunk_timings: Vec<ChunkTiming>,
}

/// The result of a detect op that the output checks need.
pub struct DetectOut {
    pub detected: bool,
    pub votes: (usize, usize),
    pub total_queries: usize,
    pub located_queries: usize,
    pub forensics: Option<ForensicsReport>,
    /// Records the stream engines read (`None` for the DOM engine).
    pub records: Option<usize>,
    pub fault: Option<StreamFault>,
    pub chunk_timings: Vec<ChunkTiming>,
}

fn read_text(t: &mut Tracer, path: &Path) -> Result<String, String> {
    t.span("io.read", || fs::read_to_string(path))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write_text(t: &mut Tracer, path: &Path, text: &str) -> Result<(), String> {
    t.span("io.write", || fs::write(path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `wmx embed`.
pub fn dom_embed(
    t: &mut Tracer,
    p: &Params<'_>,
    input: &Path,
    out: &Path,
    queries: &Path,
) -> Result<EmbedOut, String> {
    let (profile, config, key, watermark) = p.load(t)?;
    let text = read_text(t, input)?;
    let original = t
        .span("xml.parse", || parse(&text))
        .map_err(|e| format!("cannot parse: {e}"))?;
    drop(text);
    let issues = t.span("schema.validate", || {
        wmx_schema::validate(&original, &profile.schema)
    });
    if !issues.is_empty() {
        return Err(format!("{} schema issue(s): {}", issues.len(), issues[0]));
    }
    let mut marked = t.span("xml.clone", || original.clone());
    let report = t
        .span("core.embed", || {
            embed(
                &mut marked,
                &profile.binding,
                &profile.fds,
                &config,
                &key,
                &watermark,
            )
        })
        .map_err(|e| format!("embedding failed: {e}"))?;
    let usability = t
        .span("core.usability", || {
            measure_usability(
                &original,
                &profile.binding,
                &marked,
                &profile.binding,
                &profile.templates,
                &config,
            )
        })
        .map_err(|e| format!("usability check failed: {e}"))?;
    let pretty = t.span("xml.serialize", || to_pretty_string(&marked));
    write_text(t, out, &pretty)?;
    let qtext = t.span("cli.queryfile_write", || {
        queryfile::to_string(&report.queries)
    });
    write_text(t, queries, &qtext)?;
    Ok(EmbedOut {
        nodes: original.arena_len(),
        marked: Some(marked),
        total_units: report.total_units,
        selected_units: report.selected_units,
        marked_units: report.marked_units,
        usability_templates: usability.per_template.len(),
        peak_resident_nodes: 0,
        chunk_timings: Vec::new(),
    })
}

/// `wmx detect [--forensics]`.
pub fn dom_detect(
    t: &mut Tracer,
    p: &Params<'_>,
    input: &Path,
    queries: &Path,
    forensic: bool,
) -> Result<DetectOut, String> {
    let (profile, config, key, watermark) = p.load(t)?;
    let text = read_text(t, input)?;
    let doc = t
        .span("xml.parse", || parse(&text))
        .map_err(|e| format!("cannot parse: {e}"))?;
    drop(text);
    let qtext = read_text(t, queries)?;
    let stored = t
        .span("cli.queryfile_read", || queryfile::from_string(&qtext))
        .map_err(|e| e.to_string())?;
    let input = DetectionInput {
        queries: &stored,
        key,
        watermark,
        threshold: THRESHOLD,
        mapping: None,
    };
    let report = if forensic {
        t.span("core.detect_forensic", || {
            detect_forensic(
                &doc,
                &input,
                ForensicContext {
                    binding: &profile.binding,
                    fds: &profile.fds,
                    config: &config,
                },
            )
        })
        .map_err(|e| format!("forensic detection failed: {e}"))?
    } else {
        t.span("core.detect", || detect(&doc, &input))
    };
    Ok(DetectOut {
        detected: report.detected,
        votes: report.vote_totals(),
        total_queries: report.total_queries,
        located_queries: report.located_queries,
        forensics: report.forensics,
        records: None,
        fault: None,
        chunk_timings: Vec::new(),
    })
}

/// `wmx stream-embed --workers N`.
pub fn stream_embed(
    t: &mut Tracer,
    p: &Params<'_>,
    input: &Path,
    out: &Path,
    queries: &Path,
    workers: usize,
) -> Result<EmbedOut, String> {
    let (profile, config, key, watermark) = p.load(t)?;
    let ctx = StreamContext {
        binding: &profile.binding,
        fds: &profile.fds,
        config: &config,
    };
    let report = if workers > 1 {
        let text = read_text(t, input)?;
        let (marked, report) = t
            .span("stream.par_embed", || {
                wmx_stream::par_embed(&text, workers, ctx, &key, &watermark)
            })
            .map_err(|e| format!("streaming embed failed: {e}"))?;
        drop(text);
        write_text(t, out, &marked)?;
        report
    } else {
        let tmp = out.with_extension("tmp");
        let (src, dst) = t.span("io.open", || {
            (fs::File::open(input), fs::File::create(&tmp))
        });
        let src = src.map_err(|e| format!("cannot read {}: {e}", input.display()))?;
        let dst = dst.map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        let report = t
            .span("stream.embed", || {
                wmx_stream::stream_embed(
                    BufReader::new(src),
                    BufWriter::new(dst),
                    ctx,
                    &key,
                    &watermark,
                )
            })
            .map_err(|e| format!("streaming embed failed: {e}"))?;
        t.span("io.write", || fs::rename(&tmp, out))
            .map_err(|e| format!("cannot move {}: {e}", tmp.display()))?;
        report
    };
    let qtext = t.span("cli.queryfile_write", || {
        queryfile::to_string(&report.report.queries)
    });
    write_text(t, queries, &qtext)?;
    Ok(EmbedOut {
        marked: None,
        total_units: report.report.total_units,
        selected_units: report.report.selected_units,
        marked_units: report.report.marked_units,
        nodes: 0,
        usability_templates: 0,
        peak_resident_nodes: report.peak_resident_nodes,
        chunk_timings: report.chunk_timings,
    })
}

/// `wmx stream-detect --workers N [--forensics]`.
pub fn stream_detect(
    t: &mut Tracer,
    p: &Params<'_>,
    input: &Path,
    workers: usize,
    forensic: bool,
) -> Result<DetectOut, String> {
    let (profile, config, key, watermark) = p.load(t)?;
    let ctx = StreamContext {
        binding: &profile.binding,
        fds: &profile.fds,
        config: &config,
    };
    let detection = if workers > 1 {
        let text = read_text(t, input)?;
        if forensic {
            t.span("stream.par_forensic", || {
                wmx_stream::par_detect_forensic(&text, workers, ctx, &key, &watermark, THRESHOLD)
            })
        } else {
            t.span("stream.par_detect", || {
                wmx_stream::par_detect(&text, workers, ctx, &key, &watermark, THRESHOLD)
            })
        }
    } else {
        let src = t
            .span("io.open", || fs::File::open(input))
            .map_err(|e| format!("cannot read {}: {e}", input.display()))?;
        let reader = BufReader::new(src);
        if forensic {
            t.span("stream.detect_forensic", || {
                wmx_stream::stream_detect_forensic(reader, ctx, &key, &watermark, THRESHOLD)
            })
        } else {
            t.span("stream.detect", || {
                wmx_stream::stream_detect(reader, ctx, &key, &watermark, THRESHOLD)
            })
        }
    }
    .map_err(|e| format!("streaming detect failed: {e}"))?;
    Ok(DetectOut {
        detected: detection.report.detected,
        votes: detection.report.vote_totals(),
        total_queries: detection.report.total_queries,
        located_queries: detection.report.located_queries,
        forensics: detection.report.forensics,
        records: Some(detection.records),
        fault: detection.fault,
        chunk_timings: detection.chunk_timings,
    })
}
