//! The streaming driver: one bounded pipeline behind every embed and
//! detect entry point, at every worker count.
//!
//! The calling thread reads the input through [`TopLevelReader`] and
//! cuts the events after the root start into batches of consecutive
//! events. With one worker each batch is worked inline; with more,
//! batches go round-robin to scoped worker threads over bounded
//! channels and are taken back in the same round-robin order, so at
//! most `workers * CHANNEL_DEPTH` batches are in flight. Output bytes
//! and skipped-record indices come out in stream order.
//!
//! Each worker keeps one tally for all its batches, and the tallies
//! merge once the workers are done. Because every per-unit decision
//! (selection, bit index, nonce, whitening) is a pure function of the
//! unit id and the secret key, the thread a record is worked on never
//! changes its result: counts and votes add up, FD-group and forensic
//! tallies merge by unit key, and identity queries carry their record
//! index, so the merged report is that of a sequential pass.

use crate::engine::RecordEngine;
use crate::metrics::stream_metrics;
use crate::reader::{Misc, TopEvent, TopLevelReader};
use crate::report::{ChunkTiming, StreamDetectReport, StreamEmbedReport, StreamFault, Tally};
use crate::{StreamContext, StreamError};
use std::io::{BufRead, Write};
use std::sync::mpsc::sync_channel;
use std::time::Instant;
use wmx_core::{DetectTally, EmbedTally, Watermark, WmError};
use wmx_crypto::SecretKey;
use wmx_xml::escape::escape_text;
use wmx_xml::serialize::{cdata_text, comment_text, pi_text};

/// Records per batch handed to a worker.
const BATCH_RECORDS: usize = 32;
/// Batches in flight per worker.
const CHANNEL_DEPTH: usize = 2;

/// Incremental output writer that reproduces `wmx_xml::to_string` bytes
/// from top-level events. Pre-root comments and PIs wait for the root
/// (the serializer emits `<?xml?>`/`<!DOCTYPE>` before them regardless
/// of input order), and the root open tag is held back until the first
/// visible child so an empty root collapses to `<name/>` exactly like
/// the DOM serializer.
#[derive(Default)]
struct Emitter {
    prolog: Vec<u8>,
    /// The root open tag while it is held back; empty once written.
    root_open: String,
    root_close: Vec<u8>,
}

fn misc_bytes(misc: &Misc) -> String {
    // Each arm delegates to the DOM serializer's own formatting helpers,
    // so byte parity cannot drift.
    match misc {
        Misc::Text(t) => escape_text(t).into_owned(),
        Misc::CData(t) => cdata_text(t),
        Misc::Comment(t) => comment_text(t),
        Misc::Pi { target, data } => pi_text(target, data),
    }
}

/// Writes `pieces` back to back.
fn put(out: &mut impl Write, pieces: &[&[u8]]) -> std::io::Result<()> {
    pieces.iter().try_for_each(|piece| out.write_all(piece))
}

impl Emitter {
    /// Writes one event to `out`; a [`TopEvent::Record`] carries the
    /// record's marked bytes by the time it gets here.
    fn event(&mut self, out: &mut impl Write, ev: &TopEvent) -> std::io::Result<()> {
        if matches!(ev, TopEvent::Record(_) | TopEvent::Misc(_)) {
            // A visible child: the held root open tag goes out first.
            out.write_all(std::mem::take(&mut self.root_open).as_bytes())?;
        }
        match ev {
            TopEvent::XmlDecl(decl) => put(out, &[b"<?xml ", decl.as_bytes(), b"?>"]),
            TopEvent::Doctype(doctype) => put(out, &[b"<!DOCTYPE ", doctype.as_bytes(), b">"]),
            TopEvent::PrologMisc(misc) => self.prolog.write_all(misc_bytes(misc).as_bytes()),
            TopEvent::RootStart { name, open_tag } => {
                self.root_open.clone_from(open_tag);
                self.root_close = [b"</", name.as_bytes(), b">"].concat();
                out.write_all(&self.prolog)
            }
            TopEvent::Record(bytes) => out.write_all(bytes.as_bytes()),
            TopEvent::Misc(misc) | TopEvent::TrailingMisc(misc) => {
                out.write_all(misc_bytes(misc).as_bytes())
            }
            TopEvent::RootEnd if self.root_open.is_empty() => out.write_all(&self.root_close),
            // No visible children: the serializer collapses the root to
            // a self-closing tag.
            TopEvent::RootEnd => {
                let open = std::mem::take(&mut self.root_open);
                put(out, &[&open.as_bytes()[..open.len() - 1], b"/>"])
            }
        }
    }
}

/// Consecutive events after the root start, sent to a worker and sent
/// back worked.
#[derive(Default)]
struct Batch {
    events: Vec<TopEvent>,
    /// Stream index of the batch's first record.
    first_record: usize,
    /// Indices of records whose own bytes failed (tolerant runs).
    skipped: Vec<usize>,
    /// Records worked and the time spent on them.
    timing: ChunkTiming,
}

/// Works every record of `batch` into the worker's `tally`. A failing
/// record is noted in `skipped` when `tolerant`, and otherwise fails
/// the batch.
fn work<T: Tally>(
    engine: &RecordEngine<'_>,
    tolerant: bool,
    tally: &mut T,
    mut batch: Batch,
) -> Result<Batch, StreamError> {
    let start = Instant::now();
    let mut index = batch.first_record;
    for ev in &mut batch.events {
        let TopEvent::Record(raw) = ev else { continue };
        match tally.record(engine, index, raw) {
            Err(_) if tolerant => batch.skipped.push(index),
            result => result?,
        }
        index += 1;
    }
    batch.timing = ChunkTiming {
        records: index - batch.first_record,
        micros: start.elapsed().as_micros(),
    };
    Ok(batch)
}

/// A run's total: worked batches fold in stream order, the workers'
/// tallies once the workers have exited. Until then a tally stays on
/// its worker's thread: when the reading thread freed worker memory
/// while the worker ran, the process heap grew from run to run.
#[derive(Default)]
struct Fold<T> {
    tally: T,
    skipped: Vec<usize>,
    /// One entry per worker: the record work of the batches it took.
    timings: Vec<ChunkTiming>,
    taken: usize,
    /// The stream-level error a tolerant run stopped at.
    fault: Option<StreamError>,
}

impl<T> Fold<T> {
    fn take(
        &mut self,
        worked: Result<Batch, StreamError>,
        emit: &mut Emit<'_>,
    ) -> Result<(), StreamError> {
        let batch = worked?;
        batch.events.iter().try_for_each(emit)?;
        self.skipped.extend(batch.skipped);
        let lane = self.taken % self.timings.len();
        self.timings[lane].records += batch.timing.records;
        self.timings[lane].micros += batch.timing.micros;
        self.taken += 1;
        Ok(())
    }
}

/// Where the driver hands each event, records worked, in stream order.
type Emit<'e> = dyn FnMut(&TopEvent) -> Result<(), StreamError> + 'e;

/// The one driver. Reads `input` on the calling thread, hands every
/// event to `emit`, and returns the engine with the folded run. A
/// `tolerant` run skips failing records and stops at a stream error
/// after the root start with a partial result; a strict run returns the
/// first error in stream order.
#[allow(clippy::too_many_arguments)]
fn drive<'a, T: Tally>(
    input: impl BufRead,
    workers: usize,
    ctx: StreamContext<'a>,
    key: &SecretKey,
    watermark: &Watermark,
    fresh: impl Fn(&RecordEngine<'a>) -> T + Sync,
    tolerant: bool,
    emit: &mut Emit<'_>,
) -> Result<(RecordEngine<'a>, Fold<T>), StreamError> {
    if watermark.is_empty() {
        return Err(WmError::new("watermark must have at least one bit").into());
    }
    let workers = workers.max(1);
    let mut reader = TopLevelReader::new(input);
    // Errors before the root start fail every run: nothing to salvage.
    let engine = loop {
        let ev = reader.next_event()?.ok_or_else(|| {
            StreamError::Unsupported("stream ended before a root element".to_string())
        })?;
        emit(&ev)?;
        if let TopEvent::RootStart { name, open_tag } = &ev {
            break RecordEngine::new(ctx, key, watermark, name, open_tag)?;
        }
    };
    let mut fold = Fold {
        tally: fresh(&engine),
        timings: vec![ChunkTiming::default(); workers],
        ..Fold::default()
    };
    let stream_error = std::thread::scope(|scope| {
        let (engine, fresh) = (&engine, &fresh);
        let threads = if workers > 1 { workers } else { 0 };
        let lanes: Vec<_> = (0..threads)
            .map(|_| {
                let (to_worker, inbox) = sync_channel(CHANNEL_DEPTH);
                let (outbox, from_worker) = sync_channel(CHANNEL_DEPTH);
                let worker = scope.spawn(move || {
                    let mut tally = fresh(engine);
                    // Stops early when the reading thread stops taking.
                    let _ = inbox.iter().try_for_each(|batch| {
                        outbox.send(work(engine, tolerant, &mut tally, batch))
                    });
                    tally
                });
                (to_worker, from_worker, worker)
            })
            .collect();
        let take_next = |fold: &mut Fold<T>, emit: &mut Emit<'_>| {
            let worked = lanes[fold.taken % workers].1.recv();
            fold.take(worked.expect("stream worker panicked"), emit)
        };
        // Works a batch inline, or sends it out and folds the oldest
        // once every lane is full.
        let mut sent = 0usize;
        let mut submit = |batch: Batch, fold: &mut Fold<T>, emit: &mut Emit<'_>| {
            if lanes.is_empty() {
                let worked = work(engine, tolerant, &mut fold.tally, batch);
                return fold.take(worked, emit);
            }
            let sending = lanes[sent % workers].0.send(batch);
            sending.expect("stream worker panicked");
            sent += 1;
            if sent - fold.taken == workers * CHANNEL_DEPTH {
                take_next(fold, emit)?;
            }
            Ok(())
        };
        let mut next = Batch::default();
        let mut records = 0usize;
        let stream_error = loop {
            match reader.next_event() {
                Ok(Some(ev)) => {
                    let is_record = matches!(ev, TopEvent::Record(_));
                    next.events.push(ev);
                    records += usize::from(is_record);
                    if is_record && records - next.first_record == BATCH_RECORDS {
                        let full = std::mem::take(&mut next);
                        next.first_record = records;
                        submit(full, &mut fold, emit)?;
                    }
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        submit(next, &mut fold, emit)?;
        while fold.taken < sent {
            take_next(&mut fold, emit)?;
        }
        for (to_worker, _, worker) in lanes {
            drop(to_worker);
            fold.tally
                .merge(worker.join().expect("stream worker panicked"));
            stream_metrics().merges.inc();
        }
        Ok::<_, StreamError>(stream_error)
    })?;
    match stream_error {
        Some(e) if !tolerant => return Err(e),
        fault => fold.fault = fault,
    }
    for timing in &fold.timings {
        stream_metrics().record_chunk(timing);
    }
    Ok((engine, fold))
}

/// Embeds `watermark` while streaming `input` to `output`, working the
/// records on `workers` threads (inline for one). The output bytes are
/// identical to `wmx_xml::to_string(&dom_embedded)` for the same input,
/// key, and watermark at every worker count; at most
/// `workers * CHANNEL_DEPTH` batches of records are resident at a time.
pub fn embed<R: BufRead, W: Write>(
    input: R,
    output: W,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
) -> Result<StreamEmbedReport, StreamError> {
    let (mut emitter, mut out) = (Emitter::default(), output);
    let emit = &mut |ev: &TopEvent| Ok(emitter.event(&mut out, ev)?);
    let (engine, fold) = drive(
        input,
        workers,
        ctx,
        key,
        watermark,
        |_| EmbedTally::default(),
        false,
        emit,
    )?;
    out.flush()?;
    Ok(StreamEmbedReport {
        records: fold.tally.records(),
        peak_resident_nodes: fold.tally.peak_resident_nodes(),
        report: fold.tally.finalize(engine.pass())?,
        chunk_timings: fold.timings,
    })
}

/// Detects `watermark` in a single pass over `input`, working the
/// records on `workers` threads (inline for one), without a safeguarded
/// query file: units are re-enumerated per record and the keyed PRF
/// re-derives which ones were selected. Votes equal the DOM decoder's
/// votes on the same (un-reorganized) document at every worker count.
///
/// With `forensics` the pass keeps per-unit tallies and is fault
/// tolerant: a stream that breaks once the root element has been seen
/// (truncated file, garbled bytes, I/O error) yields a *partial
/// verdict* over the records processed so far, with a [`StreamFault`]
/// describing what happened, and a record whose own bytes fail to parse
/// is skipped and noted while the scan continues. Errors before the
/// root (or semantic-package errors) still fail hard. Without it the
/// first error in stream order is returned.
pub fn detect<R: BufRead>(
    input: R,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
    forensics: bool,
) -> Result<StreamDetectReport, StreamError> {
    let (engine, fold) = drive(
        input,
        workers,
        ctx,
        key,
        watermark,
        |engine| DetectTally::new(engine.pass(), forensics),
        forensics,
        &mut |_| Ok(()),
    )?;
    let mut report = StreamDetectReport {
        records: fold.tally.records(),
        peak_resident_nodes: fold.tally.peak_resident_nodes(),
        report: fold
            .tally
            .finalize(watermark, threshold, engine.pass().table()),
        chunk_timings: fold.timings,
        fault: None,
    };
    stream_metrics().votes.add(report.report.votes_cast as u64);
    if fold.fault.is_some() || !fold.skipped.is_empty() {
        report.fault = Some(StreamFault {
            records_processed: report.records,
            skipped_records: fold.skipped,
            truncated: matches!(fold.fault, Some(StreamError::Xml(_) | StreamError::Io(_))),
            error: fold
                .fault
                .map_or_else(|| "damaged records skipped".to_string(), |e| e.to_string()),
        });
    }
    Ok(report)
}

/// Sequential [`embed`] (one worker) from a reader to a writer.
pub fn stream_embed<R: BufRead, W: Write>(
    input: R,
    output: W,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
) -> Result<StreamEmbedReport, StreamError> {
    embed(input, output, 1, ctx, key, watermark)
}

/// Parallel [`embed`] over an in-memory document; returns the marked
/// bytes with the report.
pub fn par_embed(
    input: &str,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
) -> Result<(String, StreamEmbedReport), StreamError> {
    let mut out = Vec::with_capacity(input.len());
    let report = embed(input.as_bytes(), &mut out, workers, ctx, key, watermark)?;
    let marked = String::from_utf8(out).expect("serialized XML is UTF-8");
    Ok((marked, report))
}

/// Sequential strict [`detect`] (one worker, no forensics).
pub fn stream_detect<R: BufRead>(
    input: R,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    detect(input, 1, ctx, key, watermark, threshold, false)
}

/// Sequential fault-tolerant [`detect`] with per-unit forensics.
pub fn stream_detect_forensic<R: BufRead>(
    input: R,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    detect(input, 1, ctx, key, watermark, threshold, true)
}

/// Parallel strict [`detect`] over an in-memory document.
pub fn par_detect(
    input: &str,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    let bytes = input.as_bytes();
    detect(bytes, workers, ctx, key, watermark, threshold, false)
}

/// Parallel fault-tolerant [`detect`] with per-unit forensics over an
/// in-memory document.
pub fn par_detect_forensic(
    input: &str,
    workers: usize,
    ctx: StreamContext<'_>,
    key: &SecretKey,
    watermark: &Watermark,
    threshold: f64,
) -> Result<StreamDetectReport, StreamError> {
    let bytes = input.as_bytes();
    detect(bytes, workers, ctx, key, watermark, threshold, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use wmx_core::{EncoderConfig, MarkableAttr};
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    use wmx_rewrite::SchemaBinding;
    use wmx_schema::Fd;

    fn binding() -> SchemaBinding {
        SchemaBinding::new(
            "db1",
            vec![EntityBinding::new(
                "book",
                "/db/book",
                "title",
                vec![
                    ("title", AttrBinding::ChildText("title".into())),
                    ("year", AttrBinding::ChildText("year".into())),
                ],
            )
            .unwrap()],
        )
    }

    fn config() -> EncoderConfig {
        EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)])
    }

    fn doc(n: usize) -> String {
        let mut s = String::from("<db>");
        for i in 0..n {
            s.push_str(&format!(
                "<book><title>B{i}</title><year>{}</year></book>",
                1990 + (i % 7)
            ));
        }
        s.push_str("</db>");
        s
    }

    fn run_embed(input: &str) -> (String, StreamEmbedReport) {
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("drv");
        let wm = Watermark::parse("1011").unwrap();
        let mut out = Vec::new();
        let report = stream_embed(input.as_bytes(), &mut out, ctx, &key, &wm).unwrap();
        (String::from_utf8(out).unwrap(), report)
    }

    #[test]
    fn embed_matches_dom_engine_bytes() {
        let input = doc(40);
        let (stream_out, report) = run_embed(&input);

        let mut dom = wmx_xml::parse(&input).unwrap();
        let binding = binding();
        let dom_report = wmx_core::embed(
            &mut dom,
            &binding,
            &[],
            &config(),
            &SecretKey::from_passphrase("drv"),
            &Watermark::parse("1011").unwrap(),
        )
        .unwrap();
        assert_eq!(stream_out, wmx_xml::to_string(&dom));
        assert_eq!(report.report.total_units, dom_report.total_units);
        assert_eq!(report.report.selected_units, dom_report.selected_units);
        assert_eq!(report.report.marked_units, dom_report.marked_units);
        assert_eq!(report.report.marked_nodes, dom_report.marked_nodes);
        assert_eq!(report.records, 40);
    }

    #[test]
    fn detect_recovers_the_mark_without_queries() {
        let input = doc(60);
        let (marked, _) = run_embed(&input);
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let d = stream_detect(
            marked.as_bytes(),
            ctx,
            &SecretKey::from_passphrase("drv"),
            &Watermark::parse("1011").unwrap(),
            0.85,
        )
        .unwrap();
        assert!(d.report.detected);
        assert_eq!(d.report.match_fraction(), 1.0);
        // Wrong key does not detect.
        let wrong = stream_detect(
            marked.as_bytes(),
            ctx,
            &SecretKey::from_passphrase("oops"),
            &Watermark::parse("1011").unwrap(),
            0.85,
        )
        .unwrap();
        assert!(wrong.report.match_fraction() < 1.0 || !wrong.report.detected);
    }

    #[test]
    fn resident_nodes_stay_bounded() {
        let input = doc(500);
        let (_, sequential) = run_embed(&input);
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("drv");
        let wm = Watermark::parse("1011").unwrap();
        let (_, two_workers) = par_embed(&input, 2, ctx, &key, &wm).unwrap();
        let full = wmx_xml::parse(&input).unwrap().arena_len();
        for report in [sequential, two_workers] {
            assert!(
                report.peak_resident_nodes * 10 < full,
                "streaming kept {} nodes resident vs {} in the DOM",
                report.peak_resident_nodes,
                full
            );
        }
    }

    /// Counts the bytes its source has handed out.
    struct Counted<'a> {
        data: &'a [u8],
        read: Rc<Cell<usize>>,
    }

    impl std::io::Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let start = self.read.get();
            let n = buf.len().min(self.data.len() - start);
            buf[..n].copy_from_slice(&self.data[start..start + n]);
            self.read.set(start + n);
            Ok(n)
        }
    }

    /// Notes how much input had been read at its first write, then ends
    /// the run: nothing after the first write matters here.
    struct FirstWrite {
        read: Rc<Cell<usize>>,
        at: Rc<Cell<Option<usize>>>,
    }

    impl Write for FirstWrite {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.at.set(Some(self.read.get()));
            Err(std::io::Error::other("seen the first write"))
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parallel_embed_writes_before_reading_far() {
        let input = doc(200_000);
        assert!(input.len() >= 8 << 20, "input is {} bytes", input.len());
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let read = Rc::new(Cell::new(0));
        let at = Rc::new(Cell::new(None));
        let source = std::io::BufReader::new(Counted {
            data: input.as_bytes(),
            read: read.clone(),
        });
        let sink = FirstWrite {
            read,
            at: at.clone(),
        };
        let key = SecretKey::from_passphrase("drv");
        let wm = Watermark::parse("1011").unwrap();
        assert!(embed(source, sink, 2, ctx, &key, &wm).is_err());
        let at = at.get().expect("the writer saw a write");
        assert!(at < 1 << 20, "first write after reading {at} bytes");
    }

    #[test]
    fn empty_and_prolog_edge_cases_roundtrip() {
        for input in [
            "<db/>",
            "<?xml version=\"1.0\"?><db/>",
            "<!-- a --><db></db><!-- b -->",
            "<db>text only</db>",
            "<db><![CDATA[x<y]]></db>",
            "<!DOCTYPE db><db><book><title>T</title><year>2000</year></book></db>",
        ] {
            let (out, _) = run_embed(input);
            let mut dom = wmx_xml::parse(input).unwrap();
            wmx_core::embed(
                &mut dom,
                &binding(),
                &[],
                &config(),
                &SecretKey::from_passphrase("drv"),
                &Watermark::parse("1011").unwrap(),
            )
            .unwrap();
            assert_eq!(out, wmx_xml::to_string(&dom), "input {input:?}");
        }
    }

    #[test]
    fn forensic_detect_matches_plain_on_clean_stream() {
        let input = doc(80);
        let (marked, _) = run_embed(&input);
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("drv");
        let wm = Watermark::parse("1011").unwrap();
        let plain = stream_detect(marked.as_bytes(), ctx, &key, &wm, 0.85).unwrap();
        let forensic = stream_detect_forensic(marked.as_bytes(), ctx, &key, &wm, 0.85).unwrap();
        assert_eq!(forensic.report.bit_votes, plain.report.bit_votes);
        assert_eq!(forensic.report.detected, plain.report.detected);
        assert!(forensic.fault.is_none());
        let f = forensic.report.forensics.unwrap();
        assert!(!f.tampered);
        assert_eq!(f.total_units, 80);
    }

    #[test]
    fn truncated_stream_yields_partial_verdict_not_error() {
        let input = doc(100);
        let (marked, _) = run_embed(&input);
        let binding = binding();
        let config = config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("drv");
        let wm = Watermark::parse("1011").unwrap();
        // Chop the marked stream at 60% — mid-record, no closing root.
        let cut = marked.len() * 60 / 100;
        let truncated = &marked[..cut];
        // The strict driver errors...
        assert!(stream_detect(truncated.as_bytes(), ctx, &key, &wm, 0.85).is_err());
        // ...the forensic driver salvages a partial verdict.
        let partial = stream_detect_forensic(truncated.as_bytes(), ctx, &key, &wm, 0.85).unwrap();
        let fault = partial.fault.expect("truncation must be reported");
        assert!(fault.truncated);
        assert!(fault.records_processed > 0 && fault.records_processed < 100);
        assert_eq!(fault.records_processed, partial.records);
        assert!(partial.report.detected, "surviving records still testify");
        let f = partial.report.forensics.unwrap();
        assert!(!f.tampered, "surviving records are clean");
    }

    #[test]
    fn root_bound_entity_is_rejected() {
        let binding = SchemaBinding::new(
            "weird",
            vec![EntityBinding::new(
                "db",
                "/db",
                "title",
                vec![
                    ("title", AttrBinding::Attribute("title".into())),
                    ("year", AttrBinding::ChildText("year".into())),
                ],
            )
            .unwrap()],
        );
        let config = EncoderConfig::new(1, vec![MarkableAttr::integer("db", "year", 1)]);
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let err = stream_embed(
            "<db title=\"t\"><year>2000</year></db>".as_bytes(),
            Vec::new(),
            ctx,
            &SecretKey::from_passphrase("k"),
            &Watermark::parse("1").unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, StreamError::Unsupported(_)), "{err}");
    }

    // The FD-bearing package below exercises cross-batch FD-group
    // merging at several worker counts.

    fn fd_binding() -> SchemaBinding {
        SchemaBinding::new(
            "db1",
            vec![EntityBinding::new(
                "book",
                "/db/book",
                "title",
                vec![
                    ("title", AttrBinding::ChildText("title".into())),
                    ("editor", AttrBinding::ChildText("editor".into())),
                    ("year", AttrBinding::ChildText("year".into())),
                    ("publisher", AttrBinding::Attribute("publisher".into())),
                ],
            )
            .unwrap()],
        )
    }

    fn fd_config() -> EncoderConfig {
        EncoderConfig::new(
            2,
            vec![
                MarkableAttr::integer("book", "year", 1),
                MarkableAttr::text("book", "publisher"),
            ],
        )
    }

    fn fd() -> Fd {
        Fd::new("editor-publisher", "/db/book", &["editor"], &["@publisher"]).unwrap()
    }

    fn fd_doc(n: usize) -> String {
        let mut s = String::from("<db>");
        for i in 0..n {
            s.push_str(&format!(
                "<book publisher=\"pub{}\"><title>B{i}</title><editor>Ed{}</editor><year>{}</year></book>",
                i % 4,
                i % 4,
                1980 + (i % 30)
            ));
        }
        s.push_str("</db>");
        s
    }

    #[test]
    fn parallel_output_equals_sequential_and_dom() {
        let input = fd_doc(120);
        let binding = fd_binding();
        let config = fd_config();
        let fds = [fd()];
        let ctx = StreamContext {
            binding: &binding,
            fds: &fds,
            config: &config,
        };
        let key = SecretKey::from_passphrase("par");
        let wm = Watermark::parse("10110100").unwrap();

        let mut seq_out = Vec::new();
        let seq_report =
            crate::stream_embed(input.as_bytes(), &mut seq_out, ctx, &key, &wm).unwrap();
        let seq_out = String::from_utf8(seq_out).unwrap();

        for workers in [1usize, 2, 4, 7] {
            let (par_out, par_report) = par_embed(&input, workers, ctx, &key, &wm).unwrap();
            assert_eq!(par_out, seq_out, "workers={workers}");
            assert_eq!(
                par_report.report.total_units, seq_report.report.total_units,
                "workers={workers}"
            );
            assert_eq!(
                par_report.report.marked_units, seq_report.report.marked_units,
                "workers={workers}"
            );
            assert_eq!(
                par_report.report.marked_nodes, seq_report.report.marked_nodes,
                "workers={workers}"
            );
        }

        let mut dom = wmx_xml::parse(&input).unwrap();
        wmx_core::embed(&mut dom, &binding, &fds, &config, &key, &wm).unwrap();
        assert_eq!(seq_out, wmx_xml::to_string(&dom));
    }

    #[test]
    fn forensics_are_worker_count_invariant() {
        let input = fd_doc(130);
        let binding = fd_binding();
        let config = fd_config();
        let fds = [fd()];
        let ctx = StreamContext {
            binding: &binding,
            fds: &fds,
            config: &config,
        };
        let key = SecretKey::from_passphrase("par-forensic");
        let wm = Watermark::parse("10110100").unwrap();
        let (marked, _) = par_embed(&input, 4, ctx, &key, &wm).unwrap();
        // Vandalize every 9th year by +7 (odd: guaranteed parity flip)
        // so there is something to localize.
        let mut dom = wmx_xml::parse(&marked).unwrap();
        let years = wmx_xpath::Query::compile("/db/book/year")
            .unwrap()
            .select(&dom);
        for node in years.iter().step_by(9) {
            let v: i64 = node.string_value(&dom).parse().unwrap();
            wmx_core::write_value(&mut dom, node, &(v + 7).to_string()).unwrap();
        }
        let damaged = wmx_xml::to_string(&dom);
        let seq = crate::stream_detect_forensic(damaged.as_bytes(), ctx, &key, &wm, 0.85)
            .unwrap()
            .report
            .forensics
            .unwrap();
        assert!(seq.tampered);
        for workers in [1usize, 2, 3, 5, 8] {
            let par = par_detect_forensic(&damaged, workers, ctx, &key, &wm, 0.85)
                .unwrap()
                .report
                .forensics
                .unwrap();
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn parallel_forensic_skips_garbled_records() {
        let input = fd_doc(90);
        let binding = fd_binding();
        let config = fd_config();
        let ctx = StreamContext {
            binding: &binding,
            fds: &[],
            config: &config,
        };
        let key = SecretKey::from_passphrase("par-skip");
        let wm = Watermark::parse("1011").unwrap();
        let (marked, _) = par_embed(&input, 2, ctx, &key, &wm).unwrap();
        // Truncate mid-stream: the tolerant collector salvages the head.
        let cut = marked.len() * 70 / 100;
        let report = par_detect_forensic(&marked[..cut], 4, ctx, &key, &wm, 0.85).unwrap();
        let fault = report.fault.expect("truncation reported");
        assert!(fault.truncated);
        assert!(report.report.detected);
        // And the partial forensics agree with the sequential salvage.
        let seq =
            crate::stream_detect_forensic(&marked.as_bytes()[..cut], ctx, &key, &wm, 0.85).unwrap();
        assert_eq!(
            report.report.forensics.unwrap(),
            seq.report.forensics.unwrap()
        );
        assert_eq!(report.records, seq.records);
    }

    #[test]
    fn parallel_detect_votes_merge_exactly() {
        let input = fd_doc(150);
        let binding = fd_binding();
        let config = fd_config();
        let fds = [fd()];
        let ctx = StreamContext {
            binding: &binding,
            fds: &fds,
            config: &config,
        };
        let key = SecretKey::from_passphrase("par");
        let wm = Watermark::parse("10110100").unwrap();
        let (marked, _) = par_embed(&input, 4, ctx, &key, &wm).unwrap();

        let seq = crate::stream_detect(marked.as_bytes(), ctx, &key, &wm, 0.85).unwrap();
        assert!(seq.report.detected);
        for workers in [2usize, 3, 8] {
            let par = par_detect(&marked, workers, ctx, &key, &wm, 0.85).unwrap();
            assert_eq!(
                par.report.bit_votes, seq.report.bit_votes,
                "workers={workers}"
            );
            assert_eq!(par.report.votes_cast, seq.report.votes_cast);
            assert_eq!(par.report.matched_bits, seq.report.matched_bits);
            assert!(par.report.detected);
        }
    }
}
