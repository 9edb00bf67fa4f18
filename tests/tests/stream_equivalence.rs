//! Equivalence property suite: the streaming engine must be
//! indistinguishable from the DOM engine.
//!
//! * Embed: byte-identical output to `to_string(dom_embedded)` on every
//!   generated corpus (publications, jobs, library), both pretty and
//!   compact inputs, sequential and parallel, plus adversarial documents
//!   (CDATA, mixed content, deep nesting, comments, entities).
//! * Detect: identical per-bit vote tallies and match ratio on marked
//!   corpora, and the stream-produced query set equals the DOM query set
//!   as a set (so either engine's artifacts drive the other's decoder).
//! * Memory: the streaming engine never materializes more than
//!   O(depth + one record) nodes (asserted via the resident-node
//!   high-water mark vs the full DOM arena).

use proptest::prelude::*;
use wmx_attacks::{AlterationAttack, GarbleAttack, GarbleMode, ShuffleAttack, TruncationAttack};
use wmx_core::{
    detect, detect_forensic, embed, DetectionInput, ForensicContext, ForensicsReport, StoredQuery,
    Watermark,
};
use wmx_crypto::SecretKey;
use wmx_data::{jobs, library, publications, Dataset};
use wmx_stream::{
    detect as detect_bytes, par_detect, par_detect_forensic, par_embed, stream_detect,
    stream_detect_forensic, stream_embed, StreamContext,
};
use wmx_xml::{parse, to_pretty_string, to_string};

fn datasets() -> Vec<Dataset> {
    vec![
        publications::generate(&publications::PublicationsConfig {
            records: 220,
            editors: 9,
            seed: 41,
            gamma: 3,
        }),
        jobs::generate(&jobs::JobsConfig {
            records: 220,
            companies: 8,
            seed: 42,
            gamma: 3,
        }),
        library::generate(&library::LibraryConfig {
            records: 120,
            image_size: 12,
            seed: 43,
            gamma: 2,
        }),
    ]
}

fn ctx(dataset: &Dataset) -> StreamContext<'_> {
    StreamContext {
        binding: &dataset.binding,
        fds: &dataset.fds,
        config: &dataset.config,
    }
}

fn key() -> SecretKey {
    SecretKey::from_passphrase("equivalence-key")
}

fn wm() -> Watermark {
    Watermark::from_message("© equivalence", 24)
}

/// DOM reference pipeline for a serialized input: parse → embed →
/// compact serialize.
fn dom_embed_bytes(input: &str, dataset: &Dataset) -> (String, wmx_core::EmbedReport) {
    let mut doc = parse(input).expect("reference parse");
    let report = embed(
        &mut doc,
        &dataset.binding,
        &dataset.fds,
        &dataset.config,
        &key(),
        &wm(),
    )
    .expect("reference embed");
    (to_string(&doc), report)
}

fn query_set(queries: &[StoredQuery]) -> std::collections::BTreeSet<(String, String)> {
    queries
        .iter()
        .map(|q| (q.unit_id.clone(), q.xpath.clone()))
        .collect()
}

#[test]
fn embed_is_byte_identical_on_every_corpus() {
    for dataset in datasets() {
        // Both serialization conventions must stream identically: the
        // CLI generates pretty files, tests often use compact ones.
        for input in [to_string(&dataset.doc), to_pretty_string(&dataset.doc)] {
            let (dom_out, dom_report) = dom_embed_bytes(&input, &dataset);
            let mut stream_out = Vec::new();
            let stream_report = stream_embed(
                input.as_bytes(),
                &mut stream_out,
                ctx(&dataset),
                &key(),
                &wm(),
            )
            .unwrap_or_else(|e| panic!("{}: stream embed failed: {e}", dataset.name));
            assert_eq!(
                String::from_utf8(stream_out).unwrap(),
                dom_out,
                "{}: streaming bytes diverge from DOM bytes",
                dataset.name
            );
            assert_eq!(
                stream_report.report.total_units, dom_report.total_units,
                "{}: total units",
                dataset.name
            );
            assert_eq!(
                stream_report.report.selected_units, dom_report.selected_units,
                "{}: selected units",
                dataset.name
            );
            assert_eq!(
                stream_report.report.marked_units, dom_report.marked_units,
                "{}: marked units",
                dataset.name
            );
            assert_eq!(
                stream_report.report.marked_nodes, dom_report.marked_nodes,
                "{}: marked nodes",
                dataset.name
            );
            assert_eq!(
                query_set(&stream_report.report.queries),
                query_set(&dom_report.queries),
                "{}: safeguarded query sets differ",
                dataset.name
            );
        }
    }
}

#[test]
fn parallel_chunking_is_deterministic() {
    for dataset in datasets() {
        let input = to_string(&dataset.doc);
        let mut seq_out = Vec::new();
        let seq_report =
            stream_embed(input.as_bytes(), &mut seq_out, ctx(&dataset), &key(), &wm()).unwrap();
        let seq_out = String::from_utf8(seq_out).unwrap();
        for workers in [2usize, 3, 8] {
            let (par_out, par_report) =
                par_embed(&input, workers, ctx(&dataset), &key(), &wm()).unwrap();
            assert_eq!(par_out, seq_out, "{} workers={workers}", dataset.name);
            assert_eq!(
                par_report.report.marked_units, seq_report.report.marked_units,
                "{} workers={workers}",
                dataset.name
            );
            assert_eq!(
                query_set(&par_report.report.queries),
                query_set(&seq_report.report.queries),
                "{} workers={workers}",
                dataset.name
            );
        }
    }
}

#[test]
fn detect_votes_and_ratio_match_the_dom_decoder() {
    for dataset in datasets() {
        let input = to_string(&dataset.doc);
        let (marked, dom_report) = dom_embed_bytes(&input, &dataset);

        // DOM decoder over the safeguarded query set.
        let marked_doc = parse(&marked).unwrap();
        let dom_detect = detect(
            &marked_doc,
            &DetectionInput {
                queries: &dom_report.queries,
                key: key(),
                watermark: wm(),
                threshold: 0.85,
                mapping: None,
            },
        );
        assert!(dom_detect.detected, "{}", dataset.name);
        assert_eq!(dom_detect.match_fraction(), 1.0, "{}", dataset.name);

        // Streaming decoder: no query set, same votes.
        let stream = stream_detect(marked.as_bytes(), ctx(&dataset), &key(), &wm(), 0.85)
            .unwrap_or_else(|e| panic!("{}: stream detect failed: {e}", dataset.name));
        assert!(stream.report.detected, "{}", dataset.name);
        assert_eq!(
            stream.report.match_fraction(),
            dom_detect.match_fraction(),
            "{}: match ratio diverges",
            dataset.name
        );
        assert_eq!(
            stream.report.bit_votes, dom_detect.bit_votes,
            "{}: per-bit vote tallies diverge",
            dataset.name
        );
        assert_eq!(
            stream.report.votes_cast, dom_detect.votes_cast,
            "{}",
            dataset.name
        );

        // Parallel detection merges to the same tally.
        let par = par_detect(&marked, 4, ctx(&dataset), &key(), &wm(), 0.85).unwrap();
        assert_eq!(
            par.report.bit_votes, stream.report.bit_votes,
            "{}",
            dataset.name
        );

        // Wrong key: both engines reject.
        let wrong = stream_detect(
            marked.as_bytes(),
            ctx(&dataset),
            &SecretKey::from_passphrase("intruder"),
            &wm(),
            0.85,
        )
        .unwrap();
        assert!(
            !wrong.report.detected,
            "{}: wrong key detected",
            dataset.name
        );
    }
}

#[test]
fn streaming_memory_stays_bounded_by_one_record() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 2000,
        editors: 25,
        seed: 44,
        gamma: 3,
    });
    let input = to_string(&dataset.doc);
    let full_nodes = parse(&input).unwrap().arena_len();
    let mut out = Vec::new();
    let report = stream_embed(input.as_bytes(), &mut out, ctx(&dataset), &key(), &wm()).unwrap();
    assert_eq!(report.records, 2000);
    // O(depth + one record): three orders of magnitude below the DOM.
    assert!(
        report.peak_resident_nodes * 100 < full_nodes,
        "peak resident {} vs full DOM {}",
        report.peak_resident_nodes,
        full_nodes
    );
}

/// A small custom semantic package for hand-written adversarial docs.
fn adversarial_package() -> (wmx_rewrite::SchemaBinding, wmx_core::EncoderConfig) {
    use wmx_core::{EncoderConfig, MarkableAttr};
    use wmx_rewrite::binding::{AttrBinding, EntityBinding};
    let binding = wmx_rewrite::SchemaBinding::new(
        "adv",
        vec![EntityBinding::new(
            "book",
            "/db/book",
            "title",
            vec![
                ("title", AttrBinding::ChildText("title".into())),
                ("year", AttrBinding::ChildText("year".into())),
                ("note", AttrBinding::ChildText("note".into())),
                ("author", AttrBinding::ChildText("author".into())),
            ],
        )
        .unwrap()],
    );
    let config = EncoderConfig::new(
        1,
        vec![
            MarkableAttr::integer("book", "year", 1),
            MarkableAttr::text("book", "note"),
        ],
    )
    .with_structural("book", "author");
    (binding, config)
}

#[test]
fn adversarial_documents_stream_identically() {
    let (binding, config) = adversarial_package();
    let ctx = StreamContext {
        binding: &binding,
        fds: &[],
        config: &config,
    };
    let deep = {
        // Deep nesting inside a record (300 levels) around a marked value.
        let mut s = String::from("<db><book><title>deep</title><year>1998</year><note>n</note>");
        for i in 0..300 {
            s.push_str(&format!("<n{i}>"));
        }
        s.push_str("leaf");
        for i in (0..300).rev() {
            s.push_str(&format!("</n{i}>"));
        }
        s.push_str("</book></db>");
        s
    };
    let cases: Vec<String> = vec![
        // CDATA inside a marked value and at record level.
        "<db><book><title>c1</title><year>2001</year><note><![CDATA[a<b&c]]></note></book>\
         <![CDATA[stray]]></db>"
            .into(),
        // Mixed content between records, comments, PIs, entities.
        "<?xml version=\"1.0\"?><!-- head --><db owner=\"a&amp;b\">intro \
         <book><title>m&amp;m</title><year>1999</year><note>x &lt; y</note></book>\
         <?app run?>outro<!-- mid --></db><!-- tail -->"
            .into(),
        // Multi-author order marks + self-closing records.
        "<db><book><title>o</title><year>2000</year><note>t</note>\
         <author>Zed</author><author>Ann</author></book><marker/>\
         <book><title>p</title><year>2002</year><note>u</note>\
         <author>Bo</author><author>Cy</author></book></db>"
            .into(),
        deep,
        // Unicode content and attribute entities.
        "<db><book lang=\"中文\"><title>Ünïcode – √</title><year>2003</year>\
         <note>naïve &#65;Z</note></book></db>"
            .into(),
    ];
    for input in cases {
        let mut dom = parse(&input).unwrap_or_else(|e| panic!("parse {input:?}: {e}"));
        let dom_report = embed(&mut dom, &binding, &[], &config, &key(), &wm())
            .unwrap_or_else(|e| panic!("dom embed {input:?}: {e}"));
        let dom_out = to_string(&dom);

        let mut stream_out = Vec::new();
        let stream_report = stream_embed(input.as_bytes(), &mut stream_out, ctx, &key(), &wm())
            .unwrap_or_else(|e| panic!("stream embed {input:?}: {e}"));
        assert_eq!(
            String::from_utf8(stream_out).unwrap(),
            dom_out,
            "bytes diverge for {input:?}"
        );
        assert_eq!(
            query_set(&stream_report.report.queries),
            query_set(&dom_report.queries),
            "query sets diverge for {input:?}"
        );

        // Detection parity on the marked bytes.
        let marked_doc = parse(&dom_out).unwrap();
        let dom_detect = detect(
            &marked_doc,
            &DetectionInput {
                queries: &dom_report.queries,
                key: key(),
                watermark: wm(),
                threshold: 0.85,
                mapping: None,
            },
        );
        let stream = stream_detect(dom_out.as_bytes(), ctx, &key(), &wm(), 0.85).unwrap();
        assert_eq!(
            stream.report.bit_votes, dom_detect.bit_votes,
            "votes diverge for {input:?}"
        );
    }
}

/// DOM reference forensics for a (possibly attacked) serialized
/// document.
fn dom_forensics(text: &str, dataset: &Dataset, queries: &[StoredQuery]) -> ForensicsReport {
    let doc = parse(text).expect("attacked document still parses");
    let report = detect_forensic(
        &doc,
        &DetectionInput {
            queries,
            key: key(),
            watermark: wm(),
            threshold: 0.85,
            mapping: None,
        },
        ForensicContext {
            binding: &dataset.binding,
            fds: &dataset.fds,
            config: &dataset.config,
        },
    )
    .expect("forensic detect");
    report.forensics.expect("forensics attached")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// On attacked corpora, the per-record forensics — unit tallies,
    /// statuses, record rollups, the lot — are invariant across the DOM
    /// decoder, the sequential stream decoder, and every parallel
    /// worker count.
    #[test]
    fn forensics_are_engine_and_worker_invariant_on_attacked_corpora(
        seed in 0u64..1000,
        attack in 0usize..3,
    ) {
        let dataset = publications::generate(&publications::PublicationsConfig {
            records: 80,
            editors: 6,
            seed: 4600 + seed,
            gamma: 3,
        });
        let input = to_string(&dataset.doc);
        let (marked, report) = dom_embed_bytes(&input, &dataset);
        let attacked = match attack {
            0 => {
                // Seeded value alteration on the marked year family.
                let mut doc = parse(&marked).unwrap();
                AlterationAttack::values(0.15, vec!["//book/year".to_string()], seed)
                    .apply(&mut doc);
                to_string(&doc)
            }
            1 => {
                // Seeded digit garbling at a seed-dependent offset.
                let offset = 0.2 + (seed % 6) as f64 * 0.1;
                String::from_utf8(
                    GarbleAttack::new(offset, 400, GarbleMode::ScrambleDigits, seed)
                        .apply(&marked),
                )
                .unwrap()
            }
            _ => {
                // Seeded record shuffle: localization is order-free.
                let mut doc = parse(&marked).unwrap();
                ShuffleAttack::new(seed).apply(&mut doc);
                to_string(&doc)
            }
        };

        let reference = dom_forensics(&attacked, &dataset, &report.queries);
        let seq =
            stream_detect_forensic(attacked.as_bytes(), ctx(&dataset), &key(), &wm(), 0.85)
                .unwrap();
        prop_assert!(seq.fault.is_none());
        prop_assert_eq!(seq.report.forensics.as_ref().unwrap(), &reference);
        for workers in [2usize, 3, 5, 8] {
            let par =
                par_detect_forensic(&attacked, workers, ctx(&dataset), &key(), &wm(), 0.85)
                    .unwrap();
            prop_assert!(par.fault.is_none());
            prop_assert_eq!(par.report.forensics.as_ref().unwrap(), &reference);
        }
    }

    /// Truncating the stream at an arbitrary byte yields a partial
    /// verdict over the salvaged prefix — never an error, never a panic
    /// — and the sequential and parallel drivers salvage identically.
    #[test]
    fn truncation_yields_identical_partial_verdicts(keep_pct in 15u32..95) {
        let dataset = publications::generate(&publications::PublicationsConfig {
            records: 100,
            editors: 5,
            seed: 47,
            gamma: 3,
        });
        let input = to_string(&dataset.doc);
        let (marked, _) = dom_embed_bytes(&input, &dataset);
        let cut = TruncationAttack::new(keep_pct as f64 / 100.0).apply(&marked);

        let seq =
            stream_detect_forensic(cut.as_bytes(), ctx(&dataset), &key(), &wm(), 0.85).unwrap();
        let fault = seq.fault.clone().expect("truncation must be reported");
        prop_assert!(fault.truncated);
        prop_assert!(seq.records < 100);
        prop_assert_eq!(fault.records_processed, seq.records);
        for workers in [2usize, 5] {
            let par = par_detect_forensic(&cut, workers, ctx(&dataset), &key(), &wm(), 0.85)
                .unwrap();
            prop_assert_eq!(par.records, seq.records);
            prop_assert_eq!(&par.report.bit_votes, &seq.report.bit_votes);
            prop_assert_eq!(&par.report.forensics, &seq.report.forensics);
            prop_assert!(par.fault.as_ref().is_some_and(|f| f.truncated));
        }
    }

    /// Byte-level damage — a window of invalid UTF-8 at a seeded offset,
    /// or a cut at a seeded byte — read through the byte entry point
    /// salvages the same partial verdict at every worker count: records,
    /// fault, bit votes and forensics all agree, and nothing panics.
    #[test]
    fn damaged_bytes_give_one_verdict_at_every_worker_count(
        seed in 0u64..1000,
        truncate in 0usize..2,
    ) {
        let dataset = publications::generate(&publications::PublicationsConfig {
            records: 100,
            editors: 5,
            seed: 4900 + seed,
            gamma: 3,
        });
        let input = to_string(&dataset.doc);
        let (marked, _) = dom_embed_bytes(&input, &dataset);
        let at = 0.1 + (seed % 85) as f64 / 100.0;
        let damaged = if truncate == 1 {
            TruncationAttack::new(at).apply(&marked).into_bytes()
        } else {
            GarbleAttack::new(at, 64, GarbleMode::InvalidUtf8, seed).apply(&marked)
        };
        let run = |workers: usize| {
            detect_bytes(damaged.as_slice(), workers, ctx(&dataset), &key(), &wm(), 0.85, true)
                .expect("damage after the root start leaves a partial verdict")
        };
        let reference = run(1);
        prop_assert!(reference.fault.is_some());
        for workers in [2usize, 3, 5, 8] {
            let par = run(workers);
            prop_assert_eq!(par.records, reference.records, "workers={}", workers);
            prop_assert_eq!(&par.fault, &reference.fault, "workers={}", workers);
            prop_assert_eq!(&par.report.bit_votes, &reference.report.bit_votes);
            prop_assert_eq!(&par.report.forensics, &reference.report.forensics);
        }
    }
}

/// A reader yielding at most 5 bytes per call: the pull parser must
/// resume across arbitrary buffer boundaries without changing output.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let take = 5usize.min(self.data.len() - self.pos).min(buf.len());
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

#[test]
fn chunked_reads_do_not_change_output() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 40,
        editors: 5,
        seed: 45,
        gamma: 2,
    });
    let input = to_pretty_string(&dataset.doc);
    let mut whole = Vec::new();
    stream_embed(input.as_bytes(), &mut whole, ctx(&dataset), &key(), &wm()).unwrap();
    let mut trickled = Vec::new();
    let src = std::io::BufReader::with_capacity(
        7,
        Trickle {
            data: input.as_bytes(),
            pos: 0,
        },
    );
    stream_embed(src, &mut trickled, ctx(&dataset), &key(), &wm()).unwrap();
    assert_eq!(whole, trickled);
}

/// Invalid UTF-8 ends the stream at the bad byte, not at the start of
/// the read buffer holding it: one slice, `BufReader`s of any capacity
/// and a 5-byte trickle all salvage the records before the damage.
#[test]
fn invalid_utf8_salvage_does_not_depend_on_buffering() {
    let dataset = publications::generate(&publications::PublicationsConfig {
        records: 1500,
        editors: 30,
        seed: 48,
        gamma: 3,
    });
    let input = to_string(&dataset.doc);
    let (marked, _) = dom_embed_bytes(&input, &dataset);
    let garbled = GarbleAttack::new(0.5, 64, GarbleMode::InvalidUtf8, 7).apply(&marked);
    let run = |source: Box<dyn std::io::BufRead + '_>| {
        stream_detect_forensic(source, ctx(&dataset), &key(), &wm(), 0.85)
            .expect("damage after the root start leaves a partial verdict")
    };
    let reference = run(Box::new(garbled.as_slice()));
    assert!(reference.fault.is_some());
    assert!(
        reference.records > 500 && reference.records < 1500,
        "salvaged {} records",
        reference.records
    );
    let buffered = [8 << 10, 64 << 10, 1 << 20].map(|capacity| {
        run(Box::new(std::io::BufReader::with_capacity(
            capacity,
            garbled.as_slice(),
        )))
    });
    let trickled = run(Box::new(std::io::BufReader::new(Trickle {
        data: &garbled,
        pos: 0,
    })));
    for other in buffered.iter().chain([&trickled]) {
        assert_eq!(other.records, reference.records);
        assert_eq!(other.fault, reference.fault);
        assert_eq!(other.report.forensics, reference.report.forensics);
    }
}
