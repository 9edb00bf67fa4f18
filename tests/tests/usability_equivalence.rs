//! One-pass usability ≡ per-template reference suite.
//!
//! [`measure_usability`] answers every template over each document in a
//! single pass with borrowed values and a flat truth table. The
//! reference here is the definition it replaces: one
//! [`QueryTemplate::ground_truth`] scan per template per document, then
//! the same tolerance-aware [`multiset_matches`] per key. The two must
//! agree exactly — template order, names, instantiations, correct
//! counts, and the error for an unbound original entity — on:
//!
//! * the publications, jobs and library corpora, marked, and after
//!   alteration, reduction, shuffle, redundancy removal and
//!   reorganization under the new document's own binding (both
//!   directions of each comparison);
//! * adversarial proptest documents: duplicate keys, instances with no
//!   key, repeated multi-valued values, values split across several
//!   text/CDATA nodes (the owned fallback of the borrowed string-value),
//!   and a modified binding that lacks the entity.

use proptest::prelude::*;
use wmx_attacks::redundancy::UnifyStrategy;
use wmx_attacks::{
    AlterationAttack, ReductionAttack, RedundancyRemovalAttack, ReorganizationAttack, ShuffleAttack,
};
use wmx_core::usability::{multiset_matches, TemplateUsability};
use wmx_core::{
    embed, measure_usability, EncoderConfig, MarkableAttr, QueryTemplate, Tolerance,
    UsabilityReport, Watermark, WmError,
};
use wmx_crypto::SecretKey;
use wmx_data::{jobs, library, publications, Dataset};
use wmx_rewrite::binding::{AttrBinding, EntityBinding};
use wmx_rewrite::transform::{FieldPlacement, Layout};
use wmx_rewrite::SchemaBinding;
use wmx_xml::{parse, Document};

/// The definition: a `ground_truth` scan per template per document.
fn reference(
    original: &Document,
    original_binding: &SchemaBinding,
    modified: &Document,
    modified_binding: &SchemaBinding,
    templates: &[QueryTemplate],
    config: &EncoderConfig,
) -> Result<UsabilityReport, WmError> {
    let mut per_template = Vec::new();
    for template in templates {
        let truth = template.ground_truth(original, original_binding)?;
        let after = template.ground_truth(modified, modified_binding).ok();
        let tolerance = config
            .markable_for(&template.entity, &template.result_attr)
            .map_or(&Tolerance::Exact, |m| &m.tolerance);
        let correct = after.map_or(0, |after| {
            truth
                .iter()
                .filter(|(key, expected)| {
                    after
                        .get(*key)
                        .is_some_and(|found| multiset_matches(expected, found, tolerance))
                })
                .count()
        });
        per_template.push(TemplateUsability {
            template: template.name.clone(),
            instantiations: truth.len(),
            correct,
        });
    }
    Ok(UsabilityReport { per_template })
}

/// Asserts the one-pass check equals the reference, in both directions.
fn assert_equivalent(
    label: &str,
    (original, original_binding): (&Document, &SchemaBinding),
    (modified, modified_binding): (&Document, &SchemaBinding),
    templates: &[QueryTemplate],
    config: &EncoderConfig,
) {
    for (a, ab, b, bb, direction) in [
        (
            original,
            original_binding,
            modified,
            modified_binding,
            "forward",
        ),
        (
            modified,
            modified_binding,
            original,
            original_binding,
            "backward",
        ),
    ] {
        assert_eq!(
            measure_usability(a, ab, b, bb, templates, config),
            reference(a, ab, b, bb, templates, config),
            "{label} ({direction}) diverged from the per-template reference"
        );
    }
}

fn datasets() -> Vec<Dataset> {
    vec![
        publications::generate(&publications::PublicationsConfig {
            records: 160,
            editors: 6,
            seed: 91,
            gamma: 2,
        }),
        jobs::generate(&jobs::JobsConfig {
            records: 160,
            companies: 5,
            seed: 92,
            gamma: 2,
        }),
        library::generate(&library::LibraryConfig {
            records: 60,
            image_size: 8,
            seed: 93,
            gamma: 2,
        }),
    ]
}

/// Record path, a numeric value path and a deletable child path per
/// corpus (deleting key children leaves instances without a key).
fn attack_paths(dataset: &Dataset) -> (&'static str, &'static str, &'static str) {
    match dataset.name.as_str() {
        "publications" => ("/db/book", "//book/year", "//book/title"),
        "jobs" => ("/jobs/listing", "//listing/salary", "//listing/location"),
        _ => ("/library/item", "//item/pages", "//item/title"),
    }
}

/// Lays every record out flat under new tag names and returns the new
/// document with its own binding: the key as an attribute, every other
/// attribute as (possibly repeated) child text.
fn flat_reorganization(dataset: &Dataset, doc: &Document) -> (Document, SchemaBinding) {
    let name = &dataset.templates[0].entity;
    let entity = dataset.binding.entity(name).expect("bound");
    let (fields, attrs): (Vec<_>, Vec<_>) = entity
        .attrs
        .keys()
        .map(|attr| {
            let (field, binding) = if *attr == entity.key_attr {
                let tag = format!("k-{attr}");
                (
                    FieldPlacement::Attribute(tag.clone()),
                    AttrBinding::Attribute(tag),
                )
            } else {
                let tag = format!("f-{attr}");
                (
                    FieldPlacement::ChildText(tag.clone()),
                    AttrBinding::ChildText(tag),
                )
            };
            ((attr.clone(), field), (attr.as_str(), binding))
        })
        .unzip();
    let layout = Layout::Flat {
        record_element: "rec".into(),
        fields,
    };
    let reorganized = ReorganizationAttack::new(name, "flat", layout)
        .apply(doc, &dataset.binding)
        .expect("reorganizes");
    let binding = SchemaBinding::new(
        "flat",
        vec![EntityBinding::new(name, "/flat/rec", &entity.key_attr, attrs).expect("flat binding")],
    );
    (reorganized, binding)
}

/// Every corpus, marked and then attacked each way: the one-pass check
/// reports exactly what the per-template scans report.
#[test]
fn corpora_match_the_per_template_reference() {
    let key = SecretKey::from_passphrase("usability-eq");
    let wm = Watermark::from_message("© usability", 24);
    for dataset in datasets() {
        let name = dataset.name.clone();
        let original = (&dataset.doc, &dataset.binding);
        let mut marked = dataset.doc.clone();
        embed(
            &mut marked,
            &dataset.binding,
            &dataset.fds,
            &dataset.config,
            &key,
            &wm,
        )
        .expect("embeds");
        let (records, values, deletable) = attack_paths(&dataset);
        let check = |label: &str, doc: &Document, binding: &SchemaBinding| {
            assert_equivalent(
                &format!("{name}/{label}"),
                original,
                (doc, binding),
                &dataset.templates,
                &dataset.config,
            );
        };
        check("identity", &dataset.doc, &dataset.binding);
        check("marked", &marked, &dataset.binding);

        for (fraction, seed) in [(0.1, 1), (0.6, 2)] {
            let mut altered = marked.clone();
            let mut attack = AlterationAttack::values(fraction, vec![values.into()], seed);
            attack.min_shift = 0; // some shifts stay within tolerance
            attack.max_shift = 3;
            attack.delete_fraction = fraction / 2.0;
            attack.delete_paths = vec![deletable.into()];
            attack.insert_decoys = 3;
            attack.apply(&mut altered);
            check(
                &format!("alteration@{fraction}"),
                &altered,
                &dataset.binding,
            );
        }
        for keep in [0.5, 0.0] {
            let mut reduced = marked.clone();
            ReductionAttack::new(keep, records, 3).apply(&mut reduced);
            check(&format!("reduction@{keep}"), &reduced, &dataset.binding);
        }
        let mut shuffled = marked.clone();
        ShuffleAttack::new(4).apply(&mut shuffled);
        check("shuffle", &shuffled, &dataset.binding);
        let mut unified = marked.clone();
        RedundancyRemovalAttack::new(dataset.fds.clone(), UnifyStrategy::MajorityValue)
            .apply(&mut unified);
        check("redundancy", &unified, &dataset.binding);
        let (flat, flat_binding) = flat_reorganization(&dataset, &marked);
        check("reorganized-flat", &flat, &flat_binding);
        if name == "publications" {
            let db2 = ReorganizationAttack::new("book", "db", publications::db2_layout())
                .apply(&marked, &dataset.binding)
                .expect("reorganizes");
            check("reorganized-db2", &db2, &publications::db2_binding());
        }
    }
}

const TITLES: [&str; 5] = ["A", "B", "C", "", "Dee"];
const NAMES: [&str; 5] = ["x", " x", "x y", "x  y ", "zed"];
const PUBLISHERS: [&str; 3] = ["mkp", "acm", "mkp "];

/// One generated book: indexes into the value pools (`None` = absent
/// element), years, and how each text value is written. The first
/// title is the key: none leaves the book without one, a second is
/// ignored.
#[derive(Debug, Clone)]
struct Book {
    titles: Vec<usize>,
    authors: Vec<usize>,
    years: Vec<i64>,
    publisher: Option<usize>,
    editor: Option<usize>,
    layout: u8,
}

fn book() -> impl Strategy<Value = Book> {
    (
        (
            prop::collection::vec(0usize..TITLES.len(), 0..3),
            prop::collection::vec(0usize..NAMES.len(), 0..4),
            prop::collection::vec(1998i64..2002, 0..3),
        ),
        (
            prop::option::of(0usize..PUBLISHERS.len()),
            prop::option::of(0usize..NAMES.len()),
            any::<u8>(),
        ),
    )
        .prop_map(
            |((titles, authors, years), (publisher, editor, layout))| Book {
                titles,
                authors,
                years,
                publisher,
                editor,
                layout,
            },
        )
}

/// Writes `value` as one text node, one CDATA section, text + CDATA, or
/// text around a comment (the last two take the owned fallback).
fn text(value: &str, mode: u8) -> String {
    let cut = value.len() / 2;
    let (head, tail) = value.split_at(cut);
    match mode % 4 {
        0 => value.to_string(),
        1 => format!("<![CDATA[{value}]]>"),
        2 => format!("{head}<![CDATA[{tail}]]>"),
        _ => format!("{head}<!--split-->{tail}"),
    }
}

/// Renders books under the publications db1 shape. `shift` moves every
/// year and `mode` picks the text layout of every value.
fn render(books: &[Book], shift: i64, mode: u8) -> Document {
    let mut xml = String::from("<db>");
    for (i, b) in books.iter().enumerate() {
        let m = |slot: usize| b.layout.wrapping_add(mode).wrapping_add(slot as u8) ^ (i as u8);
        match b.publisher {
            Some(p) => xml.push_str(&format!("<book publisher=\"{}\">", PUBLISHERS[p])),
            None => xml.push_str("<book>"),
        }
        for (slot, t) in b.titles.iter().enumerate() {
            xml.push_str(&format!("<title>{}</title>", text(TITLES[*t], m(slot + 5))));
        }
        for (slot, a) in b.authors.iter().enumerate() {
            xml.push_str(&format!(
                "<author>{}</author>",
                text(NAMES[*a], m(slot + 1))
            ));
        }
        if let Some(e) = b.editor {
            xml.push_str(&format!("<editor>{}</editor>", text(NAMES[e], m(7))));
        }
        for year in &b.years {
            let year = (year + shift).to_string();
            xml.push_str(&format!("<year>{}</year>", text(&year, m(9))));
        }
        xml.push_str("</book>");
    }
    xml.push_str("</db>");
    parse(&xml).expect("generated document parses")
}

fn adversarial_templates() -> Vec<QueryTemplate> {
    let mut templates = publications::templates();
    templates.push(QueryTemplate::new("title-of", "book", "title"));
    templates.push(QueryTemplate::new("isbn-of", "book", "isbn")); // unbound attribute
    templates
}

fn adversarial_config() -> EncoderConfig {
    EncoderConfig::new(
        1,
        vec![
            MarkableAttr::integer("book", "year", 1),
            MarkableAttr::text("book", "author"),
            MarkableAttr::text("book", "publisher"),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Adversarial documents: the original and a modified copy with
    /// moved years, a different text layout and some books dropped or
    /// redrawn.
    #[test]
    fn adversarial_documents_match_the_reference(
        books in prop::collection::vec(book(), 0..12),
        redrawn in prop::collection::vec(book(), 0..4),
        shift in -2i64..3,
        mode in any::<u8>(),
        keep in 0usize..13,
    ) {
        let binding = publications::binding();
        let original = render(&books, 0, 0);
        let mut changed: Vec<Book> = books.iter().take(keep).cloned().collect();
        changed.extend(redrawn);
        let modified = render(&changed, shift, mode);
        assert_equivalent(
            "adversarial",
            (&original, &binding),
            (&modified, &binding),
            &adversarial_templates(),
            &adversarial_config(),
        );
        // Same records, another layout: only the text layout differs.
        let relaid = render(&books, 0, mode.wrapping_add(1));
        assert_equivalent(
            "adversarial-relaid",
            (&original, &binding),
            (&relaid, &binding),
            &adversarial_templates(),
            &adversarial_config(),
        );
    }
}

/// A modified binding without the entity scores every template 0; an
/// original binding without it is the same error on both sides.
#[test]
fn unbound_entities_match_the_reference() {
    let books = [Book {
        titles: vec![0],
        authors: vec![0, 0, 2],
        years: vec![1999],
        publisher: Some(1),
        editor: None,
        layout: 2,
    }];
    let doc = render(&books, 0, 0);
    let binding = publications::binding();
    let empty = SchemaBinding::new("empty", Vec::new());
    let templates = adversarial_templates();
    let config = adversarial_config();
    let lost = measure_usability(&doc, &binding, &doc, &empty, &templates, &config).unwrap();
    assert!(lost.per_template.iter().all(|t| t.correct == 0));
    assert_eq!(
        Ok(lost),
        reference(&doc, &binding, &doc, &empty, &templates, &config)
    );
    let err = measure_usability(&doc, &empty, &doc, &binding, &templates, &config);
    assert!(err.is_err());
    assert_eq!(
        err,
        reference(&doc, &empty, &doc, &binding, &templates, &config)
    );
}
