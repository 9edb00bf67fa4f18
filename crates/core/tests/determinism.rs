//! End-to-end determinism of the embed → detect pipeline.
//!
//! WmXML's contract (paper §2.2) is that insertion and detection are
//! pure functions of (document, semantics, key, γ, watermark): the
//! encoder and the detector must *independently* recompute the same PRF
//! decisions. These tests pin that property at the byte level, without
//! any dataset-generator randomness in the loop.

use wmx_core::{
    detect, embed, global_plan_cache, DetectionInput, EncoderConfig, MarkableAttr, UnitMarker,
    UnitTag, Watermark,
};
use wmx_crypto::SecretKey;
use wmx_rewrite::{AttrBinding, EntityBinding, SchemaBinding};
use wmx_schema::Fd;
use wmx_xml::{to_canonical_string, to_string, Document, ElementBuilder};

/// A small publications-style document built without any RNG.
fn fixture_doc(records: usize) -> Document {
    let editors = ["gray", "codd", "date", "ullman"];
    let publishers = ["mkp", "acm", "ieee", "springer"];
    let mut db = ElementBuilder::new("db");
    for i in 0..records {
        let e = i % editors.len();
        db = db.child(
            ElementBuilder::new("book")
                .attr("publisher", publishers[e])
                .leaf("title", format!("Title {i}"))
                .leaf("author", format!("Author {}", i % 7))
                .leaf("editor", editors[e])
                .leaf("year", (1970 + (i * 13) % 35).to_string()),
        );
    }
    db.into_document()
}

fn fixture_binding() -> SchemaBinding {
    SchemaBinding::new(
        "determinism-db1",
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
        .expect("static binding")],
    )
}

fn fixture_fds() -> Vec<Fd> {
    vec![Fd::new("editor-publisher", "/db/book", &["editor"], &["@publisher"]).expect("static fd")]
}

fn fixture_config(gamma: u32) -> EncoderConfig {
    EncoderConfig::new(
        gamma,
        vec![
            MarkableAttr::integer("book", "year", 1),
            MarkableAttr::text("book", "publisher"),
        ],
    )
}

#[test]
fn embedding_twice_is_byte_identical() {
    let key = SecretKey::from_passphrase("determinism-key");
    let wm = Watermark::from_message("deterministic mark", 24);

    let mut first = fixture_doc(80);
    let mut second = fixture_doc(80);
    let report_a = embed(
        &mut first,
        &fixture_binding(),
        &fixture_fds(),
        &fixture_config(2),
        &key,
        &wm,
    )
    .expect("first embed");
    let report_b = embed(
        &mut second,
        &fixture_binding(),
        &fixture_fds(),
        &fixture_config(2),
        &key,
        &wm,
    )
    .expect("second embed");

    assert!(report_a.marked_units > 0, "fixture produced no marks");
    assert_eq!(to_string(&first), to_string(&second), "marked bytes differ");
    assert_eq!(to_canonical_string(&first), to_canonical_string(&second));
    let xpaths_a: Vec<&str> = report_a.queries.iter().map(|q| q.xpath.as_str()).collect();
    let xpaths_b: Vec<&str> = report_b.queries.iter().map(|q| q.xpath.as_str()).collect();
    assert_eq!(xpaths_a, xpaths_b, "query sets differ between runs");
    assert_eq!(report_a.marked_units, report_b.marked_units);
    assert_eq!(report_a.selected_units, report_b.selected_units);
}

#[test]
fn unattacked_detection_has_zero_bit_errors() {
    let key = SecretKey::from_passphrase("determinism-key");
    let wm = Watermark::from_message("deterministic mark", 24);

    let mut marked = fixture_doc(120);
    let report = embed(
        &mut marked,
        &fixture_binding(),
        &fixture_fds(),
        &fixture_config(2),
        &key,
        &wm,
    )
    .expect("embed");

    let detection = detect(
        &marked,
        &DetectionInput {
            queries: &report.queries,
            key,
            watermark: wm,
            threshold: 0.85,
            mapping: None,
        },
    );
    assert!(detection.detected, "untouched marked document not detected");
    assert_eq!(
        detection.matched_bits, detection.voted_bits,
        "bit errors on an unattacked document"
    );
    assert_eq!(detection.match_fraction(), 1.0);
    assert_eq!(
        detection.located_queries, detection.total_queries,
        "some identity queries failed to locate their node"
    );
}

#[test]
fn different_keys_select_different_marks() {
    let wm = Watermark::from_message("deterministic mark", 24);
    let mut with_a = fixture_doc(80);
    let mut with_b = fixture_doc(80);
    embed(
        &mut with_a,
        &fixture_binding(),
        &fixture_fds(),
        &fixture_config(2),
        &SecretKey::from_passphrase("key-a"),
        &wm,
    )
    .expect("embed a");
    embed(
        &mut with_b,
        &fixture_binding(),
        &fixture_fds(),
        &fixture_config(2),
        &SecretKey::from_passphrase("key-b"),
        &wm,
    )
    .expect("embed b");
    assert_ne!(
        to_string(&with_a),
        to_string(&with_b),
        "two distinct keys produced identical marked documents"
    );
}

/// The persisted query set (the `.wmxq` file) lists the marked units in
/// the order the selection plan enumerates them on the original
/// document, FD groups included, and `marked_nodes` counts every value
/// node of those units.
#[test]
fn persisted_queries_follow_plan_order() {
    let key = SecretKey::from_passphrase("determinism-key");
    let wm = Watermark::from_message("deterministic mark", 24);
    let (binding, fds) = (fixture_binding(), fixture_fds());
    for gamma in [1, 2, 3] {
        let config = fixture_config(gamma);
        let original = fixture_doc(80);
        let plan = global_plan_cache()
            .get_or_compile(&binding, &fds, &config)
            .expect("plan compiles");
        let marker = UnitMarker::new(key.clone());
        let selected: Vec<_> = plan
            .execute(&original)
            .into_iter()
            .filter(|u| marker.is_selected(&u.key.id(plan.table()), gamma))
            .collect();
        assert!(
            selected.iter().any(|u| u.key.tag == UnitTag::FdGroup),
            "fixture must select an FD group at gamma {gamma}"
        );

        let mut marked = original.clone();
        let report = embed(&mut marked, &binding, &fds, &config, &key, &wm).expect("embed");
        let expected_ids: Vec<String> = selected
            .iter()
            .map(|u| u.key.display(plan.table()))
            .collect();
        let ids: Vec<&str> = report.queries.iter().map(|q| q.unit_id.as_str()).collect();
        assert_eq!(ids, expected_ids, "query order at gamma {gamma}");
        assert_eq!(report.marked_units, selected.len());
        let nodes: usize = selected.iter().map(|u| u.nodes.len()).sum();
        assert_eq!(report.marked_nodes, nodes, "marked nodes at gamma {gamma}");
    }
}
