//! The usability metric.
//!
//! §2.1: "WmXML uses the correctness of query results to measure the
//! usability of XML data. … After watermarking or attacks, if a certain
//! fraction of the results to these query templates are destroyed, the
//! usability of the XML data is regarded destroyed."
//!
//! [`measure_usability`] answers every template instantiation on the
//! original document (ground truth) and on the modified document, and
//! reports the fraction still answered correctly. Comparison respects
//! the owner's declared [tolerances](crate::config::Tolerance): a year
//! moved by ±1 or an image with flipped LSBs still *answers the query
//! correctly* in the owner's terms — that is precisely what makes the
//! watermark imperceptible.
//!
//! Each document is read in **one pass**. One XPath evaluator serves
//! the whole document; every entity's instances are selected once, each
//! instance's key is evaluated once, and every template on that entity
//! is answered in the same loop. Keys and values are borrowed from the
//! document where the string-value is one stored piece (text, a single
//! text/CDATA child, an attribute), so the pass copies no key or value
//! text. The answers land in a flat truth table: per entity a key →
//! slot map, plus one `(template, slot, value)` list sorted and
//! deduplicated, which gives every key the same sorted, unique multiset
//! that [`QueryTemplate::ground_truth`] returns. The two documents'
//! tables are then compared key by key.

use crate::config::{EncoderConfig, Tolerance};
use crate::template::QueryTemplate;
use crate::WmError;
use std::borrow::Cow;
use std::collections::HashMap;
use wmx_rewrite::{EntityBinding, SchemaBinding};
use wmx_xml::Document;
use wmx_xpath::Evaluator;

/// Usability of one template.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateUsability {
    /// Template name.
    pub template: String,
    /// Number of instantiations (distinct key values in the original).
    pub instantiations: usize,
    /// Instantiations still answered correctly.
    pub correct: usize,
}

impl TemplateUsability {
    /// Correct fraction (1.0 for templates with no instantiations).
    pub fn fraction(&self) -> f64 {
        if self.instantiations == 0 {
            1.0
        } else {
            self.correct as f64 / self.instantiations as f64
        }
    }
}

/// Usability report across all templates.
#[derive(Debug, Clone, PartialEq)]
pub struct UsabilityReport {
    /// Per-template results.
    pub per_template: Vec<TemplateUsability>,
}

impl UsabilityReport {
    /// Overall usability: correct instantiations over all instantiations.
    pub fn overall(&self) -> f64 {
        let total: usize = self.per_template.iter().map(|t| t.instantiations).sum();
        let correct: usize = self.per_template.iter().map(|t| t.correct).sum();
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Whether usability clears `threshold` (e.g. 0.9).
    pub fn is_usable(&self, threshold: f64) -> bool {
        self.overall() >= threshold
    }
}

/// Measures usability of `modified` relative to `original`.
///
/// The two documents may live under different schemas (re-organization
/// attack): pass each document's own binding. The tolerance for each
/// template's result attribute is taken from `config` (attributes not
/// declared markable are compared exactly).
///
/// # Errors
/// When `original_binding` does not bind some template's entity. A
/// `modified_binding` that does not bind it scores that template 0
/// (violent restructuring destroys every instantiation).
pub fn measure_usability(
    original: &Document,
    original_binding: &SchemaBinding,
    modified: &Document,
    modified_binding: &SchemaBinding,
    templates: &[QueryTemplate],
    config: &EncoderConfig,
) -> Result<UsabilityReport, WmError> {
    let _span = wmx_telemetry::span("usability");
    if let Some(unbound) = templates
        .iter()
        .find(|t| original_binding.entity(&t.entity).is_none())
    {
        return Err(WmError::new(format!(
            "binding {} does not bind entity {}",
            original_binding.name, unbound.entity
        )));
    }
    let truth = TruthTable::build(original, original_binding, templates);
    let after = TruthTable::build(modified, modified_binding, templates);

    let per_template = templates
        .iter()
        .enumerate()
        .map(|(t, template)| {
            let tolerance = config
                .markable_for(&template.entity, &template.result_attr)
                .map_or(&Tolerance::Exact, |m| &m.tolerance);
            let expected_keys = truth.keys_of(t).expect("entity bound, checked above");
            let correct = after.keys_of(t).map_or(0, |found_keys| {
                expected_keys
                    .iter()
                    .filter(|(key, &slot)| {
                        found_keys.get(key.as_ref()).is_some_and(|&found| {
                            multiset_matches(
                                truth.answers(t, slot),
                                after.answers(t, found),
                                tolerance,
                            )
                        })
                    })
                    .count()
            });
            TemplateUsability {
                template: template.name.clone(),
                instantiations: expected_keys.len(),
                correct,
            }
        })
        .collect();
    Ok(UsabilityReport { per_template })
}

/// One document's answers to every template.
struct TruthTable<'d> {
    /// Per template, the index of its entity's key map in `keys`
    /// (`None` when the binding does not bind the entity).
    entity_of: Vec<Option<usize>>,
    /// Per bound entity, key value → slot. Instances sharing a key share
    /// a slot and so pool their answers, as a rewritten query would.
    keys: Vec<HashMap<Cow<'d, str>, u32>>,
    /// Every answer, sorted and deduplicated.
    rows: Vec<Row<'d>>,
}

/// One answer: template `template` returns `value` for key slot `slot`.
/// Rows order by template, then slot, then value, so each key's answers
/// form one sorted run.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Row<'d> {
    template: u32,
    slot: u32,
    value: Cow<'d, str>,
}

impl AsRef<str> for Row<'_> {
    fn as_ref(&self) -> &str {
        &self.value
    }
}

impl<'d> TruthTable<'d> {
    /// Answers every template over `doc` in one pass per bound entity.
    fn build(doc: &'d Document, binding: &SchemaBinding, templates: &[QueryTemplate]) -> Self {
        let evaluator = Evaluator::new(doc);
        let mut entities: Vec<&EntityBinding> = Vec::new();
        let entity_of: Vec<Option<usize>> = templates
            .iter()
            .map(|template| {
                let entity = binding.entity(&template.entity)?;
                let index = entities
                    .iter()
                    .position(|seen| seen.entity == entity.entity)
                    .unwrap_or_else(|| {
                        entities.push(entity);
                        entities.len() - 1
                    });
                Some(index)
            })
            .collect();

        let mut keys = Vec::with_capacity(entities.len());
        let mut rows: Vec<Row<'d>> = Vec::new();
        for (index, entity) in entities.iter().enumerate() {
            let answered: Vec<(u32, &str)> = templates
                .iter()
                .zip(&entity_of)
                .enumerate()
                .filter(|(_, (_, of))| **of == Some(index))
                .map(|(t, (template, _))| (t as u32, template.result_attr.as_str()))
                .collect();
            let mut slots: HashMap<Cow<'d, str>, u32> = HashMap::new();
            for instance in entity.instances_with(&evaluator) {
                let key_nodes = entity.attr_nodes_with(&evaluator, &instance, &entity.key_attr);
                let Some(key) = key_nodes.first() else {
                    continue;
                };
                let next = slots.len() as u32;
                let slot = *slots.entry(key.string_value_cow(doc)).or_insert(next);
                for &(template, attr) in &answered {
                    for node in entity.attr_nodes_with(&evaluator, &instance, attr) {
                        rows.push(Row {
                            template,
                            slot,
                            value: node.string_value_cow(doc),
                        });
                    }
                }
            }
            keys.push(slots);
        }
        rows.sort_unstable();
        rows.dedup();
        TruthTable {
            entity_of,
            keys,
            rows,
        }
    }

    /// The key → slot map of template `t`'s entity.
    fn keys_of(&self, t: usize) -> Option<&HashMap<Cow<'d, str>, u32>> {
        self.entity_of[t].map(|entity| &self.keys[entity])
    }

    /// Template `t`'s sorted, unique answers for one key slot.
    fn answers(&self, t: usize, slot: u32) -> &[Row<'d>] {
        let id = (t as u32, slot);
        let start = self
            .rows
            .partition_point(|row| (row.template, row.slot) < id);
        let len = self.rows[start..].partition_point(|row| (row.template, row.slot) == id);
        &self.rows[start..start + len]
    }
}

/// Multiset equality under a tolerance: the values can be paired one to
/// one so that every expected value matches its found partner.
///
/// `Exact` compares the sorted lists. The other tolerances are not
/// transitive, so a first-fit pairing can miss a valid one (expected
/// `[10, 11]` vs found `[11, 9]` under ±1); they run augmenting-path
/// bipartite matching instead, which finds a perfect pairing whenever
/// one exists. Value lists are a handful long, so the quadratic
/// tolerance table is cheap.
pub fn multiset_matches<S: AsRef<str>>(expected: &[S], found: &[S], tolerance: &Tolerance) -> bool {
    if expected.len() != found.len() {
        return false;
    }
    // Byte-equal lists match under every tolerance; unmarked and
    // untouched answers all take this path.
    if expected
        .iter()
        .zip(found)
        .all(|(e, f)| e.as_ref() == f.as_ref())
    {
        return true;
    }
    if matches!(tolerance, Tolerance::Exact) {
        let mut expected: Vec<&str> = expected.iter().map(AsRef::as_ref).collect();
        let mut found: Vec<&str> = found.iter().map(AsRef::as_ref).collect();
        expected.sort_unstable();
        found.sort_unstable();
        return expected == found;
    }
    let n = found.len();
    let fits: Vec<bool> = expected
        .iter()
        .flat_map(|e| {
            found
                .iter()
                .map(move |f| tolerance.matches(e.as_ref(), f.as_ref()))
        })
        .collect();
    // partner[j]: the expected value currently paired with found value j.
    let mut partner: Vec<Option<usize>> = vec![None; n];
    (0..n).all(|e| augment(e, &fits, &mut partner, &mut vec![false; n]))
}

/// Kuhn's augmenting step: pairs expected value `e` with a found value,
/// re-pairing earlier expected values along an alternating path.
fn augment(e: usize, fits: &[bool], partner: &mut [Option<usize>], visited: &mut [bool]) -> bool {
    let n = partner.len();
    for f in 0..n {
        if fits[e * n + f] && !visited[f] {
            visited[f] = true;
            if partner[f].is_none_or(|other| augment(other, fits, partner, visited)) {
                partner[f] = Some(e);
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MarkableAttr;
    use wmx_rewrite::binding::paper_db1_binding;
    use wmx_xml::parse;

    fn doc(years: (&str, &str)) -> Document {
        parse(&format!(
            r#"<db>
                <book publisher="mkp"><title>A</title><author>X</author><year>{}</year></book>
                <book publisher="acm"><title>B</title><author>Y</author><year>{}</year></book>
            </db>"#,
            years.0, years.1
        ))
        .unwrap()
    }

    fn config() -> EncoderConfig {
        EncoderConfig::new(1, vec![MarkableAttr::integer("book", "year", 1)])
    }

    fn templates() -> Vec<QueryTemplate> {
        vec![
            QueryTemplate::new("who-wrote", "book", "author"),
            QueryTemplate::new("published-when", "book", "year"),
        ]
    }

    #[test]
    fn identical_documents_are_fully_usable() {
        let a = doc(("1998", "2001"));
        let binding = paper_db1_binding();
        let report =
            measure_usability(&a, &binding, &a, &binding, &templates(), &config()).unwrap();
        assert_eq!(report.overall(), 1.0);
        assert!(report.is_usable(0.99));
    }

    #[test]
    fn tolerated_perturbation_keeps_usability() {
        let a = doc(("1998", "2001"));
        let b = doc(("1999", "2000")); // each year moved by 1
        let binding = paper_db1_binding();
        let report =
            measure_usability(&a, &binding, &b, &binding, &templates(), &config()).unwrap();
        assert_eq!(report.overall(), 1.0);
    }

    #[test]
    fn excess_perturbation_destroys_results() {
        let a = doc(("1998", "2001"));
        let b = doc(("2005", "2001")); // first year moved beyond tolerance
        let binding = paper_db1_binding();
        let report =
            measure_usability(&a, &binding, &b, &binding, &templates(), &config()).unwrap();
        // who-wrote: 2/2 correct; published-when: 1/2 correct.
        assert_eq!(report.overall(), 0.75);
        let yr = report
            .per_template
            .iter()
            .find(|t| t.template == "published-when")
            .unwrap();
        assert_eq!(yr.correct, 1);
        assert_eq!(yr.fraction(), 0.5);
    }

    #[test]
    fn unmarked_attributes_compared_exactly() {
        let a = doc(("1998", "2001"));
        let mut b_doc = doc(("1998", "2001"));
        // Change an author (exact attribute): destroys that instantiation.
        let root = b_doc.root_element().unwrap();
        let book = b_doc.child_elements_named(root, "book").next().unwrap();
        let author = b_doc.first_child_element(book, "author").unwrap();
        b_doc.set_text_content(author, "Z").unwrap();
        let binding = paper_db1_binding();
        let report =
            measure_usability(&a, &binding, &b_doc, &binding, &templates(), &config()).unwrap();
        assert_eq!(report.overall(), 0.75);
    }

    #[test]
    fn missing_records_destroy_instantiations() {
        let a = doc(("1998", "2001"));
        let b = parse(
            r#"<db><book publisher="mkp"><title>A</title><author>X</author><year>1998</year></book></db>"#,
        )
        .unwrap();
        let binding = paper_db1_binding();
        let report =
            measure_usability(&a, &binding, &b, &binding, &templates(), &config()).unwrap();
        assert_eq!(report.overall(), 0.5);
    }

    #[test]
    fn multiset_semantics() {
        let t = Tolerance::Exact;
        assert!(multiset_matches(&["a", "b"], &["b", "a"], &t));
        assert!(!multiset_matches(&["a"], &["a", "a"], &t));
        assert!(!multiset_matches(&["a", "a"], &["a", "b"], &t));
        // Tolerance-based matching consumes each found value once.
        let t = Tolerance::IntegerDelta(1);
        assert!(multiset_matches(&["10", "11"], &["11", "10"], &t));
        assert!(!multiset_matches(&["10", "10"], &["11", "13"], &t));
    }

    #[test]
    fn tolerant_matching_finds_a_pairing_first_fit_misses() {
        // First fit pairs 10 with 11 and strands 11; 10↔9, 11↔11 works.
        let t = Tolerance::IntegerDelta(1);
        assert!(multiset_matches(&["10", "11"], &["11", "9"], &t));
        assert!(multiset_matches(&["1", "2", "3"], &["2", "3", "0"], &t));
        assert!(!multiset_matches(&["1", "2", "3"], &["4", "4", "0"], &t));
        let t = Tolerance::TextWhitespace;
        assert!(multiset_matches(&["a b", "a  b"], &["a b ", " a b"], &t));
        assert!(!multiset_matches(&["a b", "a c"], &["a b ", " a b"], &t));
    }

    #[test]
    fn tolerant_matching_through_measure_usability() {
        // Two authors per book under a ±1 integer tolerance: first fit
        // would score the first book wrong.
        let years = |a: &str, b: &str| {
            parse(&format!(
                r#"<db><book publisher="p"><title>A</title><author>X</author><year>{a}</year><year>{b}</year></book></db>"#
            ))
            .unwrap()
        };
        let binding = paper_db1_binding();
        let report = measure_usability(
            &years("10", "11"),
            &binding,
            &years("11", "9"),
            &binding,
            &templates(),
            &config(),
        )
        .unwrap();
        assert_eq!(report.overall(), 1.0);
    }

    #[test]
    fn unbound_original_entity_is_an_error() {
        let a = doc(("1998", "2001"));
        let binding = paper_db1_binding();
        let journal = vec![QueryTemplate::new("x", "journal", "issue")];
        let err = measure_usability(&a, &binding, &a, &binding, &journal, &config()).unwrap_err();
        assert_eq!(err.message, "binding db1 does not bind entity journal");
    }

    #[test]
    fn totally_destroyed_document_scores_zero() {
        let a = doc(("1998", "2001"));
        let b = parse("<other/>").unwrap();
        let binding = paper_db1_binding();
        let report =
            measure_usability(&a, &binding, &b, &binding, &templates(), &config()).unwrap();
        assert_eq!(report.overall(), 0.0);
        assert!(!report.is_usable(0.5));
    }
}
