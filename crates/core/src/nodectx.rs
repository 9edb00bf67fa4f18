//! The per-unit decision: [`UnitMarker`] marks or reads one unit.
//!
//! Keyed selection, bit assignment, whitening, value marking through
//! the type plug-ins and order marking all happen here, against the
//! unit's value nodes in a [`Document`]. Every engine calls it through
//! [`crate::unitpass::UnitPass`], which runs it over the units a plan
//! enumerates: the DOM pipeline over the whole document, the
//! `wmx-stream` engine over each record's mini-document. The DOM
//! decoder's query-driven path also reads the units its identity
//! queries locate through [`UnitMarker::extract_unit`].

use crate::embed::plugin_for;
use crate::identifier::MarkKind;
use crate::wm::Watermark;
use crate::WmError;
use wmx_crypto::{Prf, PrfInput, SecretKey};
use wmx_xml::{Document, NodeId};
use wmx_xpath::NodeRef;

/// The first two value nodes when they are reorderable siblings —
/// element nodes sharing a parent, so an order mark can be embedded.
fn order_pair(doc: &Document, nodes: &[NodeRef]) -> Option<(NodeId, NodeId)> {
    let (Some(NodeRef::Node(a)), Some(NodeRef::Node(b))) = (nodes.first(), nodes.get(1)) else {
        return None; // attribute-valued or missing: order is meaningless
    };
    (doc.parent(*a).is_some() && doc.parent(*a) == doc.parent(*b)).then_some((*a, *b))
}

/// The votes one unit contributes to detection: whitened bit values for
/// the unit's assigned watermark bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitVotes {
    /// The watermark bit index the unit carries.
    pub bit_index: usize,
    /// One whitened vote per readable node (empty when unreadable).
    pub bits: Vec<bool>,
}

/// The keyed per-unit mark/extract engine every engine shares.
pub struct UnitMarker {
    prf: Prf,
}

impl UnitMarker {
    /// Creates a marker for `key`.
    pub fn new(key: SecretKey) -> Self {
        UnitMarker { prf: Prf::new(key) }
    }

    /// The underlying PRF.
    pub fn prf(&self) -> &Prf {
        &self.prf
    }

    /// Whether the unit is selected at density 1/γ. The unit id may be
    /// any [`PrfInput`] — the persisted `&str` form or the compact
    /// [`crate::identifier::UnitKey`] view; equal byte streams make
    /// equal decisions.
    pub fn is_selected<I: PrfInput + ?Sized>(&self, unit_id: &I, gamma: u32) -> bool {
        self.prf.is_selected(unit_id, gamma)
    }

    /// The physically stored (whitened) bit for the unit.
    pub fn stored_bit<I: PrfInput + ?Sized>(&self, unit_id: &I, watermark: &Watermark) -> bool {
        let index = self.prf.bit_index(unit_id, watermark.len());
        watermark.bit(index) ^ self.prf.whiten_bit(unit_id)
    }

    /// Writes the unit's assigned bit into its value `nodes` in `doc`.
    /// Returns the number of nodes rewritten/reordered (0 when the unit
    /// cannot carry the bit: unmarkable values, equal order values,
    /// non-reorderable nodes).
    pub fn mark_unit<I: PrfInput + ?Sized>(
        &self,
        doc: &mut Document,
        nodes: &[NodeRef],
        unit_id: &I,
        mark: MarkKind,
        watermark: &Watermark,
    ) -> Result<usize, WmError> {
        let bit = self.stored_bit(unit_id, watermark);
        match mark {
            MarkKind::Value(data_type) => {
                let plugin = plugin_for(data_type);
                let nonce = self.prf.value_nonce(unit_id);
                let mut marked = 0usize;
                for node in nodes {
                    let value = node.string_value(doc);
                    if let Some(new_value) = plugin.embed(&value, bit, nonce) {
                        if new_value != value {
                            crate::write_value(doc, node, &new_value)?;
                        }
                        marked += 1;
                    }
                }
                Ok(marked)
            }
            MarkKind::SiblingOrder => {
                let Some((a, b)) = order_pair(doc, nodes) else {
                    return Ok(0);
                };
                let (va, vb) = (doc.text_content(a), doc.text_content(b));
                if va == vb {
                    return Ok(0); // equal values cannot encode an order
                }
                if (va > vb) != bit {
                    // descending = 1
                    let parent = doc.parent(a).expect("order_pair checked the parent");
                    let (Some(ia), Some(ib)) = (doc.child_index(a), doc.child_index(b)) else {
                        return Err(WmError::new("order unit node lost its parent"));
                    };
                    doc.swap_children(parent, ia, ib);
                }
                Ok(2)
            }
        }
    }

    /// Extracts the unit's votes from its value `nodes` in `doc`
    /// (detection side): one whitened bit per readable node, under the
    /// unit's assigned bit index for a watermark of `wm_len` bits.
    pub fn extract_unit<I: PrfInput + ?Sized>(
        &self,
        doc: &Document,
        nodes: &[NodeRef],
        unit_id: &I,
        mark: MarkKind,
        wm_len: usize,
    ) -> UnitVotes {
        let bit_index = self.prf.bit_index(unit_id, wm_len);
        let whiten = self.prf.whiten_bit(unit_id);
        let mut bits = Vec::new();
        match mark {
            MarkKind::Value(data_type) => {
                let plugin = plugin_for(data_type);
                let nonce = self.prf.value_nonce(unit_id);
                for node in nodes {
                    if let Some(raw) = plugin.extract(&node.string_value(doc), nonce) {
                        bits.push(raw ^ whiten);
                    }
                }
            }
            MarkKind::SiblingOrder => {
                if let [a, b, ..] = nodes {
                    let (a, b) = (a.string_value(doc), b.string_value(doc));
                    if a != b {
                        bits.push((a > b) ^ whiten);
                    }
                }
            }
        }
        UnitVotes { bit_index, bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_schema::DataType;
    use wmx_xpath::Query;

    fn doc() -> Document {
        wmx_xml::parse(r#"<db><book p="mkp"><a>Zed</a><a>Ann</a><year>1998</year></book></db>"#)
            .unwrap()
    }

    fn marker() -> UnitMarker {
        UnitMarker::new(SecretKey::from_passphrase("ctx"))
    }

    #[test]
    fn value_mark_roundtrips_through_dom_ctx() {
        let mut d = doc();
        let nodes = Query::compile("/db/book/year").unwrap().select(&d);
        let wm = Watermark::parse("1011").unwrap();
        let m = marker();
        let marked = m
            .mark_unit(
                &mut d,
                &nodes,
                "unit-1",
                MarkKind::Value(DataType::Integer),
                &wm,
            )
            .unwrap();
        assert_eq!(marked, 1);
        let votes = m.extract_unit(
            &d,
            &nodes,
            "unit-1",
            MarkKind::Value(DataType::Integer),
            wm.len(),
        );
        assert_eq!(votes.bits.len(), 1);
        // The whitened vote equals the watermark bit at the unit's index.
        assert_eq!(votes.bits[0], wm.bit(votes.bit_index));
    }

    #[test]
    fn order_mark_swaps_and_extracts() {
        let mut d = doc();
        let nodes = Query::compile("/db/book/a").unwrap().select(&d);
        let wm = Watermark::parse("10").unwrap();
        let m = marker();
        let marked = m
            .mark_unit(&mut d, &nodes, "ord-unit", MarkKind::SiblingOrder, &wm)
            .unwrap();
        assert_eq!(marked, 2);
        // Re-select after the potential swap.
        let nodes = Query::compile("/db/book/a").unwrap().select(&d);
        let votes = m.extract_unit(&d, &nodes, "ord-unit", MarkKind::SiblingOrder, wm.len());
        assert_eq!(votes.bits, vec![wm.bit(votes.bit_index)]);
    }

    #[test]
    fn non_reorderable_units_are_skipped() {
        let mut d = doc();
        // An attribute node and an element node: not reorderable.
        let mut nodes = Query::compile("/db/book/@p").unwrap().select(&d);
        nodes.extend(Query::compile("/db/book/year").unwrap().select(&d));
        let wm = Watermark::parse("1").unwrap();
        let m = marker();
        assert!(order_pair(&d, &nodes).is_none());
        let marked = m
            .mark_unit(&mut d, &nodes, "u", MarkKind::SiblingOrder, &wm)
            .unwrap();
        assert_eq!(marked, 0);
    }

    #[test]
    fn equal_order_values_unmarkable_and_voteless() {
        let mut d = wmx_xml::parse(r#"<db><book><a>Same</a><a>Same</a></book></db>"#).unwrap();
        let nodes = Query::compile("/db/book/a").unwrap().select(&d);
        let m = marker();
        let wm = Watermark::parse("1").unwrap();
        let marked = m
            .mark_unit(&mut d, &nodes, "u", MarkKind::SiblingOrder, &wm)
            .unwrap();
        assert_eq!(marked, 0);
        let votes = m.extract_unit(&d, &nodes, "u", MarkKind::SiblingOrder, 1);
        assert!(votes.bits.is_empty());
    }
}
