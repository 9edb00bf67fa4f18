//! Per-record embed/detect: the heart of the streaming engine.
//!
//! Each raw record slice is re-parsed into a *mini-document* wrapped in
//! a copy of the root element (so absolute instance paths like
//! `/db/book` resolve), the compiled [`SelectionPlan`] from `wmx-core`
//! runs over it, and every unit goes through the same [`UnitMarker`] the
//! DOM encoder/decoder uses. Unit identities are key-based — never
//! positional — so a unit's selection, bit index, nonce, and whitening
//! are identical whether the unit was found in a 10 GB document or in
//! its own record: that is what makes streaming output bit-for-bit equal
//! to DOM output.
//!
//! The engine is compiled **once per stream** and shared by every
//! record (and every worker thread): the plan is fetched from the
//! process-wide [`wmx_core::PlanCache`], so repeated streams over the
//! same schema reuse one compiled plan, its interned selection
//! vocabulary lets [`wmx_core::UnitKey`]s from different records/batches
//! compare and merge directly, record mini-documents are parsed from a
//! clone of a seeded prototype [`Interner`] (root + binding vocabulary)
//! so their symbol ids stay stable across the whole stream, and identity
//! queries are only constructed for units that actually mark — detection
//! builds none at all. Per-record work does no name lookups and parses
//! no queries: every access step was resolved at plan compile time.

use crate::report::{MarkedQuery, PartialDetect, PartialEmbed};
use crate::{StreamContext, StreamError};
use std::fmt::Write as _;
use std::sync::Arc;
use wmx_core::{
    global_plan_cache, DomNodes, DomNodesMut, MarkUnit, SelectionPlan, StoredQuery, UnitMarker,
    UnitTag, Watermark,
};
use wmx_crypto::SecretKey;
use wmx_rewrite::binding::AttrBinding;
use wmx_xml::serialize::node_to_string_into;
use wmx_xml::token::TokenAttribute;
use wmx_xml::{parse, parse_seeded_owned, Document, Interner, ParseOptions};

/// A compiled streaming engine for one document's root + semantics.
pub(crate) struct RecordEngine<'a> {
    ctx: StreamContext<'a>,
    marker: UnitMarker,
    /// The *effective* watermark: the caller's watermark repeated
    /// `config.redundancy` times when redundancy mode is on, otherwise a
    /// plain copy. Every per-record embed/extract indexes into this.
    watermark: Watermark,
    root_open: String,
    root_close: String,
    /// Compiled selection plan shared across records, batches, and worker
    /// threads (and, through the global cache, across streams with the
    /// same schema). Pre-resolved symbols and pre-compiled access steps
    /// mean per-record execution never touches an interner or a parser.
    plan: Arc<SelectionPlan>,
    /// Seeded prototype symbol table cloned into every record
    /// mini-document: record symbols are stable across the stream.
    prototype: Interner,
}

/// Builds the compact open tag `<name a="v" ...>` from the serializer's
/// own attribute formatting, so streaming/DOM byte parity holds by
/// construction.
pub(crate) fn open_tag(name: &str, attributes: &[TokenAttribute]) -> String {
    let mut out = String::with_capacity(name.len() + 2);
    out.push('<');
    out.push_str(name);
    for attr in attributes {
        out.push_str(&wmx_xml::serialize::attribute_text(&attr.name, &attr.value));
    }
    out.push('>');
    out
}

/// Interns the name-shaped fragments of a path text (step and attribute
/// names) into `proto` — a cheap overapproximation that pre-seeds the
/// vocabulary records will re-use.
fn seed_path_names(proto: &mut Interner, path: &str) {
    for part in path.split(|c: char| !(c.is_alphanumeric() || matches!(c, '_' | '-' | '.'))) {
        if !part.is_empty() && !part.chars().next().is_some_and(|c| c.is_ascii_digit()) {
            proto.intern(part);
        }
    }
}

impl<'a> RecordEngine<'a> {
    /// Creates the engine and validates that the semantic package is
    /// usable under streaming: configuration errors the DOM encoder
    /// would raise are raised here up front (even for empty documents)
    /// by plan compilation, and entities bound to the document root
    /// itself are rejected.
    pub fn new(
        ctx: StreamContext<'a>,
        key: &SecretKey,
        watermark: &'a Watermark,
        root_name: &str,
        root_attributes: &[TokenAttribute],
    ) -> Result<Self, StreamError> {
        let root_open = open_tag(root_name, root_attributes);
        let mut root_close = String::with_capacity(root_name.len() + 3);
        root_close.push_str("</");
        root_close.push_str(root_name);
        root_close.push('>');
        // Binding/config validation (unbound attributes, markable keys…)
        // happens at plan compile time, before any record is seen, so
        // the same errors the DOM encoder would raise surface here.
        let plan = global_plan_cache()
            .get_or_compile(ctx.binding, ctx.fds, ctx.config)
            .map_err(StreamError::Wm)?;
        let mut probe_text = String::with_capacity(root_open.len() + root_close.len());
        probe_text.push_str(&root_open);
        probe_text.push_str(&root_close);
        let probe = parse(&probe_text).map_err(StreamError::Xml)?;
        let probe_root = probe.root_element().expect("probe has a root");
        let mut entity_names: Vec<&str> = ctx
            .config
            .markable
            .iter()
            .map(|m| m.entity.as_str())
            .chain(ctx.config.structural.iter().map(|s| s.entity.as_str()))
            .collect();
        entity_names.sort_unstable();
        entity_names.dedup();
        for name in entity_names {
            if let Some(entity) = ctx.binding.entity(name) {
                let hits_root = entity
                    .instances(&probe)
                    .iter()
                    .any(|n| matches!(n, wmx_xpath::NodeRef::Node(id) if *id == probe_root));
                if hits_root {
                    let mut msg = String::new();
                    let _ = write!(
                        msg,
                        "entity {name:?} is bound to the document root ({}); \
                         record streaming needs instances below the root — use the DOM engine",
                        entity.instance_path
                    );
                    return Err(StreamError::Unsupported(msg));
                }
            }
        }
        // Prototype = the probe's symbols (root + root attributes) plus
        // the binding vocabulary records will mention. Every record's
        // mini-document starts from a clone, so shared names resolve to
        // the same symbol id in every record of the stream.
        let mut prototype = probe.interner().clone();
        for entity in ctx.binding.entities.values() {
            seed_path_names(&mut prototype, &entity.instance_path);
            for attr_binding in entity.attrs.values() {
                match attr_binding {
                    AttrBinding::ChildText(name) | AttrBinding::Attribute(name) => {
                        prototype.intern(name);
                    }
                    AttrBinding::Path(path) => seed_path_names(&mut prototype, path),
                    AttrBinding::SelfText => {}
                }
            }
        }
        let redundancy = ctx.config.redundancy.max(1) as usize;
        let watermark = if redundancy > 1 {
            watermark.repeat(redundancy)
        } else {
            watermark.clone()
        };
        Ok(RecordEngine {
            ctx,
            marker: UnitMarker::new(key.clone()),
            watermark,
            root_open,
            root_close,
            plan,
            prototype,
        })
    }

    /// The compiled plan's interned selection vocabulary — needed to
    /// render forensic unit keys at finalize time.
    pub fn table(&self) -> &wmx_core::SelectionTable {
        self.plan.table()
    }

    /// Parses one raw record slice into its wrapped mini-document.
    fn mini_doc(&self, record_raw: &str) -> Result<Document, StreamError> {
        let mut text =
            String::with_capacity(self.root_open.len() + record_raw.len() + self.root_close.len());
        text.push_str(&self.root_open);
        text.push_str(record_raw);
        text.push_str(&self.root_close);
        // Handing the buffer to the parser (instead of re-borrowing it)
        // lets the lexer back text/attribute spans with the shared input
        // — record values land in the DOM as zero-copy slices.
        parse_seeded_owned(text, ParseOptions::default(), self.prototype.clone())
            .map_err(StreamError::Xml)
    }

    /// Embeds into the record with stream index `index`, appending the
    /// record's serialized bytes to `out`.
    pub fn embed_record_into(
        &self,
        record_raw: &str,
        index: usize,
        partial: &mut PartialEmbed,
        out: &mut String,
    ) -> Result<(), StreamError> {
        let mut mini = self.mini_doc(record_raw)?;
        let units = self.plan.execute(&mini);
        let table = self.plan.table();
        for mut unit in units {
            let is_fd = unit.key.tag == UnitTag::FdGroup;
            let selected = self
                .marker
                .is_selected(&unit.key.id(table), self.ctx.config.gamma);
            if is_fd {
                // One map entry per FD group carries total/selected/
                // marked flags — the key is cloned at most once per
                // worker instead of once per counter set per record.
                let flags = partial.fd_entry(&unit.key);
                flags.selected |= selected;
            } else {
                partial.total_local += 1;
                if selected {
                    partial.selected_local += 1;
                }
            }
            if !selected {
                continue;
            }
            let marked_nodes = self.marker.mark_unit(
                &mut DomNodesMut::new(&mut mini, &unit.nodes),
                &unit.key.id(table),
                unit.mark,
                &self.watermark,
            )?;
            if marked_nodes == 0 {
                continue;
            }
            partial.marked_nodes += marked_nodes;
            // Identity queries (and textual unit ids) exist only for
            // units that actually marked.
            if is_fd {
                let flags = partial.fd_entry(&unit.key);
                if !std::mem::replace(&mut flags.marked, true) {
                    // FD groups recur across records, so theirs are
                    // rendered once, at finalize; the node refs die with
                    // this record.
                    unit.nodes = Vec::new();
                    partial.queries.push((index, MarkedQuery::FdGroup(unit)));
                }
            } else {
                partial.marked_local += 1;
                let stored = self.stored_query(&unit)?;
                partial.queries.push((index, MarkedQuery::Rendered(stored)));
            }
        }
        partial.records += 1;
        partial.peak_resident_nodes = partial.peak_resident_nodes.max(mini.arena_len());
        let root = mini.root_element().expect("mini doc has a root");
        let record_node = mini
            .child_elements(root)
            .next()
            .expect("mini doc wraps exactly one record");
        node_to_string_into(&mini, record_node, out);
        Ok(())
    }

    /// The identity query a marked unit is stored under.
    pub fn stored_query(&self, unit: &MarkUnit) -> Result<StoredQuery, StreamError> {
        let table = self.plan.table();
        let (query, logical) = unit.query_and_logical(table, self.ctx.binding, self.ctx.fds)?;
        Ok(StoredQuery {
            unit_id: unit.key.display(table),
            xpath: query.to_string(),
            logical,
            mark: unit.mark,
        })
    }

    /// Extracts votes from one record.
    pub fn detect_record(
        &self,
        record_raw: &str,
        partial: &mut PartialDetect,
    ) -> Result<(), StreamError> {
        let mini = self.mini_doc(record_raw)?;
        let units = self.plan.execute(&mini);
        let table = self.plan.table();
        let wm_len = self.watermark.len();
        for unit in units {
            if !self
                .marker
                .is_selected(&unit.key.id(table), self.ctx.config.gamma)
            {
                if let Some(tallies) = partial.forensics.as_mut() {
                    tallies.observe_unselected(&unit.key);
                }
                continue;
            }
            let is_fd = unit.key.tag == UnitTag::FdGroup;
            let votes = self.marker.extract_unit(
                &DomNodes::new(&mini, &unit.nodes),
                &unit.key.id(table),
                unit.mark,
                wm_len,
            );
            if let Some(tallies) = partial.forensics.as_mut() {
                tallies.observe(
                    &unit.key,
                    votes.bit_index,
                    self.watermark.bit(votes.bit_index),
                    &votes.bits,
                );
            }
            let located = !votes.bits.is_empty();
            if is_fd {
                // Map presence = selected FD unit; the flag = located.
                let entry = partial.fd_entry(unit.key);
                *entry |= located;
            } else {
                partial.total_local += 1;
                if located {
                    partial.located_local += 1;
                }
            }
            for bit in votes.bits {
                partial.votes_cast += 1;
                partial.bit_votes[votes.bit_index].add(bit);
            }
        }
        partial.records += 1;
        partial.peak_resident_nodes = partial.peak_resident_nodes.max(mini.arena_len());
        Ok(())
    }
}
