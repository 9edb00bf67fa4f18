//! Per-record embed/detect: the heart of the streaming engine.
//!
//! Each raw record slice is re-parsed into a *mini-document* wrapped in
//! a copy of the root element (so absolute instance paths like
//! `/db/book` resolve), and the [`UnitPass`] from `wmx-core` runs over
//! it — the same pass the DOM encoder runs over a whole document. Unit
//! identities are key-based — never positional — so a unit's selection,
//! bit index, nonce, and whitening are identical whether the unit was
//! found in a 10 GB document or in its own record: that is what makes
//! streaming output bit-for-bit equal to DOM output.
//!
//! The engine is built **once per stream** and shared by every record
//! (and every worker thread): the pass fetches its plan from the
//! process-wide [`wmx_core::PlanCache`], so repeated streams over the
//! same schema reuse one compiled plan, and its interned selection
//! vocabulary lets [`wmx_core::UnitKey`]s from different records/batches
//! compare and merge directly. Each mini-document has its own symbol
//! table; nothing keys on a record's symbol ids across records, since
//! plan execution resolves the compiled access steps against each
//! mini-document by name and parses no queries.

use crate::{StreamContext, StreamError};
use std::fmt::Write as _;
use wmx_core::{DetectTally, EmbedTally, UnitPass, Watermark};
use wmx_crypto::SecretKey;
use wmx_xml::serialize::node_to_string_into;
use wmx_xml::{parse, parse_owned, Document};

/// A compiled streaming engine for one document's root + semantics.
pub(crate) struct RecordEngine<'a> {
    /// The unit pass every record goes through, shared across records,
    /// batches, and worker threads.
    pass: UnitPass<'a>,
    root_open: String,
    root_close: String,
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
        watermark: &Watermark,
        root_name: &str,
        root_open: &str,
    ) -> Result<Self, StreamError> {
        let root_open = root_open.to_string();
        let mut root_close = String::with_capacity(root_name.len() + 3);
        root_close.push_str("</");
        root_close.push_str(root_name);
        root_close.push('>');
        // Binding/config validation (unbound attributes, markable keys…)
        // happens at plan compile time, before any record is seen, so
        // the same errors the DOM encoder would raise surface here.
        let pass = UnitPass::new(ctx.binding, ctx.fds, ctx.config, key, watermark)?;
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
        Ok(RecordEngine {
            pass,
            root_open,
            root_close,
        })
    }

    /// The unit pass the records go through.
    pub fn pass(&self) -> &UnitPass<'a> {
        &self.pass
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
        parse_owned(text).map_err(StreamError::Xml)
    }

    /// Embeds into the record with stream index `index`, appending the
    /// record's serialized bytes to `out`.
    pub fn embed_record_into(
        &self,
        record_raw: &str,
        index: usize,
        tally: &mut EmbedTally,
        out: &mut String,
    ) -> Result<(), StreamError> {
        let mut mini = self.mini_doc(record_raw)?;
        let units = self.pass.plan().execute(&mini);
        self.pass.embed(&mut mini, units, index, tally)?;
        let root = mini.root_element().expect("mini doc has a root");
        let record_node = mini
            .child_elements(root)
            .next()
            .expect("mini doc wraps exactly one record");
        node_to_string_into(&mini, record_node, out);
        Ok(())
    }

    /// Extracts votes from one record.
    pub fn detect_record(
        &self,
        record_raw: &str,
        tally: &mut DetectTally,
    ) -> Result<(), StreamError> {
        let mini = self.mini_doc(record_raw)?;
        self.pass
            .detect(&mini, self.pass.plan().execute(&mini), tally);
        Ok(())
    }
}
