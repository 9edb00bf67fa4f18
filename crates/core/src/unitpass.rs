//! The unit pass: plan → select → mark/extract → tally, written once.
//!
//! The paper's §2.2 scheme makes one decision per markable unit: the
//! keyed PRF selects one unit in γ from its id, and a selected unit has
//! its assigned watermark bit written into (or read out of) its value
//! nodes. [`UnitPass`] runs that decision over the units a
//! [`SelectionPlan`] enumerates in one document and folds the outcome
//! into a tally. Every engine runs it: the DOM encoder, the forensic
//! scan and repair run it over the whole document as a single record,
//! and the `wmx-stream` engine runs it over each record's
//! mini-document. Both engines fold their records into the same
//! [`EmbedTally`]/[`DetectTally`] and finalize them through the same
//! code, so DOM and stream reports agree because they are computed by
//! one pass, not only because the equivalence suites check it.
//!
//! The caller executes the plan and hands the units over, so the pass
//! opens no telemetry spans: the DOM encoder keeps its phase spans and
//! the stream's per-record path pays for none.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::config::EncoderConfig;
use crate::decoder::{BitVotes, DetectionReport, VoteCounters};
use crate::encoder::{EmbedReport, StoredQuery};
use crate::forensics::{finalize_forensic_report, ForensicTallies};
use crate::identifier::{MarkUnit, SelectionTable, UnitKey, UnitTag};
use crate::nodectx::UnitMarker;
use crate::plan::{global_plan_cache, SelectionPlan};
use crate::recovery::RepairReport;
use crate::wm::Watermark;
use crate::WmError;
use wmx_crypto::SecretKey;
use wmx_rewrite::SchemaBinding;
use wmx_schema::Fd;
use wmx_xml::Document;

/// One run's unit pass: the cached plan, the keyed marker and the
/// effective watermark, built once and shared by every record (and
/// every worker thread) of the run.
pub struct UnitPass<'a> {
    binding: &'a SchemaBinding,
    fds: &'a [Fd],
    plan: Arc<SelectionPlan>,
    marker: UnitMarker,
    /// The watermark repeated `config.redundancy` times (a plain copy
    /// without redundancy): every unit indexes into this width.
    watermark: Watermark,
}

impl<'a> UnitPass<'a> {
    /// Fetches the compiled plan for `binding`/`fds`/`config` from the
    /// process-wide cache (raising the binding/config errors plan
    /// compilation raises) and keys the marker with `key`.
    pub fn new(
        binding: &'a SchemaBinding,
        fds: &'a [Fd],
        config: &EncoderConfig,
        key: &SecretKey,
        watermark: &Watermark,
    ) -> Result<Self, WmError> {
        Ok(UnitPass {
            binding,
            fds,
            plan: global_plan_cache().get_or_compile(binding, fds, config)?,
            marker: UnitMarker::new(key.clone()),
            // Redundancy mode embeds r back-to-back copies; selection
            // is untouched, each unit just indexes into the wider bit
            // string (see `Watermark::repeat`).
            watermark: watermark.repeat(config.redundancy.max(1) as usize),
        })
    }

    /// The compiled selection plan; executing it yields the units the
    /// pass methods take.
    pub fn plan(&self) -> &SelectionPlan {
        &self.plan
    }

    /// The plan's interned selection vocabulary.
    pub fn table(&self) -> &SelectionTable {
        self.plan.table()
    }

    /// The effective (redundancy-widened) watermark.
    pub fn watermark(&self) -> &Watermark {
        &self.watermark
    }

    /// Embeds into every selected unit of `doc` (the record with stream
    /// index `record`) and tallies it. Only marked units pay for their
    /// identity query and textual unit id.
    pub fn embed(
        &self,
        doc: &mut Document,
        units: Vec<MarkUnit>,
        record: usize,
        tally: &mut EmbedTally,
    ) -> Result<(), WmError> {
        let table = self.plan.table();
        for mut unit in units {
            // Selection feeds the compact key straight into the PRF.
            let selected = self
                .marker
                .is_selected(&unit.key.id(table), self.plan.gamma());
            let is_fd = unit.key.tag == UnitTag::FdGroup;
            if is_fd {
                tally.fd_entry(&unit.key).selected |= selected;
            } else {
                tally.units += 1;
                tally.selected += usize::from(selected);
            }
            if !selected {
                continue;
            }
            let marked_nodes = self.marker.mark_unit(
                doc,
                &unit.nodes,
                &unit.key.id(table),
                unit.mark,
                &self.watermark,
            )?;
            if marked_nodes == 0 {
                continue; // value could not carry the mark (e.g. empty text)
            }
            tally.marked_nodes += marked_nodes;
            if !is_fd {
                tally.marked += 1;
                let stored = StoredQuery::for_unit(&unit, table, self.binding, self.fds)?;
                tally.queries.push((record, MarkedQuery::Rendered(stored)));
            } else if !std::mem::replace(&mut tally.fd_entry(&unit.key).marked, true) {
                // FD groups recur across records, so theirs are rendered
                // once, at finalize; the node refs die with this record.
                unit.nodes = Vec::new();
                tally.queries.push((record, MarkedQuery::FdGroup(unit)));
            }
        }
        tally.record(doc);
        Ok(())
    }

    /// Extracts the votes of every selected unit of `doc` into `tally`,
    /// with per-unit forensic observations when the tally keeps them.
    pub fn detect(&self, doc: &Document, units: Vec<MarkUnit>, tally: &mut DetectTally) {
        let table = self.plan.table();
        for unit in units {
            if !self
                .marker
                .is_selected(&unit.key.id(table), self.plan.gamma())
            {
                if let Some(forensics) = tally.forensics.as_mut() {
                    forensics.observe_unselected(&unit.key);
                }
                continue;
            }
            let votes = self.marker.extract_unit(
                doc,
                &unit.nodes,
                &unit.key.id(table),
                unit.mark,
                self.watermark.len(),
            );
            if let Some(forensics) = tally.forensics.as_mut() {
                let expected = self.watermark.bit(votes.bit_index);
                forensics.observe(&unit.key, votes.bit_index, expected, &votes.bits);
            }
            let located = !votes.bits.is_empty();
            if unit.key.tag == UnitTag::FdGroup {
                // Map presence = selected FD unit; the flag = located.
                *tally.fd_located.entry(unit.key).or_default() |= located;
            } else {
                tally.units += 1;
                tally.located += usize::from(located);
            }
            tally.votes_cast += votes.bits.len();
            for bit in votes.bits {
                tally.bit_votes[votes.bit_index].add(bit);
            }
        }
        tally.record(doc);
    }

    /// Re-embeds the expected bit into every *suspect* selected unit of
    /// `doc` — one whose votes contradict the expected bit, or that
    /// yields none. Clean and unselected units are only read.
    pub fn repair(
        &self,
        doc: &mut Document,
        units: Vec<MarkUnit>,
        report: &mut RepairReport,
    ) -> Result<(), WmError> {
        let table = self.plan.table();
        for unit in units {
            let id = unit.key.id(table);
            if !self.marker.is_selected(&id, self.plan.gamma()) {
                continue;
            }
            let votes =
                self.marker
                    .extract_unit(doc, &unit.nodes, &id, unit.mark, self.watermark.len());
            let expected = self.watermark.bit(votes.bit_index);
            if !votes.bits.is_empty() && votes.bits.iter().all(|&b| b == expected) {
                continue;
            }
            report.suspect_units += 1;
            match self
                .marker
                .mark_unit(doc, &unit.nodes, &id, unit.mark, &self.watermark)?
            {
                0 => report.unrecoverable_units += 1,
                nodes => {
                    report.repaired_units += 1;
                    report.repaired_nodes += nodes;
                }
            }
        }
        Ok(())
    }
}

/// Per-FD-group embed state. Presence in the map means the group was
/// enumerated.
#[derive(Debug, Clone, Copy, Default)]
struct FdEmbedFlags {
    /// The PRF selected the group.
    selected: bool,
    /// Some record carried the mark into the group.
    marked: bool,
}

/// A marked unit's identity query.
#[derive(Debug)]
enum MarkedQuery {
    /// A key or order unit's query, rendered where it was marked.
    Rendered(StoredQuery),
    /// An FD group, rendered once at finalize.
    FdGroup(MarkUnit),
}

/// The embed side of the pass, accumulated over records and merged
/// across workers.
///
/// Key-identified and order units are local to one record, so their
/// counters add up. FD-redundancy groups span records (every member of
/// `editor → publisher` carries the same mark wherever it lives), so
/// they are tracked in one [`UnitKey`]-keyed flag map whose merge ORs
/// the flags — reproducing exactly the counts of one whole-document
/// pass. Keys are interned symbol tuples, stable across workers, so no
/// unit-id string is built or cloned on the merge path.
#[derive(Debug, Default)]
pub struct EmbedTally {
    records: usize,
    peak_resident_nodes: usize,
    /// Key and order units enumerated, selected, and marked (FD groups
    /// are counted from `fd_flags`).
    units: usize,
    selected: usize,
    marked: usize,
    marked_nodes: usize,
    /// Identity queries of the marked units, each with the stream index
    /// of its record, in discovery order.
    queries: Vec<(usize, MarkedQuery)>,
    fd_flags: BTreeMap<UnitKey, FdEmbedFlags>,
}

impl EmbedTally {
    /// Records (documents) passed through.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The largest node arena of any record passed through.
    pub fn peak_resident_nodes(&self) -> usize {
        self.peak_resident_nodes
    }

    fn record(&mut self, doc: &Document) {
        self.records += 1;
        self.peak_resident_nodes = self.peak_resident_nodes.max(doc.arena_len());
    }

    /// The flag entry for an FD group, created on first sight (the only
    /// point the key is cloned by this tally).
    fn fd_entry(&mut self, key: &UnitKey) -> &mut FdEmbedFlags {
        if !self.fd_flags.contains_key(key) {
            self.fd_flags.insert(key.clone(), FdEmbedFlags::default());
        }
        self.fd_flags.get_mut(key).expect("inserted above")
    }

    /// Folds another worker's tally into this one.
    pub fn merge(&mut self, other: EmbedTally) {
        self.records += other.records;
        self.peak_resident_nodes = self.peak_resident_nodes.max(other.peak_resident_nodes);
        self.units += other.units;
        self.selected += other.selected;
        self.marked += other.marked;
        self.marked_nodes += other.marked_nodes;
        self.queries.extend(other.queries);
        for (key, flags) in other.fd_flags {
            let mine = self.fd_flags.entry(key).or_default();
            mine.selected |= flags.selected;
            mine.marked |= flags.marked;
        }
    }

    /// The embedding report: queries in stream order, each FD group
    /// once (where the stream first marked it), rendered under `pass`.
    pub fn finalize(mut self, pass: &UnitPass<'_>) -> Result<EmbedReport, WmError> {
        // Stable: queries of one record keep their discovery order.
        self.queries.sort_by_key(|(record, _)| *record);
        let mut seen_fd = BTreeSet::new();
        let mut queries = Vec::with_capacity(self.queries.len());
        for (_, query) in self.queries {
            match query {
                MarkedQuery::Rendered(stored) => queries.push(stored),
                MarkedQuery::FdGroup(unit) if seen_fd.insert(unit.key.clone()) => {
                    let table = pass.table();
                    queries.push(StoredQuery::for_unit(&unit, table, pass.binding, pass.fds)?);
                }
                MarkedQuery::FdGroup(_) => {} // marked again by another worker
            }
        }
        let fd_selected = self.fd_flags.values().filter(|f| f.selected).count();
        let fd_marked = self.fd_flags.values().filter(|f| f.marked).count();
        Ok(EmbedReport {
            total_units: self.units + self.fd_flags.len(),
            selected_units: self.selected + fd_selected,
            marked_units: self.marked + fd_marked,
            marked_nodes: self.marked_nodes,
            queries,
        })
    }
}

/// The detect side of the pass, accumulated over records and merged
/// across workers: per-bit votes, located counts (FD groups by key, as
/// in [`EmbedTally`]) and, when asked for, per-unit forensic tallies.
#[derive(Debug, Default)]
pub struct DetectTally {
    records: usize,
    peak_resident_nodes: usize,
    bit_votes: Vec<BitVotes>,
    votes_cast: usize,
    /// Selected key and order units, and those that yielded a vote.
    units: usize,
    located: usize,
    /// Selected FD groups → whether any record located votes for them.
    fd_located: BTreeMap<UnitKey, bool>,
    /// Per-unit forensic tallies (`None` keeps the default path free of
    /// them).
    forensics: Option<ForensicTallies>,
}

impl DetectTally {
    /// An empty tally as wide as `pass`'s effective watermark, with
    /// forensic tallies when `forensics` is set.
    pub fn new(pass: &UnitPass<'_>, forensics: bool) -> Self {
        DetectTally {
            bit_votes: vec![BitVotes::default(); pass.watermark.len()],
            forensics: forensics.then(ForensicTallies::new),
            ..DetectTally::default()
        }
    }

    /// Records (documents) passed through.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The largest node arena of any record passed through.
    pub fn peak_resident_nodes(&self) -> usize {
        self.peak_resident_nodes
    }

    fn record(&mut self, doc: &Document) {
        self.records += 1;
        self.peak_resident_nodes = self.peak_resident_nodes.max(doc.arena_len());
    }

    /// The per-unit forensic tallies, when they were kept.
    pub(crate) fn into_forensics(self) -> Option<ForensicTallies> {
        self.forensics
    }

    /// Folds another worker's tally into this one.
    pub fn merge(&mut self, other: DetectTally) {
        self.records += other.records;
        self.peak_resident_nodes = self.peak_resident_nodes.max(other.peak_resident_nodes);
        for (mine, theirs) in self.bit_votes.iter_mut().zip(&other.bit_votes) {
            mine.merge(theirs);
        }
        self.votes_cast += other.votes_cast;
        self.units += other.units;
        self.located += other.located;
        for (key, located) in other.fd_located {
            *self.fd_located.entry(key).or_default() |= located;
        }
        // Every worker of a run keeps forensic tallies, or none does.
        if let (Some(mine), Some(theirs)) = (&mut self.forensics, other.forensics) {
            mine.merge(theirs);
        }
    }

    /// The detection report for the claimed base `watermark`, through
    /// [`finalize_forensic_report`] — the seam the DOM forensic decoder
    /// uses too. A tally wider than `watermark` (redundancy mode) gets
    /// the group-majority decode.
    pub fn finalize(
        self,
        watermark: &Watermark,
        threshold: f64,
        table: &SelectionTable,
    ) -> DetectionReport {
        let fd_located = self.fd_located.values().filter(|l| **l).count();
        let counters = VoteCounters {
            total_queries: self.units + self.fd_located.len(),
            located_queries: self.located + fd_located,
            unrewritable_queries: 0,
            votes_cast: self.votes_cast,
        };
        finalize_forensic_report(
            self.bit_votes,
            watermark,
            threshold,
            counters,
            self.forensics.as_ref().map(|t| (t, table)),
        )
    }
}
