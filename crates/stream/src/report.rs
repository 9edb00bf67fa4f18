//! Streaming report accumulation and cross-worker merging.
//!
//! Key-identified and order units are local to one record, so their
//! counters simply add up. FD-redundancy groups span records (every
//! member of `editor → publisher` carries the same mark wherever it
//! lives), so each worker tracks them in a single [`UnitKey`]-keyed flag
//! map — one entry per group carrying its total/selected/marked (or
//! located) state — and the merge ORs the flags, reproducing exactly
//! the whole-document counts the DOM encoder reports. Keys are compact
//! symbol tuples ([`wmx_core::SelectionTable`] symbols are stable
//! across workers), so no unit-id strings are built or cloned anywhere
//! on the merge path.

use crate::engine::RecordEngine;
use crate::StreamError;
use std::collections::{BTreeMap, BTreeSet};
use wmx_core::{
    BitVotes, EmbedReport, ForensicTallies, MarkUnit, SelectionTable, StoredQuery, UnitKey,
};

/// Wall-clock telemetry for one worker, consumed by the `wmx-bench`
/// telemetry reports. A run emits one entry per worker at every worker
/// count (one entry for a one-worker run); each covers that worker's
/// per-record embed/detect work over all the batches it took. Reading,
/// record splitting and output emission happen on the calling thread
/// and are not in any entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkTiming {
    /// Records this worker worked on (skipped ones included).
    pub records: usize,
    /// Wall-clock time of this worker's record work, in µs.
    pub micros: u128,
}

/// Aggregated view of a run's [`ChunkTiming`]s — the user-visible
/// summary the raw per-chunk vector never had (it was collected but
/// silently dropped by every consumer until the telemetry layer landed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSummary {
    /// Chunks timed.
    pub chunks: usize,
    /// Records across all timed chunks.
    pub records: usize,
    /// Summed chunk wall-clock, in µs (not wall time of the run: workers
    /// overlap).
    pub total_micros: u128,
    /// Fastest chunk, in µs.
    pub min_micros: u128,
    /// Slowest chunk, in µs.
    pub max_micros: u128,
}

impl ChunkSummary {
    /// Folds raw timings into a summary (`None` when nothing was timed).
    pub fn from_timings(timings: &[ChunkTiming]) -> Option<ChunkSummary> {
        let micros = || timings.iter().map(|t| t.micros);
        Some(ChunkSummary {
            chunks: timings.len(),
            records: timings.iter().map(|t| t.records).sum(),
            total_micros: micros().sum(),
            min_micros: micros().min()?,
            max_micros: micros().max()?,
        })
    }

    /// Mean chunk wall-clock, in µs.
    pub fn mean_micros(&self) -> u128 {
        self.total_micros / self.chunks as u128
    }
}

/// Streaming embed outcome: the DOM-equivalent report plus streaming
/// telemetry.
#[derive(Debug, Clone)]
pub struct StreamEmbedReport {
    /// The embedding report (unit counts, safeguarded query set) —
    /// equal, as a multiset of units, to what the DOM encoder reports.
    pub report: EmbedReport,
    /// Records processed.
    pub records: usize,
    /// High-water mark of XML nodes resident at once (wrapper root +
    /// one record), the O(depth + record) memory guarantee.
    pub peak_resident_nodes: usize,
    /// Per-worker wall-clock timings (one entry per worker).
    pub chunk_timings: Vec<ChunkTiming>,
}

impl StreamEmbedReport {
    /// Aggregated chunk-timing summary (`None` when nothing was timed).
    pub fn chunk_summary(&self) -> Option<ChunkSummary> {
        ChunkSummary::from_timings(&self.chunk_timings)
    }
}

/// What went wrong mid-stream when the fault-tolerant detect drivers
/// kept going: the verdict in the accompanying report covers only the
/// records processed before the fault (a *partial verdict*), never an
/// error and never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamFault {
    /// Records fully processed before the fault stopped the reader.
    pub records_processed: usize,
    /// Indices (0-based, in stream order) of records that were skipped
    /// because their own bytes failed to parse; processing continued
    /// with the next record.
    pub skipped_records: Vec<usize>,
    /// Human-readable description of the first stream-level error.
    pub error: String,
    /// Whether the stream itself broke (truncation / malformed bytes /
    /// I/O) as opposed to per-record damage only.
    pub truncated: bool,
}

/// Streaming detect outcome.
#[derive(Debug, Clone)]
pub struct StreamDetectReport {
    /// The detection report. `total_queries` counts enumerated selected
    /// units, `located_queries` those that produced at least one vote.
    pub report: wmx_core::DetectionReport,
    /// Records processed.
    pub records: usize,
    /// High-water mark of XML nodes resident at once.
    pub peak_resident_nodes: usize,
    /// Per-worker wall-clock timings (one entry per worker).
    pub chunk_timings: Vec<ChunkTiming>,
    /// Mid-stream fault, when the fault-tolerant drivers salvaged a
    /// partial verdict (`None` on a complete pass).
    pub fault: Option<StreamFault>,
}

impl StreamDetectReport {
    /// Aggregated chunk-timing summary (`None` when nothing was timed).
    pub fn chunk_summary(&self) -> Option<ChunkSummary> {
        ChunkSummary::from_timings(&self.chunk_timings)
    }
}

/// Per-FD-group embed state: one map entry per group replaces the three
/// id-keyed sets the merge path used to clone unit-id strings into.
/// Presence in the map means the group was enumerated (total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FdEmbedFlags {
    /// The PRF selected the group.
    pub selected: bool,
    /// Some worker wrote the mark into the group.
    pub marked: bool,
}

/// A marked unit's identity query.
#[derive(Debug)]
pub(crate) enum MarkedQuery {
    /// A key or order unit's query, rendered where it was marked.
    Rendered(StoredQuery),
    /// An FD group. Groups recur across records and workers, so each
    /// is kept unrendered and rendered once, at finalize.
    FdGroup(MarkUnit),
}

/// Per-worker embed accumulator.
#[derive(Debug, Default)]
pub(crate) struct PartialEmbed {
    pub records: usize,
    pub peak_resident_nodes: usize,
    pub total_local: usize,
    pub selected_local: usize,
    pub marked_local: usize,
    pub marked_nodes: usize,
    /// Identity queries of the marked units, each with the stream index
    /// of its record, in this worker's discovery order.
    pub queries: Vec<(usize, MarkedQuery)>,
    pub fd_flags: BTreeMap<UnitKey, FdEmbedFlags>,
}

impl PartialEmbed {
    /// The flag entry for an FD group, created on first sight (the only
    /// point the key is cloned by this worker).
    pub fn fd_entry(&mut self, key: &UnitKey) -> &mut FdEmbedFlags {
        if !self.fd_flags.contains_key(key) {
            self.fd_flags.insert(key.clone(), FdEmbedFlags::default());
        }
        self.fd_flags.get_mut(key).expect("inserted above")
    }

    /// Finalizes the tally: queries in stream order, each FD group once
    /// (where the stream first marked it), rendered by `render`.
    pub fn finalize(
        mut self,
        render: impl Fn(&MarkUnit) -> Result<StoredQuery, StreamError>,
    ) -> Result<StreamEmbedReport, StreamError> {
        // Stable: queries of one record keep their discovery order.
        self.queries.sort_by_key(|(record, _)| *record);
        let mut seen_fd = BTreeSet::new();
        let mut queries = Vec::with_capacity(self.queries.len());
        for (_, query) in self.queries {
            match query {
                MarkedQuery::Rendered(stored) => queries.push(stored),
                MarkedQuery::FdGroup(unit) if seen_fd.insert(unit.key.clone()) => {
                    queries.push(render(&unit)?);
                }
                MarkedQuery::FdGroup(_) => {} // marked again by another worker
            }
        }
        let fd_selected = self.fd_flags.values().filter(|f| f.selected).count();
        let fd_marked = self.fd_flags.values().filter(|f| f.marked).count();
        Ok(StreamEmbedReport {
            report: EmbedReport {
                total_units: self.total_local + self.fd_flags.len(),
                selected_units: self.selected_local + fd_selected,
                marked_units: self.marked_local + fd_marked,
                marked_nodes: self.marked_nodes,
                queries,
            },
            records: self.records,
            peak_resident_nodes: self.peak_resident_nodes,
            chunk_timings: Vec::new(),
        })
    }
}

/// Per-worker detect accumulator.
#[derive(Debug, Default)]
pub(crate) struct PartialDetect {
    pub records: usize,
    pub peak_resident_nodes: usize,
    pub bit_votes: Vec<BitVotes>,
    pub votes_cast: usize,
    pub total_local: usize,
    pub located_local: usize,
    /// Selected FD groups → whether any worker located votes for them.
    pub fd_located: BTreeMap<UnitKey, bool>,
    /// Per-unit forensic tallies, accumulated only when the forensic
    /// drivers enable them (`None` keeps the default hot path untouched).
    pub forensics: Option<ForensicTallies>,
}

impl PartialDetect {
    /// A fresh accumulator `wm_len` votes wide, with forensic tallies
    /// when `forensics` is set.
    pub fn new(wm_len: usize, forensics: bool) -> Self {
        PartialDetect {
            bit_votes: vec![BitVotes::default(); wm_len],
            forensics: forensics.then(ForensicTallies::new),
            ..PartialDetect::default()
        }
    }

    /// The located flag for a selected FD group. Takes the key by value:
    /// an already-present key is dropped, not cloned.
    pub fn fd_entry(&mut self, key: UnitKey) -> &mut bool {
        self.fd_located.entry(key).or_default()
    }

    fn counters(&self) -> wmx_core::VoteCounters {
        let fd_located = self.fd_located.values().filter(|l| **l).count();
        wmx_core::VoteCounters {
            total_queries: self.total_local + self.fd_located.len(),
            located_queries: self.located_local + fd_located,
            unrewritable_queries: 0,
            votes_cast: self.votes_cast,
        }
    }

    /// Finalizes the tally. Forensic tallies are rendered through the
    /// same [`wmx_core::finalize_forensic_report`] seam the DOM forensic
    /// decoder uses — DOM and stream forensics agree by construction.
    pub fn finalize(
        self,
        watermark: &wmx_core::Watermark,
        threshold: f64,
        table: &SelectionTable,
    ) -> StreamDetectReport {
        let counters = self.counters();
        // The base-width, no-forensics case keeps the original pinned
        // path; a wider tally means redundancy mode, which needs the
        // group-majority decode.
        let report = if self.forensics.is_none() && self.bit_votes.len() == watermark.len() {
            wmx_core::report_from_votes(self.bit_votes, watermark, threshold, counters)
        } else {
            wmx_core::finalize_forensic_report(
                self.bit_votes,
                watermark,
                threshold,
                counters,
                self.forensics.as_ref().map(|t| (t, table)),
            )
        };
        StreamDetectReport {
            report,
            records: self.records,
            peak_resident_nodes: self.peak_resident_nodes,
            chunk_timings: Vec::new(),
            fault: None,
        }
    }
}

/// A worker's accumulator: what it does with each record, and how the
/// workers' accumulators fold together.
pub(crate) trait Tally: Default + Send {
    /// Works the record with stream index `index`.
    fn record(
        &mut self,
        engine: &RecordEngine<'_>,
        index: usize,
        raw: &mut String,
    ) -> Result<(), StreamError>;

    /// Folds another worker's tally into this one.
    fn merge(&mut self, other: Self);
}

impl Tally for PartialEmbed {
    /// Embeds the record and writes the marked bytes back into `raw`.
    /// The copy keeps each buffer on the thread that allocated it: the
    /// record's own on the reading thread, the scratch on this one. A
    /// heap that threads hand buffers between grows from run to run.
    fn record(
        &mut self,
        engine: &RecordEngine<'_>,
        index: usize,
        raw: &mut String,
    ) -> Result<(), StreamError> {
        let mut marked = String::with_capacity(raw.len() + raw.len() / 4);
        engine.embed_record_into(raw, index, self, &mut marked)?;
        raw.clear();
        raw.push_str(&marked);
        Ok(())
    }

    fn merge(&mut self, other: Self) {
        self.records += other.records;
        self.peak_resident_nodes = self.peak_resident_nodes.max(other.peak_resident_nodes);
        self.total_local += other.total_local;
        self.selected_local += other.selected_local;
        self.marked_local += other.marked_local;
        self.marked_nodes += other.marked_nodes;
        self.queries.extend(other.queries);
        for (key, flags) in other.fd_flags {
            let mine = self.fd_flags.entry(key).or_default();
            mine.selected |= flags.selected;
            mine.marked |= flags.marked;
        }
    }
}

impl Tally for PartialDetect {
    fn record(
        &mut self,
        engine: &RecordEngine<'_>,
        _: usize,
        raw: &mut String,
    ) -> Result<(), StreamError> {
        engine.detect_record(raw, self)
    }

    fn merge(&mut self, other: Self) {
        self.records += other.records;
        self.peak_resident_nodes = self.peak_resident_nodes.max(other.peak_resident_nodes);
        for (mine, theirs) in self.bit_votes.iter_mut().zip(&other.bit_votes) {
            mine.merge(theirs);
        }
        self.votes_cast += other.votes_cast;
        self.total_local += other.total_local;
        self.located_local += other.located_local;
        for (key, located) in other.fd_located {
            *self.fd_located.entry(key).or_default() |= located;
        }
        // Every worker of a run keeps forensic tallies, or none does.
        if let (Some(mine), Some(theirs)) = (&mut self.forensics, other.forensics) {
            mine.merge(theirs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_summary_aggregates_timings() {
        assert_eq!(ChunkSummary::from_timings(&[]), None);
        let timings = [
            ChunkTiming {
                records: 10,
                micros: 40,
            },
            ChunkTiming {
                records: 30,
                micros: 100,
            },
            ChunkTiming {
                records: 20,
                micros: 70,
            },
        ];
        let summary = ChunkSummary::from_timings(&timings).unwrap();
        assert_eq!(summary.chunks, 3);
        assert_eq!(summary.records, 60);
        assert_eq!(summary.total_micros, 210);
        assert_eq!(summary.min_micros, 40);
        assert_eq!(summary.max_micros, 100);
        assert_eq!(summary.mean_micros(), 70);
    }
}
