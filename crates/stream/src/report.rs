//! Streaming reports and the per-worker [`Tally`] seam.
//!
//! Each worker folds its records into a [`wmx_core::EmbedTally`] or
//! [`wmx_core::DetectTally`] — the tallies of the unit pass the DOM
//! engine runs too — and the driver merges the workers' tallies once
//! they are done. Counting, FD-group merging and finalizing all live in
//! `wmx-core`; this module only wraps the result with streaming
//! telemetry.

use crate::engine::RecordEngine;
use crate::StreamError;
use wmx_core::{DetectTally, EmbedReport, EmbedTally};

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

/// Aggregated view of a run's [`ChunkTiming`]s (one per worker): count,
/// records, and summed/fastest/slowest wall-clock, as the CLI's
/// `chunks:` line and run audit report them.
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

impl Tally for EmbedTally {
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
        EmbedTally::merge(self, other);
    }
}

impl Tally for DetectTally {
    fn record(
        &mut self,
        engine: &RecordEngine<'_>,
        _: usize,
        raw: &mut String,
    ) -> Result<(), StreamError> {
        engine.detect_record(raw, self)
    }

    fn merge(&mut self, other: Self) {
        DetectTally::merge(self, other);
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
