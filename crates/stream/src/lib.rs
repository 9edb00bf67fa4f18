//! `wmx-stream`: single-pass streaming watermark embed/detect.
//!
//! The DOM pipeline in `wmx-core` materializes an entire document before
//! touching a single value, so memory scales with document size. This
//! crate is a second execution engine over the same watermarking
//! semantics: it pulls tokens from [`wmx_xml::pull::PullParser`], splits
//! the document at top-level record boundaries (the children of the root
//! element), materializes **one record at a time** as a mini-document,
//! runs the shared per-unit decision ([`wmx_core::UnitMarker`] through
//! the [`wmx_core::NodeCtx`] seam), and emits output incrementally.
//!
//! # Guarantees
//!
//! * **Byte-identical output.** Streaming embed produces exactly the
//!   bytes of `wmx_xml::to_string(dom_embedded)` — the equivalence suite
//!   in `tests/tests/stream_equivalence.rs` enforces this across the
//!   generated corpora and adversarial documents.
//! * **Bounded memory, at every worker count.** One driver
//!   ([`embed`]/[`detect`], and the six wrappers over them) reads any
//!   [`std::io::BufRead`] on the calling thread and keeps at most a few
//!   fixed-size batches of records per worker in flight, so memory does
//!   not grow with the input. Each worker materializes O(depth + one
//!   record) XML nodes at a time
//!   ([`StreamEmbedReport::peak_resident_nodes`] measures the high-water
//!   mark); the token buffer is bounded by the largest single record.
//! * **Deterministic parallelism, at every worker count.** Batches go
//!   round-robin to the workers and come back in the same order; because
//!   every per-unit decision depends only on the unit id and the secret
//!   key, output is byte-identical, vote counts and forensic tallies
//!   merge exactly, and a damaged stream salvages the same partial
//!   verdict whatever the worker count.
//!
//! # Scope
//!
//! The streaming engine assumes the default parse conventions
//! ([`wmx_xml::ParseOptions`]: whitespace-only text skipped, comments
//! and processing instructions kept) and compact serialization. It
//! requires entity instances to live at or below the root's child
//! elements — an entity bound to the document root itself is rejected
//! with an error pointing at the DOM engine. Unlike DOM detection it is
//! *query-free*: it re-enumerates units per record and re-derives the
//! keyed selection, so only the secret key, the watermark, and the
//! semantic package are needed (no safeguarded query file) — but it
//! cannot rewrite through a schema mapping; reorganized suspects still
//! need the DOM decoder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod engine;
mod metrics;
pub mod reader;
pub mod report;

pub use driver::{
    detect, embed, par_detect, par_detect_forensic, par_embed, stream_detect,
    stream_detect_forensic, stream_embed,
};
pub use reader::{Misc, TopEvent, TopLevelReader};
pub use report::{ChunkSummary, ChunkTiming, StreamDetectReport, StreamEmbedReport, StreamFault};

use wmx_core::WmError;
use wmx_xml::XmlError;

/// The semantic package a streaming run needs: the same binding, FDs and
/// encoder configuration the DOM pipeline takes.
#[derive(Debug, Clone, Copy)]
pub struct StreamContext<'a> {
    /// Binding of logical entities onto the document schema.
    pub binding: &'a wmx_rewrite::SchemaBinding,
    /// Declared functional dependencies.
    pub fds: &'a [wmx_schema::Fd],
    /// Encoder configuration (γ, markable/structural attributes).
    pub config: &'a wmx_core::EncoderConfig,
}

/// Errors raised by the streaming engine.
#[derive(Debug)]
pub enum StreamError {
    /// Malformed XML in the input stream.
    Xml(XmlError),
    /// Watermarking-semantics error (bad binding/config, write failure).
    Wm(WmError),
    /// I/O failure on the input reader or output writer.
    Io(std::io::Error),
    /// Input the streaming engine does not support (use the DOM engine).
    Unsupported(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Xml(e) => write!(f, "xml error: {e}"),
            StreamError::Wm(e) => write!(f, "watermark error: {e}"),
            StreamError::Io(e) => write!(f, "io error: {e}"),
            StreamError::Unsupported(msg) => write!(f, "unsupported by streaming engine: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<XmlError> for StreamError {
    fn from(e: XmlError) -> Self {
        StreamError::Xml(e)
    }
}

impl From<WmError> for StreamError {
    fn from(e: WmError) -> Self {
        StreamError::Wm(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}
