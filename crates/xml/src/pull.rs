//! Resumable pull-based token stream.
//!
//! [`PullParser`] wraps the [lexer](crate::lexer) behind a push/pull
//! interface: callers *push* input chunks of any size (`push_str`) and
//! *pull* complete tokens (`next`). When the buffered input ends in the
//! middle of a token the parser answers [`Pulled::NeedMore`] instead of
//! failing, and lexing resumes exactly where it stopped once more input
//! arrives — no token is ever split or re-ordered relative to lexing the
//! whole document at once. This is the substrate of the `wmx-stream`
//! single-pass engine, which must tokenize documents larger than memory.
//!
//! Consumed input is discarded incrementally (amortized compaction), so
//! memory use is bounded by the largest *held* span (see
//! [`PullParser::hold_from`]) plus one compaction window — not by the
//! document size.
//!
//! # Example
//!
//! ```
//! use wmx_xml::pull::{PullParser, Pulled};
//! use wmx_xml::token::Token;
//!
//! let mut pull = PullParser::new();
//! pull.push_str("<a>hel");
//! let tok = match pull.next().unwrap() {
//!     Pulled::Token(t) => t.token,
//!     other => panic!("expected a token, got {other:?}"),
//! };
//! assert!(matches!(tok, Token::StartTag { .. }));
//! // "hel" may continue in the next chunk: the parser waits.
//! assert!(matches!(pull.next().unwrap(), Pulled::NeedMore));
//! pull.push_str("lo</a>");
//! pull.finish();
//! assert!(matches!(
//!     pull.next().unwrap(),
//!     Pulled::Token(t) if t.token == Token::Text { content: "hello".into() }
//! ));
//! ```

use crate::error::{XmlError, XmlErrorKind};
use crate::intern::Interner;
use crate::lexer::Lexer;
use crate::token::{SpannedToken, Token};

/// Consumed bytes are dropped from the front of the buffer once at least
/// this many are reclaimable (amortizes the memmove).
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Markup openers long enough that a buffer ending mid-opener would
/// otherwise mislex (e.g. `"<!-"` is not yet distinguishable from a
/// comment or a DOCTYPE).
const MARKUP_OPENERS: &[&str] = &["<!--", "<![CDATA[", "<!DOCTYPE", "<!doctype"];

/// The fixed closing delimiter of a construct whose content cannot
/// contain it (so "delimiter present" ⇔ "token complete"). Tags and
/// DOCTYPEs are excluded: their `>` may legally occur earlier (inside a
/// quoted attribute value or an internal subset).
fn unambiguous_closer(rest: &str) -> Option<&'static str> {
    if rest.starts_with("<!--") {
        Some("-->")
    } else if rest.starts_with("<![CDATA[") {
        Some("]]>")
    } else if rest.starts_with("<?") {
        Some("?>")
    } else {
        None
    }
}

/// One pull outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pulled {
    /// A complete token (with its stream position).
    Token(SpannedToken),
    /// The buffered input ends mid-token; push more input (or call
    /// [`PullParser::finish`]) and pull again.
    NeedMore,
    /// All input was consumed and [`PullParser::finish`] was called.
    End,
}

/// A resumable, incrementally-fed XML tokenizer.
#[derive(Debug)]
pub struct PullParser {
    /// Unconsumed tail of the stream (plus any held prefix).
    buf: String,
    /// Stream offset of `buf[0]`.
    base: u64,
    /// Consumed offset within `buf`.
    pos: usize,
    line: u32,
    column: u32,
    finished: bool,
    /// Stream offset before which bytes must be retained for
    /// [`PullParser::raw_range`] (set by [`PullParser::hold_from`]).
    hold: Option<u64>,
    /// Bytes past `pos` already probed for the current incomplete
    /// token's terminator. Makes repeated NeedMore→push→retry cycles on
    /// one large token scan only the newly pushed bytes (linear total)
    /// instead of re-scanning the whole run each time.
    probed: usize,
    /// Name table shared by every resumed lexing step, so the symbols in
    /// pulled tokens stay stable across chunk boundaries.
    interner: Interner,
    /// Accumulated lexer span counters for *accepted* tokens (rolled-back
    /// NeedMore attempts are excluded); flushed to telemetry on drop.
    spans_zero_copy: u64,
    spans_materialized: u64,
}

impl Drop for PullParser {
    fn drop(&mut self) {
        crate::lexer::record_span_stats(self.spans_zero_copy, self.spans_materialized);
    }
}

impl Default for PullParser {
    fn default() -> Self {
        PullParser::new()
    }
}

impl PullParser {
    /// Creates an empty parser; push input with [`PullParser::push_str`].
    pub fn new() -> Self {
        PullParser {
            buf: String::new(),
            base: 0,
            pos: 0,
            line: 1,
            column: 1,
            finished: false,
            hold: None,
            probed: 0,
            interner: Interner::new(),
            spans_zero_copy: 0,
            spans_materialized: 0,
        }
    }

    /// The name table the pulled tokens' symbols point into.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Appends the next input chunk. Chunks may split tokens anywhere —
    /// only UTF-8 character boundaries must be respected (which `&str`
    /// guarantees by construction).
    ///
    /// # Panics
    /// Panics if called after [`PullParser::finish`].
    pub fn push_str(&mut self, chunk: &str) {
        assert!(!self.finished, "push_str after finish");
        self.compact();
        self.buf.push_str(chunk);
    }

    /// Declares end of input: pending `NeedMore` states become either
    /// final tokens or real errors on the next pull.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Stream offset (bytes since the start of input) of the next
    /// unconsumed character — i.e. where the next token will start.
    pub fn stream_offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Keeps all bytes from stream offset `from` onwards in memory so
    /// that [`PullParser::raw_range`] can return them later. Memory use
    /// grows with the held span until [`PullParser::release_hold`].
    pub fn hold_from(&mut self, from: u64) {
        debug_assert!(from >= self.base, "cannot hold already-discarded bytes");
        self.hold = Some(from);
    }

    /// Releases the hold; consumed bytes may be discarded again.
    pub fn release_hold(&mut self) {
        self.hold = None;
    }

    /// The raw input bytes between stream offsets `start` and `end`, if
    /// still buffered (guaranteed while a [`PullParser::hold_from`] at or
    /// before `start` is in place).
    pub fn raw_range(&self, start: u64, end: u64) -> Option<&str> {
        if start < self.base || end < start {
            return None;
        }
        let s = (start - self.base) as usize;
        let e = (end - self.base) as usize;
        self.buf.get(s..e)
    }

    fn compact(&mut self) {
        let hold_idx = self
            .hold
            .map(|h| h.saturating_sub(self.base) as usize)
            .unwrap_or(self.pos);
        let keep_from = self.pos.min(hold_idx);
        if keep_from >= COMPACT_THRESHOLD {
            self.buf.drain(..keep_from);
            self.base += keep_from as u64;
            self.pos -= keep_from;
        }
    }

    /// Pulls the next token.
    ///
    /// Returns [`Pulled::NeedMore`] when the remaining buffer could be a
    /// prefix of a longer token (text that may continue, markup whose
    /// closing delimiter has not arrived). After [`PullParser::finish`],
    /// the same states resolve to tokens, [`Pulled::End`], or the same
    /// errors batch lexing would report.
    // Not `Iterator::next`: pulling is fallible and three-valued
    // (token / need-more / end), which `Option<Item>` cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Pulled, XmlError> {
        let rest = &self.buf[self.pos..];
        if rest.is_empty() {
            return Ok(if self.finished {
                Pulled::End
            } else {
                Pulled::NeedMore
            });
        }
        if !self.finished {
            if !rest.starts_with('<') {
                // A text run is only complete once the next '<' arrives:
                // both its extent and any trailing `&...;` reference may
                // continue in the next chunk. Only bytes that arrived
                // since the last probe need scanning.
                if !rest[self.probed..].contains('<') {
                    self.probed = rest.len();
                    return Ok(Pulled::NeedMore);
                }
                self.probed = 0;
            } else if MARKUP_OPENERS
                .iter()
                .any(|opener| opener.len() > rest.len() && opener.starts_with(rest))
            {
                // E.g. "<!-" — not yet distinguishable from "<!--" vs
                // "<!DOCTYPE"; lexing now would misparse.
                return Ok(Pulled::NeedMore);
            } else if let Some(delim) = unambiguous_closer(rest) {
                // Comments/CDATA/PIs end at a fixed delimiter that
                // cannot occur earlier in their content: don't re-lex
                // (and re-scan) the whole construct on every chunk —
                // probe only the newly arrived bytes for the closer.
                let mut from = self.probed.saturating_sub(delim.len() - 1);
                while !rest.is_char_boundary(from) {
                    from -= 1;
                }
                if !rest[from..].contains(delim) {
                    self.probed = rest.len();
                    return Ok(Pulled::NeedMore);
                }
                self.probed = 0;
            }
        }
        // Names interned while lexing a token that turns out to be
        // incomplete must be rolled back, or a truncated tag name would
        // occupy a symbol and chunked/batch lexing would diverge.
        let checkpoint = self.interner.len();
        let mut lexer = Lexer::with_position(rest, self.line, self.column);
        lexer.set_interner(std::mem::take(&mut self.interner));
        let outcome = lexer.next_token();
        self.interner = lexer.take_interner();
        match outcome {
            Ok(Some(spanned)) => {
                let consumed = lexer.byte_offset();
                if !self.finished
                    && consumed == rest.len()
                    && matches!(spanned.token, Token::Text { .. })
                {
                    // The text ran to the end of the buffer; it may
                    // continue in the next chunk.
                    return Ok(Pulled::NeedMore);
                }
                let (zero_copy, materialized) = lexer.span_stats();
                self.spans_zero_copy += zero_copy;
                self.spans_materialized += materialized;
                self.pos += consumed;
                self.probed = 0;
                let after = lexer.position();
                self.line = after.line;
                self.column = after.column;
                Ok(Pulled::Token(spanned))
            }
            Ok(None) => Ok(if self.finished {
                Pulled::End
            } else {
                Pulled::NeedMore
            }),
            Err(e) if !self.finished && matches!(e.kind, XmlErrorKind::UnexpectedEof { .. }) => {
                self.interner.truncate(checkpoint);
                Ok(Pulled::NeedMore)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    /// Pulls every token, pushing `input` in `chunk`-byte pieces
    /// (respecting UTF-8 boundaries) as NeedMore demands.
    fn pull_chunked(input: &str, chunk: usize) -> Result<Vec<Token>, XmlError> {
        let mut pull = PullParser::new();
        let mut out = Vec::new();
        let mut fed = 0usize;
        loop {
            match pull.next()? {
                Pulled::Token(t) => out.push(t.token),
                Pulled::End => return Ok(out),
                Pulled::NeedMore => {
                    if fed >= input.len() {
                        pull.finish();
                        continue;
                    }
                    let mut end = (fed + chunk).min(input.len());
                    while !input.is_char_boundary(end) {
                        end += 1;
                    }
                    pull.push_str(&input[fed..end]);
                    fed = end;
                }
            }
        }
    }

    const TRICKY: &str = "<?xml version=\"1.0\"?><!DOCTYPE db [<!ELEMENT db (#PCDATA)>]>\
         <!-- head --><db owner=\"a&amp;b\"><item id='1'>x &lt; y</item>\
         <![CDATA[1<2 && 3>2]]><?app run fast?><empty/>tail \u{4e2d}\u{6587}</db>";

    #[test]
    fn chunked_pulls_equal_batch_tokenize() {
        let batch = tokenize(TRICKY).unwrap();
        for chunk in [1, 2, 3, 5, 7, 16, 64, TRICKY.len()] {
            let pulled = pull_chunked(TRICKY, chunk).unwrap();
            assert_eq!(pulled, batch, "chunk size {chunk}");
        }
    }

    #[test]
    fn multibyte_content_in_probed_constructs() {
        // The incremental terminator probe must back off to char
        // boundaries when comment/CDATA content is multibyte.
        let input = "<a><!--\u{4e2d}\u{6587}--><![CDATA[\u{65e5}\u{672c}]]>\u{d55c}\u{ad6d}</a>";
        let batch = tokenize(input).unwrap();
        for chunk in [1, 2, 3, 4, 5] {
            assert_eq!(pull_chunked(input, chunk).unwrap(), batch, "chunk {chunk}");
        }
    }

    #[test]
    fn text_waits_for_the_next_tag() {
        let mut pull = PullParser::new();
        pull.push_str("<a>part");
        assert!(matches!(pull.next().unwrap(), Pulled::Token(_))); // <a>
        assert_eq!(pull.next().unwrap(), Pulled::NeedMore);
        pull.push_str("ial</a>");
        match pull.next().unwrap() {
            Pulled::Token(t) => assert_eq!(
                t.token,
                Token::Text {
                    content: "partial".into()
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entity_split_across_chunks() {
        let tokens = pull_chunked("<a>x &am", 8); // incomplete entity at EOF
        assert!(tokens.is_err(), "unterminated entity must error at finish");
        let ok = pull_chunked("<a>x &amp; y</a>", 4).unwrap();
        assert_eq!(
            ok[1],
            Token::Text {
                content: "x & y".into()
            }
        );
    }

    #[test]
    fn comment_opener_split_is_not_misparsed() {
        // "<!-" alone must not be lexed as a bad start tag.
        let mut pull = PullParser::new();
        pull.push_str("<a/><!-");
        assert!(matches!(pull.next().unwrap(), Pulled::Token(_)));
        assert_eq!(pull.next().unwrap(), Pulled::NeedMore);
        pull.push_str("- c --><b/>");
        pull.finish();
        match pull.next().unwrap() {
            Pulled::Token(t) => assert_eq!(
                t.token,
                Token::Comment {
                    content: " c ".into()
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn positions_continue_across_chunks() {
        let mut pull = PullParser::new();
        pull.push_str("<a>\n");
        pull.push_str("  <b>");
        pull.finish();
        pull.next().unwrap(); // <a>
        pull.next().unwrap(); // "\n  "
        match pull.next().unwrap() {
            Pulled::Token(t) => {
                assert_eq!(t.position.line, 2);
                assert_eq!(t.position.column, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_match_batch_lexing_after_finish() {
        let err = pull_chunked("<a><!-- oops", 3).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnexpectedEof { .. }));
        let err = pull_chunked("<a x=\"1\" x=\"2\"/>", 2).unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::DuplicateAttribute { .. }));
    }

    #[test]
    fn stream_offsets_and_raw_range() {
        let input = "<db><book>x</book></db>";
        let mut pull = PullParser::new();
        pull.hold_from(0); // retain everything: offsets index `input`
        pull.push_str(input);
        pull.finish();
        pull.next().unwrap(); // <db>
        let start = pull.stream_offset();
        assert_eq!(start, 4);
        pull.next().unwrap(); // <book>
        pull.next().unwrap(); // x
        pull.next().unwrap(); // </book>
        let end = pull.stream_offset();
        assert_eq!(pull.raw_range(start, end), Some("<book>x</book>"));
    }

    #[test]
    fn hold_preserves_bytes_across_compaction() {
        let mut pull = PullParser::new();
        let filler = format!("<filler>{}</filler>", "y".repeat(2 * COMPACT_THRESHOLD));
        pull.push_str("<db>");
        pull.push_str(&filler);
        // Consume <db>, <filler>, text, </filler> so the filler bytes
        // become reclaimable.
        for _ in 0..4 {
            assert!(matches!(pull.next().unwrap(), Pulled::Token(_)));
        }
        let start = pull.stream_offset();
        pull.hold_from(start);
        pull.push_str("<a>kept</a>"); // would compact without the hold
        pull.push_str("</db>");
        pull.finish();
        for _ in 0..3 {
            assert!(matches!(pull.next().unwrap(), Pulled::Token(_))); // <a>, kept, </a>
        }
        let end = pull.stream_offset();
        assert_eq!(pull.raw_range(start, end), Some("<a>kept</a>"));
        pull.release_hold();
    }

    #[test]
    fn compaction_bounds_memory() {
        let mut pull = PullParser::new();
        let record = "<r>0123456789</r>";
        for _ in 0..20_000 {
            pull.push_str(record);
            loop {
                match pull.next().unwrap() {
                    Pulled::Token(_) => {}
                    Pulled::NeedMore => break,
                    Pulled::End => unreachable!(),
                }
            }
        }
        assert!(
            pull.buf.capacity() < 4 * COMPACT_THRESHOLD,
            "buffer grew unbounded: {}",
            pull.buf.capacity()
        );
    }

    #[test]
    fn end_is_sticky() {
        let mut pull = PullParser::new();
        pull.push_str("<a/>");
        pull.finish();
        assert!(matches!(pull.next().unwrap(), Pulled::Token(_)));
        assert_eq!(pull.next().unwrap(), Pulled::End);
        assert_eq!(pull.next().unwrap(), Pulled::End);
    }
}
