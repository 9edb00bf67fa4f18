//! Top-level document reader: turns a byte stream into prolog events,
//! raw record slices, and inter-record content.
//!
//! [`TopLevelReader`] pulls tokens from [`PullParser`] while tracking
//! element depth. Children of the root element are *records*: their raw
//! bytes are captured verbatim (via the pull parser's hold mechanism)
//! and handed to the engine as one [`TopEvent::Record`] each, without
//! ever materializing their nodes here. Everything else — XML
//! declaration, DOCTYPE, comments, processing instructions, mixed text
//! between records — surfaces as its own event so the driver can
//! re-emit it exactly as the DOM serializer would.
//!
//! Memory is bounded by the largest single record plus one read chunk
//! of at most [`MAX_FILL`] bytes.

use crate::StreamError;
use std::io::BufRead;
use wmx_xml::pull::{PullParser, Pulled};
use wmx_xml::serialize::attribute_text;
use wmx_xml::token::Token;
use wmx_xml::{XmlError, XmlErrorKind};

/// Non-record content at the document's top levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Misc {
    /// Character data (only valid inside the root element).
    Text(String),
    /// A CDATA section (only valid inside the root element).
    CData(String),
    /// A comment.
    Comment(String),
    /// A processing instruction.
    Pi {
        /// PI target.
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

/// One top-level event of the document stream, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopEvent {
    /// `<?xml ...?>` content.
    XmlDecl(String),
    /// `<!DOCTYPE ...>` content.
    Doctype(String),
    /// A comment/PI before the root element.
    PrologMisc(Misc),
    /// The root element opens.
    RootStart {
        /// Root element name.
        name: String,
        /// The compact open tag `<name a="v" ...>`, rendered with the
        /// serializer's attribute formatting so streaming/DOM byte
        /// parity holds by construction.
        open_tag: String,
    },
    /// One complete root-child element, as raw input bytes.
    Record(String),
    /// Depth-1 content between records (text/CDATA/comment/PI).
    /// Whitespace-only text and empty CDATA are already dropped, per the
    /// default parse/serialize conventions.
    Misc(Misc),
    /// The root element closes.
    RootEnd,
    /// A comment/PI after the root element.
    TrailingMisc(Misc),
}

/// Most bytes one fill hands the pull parser, so a source that exposes
/// its whole input at once (a `&[u8]`) is still lexed in bounded pieces.
const MAX_FILL: usize = 64 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Prolog,
    Content,
    Epilog,
}

/// Streaming top-level splitter over any [`BufRead`] source.
pub struct TopLevelReader<R> {
    src: R,
    pull: PullParser,
    state: State,
    /// Nesting depth inside the current record (0 = at root child level).
    record_depth: usize,
    /// Stream offset where the current record started.
    record_start: u64,
    /// Trailing bytes of the previous read that were not yet a complete
    /// UTF-8 character.
    pending_utf8: Vec<u8>,
    /// The source held invalid UTF-8 after the bytes already pushed.
    invalid_utf8: bool,
    eof: bool,
    /// Emit `RootEnd` on the next pull (self-closing root).
    pending_root_end: bool,
}

impl<R: BufRead> TopLevelReader<R> {
    /// Creates a reader over `src`.
    pub fn new(src: R) -> Self {
        TopLevelReader {
            src,
            pull: PullParser::new(),
            state: State::Prolog,
            record_depth: 0,
            record_start: 0,
            pending_utf8: Vec::new(),
            invalid_utf8: false,
            eof: false,
            pending_root_end: false,
        }
    }

    /// Reads one chunk (at most [`MAX_FILL`] bytes) from the source into
    /// the pull parser, handling UTF-8 sequences split across chunk
    /// boundaries. The common case (no pending partial character) pushes
    /// straight from the source buffer without copying. Invalid UTF-8
    /// stops the input at the bad byte: the valid prefix before it is
    /// still pushed, and the error is raised only when the parser needs
    /// more input, so what is salvaged does not depend on buffering.
    fn fill(&mut self) -> Result<(), StreamError> {
        if self.invalid_utf8 {
            return Err(StreamError::Unsupported(
                "input is not valid UTF-8".to_string(),
            ));
        }
        if self.eof {
            return Ok(());
        }
        // Borrow fields separately so the source's buffer can be pushed
        // into the pull parser without an intermediate copy.
        let TopLevelReader {
            src,
            pull,
            pending_utf8,
            invalid_utf8,
            eof,
            ..
        } = self;
        let chunk = src.fill_buf()?;
        let chunk = &chunk[..chunk.len().min(MAX_FILL)];
        if chunk.is_empty() {
            *eof = true;
            if !pending_utf8.is_empty() {
                return Err(StreamError::Unsupported(
                    "input ends inside a UTF-8 character".to_string(),
                ));
            }
            pull.finish();
            return Ok(());
        }
        let consumed = chunk.len();
        let joined;
        let bytes = if pending_utf8.is_empty() {
            chunk
        } else {
            joined = [std::mem::take(pending_utf8).as_slice(), chunk].concat();
            &joined
        };
        match std::str::from_utf8(bytes) {
            Ok(text) => pull.push_str(text),
            Err(e) => {
                let valid = e.valid_up_to();
                pull.push_str(std::str::from_utf8(&bytes[..valid]).expect("checked prefix"));
                match e.error_len() {
                    Some(_) => *invalid_utf8 = true,
                    // A character split across chunks: keep its prefix.
                    None => *pending_utf8 = bytes[valid..].to_vec(),
                }
            }
        }
        self.src.consume(consumed);
        Ok(())
    }

    /// The record that started at `record_start` and ends here.
    fn take_record(&mut self) -> TopEvent {
        let end = self.pull.stream_offset();
        let raw = self.pull.raw_range(self.record_start, end);
        let raw = raw.expect("record bytes are held").to_string();
        self.pull.release_hold();
        TopEvent::Record(raw)
    }

    fn err_at(&self, kind: XmlErrorKind) -> StreamError {
        StreamError::Xml(XmlError::dom(kind))
    }

    /// Pulls the next top-level event, or `None` at end of document.
    pub fn next_event(&mut self) -> Result<Option<TopEvent>, StreamError> {
        if self.pending_root_end {
            self.pending_root_end = false;
            self.state = State::Epilog;
            return Ok(Some(TopEvent::RootEnd));
        }
        loop {
            // While scanning between records, hold from the current
            // offset so a record's raw bytes stay addressable; inside a
            // record the hold set at its start must persist.
            if self.record_depth == 0 {
                self.pull.hold_from(self.pull.stream_offset());
            }
            // Offset of the token about to be pulled (NeedMore leaves it
            // unchanged, so re-reading each iteration is correct).
            let tok_start = self.pull.stream_offset();
            let token = match self.pull.next()? {
                Pulled::Token(t) => t.token,
                Pulled::NeedMore => {
                    self.fill()?;
                    continue;
                }
                Pulled::End => {
                    return match self.state {
                        State::Prolog => Err(self.err_at(XmlErrorKind::NoRootElement)),
                        State::Content => Err(self.err_at(XmlErrorKind::UnexpectedEof {
                            while_parsing: "element content (unclosed element)",
                        })),
                        State::Epilog => Ok(None),
                    };
                }
            };
            if self.record_depth > 0 {
                // Inside a record: only the depth bookkeeping matters;
                // the raw bytes are captured wholesale at record end.
                match token {
                    Token::StartTag {
                        self_closing: false,
                        ..
                    } => self.record_depth += 1,
                    Token::EndTag { .. } => self.record_depth -= 1,
                    _ => {}
                }
                if self.record_depth == 0 {
                    return Ok(Some(self.take_record()));
                }
                continue;
            }
            if let Token::Text { content } = &token {
                if wmx_xml::scan::is_all_whitespace(content) {
                    continue; // the DOM parser drops these too
                }
            }
            let event = match self.state {
                State::Prolog => match token {
                    Token::XmlDecl { content } => TopEvent::XmlDecl(content),
                    Token::Doctype { content } => TopEvent::Doctype(content),
                    Token::Comment { content } => TopEvent::PrologMisc(Misc::Comment(content)),
                    Token::ProcessingInstruction { target, data } => {
                        TopEvent::PrologMisc(Misc::Pi { target, data })
                    }
                    Token::Text { .. } | Token::CData { .. } => {
                        return Err(self.err_at(XmlErrorKind::NoRootElement))
                    }
                    Token::StartTag {
                        name,
                        attributes,
                        self_closing,
                    } => {
                        self.state = State::Content;
                        self.pending_root_end = self_closing;
                        // Resolve symbols at this boundary: the event
                        // outlives the pull parser's name table.
                        let names = self.pull.interner();
                        let name = names.resolve(name);
                        let mut open_tag = String::with_capacity(name.len() + 2);
                        open_tag.push('<');
                        open_tag.push_str(name);
                        for attr in &attributes {
                            let attr_name = names.resolve(attr.name);
                            open_tag.push_str(&attribute_text(attr_name, attr.value.as_str()));
                        }
                        open_tag.push('>');
                        TopEvent::RootStart {
                            name: name.to_string(),
                            open_tag,
                        }
                    }
                    Token::EndTag { name } => {
                        let close = self.pull.interner().resolve(name).to_string();
                        return Err(self.err_at(XmlErrorKind::UnmatchedClose { close }));
                    }
                },
                State::Content => match token {
                    Token::StartTag { self_closing, .. } => {
                        self.record_start = tok_start;
                        if !self_closing {
                            self.record_depth = 1;
                            continue;
                        }
                        self.take_record()
                    }
                    Token::EndTag { .. } => {
                        self.state = State::Epilog;
                        TopEvent::RootEnd
                    }
                    Token::Text { content } => TopEvent::Misc(Misc::Text(content.into_string())),
                    // Empty CDATA is invisible to the compact serializer.
                    Token::CData { content } if content.is_empty() => continue,
                    Token::CData { content } => TopEvent::Misc(Misc::CData(content.into_string())),
                    Token::Comment { content } => TopEvent::Misc(Misc::Comment(content)),
                    Token::ProcessingInstruction { target, data } => {
                        TopEvent::Misc(Misc::Pi { target, data })
                    }
                    Token::XmlDecl { .. } | Token::Doctype { .. } => {
                        return Err(StreamError::Unsupported(
                            "XML declaration/DOCTYPE inside the root element".to_string(),
                        ))
                    }
                },
                State::Epilog => match token {
                    Token::Comment { content } => TopEvent::TrailingMisc(Misc::Comment(content)),
                    Token::ProcessingInstruction { target, data } => {
                        TopEvent::TrailingMisc(Misc::Pi { target, data })
                    }
                    Token::Text { .. } | Token::CData { .. } => {
                        return Err(self.err_at(XmlErrorKind::TrailingContent))
                    }
                    Token::StartTag { .. } => return Err(self.err_at(XmlErrorKind::MultipleRoots)),
                    Token::EndTag { name } => {
                        let close = self.pull.interner().resolve(name).to_string();
                        return Err(self.err_at(XmlErrorKind::UnmatchedClose { close }));
                    }
                    Token::XmlDecl { .. } | Token::Doctype { .. } => {
                        return Err(StreamError::Unsupported(
                            "XML declaration/DOCTYPE after the root element".to_string(),
                        ))
                    }
                },
            };
            return Ok(Some(event));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<TopEvent> {
        let mut reader = TopLevelReader::new(input.as_bytes());
        let mut out = Vec::new();
        while let Some(ev) = reader.next_event().unwrap() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn splits_records_and_misc() {
        let evs = events(
            "<?xml version=\"1.0\"?><!-- head --><db id=\"1\">\n  \
             <book><t>A</t></book>mixed<book/>\n<!-- mid --></db><!-- tail -->",
        );
        assert_eq!(
            evs,
            vec![
                TopEvent::XmlDecl("version=\"1.0\"".into()),
                TopEvent::PrologMisc(Misc::Comment(" head ".into())),
                TopEvent::RootStart {
                    name: "db".into(),
                    open_tag: "<db id=\"1\">".into(),
                },
                TopEvent::Record("<book><t>A</t></book>".into()),
                TopEvent::Misc(Misc::Text("mixed".into())),
                TopEvent::Record("<book/>".into()),
                TopEvent::Misc(Misc::Comment(" mid ".into())),
                TopEvent::RootEnd,
                TopEvent::TrailingMisc(Misc::Comment(" tail ".into())),
            ]
        );
    }

    #[test]
    fn nested_records_capture_whole_subtree() {
        let evs = events("<db><shelf><book><t>X</t></book><book/></shelf></db>");
        assert!(matches!(
            &evs[1],
            TopEvent::Record(raw) if raw == "<shelf><book><t>X</t></book><book/></shelf>"
        ));
    }

    #[test]
    fn self_closing_root() {
        let evs = events("<db a=\"1\"/>");
        assert_eq!(evs.len(), 2);
        assert!(matches!(&evs[0], TopEvent::RootStart { name, .. } if name == "db"));
        assert_eq!(evs[1], TopEvent::RootEnd);
    }

    #[test]
    fn errors_mirror_the_dom_parser() {
        let fail = |input: &str| {
            let mut r = TopLevelReader::new(input.as_bytes());
            loop {
                match r.next_event() {
                    Err(e) => return e,
                    Ok(None) => panic!("expected an error for {input:?}"),
                    Ok(Some(_)) => {}
                }
            }
        };
        assert!(matches!(fail("  "), StreamError::Xml(_)));
        assert!(matches!(fail("<a/><b/>"), StreamError::Xml(e)
            if matches!(e.kind, XmlErrorKind::MultipleRoots)));
        assert!(matches!(fail("<a/>txt"), StreamError::Xml(e)
            if matches!(e.kind, XmlErrorKind::TrailingContent)));
        assert!(matches!(fail("<a><b>"), StreamError::Xml(e)
            if matches!(e.kind, XmlErrorKind::UnexpectedEof { .. })));
        assert!(matches!(fail("hello<a/>"), StreamError::Xml(e)
            if matches!(e.kind, XmlErrorKind::NoRootElement)));
    }

    /// A reader that returns at most `n` bytes per fill, to exercise
    /// chunk-boundary resumption.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        n: usize,
    }

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let take = self.n.min(self.data.len() - self.pos).min(buf.len());
            buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
            self.pos += take;
            Ok(take)
        }
    }

    #[test]
    fn tiny_chunks_and_multibyte_boundaries() {
        let input = "<db><r>中文 – héllo</r><r n=\"ü\"/></db>";
        let whole = events(input);
        for n in [1usize, 2, 3, 5] {
            let src = std::io::BufReader::with_capacity(
                8,
                Trickle {
                    data: input.as_bytes(),
                    pos: 0,
                    n,
                },
            );
            let mut reader = TopLevelReader::new(src);
            let mut out = Vec::new();
            while let Some(ev) = reader.next_event().unwrap() {
                out.push(ev);
            }
            assert_eq!(out, whole, "chunk size {n}");
        }
    }
}
