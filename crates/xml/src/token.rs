//! Token model produced by the [lexer](crate::lexer).
//!
//! Tag and attribute names are interned at lex time: [`Token::StartTag`],
//! [`Token::EndTag`], and [`SymAttribute`] carry [`Sym`] handles into the
//! lexer's [`Interner`](crate::intern::Interner) (which the tree parser
//! later installs into the built [`Document`](crate::Document), so DOM
//! construction never re-hashes a name). Symbol assignment is
//! deterministic in first-occurrence order, so tokenizing the same input
//! — batched or chunked through the pull parser — yields identical
//! tokens. Consumers that need owned name strings resolve through the
//! producing lexer/pull-parser's interner.
//!
//! Text runs, CDATA content, and attribute values are [`XmlText`]:
//! zero-copy spans into the parse buffer when lexing from an owned
//! input and the run needs no unescaping, owned strings otherwise.
//! `XmlText` compares by content, so token equality is
//! representation-blind.

use crate::error::Position;
use crate::intern::Sym;
use crate::text::XmlText;

/// An attribute as it appears in a start tag: interned name, value
/// already unescaped. The wire form inside [`Token::StartTag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymAttribute {
    /// Attribute name, interned in the producing lexer's table.
    pub name: Sym,
    /// Unescaped attribute value.
    pub value: XmlText,
}

/// One lexical event in the document stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<?xml version="1.0" ...?>`
    XmlDecl {
        /// Raw content between `<?xml` and `?>`.
        content: String,
    },
    /// `<!DOCTYPE ...>` — content is kept verbatim but not interpreted.
    Doctype {
        /// Raw content between `<!DOCTYPE` and the matching `>`.
        content: String,
    },
    /// `<name attr="v" ...>` or `<name ... />`.
    StartTag {
        /// Element name, interned.
        name: Sym,
        /// Attributes in document order.
        attributes: Vec<SymAttribute>,
        /// Whether the tag was self-closing (`/>`).
        self_closing: bool,
    },
    /// `</name>`.
    EndTag {
        /// Element name, interned.
        name: Sym,
    },
    /// Character data between tags, unescaped. Adjacent text/CDATA runs
    /// are *not* merged by the lexer; the parser merges them.
    Text {
        /// Unescaped text — a zero-copy span when no reference appeared.
        content: XmlText,
    },
    /// `<![CDATA[...]]>` content (never contains `]]>`).
    CData {
        /// Verbatim CDATA content — a zero-copy span when possible.
        content: XmlText,
    },
    /// `<!-- ... -->`.
    Comment {
        /// Verbatim comment body.
        content: String,
    },
    /// `<?target data?>`.
    ProcessingInstruction {
        /// PI target.
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

/// A token plus the source position where it started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Position of the token's first character.
    pub position: Position,
}
