//! Serializers: compact, pretty-printed, and canonical.
//!
//! The canonical form sorts attributes by name and normalizes text
//! (CDATA flattened into text, comments/PIs dropped); two documents with
//! the same canonical string carry the same information for the purposes
//! of the watermarking experiments. It is *not* W3C C14N — it is the
//! comparison form used by tests and the usability metric.
//!
//! All serializers walk the tree once through a small [`Emit`] sink
//! abstraction. The `String` sink appends in place (no per-node
//! allocation: markup punctuation is emitted as static literals, names
//! and clean text borrow straight from the document, and escaping only
//! allocates when a special character is actually present). The segment
//! sink collects borrowed/owned spans and hands them to
//! [`write_document`] for vectored `writev`-style output.

use crate::dom::{Document, NodeId, NodeKind};
use crate::escape::{escape_attribute, escape_text};
use std::borrow::Cow;
use std::io;

/// Serializes the document compactly (no added whitespace).
pub fn to_string(doc: &Document) -> String {
    let mut out = String::new();
    to_string_into(doc, &mut out);
    out
}

/// Appends the compact serialization of `doc` to `out` without clearing
/// it. Streaming drivers call this with a reused buffer (cleared between
/// records) to avoid re-allocating output storage per document.
pub fn to_string_into(doc: &Document, out: &mut String) {
    write_prolog(doc, out, false);
    for &child in doc.children(doc.document_node()) {
        write_node(doc, child, out, WriteMode::Compact, 0);
    }
}

/// Serializes with two-space indentation, one element per line where the
/// content model allows it (elements with text content stay on one line).
pub fn to_pretty_string(doc: &Document) -> String {
    let mut out = String::new();
    write_prolog(doc, &mut out, true);
    for &child in doc.children(doc.document_node()) {
        write_node(doc, child, &mut out, WriteMode::Pretty, 0);
        out.push('\n');
    }
    out
}

/// Serializes a single subtree compactly — exactly the bytes
/// [`to_string`] would emit for this node as part of the whole document.
/// The `wmx-stream` engine uses this to emit records one at a time while
/// guaranteeing byte-identical output with the DOM pipeline.
pub fn node_to_string(doc: &Document, node: NodeId) -> String {
    let mut out = String::new();
    node_to_string_into(doc, node, &mut out);
    out
}

/// Appends the compact serialization of one subtree to `out`; the
/// buffer-reuse twin of [`node_to_string`].
pub fn node_to_string_into(doc: &Document, node: NodeId, out: &mut String) {
    write_node(doc, node, out, WriteMode::Compact, 0);
}

/// Serializes the canonical comparison form: attributes sorted by name,
/// CDATA flattened to text, comments and PIs omitted, no prolog.
pub fn to_canonical_string(doc: &Document) -> String {
    let mut out = String::new();
    if let Some(root) = doc.root_element() {
        write_node(doc, root, &mut out, WriteMode::Canonical, 0);
    }
    out
}

/// Writes the compact serialization of `doc` to `writer` using vectored
/// I/O: the tree is walked once into a list of borrowed spans (names,
/// clean text, static punctuation all point into the document or into
/// the binary's rodata) and flushed in [`io::IoSlice`] batches, so large
/// documents reach the writer without first being concatenated into one
/// contiguous allocation.
pub fn write_document<W: io::Write>(doc: &Document, writer: &mut W) -> io::Result<()> {
    let mut segs = Segments {
        segs: Vec::with_capacity(128),
    };
    write_prolog(doc, &mut segs, false);
    for &child in doc.children(doc.document_node()) {
        write_node(doc, child, &mut segs, WriteMode::Compact, 0);
    }
    write_segments(writer, &segs.segs)
}

/// Vectored twin of [`to_pretty_string`]: identical bytes, streamed to
/// `writer` in [`io::IoSlice`] batches.
pub fn write_document_pretty<W: io::Write>(doc: &Document, writer: &mut W) -> io::Result<()> {
    let mut segs = Segments {
        segs: Vec::with_capacity(128),
    };
    write_prolog(doc, &mut segs, true);
    for &child in doc.children(doc.document_node()) {
        write_node(doc, child, &mut segs, WriteMode::Pretty, 0);
        segs.lit("\n");
    }
    write_segments(writer, &segs.segs)
}

/// How many segments go into one `write_vectored` call. Linux caps a
/// single `writev` at 1024 iovecs; staying well under that keeps the
/// batch array small while still amortizing the syscall.
const VECTOR_BATCH: usize = 64;

/// Flushes `segs` to `writer` via `write_vectored`, hand-rolling the
/// partial-write advance (`write_all_vectored` is not stable): after a
/// short write the cursor moves `n` bytes forward across segment
/// boundaries and the next batch resumes mid-segment.
fn write_segments<W: io::Write>(writer: &mut W, segs: &[Cow<'_, str>]) -> io::Result<()> {
    let mut batch: Vec<io::IoSlice<'_>> = Vec::with_capacity(VECTOR_BATCH);
    let mut idx = 0; // first segment not fully written
    let mut skip = 0; // bytes of segs[idx] already written
    while idx < segs.len() {
        if segs[idx].len() <= skip {
            idx += 1;
            skip = 0;
            continue;
        }
        batch.clear();
        for seg in &segs[idx..] {
            if batch.len() == VECTOR_BATCH {
                break;
            }
            let bytes = seg.as_bytes();
            let bytes = if batch.is_empty() {
                &bytes[skip..]
            } else {
                bytes
            };
            if !bytes.is_empty() {
                batch.push(io::IoSlice::new(bytes));
            }
        }
        let mut n = match writer.write_vectored(&batch) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole document",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 && idx < segs.len() {
            let remaining = segs[idx].len() - skip;
            if n >= remaining {
                n -= remaining;
                idx += 1;
                skip = 0;
            } else {
                skip += n;
                n = 0;
            }
        }
    }
    Ok(())
}

/// A small stack of reusable `String` output buffers. The sequential
/// stream driver serializes one record at a time; recycling the buffer
/// through the pool keeps its capacity warm instead of re-growing a
/// fresh allocation per record.
#[derive(Default)]
pub struct BufferPool {
    free: Vec<String>,
}

/// Upper bound on pooled buffers; beyond this, released buffers are
/// simply dropped so a burst of users can't pin memory forever.
const POOL_CAP: usize = 8;

impl BufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands out a cleared buffer, reusing a pooled allocation when one
    /// is available.
    pub fn acquire(&mut self) -> String {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => String::new(),
        }
    }

    /// Returns a buffer to the pool for reuse (dropped if the pool is
    /// already at capacity).
    pub fn release(&mut self, buf: String) {
        if self.free.len() < POOL_CAP {
            self.free.push(buf);
        }
    }
}

/// Output sink for the single tree walk shared by every serializer.
///
/// `lit` takes markup punctuation (static, borrowed forever), `text`
/// takes spans that borrow from the document, and `cow` takes escaping
/// results that borrow when the input had no specials. The `String`
/// implementation appends immediately; [`Segments`] defers the copy to
/// the vectored writer.
trait Emit<'d> {
    fn lit(&mut self, s: &'static str);
    fn text(&mut self, s: &'d str);
    fn cow(&mut self, s: Cow<'d, str>);
}

impl<'d> Emit<'d> for String {
    fn lit(&mut self, s: &'static str) {
        self.push_str(s);
    }
    fn text(&mut self, s: &'d str) {
        self.push_str(s);
    }
    fn cow(&mut self, s: Cow<'d, str>) {
        self.push_str(&s);
    }
}

/// Segment collector for [`write_document`]: the document is rendered as
/// a sequence of borrowed/owned spans instead of one concatenated
/// buffer.
struct Segments<'d> {
    segs: Vec<Cow<'d, str>>,
}

impl<'d> Emit<'d> for Segments<'d> {
    fn lit(&mut self, s: &'static str) {
        self.segs.push(Cow::Borrowed(s));
    }
    fn text(&mut self, s: &'d str) {
        self.segs.push(Cow::Borrowed(s));
    }
    fn cow(&mut self, s: Cow<'d, str>) {
        self.segs.push(s);
    }
}

fn write_prolog<'d, E: Emit<'d>>(doc: &'d Document, out: &mut E, pretty: bool) {
    if let Some(decl) = &doc.xml_decl {
        out.lit("<?xml ");
        out.text(decl);
        out.lit("?>");
        if pretty {
            out.lit("\n");
        }
    }
    if let Some(doctype) = &doc.doctype {
        out.lit("<!DOCTYPE ");
        out.text(doctype);
        out.lit(">");
        if pretty {
            out.lit("\n");
        }
    }
}

/// The compact form of one attribute, leading space included:
/// ` name="escaped value"`. Exposed so the streaming reader renders the
/// root open tag with exactly the serializer's formatting.
pub fn attribute_text(name: &str, value: &str) -> String {
    let mut out = String::new();
    write_attribute(&mut out, name, value);
    out
}

/// Writes one attribute (leading space included) straight into the
/// sink. The escaped value borrows when it contains no specials.
fn write_attribute<'d, E: Emit<'d>>(out: &mut E, name: &'d str, value: &'d str) {
    out.lit(" ");
    out.text(name);
    out.lit("=\"");
    out.cow(escape_attribute(value));
    out.lit("\"");
}

/// The compact form of a comment: `<!--content-->`.
pub fn comment_text(content: &str) -> String {
    let mut out = String::with_capacity(content.len() + 7);
    out.push_str("<!--");
    out.push_str(content);
    out.push_str("-->");
    out
}

/// The compact form of a CDATA section: `<![CDATA[content]]>`.
pub fn cdata_text(content: &str) -> String {
    let mut out = String::with_capacity(content.len() + 12);
    out.push_str("<![CDATA[");
    out.push_str(content);
    out.push_str("]]>");
    out
}

/// The compact form of a processing instruction: `<?target data?>`
/// (no space when `data` is empty).
pub fn pi_text(target: &str, data: &str) -> String {
    let mut out = String::with_capacity(target.len() + data.len() + 5);
    out.push_str("<?");
    out.push_str(target);
    if !data.is_empty() {
        out.push(' ');
        out.push_str(data);
    }
    out.push_str("?>");
    out
}

#[derive(Clone, Copy, PartialEq)]
enum WriteMode {
    Compact,
    Pretty,
    Canonical,
}

fn write_node<'d, E: Emit<'d>>(
    doc: &'d Document,
    node: NodeId,
    out: &mut E,
    mode: WriteMode,
    depth: usize,
) {
    match doc.kind(node) {
        NodeKind::Document => {
            for &child in doc.children(node) {
                write_node(doc, child, out, mode, depth);
            }
        }
        NodeKind::Element { name, attributes } => {
            let name = doc.resolve(*name);
            if mode == WriteMode::Pretty && depth > 0 {
                indent(out, depth);
            }
            out.lit("<");
            out.text(name);
            if mode == WriteMode::Canonical {
                let mut sorted: Vec<_> = attributes.iter().collect();
                sorted.sort_by(|a, b| doc.attr_name(a).cmp(doc.attr_name(b)));
                for attr in sorted {
                    write_attribute(out, doc.attr_name(attr), attr.value.as_str());
                }
            } else {
                for attr in attributes {
                    write_attribute(out, doc.attr_name(attr), attr.value.as_str());
                }
            }
            let children = doc.children(node);
            // Empty text nodes serialize to nothing; treating them as
            // invisible keeps `<a></a>` and `<a/>` interchangeable. The
            // canonical comparison form additionally drops text nodes
            // that are *all* whitespace: the default parse convention
            // (`skip_whitespace_text`) treats them as non-information, so
            // canonical(doc) must equal canonical(parse(serialize(doc))).
            let visible = |c: NodeId| match (mode, doc.kind(c)) {
                (WriteMode::Canonical, NodeKind::Text(t) | NodeKind::CData(t)) => {
                    !crate::scan::is_all_whitespace(t)
                }
                (WriteMode::Canonical, NodeKind::Element { .. }) => true,
                (WriteMode::Canonical, _) => false,
                (_, NodeKind::Text(t) | NodeKind::CData(t)) => !t.is_empty(),
                _ => true,
            };
            if !children.iter().any(|&c| visible(c)) {
                out.lit("/>");
                return;
            }
            out.lit(">");
            let element_only = children.iter().copied().filter(|&c| visible(c)).all(|c| {
                matches!(
                    doc.kind(c),
                    NodeKind::Comment(_) | NodeKind::Pi { .. } | NodeKind::Element { .. }
                )
            });
            if mode == WriteMode::Pretty && element_only {
                out.lit("\n");
                for &child in children.iter().filter(|&&c| visible(c)) {
                    write_node(doc, child, out, mode, depth + 1);
                    out.lit("\n");
                }
                indent(out, depth);
            } else {
                for &child in children.iter().filter(|&&c| visible(c)) {
                    write_node(doc, child, out, mode, depth + 1);
                }
            }
            out.lit("</");
            out.text(name);
            out.lit(">");
        }
        NodeKind::Text(text) => {
            out.cow(escape_text(text));
        }
        NodeKind::CData(text) => {
            if mode == WriteMode::Canonical {
                out.cow(escape_text(text));
            } else {
                out.lit("<![CDATA[");
                out.text(text);
                out.lit("]]>");
            }
        }
        NodeKind::Comment(text) => {
            if mode == WriteMode::Pretty && depth > 0 {
                indent(out, depth);
            }
            out.lit("<!--");
            out.text(text);
            out.lit("-->");
        }
        NodeKind::Pi { target, data } => {
            if mode == WriteMode::Pretty && depth > 0 {
                indent(out, depth);
            }
            let target = doc.resolve(*target);
            out.lit("<?");
            out.text(target);
            if !data.is_empty() {
                out.lit(" ");
                out.text(data);
            }
            out.lit("?>");
        }
    }
}

/// Two spaces per depth level, emitted as static slices so the segment
/// sink never allocates for indentation.
fn indent<'d, E: Emit<'d>>(out: &mut E, depth: usize) {
    const PAD: &str = "                                "; // 16 levels
    let mut n = depth * 2;
    while n > 0 {
        let take = n.min(PAD.len());
        out.lit(&PAD[..take]);
        n -= take;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use proptest::prelude::*;

    #[test]
    fn compact_roundtrip() {
        let input = "<db><book publisher=\"mkp\"><title>R &amp; D</title></book></db>";
        let doc = parse(input).unwrap();
        assert_eq!(to_string(&doc), input);
    }

    #[test]
    fn self_closing_for_empty_elements() {
        let doc = parse("<a><b></b></a>").unwrap();
        assert_eq!(to_string(&doc), "<a><b/></a>");
    }

    #[test]
    fn prolog_preserved() {
        let input = "<?xml version=\"1.0\"?><!DOCTYPE db><db/>";
        let doc = parse(input).unwrap();
        assert_eq!(to_string(&doc), input);
    }

    #[test]
    fn pretty_print_shape() {
        let doc = parse("<db><book><title>T</title><year>1998</year></book></db>").unwrap();
        let pretty = to_pretty_string(&doc);
        assert_eq!(
            pretty,
            "<db>\n  <book>\n    <title>T</title>\n    <year>1998</year>\n  </book>\n</db>\n"
        );
    }

    #[test]
    fn pretty_print_reparses_identically() {
        let input = "<db><book publisher=\"mkp\"><title>A &lt; B</title><year>1998</year></book><book/></db>";
        let doc = parse(input).unwrap();
        let pretty = to_pretty_string(&doc);
        let reparsed = parse(&pretty).unwrap();
        assert_eq!(to_canonical_string(&doc), to_canonical_string(&reparsed));
    }

    #[test]
    fn canonical_sorts_attributes() {
        let a = parse("<x b=\"2\" a=\"1\"/>").unwrap();
        let b = parse("<x a=\"1\" b=\"2\"/>").unwrap();
        assert_eq!(to_canonical_string(&a), to_canonical_string(&b));
    }

    #[test]
    fn canonical_flattens_cdata_and_drops_comments() {
        let a = parse("<x><![CDATA[1<2]]><!-- note --></x>").unwrap();
        let b = parse("<x>1&lt;2</x>").unwrap();
        assert_eq!(to_canonical_string(&a), to_canonical_string(&b));
    }

    #[test]
    fn canonical_detects_value_differences() {
        let a = parse("<x><y>1</y></x>").unwrap();
        let b = parse("<x><y>2</y></x>").unwrap();
        assert_ne!(to_canonical_string(&a), to_canonical_string(&b));
    }

    #[test]
    fn cdata_roundtrips_in_compact_form() {
        let input = "<x><![CDATA[if (a<b && c>d) {}]]></x>";
        let doc = parse(input).unwrap();
        assert_eq!(to_string(&doc), input);
    }

    #[test]
    fn special_characters_roundtrip() {
        let input = "<x attr=\"a&amp;b&quot;c\">&lt;tag&gt; &amp; text</x>";
        let doc = parse(input).unwrap();
        let reparsed = parse(&to_string(&doc)).unwrap();
        assert_eq!(to_canonical_string(&doc), to_canonical_string(&reparsed));
    }

    #[test]
    fn to_string_into_reuses_buffer() {
        let doc = parse("<a x=\"1\">t</a>").unwrap();
        let mut buf = String::from("junk");
        buf.clear();
        to_string_into(&doc, &mut buf);
        assert_eq!(buf, to_string(&doc));
        let cap = buf.capacity();
        buf.clear();
        to_string_into(&doc, &mut buf);
        assert_eq!(buf, to_string(&doc));
        assert!(buf.capacity() >= cap);
    }

    #[test]
    fn write_document_matches_to_string() {
        let input = "<?xml version=\"1.0\"?><db><book publisher=\"mkp\"><title>R &amp; D</title><!--n--><![CDATA[x<y]]></book><?pi data?></db>";
        let doc = parse(input).unwrap();
        let mut out = Vec::new();
        write_document(&doc, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), to_string(&doc));
    }

    #[test]
    fn write_document_pretty_matches_to_pretty_string() {
        let doc = parse("<db><book><title>T</title><year>1998</year></book><note/></db>").unwrap();
        let mut out = Vec::new();
        write_document_pretty(&doc, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), to_pretty_string(&doc));
    }

    /// Writer that accepts at most `cap` bytes per call and only ever
    /// consumes from the first buffer of a vectored batch, exercising
    /// the partial-write advance in `write_segments`.
    struct Trickle {
        out: Vec<u8>,
        cap: usize,
    }

    impl io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            match bufs.iter().find(|b| !b.is_empty()) {
                Some(first) => self.write(first),
                None => Ok(0),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_document_survives_partial_writes() {
        let input = "<db><book publisher=\"mkp\"><title>R &amp; D</title></book><book/></db>";
        let doc = parse(input).unwrap();
        for cap in [1, 2, 3, 7] {
            let mut w = Trickle {
                out: Vec::new(),
                cap,
            };
            write_document(&doc, &mut w).unwrap();
            assert_eq!(String::from_utf8(w.out).unwrap(), to_string(&doc));
        }
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let mut pool = BufferPool::new();
        let mut buf = pool.acquire();
        buf.push_str("0123456789abcdef");
        let cap = buf.capacity();
        pool.release(buf);
        let recycled = pool.acquire();
        assert!(recycled.is_empty());
        assert!(recycled.capacity() >= cap);
    }

    /// Strategy producing small random documents as strings via a random
    /// tree we then serialize, to test parse∘serialize = id on the DOM.
    fn arb_tree(depth: u32) -> BoxedStrategy<String> {
        let name = prop::sample::select(vec!["a", "b", "item", "rec", "x-y", "_n"]);
        let text = "[ -~&&[^<&>\"']]{0,12}"; // printable ASCII minus XML specials
        let leaf = (name.clone(), text).prop_map(|(n, t)| {
            if t.is_empty() {
                format!("<{n}/>")
            } else {
                format!("<{n}>{t}</{n}>")
            }
        });
        if depth == 0 {
            return leaf.boxed();
        }
        let attr_val = "[ -~&&[^<&>\"']]{0,8}";
        (
            name,
            proptest::option::of(attr_val),
            prop::collection::vec(arb_tree(depth - 1), 0..4),
        )
            .prop_map(|(n, attr, kids)| {
                let attrs = attr.map(|v| format!(" k=\"{v}\"")).unwrap_or_default();
                if kids.is_empty() {
                    format!("<{n}{attrs}/>")
                } else {
                    format!("<{n}{attrs}>{}</{n}>", kids.join(""))
                }
            })
            .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn parse_serialize_fixpoint(tree in arb_tree(3)) {
            let doc = parse(&tree).unwrap();
            let once = to_string(&doc);
            let doc2 = parse(&once).unwrap();
            let twice = to_string(&doc2);
            prop_assert_eq!(once, twice);
            prop_assert_eq!(to_canonical_string(&doc), to_canonical_string(&doc2));
        }

        #[test]
        fn write_document_matches_to_string_prop(tree in arb_tree(3)) {
            let doc = parse(&tree).unwrap();
            let mut out = Vec::new();
            write_document(&doc, &mut out).unwrap();
            prop_assert_eq!(String::from_utf8(out).unwrap(), to_string(&doc));
        }
    }
}
