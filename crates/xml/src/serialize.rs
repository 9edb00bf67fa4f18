//! Serializers: compact, pretty-printed, and canonical.
//!
//! The canonical form sorts attributes by name and normalizes text
//! (CDATA flattened into text, comments/PIs dropped); two documents with
//! the same canonical string carry the same information for the purposes
//! of the watermarking experiments. It is *not* W3C C14N — it is the
//! comparison form used by tests and the usability metric.
//!
//! All serializers share one tree walk that appends to a `String` in
//! place: no per-node allocation, since markup punctuation is pushed as
//! static literals, names and clean text are copied straight from the
//! document, and escaping only allocates when a special character is
//! actually present.

use crate::dom::{Document, NodeId, NodeKind};
use crate::escape::{escape_attribute, escape_text};

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

fn write_prolog(doc: &Document, out: &mut String, pretty: bool) {
    if let Some(decl) = &doc.xml_decl {
        out.push_str("<?xml ");
        out.push_str(decl);
        out.push_str("?>");
        if pretty {
            out.push('\n');
        }
    }
    if let Some(doctype) = &doc.doctype {
        out.push_str("<!DOCTYPE ");
        out.push_str(doctype);
        out.push('>');
        if pretty {
            out.push('\n');
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

/// Appends one attribute (leading space included) to `out`. The escaped
/// value borrows when it contains no specials.
fn write_attribute(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    out.push_str(&escape_attribute(value));
    out.push('"');
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

fn write_node(doc: &Document, node: NodeId, out: &mut String, mode: WriteMode, depth: usize) {
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
            out.push('<');
            out.push_str(name);
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
            // that are *all* whitespace: the parser drops them as
            // non-information, so canonical(doc) must equal
            // canonical(parse(serialize(doc))).
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
                out.push_str("/>");
                return;
            }
            out.push('>');
            let element_only = children.iter().copied().filter(|&c| visible(c)).all(|c| {
                matches!(
                    doc.kind(c),
                    NodeKind::Comment(_) | NodeKind::Pi { .. } | NodeKind::Element { .. }
                )
            });
            if mode == WriteMode::Pretty && element_only {
                out.push('\n');
                for &child in children.iter().filter(|&&c| visible(c)) {
                    write_node(doc, child, out, mode, depth + 1);
                    out.push('\n');
                }
                indent(out, depth);
            } else {
                for &child in children.iter().filter(|&&c| visible(c)) {
                    write_node(doc, child, out, mode, depth + 1);
                }
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
        NodeKind::Text(text) => {
            out.push_str(&escape_text(text));
        }
        NodeKind::CData(text) => {
            if mode == WriteMode::Canonical {
                out.push_str(&escape_text(text));
            } else {
                out.push_str("<![CDATA[");
                out.push_str(text);
                out.push_str("]]>");
            }
        }
        NodeKind::Comment(text) => {
            if mode == WriteMode::Pretty && depth > 0 {
                indent(out, depth);
            }
            out.push_str("<!--");
            out.push_str(text);
            out.push_str("-->");
        }
        NodeKind::Pi { target, data } => {
            if mode == WriteMode::Pretty && depth > 0 {
                indent(out, depth);
            }
            let target = doc.resolve(*target);
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
    }
}

/// Two spaces per depth level, appended from a static slice.
fn indent(out: &mut String, depth: usize) {
    const PAD: &str = "                                "; // 16 levels
    let mut n = depth * 2;
    while n > 0 {
        let take = n.min(PAD.len());
        out.push_str(&PAD[..take]);
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
    }
}
