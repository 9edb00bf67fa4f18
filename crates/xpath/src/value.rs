//! The XPath 1.0 value model: node-sets, strings, numbers, booleans.

use std::borrow::Cow;
use wmx_xml::{Document, NodeId};

/// A reference to a node in the XPath data model. Attributes are not
/// arena nodes in `wmx-xml`, so they are addressed as (element, name).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeRef {
    /// An element, text, CDATA, comment, PI, or the document node.
    Node(NodeId),
    /// An attribute of an element.
    Attribute {
        /// The owning element.
        element: NodeId,
        /// The attribute name.
        name: String,
    },
}

impl NodeRef {
    /// The XPath string-value of this node.
    pub fn string_value(&self, doc: &Document) -> String {
        match self {
            NodeRef::Node(id) => doc.text_content(*id),
            NodeRef::Attribute { element, name } => doc
                .attribute(*element, name)
                .map(str::to_string)
                .unwrap_or_default(),
        }
    }

    /// Whether this node's XPath string-value equals `expected`,
    /// without materializing the string-value. Equivalent to
    /// `self.string_value(doc) == expected` — the text pieces of the
    /// subtree are matched prefix-wise against `expected` instead of
    /// being concatenated. This is the predicate-comparison hot path:
    /// identity queries evaluate `[key = 'value']` once per candidate.
    pub fn string_value_eq(&self, doc: &Document, expected: &str) -> bool {
        match self {
            NodeRef::Node(id) => {
                let mut rest = expected;
                for n in doc.descendants(*id) {
                    if let Some(t) = doc.text(n) {
                        match rest.strip_prefix(t) {
                            Some(r) => rest = r,
                            None => return false,
                        }
                    }
                }
                rest.is_empty()
            }
            NodeRef::Attribute { element, name } => {
                doc.attribute(*element, name).unwrap_or("") == expected
            }
        }
    }

    /// The XPath string-value, borrowed from the document whenever it is
    /// one stored piece: a text or CDATA node, an element whose only
    /// child is one, or an attribute. Other nodes fall back to the owned
    /// [`Document::text_content`]. Equal to [`NodeRef::string_value`] in
    /// every case.
    pub fn string_value_cow<'d>(&self, doc: &'d Document) -> Cow<'d, str> {
        match self {
            NodeRef::Node(id) => {
                if let Some(text) = doc.text(*id) {
                    return Cow::Borrowed(text);
                }
                match doc.children(*id) {
                    [only] => match doc.text(*only) {
                        Some(text) => Cow::Borrowed(text),
                        None => Cow::Owned(doc.text_content(*id)),
                    },
                    _ => Cow::Owned(doc.text_content(*id)),
                }
            }
            NodeRef::Attribute { element, name } => {
                Cow::Borrowed(doc.attribute(*element, name).unwrap_or(""))
            }
        }
    }

    /// The element id, when this reference is an element node.
    pub fn as_element(&self, doc: &Document) -> Option<NodeId> {
        match self {
            NodeRef::Node(id) if doc.is_element(*id) => Some(*id),
            _ => None,
        }
    }

    /// The underlying node id (the owning element for attributes).
    pub fn anchor_node(&self) -> NodeId {
        match self {
            NodeRef::Node(id) => *id,
            NodeRef::Attribute { element, .. } => *element,
        }
    }

    /// The node's name: element name, attribute name, or empty.
    pub fn node_name(&self, doc: &Document) -> String {
        match self {
            NodeRef::Node(id) => doc.name(*id).unwrap_or_default().to_string(),
            NodeRef::Attribute { name, .. } => name.clone(),
        }
    }
}

/// An XPath evaluation result.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A set of nodes in document order.
    Nodes(Vec<NodeRef>),
    /// A string.
    Text(String),
    /// A number (IEEE double, NaN allowed per XPath).
    Number(f64),
    /// A boolean.
    Boolean(bool),
}

impl Value {
    /// XPath `boolean()` conversion.
    pub fn to_boolean(&self) -> bool {
        match self {
            Value::Nodes(ns) => !ns.is_empty(),
            Value::Text(s) => !s.is_empty(),
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Boolean(b) => *b,
        }
    }

    /// XPath `string()` conversion (first node's string-value for sets).
    pub fn to_text(&self, doc: &Document) -> String {
        match self {
            Value::Nodes(ns) => ns.first().map(|n| n.string_value(doc)).unwrap_or_default(),
            Value::Text(s) => s.clone(),
            Value::Number(n) => format_number(*n),
            Value::Boolean(b) => b.to_string(),
        }
    }

    /// XPath `number()` conversion.
    pub fn to_number(&self, doc: &Document) -> f64 {
        match self {
            Value::Nodes(_) | Value::Text(_) => parse_number(&self.to_text(doc)),
            Value::Number(n) => *n,
            Value::Boolean(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The node-set, or an empty slice view for non-node values.
    pub fn as_nodes(&self) -> &[NodeRef] {
        match self {
            Value::Nodes(ns) => ns,
            _ => &[],
        }
    }

    /// Consumes the value, returning its node-set (empty for non-nodes).
    pub fn into_nodes(self) -> Vec<NodeRef> {
        match self {
            Value::Nodes(ns) => ns,
            _ => Vec::new(),
        }
    }
}

/// XPath number→string rules (integers print without a decimal point).
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        return "NaN".to_string();
    }
    if n.is_infinite() {
        return if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string();
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// XPath string→number rules: trim whitespace, parse, else NaN.
pub fn parse_number(s: &str) -> f64 {
    s.trim().parse::<f64>().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_xml::parse;

    #[test]
    fn boolean_conversions() {
        assert!(!Value::Nodes(vec![]).to_boolean());
        assert!(Value::Text("x".into()).to_boolean());
        assert!(!Value::Text(String::new()).to_boolean());
        assert!(Value::Number(2.0).to_boolean());
        assert!(!Value::Number(0.0).to_boolean());
        assert!(!Value::Number(f64::NAN).to_boolean());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(-2.0), "-2");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
    }

    #[test]
    fn number_parsing() {
        assert_eq!(parse_number(" 42 "), 42.0);
        assert_eq!(parse_number("-1.5"), -1.5);
        assert!(parse_number("abc").is_nan());
        assert!(parse_number("").is_nan());
    }

    #[test]
    fn string_value_of_nodes() {
        let doc = parse("<a x=\"1\"><b>hi</b><b>there</b></a>").unwrap();
        let root = doc.root_element().unwrap();
        assert_eq!(NodeRef::Node(root).string_value(&doc), "hithere");
        let attr = NodeRef::Attribute {
            element: root,
            name: "x".into(),
        };
        assert_eq!(attr.string_value(&doc), "1");
        assert_eq!(attr.node_name(&doc), "x");
    }

    #[test]
    fn string_value_cow_borrows_single_pieces() {
        let doc =
            parse("<a x=\"1\"><b>hi</b><c/><d>x<![CDATA[y]]></d><e><![CDATA[z]]></e><!--n--></a>")
                .unwrap();
        let root = doc.root_element().unwrap();
        let mut nodes: Vec<NodeRef> = doc.descendants(root).map(NodeRef::Node).collect();
        nodes.push(NodeRef::Attribute {
            element: root,
            name: "x".into(),
        });
        nodes.push(NodeRef::Attribute {
            element: root,
            name: "missing".into(),
        });
        nodes.push(NodeRef::Node(doc.document_node()));
        for node in &nodes {
            assert_eq!(node.string_value_cow(&doc), node.string_value(&doc));
        }
        let named = |name: &str| NodeRef::Node(doc.first_child_element(root, name).unwrap());
        assert!(matches!(
            named("b").string_value_cow(&doc),
            Cow::Borrowed("hi")
        ));
        assert!(matches!(
            named("e").string_value_cow(&doc),
            Cow::Borrowed("z")
        ));
        // Split across text and CDATA: the owned fallback concatenates.
        assert!(matches!(named("d").string_value_cow(&doc), Cow::Owned(s) if s == "xy"));
        assert!(matches!(
            NodeRef::Node(root).string_value_cow(&doc),
            Cow::Owned(s) if s == "hixyz"
        ));
    }

    #[test]
    fn value_to_text_uses_first_node() {
        let doc = parse("<a><b>first</b><b>second</b></a>").unwrap();
        let root = doc.root_element().unwrap();
        let bs: Vec<NodeRef> = doc.child_elements(root).map(NodeRef::Node).collect();
        assert_eq!(Value::Nodes(bs).to_text(&doc), "first");
    }
}
