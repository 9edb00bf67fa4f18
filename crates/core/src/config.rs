//! Encoder configuration: markable attributes, tolerances, selection
//! density, and the FD-awareness switch.

use wmx_schema::DataType;

/// The usability tolerance attached to a markable attribute — how far an
/// embedded mark may move the value while the data stays "usable" under
/// the owner's query templates.
#[derive(Debug, Clone, PartialEq)]
pub enum Tolerance {
    /// The value must stay exactly equal (such attributes cannot carry
    /// marks; used for key attributes and template parameters).
    Exact,
    /// An integer that may move by at most ±delta.
    IntegerDelta(i64),
    /// A decimal that may move by at most ±delta (compared after
    /// parsing).
    DecimalDelta(f64),
    /// Free text compared after whitespace normalization; marks live in
    /// trailing whitespace.
    TextWhitespace,
    /// A base64 raster image compared ignoring pixel LSBs; marks live in
    /// the LSB plane.
    ImageLsb,
}

impl Tolerance {
    /// Whether two values are equal within this tolerance. Byte-equal
    /// values match under every tolerance (even `"NaN"` as a decimal).
    pub fn matches(&self, a: &str, b: &str) -> bool {
        if a == b {
            return true;
        }
        match self {
            Tolerance::Exact => false,
            Tolerance::IntegerDelta(delta) => match (parse_i64(a), parse_i64(b)) {
                (Some(x), Some(y)) => x.abs_diff(y) <= delta.unsigned_abs(),
                _ => false,
            },
            Tolerance::DecimalDelta(delta) => match (parse_f64(a), parse_f64(b)) {
                (Some(x), Some(y)) => (x - y).abs() <= *delta,
                _ => false,
            },
            // Compares token sequences, so no normalized copy is built.
            Tolerance::TextWhitespace => a.split_whitespace().eq(b.split_whitespace()),
            Tolerance::ImageLsb => {
                match (wmx_crypto::base64::decode(a), wmx_crypto::base64::decode(b)) {
                    (Ok(x), Ok(y)) => {
                        x.len() == y.len() && x.iter().zip(&y).all(|(p, q)| (p >> 1) == (q >> 1))
                    }
                    _ => false,
                }
            }
        }
    }
}

fn parse_i64(s: &str) -> Option<i64> {
    s.trim().parse().ok()
}

fn parse_f64(s: &str) -> Option<f64> {
    s.trim().parse().ok()
}

/// Declaration of one attribute with watermark capacity: "specify the
/// data elements with watermark capacity" (demo part 1).
#[derive(Debug, Clone, PartialEq)]
pub struct MarkableAttr {
    /// Logical entity name.
    pub entity: String,
    /// Logical attribute name.
    pub attr: String,
    /// Data type (selects the embedding plug-in).
    pub data_type: DataType,
    /// Allowed perturbation.
    pub tolerance: Tolerance,
}

impl MarkableAttr {
    /// Integer attribute markable within ±delta.
    pub fn integer(entity: &str, attr: &str, delta: i64) -> Self {
        MarkableAttr {
            entity: entity.to_string(),
            attr: attr.to_string(),
            data_type: DataType::Integer,
            tolerance: Tolerance::IntegerDelta(delta),
        }
    }

    /// Decimal attribute markable within ±delta.
    pub fn decimal(entity: &str, attr: &str, delta: f64) -> Self {
        MarkableAttr {
            entity: entity.to_string(),
            attr: attr.to_string(),
            data_type: DataType::Decimal,
            tolerance: Tolerance::DecimalDelta(delta),
        }
    }

    /// Text attribute markable in trailing whitespace.
    pub fn text(entity: &str, attr: &str) -> Self {
        MarkableAttr {
            entity: entity.to_string(),
            attr: attr.to_string(),
            data_type: DataType::Text,
            tolerance: Tolerance::TextWhitespace,
        }
    }

    /// Base64 image attribute markable in the LSB plane.
    pub fn image(entity: &str, attr: &str) -> Self {
        MarkableAttr {
            entity: entity.to_string(),
            attr: attr.to_string(),
            data_type: DataType::Base64Image,
            tolerance: Tolerance::ImageLsb,
        }
    }
}

/// A *structure unit* declaration: the relative order of a multi-valued
/// attribute's values carries one bit (the paper's "structure units …
/// could contain bandwidth for watermarking"). Order marks cost no value
/// perturbation at all but are erased by sibling reordering — the
/// trade-off experiment E8 measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralAttr {
    /// Logical entity name.
    pub entity: String,
    /// Multi-valued logical attribute whose value order carries the bit.
    pub attr: String,
}

/// Encoder configuration.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Selection density: one unit in `gamma` carries a mark.
    pub gamma: u32,
    /// Attributes with watermark capacity.
    pub markable: Vec<MarkableAttr>,
    /// Multi-valued attributes whose sibling order carries bits.
    pub structural: Vec<StructuralAttr>,
    /// Treat FD-redundancy groups as single units (the WmXML behaviour).
    /// Disabling this reproduces the FD-unaware scheme the paper's
    /// challenge (C) warns about — the E5 ablation.
    pub use_fd_groups: bool,
    /// Error-correcting redundancy factor `r` (default 1 = off). When
    /// `r > 1` the embedded watermark is the base watermark repeated `r`
    /// times: each base bit is carried by `r` disjoint unit groups and
    /// detection decodes by majority *of group verdicts*, so a locally
    /// concentrated distortion that flips one group's votes is outvoted
    /// by the untouched groups. Selection plans are redundancy-agnostic
    /// (unit enumeration and PRF selection do not depend on `r`); only
    /// the bit-index width changes, so embed and detect must agree on
    /// `r` exactly like they must agree on the key.
    pub redundancy: u32,
}

impl EncoderConfig {
    /// A config marking the given attributes with `gamma` density and
    /// FD-group handling enabled.
    pub fn new(gamma: u32, markable: Vec<MarkableAttr>) -> Self {
        EncoderConfig {
            gamma,
            markable,
            structural: Vec::new(),
            use_fd_groups: true,
            redundancy: 1,
        }
    }

    /// Returns the config with error-correcting redundancy factor `r`
    /// (values `0` and `1` both mean "off").
    pub fn with_redundancy(mut self, r: u32) -> Self {
        self.redundancy = r.max(1);
        self
    }

    /// Adds a structure-unit declaration.
    pub fn with_structural(mut self, entity: &str, attr: &str) -> Self {
        self.structural.push(StructuralAttr {
            entity: entity.to_string(),
            attr: attr.to_string(),
        });
        self
    }

    /// Looks up the markable declaration for `(entity, attr)`.
    pub fn markable_for(&self, entity: &str, attr: &str) -> Option<&MarkableAttr> {
        self.markable
            .iter()
            .find(|m| m.entity == entity && m.attr == attr)
    }

    /// Returns the config with FD-group handling disabled (ablation).
    pub fn without_fd_groups(mut self) -> Self {
        self.use_fd_groups = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_crypto::base64;

    #[test]
    fn exact_tolerance() {
        let t = Tolerance::Exact;
        assert!(t.matches("a", "a"));
        assert!(!t.matches("a", "a "));
    }

    #[test]
    fn integer_tolerance() {
        let t = Tolerance::IntegerDelta(1);
        assert!(t.matches("1998", "1999"));
        assert!(t.matches("1998", "1997"));
        assert!(!t.matches("1998", "2000"));
        // Non-numeric falls back to exact.
        assert!(t.matches("n/a", "n/a"));
        assert!(!t.matches("n/a", "1998"));
    }

    #[test]
    fn integer_tolerance_near_the_limits() {
        let t = Tolerance::IntegerDelta(1);
        // |i64::MAX - (-1)| does not fit an i64; it must not wrap to a match.
        assert!(!t.matches("9223372036854775807", "-1"));
        assert!(!t.matches("-9223372036854775808", "9223372036854775807"));
        assert!(t.matches("9223372036854775807", "9223372036854775806"));
        assert!(t.matches("-9223372036854775808", "-9223372036854775807"));
        let wide = Tolerance::IntegerDelta(i64::MAX);
        assert!(wide.matches("0", "9223372036854775807"));
        assert!(!wide.matches("-1", "9223372036854775807"));
        assert!(Tolerance::IntegerDelta(i64::MIN).matches("-9223372036854775808", "0"));
    }

    #[test]
    fn decimal_tolerance() {
        let t = Tolerance::DecimalDelta(0.05);
        assert!(t.matches("9.99", "10.01"));
        assert!(!t.matches("9.99", "10.10"));
    }

    #[test]
    fn byte_equal_values_match_under_every_tolerance() {
        let tolerances = [
            Tolerance::Exact,
            Tolerance::IntegerDelta(0),
            Tolerance::IntegerDelta(-1),
            Tolerance::DecimalDelta(0.05),
            Tolerance::DecimalDelta(f64::NAN),
            Tolerance::TextWhitespace,
            Tolerance::ImageLsb,
        ];
        for t in &tolerances {
            for v in ["NaN", "inf", "-inf", "1998", "", " x ", "not base64!"] {
                assert!(t.matches(v, v), "{t:?} rejects {v:?} against itself");
            }
        }
        assert!(!Tolerance::DecimalDelta(0.05).matches("NaN", "nan "));
    }

    #[test]
    fn text_whitespace_tolerance() {
        let t = Tolerance::TextWhitespace;
        assert!(t.matches("Database  Systems", "Database Systems "));
        assert!(t.matches("a b", " a  b "));
        assert!(!t.matches("a b", "a c"));
        assert!(!t.matches("a b", "ab"));
        assert!(!t.matches("a b", "a b c"));
        assert!(t.matches("\t\n", " "));
    }

    #[test]
    fn image_lsb_tolerance() {
        let t = Tolerance::ImageLsb;
        let a = base64::encode(&[0b1010_1010, 0b1111_0000]);
        let b = base64::encode(&[0b1010_1011, 0b1111_0001]); // LSBs differ
        let c = base64::encode(&[0b1010_1000, 0b1111_0010]); // bit 1 differs
        assert!(t.matches(&a, &b));
        assert!(!t.matches(&a, &c));
        // Different lengths never match.
        let d = base64::encode(&[0b1010_1010]);
        assert!(!t.matches(&a, &d));
    }

    #[test]
    fn config_lookup() {
        let config = EncoderConfig::new(
            10,
            vec![
                MarkableAttr::integer("book", "year", 1),
                MarkableAttr::text("book", "abstract"),
            ],
        );
        assert!(config.markable_for("book", "year").is_some());
        assert!(config.markable_for("book", "title").is_none());
        assert!(config.use_fd_groups);
        assert!(!config.clone().without_fd_groups().use_fd_groups);
    }
}
