//! Byte-slice scanning primitives for the zero-copy lexer.
//!
//! Everything here operates on raw `&[u8]` slices so the hot scan loops
//! in [`crate::lexer`] and [`crate::escape`] never decode UTF-8 just to
//! skip over it. The delimiter hunts ([`memchr`], [`memchr2`],
//! [`memchr3`]) are hand-rolled SWAR loops over `usize` words — no
//! external dependencies — using the carry-free zero-byte test
//! `!((x & !HI) + !HI | x) & HI`, which marks exactly the zero bytes of
//! `x` with no inter-byte borrow, so it is exact for both first-match
//! *and* popcount-style counting.
//!
//! UTF-8 only ever matters at validation boundaries: the lexer consumes
//! whole spans bytewise and then calls [`advance_position`] once per
//! span to restore the line/column bookkeeping the old char-at-a-time
//! loop maintained (columns count *characters*, so multibyte runs are
//! tallied by skipping continuation bytes). The `char`-level helpers at
//! the bottom ([`char_at`], [`prefix_chars`]) exist so the
//! lexer's rare non-ASCII paths can decode a single scalar without the
//! scan files themselves touching `str::chars` — CI denies char
//! iteration there.

const W: usize = std::mem::size_of::<usize>();
/// `0x7F` in every byte lane.
const LO7: usize = usize::from_ne_bytes([0x7F; W]);
/// `0x80` in every byte lane.
const HI: usize = usize::from_ne_bytes([0x80; W]);

#[inline]
fn broadcast(b: u8) -> usize {
    usize::from_ne_bytes([b; W])
}

/// Returns a word whose per-byte high bit is set exactly where the
/// corresponding byte of `x` is zero. Carry-free: each lane is decided
/// independently, so the result is exact everywhere in the word (unlike
/// the classic `(x - LO) & !x & HI`, whose borrows corrupt lanes above
/// the first zero).
#[inline]
fn zero_byte_mask(x: usize) -> usize {
    !(((x & LO7) + LO7) | x) & HI
}

#[inline]
fn load(chunk: &[u8]) -> usize {
    usize::from_le_bytes(chunk.try_into().expect("chunk is word-sized"))
}

/// Byte index of the first match inside a nonzero lane mask. Lane order
/// follows `from_le_bytes`, so the lowest set bit names the earliest
/// byte regardless of host endianness.
#[inline]
fn first_lane(mask: usize) -> usize {
    (mask.trailing_zeros() as usize) / 8
}

/// Finds the first occurrence of `needle` in `hay`.
#[inline]
pub fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    let n = broadcast(needle);
    let mut chunks = hay.chunks_exact(W);
    let mut base = 0;
    for chunk in &mut chunks {
        let mask = zero_byte_mask(load(chunk) ^ n);
        if mask != 0 {
            return Some(base + first_lane(mask));
        }
        base += W;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|p| base + p)
}

/// Finds the first occurrence of either needle in `hay`.
#[inline]
pub fn memchr2(n1: u8, n2: u8, hay: &[u8]) -> Option<usize> {
    let b1 = broadcast(n1);
    let b2 = broadcast(n2);
    let mut chunks = hay.chunks_exact(W);
    let mut base = 0;
    for chunk in &mut chunks {
        let w = load(chunk);
        let mask = zero_byte_mask(w ^ b1) | zero_byte_mask(w ^ b2);
        if mask != 0 {
            return Some(base + first_lane(mask));
        }
        base += W;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == n1 || b == n2)
        .map(|p| base + p)
}

/// Finds the first occurrence of any of three needles in `hay`.
#[inline]
pub fn memchr3(n1: u8, n2: u8, n3: u8, hay: &[u8]) -> Option<usize> {
    let b1 = broadcast(n1);
    let b2 = broadcast(n2);
    let b3 = broadcast(n3);
    let mut chunks = hay.chunks_exact(W);
    let mut base = 0;
    for chunk in &mut chunks {
        let w = load(chunk);
        let mask = zero_byte_mask(w ^ b1) | zero_byte_mask(w ^ b2) | zero_byte_mask(w ^ b3);
        if mask != 0 {
            return Some(base + first_lane(mask));
        }
        base += W;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == n1 || b == n2 || b == n3)
        .map(|p| base + p)
}

/// Counts the UTF-8 scalar values in `bytes` (which must be valid
/// UTF-8): total bytes minus continuation bytes, the latter counted by
/// a SWAR test for the `10xxxxxx` bit pattern.
#[inline]
pub fn char_count(bytes: &[u8]) -> usize {
    // A byte is a continuation byte iff (b & 0xC0) == 0x80, i.e. the
    // masked byte XOR 0x80 is zero.
    const C0: usize = usize::from_ne_bytes([0xC0; W]);
    let mut chunks = bytes.chunks_exact(W);
    let mut cont = 0usize;
    for chunk in &mut chunks {
        cont += zero_byte_mask((load(chunk) & C0) ^ HI).count_ones() as usize;
    }
    cont += chunks
        .remainder()
        .iter()
        .filter(|&&b| (b & 0xC0) == 0x80)
        .count();
    bytes.len() - cont
}

/// Advances a 1-based `line`/`column` pair over a consumed span, in one
/// fused SWAR pass (newline count, last-newline tracking, and the
/// character count since it) instead of one update per character.
/// Columns count characters (not bytes), matching the per-`char`
/// bookkeeping the lexer historically did.
#[inline]
pub fn advance_position(bytes: &[u8], line: &mut u32, column: &mut u32) {
    const C0: usize = usize::from_ne_bytes([0xC0; W]);
    const NL: usize = usize::from_ne_bytes([b'\n'; W]);
    let mut chunks = bytes.chunks_exact(W);
    let mut lines = 0u32;
    // Characters seen since the last newline (the whole span if none).
    let mut col_chars = 0u32;
    let mut saw_nl = false;
    for chunk in &mut chunks {
        let w = load(chunk);
        let nl_mask = zero_byte_mask(w ^ NL);
        let cont_mask = zero_byte_mask((w & C0) ^ HI);
        if nl_mask == 0 {
            col_chars += W as u32 - cont_mask.count_ones();
        } else {
            lines += nl_mask.count_ones();
            saw_nl = true;
            // Restart the column count after this word's last newline.
            // Lane order follows `from_le_bytes`: higher lanes (later
            // bytes) sit at higher bit positions, so the highest set
            // bit names the last newline and a right shift isolates
            // the continuation markers of the bytes after it.
            let last = (usize::BITS - 1 - nl_mask.leading_zeros()) as usize / 8;
            let after = W - 1 - last;
            let after_cont = if after == 0 {
                0
            } else {
                (cont_mask >> (8 * (last + 1))).count_ones()
            };
            col_chars = after as u32 - after_cont;
        }
    }
    for &b in chunks.remainder() {
        if b == b'\n' {
            lines += 1;
            saw_nl = true;
            col_chars = 0;
        } else if (b & 0xC0) != 0x80 {
            col_chars += 1;
        }
    }
    *line += lines;
    if saw_nl {
        *column = 1 + col_chars;
    } else {
        *column += col_chars;
    }
}

/// Whether `s` consists entirely of whitespace. ASCII-only inputs (the
/// hot case: indentation between elements) are answered bytewise;
/// the first byte ≥ 0x80 falls back to the full Unicode
/// `char::is_whitespace` test so NBSP and friends keep their old
/// semantics.
#[inline]
pub fn is_all_whitespace(s: &str) -> bool {
    let bytes = s.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            0x09..=0x0D | b' ' => {}
            0x00..=0x7F => return false,
            // First non-ASCII byte is always a lead byte (we scan from
            // the start), so `i` is a char boundary.
            _ => return s[i..].chars().all(char::is_whitespace),
        }
    }
    true
}

/// Whether `b` is one of the ASCII whitespace bytes `char::is_whitespace`
/// accepts (TAB, LF, VT, FF, CR, SPACE).
#[inline]
pub fn is_ascii_whitespace_byte(b: u8) -> bool {
    matches!(b, 0x09..=0x0D | b' ')
}

/// Whether the ASCII byte `b` may start an XML name (`[A-Za-z_:]`).
/// Non-ASCII bytes return false — callers decode and use the `char`
/// predicate for those.
#[inline]
pub fn is_ascii_name_start_byte(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

/// Whether the ASCII byte `b` may continue an XML name.
#[inline]
pub fn is_ascii_name_byte(b: u8) -> bool {
    is_ascii_name_start_byte(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

/// Decodes the scalar starting at byte offset `i` of `s` (must be a
/// char boundary). Lives here so the lexer's non-ASCII fallbacks can
/// decode one scalar without char-iterating in a scan file.
#[inline]
pub fn char_at(s: &str, i: usize) -> Option<char> {
    s[i..].chars().next()
}

/// The longest prefix of `s` holding at most `n` characters — used for
/// truncating error payloads without char-indexing at the call site.
pub fn prefix_chars(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((end, _)) => &s[..end],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn memchr_matches_naive() {
        let hay = b"abcdefgh<ijklmnopq&rstuvwx\"yz'1234>5678";
        for needle in [b'<', b'&', b'"', b'\'', b'>', b'z', b'!'] {
            assert_eq!(
                memchr(needle, hay),
                hay.iter().position(|&b| b == needle),
                "needle {:?}",
                needle as char
            );
        }
    }

    #[test]
    fn memchr_finds_match_in_every_lane() {
        for len in 0..40 {
            for at in 0..len {
                let mut hay = vec![b'x'; len];
                hay[at] = b'<';
                assert_eq!(memchr(b'<', &hay), Some(at), "len {len} at {at}");
            }
        }
    }

    #[test]
    fn memchr_handles_high_bytes_without_false_positives() {
        // 0x80-adjacent lanes are where inexact SWAR formulas break.
        let hay = [0x80u8, 0xFF, 0x00, 0x7F, 0x81, b'<'];
        assert_eq!(memchr(b'<', &hay), Some(5));
        assert_eq!(memchr(0x00, &hay), Some(2));
        assert_eq!(memchr(0x80, &hay), Some(0));
    }

    #[test]
    fn memchr23_match_naive() {
        let hay = b"no specials here until a quote ' then \" and more text after";
        assert_eq!(
            memchr2(b'"', b'\'', hay),
            hay.iter().position(|&b| b == b'"' || b == b'\'')
        );
        assert_eq!(memchr3(b'<', b'>', b'&', b"plain"), None);
        assert_eq!(memchr3(b'<', b'>', b'&', b"01234567&plain"), Some(8));
    }

    #[test]
    fn char_count_multibyte() {
        for s in ["", "abc", "München", "中文字", "a\u{10348}b", "é"] {
            assert_eq!(char_count(s.as_bytes()), s.chars().count(), "{s:?}");
        }
    }

    #[test]
    fn advance_position_matches_per_char_walk() {
        for s in ["", "abc", "a\nb", "\n\n", "Mü\nnchen – x", "中\n文"] {
            let (mut line, mut column) = (3u32, 7u32);
            advance_position(s.as_bytes(), &mut line, &mut column);
            let (mut rl, mut rc) = (3u32, 7u32);
            for c in s.chars() {
                if c == '\n' {
                    rl += 1;
                    rc = 1;
                } else {
                    rc += 1;
                }
            }
            assert_eq!((line, column), (rl, rc), "{s:?}");
        }
    }

    #[test]
    fn whitespace_checks() {
        assert!(is_all_whitespace(""));
        assert!(is_all_whitespace(" \t\r\n"));
        assert!(is_all_whitespace("\u{a0}\u{2003} ")); // Unicode spaces
        assert!(!is_all_whitespace(" x "));
        assert!(!is_all_whitespace("中"));
    }

    #[test]
    fn prefix_chars_truncates_on_boundaries() {
        assert_eq!(prefix_chars("abcdef", 3), "abc");
        assert_eq!(prefix_chars("ab", 12), "ab");
        assert_eq!(prefix_chars("中文字", 2), "中文");
    }

    fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..64)
    }

    proptest! {
        #[test]
        fn memchr_equals_position(hay in arb_bytes(), needle in any::<u8>()) {
            prop_assert_eq!(memchr(needle, &hay), hay.iter().position(|&b| b == needle));
        }

        #[test]
        fn memchr3_equals_position(hay in arb_bytes()) {
            let (a, b, c) = (b'<', b'&', b'>');
            prop_assert_eq!(
                memchr3(a, b, c, &hay),
                hay.iter().position(|&x| x == a || x == b || x == c)
            );
        }

        #[test]
        fn char_count_equals_chars(s in "\\PC*") {
            prop_assert_eq!(char_count(s.as_bytes()), s.chars().count());
        }

        #[test]
        fn is_all_whitespace_equals_chars(s in "[ \\t\\r\\nxé中\\u{a0}]*") {
            prop_assert_eq!(is_all_whitespace(&s), s.chars().all(char::is_whitespace));
        }
    }
}
