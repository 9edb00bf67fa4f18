//! Pins the keyed PRF to its definition while `Prf` caches the HMAC key
//! schedule.
//!
//! `Prf::new` keys one `HmacSha256` and every decision clones it, so a
//! wrong clone, a stale midstate or a key-length edge case (empty, one
//! block, longer than a block and hashed first) would silently change
//! which units carry a mark. These checks hold the outputs to a fresh
//! `HmacSha256::new(key)` per call over seeded random keys and ids, and
//! to golden values cross-checked against Python's `hmac`/`hashlib`.

use wmx_crypto::{hex_encode, HmacSha256, Prf, SecretKey};

/// SplitMix64: a seeded byte source, so every run draws the same cases.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// `HMAC(key, domain || 0 || id || suffix)` through a freshly keyed context.
fn reference(key: &[u8], domain: &str, id: &[u8], suffix: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(domain.as_bytes());
    mac.update(&[0]);
    mac.update(id);
    mac.update(suffix);
    mac.finalize()
}

fn reference_u64(key: &[u8], domain: &str, id: &[u8]) -> u64 {
    let digest = reference(key, domain, id, &[]);
    u64::from_be_bytes(digest[..8].try_into().unwrap())
}

#[test]
fn cached_key_state_matches_fresh_hmac() {
    let mut rng = Rng(0x5eed_2005);
    for key_len in [0usize, 1, 32, 63, 64, 65, 131] {
        let key = rng.bytes(key_len);
        let prf = Prf::new(SecretKey::new(key.clone()));
        for msg_len in 0..=200 {
            let id = rng.bytes(msg_len);
            let id = id.as_slice();
            let ctx = format!("key {key_len} bytes, id {msg_len} bytes");

            let select = reference_u64(&key, "wmxml/select/v1", id);
            for gamma in [1u32, 3, 7, 10] {
                assert_eq!(
                    prf.is_selected(id, gamma),
                    select.is_multiple_of(u64::from(gamma)),
                    "{ctx}, gamma {gamma}"
                );
            }
            let bit = reference_u64(&key, "wmxml/bit-index/v1", id);
            assert_eq!(prf.bit_index(id, 1000), (bit % 1000) as usize, "{ctx}");
            assert_eq!(
                prf.value_nonce(id),
                reference_u64(&key, "wmxml/value/v1", id),
                "{ctx}"
            );
            assert_eq!(
                prf.whiten_bit(id),
                reference_u64(&key, "wmxml/whiten/v1", id) & 1 == 1,
                "{ctx}"
            );

            let stream: Vec<u8> = prf.byte_stream(id).take(64).collect();
            for (counter, block) in stream.chunks(32).enumerate() {
                let mut suffix = vec![0u8];
                suffix.extend_from_slice(&(counter as u64).to_be_bytes());
                let expect = reference(&key, "wmxml/stream/v1", id, &suffix);
                assert_eq!(block, expect, "{ctx}, stream block {counter}");
            }
        }
    }
}

#[test]
fn cloned_keyed_hmac_equals_fresh() {
    let mut rng = Rng(42);
    for key_len in [0usize, 1, 64, 65, 131] {
        let key = rng.bytes(key_len);
        let keyed = HmacSha256::new(&key);
        for msg_len in [0usize, 1, 55, 56, 64, 119, 120, 200] {
            let msg = rng.bytes(msg_len);
            let mut fresh = HmacSha256::new(&key);
            fresh.update(&msg);
            let expect = fresh.finalize();

            let mut cloned = keyed.clone();
            cloned.update(&msg);
            assert_eq!(cloned.finalize(), expect, "key {key_len}, msg {msg_len}");

            // A clone taken mid-message carries the absorbed prefix too.
            let split = msg_len / 2;
            let mut partial = HmacSha256::new(&key);
            partial.update(&msg[..split]);
            let mut resumed = partial.clone();
            resumed.update(&msg[split..]);
            assert_eq!(resumed.finalize(), expect, "key {key_len}, msg {msg_len}");
        }
    }
}

#[test]
fn golden_outputs_are_unchanged() {
    struct Golden {
        id: &'static str,
        selected: [bool; 3],
        bit24: usize,
        bit64: usize,
        nonce: u64,
        whiten: bool,
        stream: &'static str,
    }
    let cases = [
        Golden {
            id: "book:DB Design",
            selected: [true, true, true],
            bit24: 16,
            bit64: 8,
            nonce: 0x65ee_06a9_d0c4_e09e,
            whiten: true,
            stream: "8286d5abcb23b3f2ecd4f997835b297a69a200f72418f41798a4aeab77658989\
                     b7fed8181d9dad5b6ce9b13fc0a11aef7b0f0838938519dab0b620703572de5f\
                     7a6ad3fb8b8e25f04341c81bd11d013b7f24a13d237c81cb39590276fcff792d\
                     15bdf70b",
        },
        Golden {
            id: "job:1234",
            selected: [true, true, true],
            bit24: 12,
            bit64: 12,
            nonce: 0xe444_23d2_9f9b_7260,
            whiten: false,
            stream: "96d433db0c612ab658c3becd744efa468fd0cb75b7d9d0386bae59558210fbbf\
                     30cbae0e13a51da5178536770dc207b743f696ee4eb24c329e16ea57e727cdb1\
                     66806f913396ec9b2bffa972060036dfe66d26b49dabedcf55b088a9a6998ccf\
                     297b5e6f",
        },
        Golden {
            // Domain tag, separator and id overflow the first inner block.
            id: "publications/book[@isbn='0-201-53771-0']/author[2]/surname#fd:editor->publisher",
            selected: [true, false, false],
            bit24: 12,
            bit64: 4,
            nonce: 0xc7d6_8315_38fd_cc1e,
            whiten: true,
            stream: "64629ec944512623209e3478d3608570847e24d6c30834738a1e19d1a626c3e4\
                     f2772a385fdc0e7967887ae1760ed3191ea298bfc2fe2a971c0fcdb9125a98fa\
                     794666ce72de90c59c6970b3570edd9b6b4483ef3ac37b4f01b39dc5029dd113\
                     970f1e28",
        },
    ];
    let prf = Prf::new(SecretKey::from_passphrase("wmxml-golden-key"));
    for g in cases {
        let selected = [1, 3, 10].map(|gamma| prf.is_selected(g.id, gamma));
        assert_eq!(selected, g.selected, "{}", g.id);
        assert_eq!(prf.bit_index(g.id, 24), g.bit24, "{}", g.id);
        assert_eq!(prf.bit_index(g.id, 64), g.bit64, "{}", g.id);
        assert_eq!(prf.value_nonce(g.id), g.nonce, "{}", g.id);
        assert_eq!(prf.whiten_bit(g.id), g.whiten, "{}", g.id);
        let stream: Vec<u8> = prf.byte_stream(g.id).take(100).collect();
        assert_eq!(hex_encode(&stream), g.stream, "{}", g.id);
    }
}

#[test]
fn debug_prints_only_the_redacted_key() {
    let passphrase = "hunter2-prf-secret";
    let prf = Prf::new(SecretKey::from_passphrase(passphrase));
    let dbg = format!("{prf:?}");
    assert_eq!(dbg, "Prf { key: SecretKey(<18 bytes>) }");
    assert!(!dbg.contains(passphrase));
    assert!(!dbg.contains(&hex_encode(passphrase.as_bytes())));
    // A midstate word would print as a run of decimal or hex digits;
    // the only number allowed is the two-digit key length.
    let longest_digit_run = dbg
        .split(|c: char| !c.is_ascii_hexdigit())
        .map(str::len)
        .max()
        .unwrap_or(0);
    assert!(longest_digit_run <= 2, "{dbg}");
}
