#!/usr/bin/env sh
# Hot-path allocation guard: the embed/detect loops in wmx-core and the
# per-record loop in wmx-stream must stay symbol-native. Unit identity
# is a compact UnitKey fed to the PRF incrementally; textual ids are
# rendered only by UnitKey::display for marked units; record
# mini-documents and wrapper tags are assembled with push_str into
# pre-sized buffers, and the streaming driver writes output pieces with
# write_all. A `format!` creeping back into the non-test region of these
# files would put a per-unit (or per-record) allocation on the hottest
# loop, so CI denies it here (tests below `#[cfg(test)]` are
# exempt). The streaming engine additionally must never parse a query
# per record — every access step is compiled once into the cached
# SelectionPlan — so `Query::compile` is denied there too.
set -eu

cd "$(dirname "$0")/.."
status=0
for f in crates/core/src/encoder.rs crates/core/src/decoder.rs crates/stream/src/engine.rs \
         crates/stream/src/report.rs crates/stream/src/driver.rs; do
    hits=$(awk '/#\[cfg\(test\)\]/{exit} /format!/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        echo "error: format! on the embed/detect hot path (use UnitKey/display or push_str):" >&2
        printf '%s\n' "$hits" >&2
        status=1
    fi
done
# The forensic vote path extends the same contract: per-unit tallies
# are accumulated against the interned UnitKey (ForensicTallies::observe
# in the decode loops); textual unit ids are rendered exactly once, by
# ForensicsReport::from_tallies. A `.display(` creeping into the
# non-test region of the detect-side files would put a per-unit string
# render on every vote, so it is denied here. forensics.rs hosts the
# sanctioned render pass and engine.rs's embed path renders ids only
# for marked units (StoredQuery), so both stay exempt.
for f in crates/core/src/decoder.rs crates/stream/src/report.rs; do
    hits=$(awk '/#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /\.display\(/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        echo "error: per-vote unit-id rendering on the forensic tally path (render once via ForensicsReport::from_tallies):" >&2
        printf '%s\n' "$hits" >&2
        status=1
    fi
done
hits=$(awk '/#\[cfg\(test\)\]/{exit} /Query::compile/{print FILENAME ":" FNR ": " $0}' crates/stream/src/engine.rs)
if [ -n "$hits" ]; then
    echo "error: per-record query compilation in the streaming engine (use the cached SelectionPlan):" >&2
    printf '%s\n' "$hits" >&2
    status=1
fi
# The telemetry record path carries the same contract one step further:
# a Counter::inc/Histogram::record sits inside the per-record loops, so
# its module must stay entirely lock-free and allocation-free — no
# Mutex/RwLock, no String/Vec/Box construction, no formatting. Comment
# lines are exempt (the module documents exactly this rule); tests
# below #[cfg(test)] are exempt as everywhere else.
hits=$(awk '/#\[cfg\(test\)\]/{exit}
    /^[[:space:]]*\/\//{next}
    /Mutex|RwLock|format!|String|Vec<|vec!|Box::|to_string|to_owned/{print FILENAME ":" FNR ": " $0}' \
    crates/telemetry/src/metrics.rs)
if [ -n "$hits" ]; then
    echo "error: lock or allocation on the telemetry record path (metrics.rs must stay Relaxed-atomics-only):" >&2
    printf '%s\n' "$hits" >&2
    status=1
fi
# The byte-scanning substrate contract: the lexer and escaper scan raw
# bytes (SWAR word loops in scan.rs) and only decode UTF-8 at validation
# boundaries through the helpers scan.rs exposes. A `chars()` or
# `char_indices()` iteration creeping back into the non-test region of
# lexer.rs or escape.rs would put a per-character decode on the hottest
# loop, so CI denies it here. Comment lines and tests below
# #[cfg(test)] are exempt; char-decoding helpers live in scan.rs, which
# is deliberately not covered.
for f in crates/xml/src/lexer.rs crates/xml/src/escape.rs; do
    hits=$(awk '/#\[cfg\(test\)\]/{exit}
        /^[[:space:]]*\/\//{next}
        /\.chars\(\)|\.char_indices\(\)/{print FILENAME ":" FNR ": " $0}' "$f")
    if [ -n "$hits" ]; then
        echo "error: per-char decoding on the byte-scanning hot path (use the scan.rs helpers):" >&2
        printf '%s\n' "$hits" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "hot-path format! guard: clean"
fi
exit $status
