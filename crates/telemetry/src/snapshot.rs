//! Schema-versioned JSON export of a registry's current state.
//!
//! A snapshot is a point-in-time read of every registered metric,
//! serialized with the same hand-rolled [`crate::json`] writer the
//! bench reports use. The schema is versioned so downstream consumers
//! (the planned `wmx-serve` `/metrics` endpoint, CI validation) can
//! reject shapes they don't understand:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "counters": { "core.plan_cache.hits": 12 },
//!   "gauges": {},
//!   "histograms": {
//!     "stream.chunk_micros": {
//!       "count": 4, "sum": 180, "min": 11, "max": 93,
//!       "buckets": [ { "le": 1, "count": 0 }, …, { "le": "+Inf", "count": 0 } ]
//!     }
//!   }
//! }
//! ```
//!
//! No workspace code sets a gauge yet, so the `gauges` section of every
//! snapshot the binaries write is empty; it stays in the schema for
//! registries that do.

use crate::json::{obj, Json};
use crate::metrics::{Histogram, BUCKET_BOUNDS_MICROS, BUCKET_COUNT};
use crate::registry::{global, Registry};

/// Version stamped into every snapshot; bump on shape changes.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

fn histogram_json(h: &Histogram) -> Json {
    let mut buckets = Vec::with_capacity(BUCKET_COUNT);
    for (idx, &bound) in BUCKET_BOUNDS_MICROS.iter().enumerate() {
        buckets.push(obj(vec![
            ("le", Json::Number(bound as f64)),
            ("count", Json::Number(h.bucket_count(idx) as f64)),
        ]));
    }
    buckets.push(obj(vec![
        ("le", Json::String("+Inf".to_string())),
        (
            "count",
            Json::Number(h.bucket_count(BUCKET_COUNT - 1) as f64),
        ),
    ]));
    obj(vec![
        ("count", Json::Number(h.count() as f64)),
        ("sum", Json::Number(h.sum() as f64)),
        (
            "min",
            h.min().map_or(Json::Null, |v| Json::Number(v as f64)),
        ),
        (
            "max",
            h.max().map_or(Json::Null, |v| Json::Number(v as f64)),
        ),
        ("buckets", Json::Array(buckets)),
    ])
}

/// Serializes `registry`'s current state.
pub fn snapshot(registry: &Registry) -> Json {
    let counters = registry
        .counters()
        .into_iter()
        .map(|(name, c)| (name, Json::Number(c.get() as f64)))
        .collect();
    let gauges = registry
        .gauges()
        .into_iter()
        .map(|(name, g)| (name, Json::Number(g.get() as f64)))
        .collect();
    let histograms = registry
        .histograms()
        .into_iter()
        .map(|(name, h)| (name, histogram_json(&h)))
        .collect();
    obj(vec![
        (
            "schema_version",
            Json::Number(SNAPSHOT_SCHEMA_VERSION as f64),
        ),
        ("counters", Json::Object(counters)),
        ("gauges", Json::Object(gauges)),
        ("histograms", Json::Object(histograms)),
    ])
}

/// Serializes the process-wide registry's current state.
pub fn global_snapshot() -> Json {
    snapshot(global())
}

/// Checks that `value` is a well-formed version-1 snapshot.
///
/// Verified: the schema version matches, the three sections are objects
/// of the right value shapes, every histogram has exactly
/// [`BUCKET_COUNT`] buckets ending in `"+Inf"`, and bucket counts sum
/// to the histogram's `count`.
pub fn validate_snapshot(value: &Json) -> Result<(), String> {
    let version = value
        .get("schema_version")
        .and_then(Json::as_usize)
        .ok_or("snapshot is missing a numeric schema_version")?;
    if version as u64 != SNAPSHOT_SCHEMA_VERSION {
        return Err(format!(
            "snapshot schema_version {version} != supported {SNAPSHOT_SCHEMA_VERSION}"
        ));
    }
    for section in ["counters", "gauges"] {
        let Some(Json::Object(members)) = value.get(section) else {
            return Err(format!("snapshot {section} section must be an object"));
        };
        for (name, v) in members {
            if v.as_f64().is_none() {
                return Err(format!("{section} entry {name:?} is not a number"));
            }
        }
    }
    let Some(Json::Object(histograms)) = value.get("histograms") else {
        return Err("snapshot histograms section must be an object".to_string());
    };
    for (name, h) in histograms {
        let count = h
            .get("count")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("histogram {name:?} is missing count"))?;
        h.get("sum")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("histogram {name:?} is missing sum"))?;
        let buckets = h
            .get("buckets")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("histogram {name:?} is missing buckets"))?;
        if buckets.len() != BUCKET_COUNT {
            return Err(format!(
                "histogram {name:?} has {} buckets, expected {BUCKET_COUNT}",
                buckets.len()
            ));
        }
        let mut total = 0usize;
        for (idx, bucket) in buckets.iter().enumerate() {
            let is_last = idx == BUCKET_COUNT - 1;
            let le_ok = if is_last {
                bucket.get("le").and_then(Json::as_str) == Some("+Inf")
            } else {
                bucket.get("le").and_then(Json::as_usize)
                    == Some(BUCKET_BOUNDS_MICROS[idx] as usize)
            };
            if !le_ok {
                return Err(format!("histogram {name:?} bucket {idx} has a bad bound"));
            }
            total += bucket
                .get("count")
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("histogram {name:?} bucket {idx} is missing count"))?;
        }
        if total != count {
            return Err(format!(
                "histogram {name:?} buckets sum to {total} but count is {count}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Registry {
        let reg = Registry::new();
        reg.counter("a.hits").add(7);
        reg.gauge("b.level").set(-3);
        let h = reg.histogram("c.lat");
        h.record(4);
        h.record(9_999_999);
        reg
    }

    #[test]
    fn snapshot_roundtrips_through_the_parser_and_validates() {
        let reg = populated();
        let snap = snapshot(&reg);
        let reparsed = Json::parse(&snap.to_pretty_string()).unwrap();
        assert_eq!(reparsed, snap);
        validate_snapshot(&reparsed).unwrap();

        assert_eq!(
            reparsed
                .get("counters")
                .and_then(|c| c.get("a.hits"))
                .and_then(Json::as_usize),
            Some(7)
        );
        assert_eq!(
            reparsed
                .get("gauges")
                .and_then(|g| g.get("b.level"))
                .and_then(Json::as_f64),
            Some(-3.0)
        );
        let hist = reparsed
            .get("histograms")
            .and_then(|h| h.get("c.lat"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_usize), Some(2));
        assert_eq!(hist.get("min").and_then(Json::as_usize), Some(4));
        assert_eq!(hist.get("max").and_then(Json::as_usize), Some(9_999_999));
    }

    #[test]
    fn empty_histogram_exports_null_min_max() {
        let reg = Registry::new();
        reg.histogram("empty");
        let snap = snapshot(&reg);
        let hist = snap.get("histograms").and_then(|h| h.get("empty")).unwrap();
        assert_eq!(hist.get("min"), Some(&Json::Null));
        assert_eq!(hist.get("max"), Some(&Json::Null));
        validate_snapshot(&snap).unwrap();
    }

    #[test]
    fn validator_rejects_broken_shapes() {
        let reg = populated();
        let good = snapshot(&reg);

        let mut wrong_version = good.clone();
        if let Json::Object(members) = &mut wrong_version {
            members[0].1 = Json::Number(99.0);
        }
        assert!(validate_snapshot(&wrong_version)
            .unwrap_err()
            .contains("schema_version"));

        assert!(validate_snapshot(&Json::Object(vec![])).is_err());

        let mut bad_counter = good.clone();
        if let Json::Object(members) = &mut bad_counter {
            members[1].1 = Json::Object(vec![("x".into(), Json::Bool(true))]);
        }
        assert!(validate_snapshot(&bad_counter).is_err());

        let mut bad_count = good;
        if let Json::Object(members) = &mut bad_count {
            if let Json::Object(hists) = &mut members[3].1 {
                if let Json::Object(fields) = &mut hists[0].1 {
                    fields[0].1 = Json::Number(999.0);
                }
            }
        }
        assert!(validate_snapshot(&bad_count)
            .unwrap_err()
            .contains("sum to"));
    }

    #[test]
    fn global_snapshot_includes_globally_registered_metrics() {
        global().counter("test.snapshot.global_marker").inc();
        let snap = global_snapshot();
        validate_snapshot(&snap).unwrap();
        assert!(snap
            .get("counters")
            .and_then(|c| c.get("test.snapshot.global_marker"))
            .is_some());
    }
}
