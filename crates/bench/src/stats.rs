//! Latency-sample statistics and the pretty JSON renderer behind the
//! committed `BENCH_*.json` artifacts.
//!
//! The artifacts are meant to be read in two ways: by `bench_diff`
//! (machine) and in review diffs (human), so values are rounded to a
//! fixed precision and objects are rendered with stable indentation —
//! regenerating an artifact produces a minimal, readable diff.

use qxmap_serve::Json;

/// Milliseconds rounded to microsecond precision — enough to tell a
/// cache hit from a solve, coarse enough to keep artifacts readable.
pub fn round_ms(ms: f64) -> f64 {
    (ms * 1e3).round() / 1e3
}

/// The measuring host as an artifact section, `{"cores": N}` (`null`
/// when the platform cannot tell): a parallel phase's numbers mean
/// something different on a 1-core runner than on an 8-core laptop.
pub fn host_json() -> Json {
    let cores =
        std::thread::available_parallelism().map_or(Json::Null, |n| Json::num(n.get() as u64));
    Json::obj([("cores", cores)])
}

/// The `p`-quantile of `samples` by the nearest-rank method (the sample
/// at rank `⌈p·n⌉`), matching the daemon's histogram convention of never
/// under-reporting a latency promise. Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Renders a batch of latency samples (milliseconds) as the artifact's
/// standard `{count, p50_ms, p95_ms, p99_ms, mean_ms, max_ms}` object.
pub fn latency_json(samples: &[f64]) -> Json {
    let count = samples.len();
    let mean = if count == 0 {
        0.0
    } else {
        samples.iter().sum::<f64>() / count as f64
    };
    let max = samples.iter().fold(0.0f64, |a, &b| a.max(b));
    Json::obj([
        ("count", Json::num(count as u64)),
        ("p50_ms", Json::Num(round_ms(percentile(samples, 0.50)))),
        ("p95_ms", Json::Num(round_ms(percentile(samples, 0.95)))),
        ("p99_ms", Json::Num(round_ms(percentile(samples, 0.99)))),
        ("mean_ms", Json::Num(round_ms(mean))),
        ("max_ms", Json::Num(round_ms(max))),
    ])
}

/// Renders `json` with two-space indentation. Arrays of scalars stay on
/// one line; arrays of containers and all objects go multi-line.
pub fn pretty(json: &Json) -> String {
    let mut out = String::new();
    render(json, 0, &mut out);
    out.push('\n');
    out
}

fn render(json: &Json, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    match json {
        Json::Arr(items)
            if !items.is_empty()
                && items
                    .iter()
                    .any(|i| matches!(i, Json::Arr(_) | Json::Obj(_))) =>
        {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                render(item, depth + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            out.push_str(&close);
            out.push(']');
        }
        Json::Obj(pairs) if !pairs.is_empty() => {
            out.push_str("{\n");
            for (i, (key, value)) in pairs.iter().enumerate() {
                out.push_str(&pad);
                out.push_str(&Json::str(key.clone()).to_string());
                out.push_str(": ");
                render(value, depth + 1, out);
                out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
            }
            out.push_str(&close);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.50), 50.0);
        assert_eq!(percentile(&samples, 0.95), 95.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Unsorted input is handled.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn latency_json_has_the_standard_fields() {
        let j = latency_json(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(4));
        assert_eq!(j.get("p50_ms").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("mean_ms").and_then(Json::as_f64), Some(2.5));
        assert_eq!(j.get("max_ms").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn pretty_round_trips_and_keeps_scalar_arrays_inline() {
        let v = Json::obj([
            ("name", Json::str("x")),
            ("nums", Json::Arr(vec![Json::num(1), Json::num(2)])),
            ("rows", Json::Arr(vec![Json::obj([("a", Json::num(1))])])),
        ]);
        let text = pretty(&v);
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(text.contains("\"nums\": [1,2]"), "{text}");
        assert!(text.contains("  \"rows\": [\n"), "{text}");
    }
}
