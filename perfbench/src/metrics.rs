//! The benchmark's metric registry and its one output format.
//!
//! Every name the command can print is declared here, once, with its
//! unit. `BENCHMARK.json` at the repository root lists the same names;
//! the tests at the bottom of this file hold the two together.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// The workloads `BENCHMARK.json` lists, in its order. `steady` runs by
/// hand only: see the README.
#[cfg(test)]
pub const WORKLOADS: [&str; 2] = ["churn", "vrf"];

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("fwd_mlps", "Mlps", "higher"),
    def("lat_p50_us", "us", "lower"),
    def("lat_p90_us", "us", "lower"),
    def("converge_p50_ms", "ms", "lower"),
    def("success_ratio", "ratio", "higher"),
    def("rss_mib", "MiB", "lower"),
    def("bytes_per_route", "B", "lower"),
];

/// Printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Def] = &[
    def("builder.compile_s", "s", "lower"),
    def("trie.lookup_ns", "ns", "lower"),
    def("trie.batch_ns.scalar", "ns", "lower"),
    def("trie.batch_ns.avx2", "ns", "lower"),
    def("trie.batch_ns.avx512", "ns", "lower"),
    def("trie.descent_ratio", "ratio", "lower"),
    def("worker.service_p50_us", "us", "lower"),
    def("worker.service_p99_us", "us", "lower"),
    def("queue.wait_p50_us", "us", "lower"),
    def("queue.wait_p99_us", "us", "lower"),
    def("worker.ns_per_lookup", "ns", "lower"),
    def("worker.overhead_ns", "ns", "lower"),
    def("worker.busy_share", "ratio", "lower"),
    def("ingress.refused_batches", "count", "lower"),
    def("engine.lat_p99_us", "us", "lower"),
    def("engine.converge_p99_ms", "ms", "lower"),
    def("writer.publish_lag_p50_ms", "ms", "lower"),
    def("writer.publish_lag_p99_ms", "ms", "lower"),
    def("worker.adopt_lag_p50_ms", "ms", "lower"),
    def("writer.publishes", "count", "lower"),
    def("writer.coalesced_ratio", "ratio", "higher"),
    def("update.apply_us", "us", "lower"),
    def("sync.update_batch_us", "us", "lower"),
    def("sync.publish_us", "us", "lower"),
    def("bgp.decode_us", "us", "lower"),
    def("vrf.dedup_ratio", "ratio", "higher"),
    def("vrf.snapshot_ns", "ns", "lower"),
    def("bench.gen_lag_p99_us", "us", "lower"),
    def("bench.trace_overhead", "ratio", "lower"),
    def("host.steal_share", "ratio", "lower"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most 64
/// characters, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Measured values, keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `"metrics"` object for `defs`: every name of `defs` exactly
    /// once, with its unit. A missing or non-finite value, or a measured
    /// name declared nowhere, is an error, never a silently partial
    /// record.
    pub fn to_json(&self, defs: &[Def]) -> Result<String, String> {
        for name in self.values.keys() {
            if !END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == *name) {
                return Err(format!("metric {name} is not declared"));
            }
        }
        let mut parts = Vec::with_capacity(defs.len());
        for d in defs {
            let v = self
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", d.name));
            }
            parts.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(d.name),
                json_num(*v),
                json_str(d.unit)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form has.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The type-7 (linear interpolation) quantile of `sorted`; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Quantile `q` of `(time, value)` samples, taken per `slice` of time
/// and then as the median across slices. One stalled second then moves
/// the figure by at most one slice's vote, which keeps a tail quantile
/// repeatable on a shared host. With fewer than three full slices it is
/// the plain quantile over all samples.
pub fn sliced_quantile(samples: &[(f64, f64)], q: f64, slice: f64) -> f64 {
    let all = || {
        let mut v: Vec<f64> = samples.iter().map(|s| s.1).collect();
        v.sort_by(f64::total_cmp);
        quantile(&v, q)
    };
    let (Some(first), Some(last)) = (
        samples.iter().map(|s| s.0).min_by(f64::total_cmp),
        samples.iter().map(|s| s.0).max_by(f64::total_cmp),
    ) else {
        return 0.0;
    };
    // Equal slices of about `slice` each that cover every sample.
    let slices = ((last - first) / slice).floor() as usize;
    if slices < 3 {
        return all();
    }
    let width = (last - first) / slices as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for &(t, v) in samples {
        let i = (((t - first) / width) as usize).min(slices - 1);
        buckets[i].push(v);
    }
    let per: Vec<f64> = buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .map(|mut b| {
            b.sort_by(f64::total_cmp);
            quantile(&b, q)
        })
        .collect();
    median(&per)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and workloads of `BENCHMARK.json`, read with a
    /// line scanner: the file is this repository's own, one entry per
    /// line, so a full JSON parser is not needed to compare it.
    type Entry = (String, String, String);

    fn benchmark_json() -> (Vec<String>, Vec<Entry>, Vec<Entry>) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |line: &str, key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            let rest = &line[at..];
            Some(rest[..rest.find('"')?].to_string())
        };
        let (mut workloads, mut e2e, mut layer) = (Vec::new(), Vec::new(), Vec::new());
        let mut section = "";
        for line in text.lines() {
            for s in ["\"workloads\"", "\"end_to_end\"", "\"per_layer\""] {
                if line.contains(s) {
                    section = s;
                }
            }
            let Some(name) = field(line, "name") else {
                continue;
            };
            let metric = || {
                let get = |key| field(line, key).unwrap_or_else(|| panic!("{key} missing: {line}"));
                (name.clone(), get("unit"), get("better"))
            };
            match section {
                "\"workloads\"" => workloads.push(name),
                "\"end_to_end\"" => e2e.push(metric()),
                "\"per_layer\"" => layer.push(metric()),
                _ => panic!("entry outside a section: {line}"),
            }
        }
        (workloads, e2e, layer)
    }

    #[test]
    fn benchmark_json_documents_exactly_what_the_command_prints() {
        let (workloads, e2e, layer) = benchmark_json();
        assert_eq!(workloads, WORKLOADS.map(String::from).to_vec());
        let pairs = |defs: &[Def]| -> Vec<Entry> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.better.to_string()))
                .collect()
        };
        assert_eq!(e2e, pairs(END_TO_END));
        assert_eq!(layer, pairs(PER_LAYER));
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(seen.insert(d.name), "duplicate metric name {}", d.name);
            assert!(matches!(d.better, "lower" | "higher"));
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name(".x"));
    }

    #[test]
    fn to_json_refuses_missing_extra_and_non_finite_values() {
        let mut m = Metrics::default();
        for d in END_TO_END {
            m.set(d.name, 1.5);
        }
        let json = m.to_json(END_TO_END).expect("complete");
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(m.to_json(PER_LAYER).is_err(), "per-layer names missing");
        let mut stray = m.clone();
        stray.set("no.such_metric", 1.0);
        assert!(
            stray.to_json(END_TO_END).is_err(),
            "undeclared names refused"
        );
        let mut partial = Metrics::default();
        partial.set("setup_s", 1.0);
        assert!(
            partial.to_json(END_TO_END).is_err(),
            "missing names refused"
        );
        let mut nan = m.clone();
        nan.values.insert("fwd_mlps", f64::NAN);
        assert!(nan.to_json(END_TO_END).is_err());
    }

    #[test]
    fn quantiles_interpolate_and_slices_vote_by_median() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Six one-second slices, the third of them all outliers: the
        // slice median ignores the outlier second, the plain p99 does not.
        let s: Vec<(f64, f64)> = (0..60)
            .map(|i| {
                (
                    i as f64 * 0.1,
                    if (20..30).contains(&i) { 100.0 } else { 1.0 },
                )
            })
            .collect();
        assert_eq!(sliced_quantile(&s, 0.99, 1.0), 1.0);
        assert_eq!(sliced_quantile(&s[..25], 0.99, 1.0), 100.0);
        assert!(quantile(&[1.0; 3], 0.99) == 1.0);
    }
}
