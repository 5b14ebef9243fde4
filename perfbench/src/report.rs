//! Metric declarations and the run's printed output.

use crate::oracle::Oracle;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), every workload, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("load_s", "s"),
    ("query_qps", "1/s"),
    ("pos_query_p50_us", "us"),
    ("pos_query_p99_us", "us"),
    ("neg_query_p50_ms", "ms"),
    ("neg_query_p90_ms", "ms"),
    ("st_conn_p50_ms", "ms"),
    ("st_conn_p90_ms", "ms"),
    ("vc_total_s", "s"),
    ("mutate_p50_us", "us"),
    ("mutate_p99_us", "us"),
    ("publish_p50_ms", "ms"),
];

/// Per-layer metrics (`--trace 1`), every workload, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("io.parse_ms", "ms"),
    ("planar.embed_ms", "ms"),
    ("planar.face_vertex_ms", "ms"),
    ("cover.rounds_ms", "ms"),
    ("cover.batches", "count"),
    ("cover.stored_per_vertex", "ratio"),
    ("treedecomp.decompose_ms", "ms"),
    ("treedecomp.nodes", "count"),
    ("treedecomp.max_width", "count"),
    ("index.build_ms", "ms"),
    ("index.to_bytes_ms", "ms"),
    ("index.from_bytes_ms", "ms"),
    ("index.bytes", "bytes"),
    ("query.first_hit_us.c3", "us"),
    ("query.first_hit_us.c4", "us"),
    ("query.first_hit_us.star", "us"),
    ("query.first_hit_us.paw", "us"),
    ("query.first_hit_us.diamond", "us"),
    ("query.neg_scan_ms", "ms"),
    ("query.snapshot_read_us", "us"),
    ("dp.batch_ms", "ms"),
    ("flow.near_ms", "ms"),
    ("flow.far_ms", "ms"),
    ("sep.c4_ms", "ms"),
    ("sep.c6_ms", "ms"),
    ("sep.c8_ms", "ms"),
    ("sep.states", "count"),
    ("sep.arena_bytes", "bytes"),
    ("dynamic.insert_us", "us"),
    ("dynamic.delete_us", "us"),
    ("dynamic.affected_clusters", "count"),
    ("dynamic.flush_ms", "ms"),
    ("dynamic.reemitted_batches", "count"),
    ("dynamic.cache_hit_ratio", "ratio"),
    ("dynamic.freeze_ms", "ms"),
    ("snapshot.create_ms", "ms"),
    ("pool.steals", "count"),
    ("pool.idle_spins", "count"),
    // The traced run's set-up time minus the untraced run's.
    ("obs.trace_overhead", "ms"),
];

#[derive(Clone, Debug)]
struct Metric {
    value: f64,
    unit: &'static str,
    /// Samples behind the value (0 for a single measurement or a count).
    samples: usize,
    /// Which part of the run measured it.
    source: &'static str,
}

/// The metrics of one run plus its run record.
#[derive(Debug, Default)]
pub struct Report {
    record: Vec<(String, String)>,
    metrics: BTreeMap<&'static str, Metric>,
    spans: String,
}

impl Report {
    pub fn record(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Sets a declared metric; `unit` comes from the declaration tables.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize, source: &'static str) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
                source,
            },
        );
    }

    pub fn set_span_table(&mut self, table: String) {
        self.spans = table;
    }

    /// Names of the declared metrics of this mode, and which of them are missing
    /// or not finite.
    pub fn missing(&self, traced: bool) -> Vec<&'static str> {
        let declared: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        declared
            .into_iter()
            .filter(|n| !self.metrics.get(n).is_some_and(|m| m.value.is_finite()))
            .collect()
    }

    /// The human-readable lines, then the one-line JSON result.
    pub fn render(&self, oracle: &Oracle, traced: bool) -> String {
        let mut out = String::new();
        for (k, v) in &self.record {
            let _ = writeln!(out, "# {k}: {v}");
        }
        let _ = writeln!(
            out,
            "# oracle: attempted {} failed {} fail_ratio {}",
            oracle.attempted,
            oracle.failed,
            oracle.fail_ratio()
        );
        for note in &oracle.notes {
            let _ = writeln!(out, "# oracle failure: {note}");
        }
        let shown: Vec<&'static str> = if traced {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        for name in &shown {
            if let Some(m) = self.metrics.get(name) {
                let _ = writeln!(
                    out,
                    "# {name:<30} {:>16.6} {:<6} samples {:>7}  ({})",
                    m.value, m.unit, m.samples, m.source
                );
            }
        }
        out.push_str(&self.spans);
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            oracle.failed == 0,
            oracle.attempted.max(1),
            oracle.failed
        );
        let mut first = true;
        for name in &shown {
            if let Some(m) = self.metrics.get(name) {
                if !first {
                    json.push_str(", ");
                }
                first = false;
                let _ = write!(
                    json,
                    "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                );
            }
        }
        json.push_str("}}");
        out.push_str(&json);
        out.push('\n');
        out
    }
}
