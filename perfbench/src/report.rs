//! Metric names, units and the printed result.

use std::fmt::Write as _;

use crate::gauge::Gauge;
use crate::layers::Layers;
use crate::stats::{per, Samples, Timings};
use crate::{Config, Workload};

/// The end-to-end metrics of an untraced run, with their units.  Every
/// workload reports every one: the two read-only workloads end with a
/// write probe so the write metrics are measured on their databases too.
/// See [`Timings`] for which times are scaled to the reference host (see
/// `gauge`) and what the p50 metrics and rates are taken over.
pub(crate) const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("ttft_p50_us", "us"),
    ("insert_p50_us", "us"),
    ("insert_p99_us", "us"),
    ("inserts_per_s", "1/s"),
    ("checkpoint_p50_ms", "ms"),
    ("recovery_ms", "ms"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Work counters reported per phase as `exec.<counter>.<phase>`.
pub(crate) const EXEC_COUNTERS: [&str; 7] = [
    "tuples_read",
    "pages_read",
    "relation_scans",
    "index_probes",
    "comparisons",
    "intermediate_tuples",
    "dereferences",
];
const PHASE_NAMES: [&str; 3] = ["collection", "combination", "construction"];

/// The per-layer metrics of a traced run (besides the `exec.<counter>.<phase>`
/// family), with their units.  A layer a workload does not exercise
/// reports 0.
pub(crate) const PER_LAYER: [(&str, &str); 29] = [
    ("parser.parse_us", "us"),
    ("analysis.simplify_us", "us"),
    ("analysis.diagnostics", "count"),
    ("planner.plan_us", "us"),
    ("planner.auto_chose.S0", "share"),
    ("planner.auto_chose.S1", "share"),
    ("planner.auto_chose.S2", "share"),
    ("planner.auto_chose.S3", "share"),
    ("planner.auto_chose.S4", "share"),
    ("planner.q_error_p50", "ratio"),
    ("planner.q_error_max", "ratio"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.plan_cache_evictions", "count"),
    ("core.unattributed_share", "share"),
    ("catalog.snapshot_pin_us", "us"),
    ("catalog.insert_us", "us"),
    ("exec.collection_us", "us"),
    ("exec.combination_us", "us"),
    ("exec.construction_us", "us"),
    ("exec.fallbacks", "share"),
    ("storage.wal_commit_us", "us"),
    ("storage.wal_appends", "count"),
    ("storage.wal_bytes", "B"),
    ("storage.fsyncs", "count"),
    ("storage.write_amp", "ratio"),
    ("storage.checkpoint_pages", "count"),
    ("storage.buffer_pool_hit_ratio", "ratio"),
    ("storage.recovery_replays", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Every per-layer metric name with its unit, in output order.
pub(crate) fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for counter in EXEC_COUNTERS {
        for phase in PHASE_NAMES {
            all.push((format!("exec.{counter}.{phase}"), "count"));
        }
    }
    all
}

/// What a run measured, untraced.
#[derive(Debug, Default)]
pub(crate) struct Measured {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Scales every time to the reference host.
    pub(crate) gauge: Gauge,
    /// One set-up per sample, in microseconds.
    pub(crate) setup: Samples,
    pub(crate) reads: Timings,
    pub(crate) ttft: Timings,
    pub(crate) inserts: Timings,
    pub(crate) checkpoints: Timings,
    pub(crate) recoveries: Timings,
    pub(crate) stored_bytes: u64,
    pub(crate) user_bytes: u64,
}

/// A finished run: what was measured, and the traced layers if tracing
/// was on.
#[derive(Debug)]
pub(crate) struct Report {
    pub(crate) measured: Measured,
    pub(crate) layers: Option<Layers>,
    /// Run-record entries particular to the workload (scale, instance).
    pub(crate) record: Vec<(&'static str, String)>,
    /// Extra human-readable lines.
    pub(crate) notes: Vec<String>,
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Report {
    /// The end-to-end metric values, in [`END_TO_END`] order.
    pub(crate) fn end_to_end(&self) -> Vec<f64> {
        let m = &self.measured;
        vec![
            m.setup.median() / 1e6,
            m.reads.median(),
            m.reads.p99(),
            m.reads.rate(),
            m.ttft.median(),
            m.inserts.median(),
            m.inserts.p99(),
            m.inserts.rate(),
            m.checkpoints.median() / 1e3,
            m.recoveries.median() / 1e3,
            per(m.stored_bytes as f64, m.user_bytes),
            peak_rss_mb(),
        ]
    }

    /// The per-layer metric values, in [`per_layer_metrics`] order.
    pub(crate) fn per_layer(&self) -> Vec<f64> {
        let Some(l) = &self.layers else {
            return Vec::new();
        };
        let w = &l.writes;
        let n = l.requests;
        let untraced = self.measured.reads.raw_median();
        let chose = |i: usize| per(l.chose[i] as f64, n);
        let mut v = vec![
            l.parse.mean_us(),
            l.simplify.mean_us(),
            per(l.diagnostics as f64, l.simplify.n),
            l.plan_self.mean_us(),
            chose(0),
            chose(1),
            chose(2),
            chose(3),
            chose(4),
            l.q_errors.median(),
            l.q_errors.max(),
            l.cache.hit_ratio(),
            l.cache.evictions as f64,
            l.unattributed_share(),
            l.snapshot_pin.mean_us(),
            w.twin_insert.mean_us(),
            l.collection.mean_us(),
            per(l.combination.sum.as_secs_f64() * 1e6, n),
            l.construction.mean_us(),
            per(l.fallbacks as f64, n),
            w.durable_insert.mean_us() - w.twin_insert.mean_us(),
            per(w.wal_appends as f64, w.inserts),
            per(w.wal_bytes as f64, w.inserts),
            per(w.fsyncs as f64, w.inserts),
            per(
                (w.wal_bytes + w.checkpoint_bytes) as f64,
                w.user_bytes_inserted,
            ),
            per(w.checkpoint_pages as f64, w.checkpoints),
            per(w.pool_hits as f64, w.pool_hits + w.pool_misses),
            per(w.replays as f64, w.recoveries),
            if untraced > 0.0 {
                (l.traced.median() - untraced) / untraced * 100.0
            } else {
                0.0
            },
        ];
        for i in 0..EXEC_COUNTERS.len() {
            for c in &l.counters {
                let value = match i {
                    0 => c.tuples_read,
                    1 => c.pages_read,
                    2 => c.relation_scans,
                    3 => c.index_probes,
                    4 => c.comparisons,
                    5 => c.intermediate_tuples,
                    _ => c.dereferences,
                };
                v.push(per(value as f64, n));
            }
        }
        v
    }

    /// The printed result: human-readable lines, the run record as one
    /// JSON line, and the result object as the last line.
    pub(crate) fn render(&self, workload: Workload, config: &Config) -> String {
        let m = &self.measured;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perfbench {} seed={} trace={}",
            workload.name(),
            config.seed,
            u8::from(config.trace)
        );
        let (names, values): (Vec<(String, &str)>, Vec<f64>) = if config.trace {
            (per_layer_metrics(), self.per_layer())
        } else {
            (
                END_TO_END
                    .iter()
                    .map(|&(n, u)| (n.to_string(), u))
                    .collect(),
                self.end_to_end(),
            )
        };
        for ((name, unit), value) in names.iter().zip(&values) {
            let _ = writeln!(out, "  {name:<36} {value:>14.3} {unit}");
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>14.6} ratio ({} failed of {} attempted)",
            "failed_ops_ratio",
            per(m.failed as f64, m.attempted),
            m.failed,
            m.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  {note}");
        }
        if let Some(l) = &self.layers {
            let _ = writeln!(out, "  layer shares of the mean traced read:");
            for (layer, share) in l.shares() {
                let _ = writeln!(out, "    {layer:<24} {share:>7.3}");
            }
        }

        let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
        let mut record = vec![
            ("workload", json_str(workload.name())),
            ("seed", config.seed.to_string()),
            ("nproc", nproc.to_string()),
            ("git_rev", json_str(&git_rev())),
            ("trace", config.trace.to_string()),
            ("backend", json_str("MemFs")),
            ("fsync", json_str(&format!("{:?}", crate::ingest::FSYNC))),
            ("seconds", json_num(config.seconds.as_secs_f64())),
            ("setup_samples", m.setup.len().to_string()),
            ("query_samples", m.reads.len().to_string()),
            ("ttft_samples", m.ttft.len().to_string()),
            ("insert_samples", m.inserts.len().to_string()),
            ("checkpoint_samples", m.checkpoints.len().to_string()),
            ("recovery_samples", m.recoveries.len().to_string()),
            ("gauge_reference_us", json_num(crate::gauge::REFERENCE_US)),
            (
                "gauge_kernel_p50_us",
                json_num(m.gauge.calibrations.median()),
            ),
            ("gauge_samples", m.gauge.calibrations.len().to_string()),
        ];
        if let Some(l) = &self.layers {
            record.push(("traced_requests", l.requests.to_string()));
        }
        record.extend(self.record.iter().map(|(k, v)| (*k, json_str(v))));
        let fields: Vec<String> = record
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let _ = writeln!(out, "{{\"run\": {{{}}}}}", fields.join(", "));

        let metrics: Vec<String> = names
            .iter()
            .zip(&values)
            .map(|((name, unit), value)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            m.failed == 0,
            m.attempted,
            m.failed,
            metrics.join(", ")
        );
        out
    }
}
