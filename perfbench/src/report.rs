//! Metric names, units and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` at the
//! repository root: an untraced run reports every end-to-end metric, a
//! traced run every per-layer metric (0 where the workload does not
//! exercise that layer).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them. What each
/// one measures on each workload is documented in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics (traced run), plus the workload-specific
/// end-to-end figures as measured under tracing.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Attribution of the traced run.
    ("trace.wall_s", "s"),
    ("trace.attributed_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("tensor.self_s", "s"),
    ("spatial.self_s", "s"),
    ("nn.self_s", "s"),
    ("core.self_s", "s"),
    ("serve.self_s", "s"),
    // Workload-specific end-to-end figures.
    ("train_tokens_per_s", "tokens/s"),
    ("val_loss", "nats/token"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("insert_p99_ms", "ms"),
    ("knee_qps", "1/s"),
    ("recall_at_10", "ratio"),
    ("ingest_traj_per_s", "traj/s"),
    ("index_build_s", "s"),
    ("snapshot_s", "s"),
    ("restart_s", "s"),
    ("fail_frac", "ratio"),
    // train: set-up.
    ("spatial.vocab_build_s", "s"),
    ("nn.skipgram.pretrain_s", "s"),
    ("core.model.generate_pairs_s", "s"),
    // train: the epoch.
    ("nn.batch.make_batches_ms", "ms"),
    ("nn.train.group_grads_ms.p50", "ms"),
    ("nn.train.group_grads_ms.p99", "ms"),
    ("nn.param.reduce_ms.p50", "ms"),
    ("nn.param.reduce_ms.p99", "ms"),
    ("nn.param.adam_ms.p50", "ms"),
    ("nn.param.adam_ms.p99", "ms"),
    ("nn.seq2seq.val_loss_ms.p50", "ms"),
    ("nn.seq2seq.val_loss_ms.p99", "ms"),
    ("nn.train.target_tokens", "count"),
    ("nn.train.steps", "count"),
    // train: roofline (FLOPs and bytes computed from tensor shapes).
    ("nn.train.step_gflop", "GFLOP"),
    ("nn.train.step_mbytes", "MB"),
    ("nn.train.flop_per_byte", "FLOP/B"),
    ("nn.train.achieved_gflops", "GFLOP/s"),
    ("tensor.matmul.peak_gflops", "GFLOP/s"),
    ("nn.train.peak_headroom", "ratio"),
    // serve and ingest.
    ("core.model.load_s", "s"),
    ("spatial.tokenize_us.p50", "us"),
    ("spatial.tokenize_us.p99", "us"),
    ("serve.batcher.encode_us.p50", "us"),
    ("serve.batcher.encode_us.p99", "us"),
    ("nn.infer.encode_us.p50", "us"),
    ("nn.infer.encode_us.p99", "us"),
    ("serve.batcher.wait_us.p50", "us"),
    ("serve.store.knn_us.p50", "us"),
    ("serve.store.knn_us.p99", "us"),
    ("serve.ann.cells_probed", "count"),
    ("serve.ann.candidates", "count"),
    ("serve.ann.useful_ratio", "ratio"),
    ("serve.store.exact_knn_us.p50", "us"),
    ("serve.store.exact_knn_us.p99", "us"),
    ("serve.store.insert_us.p50", "us"),
    ("serve.store.insert_us.p99", "us"),
    ("serve.snapshot.journal_append_us.p50", "us"),
    ("serve.snapshot.journal_append_us.p99", "us"),
    ("nn.infer.encode_batch_ms", "ms"),
    ("core.kmeans.fit_s", "s"),
    ("core.kmeans.iterations", "count"),
    ("core.ann.quantizer_train_s", "s"),
    ("serve.ann.upsert_all_s", "s"),
    ("serve.snapshot.save_s", "s"),
    ("serve.snapshot.bytes", "bytes"),
    ("serve.snapshot.load_s", "s"),
    ("serve.snapshot.replay_s", "s"),
    ("serve.snapshot.replayed_records", "count"),
    ("serve.ann.restore_s", "s"),
    // The load generator's own health (not the program).
    ("loadgen.late_ms.p50", "ms"),
    ("loadgen.late_ms.p99", "ms"),
    ("loadgen.backlog_max", "count"),
    ("loadgen.ops_sent", "count"),
    ("loadgen.ops_ok", "count"),
    ("loadgen.ops_failed", "count"),
];

/// Named measurements of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Records `value` under `name` (the unit comes from the tables above).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Records the median and 99th percentile of `sample` as
    /// `<name>.p50` and `<name>.p99`.
    pub fn set_p50_p99(&mut self, name: &str, sample: &[f64]) {
        self.set(&format!("{name}.p50"), crate::stats::median(sample));
        self.set(&format!("{name}.p99"), crate::stats::p99(sample));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// One correctness check and its outcome.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Vec<Check>,
    /// Operations attempted (training steps, requests, inserts).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics and workload-specific end-to-end figures.
    pub layer: Metrics,
}

impl Outcome {
    /// Records a correctness check. A check made again under the same
    /// name holds only if every instance held; the first failure's
    /// detail is kept.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        if let Some(c) = self.checks.iter_mut().find(|c| c.name == name) {
            if c.ok && !ok {
                c.detail = detail.into();
            }
            c.ok &= ok;
            return;
        }
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// Formats a finite number with all its digits (`Display` for `f64`
/// never uses an exponent, so the result is valid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The metrics object of the result line: every name of `table`, in
/// table order, 0 where `m` has no value.
pub fn metrics_json(table: &[(&str, &str)], m: &Metrics) -> String {
    let mut s = String::from("{");
    for (i, (name, unit)) in table.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = m.get(name).unwrap_or(0.0);
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    s.push('}');
    s
}

/// Whether every metric of `table` that `m` holds is finite.
pub fn all_finite(table: &[(&str, &str)], m: &Metrics) -> bool {
    table
        .iter()
        .all(|(name, _)| m.get(name).is_none_or(f64::is_finite))
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn listed(text: &str, section: &str) -> Vec<(String, String)> {
        let body = text
            .split(&format!("\"{section}\": ["))
            .nth(1)
            .unwrap_or_else(|| panic!("no {section} section"));
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name closes");
                let unit = rest
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let want: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed(&text, section), want, "{section}");
        }
    }

    #[test]
    fn metrics_json_fills_missing_with_zero() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let j = metrics_json(&END_TO_END[..2], &m);
        assert_eq!(
            j,
            "{\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}}"
        );
    }
}
