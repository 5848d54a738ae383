//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a
//! test reads that file and checks the two agree.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tokens_per_s", "tok/s"),
    ("iter_ms_p50", "ms"),
    ("tpot_ms_p50", "ms"),
    ("tpot_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.S_ms", "ms"),
    ("core.T_ms", "ms"),
    ("core.InputF_ms", "ms"),
    ("core.InputB_ms", "ms"),
    ("model.F_ms", "ms"),
    ("model.B_ms", "ms"),
    ("collectives.p2p_wait_ms", "ms"),
    ("collectives.stream_ms", "ms"),
    ("collectives.comm_overlap", "ratio"),
    ("schedule.bubble_frac", "ratio"),
    ("schedule.stage_imbalance", "ratio"),
    ("schedule.peak_resident_microbatches_max", "count"),
    ("tensor.arena_reuse_ratio", "ratio"),
    ("tensor.arena_fresh_per_iter", "count"),
    ("runtime.model_build_ms", "ms"),
    ("schedule.validate_ms", "ms"),
    ("check.check_decode_ms", "ms"),
    ("model.forward_decode_us.prefill", "us"),
    ("model.forward_decode_us.decode", "us"),
    ("tensor.kv_append_us", "us"),
    ("tensor.kv_release_us", "us"),
    ("core.s_pass_decode_us", "us"),
    ("tensor.gemv_us", "us"),
    ("core.topk_us", "us"),
    ("core.merge_decode_us", "us"),
    ("core.input_forward_local_us", "us"),
    ("collectives.all_gather_us", "us"),
    ("collectives.p2p_row_us", "us"),
    ("tensor.threaded_dispatch_share", "ratio"),
    ("core.s_rows_useful_ratio", "ratio"),
    ("runtime.steps", "count"),
    ("runtime.occupancy", "ratio"),
    ("runtime.driver_ms_per_step", "ms"),
    ("replay.coverage", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result of one run: the last line the benchmark prints.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (iterations for training, requests served).
    pub attempted: u64,
    /// Of those, dropped, mismatched, non-finite or errored.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
}

/// Renders a finite number with every digit; anything else is `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Quotes a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalogue` with its unit. A metric that is missing or not finite makes
/// the run incorrect.
pub fn result_line(outcome: &Outcome, catalogue: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut correct = outcome.correct && outcome.failed == 0 && outcome.attempted > 0;
    let fields: Vec<String> = catalogue
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(name).unwrap_or(f64::NAN);
            correct &= v.is_finite();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, read by
    /// scanning its `{"name": …, "unit": …}` objects.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = doc
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} section"));
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_names_equal_the_declared_ones() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn result_line_lists_every_metric_and_flags_gaps() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        let ok = Outcome {
            attempted: 3,
            failed: 0,
            correct: true,
        };
        let line = result_line(&ok, END_TO_END, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"tokens_per_s\": {\"value\": 1.5, \"unit\": \"tok/s\"}"));
        m.set("setup_s", f64::NAN);
        let line = result_line(&ok, END_TO_END, &m);
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"setup_s\": {\"value\": null"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(3.0), "3.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
