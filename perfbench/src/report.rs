//! The metrics each run reports and the result line it prints.
//!
//! The two lists below mirror `BENCHMARK.json` (a self-test keeps them
//! in step). Every workload reports every end-to-end metric in an
//! untraced run and every per-layer metric in a traced run; a layer the
//! workload does not call reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("pipeline_s", "s"),
    ("energy_kwh", "kWh"),
    ("comfort_rate", "ratio"),
    ("decisions_per_s", "1/s"),
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("sim.collect_s", "s"),
    ("sim.steps", "count"),
    ("nn.train_s", "s"),
    ("nn.train_rows", "count"),
    ("augment.fit_s", "s"),
    ("extract.s", "s"),
    ("extract.points", "count"),
    ("extract.rollouts", "count"),
    ("planner.predict_calls", "count"),
    ("planner.predict_rows", "count"),
    ("planner.predict_s", "s"),
    ("planner.self_s", "s"),
    ("cart.fit_s", "s"),
    ("cart.nodes", "count"),
    ("cart.leaves", "count"),
    ("verify.s", "s"),
    ("verify.predict_rows", "count"),
    ("verify.leaves", "count"),
    ("verify.corrected", "count"),
    ("verify.corrected_share", "ratio"),
    ("store.io_s", "s"),
    ("eval.s", "s"),
    ("stage.dynamics_s", "s"),
    ("stage.extraction_s", "s"),
    ("stage.tree_fit_s", "s"),
    ("stage.verification_s", "s"),
    ("trace.stage_gap_share", "ratio"),
    ("pipeline.traced_s", "s"),
    ("pipeline.covered_share", "ratio"),
    ("serve.parse_us", "us"),
    ("guard.decide_us", "us"),
    ("audit.append_us", "us"),
    ("serve.handler_us", "us"),
    ("serve.handler_self_us", "us"),
    ("json.parse_us", "us"),
    ("serve.obs_us", "us"),
    ("fleet.tick_us", "us"),
    ("latency_p50_us", "us"),
    ("http.rtt_us", "us"),
    ("http.transport_us", "us"),
    ("dtree.kernel_ns", "ns"),
    ("audit.bytes_per_decision", "B"),
    ("guard.policy_share", "ratio"),
    ("guard.fallback_share", "ratio"),
    ("server.decide_p50_us", "us"),
    ("server.decide_p99_us", "us"),
    ("http.connections", "count"),
    ("http.shed", "count"),
    ("serve.audit.errors", "count"),
    ("server.cpu_us_per_decision", "us"),
    ("fleet.setup_per_tenant_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("host.factor", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, pipelines, chain audits…).
    pub attempted: u64,
    /// Operations that failed, were refused, or were not bit-identical.
    pub failed: u64,
    /// Why each failure counted (printed to stderr, first few only).
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Sets metric `name`, which must be declared in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in BENCHMARK.json"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.check_many(1, outcome);
    }

    /// Counts `n` operations checked together; `Err` fails all of them.
    pub fn check_many(&mut self, n: u64, outcome: Result<(), String>) {
        self.attempted += n;
        if let Err(why) = outcome {
            self.failed += n;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// Several runs of one workload as one report: their checks added
    /// up, and each metric the median of the values the runs set.
    pub fn median_of(reports: Vec<Report>) -> Report {
        let mut merged = Report::default();
        let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for report in reports {
            merged.attempted += report.attempted;
            merged.failed += report.failed;
            let room = 16usize.saturating_sub(merged.failures.len());
            merged
                .failures
                .extend(report.failures.into_iter().take(room));
            for (name, value) in report.metrics {
                values.entry(name).or_default().push(value);
            }
        }
        for (name, list) in values {
            merged.metrics.insert(name, crate::stats::median(&list));
        }
        merged
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and the
    /// end-to-end (untraced) or per-layer (traced) metrics. Per-layer
    /// metrics the workload does not exercise read 0.
    ///
    /// # Errors
    ///
    /// A missing end-to-end metric or a non-finite value.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match (self.metrics.get(name), traced) {
                (Some(&v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

/// The declared unit of `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

/// A finite `f64` as a JSON number with every digit: Rust's `Debug`
/// form is the shortest string that round-trips, and is valid JSON.
fn json_number(value: f64) -> String {
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hvac_telemetry::json::{parse, JsonValue};

    #[test]
    fn lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(JsonValue::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                        m.get("unit")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.check(Err("mismatch".into()));
        for (name, _) in END_TO_END {
            r.set(name, 1.25e-7);
        }
        let line = r.result_line(false).expect("all end-to-end metrics set");
        let v = parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(1));
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(1.25e-7));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(r.ok_rate(), 0.5);

        let traced = parse(&r.result_line(true).unwrap()).unwrap();
        let layer = traced.get("metrics").unwrap().get("nn.train_s").unwrap();
        assert_eq!(layer.get("value").and_then(JsonValue::as_f64), Some(0.0));
    }

    #[test]
    fn missing_or_non_finite_metrics_are_errors() {
        let mut r = Report::default();
        r.check(Ok(()));
        assert!(r.result_line(false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 2.0);
        }
        r.set("latency_p99_us", f64::NAN);
        assert!(r.result_line(false).is_err());
    }

    #[test]
    fn merged_reports_add_checks_and_take_medians() {
        let runs: Vec<Report> = [1.0, 5.0, 2.0]
            .into_iter()
            .map(|v| {
                let mut r = Report::default();
                r.check(if v > 4.0 { Err("slow".into()) } else { Ok(()) });
                r.set("nn.train_s", v);
                r
            })
            .collect();
        let merged = Report::median_of(runs);
        assert_eq!((merged.attempted, merged.failed), (3, 1));
        assert_eq!(merged.failures, vec!["slow".to_string()]);
        assert_eq!(merged.metrics.get("nn.train_s"), Some(&2.0));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e21), "1e21");
        assert_eq!(json_number(1.25e-7), "1.25e-7");
    }
}
