//! The metric catalogue and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; a run
//! prints exactly the metrics of its mode, every one of them, or panics.

/// `--trace 0`: what a user of the engine sees, from untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mb_per_s", "MB/s"),
    ("cpu_ns_per_byte", "ns/B"),
    ("doc_us_p50", "us"),
    ("doc_us_p99", "us"),
    ("docs_per_s", "1/s"),
    ("peak_buffer_bytes", "B"),
    ("heap_peak_bytes", "B"),
];

/// `--trace 1`: the layer ladder and the counts, from the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xml.prescan.ns_per_byte", "ns/B"),
    ("xml.reader.ns_per_byte", "ns/B"),
    ("xsax.validate.ns_per_byte", "ns/B"),
    ("xsax.past.ns_per_byte", "ns/B"),
    ("runtime.exec.ns_per_byte", "ns/B"),
    ("core.engine.ns_per_byte", "ns/B"),
    ("core.engine.empty_doc_us", "us"),
    ("xml.reader.self_ns_per_byte", "ns/B"),
    ("xsax.validate.self_ns_per_byte", "ns/B"),
    ("xsax.past.self_ns_per_byte", "ns/B"),
    ("runtime.exec.self_ns_per_byte", "ns/B"),
    ("core.engine.self_ns_per_byte", "ns/B"),
    ("ladder.residual_frac", "frac"),
    ("xquery.eval.ns_per_output_event", "ns"),
    ("dtd.parse_us", "us"),
    ("fluxlang.compile_us", "us"),
    ("runtime.plan_us", "us"),
    ("input_bytes", "B"),
    ("xml.reader.events", "count"),
    ("runtime.events", "count"),
    ("runtime.output_bytes", "B"),
    ("runtime.total_buffered_bytes", "B"),
    ("runtime.peak_buffer_nodes", "count"),
    ("runtime.buffered_per_input_byte", "frac"),
    ("heap.allocs_per_doc", "count"),
    ("heap.allocs_per_mb", "count"),
    ("shard.x2.ns_per_byte", "ns/B"),
    ("shard.x2.speedup", "x"),
    ("xml.tree.build_ns_per_byte", "ns/B"),
    ("baseline.dom.ns_per_byte", "ns/B"),
    ("baseline.projection.ns_per_byte", "ns/B"),
    ("baseline.dom.peak_buffer_bytes", "B"),
    ("gap.flux_minus_dom.ns_per_byte", "ns/B"),
    ("trace.overhead_frac", "frac"),
    ("host.ref_ns_per_byte", "ns/B"),
];

/// Runs attempted and failed, and the measured metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts one run: failed when it errored or its output differed
    /// from the reference.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The failed share of attempted runs.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object with every metric of `catalog`,
    /// in catalogue order.
    pub fn json(&self, catalog: &[(&str, &str)]) -> String {
        assert_eq!(
            self.metrics.len(),
            catalog.len(),
            "a run must report each catalogued metric exactly once"
        );
        let metrics: Vec<String> = catalog
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .value(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for name in names {
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
    }

    #[test]
    fn result_line_counts_failures() {
        let mut out = Outcome::default();
        out.count(true);
        out.count(false);
        for &(name, _) in END_TO_END {
            out.metric(name, 1.5);
        }
        let line = out.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert_eq!(out.fail_ratio(), 0.5);
    }
}
