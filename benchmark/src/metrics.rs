//! The metric catalogue (the single source of names, units and
//! directions; `BENCHMARK.json` must agree with it), the compiled-in
//! `BENCHMARK.json`, and the result line.

use std::collections::BTreeMap;

use serde::json::Value as Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that checks `BENCHMARK.json` against this table.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// `BENCHMARK.json`, compiled in.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The parsed `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::parse(MANIFEST).expect("BENCHMARK.json is valid JSON")
}

/// `run_seconds` of `BENCHMARK.json`: the length of the timed loop
/// unless `--seconds` or `--smoke` says otherwise.
pub fn run_seconds() -> f64 {
    manifest()
        .get("run_seconds")
        .and_then(Json::as_num)
        .expect("BENCHMARK.json has run_seconds")
}

/// Host metrics a user of each workload sees, measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("throughput_per_s", "1/s", Higher),
    m("cold_deploy_ms", "ms", Lower),
    m("warm_deploy_ms", "ms", Lower),
    m("peak_rss_mb", "MiB", Lower),
];

/// Single-layer metrics from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("host.probe_ns", "ns", Lower),
    m("trace_overhead_frac", "fraction", Lower),
    m("compiler.infer_in_us", "us", Lower),
    m("compiler.infer_in_p99_us", "us", Lower),
    m("compiler.executor_self_us", "us", Lower),
    m("compiler.peak_arena_bytes", "bytes", Lower),
    m("qconv.im2col_us", "us", Lower),
    m("qconv.forward_us", "us", Lower),
    m("qconv.staging_share", "fraction", Lower),
    m("cim.mvm_batch_us", "us", Lower),
    m("cim.adc_conversions", "count", Lower),
    m("cim.wl_pulses", "count", Lower),
    m("serve.broker_run_ms", "ms", Lower),
    m("serve.loadgen_trace_ms", "ms", Lower),
    m("serve.dispatch_ratio", "ratio", Lower),
    m("serve.batches", "count", Lower),
    m("serve.mean_batch", "count", Higher),
    m("serve.max_queue_depth", "count", Lower),
    m("serve.shed", "count", Lower),
    m("serve.rejected", "count", Lower),
    m("engine.pool_run_us", "us", Lower),
    m("compiler.compile_ms", "ms", Lower),
    m("compiler.serialize_ms", "ms", Lower),
    m("compiler.deserialize_ms", "ms", Lower),
    m("cache.read_ms", "ms", Lower),
    m("cache.hit_self_ms", "ms", Lower),
    m("cache.store_self_ms", "ms", Lower),
    m("cache.mem_hit_ms", "ms", Lower),
    m("cache.entry_bytes", "bytes", Lower),
    m("modelled_latency_us", "us", Lower),
    m("modelled_energy_uj", "uJ", Lower),
    m("modelled_p99_us", "us", Lower),
    m("modelled_goodput_frac", "fraction", Higher),
];

/// The measured values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue or recorded twice.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not in the metric catalogue"
        );
        assert!(
            self.0.insert(name, value).is_none(),
            "{name} recorded twice"
        );
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The catalogue a run in `traced` mode reports, in catalogue order,
    /// with each metric's value.
    ///
    /// # Errors
    ///
    /// Names the first catalogue metric the run did not record.
    pub fn select(&self, traced: bool) -> Result<Vec<(Metric, f64)>, String> {
        let set = if traced { PER_LAYER } else { END_TO_END };
        set.iter()
            .map(|m| {
                self.get(m.name)
                    .map(|v| (*m, v))
                    .ok_or_else(|| format!("metric {} was not measured", m.name))
            })
            .collect()
    }
}

/// The result object printed as the last line of standard output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(Metric, f64)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(m, v)| {
                        (
                            m.name.to_string(),
                            Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// A legal metric or workload name: one or more of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit, at most 64 long.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn direction(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for n in &all {
            assert!(valid_name(n), "bad metric name {n}");
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w), "bad workload name {w}");
        }
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        assert!(!valid_name("") && !valid_name("_x") && !valid_name("a b"));
    }

    #[test]
    fn unit_strings_fit_the_contract() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    fn manifest_metrics(doc: &Json, key: &str) -> BTreeSet<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn catalogue(set: &[Metric]) -> BTreeSet<(String, String, String)> {
        set.iter()
            .map(|m| (m.name.into(), m.unit.into(), direction(m.better).into()))
            .collect()
    }

    /// BENCHMARK.json lists exactly the metrics (with the same units and
    /// directions) and workloads this crate emits, in both directions.
    #[test]
    fn manifest_and_catalogue_agree() {
        let doc = manifest();
        assert_eq!(manifest_metrics(&doc, "end_to_end"), catalogue(END_TO_END));
        assert_eq!(manifest_metrics(&doc, "per_layer"), catalogue(PER_LAYER));
        let workloads: BTreeSet<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS.iter().copied().collect());
        for m in doc.get("end_to_end").and_then(Json::as_arr).expect("e2e") {
            let bound = m.get("bound").and_then(Json::as_num).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        }
    }

    #[test]
    fn values_select_reports_missing_metrics() {
        let mut v = Values::default();
        for m in END_TO_END {
            v.set(m.name, 1.0);
        }
        assert_eq!(v.select(false).expect("complete").len(), END_TO_END.len());
        assert!(v.select(true).is_err());
    }
}
