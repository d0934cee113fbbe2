//! The metric catalogue and the result line.
//!
//! The catalogue is `BENCHMARK.json`'s `end_to_end` and `per_layer`
//! lists, compiled in: that file is the one place a metric is named.
//! Every run reports the full end-to-end set (untraced) or the full
//! per-layer set (traced), whatever the workload: a per-layer metric the
//! workload does not measure reads 0 (`predictions.json` names them).

use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Self seconds of one traced pass, by span stem.
pub type Stems = BTreeMap<&'static str, f64>;

/// (name, unit) of each metric in one of `BENCHMARK.json`'s lists.
type List = Vec<(String, String)>;

struct Catalogue {
    end_to_end: List,
    per_layer: List,
}

fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let bench: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        Catalogue {
            end_to_end: list(&bench, "end_to_end"),
            per_layer: list(&bench, "per_layer"),
        }
    })
}

/// Field `key` of a JSON object (`null` when absent).
fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    serde::field(v.as_map().unwrap_or_default(), key)
}

/// The (name, unit) pairs of `BENCHMARK.json`'s list `key`.
fn list(bench: &Value, key: &str) -> List {
    field(bench, key)
        .as_seq()
        .unwrap_or_else(|| panic!("BENCHMARK.json: '{key}' is not a list"))
        .iter()
        .map(|m| {
            let text = |k: &str| {
                field(m, k)
                    .as_str()
                    .unwrap_or_else(|| panic!("BENCHMARK.json: a '{key}' entry lacks '{k}'"))
                    .to_string()
            };
            (text("name"), text("unit"))
        })
        .collect()
}

/// Mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Median of a sample (0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile of a sample (0 for an empty one).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median over traced passes of one stem's self seconds.
pub fn stem_s(passes: &[&Stems], stem: &str) -> f64 {
    let xs: Vec<f64> = passes
        .iter()
        .map(|p| p.get(stem).copied().unwrap_or(0.0))
        .collect();
    median(&xs)
}

/// Collected metric values.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
    out: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Records `name`, which must be in one of the catalogue's lists.
    pub fn put(&mut self, name: &str, value: f64) {
        let c = catalogue();
        assert!(
            c.end_to_end
                .iter()
                .chain(&c.per_layer)
                .any(|(n, _)| n == name),
            "metric '{name}' is not in BENCHMARK.json"
        );
        assert!(value.is_finite(), "metric '{name}' is {value}");
        self.values.insert(name.to_string(), value);
    }

    fn finish(&mut self, list: &'static List, default: Option<f64>) {
        self.out = list
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .values
                    .get(name)
                    .copied()
                    .or(default)
                    .unwrap_or_else(|| panic!("end-to-end metric '{name}' was not measured"));
                (name.as_str(), unit.as_str(), v)
            })
            .collect();
    }

    /// Selects the end-to-end set; every one of them must be measured.
    pub fn finish_end_to_end(&mut self) {
        self.finish(&catalogue().end_to_end, None);
    }

    /// Selects the per-layer set; a metric the workload does not measure
    /// reads 0.
    pub fn finish_per_layer(&mut self) {
        self.finish(&catalogue().per_layer, Some(0.0));
    }

    /// The result line.
    pub fn to_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .out
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
