//! `BENCHMARK.json`: the workloads and metrics the benchmark promises, with
//! the unit, direction and regression bound of each. `run` takes units
//! from here and refuses to print a result that misses a promised metric;
//! `compare` takes directions and bounds from here.

use serde_json::Value;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen; only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub run_seconds: u64,
}

impl Spec {
    /// Read and check `BENCHMARK.json`.
    pub fn load(path: &std::path::Path) -> Result<Spec, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: missing workloads")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("BENCHMARK.json: missing {key}"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .ok_or(format!("BENCHMARK.json: {key} entry without {f}"))
                    };
                    Ok(Metric {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: match field("better")? {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                        },
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: missing run_seconds")? as u64,
        })
    }

    /// Every metric, end-to-end first.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
