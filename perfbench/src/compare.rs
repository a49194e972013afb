//! `autosens-bench compare`: is a change better, the same, or worse than
//! its parent, given how much the parent's own runs spread?
//!
//! Each input file holds run records, one JSON object a line, as
//! `run --out` appends them. For every (workload, end-to-end metric) the
//! verdict follows the benchmark's rules:
//!
//! * **better** — the change wins at least 9 of 10 pairs of runs and the
//!   medians differ by more than the parent's interquartile range. Runs
//!   pair up by their order in the files: the i-th base run of a workload
//!   with its i-th change run, as runs made alternately with the parent
//!   produce them. Ties count for neither side;
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound in `BENCHMARK.json`;
//! * **unresolved** — neither, and the parent's own spread (IQR over
//!   median) is wider than the bound, so "no change" cannot be told from
//!   noise;
//! * **same** — otherwise.
//!
//! Runs of one workload and seed must have been made from the same inputs:
//! differing input digests refuse the comparison, and a change run whose
//! output digest differs from the parent's for the same seed is reported,
//! once per seed, as a correctness regression.

use std::collections::{BTreeMap, BTreeSet};

use serde_json::Value;

use crate::spec::{Metric, Spec};
use crate::stats;

/// One run record.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub input_digest: String,
    pub output_digest: String,
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    fn parse(line: &str) -> Result<Run, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("run record without {key}"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("run record without metrics")?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(Run {
            workload: text("workload")?,
            seed: v
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or("run record without seed")?,
            input_digest: text("input_digest")?,
            output_digest: text("output_digest")?,
            metrics,
        })
    }
}

/// Read every run record in `paths`.
pub fn load(paths: &[String]) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            runs.push(Run::parse(line).map_err(|e| format!("{path}: {e}"))?);
        }
    }
    Ok(runs)
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `change` against `base` for `metric`; `pairs` are (base, change)
/// values of paired runs.
pub fn verdict(metric: &Metric, base: &[f64], change: &[f64], pairs: &[(f64, f64)]) -> Verdict {
    let sign = if metric.higher_is_better { 1.0 } else { -1.0 };
    let (bm, cm) = (stats::median(base), stats::median(change));
    let (q1, q3) = stats::quartiles(base);
    let bound = metric.bound.unwrap_or(0.0);
    let wins = pairs.iter().filter(|(b, c)| sign * (c - b) > 0.0).count();
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && sign * (cm - bm) > q3 - q1 {
        return Verdict::Better;
    }
    if sign * (cm - bm) < -bound * bm.abs() {
        return Verdict::Worse;
    }
    let all_better = base
        .iter()
        .all(|b| change.iter().all(|c| sign * (c - b) > 0.0));
    if (q3 - q1) > bound * bm.abs() && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// (base, change) values of `metric` in runs of one workload, the i-th base
/// run with the i-th change run.
fn paired(base: &[Run], change: &[Run], metric: &str) -> Vec<(f64, f64)> {
    base.iter()
        .zip(change)
        .filter_map(|(b, c)| Some((*b.metrics.get(metric)?, *c.metrics.get(metric)?)))
        .collect()
}

/// Run `compare`; returns the process exit code.
pub fn main(spec: &Spec, base_paths: &[String], change_paths: &[String]) -> Result<i32, String> {
    let base = load(base_paths)?;
    let change = load(change_paths)?;
    let mut inputs: BTreeMap<(&str, u64), &str> = BTreeMap::new();
    for r in base.iter().chain(&change) {
        let first = *inputs
            .entry((&r.workload, r.seed))
            .or_insert(&r.input_digest);
        if first != r.input_digest {
            return Err(format!(
                "{} seed {}: input digests differ ({first} vs {}); \
                 the runs did not measure the same inputs",
                r.workload, r.seed, r.input_digest
            ));
        }
    }
    let mut code = 0;
    let outputs: BTreeMap<(&str, u64), &str> = base
        .iter()
        .map(|r| ((r.workload.as_str(), r.seed), r.output_digest.as_str()))
        .collect();
    let mut flagged = BTreeSet::new();
    for rc in &change {
        let key = (rc.workload.as_str(), rc.seed);
        match outputs.get(&key) {
            Some(&want) if want != rc.output_digest && flagged.insert(key) => {
                println!(
                    "{} output_digest seed {}: {want} -> {} CORRECTNESS REGRESSION",
                    rc.workload, rc.seed, rc.output_digest
                );
                code = 1;
            }
            _ => {}
        }
    }
    for workload in &spec.workloads {
        let pick = |runs: &[Run]| -> Vec<Run> {
            runs.iter()
                .filter(|r| &r.workload == workload)
                .cloned()
                .collect()
        };
        let (b, c) = (pick(&base), pick(&change));
        if b.is_empty() || c.is_empty() {
            continue;
        }
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&metric.name).copied())
                    .collect()
            };
            let (bv, cv) = (values(&b), values(&c));
            if bv.is_empty() || cv.is_empty() {
                continue;
            }
            let pairs = paired(&b, &c, &metric.name);
            let (bq1, bq3) = stats::quartiles(&bv);
            let (cq1, cq3) = stats::quartiles(&cv);
            let judged = metric.bound.map(|_| verdict(metric, &bv, &cv, &pairs));
            if judged == Some(Verdict::Worse) {
                code = 1;
            }
            println!(
                "{workload:<14} {:<34} base {:>12.4} [{:.4}, {:.4}] n={:<2}  change {:>12.4} [{:.4}, {:.4}] n={:<2}  {}",
                metric.name,
                stats::median(&bv),
                bq1,
                bq3,
                bv.len(),
                stats::median(&cv),
                cq1,
                cq3,
                cv.len(),
                judged.map_or("(per-layer, no bound)", Verdict::name),
            );
        }
    }
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Metric {
        Metric {
            name: "latency_ms_p50".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let pair = |c: &[f64]| -> Vec<(f64, f64)> {
            base.iter().copied().zip(c.iter().copied()).collect()
        };
        // 20% faster in every pair: a gain beyond the parent's IQR.
        let faster: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert_eq!(
            verdict(&lower(0.1), &base, &faster, &pair(&faster)),
            Verdict::Better
        );
        // 2% slower: within a 10% bound.
        let slower: Vec<f64> = base.iter().map(|b| b * 1.02).collect();
        assert_eq!(
            verdict(&lower(0.1), &base, &slower, &pair(&slower)),
            Verdict::Same
        );
        // 30% slower: past the bound.
        let slow: Vec<f64> = base.iter().map(|b| b * 1.3).collect();
        assert_eq!(
            verdict(&lower(0.1), &base, &slow, &pair(&slow)),
            Verdict::Worse
        );
        // A parent spread wider than the bound leaves a small shift unresolved.
        let tiny: Vec<f64> = base.iter().map(|b| b * 1.005).collect();
        assert_eq!(
            verdict(&lower(0.01), &base, &tiny, &pair(&tiny)),
            Verdict::Unresolved
        );
    }

    #[test]
    fn runs_pair_by_order_even_with_one_seed() {
        let run = |seed: u64, ms: f64| Run {
            workload: "query-warm".into(),
            seed,
            input_digest: "i".into(),
            output_digest: "o".into(),
            metrics: BTreeMap::from([("latency_ms_p50".to_string(), ms)]),
        };
        let base = [run(1, 10.0), run(1, 11.0), run(1, 12.0)];
        let change = [run(1, 20.0), run(1, 21.0), run(1, 22.0)];
        assert_eq!(
            paired(&base, &change, "latency_ms_p50"),
            [(10.0, 20.0), (11.0, 21.0), (12.0, 22.0)]
        );
    }
}
