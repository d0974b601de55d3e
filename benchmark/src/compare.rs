//! `warp-benchmark compare A.jsonl B.jsonl`: the bounds of
//! `BENCHMARK.json` applied to two result sets (files written with
//! `--out`; B is judged against A).
//!
//! Per (workload, metric): the median of each side's per-run values,
//! the change of B's median against A's, and each side's spread
//! (distance between first and third quartile over the median, by the
//! method of Python's `statistics.quantiles`). A change beyond the
//! bound is `EXCEEDED`; within the bound but with a spread wider than
//! the bound the pair is `unresolved`, not "unchanged" — unless every
//! run of B reads better than every run of A.

use crate::stats::{median, spread};
use std::collections::BTreeMap;
use warp_wire::json::Json;

/// One end-to-end metric of `BENCHMARK.json`.
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the program reads.
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<(String, String)>,
}

fn items<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match json.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
    }
}

fn text(json: &Json, key: &str) -> Result<String, String> {
    json.str_field(key)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

impl Spec {
    /// # Errors
    ///
    /// Malformed JSON or a missing field.
    pub fn parse(source: &str) -> Result<Spec, String> {
        let json = warp_wire::parse(source).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            workloads: items(&json, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: items(&json, "end_to_end")?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        lower_is_better: text(m, "better")? == "lower",
                        bound: m
                            .num_field("bound")
                            .ok_or("BENCHMARK.json: missing `bound`")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: items(&json, "per_layer")?
                .iter()
                .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// The runs of one result file.
#[derive(Default)]
struct ResultSet {
    /// Per-run values by (workload, metric): end-to-end metrics from
    /// the `--trace 0` runs, per-layer metrics from the traced ones.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// End-to-end runs per workload.
    runs: BTreeMap<String, usize>,
    failed_ops: u64,
}

impl ResultSet {
    fn read(path: &str) -> Result<ResultSet, String> {
        let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut set = ResultSet::default();
        for (n, line) in source
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let bad = |what: &str| format!("{path}:{}: {what}", n + 1);
            let json = warp_wire::parse(line).map_err(|e| bad(&e.to_string()))?;
            let traced = json
                .bool_field("trace")
                .ok_or_else(|| bad("no trace flag"))?;
            let workload = json
                .str_field("workload")
                .ok_or_else(|| bad("no workload"))?;
            let result = json.get("result").ok_or_else(|| bad("no result"))?;
            set.failed_ops += result
                .u64_field("failed")
                .ok_or_else(|| bad("no failed count"))?;
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err(bad("no metrics"));
            };
            for (name, m) in metrics {
                let value = m
                    .num_field("value")
                    .ok_or_else(|| bad("metric without value"))?;
                set.values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
            if !traced {
                *set.runs.entry(workload.to_string()).or_default() += 1;
            }
        }
        Ok(set)
    }
}

/// Judges one (workload, metric) pair; returns the verdict and whether
/// it fails the comparison.
fn verdict(m: &MetricSpec, a: &[f64], b: &[f64]) -> (&'static str, bool) {
    let sign = if m.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (median(b) - median(a)) / median(a);
    if worse_by > m.bound {
        return ("EXCEEDED", true);
    }
    let all_better = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    // A single-shot set has no quartiles; its spread reads as 0.
    let wide = |v: &[f64]| v.len() >= 2 && spread(v) > m.bound;
    // The set-up bound is on the medians alone (its spread is that of
    // a 50 ms job; the driver exempts it likewise).
    if m.name != "setup_s" && (wide(a) || wide(b)) && !all_better {
        return ("unresolved", false);
    }
    ("ok", false)
}

/// Prints the table; `Ok(false)` when a bound is exceeded or any
/// operation failed.
///
/// # Errors
///
/// Unreadable inputs.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: warp-benchmark compare A.jsonl B.jsonl".into());
    };
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|s| Spec::parse(&s))?;
    let (a, b) = (ResultSet::read(a_path)?, ResultSet::read(b_path)?);
    let mut ok = true;
    println!(
        "{:<8} {:<20} {:>14} {:>14} {:>8} {:>6} {:>9} {:>9}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "A spread", "B spread"
    );
    for workload in &spec.workloads {
        let runs = |s: &ResultSet| s.runs.get(workload).copied().unwrap_or(0);
        if runs(&a) == 0 || runs(&b) == 0 {
            println!(
                "{workload:<8} missing from a result set ({} and {} runs)",
                runs(&a),
                runs(&b)
            );
            ok = false;
            continue;
        }
        for m in &spec.end_to_end {
            let key = (workload.clone(), m.name.clone());
            let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
                println!("{workload:<8} {:<20} missing from a result set", m.name);
                ok = false;
                continue;
            };
            let (word, fails) = verdict(m, va, vb);
            ok &= !fails;
            let pct = |v: &[f64]| if v.len() >= 2 { spread(v) * 100.0 } else { 0.0 };
            println!(
                "{workload:<8} {:<20} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}% {:>8.1}% {:>8.1}%  {word} ({})",
                m.name,
                median(va),
                median(vb),
                (median(vb) - median(va)) / median(va) * 100.0,
                m.bound * 100.0,
                pct(va),
                pct(vb),
                m.unit,
            );
        }
        // Where a change sits: the traced runs' layer metrics, side by
        // side. They have no bound.
        for (name, unit) in &spec.per_layer {
            let key = (workload.clone(), name.clone());
            if let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) {
                let (ma, mb) = (median(va), median(vb));
                println!(
                    "{workload:<8} {name:<32} {ma:>14.6} {mb:>14.6} {:>+7.1}%  ({unit})",
                    if ma == 0.0 {
                        0.0
                    } else {
                        (mb - ma) / ma * 100.0
                    }
                );
            }
        }
    }
    println!("ops_failed: A {} B {}", a.failed_ops, b.failed_ops);
    Ok(ok && a.failed_ops == 0 && b.failed_ops == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(name: &str, bound: f64) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let m = lower("build_seq_s", 0.10);
        let steady = [1.00, 1.01, 1.02, 1.01, 1.00];
        assert_eq!(
            verdict(&m, &steady, &[1.05, 1.06, 1.05, 1.04, 1.06]),
            ("ok", false)
        );
        assert_eq!(
            verdict(&m, &steady, &[1.15, 1.16, 1.15, 1.14, 1.16]),
            ("EXCEEDED", true)
        );
        // Within the bound but too noisy to call unchanged.
        let noisy = [0.80, 1.00, 1.25, 0.90, 1.20];
        assert_eq!(verdict(&m, &steady, &noisy), ("unresolved", false));
        // Noisy, yet every run of B beats every run of A.
        assert_eq!(
            verdict(&m, &[2.0, 2.1, 2.6, 2.2, 2.7], &noisy),
            ("ok", false)
        );
        // Set-up is judged on medians alone.
        assert_eq!(
            verdict(&lower("setup_s", 0.25), &noisy, &noisy),
            ("ok", false)
        );
        // A count that must not grow at all.
        let exact = lower("code_words", 0.0);
        assert_eq!(verdict(&exact, &[5.0, 5.0], &[5.0, 5.0]), ("ok", false));
        assert_eq!(
            verdict(&exact, &[5.0, 5.0], &[6.0, 6.0]),
            ("EXCEEDED", true)
        );
    }

    #[test]
    fn spec_parses_the_contract_shape() {
        let spec = Spec::parse(
            r#"{"command":["bash"],"paths":["benchmark"],"run_seconds":28,
                "workloads":[{"name":"heavy","why":"x"}],
                "end_to_end":[{"name":"setup_s","unit":"s","better":"lower","bound":0.25}],
                "per_layer":[{"name":"lang.lex_s","unit":"s","better":"lower"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads, ["heavy"]);
        assert_eq!(spec.end_to_end[0].bound, 0.25);
        assert!(spec.end_to_end[0].lower_is_better);
        assert_eq!(
            spec.per_layer,
            [("lang.lex_s".to_string(), "s".to_string())]
        );
        assert!(Spec::parse("{}").is_err());
    }
}
