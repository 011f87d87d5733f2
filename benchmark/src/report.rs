//! Result files and `compare`.
//!
//! A result file holds the stamps of the invocation (commit, cores, seed,
//! binary) and one entry per run; several runs of a workload in one file
//! form a set whose medians and spread `compare` uses.

use std::path::Path;

use crate::json::{num, obj, text, Json};
use crate::run::RunResult;
use crate::spec::{self, Better};
use crate::stats;

/// Stamps shared by every run of one invocation.
pub struct Stamp {
    pub commit: String,
    pub host_cores: usize,
    pub helios: String,
    pub seconds: f64,
    pub smoke: bool,
}

/// The commit checked out at or above the working directory, read from
/// `.git` directly; `"unknown"` outside a git checkout (the driver's).
pub fn current_commit() -> String {
    let Ok(mut dir) = std::env::current_dir() else {
        return "unknown".into();
    };
    loop {
        let git = dir.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
                return hash.trim().to_string();
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                if let Some(hash) = packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(str::trim))
                {
                    return hash.to_string();
                }
            }
            return "unknown".into();
        }
        if !dir.pop() {
            return "unknown".into();
        }
    }
}

fn metrics_json(result: &RunResult, with_samples: bool) -> Json {
    Json::Obj(
        result
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", num(m.value)), ("unit", text(m.unit))];
                if with_samples && m.samples > 0 {
                    fields.push(("samples", num(m.samples as f64)));
                }
                (m.name.to_string(), obj(fields))
            })
            .collect(),
    )
}

/// The one line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(result: &RunResult) -> String {
    obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", num(result.attempted as f64)),
        ("failed", num(result.failed as f64)),
        ("metrics", metrics_json(result, false)),
    ])
    .render()
}

fn run_json(result: &RunResult, seed: u64) -> Json {
    obj([
        ("workload", text(result.workload.name)),
        ("trace", num(u32::from(result.traced))),
        ("seed", num(seed as f64)),
        ("scale", num(result.workload.scale)),
        ("correct", Json::Bool(result.correct)),
        ("valid", Json::Bool(result.valid)),
        ("attempted", num(result.attempted as f64)),
        ("failed", num(result.failed as f64)),
        ("gate_compared", num(result.gate_compared as f64)),
        (
            "phases_s",
            Json::Obj(
                result
                    .phases
                    .iter()
                    .map(|(name, s)| (name.to_string(), num(*s)))
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(result.notes.iter().map(|n| text(n.as_str())).collect()),
        ),
        ("metrics", metrics_json(result, true)),
    ])
}

/// Write a result file for `runs` (each with the seed it used).
pub fn write_results(path: &Path, stamp: &Stamp, runs: &[(RunResult, u64)]) -> Result<(), String> {
    let doc = obj([
        ("benchmark", text("helios")),
        ("commit", text(stamp.commit.as_str())),
        ("host_cores", num(stamp.host_cores as f64)),
        ("helios", text(stamp.helios.as_str())),
        ("seconds", num(stamp.seconds)),
        ("smoke", Json::Bool(stamp.smoke)),
        (
            "runs",
            Json::Arr(runs.iter().map(|(r, seed)| run_json(r, *seed)).collect()),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Print every metric of a run by name and unit.
pub fn print_table(result: &RunResult) {
    println!("== {}: {}", result.workload.name, result.workload.why);
    println!(
        "   {} — gate {}/{} seeds identical, {} of {} operations failed{}",
        if result.traced {
            "traced run, per-layer"
        } else {
            "end to end"
        },
        result.gate_compared,
        result.gate_compared,
        result.failed,
        result.attempted,
        if result.valid {
            ""
        } else {
            " — NOT COMPARABLE"
        },
    );
    for m in &result.metrics {
        let samples = if m.samples > 0 {
            format!("  (n={})", m.samples)
        } else {
            String::new()
        };
        println!("{:<44} {:>16.4} {}{samples}", m.name, m.value, m.unit);
    }
    for (phase, s) in &result.phases {
        println!("  phase {phase:<16} {s:>8.2} s");
    }
    for note in &result.notes {
        println!("  note: {note}");
    }
}

/// How a metric moved between two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// Run-to-run spread is wider than the bound: the sets cannot tell.
    Unresolved,
    /// A per-layer metric: reported, never gated.
    NotGated,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::NotGated => "-",
        }
    }
}

/// Judge `new` against `base` for a metric with the given direction and
/// bound. `worse` is the relative change in the bad direction.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let (Some(mb), Some(mn)) = (stats::median(base), stats::median(new)) else {
        return Verdict::Unresolved;
    };
    let Some(bound) = bound else {
        return Verdict::NotGated;
    };
    let spread = [base, new]
        .into_iter()
        .filter_map(stats::relative_iqr)
        .fold(0.0, f64::max);
    if spread > bound || mb == 0.0 {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => (mn - mb) / mb.abs(),
        Better::Higher => (mb - mn) / mb.abs(),
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// (workload, metric) → values, one per run in the file, untraced runs
/// for end-to-end metrics and traced runs for per-layer ones.
fn collect(doc: &Json) -> Vec<((String, String), Vec<f64>)> {
    let mut out: Vec<((String, String), Vec<f64>)> = Vec::new();
    for run in doc.get("runs").map(Json::as_array).unwrap_or_default() {
        let Some(workload) = run.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, metric) in run.get("metrics").map(Json::as_object).unwrap_or_default() {
            let Some(value) = metric.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let key = (workload.to_string(), name.clone());
            match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, values)) => values.push(value),
                None => out.push((key, vec![value])),
            }
        }
    }
    out
}

/// `compare <base.json> <new.json>`: one row per (metric, workload).
/// Returns whether any end-to-end metric regressed.
pub fn compare(base: &Path, new: &Path, bounds: &Path) -> Result<bool, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (base_doc, new_doc, contract) = (load(base)?, load(new)?, load(bounds)?);
    let bound_of = |metric: &str| -> Option<f64> {
        contract
            .get("end_to_end")?
            .as_array()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?
            .get("bound")?
            .as_f64()
    };
    let stamp = |doc: &Json| {
        format!(
            "commit {} on {} cores",
            doc.get("commit")
                .and_then(Json::as_str)
                .unwrap_or("unknown"),
            doc.get("host_cores").and_then(Json::as_f64).unwrap_or(0.0)
        )
    };
    println!("base: {} ({})", base.display(), stamp(&base_doc));
    println!("new:  {} ({})", new.display(), stamp(&new_doc));
    println!(
        "{:<14} {:<44} {:<6} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "better", "base median", "new median", "new/base", "bound"
    );
    let new_values = collect(&new_doc);
    let mut regressed = false;
    for ((workload, metric), base_values) in collect(&base_doc) {
        let Some((_, values)) = new_values
            .iter()
            .find(|((w, m), _)| *w == workload && *m == metric)
        else {
            continue;
        };
        let Some((_, _, better)) = spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER)
            .find(|m| m.0 == metric)
        else {
            continue;
        };
        let bound = bound_of(&metric);
        let verdict = judge(&base_values, values, *better, bound);
        regressed |= verdict == Verdict::Regressed;
        let (mb, mn) = (
            stats::median(&base_values).unwrap_or(f64::NAN),
            stats::median(values).unwrap_or(f64::NAN),
        );
        println!(
            "{workload:<14} {metric:<44} {:<6} {mb:>14.4} {mn:>14.4} {:>9.3} {:>6}  {}",
            better.as_str(),
            mn / mb,
            bound.map_or("-".to_string(), |b| format!("{b:.2}")),
            verdict.as_str()
        );
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = Better::Lower;
        assert_eq!(
            judge(&[10.0], &[10.4], lower, Some(0.05)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&[10.0], &[10.6], lower, Some(0.05)),
            Verdict::Regressed
        );
        assert_eq!(judge(&[10.0], &[9.0], lower, Some(0.05)), Verdict::Improved);
        assert_eq!(
            judge(&[10.0], &[9.0], Better::Higher, Some(0.05)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&[10.0], &[11.0], Better::Higher, Some(0.05)),
            Verdict::Improved
        );
        assert_eq!(judge(&[10.0], &[20.0], lower, None), Verdict::NotGated);
        assert_eq!(judge(&[], &[1.0], lower, Some(0.05)), Verdict::Unresolved);
        // Quartiles 8.5 and 11.5 around a median of 10: spread 0.3 > 0.05.
        let noisy = [8.0, 9.0, 10.0, 11.0, 12.0];
        assert_eq!(
            judge(&noisy, &[20.0], lower, Some(0.05)),
            Verdict::Unresolved
        );
        assert_eq!(judge(&noisy, &[20.0], lower, Some(0.5)), Verdict::Regressed);
    }

    #[test]
    fn result_sets_group_values_by_workload_and_metric() {
        let doc = Json::parse(
            r#"{"runs":[
                {"workload":"a","metrics":{"m":{"value":1,"unit":"ms"}}},
                {"workload":"a","metrics":{"m":{"value":3,"unit":"ms"},"n":{"value":5,"unit":"s"}}},
                {"workload":"b","metrics":{"m":{"value":7,"unit":"ms"}}}]}"#,
        )
        .unwrap();
        let got = collect(&doc);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (("a".into(), "m".into()), vec![1.0, 3.0]));
        assert_eq!(got[2], (("b".into(), "m".into()), vec![7.0]));
    }
}
