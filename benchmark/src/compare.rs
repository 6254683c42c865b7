//! `compare A.json B.json`: is B worse than A, anywhere, by more than
//! the bound `BENCHMARK.json` fixes for that metric?

use crate::json::{self, Value};
use crate::stats::{median, quartile_spread};

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

/// Reads the `end_to_end` table of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A message naming the member that is missing or of the wrong type.
pub fn bounds_of(spec: &Value) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end array")?
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .ok_or(format!("BENCHMARK.json: end_to_end entry without {key:?}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                lower_is_better: match text("better")? {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("BENCHMARK.json: end_to_end entry without a numeric bound")?,
            })
        })
        .collect()
}

/// One pairing of workload and metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub baseline: f64,
    pub candidate: f64,
    /// By how much of the baseline's median the candidate is worse;
    /// negative when it is better.
    pub worse_by: f64,
    pub bound: f64,
    /// Quartile distance over median of each side's runs (0 with fewer
    /// than two).
    pub spreads: (f64, f64),
}

impl Verdict {
    pub fn within(&self) -> bool {
        self.worse_by <= self.bound
    }
}

fn runs_of(set: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    set.get("workloads")?
        .get(workload)?
        .get(metric)?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn spread(values: &[f64]) -> f64 {
    if values.len() >= 2 {
        quartile_spread(values)
    } else {
        0.0
    }
}

/// Compares every workload × end-to-end metric of two result sets (the
/// files `all --out` writes).
///
/// # Errors
///
/// A set marked not comparable, sets measured over different windows, or
/// a pairing one of them lacks.
pub fn compare(
    baseline: &Value,
    candidate: &Value,
    bounds: &[Bound],
) -> Result<Vec<Verdict>, String> {
    for (label, set) in [("baseline", baseline), ("candidate", candidate)] {
        if set.get("comparable") != Some(&Value::Bool(true)) {
            return Err(format!(
                "the {label} set is not comparable (a --quick or traced run); measure it again"
            ));
        }
    }
    if baseline.get("seconds") != candidate.get("seconds") {
        return Err("the two sets were measured over different windows".into());
    }
    let workloads = baseline
        .get("workloads")
        .and_then(Value::members)
        .ok_or("the baseline set has no workloads")?;
    let mut verdicts = Vec::new();
    for (workload, _) in workloads {
        for b in bounds {
            let base = runs_of(baseline, workload, &b.name)
                .filter(|v| !v.is_empty())
                .ok_or(format!("baseline lacks {workload} × {}", b.name))?;
            let cand = runs_of(candidate, workload, &b.name)
                .filter(|v| !v.is_empty())
                .ok_or(format!("candidate lacks {workload} × {}", b.name))?;
            let (mb, mc) = (median(&base), median(&cand));
            let worse = if b.lower_is_better { mc - mb } else { mb - mc };
            verdicts.push(Verdict {
                workload: workload.clone(),
                metric: b.name.clone(),
                baseline: mb,
                candidate: mc,
                worse_by: worse / mb.abs(),
                bound: b.bound,
                spreads: (spread(&base), spread(&cand)),
            });
        }
    }
    Ok(verdicts)
}

/// The `compare` subcommand. Returns the process exit code: 0 when every
/// pairing is within its bound, 1 when one is outside, 2 when the files
/// cannot be compared at all.
pub fn main(args: &[String]) -> i32 {
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => match it.next() {
                Some(path) => spec_path = path.clone(),
                None => return usage(),
            },
            _ => files.push(arg.clone()),
        }
    }
    let [a, b] = files.as_slice() else {
        return usage();
    };
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let verdicts = load(&spec_path)
        .and_then(|spec| bounds_of(&spec))
        .and_then(|bounds| compare(&load(a)?, &load(b)?, &bounds));
    let verdicts = match verdicts {
        Ok(v) => v,
        Err(e) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  {:>7} {:>7}",
        "workload", "metric", "A median", "B median", "B worse", "bound", "A iqr", "B iqr"
    );
    let mut outside = 0;
    for v in &verdicts {
        println!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.2}%  {:>6.2}% {:>6.2}%{}",
            v.workload,
            v.metric,
            v.baseline,
            v.candidate,
            v.worse_by * 100.0,
            v.bound * 100.0,
            v.spreads.0 * 100.0,
            v.spreads.1 * 100.0,
            if v.within() { "" } else { "  OUTSIDE" }
        );
        outside += usize::from(!v.within());
    }
    if outside == 0 {
        println!("B is within every bound of A");
        0
    } else {
        println!("B is outside {outside} bound(s) of A");
        1
    }
}

fn usage() -> i32 {
    eprintln!("usage: ppml-benchmark compare [--spec BENCHMARK.json] A.json B.json");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(p50: &[f64], acc: &[f64]) -> Value {
        let arr = |v: &[f64]| Value::Arr(v.iter().copied().map(Value::Num).collect());
        Value::obj([
            ("comparable", Value::Bool(true)),
            ("seconds", Value::Num(20.0)),
            (
                "workloads",
                Value::obj([(
                    "w",
                    Value::obj([("op_ms_p50", arr(p50)), ("accuracy", arr(acc))]),
                )]),
            ),
        ])
    }

    fn bounds() -> Vec<Bound> {
        let spec = json::parse(
            r#"{"end_to_end": [
                {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.07},
                {"name": "accuracy", "unit": "ratio", "better": "higher", "bound": 0.01}]}"#,
        )
        .unwrap();
        bounds_of(&spec).unwrap()
    }

    #[test]
    fn direction_and_bound_decide_each_pairing() {
        let a = set(&[10.0, 10.2, 9.8], &[0.9, 0.9, 0.9]);
        let slower = set(&[10.8, 11.0, 10.9], &[0.9, 0.9, 0.9]);
        let verdicts = compare(&a, &slower, &bounds()).unwrap();
        assert!(!verdicts[0].within(), "9 % slower is outside 7 %");
        assert!(verdicts[1].within());
        // The other way round the candidate is faster: within.
        assert!(compare(&slower, &a, &bounds())
            .unwrap()
            .iter()
            .all(Verdict::within));
        // A higher-is-better metric that drops fails; one that rises passes.
        let less_accurate = set(&[10.0, 10.2, 9.8], &[0.88, 0.88, 0.88]);
        assert!(!compare(&a, &less_accurate, &bounds()).unwrap()[1].within());
        assert!(compare(&less_accurate, &a, &bounds()).unwrap()[1].within());
    }

    #[test]
    fn quick_sets_and_mismatched_windows_are_refused() {
        let a = set(&[10.0], &[0.9]);
        let mut quick = a.clone();
        if let Value::Obj(members) = &mut quick {
            members[0].1 = Value::Bool(false);
        }
        assert!(compare(&a, &quick, &bounds()).is_err());
        let mut short = a.clone();
        if let Value::Obj(members) = &mut short {
            members[1].1 = Value::Num(2.0);
        }
        assert!(compare(&a, &short, &bounds()).is_err());
        assert!(compare(&a, &a, &bounds()).is_ok());
    }
}
