//! `aa`: run the suite several times on one build and show how far the
//! runs disagree — the tool the bounds in `BENCHMARK.json` were fixed
//! with. `compare`: judge one `aa` file against another, per metric and
//! workload, by the rules of the choosing-metrics guide.

use crate::json::{self, Value};
use crate::metrics::{Better, Metric, END_TO_END};
use crate::stats;
use crate::workloads::{self, Workload, WORKLOADS};
use std::process::Command;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The runs of one side disagree by more than the bound: the
    /// comparison cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn beats(better: Better, candidate: f64, base: f64) -> bool {
    match better {
        Better::Lower => candidate < base,
        Better::Higher => candidate > base,
    }
}

/// Judges runs `b` (the change) against runs `a` (the base) of one
/// metric on one workload.
///
/// * `unresolved` when either side's quartile distance exceeds the
///   bound — unless every run of `b` beats every run of `a`.
/// * `worse` when `b`'s median is worse than `a`'s by more than the
///   bound (as a share of `a`'s median).
/// * `better` when `b` wins at least nine tenths of the pairs (ties
///   count for neither) and the medians differ by more than `a`'s
///   quartile distance.
/// * `within-bound` otherwise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (base, change) = (stats::median(a), stats::median(b));
    if stats::spread(a) > bound || stats::spread(b) > bound {
        let clean_sweep = b.iter().all(|&y| a.iter().all(|&x| beats(better, y, x)));
        return if clean_sweep && !b.is_empty() {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = match better {
        Better::Lower => change - base,
        Better::Higher => base - change,
    };
    if worsening > bound * base.abs() {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| beats(better, b[i], a[i])).count();
    let [q1, _, q3] = stats::quartiles(a);
    if pairs > 0 && wins * 10 >= pairs * 9 && (change - base).abs() > q3 - q1 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

// ---- aa --------------------------------------------------------------

struct AaArgs {
    runs: usize,
    seconds: f64,
    seed: u64,
    workloads: Vec<&'static Workload>,
    out: Option<String>,
}

fn parse_aa_args(args: &[String]) -> Result<AaArgs, String> {
    let mut parsed = AaArgs {
        runs: 5,
        seconds: 20.0,
        seed: 1,
        workloads: Vec::new(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--runs" => parsed.runs = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--workload" => parsed
                .workloads
                .push(workloads::find(value).ok_or_else(bad)?),
            "--out" => parsed.out = Some(value.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if parsed.runs < 2 {
        return Err("--runs must be at least 2".into());
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().collect();
    }
    Ok(parsed)
}

/// Runs one workload once in a child process (clean allocator, thread
/// pools and `/proc` counters) and returns its end-to-end values.
fn child_run(workload: &Workload, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = json::parse(line).map_err(|e| {
        format!(
            "{} seed {seed}: no result ({e}); stderr: {}",
            workload.name,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if result.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{} seed {seed} was not correct: {}",
            workload.name,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result has no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Smallest multiple of 0.05 that is at least three times `spread`: the
/// bound under which a metric this noisy still counts as steady.
fn derived_bound(spread: f64) -> f64 {
    // The epsilon keeps an exact multiple (3 × 0.05) from rounding up a
    // whole step on its floating-point dust.
    ((spread * 3.0 / 0.05 - 1e-9).ceil() * 0.05).max(0.05)
}

pub fn aa(args: &[String]) -> Result<bool, String> {
    let args = parse_aa_args(args)?;
    let mut all_steady = true;
    let mut by_workload = Vec::new();
    for workload in &args.workloads {
        let mut series: Vec<(String, Vec<f64>)> = Vec::new();
        for run in 0..args.runs {
            let seed = args.seed + run as u64;
            eprintln!(
                "aa: {} run {}/{} (seed {seed})",
                workload.name,
                run + 1,
                args.runs
            );
            for (name, value) in child_run(workload, seed, args.seconds)? {
                match series.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, values)) => values.push(value),
                    None => series.push((name, vec![value])),
                }
            }
        }
        println!(
            "{} ({} runs of {} s)",
            workload.name, args.runs, args.seconds
        );
        println!(
            "  {:<20} {:>14} {:>14} {:>14} {:>8} {:>6} {:>8}  unit",
            "metric", "q1", "median", "q3", "spread", "bound", "derived"
        );
        for metric in &END_TO_END {
            let Some((_, values)) = series.iter().find(|(n, _)| n == metric.name) else {
                return Err(format!("{} reported no {}", workload.name, metric.name));
            };
            let [q1, q2, q3] = stats::quartiles(values);
            let spread = stats::spread(values);
            let steady = metric.name == "setup_s" || spread <= metric.bound / 3.0;
            all_steady &= steady;
            println!(
                "  {:<20} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6.2} {:>8.2}  {}{}",
                metric.name,
                q1,
                q2,
                q3,
                spread,
                metric.bound,
                derived_bound(spread),
                metric.unit,
                if steady {
                    ""
                } else {
                    "  <- spread above a third of the bound"
                },
            );
        }
        by_workload.push((workload.name, series));
    }
    if let Some(path) = &args.out {
        let values = Value::Obj(
            by_workload
                .into_iter()
                .map(|(workload, series)| {
                    let metrics = series
                        .into_iter()
                        .map(|(name, v)| {
                            (name, Value::Arr(v.into_iter().map(Value::Num).collect()))
                        })
                        .collect();
                    (workload.to_owned(), Value::Obj(metrics))
                })
                .collect(),
        );
        let doc = Value::Obj(vec![
            ("kind".into(), Value::Str("perfbench-aa".into())),
            ("seconds".into(), Value::Num(args.seconds)),
            ("first_seed".into(), Value::Num(args.seed as f64)),
            ("runs".into(), Value::Num(args.runs as f64)),
            (
                "host_cores".into(),
                Value::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
            ),
            (
                "linalg_threads".into(),
                std::env::var("SAP_LINALG_THREADS").map_or(Value::Null, Value::Str),
            ),
            (
                "commit".into(),
                Value::Str(tool_line("git", &["rev-parse", "HEAD"])),
            ),
            (
                "rustc".into(),
                Value::Str(tool_line("rustc", &["--version"])),
            ),
            ("values".into(), values),
            ("claim".into(), Value::Null),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
        eprintln!("aa: wrote {path}");
    }
    Ok(all_steady)
}

// ---- compare ---------------------------------------------------------

fn series(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("values")?
        .get(workload)?
        .get(metric)?
        .as_arr()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn load_aa_file(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("kind").and_then(Value::as_str) != Some("perfbench-aa") {
        return Err(format!("{path} is not an `aa --out` file"));
    }
    Ok(doc)
}

/// One row per (workload, end-to-end metric) present in both files.
fn compare_docs(a: &Value, b: &Value) -> Vec<(&'static str, &'static Metric, Vec<f64>, Vec<f64>)> {
    let mut rows = Vec::new();
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            if let (Some(x), Some(y)) = (
                series(a, workload.name, metric.name),
                series(b, workload.name, metric.name),
            ) {
                rows.push((workload.name, metric, x, y));
            }
        }
    }
    rows
}

pub fn compare_files(args: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = args else {
        return Err("compare takes two `aa --out` files: base, then change".into());
    };
    let (a, b) = (load_aa_file(path_a)?, load_aa_file(path_b)?);
    if a.get("seconds") != b.get("seconds") {
        return Err("the two files measured for different --seconds; not comparable".into());
    }
    let rows = compare_docs(&a, &b);
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "base median", "change median", "ratio", "bound"
    );
    let mut none_worse = true;
    for (workload, metric, x, y) in rows {
        let v = verdict(&x, &y, metric.better, metric.bound);
        none_worse &= v != Verdict::Worse;
        let (base, change) = (stats::median(&x), stats::median(&y));
        println!(
            "{:<16} {:<20} {:>14.6} {:>14.6} {:>8.4} {:>6.2}  {} ({} is better)",
            workload,
            metric.name,
            base,
            change,
            change / base,
            metric.bound,
            v.as_str(),
            metric.better.as_str(),
        );
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOUND: f64 = 0.10;

    #[test]
    fn same_numbers_are_within_bound() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(&a, &a, Better::Lower, BOUND), Verdict::WithinBound);
        assert_eq!(verdict(&a, &a, Better::Higher, BOUND), Verdict::WithinBound);
    }

    #[test]
    fn a_median_beyond_the_bound_is_worse_in_the_metrics_direction() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = a.map(|x| x * 1.2);
        assert_eq!(verdict(&a, &slower, Better::Lower, BOUND), Verdict::Worse);
        assert_eq!(verdict(&a, &slower, Better::Higher, BOUND), Verdict::Better);
        let faster = a.map(|x| x * 0.8);
        assert_eq!(verdict(&a, &faster, Better::Higher, BOUND), Verdict::Worse);
        assert_eq!(verdict(&a, &faster, Better::Lower, BOUND), Verdict::Better);
    }

    #[test]
    fn a_small_shift_inside_the_noise_is_not_a_gain() {
        let a = [10.0, 10.4, 9.6, 10.2, 9.8];
        let b = a.map(|x| x * 0.99);
        assert_eq!(verdict(&a, &b, Better::Lower, BOUND), Verdict::WithinBound);
        // Within the bound but worse: still not a regression.
        let c = a.map(|x| x * 1.05);
        assert_eq!(verdict(&a, &c, Better::Lower, BOUND), Verdict::WithinBound);
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten() {
        let a = [10.0; 10];
        let mut b = [9.5; 10];
        assert_eq!(verdict(&a, &b, Better::Lower, BOUND), Verdict::Better);
        b[0] = 10.5;
        b[1] = 10.5;
        assert_eq!(verdict(&a, &b, Better::Lower, BOUND), Verdict::WithinBound);
    }

    #[test]
    fn noisy_runs_are_unresolved_unless_one_side_sweeps() {
        let noisy = [5.0, 10.0, 15.0, 20.0, 25.0];
        let a = [14.0, 15.0, 16.0, 15.5, 14.5];
        assert_eq!(
            verdict(&a, &noisy, Better::Lower, BOUND),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &a, Better::Lower, BOUND),
            Verdict::Unresolved
        );
        let far_better = [1.0, 1.1, 0.9, 1.0, 1.05];
        assert_eq!(
            verdict(&noisy, &far_better, Better::Lower, BOUND),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &far_better, Better::Higher, BOUND),
            Verdict::Unresolved
        );
    }

    #[test]
    fn derived_bound_is_three_spreads_rounded_up() {
        assert_eq!(derived_bound(0.0), 0.05);
        assert!((derived_bound(0.02) - 0.10).abs() < 1e-12);
        assert!((derived_bound(0.05) - 0.15).abs() < 1e-12);
    }

    #[test]
    fn compare_reads_what_aa_writes() {
        let doc = |scale: f64| {
            let values: Vec<Value> = [10.0, 10.1, 9.9]
                .iter()
                .map(|v| Value::Num(v * scale))
                .collect();
            Value::Obj(vec![
                ("kind".into(), Value::Str("perfbench-aa".into())),
                (
                    "values".into(),
                    Value::Obj(vec![(
                        "bulk_stream".into(),
                        Value::Obj(vec![("session_p50_s".into(), Value::Arr(values))]),
                    )]),
                ),
            ])
        };
        let rows = compare_docs(&doc(1.0), &doc(1.5));
        assert_eq!(rows.len(), 1);
        let (workload, metric, a, b) = &rows[0];
        assert_eq!((*workload, metric.name), ("bulk_stream", "session_p50_s"));
        assert_eq!(verdict(a, b, metric.better, metric.bound), Verdict::Worse);
    }

    #[test]
    fn aa_arguments() {
        let to = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let a = parse_aa_args(&to(&["--runs", "7", "--workload", "mixed_open"])).unwrap();
        assert_eq!((a.runs, a.workloads.len()), (7, 1));
        assert_eq!(parse_aa_args(&[]).unwrap().workloads.len(), WORKLOADS.len());
        assert!(parse_aa_args(&to(&["--runs", "1"])).is_err());
        assert!(parse_aa_args(&to(&["--workload", "nope"])).is_err());
    }
}
