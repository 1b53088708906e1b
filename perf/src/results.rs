//! Run records, the results file of a full run, and `compare`.

use crate::registry::{END_TO_END, LAYERS, OP_TIMES, QUALITY, WORKLOADS, WORKLOAD_LAYERS};
use crate::stats::{self, Verdict};
use crate::workloads::{Config, Outcome};
use crate::{Args, Metric, OUT_DIR};
use serde_json::Value;
use std::path::Path;
use std::process::{Command, ExitCode};

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Everything one workload run measured, as written by `--out`.
pub fn record(
    cfg: &Config,
    out: &Outcome,
    correct: bool,
    failed: usize,
    metrics: &[&Metric],
) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            let fields = vec![
                ("value", m.value.into()),
                ("unit", m.unit.into()),
                ("count", (m.count as u64).into()),
            ];
            (m.name.to_string(), obj(fields))
        })
        .collect();
    obj(vec![
        ("workload", cfg.workload.into()),
        ("seed", cfg.seed.into()),
        ("seconds", cfg.seconds.into()),
        ("trace", cfg.trace.into()),
        ("correct", correct.into()),
        ("attempted", (out.attempted as u64).into()),
        ("failed", (failed as u64).into()),
        ("digest", format!("{:016x}", out.digest.finish()).into()),
        ("digest_ops", (out.digest_ops as u64).into()),
        (
            "failures",
            Value::Array(out.failures.iter().map(|f| f.as_str().into()).collect()),
        ),
        ("metrics", Value::Object(metrics)),
    ])
}

pub fn write_json(path: &Path, value: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(value).expect("Value serialization is infallible");
    std::fs::write(path, text + "\n")
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One line of output from a helper program, or `unknown`.
fn probe(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn environment(a: &Args) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    obj(vec![
        ("nproc", nproc.into()),
        ("cpu", cpu.into()),
        ("rustc", probe("rustc", &["-V"]).into()),
        (
            "git_rev",
            probe("git", &["describe", "--always", "--dirty"]).into(),
        ),
        ("seed", a.seed.into()),
        ("seconds", a.seconds.into()),
        ("runs", (a.runs as u64).into()),
    ])
}

/// (name, unit, values) of every metric in `records` that `keep` accepts,
/// in first-seen order.
fn gather(records: &[Value], keep: impl Fn(&str) -> bool) -> Vec<(String, String, Vec<f64>)> {
    let mut out: Vec<(String, String, Vec<f64>)> = Vec::new();
    for r in records {
        for (name, m) in r["metrics"].as_object().unwrap_or(&[]) {
            let (Some(value), Some(unit)) = (m["value"].as_f64(), m["unit"].as_str()) else {
                continue;
            };
            if !keep(name) {
                continue;
            }
            match out.iter_mut().find(|e| &e.0 == name) {
                Some(e) => e.2.push(value),
                None => out.push((name.clone(), unit.to_string(), vec![value])),
            }
        }
    }
    out
}

fn summary(unit: &str, values: &[f64]) -> Value {
    let (q1, q3) = match stats::quartiles(values) {
        Some((q1, q3)) => (q1.into(), q3.into()),
        None => (Value::Null, Value::Null),
    };
    obj(vec![
        ("unit", unit.into()),
        ("median", stats::median(values).unwrap_or(0.0).into()),
        ("q1", q1),
        ("q3", q3),
        (
            "values",
            Value::Array(values.iter().map(|&v| v.into()).collect()),
        ),
    ])
}

/// Runs every workload `--runs` times untraced (and once traced with
/// `--trace 1`), each in a child process, and collects the results.
pub fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut per_workload = Vec::new();
    let mut table = real_util::Table::new(vec![
        "workload", "metric", "unit", "median", "q1", "q3", "runs",
    ]);
    for (workload, _) in WORKLOADS {
        let mut untraced = Vec::new();
        let mut traced = Vec::new();
        for run in 0..a.runs + usize::from(a.trace) {
            let trace = run == a.runs;
            let path = Path::new(OUT_DIR).join(format!("record-{workload}-{}-{run}.json", a.seed));
            let status = Command::new(&exe)
                .args(["--workload", workload, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }, "--out"])
                .arg(&path)
                .status();
            if !status.as_ref().is_ok_and(|s| s.success()) {
                eprintln!("error: {workload} run {run} failed: {status:?}");
                ok = false;
            }
            match read_json(&path) {
                Ok(r) if trace => traced.push(r),
                Ok(r) => untraced.push(r),
                Err(e) => {
                    eprintln!("error: {e}");
                    ok = false;
                }
            }
        }
        let all: Vec<&Value> = untraced.iter().chain(&traced).collect();
        let digests: Vec<Value> = all.iter().map(|r| r["digest"].clone()).collect();
        if digests.windows(2).any(|d| d[0] != d[1]) {
            eprintln!("error: {workload}: runs of one seed printed different digests");
            ok = false;
        }
        let is_layer = |n: &str| LAYERS.iter().chain(&WORKLOAD_LAYERS).any(|l| l.name == n);
        let mut metrics = gather(&untraced, |n| !is_layer(n));
        metrics.extend(gather(&traced, is_layer));
        for (name, unit, values) in &metrics {
            let (q1, q3) = stats::quartiles(values).unwrap_or((f64::NAN, f64::NAN));
            table.row(vec![
                workload.to_string(),
                name.clone(),
                unit.clone(),
                format!("{:.6}", stats::median(values).unwrap_or(f64::NAN)),
                format!("{q1:.6}"),
                format!("{q3:.6}"),
                values.len().to_string(),
            ]);
        }
        let column = |key: &str| Value::Array(all.iter().map(|r| r[key].clone()).collect());
        per_workload.push((
            workload.to_string(),
            obj(vec![
                (
                    "correct",
                    all.iter().all(|r| r["correct"] == Value::Bool(true)).into(),
                ),
                ("digests", Value::Array(digests)),
                ("attempted", column("attempted")),
                ("failed", column("failed")),
                (
                    "metrics",
                    Value::Object(
                        metrics
                            .iter()
                            .map(|(n, u, v)| (n.clone(), summary(u, v)))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    println!("{}", table.render());
    if let Some(path) = &a.out {
        let results = obj(vec![
            ("env", environment(a)),
            ("workloads", Value::Object(per_workload)),
        ]);
        if let Err(e) = write_json(path, &results) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("results: {}", path.display());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn values(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    results["workloads"][workload]["metrics"][metric]["values"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

fn describe(values: &[f64]) -> String {
    let median = stats::median(values).unwrap_or(f64::NAN);
    match stats::quartiles(values) {
        Some((q1, q3)) => format!("{median:.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        None => format!("{median:.4} n={}", values.len()),
    }
}

/// Prints each side's median and quartiles for every (workload, judged
/// metric: end-to-end, op time, output quality) and the verdict under the
/// benchmark's bounds; exits non-zero when any pair regressed.
pub fn compare(base: &Path, new: &Path) -> ExitCode {
    let (a, b) = match (read_json(base), read_json(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for (label, r) in [("base", &a), ("new", &b)] {
        let env = &r["env"];
        println!(
            "{label}: git {} | {} | nproc {} | {} | seed {} | {} run(s) of {} s",
            env["git_rev"].as_str().unwrap_or("?"),
            env["rustc"].as_str().unwrap_or("?"),
            env["nproc"].as_u64().unwrap_or(0),
            env["cpu"].as_str().unwrap_or("?"),
            env["seed"].as_u64().unwrap_or(0),
            env["runs"].as_u64().unwrap_or(0),
            env["seconds"].as_f64().unwrap_or(0.0),
        );
    }
    let mut table = real_util::Table::new(vec![
        "workload", "metric", "unit", "base", "new", "change", "bound", "verdict",
    ]);
    let mut regressed = false;
    for (workload, _) in WORKLOADS {
        for m in END_TO_END.iter().chain(&OP_TIMES).chain(&QUALITY) {
            let (av, bv) = (values(&a, workload, m.name), values(&b, workload, m.name));
            let quality = QUALITY.iter().any(|q| q.name == m.name);
            if quality && av.is_empty() && bv.is_empty() {
                continue;
            }
            let verdict = if av.is_empty() || bv.is_empty() {
                "missing".to_string()
            } else {
                let v = stats::verdict(&av, &bv, m.bound);
                regressed |= v == Verdict::Regressed;
                v.as_str().to_string()
            };
            let change = match (stats::median(&av), stats::median(&bv)) {
                (Some(x), Some(y)) if x != 0.0 => format!("{:+.2}%", 100.0 * (y - x) / x),
                _ => "-".into(),
            };
            let floor = if m.bound.floor > 0.0 {
                format!(", at least {} {}", m.bound.floor, m.unit)
            } else {
                String::new()
            };
            table.row(vec![
                workload.to_string(),
                m.name.to_string(),
                m.unit.to_string(),
                describe(&av),
                describe(&bv),
                change,
                format!(
                    "{}%{floor}, {}",
                    100.0 * m.bound.rel,
                    m.bound.better.as_str()
                ),
                verdict,
            ]);
        }
        let digest = |r: &Value| r["workloads"][workload]["digests"][0].clone();
        if a["env"]["seed"] == b["env"]["seed"] && digest(&a) != digest(&b) {
            println!("note: {workload} outputs differ between base and new (digest)");
        }
    }
    println!("{}", table.render());
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
