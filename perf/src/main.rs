//! `real-perf`: the host-side performance benchmark of real-rs.
//!
//! ```text
//! real-perf [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--runs R] [--out FILE]
//! real-perf compare BASE.json NEW.json
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! op times and per-layer metrics). Without it, every workload runs
//! `--runs` times, each in a child process of its own (plus one traced run
//! each with `--trace 1`), and `--out` collects them into a results file
//! for `compare`. See README.md for the workloads and metrics.

mod registry;
mod results;
mod stats;
mod trace;
mod workloads;

use registry::{
    Agg, Judged, Layer, END_TO_END, LAYERS, OP_TIMES, QUALITY, RUN_SECONDS, WORKLOADS,
    WORKLOAD_LAYERS,
};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Recorder;
use workloads::{Config, Outcome};

const USAGE: &str = "usage: real-perf [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
                     [--runs R] [--out FILE]\n       real-perf compare BASE.json NEW.json";

/// Where traces and per-run records go, relative to the working directory.
const OUT_DIR: &str = "target/perf";

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                parsed.workload = Some(
                    WORKLOADS
                        .iter()
                        .map(|w| w.0)
                        .find(|name| name == w)
                        .ok_or_else(|| format!("unknown workload `{w}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("--seed: bad seed `{v}`"))?;
            }
            "--seconds" => {
                parsed.seconds = number(value()?)?;
                if !(parsed.seconds > 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got `{v}`")),
                }
            }
            "--runs" => {
                let v = value()?;
                parsed.runs = v
                    .parse()
                    .ok()
                    .filter(|&r| r > 0)
                    .ok_or_else(|| format!("--runs: bad count `{v}`"))?;
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [base, new] => results::compare(Path::new(base), Path::new(new)),
            _ => usage("compare takes two result files"),
        };
    }
    match parse(&args) {
        Ok(a) => match a.workload {
            Some(w) => run_one(&a, w),
            None => results::run_all(&a),
        },
        Err(e) => usage(&e),
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}\n{USAGE}");
    ExitCode::from(2)
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    pub value: f64,
    pub count: usize,
}

/// The values of `metrics` this run produced, all from the untraced pass.
fn judged(out: &Outcome, metrics: &'static [Judged]) -> Vec<Metric> {
    metrics
        .iter()
        .filter_map(|m| {
            let (value, count) = match m.name {
                "setup_s" => (stats::median(&out.setup_s)?, out.setup_s.len()),
                "peak_rss_mb" => (out.peak_rss_mb, 1),
                "op_p50_s" => (stats::median(&out.op_s)?, out.op_s.len()),
                "op_mean_s" => (stats::mean(&out.op_s)?, out.op_s.len()),
                quality => {
                    let values = out.quality.get(quality)?;
                    (stats::median(values)?, values.len())
                }
            };
            Some(Metric {
                name: m.name,
                unit: m.unit,
                better: m.bound.better.as_str(),
                value,
                count,
            })
        })
        .collect()
}

fn layer_metric(rec: &Recorder, layer: &'static Layer) -> Option<Metric> {
    let values: Vec<f64> = match layer.span {
        Some(span) => rec
            .durations(span)
            .iter()
            .map(|d| d * layer.scale)
            .collect(),
        None => rec.samples(layer.name).to_vec(),
    };
    let value = match layer.agg {
        Agg::Median => stats::median(&values),
        Agg::Mean => stats::mean(&values),
    }?;
    Some(Metric {
        name: layer.name,
        unit: layer.unit,
        better: layer.better.as_str(),
        value,
        count: values.len(),
    })
}

fn table(metrics: &[Metric]) -> String {
    let mut t = real_util::Table::new(vec!["metric", "value", "unit", "n", "better"]);
    for m in metrics {
        t.row(vec![
            m.name.to_string(),
            format!("{:.6}", m.value),
            m.unit.to_string(),
            m.count.to_string(),
            m.better.to_string(),
        ]);
    }
    t.render()
}

fn run_one(a: &Args, workload: &'static str) -> ExitCode {
    let cfg = Config {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
    };
    let mut rec = Recorder::new(&format!("real-perf {workload}"));
    let mut out = workloads::run(&cfg, &mut rec);

    println!(
        "real-perf {workload}: seed {}, {} s, {}",
        a.seed,
        a.seconds,
        if a.trace {
            "untraced and traced passes"
        } else {
            "untraced pass"
        }
    );
    let e2e = judged(&out, &END_TO_END);
    println!("end-to-end:\n{}", table(&e2e));
    let op_times = judged(&out, &OP_TIMES);
    println!("op times:\n{}", table(&op_times));
    match stats::tail(&out.op_s) {
        Some((p, v)) => println!("op_p{p}_s {v:.6} s over {} ops", out.op_s.len()),
        None => println!(
            "no op tail percentile: {} ops leave fewer than 10 beyond p75",
            out.op_s.len()
        ),
    }
    let quality = judged(&out, &QUALITY);
    if !quality.is_empty() {
        println!(
            "output quality (median over ops 0..{}):\n{}",
            out.digest_ops,
            table(&quality)
        );
    }

    let mut layers = Vec::new();
    let mut workload_layers = Vec::new();
    if a.trace {
        let k = out.traced_op_s.len().min(out.op_s.len());
        if let (Some(traced), Some(plain)) = (
            stats::median(&out.traced_op_s),
            stats::median(&out.op_s[..k]),
        ) {
            rec.sample("trace_overhead_frac", traced / plain);
        }
        for layer in &LAYERS {
            match layer_metric(&rec, layer) {
                Some(m) => layers.push(m),
                None => out
                    .failures
                    .push(format!("layer metric {} has no samples", layer.name)),
            }
        }
        workload_layers.extend(WORKLOAD_LAYERS.iter().filter_map(|l| layer_metric(&rec, l)));
        println!(
            "per-layer (traced pass and layer sweep):\n{}",
            table(&layers)
        );
        if !workload_layers.is_empty() {
            println!("{}", table(&workload_layers));
        }
        println!("{}", self_time_table(&rec));
        let path = Path::new(OUT_DIR).join(format!("trace-{workload}-{}.json", a.seed));
        match rec.write_chrome(&path) {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => out
                .failures
                .push(format!("writing {}: {e}", path.display())),
        }
    }

    println!(
        "digest {:016x} over ops 0..{}",
        out.digest.finish(),
        out.digest_ops
    );
    for f in &out.failures {
        println!("FAILED {f}");
    }
    let correct = out.failures.is_empty() && !out.op_s.is_empty();
    let failed = out.attempted - out.op_s.len() - out.traced_op_s.len();
    if let Some(path) = &a.out {
        let all: Vec<&Metric> = e2e
            .iter()
            .chain(&op_times)
            .chain(&quality)
            .chain(&layers)
            .chain(&workload_layers)
            .collect();
        let record = results::record(&cfg, &out, correct, failed, &all);
        if let Err(e) = results::write_json(path, &record) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // `BENCHMARK.json`'s per-layer set: op times, then the layers proper.
    let reported: Vec<&Metric> = if a.trace {
        op_times.iter().chain(&layers).collect()
    } else {
        e2e.iter().collect()
    };
    let metrics = Value::Object(
        reported
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    results::obj(vec![("value", m.value.into()), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    );
    let line = results::obj(vec![
        ("correct", correct.into()),
        ("attempted", (out.attempted as u64).into()),
        ("failed", (failed as u64).into()),
        ("metrics", metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("Value serialization is infallible")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per span name: count, median duration, and total self time (duration
/// minus the time covered by child spans).
fn self_time_table(rec: &Recorder) -> String {
    let own = rec.self_times();
    let mut names: Vec<&str> = rec.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let mut t = real_util::Table::new(vec!["span", "count", "p50 s", "self total s"]);
    for name in names {
        let durations = rec.durations(name);
        let self_total: f64 = rec
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, o)| o)
            .sum();
        t.row(vec![
            name.to_string(),
            durations.len().to_string(),
            format!("{:.6}", stats::median(&durations).unwrap_or(0.0)),
            format!("{self_total:.6}"),
        ]);
    }
    t.render()
}
