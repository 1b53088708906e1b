//! Helpers shared by the behaviour-contract tests (`runtime_contract`,
//! `search_contract`, `trace_contract`, `sched_contract`): exact-bits JSON
//! rendering (a whole `RunReport` included), a stable digest, and the
//! bless-or-compare step against a committed fixture under
//! `tests/fixtures/`.

// Each contract test uses a subset of these helpers.
#![allow(dead_code)]

use serde_json::{Number, Value};

/// Replaces every float in `v` with its bit pattern as a hex string, so
/// the fixture pins exact values rather than their decimal rendering.
pub fn bits(v: Value) -> Value {
    match v {
        Value::Number(Number::F(f)) => f64_bits(f),
        Value::Array(items) => Value::Array(items.into_iter().map(bits).collect()),
        Value::Object(members) => {
            Value::Object(members.into_iter().map(|(k, v)| (k, bits(v))).collect())
        }
        other => other,
    }
}

pub fn f64_bits(f: f64) -> Value {
    Value::String(format!("{:016x}", f.to_bits()))
}

pub fn to_bits_json<T: serde::Serialize>(value: &T) -> Value {
    bits(serde_json::to_value(value))
}

pub fn obj(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// 64-bit FNV-1a, fed byte slices and rendered as 16 hex digits.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Renders `cases` as one pretty JSON object and compares it with the
/// committed `tests/fixtures/<fixture>`; with `BLESS` set in the
/// environment the fixture is rewritten first. `subject` names what
/// drifted in the failure message.
pub fn assert_matches_fixture(fixture: &str, subject: &str, cases: Vec<(String, Value)>) {
    let json = serde_json::to_string_pretty(&Value::Object(cases)).unwrap() + "\n";
    let path = format!(
        "{}/../../tests/fixtures/{fixture}",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &json).unwrap();
    }
    let expected = std::fs::read_to_string(&path).unwrap();
    assert!(
        json == expected,
        "{subject} drifted from the contract fixture; BLESS=1 to regenerate"
    );
}

/// 64-bit FNV-1a over the trace's `(label, gpu, start, end)` tuples.
fn trace_digest(trace: &real_core::real_sim::Trace) -> String {
    let mut h = Fnv::new();
    for e in trace.events() {
        h.feed(e.label.as_str().as_bytes());
        h.feed(&u64::from(e.gpu).to_le_bytes());
        h.feed(&e.start.to_bits().to_le_bytes());
        h.feed(&e.end.to_bits().to_le_bytes());
    }
    h.hex()
}

/// One line per request and response, in log order.
fn master_log_json(log: &real_core::real_runtime::MasterLog) -> Value {
    let requests = log.requests.iter().map(|q| {
        let locations: Vec<String> = q
            .data_locations
            .iter()
            .map(|d| format!("{}<-{}@{:?}", d.key, d.produced_by, d.shard_leaders))
            .collect();
        Value::String(format!(
            "{} {}#{} {:016x} x{} [{}]",
            q.call.0,
            q.handle,
            q.iter,
            q.dispatch_time.to_bits(),
            q.worker_count,
            locations.join(" ")
        ))
    });
    let responses = log.responses.iter().map(|p| {
        Value::String(format!(
            "{}#{} {:016x}",
            p.call.0,
            p.iter,
            p.completed_at.to_bits()
        ))
    });
    obj(vec![
        ("requests", Value::Array(requests.collect())),
        ("responses", Value::Array(responses.collect())),
    ])
}

/// Every field of a run report, floats as bit patterns and the kernel
/// trace as its event count and digest.
pub fn report_json(r: &real_core::real_runtime::RunReport) -> Value {
    let timings = r
        .timings
        .iter()
        .map(|t| {
            Value::String(format!(
                "{}#{} {:016x} {:016x}",
                t.call_name,
                t.iter,
                t.start.to_bits(),
                t.end.to_bits()
            ))
        })
        .collect();
    let totals = r
        .category_totals
        .iter()
        .map(|(c, v)| Value::String(format!("{c:?} {:016x}", v.to_bits())))
        .collect();
    obj(vec![
        ("iterations", Value::from(r.iterations as u64)),
        ("total_time", f64_bits(r.total_time)),
        ("iter_time", f64_bits(r.iter_time)),
        ("idle_total", f64_bits(r.idle_total)),
        ("category_totals", Value::Array(totals)),
        ("timings", Value::Array(timings)),
        ("faults", bits(serde_json::to_value(&r.faults))),
        ("replan", bits(serde_json::to_value(&r.replan))),
        ("async_stats", bits(serde_json::to_value(&r.async_stats))),
        ("master_log", master_log_json(&r.master_log)),
        ("trace_events", Value::from(r.trace.events().len() as u64)),
        ("trace_digest", Value::String(trace_digest(&r.trace))),
    ])
}
