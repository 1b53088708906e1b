//! Helpers shared by the behaviour-contract tests (`runtime_contract`,
//! `search_contract`, `trace_contract`): exact-bits JSON rendering, a
//! stable digest, and the bless-or-compare step against a committed
//! fixture under `tests/fixtures/`.

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
