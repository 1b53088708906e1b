//! Chrome/Perfetto trace exporter.
//!
//! Converts an [`EventStream`] into the Chrome Trace Event JSON-array format
//! (loadable at `chrome://tracing` and in the Perfetto UI). All string
//! content goes through `serde_json`, so arbitrary labels cannot break the
//! output — the hand-rolled string concatenation this replaces interpolated
//! labels unescaped.
//!
//! Mapping:
//!
//! | stream event        | chrome `ph` | notes                               |
//! |---------------------|-------------|-------------------------------------|
//! | `Begin` / `End`     | `B` / `E`   | nested spans per lane               |
//! | `Instant`           | `i`         | thread-scoped (`"s":"t"`)           |
//! | `Counter`           | `C`         | one track per counter name          |
//! | `FlowStart`/`FlowEnd` | `s` / `f` | `bp:"e"` binds to enclosing slice   |
//! | lane names          | `M`         | `process_name` / `thread_name`      |
//!
//! Virtual-clock seconds are converted to microseconds (the unit Chrome
//! expects in `ts`). The writer is where interned names, categories,
//! lanes and counter tracks turn back into strings and ids
//! ([`EventStream::str`], [`EventStream::lane`], [`EventStream::track`]);
//! the importer interns them again as it parses.

use serde::Value;

use crate::events::{EventStream, LaneId, StreamEvent};

const SECS_TO_MICROS: f64 = 1e6;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Converts the stream to the Chrome trace event array as a JSON value.
///
/// Metadata events come first (so viewers name lanes before drawing), then
/// the recorded events in record order.
pub fn to_chrome_value(stream: &EventStream) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(stream.events().len() + 16);

    for (pid, name) in stream.process_names() {
        events.push(obj(vec![
            ("ph", Value::from("M")),
            ("name", Value::from("process_name")),
            ("pid", Value::from(pid)),
            ("args", obj(vec![("name", Value::from(name))])),
        ]));
    }
    for (pid, tid, name) in stream.thread_names() {
        events.push(obj(vec![
            ("ph", Value::from("M")),
            ("name", Value::from("thread_name")),
            ("pid", Value::from(pid)),
            ("tid", Value::from(tid)),
            ("args", obj(vec![("name", Value::from(name))])),
        ]));
    }

    let text = |id| Value::from(stream.str(id));
    let lane = |ix| stream.lane(ix);
    for &event in stream.events() {
        events.push(match event {
            StreamEvent::Begin {
                lane: ix,
                name,
                category,
                ts,
            } => obj(vec![
                ("ph", Value::from("B")),
                ("name", text(name)),
                ("cat", text(category)),
                ("pid", Value::from(lane(ix).pid)),
                ("tid", Value::from(lane(ix).tid)),
                ("ts", Value::from(ts * SECS_TO_MICROS)),
            ]),
            StreamEvent::End { lane: ix, ts } => obj(vec![
                ("ph", Value::from("E")),
                ("pid", Value::from(lane(ix).pid)),
                ("tid", Value::from(lane(ix).tid)),
                ("ts", Value::from(ts * SECS_TO_MICROS)),
            ]),
            StreamEvent::Instant {
                lane: ix,
                name,
                category,
                ts,
            } => obj(vec![
                ("ph", Value::from("i")),
                ("name", text(name)),
                ("cat", text(category)),
                ("pid", Value::from(lane(ix).pid)),
                ("tid", Value::from(lane(ix).tid)),
                ("ts", Value::from(ts * SECS_TO_MICROS)),
                ("s", Value::from("t")),
            ]),
            StreamEvent::Counter { track, ts, value } => {
                let (pid, track) = stream.track(track);
                obj(vec![
                    ("ph", Value::from("C")),
                    ("name", Value::from(track)),
                    ("pid", Value::from(pid)),
                    ("ts", Value::from(ts * SECS_TO_MICROS)),
                    ("args", obj(vec![("value", Value::from(value))])),
                ])
            }
            StreamEvent::FlowStart {
                id,
                name,
                lane: ix,
                ts,
            } => obj(vec![
                ("ph", Value::from("s")),
                ("name", text(name)),
                ("cat", Value::from("flow")),
                ("id", Value::from(id)),
                ("pid", Value::from(lane(ix).pid)),
                ("tid", Value::from(lane(ix).tid)),
                ("ts", Value::from(ts * SECS_TO_MICROS)),
            ]),
            StreamEvent::FlowEnd {
                id,
                name,
                lane: ix,
                ts,
            } => obj(vec![
                ("ph", Value::from("f")),
                ("name", text(name)),
                ("cat", Value::from("flow")),
                ("id", Value::from(id)),
                ("bp", Value::from("e")),
                ("pid", Value::from(lane(ix).pid)),
                ("tid", Value::from(lane(ix).tid)),
                ("ts", Value::from(ts * SECS_TO_MICROS)),
            ]),
        });
    }

    Value::Array(events)
}

/// Converts the stream to a compact Chrome trace JSON string.
pub fn to_chrome_string(stream: &EventStream) -> String {
    serde_json::to_string(&to_chrome_value(stream)).expect("Value serialization is infallible")
}

/// Imports a Chrome trace event array back into an [`EventStream`] — the
/// inverse of [`to_chrome_value`], used by `real profile --trace file.json`
/// to analyze saved traces offline. Names, categories and counter tracks
/// are interned as they are parsed. Unknown phases are skipped; timestamps
/// convert from microseconds back to virtual seconds.
///
/// # Errors
///
/// Returns a description when the value is not an event array, an event
/// lacks its timestamp or carries a non-finite timestamp or counter value
/// or a flow id beyond `u32` (naming the event's index), an `E` event
/// closes a lane with no open span, or the imported stream breaks an
/// [`EventStream::check_invariants`] invariant (a span ending before it
/// begins, a span left open, an unpaired flow): a malformed or truncated
/// trace.
pub fn from_chrome_value(value: &Value) -> Result<EventStream, String> {
    let events = value
        .as_array()
        .ok_or("chrome trace must be a JSON array")?;
    let mut stream = EventStream::with_capacity(0);
    let u32_of = |e: &Value, key: &str| e[key].as_f64().map(|v| v as u32);
    let finite = |i: usize, what: &str, v: f64| {
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("event {i}: non-finite {what} {v}"))
        }
    };

    // Metadata pre-pass: process names carry no tid, so pair each thread
    // record with its process record before applying lane names.
    let mut procs: std::collections::BTreeMap<u32, &str> = std::collections::BTreeMap::new();
    let mut threads: std::collections::BTreeMap<(u32, u32), &str> =
        std::collections::BTreeMap::new();
    for e in events {
        if e["ph"].as_str() != Some("M") {
            continue;
        }
        let pid = u32_of(e, "pid").unwrap_or(0);
        match (e["name"].as_str(), e["args"]["name"].as_str()) {
            (Some("process_name"), Some(n)) => {
                procs.insert(pid, n);
            }
            (Some("thread_name"), Some(n)) => {
                threads.insert((pid, u32_of(e, "tid").unwrap_or(0)), n);
            }
            _ => {}
        }
    }
    for (&(pid, tid), thread) in &threads {
        let process = procs.get(&pid).copied().unwrap_or("");
        stream.set_lane_name(LaneId { pid, tid }, process, thread);
    }

    for (i, e) in events.iter().enumerate() {
        let Some(ph) = e["ph"].as_str() else { continue };
        if !matches!(ph, "B" | "E" | "i" | "C" | "s" | "f") {
            continue;
        }
        let ts = e["ts"]
            .as_f64()
            .ok_or_else(|| format!("event {i}: {ph} event missing ts"))?;
        let ts = finite(i, "ts", ts / SECS_TO_MICROS)?;
        let pid = u32_of(e, "pid").unwrap_or(0);
        let tid = u32_of(e, "tid").unwrap_or(0);
        let lane = LaneId { pid, tid };
        let name = e["name"].as_str().unwrap_or_default();
        let category = e["cat"].as_str().unwrap_or_default();
        match ph {
            "B" => {
                stream.begin(lane, name, category, ts);
            }
            "E" => {
                if !stream.is_open(lane) {
                    return Err(format!("event {i}: unmatched E event on lane {lane:?}"));
                }
                stream.end(lane, ts);
            }
            "i" => {
                stream.instant(lane, name, category, ts);
            }
            "C" => {
                let v = e["args"]["value"].as_f64().unwrap_or(0.0);
                stream.counter(pid, name, ts, finite(i, "counter value", v)?);
            }
            _ => {
                let id = e["id"].as_f64().map_or(0, |v| v as u64);
                if u32::try_from(id).is_err() {
                    return Err(format!("event {i}: flow id {id} does not fit in u32"));
                }
                if ph == "s" {
                    stream.flow_start(id, name, lane, ts);
                } else {
                    stream.flow_end(id, name, lane, ts);
                }
            }
        }
    }
    stream.check_invariants()?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::LaneId;

    fn sample_stream() -> EventStream {
        let mut s = EventStream::with_capacity(100);
        let gpu = LaneId::gpu(0, 1);
        s.set_lane_name(gpu, "node0", "gpu1");
        s.set_lane_name(LaneId::master(), "master", "controller");
        s.begin(gpu, "actor.train", "compute", 0.0);
        s.begin(gpu, "layer_fwd", "compute", 0.1);
        s.end(gpu, 0.4);
        s.end(gpu, 1.0);
        s.instant(gpu, "oom_check", "memory", 0.5);
        s.counter(0, "mem/node0/gpu1", 0.0, 11.5);
        s.flow_start(3, "req:actor.train", LaneId::master(), 0.0);
        s.flow_end(3, "req:actor.train", gpu, 1.0);
        s
    }

    #[test]
    fn export_parses_as_json_and_keeps_structure() {
        let s = sample_stream();
        let json = to_chrome_string(&s);
        let parsed: Value = serde_json::from_str(&json).unwrap();
        let events = parsed.as_array().unwrap();
        // 2 process + 2 thread metadata records precede the events.
        assert_eq!(events[0]["ph"].as_str(), Some("M"));
        let phases: Vec<&str> = events.iter().filter_map(|e| e["ph"].as_str()).collect();
        assert_eq!(phases.iter().filter(|&&p| p == "B").count(), 2);
        assert_eq!(phases.iter().filter(|&&p| p == "E").count(), 2);
        assert!(phases.contains(&"i"));
        assert!(phases.contains(&"C"));
        assert!(phases.contains(&"s"));
        assert!(phases.contains(&"f"));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let s = sample_stream();
        let parsed = to_chrome_value(&s);
        let begin = parsed
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["ph"].as_str() == Some("B") && e["name"].as_str() == Some("layer_fwd"))
            .unwrap();
        assert!((begin["ts"].as_f64().unwrap() - 0.1e6).abs() < 1e-6);
    }

    /// An event with its strings resolved and its timestamp split off, so
    /// events of two streams compare.
    fn resolved(s: &EventStream, e: &StreamEvent) -> (String, f64) {
        use StreamEvent::*;
        match *e {
            Begin {
                lane,
                name,
                category,
                ts,
            } => (
                format!("B {:?} {} {}", s.lane(lane), s.str(name), s.str(category)),
                ts,
            ),
            End { lane, ts } => (format!("E {:?}", s.lane(lane)), ts),
            Instant {
                lane,
                name,
                category,
                ts,
            } => (
                format!("i {:?} {} {}", s.lane(lane), s.str(name), s.str(category)),
                ts,
            ),
            Counter { track, ts, value } => (format!("C {:?} {value}", s.track(track)), ts),
            FlowStart { id, name, lane, ts } => {
                (format!("s {id} {} {:?}", s.str(name), s.lane(lane)), ts)
            }
            FlowEnd { id, name, lane, ts } => {
                (format!("f {id} {} {:?}", s.str(name), s.lane(lane)), ts)
            }
        }
    }

    #[test]
    fn export_import_roundtrip_preserves_events_and_names() {
        let s = sample_stream();
        let back = from_chrome_value(&to_chrome_value(&s)).unwrap();
        assert_eq!(back.events().len(), s.events().len());
        for (a, b) in back.events().iter().zip(s.events()) {
            let ((ka, ta), (kb, tb)) = (resolved(&back, a), resolved(&s, b));
            // Micros-to-secs conversion can differ in the last float bit.
            assert!(ka == kb && (ta - tb).abs() < 1e-9, "{ka} {ta} vs {kb} {tb}");
        }
        let names: Vec<_> = back.process_names().collect();
        assert_eq!(names, s.process_names().collect::<Vec<_>>());
        let threads: Vec<_> = back.thread_names().collect();
        assert_eq!(threads, s.thread_names().collect::<Vec<_>>());
        assert!(back.check_invariants().is_ok());
    }

    #[test]
    fn import_rejects_malformed_traces() {
        assert!(from_chrome_value(&Value::from("nope")).is_err());
        let orphan_end = Value::Array(vec![obj(vec![
            ("ph", Value::from("E")),
            ("pid", Value::from(0u32)),
            ("tid", Value::from(0u32)),
            ("ts", Value::from(1.0)),
        ])]);
        let err = from_chrome_value(&orphan_end).unwrap_err();
        assert!(err.contains("unmatched"), "{err}");

        let event = |ph: &str, ts: f64| {
            obj(vec![
                ("ph", Value::from(ph)),
                ("name", Value::from("x")),
                ("pid", Value::from(0u32)),
                ("tid", Value::from(0u32)),
                ("ts", Value::from(ts)),
            ])
        };
        let reject = |events: Vec<Value>, needle: &str| {
            let err = from_chrome_value(&Value::Array(events)).unwrap_err();
            assert!(err.contains(needle), "{err}");
        };
        reject(
            vec![event("B", 0.0), event("E", f64::INFINITY)],
            "event 1: non-finite ts",
        );
        let counter = obj(vec![
            ("ph", Value::from("C")),
            ("name", Value::from("mem")),
            ("ts", Value::from(0.0)),
            ("args", obj(vec![("value", Value::from(f64::NAN))])),
        ]);
        reject(vec![counter], "event 0: non-finite counter value");
        reject(vec![event("B", 5.0), event("E", 1.0)], "out-of-order");
        reject(vec![event("B", 5.0)], "left open");
        reject(
            vec![event("i", 1.0), event("s", 2.0)],
            "without matching end",
        );
        let mut flow = event("s", 0.0);
        if let Value::Object(fields) = &mut flow {
            fields.push(("id".to_string(), Value::from(1u64 << 32)));
        }
        reject(
            vec![flow],
            "event 0: flow id 4294967296 does not fit in u32",
        );
    }

    #[test]
    fn hostile_labels_cannot_inject_fields() {
        let mut s = EventStream::with_capacity(10);
        let hostile = "x\",\"pid\":999,\"y\":\"";
        s.span(LaneId::gpu(0, 0), hostile, "compute", 0.0, 1.0);
        let parsed: Value = serde_json::from_str(&to_chrome_string(&s)).unwrap();
        let begin = &parsed.as_array().unwrap()[0];
        assert_eq!(begin["name"].as_str(), Some(hostile));
        assert_eq!(begin["pid"].as_u64(), Some(0));
    }
}
