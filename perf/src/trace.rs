//! Host-clock spans recorded around each public call the benchmark makes.
//!
//! Spans are kept in memory and written out once, at the end of the run,
//! as a `real_obs::EventStream` exported with the repository's own Chrome
//! exporter. The recorder is off during the untraced pass, where a span is
//! only a timer.

use real_obs::{chrome, EventStream, LaneId};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Where a span was recorded: one lane per op, plus set-up and the layer
/// sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    Setup,
    Sweep,
    Op(usize),
}

impl Lane {
    fn id(self) -> LaneId {
        let tid = match self {
            Lane::Setup => 0,
            Lane::Sweep => 1,
            Lane::Op(i) => 2 + i as u32,
        };
        LaneId { pid: 0, tid }
    }

    fn label(self) -> String {
        match self {
            Lane::Setup => "setup".into(),
            Lane::Sweep => "sweep".into(),
            Lane::Op(i) => format!("op{i}"),
        }
    }
}

/// One recorded span. `parent` indexes the enclosing span, if any; the op
/// a span belongs to is its lane in the exported trace.
#[derive(Debug, Clone)]
pub struct HostSpan {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    process: String,
    lane: Lane,
    stream: EventStream,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Seconds spent inside [`Recorder::untimed`] since the last
    /// [`Recorder::take_untimed`].
    untimed: f64,
}

impl Recorder {
    pub fn new(process: &str) -> Self {
        let mut stream = EventStream::default();
        stream.set_lane_name(Lane::Setup.id(), process, &Lane::Setup.label());
        Self {
            enabled: false,
            t0: Instant::now(),
            process: process.to_string(),
            lane: Lane::Setup,
            stream,
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
            untimed: 0.0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Spans and samples recorded from now on belong to `lane`.
    pub fn set_lane(&mut self, lane: Lane) {
        debug_assert!(self.open.is_empty(), "lane switch inside a span");
        if self.enabled {
            self.stream
                .set_lane_name(lane.id(), &self.process, &lane.label());
        }
        self.lane = lane;
    }

    /// Runs `f` inside a span called `name` and returns its result with the
    /// span's wall seconds (measured whether or not recording is on).
    pub fn span_secs<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let begin = Instant::now();
        if !self.enabled {
            let v = f(self);
            return (v, begin.elapsed().as_secs_f64());
        }
        let start = self.now();
        self.stream.begin(self.lane.id(), name, "host", start);
        self.spans.push(HostSpan {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        let v = f(self);
        let end = self.now();
        self.stream.end(self.lane.id(), end);
        let index = self.open.pop().expect("span stack balanced");
        self.spans[index].end = end;
        (v, begin.elapsed().as_secs_f64())
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_secs(name, f).0
    }

    /// Runs `f` without charging its time to the enclosing op (output
    /// checks, fingerprints, per-op input generation); returns the result
    /// with the seconds it took.
    pub fn untimed<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let begin = Instant::now();
        let v = f(self);
        let secs = begin.elapsed().as_secs_f64();
        self.untimed += secs;
        (v, secs)
    }

    /// Seconds spent in [`Recorder::untimed`] since the last call.
    pub fn take_untimed(&mut self) -> f64 {
        std::mem::take(&mut self.untimed)
    }

    /// Records one value of a per-layer sample metric.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Durations of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children never overlap, the benchmark is
    /// single-threaded).
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        own
    }

    /// Writes the spans as a Chrome trace.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, chrome::to_chrome_string(&self.stream))
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new("test");
        rec.set_enabled(true);
        rec.set_lane(Lane::Op(0));
        rec.span("outer", |rec| {
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            rec.span("inner", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = rec.self_times();
        let outer = spans[0].end - spans[0].start;
        assert!((own[0] - (outer - own[1] - own[2])).abs() < 1e-12);
        assert!(own[1] >= 0.005);
        assert_eq!(rec.durations("inner").len(), 2);
        rec.stream
            .check_invariants()
            .expect("balanced, ordered spans");
    }

    #[test]
    fn disabled_recorder_only_times() {
        let mut rec = Recorder::new("test");
        let (v, secs) = rec.span_secs("x", |_| 7);
        rec.sample("m", 1.0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(rec.spans().is_empty() && rec.samples("m").is_empty());
    }
}
