//! Span-based structured event stream over the virtual clock.
//!
//! An [`EventStream`] is an append-only, bounded log of observability events
//! positioned on the simulator's virtual timeline: nested begin/end spans,
//! instant events, counter samples, and flow arrows that link a master
//! `Request` dispatch to the worker `Response` that completes it. Events are
//! placed on *lanes* ([`LaneId`]), which map one-to-one onto Chrome trace
//! `pid`/`tid` rows; [`crate::lanes::Scope`] owns which row each node, GPU,
//! call and synthetic control lane gets.
//!
//! Nesting is enforced at record time with a per-lane span stack: `end`
//! without a matching `begin` is rejected, and [`EventStream::open_spans`]
//! exposes the dangling count so tests (and the exporter) can assert that
//! every span was closed. Timestamps are virtual seconds; the Chrome
//! exporter converts to microseconds.
//!
//! Names, categories and counter tracks are interned: the stream stores
//! each distinct string once in a symbol table, and events carry [`Sym`]
//! ids, so an event owns no heap data. [`EventStream::str`] resolves an id.
//! Lanes are interned the same way: an event carries a [`LaneIx`], the
//! index of its [`LaneId`] in the stream's lane table, resolved with
//! [`EventStream::lane`]; the per-lane open-span counters are a vector
//! indexed by it. A counter sample carries a [`TrackIx`] for its
//! `(pid, track name)` pair ([`EventStream::track`]), and a flow arrow a
//! `u32` id. Every event is 24 bytes.
//!
//! [`Recorder`] is what an emitter writes into. The stream implements it
//! by keeping every event; [`crate::critpath::SpanSet`] implements it by
//! keeping only the closed spans, which is all a profile reads.

use std::collections::{BTreeMap, HashMap};

/// A trace lane: one horizontal row in the trace viewer.
///
/// `pid` groups rows (a node, or a synthetic process such as the master);
/// `tid` is the row within the group (a GPU, or a control thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LaneId {
    /// Process row (node index, or a synthetic process id).
    pub pid: u32,
    /// Thread row within the process (GPU index, or a control thread).
    pub tid: u32,
}

/// An interned string of one [`EventStream`]: a span or flow name, a
/// category, or a counter track. Resolve it with [`EventStream::str`] on
/// the stream that recorded it; ids from different streams do not compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// An interned lane of one [`EventStream`] or [`crate::critpath::SpanSet`].
/// Resolve it with [`EventStream::lane`] or [`crate::critpath::SpanSet::lane`]
/// on the recorder that interned it; indices from different recorders do
/// not compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaneIx(pub(crate) u32);

/// An interned counter track of one [`EventStream`]: a process id and a
/// track name. Resolve it with [`EventStream::track`] on the stream that
/// recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrackIx(u32);

/// One event in the stream. Timestamps are virtual-clock seconds; strings,
/// lanes and counter tracks are ids into the stream's tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamEvent {
    /// Opens a nested span on `lane`.
    Begin {
        /// Lane the span lives on.
        lane: LaneIx,
        /// Span name (e.g. `layer_fwd`).
        name: Sym,
        /// Category (e.g. `compute`, `tp-comm`).
        category: Sym,
        /// Start time.
        ts: f64,
    },
    /// Closes the innermost open span on `lane`.
    End {
        /// Lane the span lives on.
        lane: LaneIx,
        /// End time.
        ts: f64,
    },
    /// A point-in-time marker.
    Instant {
        /// Lane the marker sits on.
        lane: LaneIx,
        /// Marker name.
        name: Sym,
        /// Category.
        category: Sym,
        /// Time of the marker.
        ts: f64,
    },
    /// One sample of a named counter track.
    Counter {
        /// The track (process and name, e.g. `mem/node0/gpu1`).
        track: TrackIx,
        /// Sample time.
        ts: f64,
        /// Sampled value.
        value: f64,
    },
    /// Start of a flow arrow (e.g. master dispatches a `Request`).
    FlowStart {
        /// Correlation id shared with the matching [`StreamEvent::FlowEnd`].
        id: u32,
        /// Flow name.
        name: Sym,
        /// Lane the arrow leaves from.
        lane: LaneIx,
        /// Departure time.
        ts: f64,
    },
    /// End of a flow arrow (e.g. a worker `Response` completes).
    FlowEnd {
        /// Correlation id shared with the matching [`StreamEvent::FlowStart`].
        id: u32,
        /// Flow name.
        name: Sym,
        /// Lane the arrow lands on.
        lane: LaneIx,
        /// Arrival time.
        ts: f64,
    },
}

const _: () = assert!(std::mem::size_of::<StreamEvent>() == 24);

/// What a run recorder writes: lane names, nested spans, instant markers,
/// counter samples and flow arrows. [`EventStream`] keeps every event;
/// [`crate::critpath::SpanSet`] keeps only the closed spans, which is all
/// a profile reads.
pub trait Recorder {
    /// Names `lane`'s process and thread.
    fn set_lane_name(&mut self, lane: LaneId, process: &str, thread: &str);
    /// Opens a nested span on `lane`.
    fn begin(&mut self, lane: LaneId, name: &str, category: &str, ts: f64);
    /// Closes the innermost open span on `lane`.
    fn end(&mut self, lane: LaneId, ts: f64);
    /// Records a complete span (begin + end in one call).
    fn span(&mut self, lane: LaneId, name: &str, category: &str, start: f64, end: f64) {
        self.begin(lane, name, category, start);
        self.end(lane, end);
    }
    /// Records an instant marker.
    fn instant(&mut self, lane: LaneId, name: &str, category: &str, ts: f64);
    /// Records one counter-track sample.
    fn counter(&mut self, pid: u32, track: &str, ts: f64, value: f64);
    /// Whether counter samples are kept. Emitters may skip computing the
    /// samples of a recorder that drops them.
    fn keeps_counters(&self) -> bool {
        true
    }
    /// Records the start of a flow arrow.
    fn flow_start(&mut self, id: u64, name: &str, lane: LaneId, ts: f64);
    /// Records the end of a flow arrow.
    fn flow_end(&mut self, id: u64, name: &str, lane: LaneId, ts: f64);
    /// Number of flow arrows started so far. Emitters that number their
    /// arrows from it keep ids unique across everything one recorder holds.
    fn flows(&self) -> u64;
}

/// Each distinct string of a recorder, stored once.
#[derive(Debug, Clone, Default)]
pub(crate) struct Symbols {
    strs: Vec<Box<str>>,
    ids: HashMap<Box<str>, Sym>,
}

impl Symbols {
    pub(crate) fn intern(&mut self, s: &str) -> Sym {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = Sym(u32::try_from(self.strs.len()).expect("fewer than 2^32 symbols"));
        self.strs.push(s.into());
        self.ids.insert(s.into(), id);
        id
    }

    pub(crate) fn str(&self, id: Sym) -> &str {
        &self.strs[id.0 as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.strs.len()
    }
}

/// Process and thread names of a recorder's lanes.
#[derive(Debug, Clone, Default)]
pub(crate) struct LaneNames {
    /// `pid -> process name` (e.g. `node0`).
    processes: BTreeMap<u32, String>,
    /// `(pid, tid) -> thread name` (e.g. `gpu3`).
    threads: BTreeMap<(u32, u32), String>,
}

impl LaneNames {
    pub(crate) fn set(&mut self, lane: LaneId, process: &str, thread: &str) {
        self.processes.insert(lane.pid, process.to_string());
        self.threads
            .insert((lane.pid, lane.tid), thread.to_string());
    }

    pub(crate) fn process(&self, pid: u32) -> Option<&str> {
        self.processes.get(&pid).map(String::as_str)
    }

    pub(crate) fn thread(&self, lane: LaneId) -> Option<&str> {
        self.threads.get(&(lane.pid, lane.tid)).map(String::as_str)
    }
}

/// Each distinct key of a recorder's table, stored once and numbered in
/// first-use order.
#[derive(Debug, Clone)]
pub(crate) struct Table<K> {
    keys: Vec<K>,
    ids: HashMap<K, u32>,
}

impl<K> Default for Table<K> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            ids: HashMap::new(),
        }
    }
}

impl<K: Copy + Eq + std::hash::Hash> Table<K> {
    pub(crate) fn intern(&mut self, key: K) -> u32 {
        let keys = &mut self.keys;
        *self.ids.entry(key).or_insert_with(|| {
            keys.push(key);
            u32::try_from(keys.len() - 1).expect("fewer than 2^32 table keys")
        })
    }

    pub(crate) fn get(&self, key: &K) -> Option<u32> {
        self.ids.get(key).copied()
    }

    pub(crate) fn key(&self, id: u32) -> K {
        self.keys[id as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Bounded, append-only event stream with lane metadata.
#[derive(Debug, Clone, Default)]
pub struct EventStream {
    events: Vec<StreamEvent>,
    symbols: Symbols,
    /// Interned lanes, indexed by [`LaneIx`].
    lanes: Table<LaneId>,
    /// Interned `(pid, track name)` pairs, indexed by [`TrackIx`].
    tracks: Table<(u32, Sym)>,
    capacity: usize,
    dropped: u64,
    names: LaneNames,
    /// Count of currently open spans, indexed by [`LaneIx`].
    open: Vec<u32>,
    /// Flow arrows started so far (recorded or dropped).
    flows: u64,
}

impl EventStream {
    /// Creates a stream holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Names a lane `node{n}/gpu{g}`-style for the trace viewer. Metadata is
    /// stored out-of-band and does not count against capacity.
    pub fn set_lane_name(&mut self, lane: LaneId, process: &str, thread: &str) {
        self.names.set(lane, process, thread);
    }

    /// Appends the event `make` builds, interning its strings, unless the
    /// stream is full: a dropped event interns nothing, so capacity bounds
    /// the symbol table too. (A span's lane is interned even when its
    /// begin is dropped: the open-span counters need it.)
    fn push(&mut self, make: impl FnOnce(&mut Self) -> StreamEvent) -> bool {
        if self.capacity > 0 && self.events.len() >= self.capacity {
            self.dropped += 1;
            return false;
        }
        let event = make(self);
        self.events.push(event);
        true
    }

    fn intern_lane(&mut self, lane: LaneId) -> LaneIx {
        let ix = self.lanes.intern(lane);
        if ix as usize == self.open.len() {
            self.open.push(0);
        }
        LaneIx(ix)
    }

    /// Opens a span. Returns `false` when the event was dropped (stream
    /// full); the matching [`EventStream::end`] must still be called — the
    /// stack is tracked independently of storage so nesting stays balanced.
    pub fn begin(&mut self, lane: LaneId, name: &str, category: &str, ts: f64) -> bool {
        let lane = self.intern_lane(lane);
        self.open[lane.0 as usize] += 1;
        self.push(|s| StreamEvent::Begin {
            lane,
            name: s.symbols.intern(name),
            category: s.symbols.intern(category),
            ts,
        })
    }

    /// Closes the innermost open span on `lane`.
    ///
    /// # Panics
    ///
    /// Panics when no span is open on `lane` — an unmatched `end` is a
    /// programming error that would corrupt the whole trace.
    pub fn end(&mut self, lane: LaneId, ts: f64) -> bool {
        let ix = self.lanes.get(&lane);
        match ix.map(|ix| &mut self.open[ix as usize]) {
            Some(n) if *n > 0 => *n -= 1,
            _ => panic!("EventStream::end on lane {lane:?} with no open span"),
        }
        let lane = LaneIx(ix.expect("an open span's lane is interned"));
        self.push(|_| StreamEvent::End { lane, ts })
    }

    /// Records a complete span (begin + end in one call).
    pub fn span(&mut self, lane: LaneId, name: &str, category: &str, start: f64, end: f64) {
        self.begin(lane, name, category, start);
        self.end(lane, end);
    }

    /// Records an instant marker.
    pub fn instant(&mut self, lane: LaneId, name: &str, category: &str, ts: f64) -> bool {
        self.push(|s| StreamEvent::Instant {
            lane: s.intern_lane(lane),
            name: s.symbols.intern(name),
            category: s.symbols.intern(category),
            ts,
        })
    }

    /// Records one counter-track sample.
    pub fn counter(&mut self, pid: u32, track: &str, ts: f64, value: f64) -> bool {
        self.push(|s| {
            let name = s.symbols.intern(track);
            StreamEvent::Counter {
                track: TrackIx(s.tracks.intern((pid, name))),
                ts,
                value,
            }
        })
    }

    /// Records the start of a flow arrow.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not fit in 32 bits.
    pub fn flow_start(&mut self, id: u64, name: &str, lane: LaneId, ts: f64) -> bool {
        let id = flow_id(id);
        self.flows += 1;
        self.push(|s| StreamEvent::FlowStart {
            id,
            name: s.symbols.intern(name),
            lane: s.intern_lane(lane),
            ts,
        })
    }

    /// Records the end of a flow arrow.
    ///
    /// # Panics
    ///
    /// Panics when `id` does not fit in 32 bits.
    pub fn flow_end(&mut self, id: u64, name: &str, lane: LaneId, ts: f64) -> bool {
        let id = flow_id(id);
        self.push(|s| StreamEvent::FlowEnd {
            id,
            name: s.symbols.intern(name),
            lane: s.intern_lane(lane),
            ts,
        })
    }

    /// The recorded events, in record order.
    pub fn events(&self) -> &[StreamEvent] {
        &self.events
    }

    /// The string an id of this stream stands for.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not interned by this stream.
    pub fn str(&self, id: Sym) -> &str {
        self.symbols.str(id)
    }

    /// The lane an index of this stream stands for.
    ///
    /// # Panics
    ///
    /// Panics when `ix` was not interned by this stream.
    pub fn lane(&self, ix: LaneIx) -> LaneId {
        self.lanes.key(ix.0)
    }

    /// The process id and track name a counter track of this stream
    /// stands for.
    ///
    /// # Panics
    ///
    /// Panics when `ix` was not interned by this stream.
    pub fn track(&self, ix: TrackIx) -> (u32, &str) {
        let (pid, name) = self.tracks.key(ix.0);
        (pid, self.str(name))
    }

    /// Number of distinct strings the stream's events refer to.
    pub fn symbols(&self) -> usize {
        self.symbols.len()
    }

    /// The symbol and lane tables and the lane names, for replaying the
    /// stream into another recorder under the same ids.
    pub(crate) fn tables(&self) -> (&Symbols, &Table<LaneId>, &LaneNames) {
        (&self.symbols, &self.lanes, &self.names)
    }

    /// Number of flow arrows started so far. Emitters that number their
    /// arrows from it keep ids unique across everything one stream holds.
    pub fn flows(&self) -> u64 {
        self.flows
    }

    /// Number of events dropped after the stream filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total count of spans currently open across all lanes.
    pub fn open_spans(&self) -> u32 {
        self.open.iter().sum()
    }

    /// Whether a span is open on `lane`, so [`EventStream::end`] may close
    /// it.
    pub(crate) fn is_open(&self, lane: LaneId) -> bool {
        self.lanes
            .get(&lane)
            .is_some_and(|ix| self.open[ix as usize] > 0)
    }

    /// Named processes, sorted by pid.
    pub fn process_names(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .processes
            .iter()
            .map(|(&pid, name)| (pid, name.as_str()))
    }

    /// The name of process `pid`, if it was named.
    pub fn process_name(&self, pid: u32) -> Option<&str> {
        self.names.process(pid)
    }

    /// The name of `lane`'s thread, if it was named.
    pub fn thread_name(&self, lane: LaneId) -> Option<&str> {
        self.names.thread(lane)
    }

    /// Named threads, sorted by (pid, tid).
    pub fn thread_names(&self) -> impl Iterator<Item = (u32, u32, &str)> {
        self.names
            .threads
            .iter()
            .map(|(&(pid, tid), name)| (pid, tid, name.as_str()))
    }

    /// Checks the cross-event invariants tests rely on:
    /// every recorded `End` closes an earlier `Begin` on the same lane (the
    /// per-lane running depth never goes negative), no span is left open,
    /// span timestamps within a lane are non-decreasing in record order,
    /// and every flow id appears as a start/end pair with the start recorded
    /// before the end.
    ///
    /// The strict checks are waived once events were dropped: a truncated
    /// stream may legitimately retain an `End` whose `Begin` fell off, and
    /// its surviving order proves nothing about the emitter.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.open_spans() != 0 {
            return Err(format!("{} span(s) left open", self.open_spans()));
        }
        let lanes = self.lanes.len();
        let mut depth = vec![0i64; lanes];
        // Per-lane high-water mark of span timestamps.
        let mut last_ts = vec![f64::NEG_INFINITY; lanes];
        let mut flow_starts: BTreeMap<u32, u64> = BTreeMap::new();
        let mut flow_ends: BTreeMap<u32, u64> = BTreeMap::new();
        // Emitters accumulate timestamps in floating point, so a few ulps of
        // backwards drift between adjacent spans is legitimate; only a
        // visible regression is an ordering violation.
        const TS_EPS: f64 = 1e-9;
        let mut check_lane_ts = |lane: LaneIx, ts: f64| -> Result<(), String> {
            let prev = &mut last_ts[lane.0 as usize];
            if ts < *prev - TS_EPS {
                return Err(format!(
                    "out-of-order span timestamp on lane {:?}: {ts} after {prev}",
                    self.lane(lane)
                ));
            }
            if ts > *prev {
                *prev = ts;
            }
            Ok(())
        };
        for event in &self.events {
            match *event {
                StreamEvent::Begin { lane, ts, .. } => {
                    depth[lane.0 as usize] += 1;
                    if self.dropped == 0 {
                        check_lane_ts(lane, ts)?;
                    }
                }
                StreamEvent::End { lane, ts } => {
                    let d = &mut depth[lane.0 as usize];
                    *d -= 1;
                    if self.dropped == 0 {
                        if *d < 0 {
                            return Err(format!("unmatched end on lane {:?}", self.lane(lane)));
                        }
                        check_lane_ts(lane, ts)?;
                    }
                }
                StreamEvent::FlowStart { id, .. } => {
                    *flow_starts.entry(id).or_insert(0) += 1;
                }
                StreamEvent::FlowEnd { id, .. } => {
                    *flow_ends.entry(id).or_insert(0) += 1;
                    if self.dropped == 0
                        && flow_ends.get(&id).copied().unwrap_or(0)
                            > flow_starts.get(&id).copied().unwrap_or(0)
                    {
                        return Err(format!("flow {id} ends without a start"));
                    }
                }
                _ => {}
            }
        }
        if self.dropped == 0 {
            for (ix, d) in depth.into_iter().enumerate() {
                if d != 0 {
                    let lane = self.lanes.key(ix as u32);
                    return Err(format!("lane {lane:?} ends with depth {d}"));
                }
            }
            for (id, n) in &flow_starts {
                if flow_ends.get(id) != Some(n) {
                    return Err(format!(
                        "flow {id} has {n} start(s) without matching end(s)"
                    ));
                }
            }
            for id in flow_ends.keys() {
                if !flow_starts.contains_key(id) {
                    return Err(format!("flow {id} ends without a start"));
                }
            }
        }
        Ok(())
    }
}

/// A flow id as the stream stores it.
fn flow_id(id: u64) -> u32 {
    u32::try_from(id).unwrap_or_else(|_| panic!("flow id {id} does not fit in u32"))
}

impl Recorder for EventStream {
    fn set_lane_name(&mut self, lane: LaneId, process: &str, thread: &str) {
        EventStream::set_lane_name(self, lane, process, thread);
    }

    fn begin(&mut self, lane: LaneId, name: &str, category: &str, ts: f64) {
        EventStream::begin(self, lane, name, category, ts);
    }

    fn end(&mut self, lane: LaneId, ts: f64) {
        EventStream::end(self, lane, ts);
    }

    fn instant(&mut self, lane: LaneId, name: &str, category: &str, ts: f64) {
        EventStream::instant(self, lane, name, category, ts);
    }

    fn counter(&mut self, pid: u32, track: &str, ts: f64, value: f64) {
        EventStream::counter(self, pid, track, ts, value);
    }

    fn flow_start(&mut self, id: u64, name: &str, lane: LaneId, ts: f64) {
        EventStream::flow_start(self, id, name, lane, ts);
    }

    fn flow_end(&mut self, id: u64, name: &str, lane: LaneId, ts: f64) {
        EventStream::flow_end(self, id, name, lane, ts);
    }

    fn flows(&self) -> u64 {
        EventStream::flows(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_balance() {
        let mut s = EventStream::with_capacity(100);
        let lane = LaneId::gpu(0, 1);
        s.begin(lane, "outer", "compute", 0.0);
        s.begin(lane, "inner", "compute", 1.0);
        assert_eq!(s.open_spans(), 2);
        s.end(lane, 2.0);
        s.end(lane, 3.0);
        assert_eq!(s.open_spans(), 0);
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn unmatched_end_panics() {
        let mut s = EventStream::with_capacity(10);
        s.end(LaneId::gpu(0, 0), 1.0);
    }

    #[test]
    fn out_of_order_span_timestamps_are_rejected() {
        let mut s = EventStream::with_capacity(10);
        let lane = LaneId::gpu(0, 0);
        s.span(lane, "a", "compute", 2.0, 3.0);
        s.span(lane, "b", "compute", 1.0, 1.5); // starts before `a` ended
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("out-of-order span timestamp"), "{err}");
        // A different lane is an independent clock: no violation.
        let mut s = EventStream::with_capacity(10);
        s.span(LaneId::gpu(0, 0), "a", "compute", 2.0, 3.0);
        s.span(LaneId::gpu(0, 1), "b", "compute", 1.0, 1.5);
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    fn end_before_begin_timestamp_is_rejected() {
        let mut s = EventStream::with_capacity(10);
        let lane = LaneId::gpu(0, 0);
        s.span(lane, "a", "compute", 1.0, 0.5); // ends before it starts
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("out-of-order span timestamp"), "{err}");
    }

    #[test]
    fn flow_end_recorded_before_start_is_rejected() {
        let mut s = EventStream::with_capacity(10);
        s.flow_end(7, "req", LaneId::gpu(0, 0), 1.0);
        s.flow_start(7, "req", LaneId::master(), 0.0);
        let err = s.check_invariants().unwrap_err();
        assert!(err.contains("ends without a start"), "{err}");
    }

    #[test]
    fn flows_must_pair() {
        let mut s = EventStream::with_capacity(10);
        s.flow_start(7, "req", LaneId::master(), 0.0);
        assert!(s.check_invariants().is_err());
        s.flow_end(7, "req", LaneId::gpu(0, 0), 1.0);
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    fn capacity_bounds_storage_not_nesting() {
        let mut s = EventStream::with_capacity(2);
        let lane = LaneId::gpu(0, 0);
        s.span(lane, "a", "compute", 0.0, 1.0); // fills capacity
        s.span(lane, "b", "compute", 1.0, 2.0); // dropped, stack stays sane
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.open_spans(), 0);
        assert!(s.check_invariants().is_ok());
    }

    /// Drives a stream with an arbitrary op sequence, keeping a shadow stack
    /// so every `end` targets a lane with an open span. Returns the stream
    /// with all spans closed.
    fn drive(ops: &[(usize, u32, u32)], capacity: usize) -> EventStream {
        let mut s = EventStream::with_capacity(capacity);
        let mut stack: Vec<LaneId> = Vec::new();
        let mut flows: u64 = 0;
        let mut ts = 0.0;
        for &(op, node, gpu) in ops {
            let lane = LaneId::gpu(node, gpu);
            ts += 0.5;
            match op {
                0 => {
                    s.begin(lane, "span", "compute", ts);
                    stack.push(lane);
                }
                1 => {
                    if let Some(l) = stack.pop() {
                        s.end(l, ts);
                    }
                }
                2 => {
                    s.instant(lane, "mark", "compute", ts);
                }
                3 => {
                    s.counter(node, "mem", ts, f64::from(gpu));
                }
                _ => {
                    s.flow_start(flows, "req", LaneId::master(), ts);
                    s.flow_end(flows, "req", lane, ts + 0.25);
                    flows += 1;
                }
            }
        }
        while let Some(l) = stack.pop() {
            ts += 0.5;
            s.end(l, ts);
        }
        s
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn random_well_formed_streams_keep_invariants(
            ops in proptest::collection::vec((0usize..5, 0u32..3, 0u32..4), 0..120)
        ) {
            let s = drive(&ops, 0);
            prop_assert_eq!(s.open_spans(), 0);
            prop_assert_eq!(s.dropped(), 0);
            prop_assert!(s.check_invariants().is_ok());
            // Per-lane begin/end counts balance exactly.
            let mut per_lane: BTreeMap<LaneId, i64> = BTreeMap::new();
            for e in s.events() {
                match *e {
                    StreamEvent::Begin { lane, .. } => *per_lane.entry(s.lane(lane)).or_insert(0) += 1,
                    StreamEvent::End { lane, .. } => *per_lane.entry(s.lane(lane)).or_insert(0) -= 1,
                    _ => {}
                }
            }
            for (_, d) in per_lane {
                prop_assert_eq!(d, 0);
            }
        }

        #[test]
        fn random_flow_ids_always_pair(
            ops in proptest::collection::vec((0usize..5, 0u32..3, 0u32..4), 0..120)
        ) {
            let s = drive(&ops, 0);
            let mut starts: BTreeMap<u32, u64> = BTreeMap::new();
            let mut ends: BTreeMap<u32, u64> = BTreeMap::new();
            for e in s.events() {
                match e {
                    StreamEvent::FlowStart { id, .. } => *starts.entry(*id).or_insert(0) += 1,
                    StreamEvent::FlowEnd { id, .. } => *ends.entry(*id).or_insert(0) += 1,
                    _ => {}
                }
            }
            prop_assert_eq!(starts, ends);
        }

        #[test]
        fn capped_streams_drop_without_corruption(
            ops in proptest::collection::vec((0usize..5, 0u32..3, 0u32..4), 0..120),
            cap in 1usize..8
        ) {
            let s = drive(&ops, cap);
            prop_assert!(s.events().len() <= cap);
            prop_assert_eq!(s.open_spans(), 0);
            // A truncated stream still passes (the strict checks are waived
            // once events were dropped, but the walk must not error).
            prop_assert!(s.check_invariants().is_ok());
        }

        #[test]
        fn chrome_export_of_random_stream_parses(
            ops in proptest::collection::vec((0usize..5, 0u32..3, 0u32..4), 0..60)
        ) {
            let s = drive(&ops, 0);
            let json = crate::chrome::to_chrome_string(&s);
            let v: serde_json::Value = serde_json::from_str(&json).expect("export parses");
            prop_assert_eq!(v.as_array().unwrap().len(), s.events().len());
            // Import interns the names afresh; the re-export is the same
            // bytes (the driver's timestamps convert to microseconds and
            // back exactly).
            let back = crate::chrome::from_chrome_value(&v).expect("export imports");
            prop_assert_eq!(crate::chrome::to_chrome_string(&back), json);
        }
    }

    #[test]
    fn events_hold_no_heap_data() {
        assert_eq!(std::mem::size_of::<StreamEvent>(), 24);
    }

    #[test]
    fn spans_hold_no_heap_data() {
        assert_eq!(std::mem::size_of::<crate::critpath::Span>(), 32);
    }

    #[test]
    fn repeated_strings_are_stored_once() {
        let mut s = EventStream::with_capacity(0);
        let lane = LaneId::gpu(0, 0);
        for i in 0..100 {
            let t = f64::from(i);
            s.span(lane, "layer_fwd", "compute", t, t + 0.5);
            s.counter(0, "mem", t, t);
        }
        assert_eq!(s.events().len(), 300);
        assert_eq!(s.symbols(), 3);
        let StreamEvent::Begin { name, category, .. } = s.events()[0] else {
            panic!("first event is a begin");
        };
        assert_eq!((s.str(name), s.str(category)), ("layer_fwd", "compute"));
        let StreamEvent::Counter { track, .. } = s.events()[2] else {
            panic!("third event is a counter");
        };
        assert_eq!(s.track(track), (0, "mem"));
    }

    #[test]
    fn lanes_and_tracks_are_interned_per_stream() {
        let mut s = EventStream::with_capacity(0);
        let (a, b) = (LaneId::gpu(0, 0), LaneId::gpu(1, 0));
        s.span(a, "x", "compute", 0.0, 1.0);
        s.span(b, "x", "compute", 0.0, 1.0);
        s.instant(a, "m", "compute", 1.0);
        s.counter(0, "mem", 0.0, 1.0);
        s.counter(1, "mem", 0.0, 2.0);
        s.counter(0, "mem", 1.0, 3.0);
        let lanes: Vec<LaneId> = s
            .events()
            .iter()
            .filter_map(|e| match *e {
                StreamEvent::Begin { lane, .. } | StreamEvent::Instant { lane, .. } => {
                    Some(s.lane(lane))
                }
                _ => None,
            })
            .collect();
        assert_eq!(lanes, vec![a, b, a]);
        let tracks: Vec<TrackIx> = s
            .events()
            .iter()
            .filter_map(|e| match *e {
                StreamEvent::Counter { track, .. } => Some(track),
                _ => None,
            })
            .collect();
        // One track per (pid, name): pid 0's samples share theirs.
        assert_eq!(tracks[0], tracks[2]);
        assert_ne!(tracks[0], tracks[1]);
        assert_eq!(s.track(tracks[1]), (1, "mem"));
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    fn flow_ids_beyond_u32_are_refused() {
        let mut s = EventStream::with_capacity(0);
        s.flow_start(1 << 32, "req", LaneId::master(), 0.0);
    }

    #[test]
    fn dropped_events_intern_nothing() {
        let mut s = EventStream::with_capacity(1);
        s.instant(LaneId::gpu(0, 0), "kept", "compute", 0.0);
        s.instant(LaneId::gpu(0, 0), "dropped", "other", 1.0);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.symbols(), 2);
    }

    #[test]
    fn lane_metadata_is_sorted() {
        let mut s = EventStream::with_capacity(10);
        s.set_lane_name(LaneId::gpu(1, 0), "node1", "gpu0");
        s.set_lane_name(LaneId::gpu(0, 3), "node0", "gpu3");
        let procs: Vec<_> = s.process_names().collect();
        assert_eq!(procs, vec![(0, "node0"), (1, "node1")]);
        let threads: Vec<_> = s.thread_names().collect();
        assert_eq!(threads, vec![(0, 3, "gpu3"), (1, 0, "gpu0")]);
        assert_eq!(s.process_name(1), Some("node1"));
        assert_eq!(s.process_name(2), None);
        assert_eq!(s.thread_name(LaneId::gpu(0, 3)), Some("gpu3"));
        assert_eq!(s.thread_name(LaneId::gpu(0, 0)), None);
    }
}
