//! Unified observability layer for `real-rs`.
//!
//! Half of the ReaL paper's evaluation *is* observability: Fig. 10 kernel
//! traces, Fig. 11 GPU-time splits, Fig. 12 estimator-vs-runtime error,
//! Fig. 13 search-progress curves. This crate provides the two substrates
//! those figures (and every later performance PR) are built on:
//!
//! - [`metrics`] — a deterministic registry of counters, gauges, fixed-bucket
//!   histograms, and bounded time series keyed by `(name, labels)`,
//!   snapshotable to JSON via serde. Iteration order is fully deterministic
//!   (BTreeMap + sorted labels), so snapshots diff cleanly across runs.
//! - [`events`] — a span-based structured event stream over the *virtual*
//!   clock: nested begin/end spans, instant events, counter tracks, and flow
//!   events linking a master `Request` dispatch to its worker `Response`.
//!   Names, categories, lanes and counter tracks are interned per stream,
//!   so an event is 24 bytes of ids ([`events::Sym`], [`events::LaneIx`],
//!   [`events::TrackIx`]), times and values, and holds no heap data.
//! - [`lanes`] — the one lane layout: which Chrome process and thread each
//!   GPU, function call, fault window and control lane of a run gets, for
//!   a solo run ([`lanes::Scope::cluster`]) or one tenant of several
//!   ([`lanes::Scope::tenant`]).
//! - [`chrome`] — a serde_json-backed Chrome/Perfetto trace exporter (and
//!   importer, for offline analysis of saved traces) for
//!   [`events::EventStream`], with metadata records naming lanes
//!   `node{n}/gpu{g}`.
//! - [`critpath`] — the [`critpath::SpanSet`] of a run's closed spans (a
//!   [`events::Recorder`] that keeps only what a profile reads, or a
//!   stream replayed) and critical-path extraction: which chain of spans
//!   actually gated the makespan.
//! - [`profile`] — phase attribution (generation/training/inference/
//!   realloc/transfer/backoff/idle, conserving the makespan), per-GPU
//!   utilization, comm-vs-compute overlap, and the [`profile::ProfileReport`]
//!   behind `real profile` and its CI regression gate.
//!
//! Producers upstream: `real-runtime::obs::record_run` (the one run
//! recorder: per-GPU kernel spans from the `real-sim` trace, per-link
//! utilization counters, function-call spans, fault and re-plan lanes,
//! per-GPU memory tracks), `real-serve` (tenant lifecycle lanes),
//! `real-search` (MCMC chain telemetry), `real-estimator` (Algorithm-1
//! queue events).

pub mod chrome;
pub mod critpath;
pub mod events;
pub mod lanes;
pub mod metrics;
pub mod profile;

pub use chrome::{from_chrome_value, to_chrome_value};
pub use critpath::{CritEntry, CriticalPath, Span, SpanSet};
pub use events::{EventStream, LaneId, LaneIx, Recorder, StreamEvent, Sym, TrackIx};
pub use lanes::{Lane, OverlapLayers, Scope};
pub use metrics::{Histogram, MergeError, MetricValue, MetricsRegistry, MetricsSnapshot, Series};
pub use profile::{phase_overlap, Phase, PhaseShare, ProfileReport};
