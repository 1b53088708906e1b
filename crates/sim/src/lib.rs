//! Discrete-event simulation kernel for the runtime engine.
//!
//! The runtime engine (`real-runtime`) executes execution plans as events
//! on *virtual GPU timelines*: every kernel, collective, broadcast, or
//! transfer advances the busy-clock of the GPUs it occupies. This crate
//! provides that substrate:
//!
//! - [`Category`] — what a busy interval was spent on (compute, TP/PP/DP
//!   communication, launch overhead, reallocation, data transfer), the
//!   classification behind the paper's Fig. 10 kernel traces and Fig. 11
//!   GPU-time split,
//! - [`GpuTimeline`] — one device's busy-clock plus per-category totals,
//! - [`Timelines`] — the cluster-wide collection with serial, collective,
//!   and point-to-point advancement primitives,
//! - [`Trace`] — an optional kernel-level event recorder,
//! - [`FaultPlan`] / [`FaultClock`] — a deterministic fault schedule
//!   (straggler windows, worker crashes, link degradation) and its
//!   compiled query form, used by the runtime's resilient dispatch.
//!
//! # Examples
//!
//! ```
//! use real_sim::{Category, Timelines};
//! let mut t = Timelines::new(4);
//! // A collective over GPUs 0-3 starting when all are free.
//! let end = t.collective(&[0, 1, 2, 3], 0.0, 1.5, Category::TpComm);
//! assert_eq!(end, 1.5);
//! assert_eq!(t.busy(0, Category::TpComm), 1.5);
//! ```

pub mod fault;
pub mod timeline;
pub mod trace;

pub use fault::{FaultClock, FaultEvent, FaultPlan, FaultPlanError};
pub use timeline::{Category, GpuTimeline, Timelines};
pub use trace::{KernelLabel, Trace, TraceCheckpoint, TraceEvent};
