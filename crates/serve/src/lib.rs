//! Cluster-as-a-service on the virtual clock: trace-driven arrivals,
//! admission control, and checkpointed preemption.
//!
//! `real-sched` packs a *closed* batch of tenants and runs them to
//! completion; this crate serves an *open stream*. A [`WorkloadSpec`]
//! (`workload.json`) describes tenant templates and a seeded arrival
//! process — Poisson with optional periodic bursts, or a replayed trace —
//! over a day-long horizon. The [`serve`] event loop prices each template
//! once ([`price_template`]) and gives every arrival an admission verdict:
//!
//! - **Admitted** — a priced candidate mesh is free; the tenant starts a
//!   private [`real_runtime::TenantSession`] immediately.
//! - **Queued** — no capacity, but the projected stretch (queue wait
//!   folded in) stays within the `max_stretch` bound.
//! - **Rejected** — the template fits no mesh at all, or the projected
//!   (or realized) stretch blows the bound.
//!
//! When a bursty high-priority arrival lands on a full cluster, the
//! [`preemption_gate`] — the re-plan gate's cost/benefit rule generalized
//! to "is the avoided wait worth two reallocation prologues" — may suspend
//! a low-priority tenant at its next iteration boundary, lease its mesh
//! out, and resume its session later (free on its old mesh; one Fig. 6
//! prologue elsewhere).
//!
//! The result is a byte-deterministic [`ServeReport`]: admission and
//! rejection rates, queue-wait and stretch percentiles, preemption counts,
//! a utilization timeline, and full per-tenant lifecycles. `real serve`
//! is the CLI surface; see docs/SERVING.md for the operator's guide.

pub mod admission;
pub mod obs;
pub mod report;
pub mod server;
pub mod workload;

pub use admission::{
    preemption_gate, price_template, AdmissionDecision, RejectReason, TemplateCandidate,
    TemplatePrices,
};
pub use obs::{serve_event_stream, serve_metrics};
pub use report::{Segment, ServeReport, ServedTenant, UtilPoint};
pub use server::{serve, ServeError};
pub use workload::{
    AdmissionConfig, AdmissionSpec, Arrival, ArrivalSpec, BurstSpec, TemplateSpec, WorkloadError,
    WorkloadSpec, MAX_ARRIVALS,
};
