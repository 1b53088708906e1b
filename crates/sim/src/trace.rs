//! Kernel-level trace recording (the data behind Fig. 10's simplified
//! kernel traces).

use crate::timeline::Category;

/// What a recorded kernel was: the closed set of labels the runtime
/// engine records, one byte each. [`KernelLabel::as_str`] is the span name
/// an export shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelLabel {
    /// One layer's forward pass (training, inference, prefill).
    LayerFwd,
    /// One layer's backward pass.
    LayerBwd,
    /// One layer's decode step.
    LayerDecode,
    /// Kernel-launch overhead of a decode step.
    KernelLaunch,
    /// Tensor-parallel all-reduce of a forward pass.
    TpAllreduce,
    /// Tensor-parallel all-reduce of a backward pass.
    TpAllreduceBwd,
    /// Tensor-parallel all-reduce of a decode step.
    TpAllreduceDecode,
    /// Pipeline-boundary P2P transfer of a forward pass.
    PpP2p,
    /// Pipeline-boundary P2P transfer of a decode step.
    PpP2pDecode,
    /// Data-parallel gradient all-reduce.
    GradAllreduce,
    /// Optimizer step.
    AdamStep,
    /// ZeRO-3 parameter all-gather.
    Zero3Allgather,
    /// ZeRO-3 backward all-gather and reduce-scatter.
    Zero3Bwd,
    /// Speculative decoding: the draft model's prefill.
    SpecDraftPrefill,
    /// Speculative decoding: the draft model's decode rounds.
    SpecDraftDecode,
    /// Speculative decoding: the target model's verify passes.
    SpecVerifyFwd,
    /// Speculative decoding: the plain decode of a not-profitable call.
    SpecFallbackDecode,
    /// Parameter-reallocation broadcast.
    ParamBroadcast,
    /// Work an aborted attempt did before the fault killed it.
    LostWork,
}

impl KernelLabel {
    /// The label's name (`layer_fwd`, `tp_allreduce`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            KernelLabel::LayerFwd => "layer_fwd",
            KernelLabel::LayerBwd => "layer_bwd",
            KernelLabel::LayerDecode => "layer_decode",
            KernelLabel::KernelLaunch => "kernel_launch",
            KernelLabel::TpAllreduce => "tp_allreduce",
            KernelLabel::TpAllreduceBwd => "tp_allreduce_bwd",
            KernelLabel::TpAllreduceDecode => "tp_allreduce_decode",
            KernelLabel::PpP2p => "pp_p2p",
            KernelLabel::PpP2pDecode => "pp_p2p_decode",
            KernelLabel::GradAllreduce => "grad_allreduce",
            KernelLabel::AdamStep => "adam_step",
            KernelLabel::Zero3Allgather => "zero3_allgather",
            KernelLabel::Zero3Bwd => "zero3_bwd",
            KernelLabel::SpecDraftPrefill => "spec_draft_prefill",
            KernelLabel::SpecDraftDecode => "spec_draft_decode",
            KernelLabel::SpecVerifyFwd => "spec_verify_fwd",
            KernelLabel::SpecFallbackDecode => "spec_fallback_decode",
            KernelLabel::ParamBroadcast => "param_broadcast",
            KernelLabel::LostWork => "lost_work",
        }
    }
}

/// One recorded busy interval on one GPU: 24 bytes, no heap data.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global GPU index.
    pub gpu: u32,
    /// Interval start (seconds of virtual time).
    pub start: f64,
    /// Interval end.
    pub end: f64,
    /// Busy category.
    pub category: Category,
    /// What the kernel was.
    pub label: KernelLabel,
}

const _: () = assert!(std::mem::size_of::<TraceEvent>() == 24);

/// A position in a [`Trace`], taken with [`Trace::checkpoint`] and restored
/// with [`Trace::rewind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheckpoint {
    len: usize,
    dropped: u64,
}

/// A bounded trace recorder. Recording is opt-in because full traces of a
/// long run are large; the runtime engine only enables it for the trace
/// figures.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A disabled trace that records nothing.
    pub fn disabled() -> Self {
        Self {
            events: Vec::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// A trace recording up to `capacity` events; later events are counted
    /// but dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Whether this trace records anything.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event (no-op when disabled or full).
    pub fn record(
        &mut self,
        gpu: usize,
        start: f64,
        end: f64,
        category: Category,
        label: KernelLabel,
    ) {
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent {
                gpu: u32::try_from(gpu).expect("GPU index fits in u32"),
                start,
                end,
                category,
                label,
            });
        } else if self.capacity > 0 {
            self.dropped += 1;
        }
    }

    /// Captures the current recording position so a speculative stretch of
    /// events can be discarded with [`Trace::rewind`].
    pub fn checkpoint(&self) -> TraceCheckpoint {
        TraceCheckpoint {
            len: self.events.len(),
            dropped: self.dropped,
        }
    }

    /// Discards every event recorded after `cp` was taken, restoring the
    /// drop counter too. Used by resilient dispatch to roll back the trace
    /// of an execution attempt aborted by a fault.
    ///
    /// # Panics
    ///
    /// Panics if `cp` is from a point *ahead* of the current state (i.e.
    /// the trace was already rewound past it).
    pub fn rewind(&mut self, cp: TraceCheckpoint) {
        assert!(
            cp.len <= self.events.len() && cp.dropped <= self.dropped,
            "checkpoint is ahead of the trace"
        );
        self.events.truncate(cp.len);
        self.dropped = cp.dropped;
    }

    /// The recorded events in record order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events dropped after the capacity filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events on one GPU, in record order.
    pub fn for_gpu(&self, gpu: usize) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.gpu as usize == gpu)
            .collect()
    }

    /// Renders an ASCII lane for one GPU over `[0, horizon]` with `width`
    /// character cells — the Fig. 10 visualization.
    pub fn render_lane(&self, gpu: usize, horizon: f64, width: usize) -> String {
        assert!(
            horizon > 0.0 && width > 0,
            "need a positive horizon and width"
        );
        let mut lane = vec!['.'; width];
        for e in self.events.iter().filter(|e| e.gpu as usize == gpu) {
            let glyph = match e.category {
                Category::Compute => '#',
                Category::Launch => 'l',
                Category::TpComm => 'T',
                Category::PpComm => 'P',
                Category::DpComm => 'D',
                Category::Realloc => 'R',
                Category::Transfer => 'x',
            };
            let a = ((e.start / horizon) * width as f64).floor() as usize;
            let b = ((e.end / horizon) * width as f64).ceil() as usize;
            for cell in lane.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = glyph;
            }
        }
        lane.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use KernelLabel::{AdamStep, LayerFwd, LostWork, TpAllreduce};

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(0, 0.0, 1.0, Category::Compute, LayerFwd);
        assert!(t.events().is_empty());
        assert!(!t.enabled());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(0, i as f64, i as f64 + 1.0, Category::Compute, LayerFwd);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn per_gpu_filtering() {
        let mut t = Trace::with_capacity(10);
        t.record(0, 0.0, 1.0, Category::Compute, LayerFwd);
        t.record(1, 0.0, 1.0, Category::TpComm, TpAllreduce);
        t.record(0, 1.0, 2.0, Category::PpComm, AdamStep);
        assert_eq!(t.for_gpu(0).len(), 2);
        assert_eq!(t.for_gpu(1).len(), 1);
        assert_eq!(t.for_gpu(2).len(), 0);
    }

    #[test]
    fn checkpoint_and_rewind_discard_speculative_events() {
        let mut t = Trace::with_capacity(2);
        t.record(0, 0.0, 1.0, Category::Compute, AdamStep);
        let cp = t.checkpoint();
        t.record(0, 1.0, 2.0, Category::Compute, LostWork);
        t.record(0, 2.0, 3.0, Category::Compute, LostWork);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        t.rewind(cp);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events()[0].label, AdamStep);
        assert_eq!(t.dropped(), 0);
        // Rewinding to the same point twice is a no-op.
        t.rewind(cp);
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    #[should_panic(expected = "checkpoint is ahead")]
    fn rewinding_past_a_stale_checkpoint_panics() {
        let mut t = Trace::with_capacity(4);
        t.record(0, 0.0, 1.0, Category::Compute, LayerFwd);
        let cp = t.checkpoint();
        t.rewind(TraceCheckpoint { len: 0, dropped: 0 });
        t.rewind(cp);
    }

    #[test]
    fn lane_rendering_places_glyphs() {
        let mut t = Trace::with_capacity(10);
        t.record(0, 0.0, 0.5, Category::Compute, LayerFwd);
        t.record(0, 0.5, 1.0, Category::TpComm, TpAllreduce);
        let lane = t.render_lane(0, 1.0, 10);
        assert_eq!(lane.len(), 10);
        assert!(lane.starts_with("#####"));
        assert!(lane.ends_with("TTTTT"));
        // Empty lane elsewhere.
        assert_eq!(t.render_lane(3, 1.0, 4), "....");
    }

    #[test]
    #[should_panic(expected = "positive horizon")]
    fn lane_zero_horizon_panics() {
        Trace::with_capacity(1).render_lane(0, 0.0, 10);
    }
}
