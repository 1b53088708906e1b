//! Virtual GPU timelines with per-category busy accounting.

use std::fmt;

/// What a busy interval was spent on. The split mirrors Fig. 11 of the
/// paper (compute kernels vs. TP collective communication vs. PP P2P
/// communication), with extra buckets for the smaller contributors it
/// mentions (broadcasts for data transfer and parameter reallocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Dense compute and memory-bound kernels.
    Compute,
    /// Kernel launch overhead (eliminated by CUDA graphs).
    Launch,
    /// Tensor-parallel collectives (all-reduce).
    TpComm,
    /// Pipeline-parallel point-to-point transfers.
    PpComm,
    /// Data-parallel gradient all-reduce / ZeRO collectives.
    DpComm,
    /// Parameter-reallocation broadcasts.
    Realloc,
    /// Inter-call data transfers.
    Transfer,
}

impl Category {
    /// All categories, for iteration in reports.
    pub const ALL: [Category; 7] = [
        Category::Compute,
        Category::Launch,
        Category::TpComm,
        Category::PpComm,
        Category::DpComm,
        Category::Realloc,
        Category::Transfer,
    ];

    fn index(self) -> usize {
        match self {
            Category::Compute => 0,
            Category::Launch => 1,
            Category::TpComm => 2,
            Category::PpComm => 3,
            Category::DpComm => 4,
            Category::Realloc => 5,
            Category::Transfer => 6,
        }
    }

    /// The category's trace and report label (`compute`, `tp-comm`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Launch => "launch",
            Category::TpComm => "tp-comm",
            Category::PpComm => "pp-comm",
            Category::DpComm => "dp-comm",
            Category::Realloc => "realloc",
            Category::Transfer => "transfer",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One device's busy-clock and per-category totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GpuTimeline {
    busy_until: f64,
    busy: [f64; 7],
}

impl GpuTimeline {
    /// Creates an idle timeline at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The time at which this GPU becomes free.
    pub fn busy_until(&self) -> f64 {
        self.busy_until
    }

    /// Total seconds spent in `cat`.
    pub fn busy(&self, cat: Category) -> f64 {
        self.busy[cat.index()]
    }

    /// Total busy seconds across categories.
    pub fn total_busy(&self) -> f64 {
        self.busy.iter().sum()
    }

    /// Occupies the GPU for `duration` starting no earlier than `ready`,
    /// returning the interval `(start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or not finite.
    pub fn advance(&mut self, ready: f64, duration: f64, cat: Category) -> (f64, f64) {
        assert!(
            duration >= 0.0 && duration.is_finite(),
            "bad duration {duration}"
        );
        let start = ready.max(self.busy_until);
        let end = start + duration;
        self.busy_until = end;
        self.busy[cat.index()] += duration;
        (start, end)
    }
}

/// The cluster-wide timeline collection.
#[derive(Debug, Clone, PartialEq)]
pub struct Timelines {
    gpus: Vec<GpuTimeline>,
}

impl Timelines {
    /// Creates timelines for `n` GPUs, all idle at t = 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one GPU");
        Self {
            gpus: vec![GpuTimeline::new(); n],
        }
    }

    /// Number of GPUs.
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// Whether there are no GPUs (never true; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// Immutable access to one GPU's timeline.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range.
    pub fn gpu(&self, gpu: usize) -> &GpuTimeline {
        &self.gpus[gpu]
    }

    /// Seconds GPU `gpu` spent in `cat`.
    pub fn busy(&self, gpu: usize, cat: Category) -> f64 {
        self.gpus[gpu].busy(cat)
    }

    /// Serial work on a single GPU; returns the completion time.
    pub fn serial(&mut self, gpu: usize, ready: f64, duration: f64, cat: Category) -> f64 {
        self.gpus[gpu].advance(ready, duration, cat).1
    }

    /// A synchronizing collective over `gpus`: starts when every participant
    /// is free (and not before `ready`), occupies all of them for
    /// `duration`, and returns the common completion time.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is empty or contains duplicates.
    pub fn collective(&mut self, gpus: &[usize], ready: f64, duration: f64, cat: Category) -> f64 {
        assert!(!gpus.is_empty(), "collective needs participants");
        debug_assert!(
            {
                let mut sorted = gpus.to_vec();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "collective participants must be distinct"
        );
        let start = gpus
            .iter()
            .map(|&g| self.gpus[g].busy_until())
            .fold(ready, f64::max);
        for &g in gpus {
            self.gpus[g].advance(start, duration, cat);
        }
        start + duration
    }

    /// A point-to-point transfer occupying the source and destination; the
    /// transfer starts when both ends are free.
    pub fn p2p(&mut self, src: usize, dst: usize, ready: f64, duration: f64, cat: Category) -> f64 {
        if src == dst {
            return self.serial(src, ready, duration, cat);
        }
        self.collective(&[src, dst], ready, duration, cat)
    }

    /// Occupies each GPU in `gpus` from `max(from, busy_until)` up to
    /// `until` (skipping GPUs already busy past `until`), charging the time
    /// to `cat`, and returns the total GPU-seconds charged. Used by the
    /// resilient dispatcher to account work lost to a crashed or timed-out
    /// attempt: the attempt's effects are rolled back, then the wasted
    /// interval is re-occupied as dead time.
    pub fn occupy_until(&mut self, gpus: &[usize], from: f64, until: f64, cat: Category) -> f64 {
        let mut charged = 0.0;
        for &g in gpus {
            let start = from.max(self.gpus[g].busy_until());
            if start < until {
                self.gpus[g].advance(start, until - start, cat);
                charged += until - start;
            }
        }
        charged
    }

    /// The time every GPU is free (the makespan so far).
    pub fn makespan(&self) -> f64 {
        self.gpus
            .iter()
            .map(GpuTimeline::busy_until)
            .fold(0.0, f64::max)
    }

    /// Cluster-wide busy seconds per category.
    pub fn totals(&self) -> Vec<(Category, f64)> {
        Category::ALL
            .iter()
            .map(|&c| (c, self.gpus.iter().map(|g| g.busy(c)).sum()))
            .collect()
    }

    /// Total idle GPU-seconds up to the makespan.
    pub fn idle_total(&self) -> f64 {
        let span = self.makespan();
        self.gpus
            .iter()
            .map(|g| span - g.total_busy())
            .sum::<f64>()
            .max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_work_queues_fifo() {
        let mut t = Timelines::new(1);
        assert_eq!(t.serial(0, 0.0, 2.0, Category::Compute), 2.0);
        // Ready earlier than busy_until: starts when free.
        assert_eq!(t.serial(0, 1.0, 3.0, Category::Compute), 5.0);
        // Ready later than busy_until: idle gap.
        assert_eq!(t.serial(0, 10.0, 1.0, Category::Compute), 11.0);
        assert_eq!(t.busy(0, Category::Compute), 6.0);
        assert!((t.idle_total() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn collective_waits_for_slowest_participant() {
        let mut t = Timelines::new(3);
        t.serial(1, 0.0, 4.0, Category::Compute);
        let end = t.collective(&[0, 1, 2], 0.0, 1.0, Category::TpComm);
        assert_eq!(end, 5.0);
        for g in 0..3 {
            assert_eq!(t.gpu(g).busy_until(), 5.0);
            assert_eq!(t.busy(g, Category::TpComm), 1.0);
        }
        // GPUs 0 and 2 idled for 4 seconds while GPU 1 computed.
        assert!((t.idle_total() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn p2p_occupies_both_ends() {
        let mut t = Timelines::new(2);
        let end = t.p2p(0, 1, 0.0, 2.0, Category::PpComm);
        assert_eq!(end, 2.0);
        assert_eq!(t.busy(0, Category::PpComm), 2.0);
        assert_eq!(t.busy(1, Category::PpComm), 2.0);
    }

    #[test]
    fn p2p_same_gpu_degenerates_to_serial() {
        let mut t = Timelines::new(1);
        assert_eq!(t.p2p(0, 0, 0.0, 2.0, Category::PpComm), 2.0);
    }

    #[test]
    fn totals_split_by_category() {
        let mut t = Timelines::new(2);
        t.serial(0, 0.0, 1.0, Category::Compute);
        t.serial(0, 0.0, 2.0, Category::TpComm);
        t.serial(1, 0.0, 3.0, Category::Realloc);
        let totals = t.totals();
        let get = |c: Category| totals.iter().find(|(k, _)| *k == c).unwrap().1;
        assert_eq!(get(Category::Compute), 1.0);
        assert_eq!(get(Category::TpComm), 2.0);
        assert_eq!(get(Category::Realloc), 3.0);
        assert_eq!(get(Category::DpComm), 0.0);
    }

    #[test]
    fn occupy_until_charges_only_the_gap() {
        let mut t = Timelines::new(3);
        t.serial(1, 0.0, 4.0, Category::Compute);
        t.serial(2, 0.0, 10.0, Category::Compute);
        // GPU 0 idle (charged 8 - 2 = 6), GPU 1 busy to 4 (charged
        // 8 - 4 = 4), GPU 2 busy past `until` (charged nothing, untouched).
        let charged = t.occupy_until(&[0, 1, 2], 2.0, 8.0, Category::Compute);
        assert!((charged - 10.0).abs() < 1e-12);
        assert_eq!(t.gpu(0).busy_until(), 8.0);
        assert_eq!(t.gpu(1).busy_until(), 8.0);
        assert_eq!(t.gpu(2).busy_until(), 10.0);
        assert_eq!(t.busy(0, Category::Compute), 6.0);
    }

    #[test]
    fn makespan_is_max_busy_until() {
        let mut t = Timelines::new(4);
        t.serial(2, 0.0, 7.5, Category::Compute);
        assert_eq!(t.makespan(), 7.5);
    }

    #[test]
    #[should_panic(expected = "bad duration")]
    fn negative_duration_panics() {
        Timelines::new(1).serial(0, 0.0, -1.0, Category::Compute);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        Timelines::new(0);
    }

    proptest! {
        #[test]
        fn busy_never_exceeds_makespan(ops in proptest::collection::vec((0usize..4, 0.0..10.0f64, 0.0..2.0f64), 1..40)) {
            let mut t = Timelines::new(4);
            for (gpu, ready, dur) in ops {
                t.serial(gpu, ready, dur, Category::Compute);
            }
            let span = t.makespan();
            for g in 0..4 {
                prop_assert!(t.gpu(g).total_busy() <= span + 1e-9);
            }
            prop_assert!(t.idle_total() >= 0.0);
        }

        #[test]
        fn collective_aligns_all_participants(pre in proptest::collection::vec(0.0..5.0f64, 3), dur in 0.0..3.0f64) {
            let mut t = Timelines::new(3);
            for (g, &d) in pre.iter().enumerate() {
                t.serial(g, 0.0, d, Category::Compute);
            }
            let end = t.collective(&[0, 1, 2], 0.0, dur, Category::TpComm);
            for g in 0..3 {
                prop_assert!((t.gpu(g).busy_until() - end).abs() < 1e-12);
            }
            let expected = pre.iter().cloned().fold(0.0, f64::max) + dur;
            prop_assert!((end - expected).abs() < 1e-12);
        }
    }
}
