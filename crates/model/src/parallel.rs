//! 3D parallelization strategies: `(dp, tp, pp)` degrees plus the number of
//! micro-batches (§2.2 and §4 of the paper).
//!
//! Rank mapping follows Megatron's convention: TP is the fastest-varying
//! dimension, then DP, then PP. Combined with the node-major rank order of
//! [`real_cluster::DeviceMesh`], this keeps TP groups on consecutive GPUs
//! (NVLink) whenever `tp` does not exceed the mesh's per-node width.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// A parallelization strategy for one model function call. Strategies
/// order by `(dp, tp, pp, micro_batches)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ParallelStrategy {
    dp: u32,
    tp: u32,
    pp: u32,
    micro_batches: u32,
}

/// Error for invalid strategy shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidStrategy(pub String);

impl fmt::Display for InvalidStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid parallel strategy: {}", self.0)
    }
}

impl std::error::Error for InvalidStrategy {}

/// Coordinates of a rank inside a strategy grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coords {
    /// Data-parallel index.
    pub dp: u32,
    /// Tensor-parallel index.
    pub tp: u32,
    /// Pipeline-stage index.
    pub pp: u32,
}

impl ParallelStrategy {
    /// Creates a strategy with the given degrees and micro-batch count.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidStrategy`] if any degree or the micro-batch count is
    /// zero.
    pub fn new(dp: u32, tp: u32, pp: u32, micro_batches: u32) -> Result<Self, InvalidStrategy> {
        if dp == 0 || tp == 0 || pp == 0 {
            return Err(InvalidStrategy(format!(
                "degrees must be positive: ({dp},{tp},{pp})"
            )));
        }
        if micro_batches == 0 {
            return Err(InvalidStrategy("micro_batches must be positive".into()));
        }
        Ok(Self {
            dp,
            tp,
            pp,
            micro_batches,
        })
    }

    /// A single-GPU strategy with one micro-batch.
    pub fn single() -> Self {
        Self {
            dp: 1,
            tp: 1,
            pp: 1,
            micro_batches: 1,
        }
    }

    /// Data-parallel degree.
    pub fn dp(&self) -> u32 {
        self.dp
    }

    /// Tensor-parallel degree.
    pub fn tp(&self) -> u32 {
        self.tp
    }

    /// Pipeline-parallel degree.
    pub fn pp(&self) -> u32 {
        self.pp
    }

    /// Number of micro-batches data is split into.
    pub fn micro_batches(&self) -> u32 {
        self.micro_batches
    }

    /// Returns a copy with a different micro-batch count.
    pub fn with_micro_batches(mut self, micro_batches: u32) -> Self {
        assert!(micro_batches > 0, "micro_batches must be positive");
        self.micro_batches = micro_batches;
        self
    }

    /// Total GPUs the strategy occupies.
    pub fn world_size(&self) -> u32 {
        self.dp * self.tp * self.pp
    }

    /// Megatron rank mapping: TP fastest, then DP, then PP.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= world_size`.
    pub fn coords(&self, rank: u32) -> Coords {
        assert!(
            rank < self.world_size(),
            "rank {rank} >= world {}",
            self.world_size()
        );
        Coords {
            tp: rank % self.tp,
            dp: (rank / self.tp) % self.dp,
            pp: rank / (self.tp * self.dp),
        }
    }

    /// Inverse of [`Self::coords`].
    ///
    /// # Panics
    ///
    /// Panics if any coordinate exceeds its degree.
    pub fn rank_of(&self, c: Coords) -> u32 {
        assert!(
            c.dp < self.dp && c.tp < self.tp && c.pp < self.pp,
            "coords out of grid"
        );
        c.pp * (self.tp * self.dp) + c.dp * self.tp + c.tp
    }

    /// Splits `n_layers` transformer layers into `pp` contiguous stages, as
    /// evenly as possible (earlier stages take the remainder).
    ///
    /// # Panics
    ///
    /// Panics if `n_layers < pp`.
    pub fn stage_layers(&self, n_layers: u64) -> Vec<Range<u64>> {
        let pp = u64::from(self.pp);
        assert!(
            n_layers >= pp,
            "cannot split {n_layers} layers into {pp} stages"
        );
        let base = n_layers / pp;
        let extra = n_layers % pp;
        let mut out = Vec::with_capacity(self.pp as usize);
        let mut start = 0;
        for stage in 0..pp {
            let len = base + u64::from(stage < extra);
            out.push(start..start + len);
            start += len;
        }
        out
    }

    /// Layers held by one pipeline stage (the size of the widest stage).
    pub fn max_stage_layers(&self, n_layers: u64) -> u64 {
        n_layers / u64::from(self.pp) + u64::from(!n_layers.is_multiple_of(u64::from(self.pp)))
    }

    /// Enumerates all `(dp, tp, pp)` factorizations of `n_gpus` subject to
    /// `tp <= max_tp` and `pp <= max_pp`, each paired with every micro-batch
    /// count from `mbs_options`.
    ///
    /// `max_tp` should be `min(model.max_tp(), gpus_per_node)` — the paper
    /// prunes TP degrees exceeding the node size (§8.2); `max_pp` is bounded
    /// by the layer count.
    pub fn enumerate(n_gpus: u32, max_tp: u32, max_pp: u32, mbs_options: &[u32]) -> Vec<Self> {
        let mut out = Vec::new();
        for tp in divisors(n_gpus) {
            if tp > max_tp {
                continue;
            }
            let rest = n_gpus / tp;
            for pp in divisors(rest) {
                if pp > max_pp {
                    continue;
                }
                let dp = rest / pp;
                for &mbs in mbs_options {
                    if mbs == 0 {
                        continue;
                    }
                    out.push(Self {
                        dp,
                        tp,
                        pp,
                        micro_batches: mbs,
                    });
                }
            }
        }
        out
    }
}

impl fmt::Display for ParallelStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(dp={}, tp={}, pp={}, mbs={})",
            self.dp, self.tp, self.pp, self.micro_batches
        )
    }
}

/// All divisors of `n` in increasing order.
fn divisors(n: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            out.push(d);
            if d != n / d {
                out.push(n / d);
            }
        }
        d += 1;
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructor_rejects_zeroes() {
        assert!(ParallelStrategy::new(0, 1, 1, 1).is_err());
        assert!(ParallelStrategy::new(1, 0, 1, 1).is_err());
        assert!(ParallelStrategy::new(1, 1, 0, 1).is_err());
        assert!(ParallelStrategy::new(1, 1, 1, 0).is_err());
    }

    #[test]
    fn world_size_is_product() {
        let s = ParallelStrategy::new(4, 2, 16, 2).unwrap();
        assert_eq!(s.world_size(), 128);
    }

    #[test]
    fn megatron_rank_order_tp_fastest() {
        let s = ParallelStrategy::new(2, 4, 2, 1).unwrap();
        // Rank 0..3 is the first TP group of dp=0, pp=0.
        for r in 0..4 {
            let c = s.coords(r);
            assert_eq!((c.dp, c.pp), (0, 0));
            assert_eq!(c.tp, r);
        }
        // Rank 4 starts dp=1.
        assert_eq!(
            s.coords(4),
            Coords {
                dp: 1,
                tp: 0,
                pp: 0
            }
        );
        // Rank 8 starts pp=1.
        assert_eq!(
            s.coords(8),
            Coords {
                dp: 0,
                tp: 0,
                pp: 1
            }
        );
    }

    #[test]
    fn coords_roundtrip() {
        let s = ParallelStrategy::new(3, 4, 5, 2).unwrap();
        for r in 0..s.world_size() {
            assert_eq!(s.rank_of(s.coords(r)), r);
        }
    }

    #[test]
    fn stage_layers_even_split() {
        let s = ParallelStrategy::new(1, 1, 4, 1).unwrap();
        let stages = s.stage_layers(80);
        assert_eq!(stages.len(), 4);
        assert!(stages.iter().all(|r| r.end - r.start == 20));
        assert_eq!(stages[0], 0..20);
        assert_eq!(stages[3], 60..80);
    }

    #[test]
    fn stage_layers_remainder_goes_early() {
        let s = ParallelStrategy::new(1, 1, 3, 1).unwrap();
        let stages = s.stage_layers(32);
        let lens: Vec<u64> = stages.iter().map(|r| r.end - r.start).collect();
        assert_eq!(lens, vec![11, 11, 10]);
        assert_eq!(s.max_stage_layers(32), 11);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn stage_layers_too_many_stages_panics() {
        ParallelStrategy::new(1, 1, 8, 1).unwrap().stage_layers(4);
    }

    #[test]
    fn enumerate_respects_bounds() {
        let opts = ParallelStrategy::enumerate(8, 4, 2, &[1, 2]);
        assert!(!opts.is_empty());
        for s in &opts {
            assert_eq!(s.world_size(), 8);
            assert!(s.tp() <= 4);
            assert!(s.pp() <= 2);
            assert!([1, 2].contains(&s.micro_batches()));
        }
        // (dp,tp,pp) for 8 with tp<=4, pp<=2:
        // tp=1: pp=1 dp=8; pp=2 dp=4
        // tp=2: pp=1 dp=4; pp=2 dp=2
        // tp=4: pp=1 dp=2; pp=2 dp=1
        // = 6 shapes x 2 mbs = 12.
        assert_eq!(opts.len(), 12);
    }

    #[test]
    fn enumerate_empty_when_overconstrained() {
        // 7 is prime: only tp in {1,7}; with max_tp=2 and max_pp=1 only
        // (7,1,1) remains.
        let opts = ParallelStrategy::enumerate(7, 2, 1, &[1]);
        assert_eq!(opts.len(), 1);
        assert_eq!(opts[0].dp(), 7);
    }

    #[test]
    fn divisors_of_12() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
    }

    #[test]
    fn display_format() {
        let s = ParallelStrategy::new(2, 4, 8, 16).unwrap();
        assert_eq!(s.to_string(), "(dp=2, tp=4, pp=8, mbs=16)");
    }

    proptest! {
        #[test]
        fn enumerated_strategies_fill_world(n_pow in 0u32..8, max_tp in 1u32..9, max_pp in 1u32..9) {
            let n = 1u32 << n_pow;
            for s in ParallelStrategy::enumerate(n, max_tp, max_pp, &[1]) {
                prop_assert_eq!(s.world_size(), n);
            }
        }

        #[test]
        fn stage_layers_partition(n_layers in 1u64..200, pp in 1u32..16) {
            prop_assume!(n_layers >= u64::from(pp));
            let s = ParallelStrategy::new(1, 1, pp, 1).unwrap();
            let stages = s.stage_layers(n_layers);
            prop_assert_eq!(stages.len(), pp as usize);
            // Contiguous, disjoint, and covering [0, n_layers).
            let mut cursor = 0;
            for r in &stages {
                prop_assert_eq!(r.start, cursor);
                prop_assert!(r.end > r.start);
                cursor = r.end;
            }
            prop_assert_eq!(cursor, n_layers);
            // Balanced within one layer.
            let lens: Vec<u64> = stages.iter().map(|r| r.end - r.start).collect();
            let min = *lens.iter().min().unwrap();
            let max = *lens.iter().max().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
