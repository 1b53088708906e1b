//! Profiling a run holds its closed spans, not a copy of its event stream:
//! `Experiment::profile_report` records the run into a span set, so the
//! heap it takes at its peak stays below what the run's event stream
//! alone occupies, and the profile pass over the set works one lane at a
//! time with 32-bit indices, so what it allocates beyond the set stays
//! under a few words per span. A counting global allocator tracks this
//! thread's live heap bytes and their high-water mark across one call.

use real_core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Tracks the calling thread's live heap bytes and their high-water mark.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the allocator's; the bookkeeping only touches
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap bytes `f` holds at its peak beyond what was live when it started.
fn peak_extra<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, (PEAK.with(Cell::get) - base) as usize)
}

fn traced_run() -> (Experiment, ExperimentReport) {
    let exp = Experiment::ppo(
        ClusterSpec::h100(2),
        ModelSpec::llama3_7b(),
        ModelSpec::llama3_7b().critic(),
        RlhfConfig::instruct_gpt(64),
    )
    .with_quick_profile()
    .with_engine_config(EngineConfig {
        trace_capacity: 500_000,
        ..EngineConfig::default()
    });
    let plan = exp.plan_heuristic().unwrap();
    let report = exp.run(&plan, 2).unwrap();
    (exp, report)
}

#[test]
fn profile_report_holds_less_than_the_run_stream() {
    let (exp, report) = traced_run();
    let (est, _) = exp.prepare();
    let stream_bytes = std::mem::size_of_val(exp.event_stream(&report).events());

    let (profile, held) = peak_extra(|| exp.profile_report(&report, &est, 10));
    assert!(profile.makespan > 0.0);
    assert!(
        held < stream_bytes,
        "profile_report held {held} B at its peak; the run's stream is {stream_bytes} B"
    );
}

/// Bytes per closed span the profile pass may hold beyond the span set:
/// the critical path's 32-bit candidate order and suffix maxima (12 bytes)
/// plus its segments, with room to spare but below the 33 bytes per span
/// of 64-bit indices, a sorted copy of every end and every lane's
/// intervals held at once.
const WORKING_BYTES_PER_SPAN: usize = 24;

#[test]
fn profile_pass_works_in_a_few_words_per_span() {
    let (exp, report) = traced_run();
    let (est, _) = exp.prepare();
    let (spans, set_bytes) = peak_extra(|| exp.spans(&report));
    let n = spans.spans().len();
    drop(spans);

    let (profile, held) = peak_extra(|| exp.profile_report(&report, &est, 10));
    assert!(profile.makespan > 0.0);
    let bound = set_bytes + WORKING_BYTES_PER_SPAN * n;
    assert!(
        held <= bound,
        "profile_report held {held} B at its peak: its span set is {set_bytes} B \
         and {n} spans allow {bound} B"
    );
}
