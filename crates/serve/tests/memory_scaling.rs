//! The serving loop's memory grows with its live tenants, not with the
//! arrivals it has served: a finished tenant keeps its report row and
//! drops its session. A counting global allocator tracks this thread's
//! live heap bytes and their peak across one `serve` call; doubling the
//! number of served arrivals must raise that peak by far less than one
//! retained session (several KB) per extra arrival.

use real_sched::{GraphSet, TenantSpec};
use real_serve::{serve, ArrivalSpec, TemplateSpec, WorkloadSpec};
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

/// `arrivals` one-iteration DPO 7B jobs on one node, far enough apart that
/// each runs alone: every arrival is admitted and served.
fn spaced_jobs(arrivals: usize) -> WorkloadSpec {
    WorkloadSpec {
        nodes: 1,
        seed: Some(3),
        horizon_secs: Some(100.0 * arrivals as f64),
        arrivals: ArrivalSpec::Trace {
            times_secs: (0..arrivals).map(|i| 100.0 * i as f64).collect(),
            templates: None,
        },
        templates: vec![TemplateSpec {
            tenant: TenantSpec {
                name: "job".into(),
                id: None,
                priority: Some(1.0),
                algo: Some("dpo".into()),
                actor: Some("7b".into()),
                critic: None,
                batch: Some(32),
                graph: None,
                iterations: Some(1),
                faults: None,
                elastic: None,
            },
            weight: None,
        }],
        admission: None,
    }
}

/// Peak live heap bytes above the starting level during one `serve` call.
fn serve_peak(arrivals: usize) -> isize {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let report = serve(&spaced_jobs(arrivals), &GraphSet::new()).unwrap();
    let peak = PEAK.with(Cell::get) - base;
    assert_eq!(report.admitted, arrivals, "every job runs alone");
    peak
}

#[test]
fn peak_heap_grows_by_report_rows_not_sessions() {
    const N: usize = 100;
    let small = serve_peak(N);
    let large = serve_peak(2 * N);
    let per_arrival = (large - small) / N as isize;
    assert!(
        per_arrival < 2048,
        "peak live heap grew {per_arrival} B per served arrival ({small} B -> {large} B): \
         finished tenants must not keep their sessions"
    );
}
