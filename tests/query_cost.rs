//! What the request path allocates before a query reaches the executor.
//!
//! A served query is parsed from its DSL text, canonicalized, keyed and probed against
//! the result cache; on a hit that is the whole of its work.  This test prices those
//! steps in allocator calls and requested bytes (`query_cost:` rows): `parse_query` on
//! one query of each of the end-to-end benchmark's seven template shapes, and one
//! in-process cache hit through `Service::resolve`.  Each count is pinned to a ceiling
//! that only moves down (`the_request_path_allocates_at_most_its_ceilings`).
//!
//! The count comes from this test binary's own counting `#[global_allocator]`, on the
//! counting thread only, so it repeats exactly and does not depend on the machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use graphitti::query::{parse_query, QueryBudget, Resolved, Service, ServiceConfig};
use graphitti::workloads::influenza::{self, InfluenzaConfig};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) and bytes requested on
    /// this thread while `COUNTING` is set.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn note(requested: usize) {
        // `try_with`: the allocator also runs while a thread's locals are torn down.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = CALLS.try_with(|c| c.set(c.get() + 1));
                let _ = BYTES.try_with(|b| b.set(b.get() + requested as u64));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's own arguments, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the bookkeeping only
// touches `Cell`s in thread-locals that have no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Counting::note(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` through the methods above, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `work` makes on this thread, and the bytes they request.
fn allocated(work: impl FnOnce()) -> (u64, u64) {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    work();
    COUNTING.with(|on| on.set(false));
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// One query of each template shape of the end-to-end benchmark's mixes (`T1` …
/// `T7`), as its generator writes them, with the ceilings of what parsing it allocates:
/// `(calls, bytes)`.
const TEMPLATES: [(&str, &str, (u64, u64)); 7] = [
    ("T1", "SELECT contents WHERE content keywords fojen kiban", (4, 298)),
    ("T2", "SELECT graphs WHERE content contains \"protein TP53\" AND ontology term 17", (3, 332)),
    (
        "T3",
        "SELECT graphs WHERE content contains \"protein TP53\" AND ontology term 3 \
         AND constraint regions 2 atlas2 1200 3400 1500 3800",
        (5, 658),
    ),
    (
        "T4",
        "SELECT referents WHERE content keywords protease kiban AND constraint consecutive 2 2000",
        (5, 621),
    ),
    (
        "T5",
        "SELECT graphs WHERE content contains \"protease\" AND referent interval chr3 2400 3900",
        (4, 492),
    ),
    (
        "T6",
        "SELECT referents WHERE referent region atlas1 800 1200 1150 1600 \
         AND content contains \"protein TP53\"",
        (4, 498),
    ),
    ("T7", "SELECT graphs WHERE ontology term 42", (1, 128)),
];

/// The ceiling of one cache hit through `Service::resolve`: `(calls, bytes)`.
const HIT: (u64, u64) = (7, 256);

#[test]
fn the_request_path_allocates_at_most_its_ceilings() {
    let mut over = Vec::new();
    for (template, text, ceiling) in TEMPLATES {
        let cost = allocated(|| {
            std::hint::black_box(parse_query(text).expect("a template parses"));
        });
        println!("query_cost: parse {template}: {} allocations, {} bytes", cost.0, cost.1);
        if cost.0 > ceiling.0 || cost.1 > ceiling.1 {
            over.push(format!("parse {template}: {cost:?} > {ceiling:?}"));
        }
    }

    // One worker and room for the query: the first resolve executes and caches it,
    // the second is a hit that returns the cached result itself.
    let system = influenza::build(&InfluenzaConfig::small());
    let service = Service::new(system.snapshot(), ServiceConfig::default().with_workers(1));
    let query =
        parse_query("SELECT graphs WHERE content contains \"protease\" AND ontology term 1")
            .expect("parses");
    let resolve = || match service.resolve(&query, QueryBudget::unbounded(), true) {
        Ok(Resolved::Ready(result)) => result,
        _ => panic!("an idle service answers on the calling thread"),
    };
    let cached = resolve();
    let mut hit = None;
    let cost = allocated(|| hit = Some(resolve()));
    assert!(Arc::ptr_eq(&cached, &hit.expect("resolved")), "the second resolve is a hit");
    println!("query_cost: cache hit (resolve): {} allocations, {} bytes", cost.0, cost.1);
    if cost.0 > HIT.0 || cost.1 > HIT.1 {
        over.push(format!("cache hit: {cost:?} > {HIT:?}"));
    }
    assert!(over.is_empty(), "over the ceiling (lower it only): {over:?}");
}
