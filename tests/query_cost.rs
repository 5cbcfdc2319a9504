//! What the request path allocates, and what a served miss frees.
//!
//! A served query is parsed from its DSL text, canonicalized, keyed and probed against
//! the result cache; on a hit that is the whole of its work, and on a miss the
//! executor plans, seeds, verifies and collates it.  This test prices those steps in
//! allocator calls and requested bytes (`query_cost:` rows): `parse_query` on one
//! query of each of the end-to-end benchmark's seven template shapes, one in-process
//! cache hit through `Service::resolve`, `Executor::try_run_plan` on one query of each
//! shape over the influenza corpus (plan prebuilt), and one miss served through
//! `Service::resolve` at a full result cache.  The served miss also counts frees: the
//! answer its insert displaces is handed back to be freed after the response leaves,
//! so a free of it on the request's path shows as a higher count.  Each count is
//! pinned to a ceiling that only moves down
//! (`the_request_path_allocates_at_most_its_ceilings`).
//!
//! The count comes from this test binary's own counting `#[global_allocator]`, on the
//! counting thread only, so it repeats exactly and does not depend on the machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use graphitti::query::{
    parse_query, Executor, Plan, QueryBudget, Resolved, Service, ServiceConfig,
};
use graphitti::workloads::influenza::{self, InfluenzaConfig};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`), bytes requested and
    /// frees (`dealloc`) on this thread while `COUNTING` is set.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
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

    fn note_free() {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = FREES.try_with(|f| f.set(f.get() + 1));
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
        Counting::note_free();
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
    let (calls, bytes, _) = counted(work);
    (calls, bytes)
}

/// Allocations `work` makes on this thread, the bytes they request, and its frees.
fn counted(work: impl FnOnce()) -> (u64, u64, u64) {
    CALLS.with(|c| c.set(0));
    BYTES.with(|b| b.set(0));
    FREES.with(|f| f.set(0));
    COUNTING.with(|on| on.set(true));
    work();
    COUNTING.with(|on| on.set(false));
    (CALLS.with(Cell::get), BYTES.with(Cell::get), FREES.with(Cell::get))
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

/// One query of each template shape over the influenza corpus, with the ceilings of
/// what `Executor::try_run_plan` allocates for it: `(calls, bytes)`.  The windows are
/// moved into that corpus: its sequences lie on `segment-N` domains and it has no
/// regions, so `T6`'s region window is an interval one (its `T3` keeps the region
/// constraint, which no object passes).  Term 1 is the one term it cites.
const EXEC: [(&str, &str, (u64, u64)); 7] = [
    ("T1", "SELECT contents WHERE content keywords protease motif", (83, 91_821)),
    ("T2", "SELECT graphs WHERE content contains \"protease\" AND ontology term 1", (84, 93_784)),
    (
        "T3",
        "SELECT graphs WHERE content contains \"protease\" AND ontology term 1 \
         AND constraint regions 2 atlas2 1200 3400 1500 3800",
        (68, 65_320),
    ),
    (
        "T4",
        "SELECT referents WHERE content keywords protease cleavage AND constraint consecutive 2 2000",
        (226, 57_040),
    ),
    (
        "T5",
        "SELECT graphs WHERE content contains \"protease\" AND referent interval segment-3 400 1900",
        (62, 15_984),
    ),
    (
        "T6",
        "SELECT referents WHERE referent interval segment-1 0 700 AND content contains \"protease\"",
        (53, 9_328),
    ),
    ("T7", "SELECT graphs WHERE ontology term 1", (74, 91_632)),
];

/// The ceiling of one miss served through `Service::resolve` at a full result cache,
/// the `T5` query of [`EXEC`]: `(calls, bytes, frees)`.
const SERVED_MISS: (u64, u64, u64) = (80, 17_316, 29);

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
        Ok(Resolved::Ready(result, _)) => result,
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

    // Each shape on the influenza corpus, through the executor with its plan built.
    let corpus = influenza::build(&InfluenzaConfig::default()).snapshot();
    for (template, text, ceiling) in EXEC {
        let query = parse_query(text).expect("a template parses").canonicalize();
        let plan = Plan::build(&query, &corpus);
        let executor = Executor::new(&corpus);
        let mut answer = None;
        let cost = allocated(|| answer = Some(executor.try_run_plan(&query, &plan)));
        let answer = answer.expect("ran").expect("no token can fire");
        println!(
            "query_cost: exec {template}: {} allocations, {} bytes ({} pages, {} annotations, \
             {} referents, {} objects)",
            cost.0,
            cost.1,
            answer.pages.len(),
            answer.annotations.len(),
            answer.referents.len(),
            answer.objects.len()
        );
        if cost.0 > ceiling.0 || cost.1 > ceiling.1 {
            over.push(format!("exec {template}: {cost:?} > {ceiling:?}"));
        }
    }

    // A miss at a full cache: its insert displaces the least-recently-used answer,
    // which comes back with the result, to be dropped after the count stops.
    let service = Service::new(
        corpus.clone(),
        ServiceConfig::default().with_workers(1).with_cache_capacity(EXEC.len() - 1),
    );
    let resolve = |text: &str| {
        let query = parse_query(text).expect("a template parses");
        match service.resolve(&query, QueryBudget::unbounded(), true) {
            Ok(Resolved::Ready(result, evicted)) => (result, evicted),
            _ => panic!("an idle service answers on the calling thread"),
        }
    };
    let cached: Vec<_> = EXEC
        .iter()
        .filter(|(template, ..)| *template != "T5")
        .map(|(_, text, _)| Arc::downgrade(&resolve(text).0))
        .collect();
    assert_eq!(service.cache_len(), EXEC.len() - 1, "the cache is full");
    let t5 = EXEC.iter().find(|(template, ..)| *template == "T5").expect("T5").1;
    let mut served = None;
    let cost = counted(|| served = Some(resolve(t5)));
    let (_, evicted) = served.expect("resolved");
    assert_eq!(cached[0].strong_count(), 1, "the least recently used answer outlives the miss");
    drop(evicted);
    assert_eq!(cached[0].strong_count(), 0, "dropping what the miss handed back frees it");
    println!(
        "query_cost: served miss (resolve, full cache): {} allocations, {} bytes, {} frees",
        cost.0, cost.1, cost.2
    );
    if cost.0 > SERVED_MISS.0 || cost.1 > SERVED_MISS.1 || cost.2 > SERVED_MISS.2 {
        over.push(format!("served miss: {cost:?} > {SERVED_MISS:?}"));
    }
    assert!(over.is_empty(), "over the ceiling (lower it only): {over:?}");
}
