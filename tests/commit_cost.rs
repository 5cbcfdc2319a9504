//! A served commit costs O(batch), not O(corpus).
//!
//! The query services always pin the published snapshot, so every served commit takes
//! the copy-on-write path: each component the batch dirties is copied out from under
//! the snapshot before it is written.  With chunked structural sharing inside the
//! heavy components that copy is the touched chunks, not the component — so what a
//! small commit allocates must stay (nearly) flat as the corpus grows.  This test holds
//! a snapshot, commits 2-op ingest, ontology-edit and annotation batches, and counts the
//! bytes the commits allocate, at a corpus of N annotations and N / 4 concepts and at
//! four times both, unsharded and on 4 shards.  A store that copies whole components
//! allocates ≈ 4× as much at 4 N.  At N it also prices each kind in allocator calls,
//! with the snapshot held and in place (`served_commit:` rows): a chunk copy is one
//! allocation, and cloning a component or a chunk's elements is none
//! (`cloning_a_component_or_an_element_allocates_nothing`), so the held counts are
//! pinned to ceilings that only move down.
//!
//! The count comes from this test binary's own counting `#[global_allocator]`; it is
//! a count of allocator calls and of requested bytes, so it repeats exactly and does
//! not depend on the machine.  Each test counts on its own thread only, so the
//! harness's other threads cannot disturb it.
//!
//! The same count prices the one write path itself (`write_cost:` rows): allocations
//! per annotation to ingest a study through `apply` and to rebuild it from its
//! checkpoint through `recover_*` — every restart replays the whole corpus through
//! that path, so its per-operation cost is pinned, and must not grow with the corpus
//! (`the_write_path_allocates_a_constant_per_annotation`).
//!
//! The same allocator holds the durable decoder to its bound: a length prefix is
//! checked against the bytes behind it before anything is reserved, so a payload that
//! claims 2^60 elements allocates nothing but its error message
//! (`a_lying_length_prefix_allocates_nothing`).  And it counts what a connection's
//! frame reads cost: nothing, once the buffer the connection keeps has grown to its
//! frames (`a_frame_read_into_a_kept_buffer_allocates_nothing`).
//!
//! Counting live bytes and blocks (allocated minus freed), it prices what an ingested
//! study keeps resident per annotation (`resident:` row), at N and 4 N, against
//! ceilings that only move down (`an_annotation_keeps_at_most_its_resident_ceilings`),
//! and splits it by `SystemView` component (one `resident: <component>:` row each).
//!
//! It holds content verification to its plan: a phrase or keyword filter is resolved
//! once per query, so verifying 64 candidates allocates what verifying 1 does
//! (`verify_content:` rows,
//! `verifying_a_content_filter_allocates_the_same_for_1_and_64_candidates`).
//!
//! Counting frees as well, it holds a publish to O(1) (`publish:` rows): publishing an
//! annotation commit frees exactly as much with 64 multi-page results cached as with
//! 8 — the cache validates an entry where it is read, so a publish frees no cached
//! result (`a_publish_frees_the_same_whatever_the_cache_holds`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use graphitti::core::codec::{CHECKPOINT_FORMAT, FORMAT};
use graphitti::core::wal::encode_frame;
use graphitti::core::wal::WalStorage;
use graphitti::core::{
    recover_sharded, recover_unsharded, Checkpoint, Component, DataType, DurabilityMode,
    DurableShardedSystem, DurableSystem, LogOp, LogReferent, Marker, MemStorage, ObjectId,
    ReferentId, WalRecord,
};
use graphitti::net::protocol::{read_frame, read_frame_into, write_frame, RESPONSE_BUFFER_LEN};
use graphitti::net::MAX_FRAME_LEN;
use graphitti::onto::ConceptId;
use graphitti::query::{Query, Service, ServiceConfig, Target, Version};
use graphitti::xml::{ContentProbe, DocId, DublinCore};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`), bytes requested and
    /// frees (`dealloc`) on this thread while `COUNTING` is set, and the change in
    /// live heap bytes and blocks (allocated minus freed) they make.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    /// Book one allocator call: `calls` and `frees` (one of them 1), `requested`
    /// bytes, and the call's change to the live heap's bytes and blocks.
    fn note(calls: u64, frees: u64, requested: usize, live_bytes: i64, live_blocks: i64) {
        // `try_with`: the allocator also runs while a thread's locals are torn down.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = CALLS.try_with(|c| c.set(c.get() + calls));
                let _ = FREES.try_with(|f| f.set(f.get() + frees));
                let _ = BYTES.try_with(|b| b.set(b.get() + requested as u64));
                let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + live_bytes));
                let _ = LIVE_BLOCKS.try_with(|b| b.set(b.get() + live_blocks));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's own arguments, so the
// `GlobalAlloc` contract holds exactly as it does for `System`; the bookkeeping only
// touches `Cell`s in thread-locals that have no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Counting::note(1, 0, layout.size(), layout.size() as i64, 1);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Counting::note(1, 0, layout.size(), layout.size() as i64, 1);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Counting::note(0, 1, 0, -(layout.size() as i64), -1);
        // SAFETY: `ptr` came from `System` through the methods above, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size as i64 - layout.size() as i64;
        Counting::note(1, 0, new_size.saturating_sub(layout.size()), grown, 0);
        // SAFETY: `ptr` came from `System` through the methods above, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `work` makes on this thread, and the bytes they request.
fn allocated(work: impl FnOnce()) -> (u64, u64) {
    for counter in [&CALLS, &BYTES, &FREES] {
        counter.with(|c| c.set(0));
    }
    for live in [&LIVE_BYTES, &LIVE_BLOCKS] {
        live.with(|l| l.set(0));
    }
    COUNTING.with(|on| on.set(true));
    work();
    COUNTING.with(|on| on.set(false));
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

/// Frees `work` makes on this thread.
fn freed(work: impl FnOnce()) -> u64 {
    allocated(work);
    FREES.with(Cell::get)
}

/// Bytes `work` allocates on this thread.
fn bytes_allocated(work: impl FnOnce()) -> u64 {
    allocated(work).1
}

/// What `work` returns, and the heap bytes and blocks it leaves live on this thread —
/// what the returned value holds, since `work` has dropped everything else.
fn retained<T>(work: impl FnOnce() -> T) -> (T, i64, i64) {
    let mut kept = None;
    allocated(|| kept = Some(work()));
    let kept = kept.expect("the work ran");
    (kept, LIVE_BYTES.with(Cell::get), LIVE_BLOCKS.with(Cell::get))
}

/// splitmix64 — the test's own generator, so the corpus is a function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Skewed towards small values, like word and term frequencies are.
    fn skewed(&mut self, n: u64) -> u64 {
        self.below(n).min(self.below(n))
    }
}

const TERMS: u64 = 32;
const WORDS: u64 = 400;
const CHROMOSOMES: u64 = 8;
const ANNOTATIONS_PER_OBJECT: u64 = 8;

/// The op stream of a study: a fixed vocabulary (terms, words, coordinate domains) and
/// a corpus that grows — objects registered as the study goes, each annotated about
/// [`ANNOTATIONS_PER_OBJECT`] times with one or two fresh marks, a quarter of the
/// annotations also attaching to an existing referent.
struct Study {
    rng: Rng,
    objects: Vec<bool>,
    referents: u64,
    /// Existing referents an annotation may reuse, with their home object (reuse stays
    /// on one object so the op is valid at any shard count).
    reusable: Vec<(ReferentId, ObjectId)>,
    /// Concepts defined so far.
    concepts: u64,
}

impl Study {
    fn new(seed: u64) -> Study {
        Study {
            rng: Rng(seed),
            objects: Vec::new(),
            referents: 0,
            reusable: Vec::new(),
            concepts: TERMS,
        }
    }

    fn define_terms() -> Vec<LogOp> {
        (0..TERMS).map(|t| LogOp::DefineTerm { name: format!("term-{t}") }).collect()
    }

    /// Curate one more concept (annotations keep citing the first [`TERMS`]).
    fn define_term(&mut self) -> LogOp {
        self.concepts += 1;
        LogOp::DefineTerm { name: format!("curated-{}", self.concepts) }
    }

    fn register(&mut self) -> LogOp {
        let index = self.objects.len() as u64;
        let is_image = index % 3 == 2;
        self.objects.push(is_image);
        if is_image {
            LogOp::Register {
                data_type: DataType::Image,
                name: format!("image-{index}"),
                metadata: vec![
                    graphitti::relational::Value::Int(512),
                    graphitti::relational::Value::Int(512),
                    graphitti::relational::Value::text("confocal"),
                    graphitti::relational::Value::text("atlas-25um"),
                ],
                payload: Vec::new(),
                domain: "atlas-25um".into(),
            }
        } else {
            let chromosome = format!("chr{}", index % CHROMOSOMES);
            LogOp::register_sequence(
                format!("seq-{index}"),
                DataType::DnaSequence,
                1_000_000,
                chromosome,
            )
        }
    }

    fn annotate(&mut self) -> LogOp {
        let object = self.rng.below(self.objects.len() as u64);
        let mut referents = Vec::new();
        for _ in 0..1 + self.rng.below(2) {
            let start = self.rng.below(900_000);
            let marker = if self.objects[object as usize] {
                let (x, y) = ((start % 400) as f64, (start / 400 % 400) as f64);
                Marker::region(x, y, x + 20.0, y + 20.0)
            } else {
                Marker::interval(start, start + 50 + self.rng.below(200))
            };
            referents.push(LogReferent::New { object: ObjectId(object), marker });
            self.reusable.push((ReferentId(self.referents), ObjectId(object)));
            self.referents += 1;
        }
        if self.rng.below(4) == 0 {
            let pick = self.rng.below(self.reusable.len() as u64) as usize;
            let (referent, home) = self.reusable[pick];
            if home == ObjectId(object) {
                referents.push(LogReferent::Existing(referent));
            }
        }
        let words: Vec<String> = (0..6).map(|_| format!("w{}", self.rng.skewed(WORDS))).collect();
        LogOp::Annotate {
            content: DublinCore::new()
                .field("description", words.join(" "))
                .field("creator", format!("curator-{}", self.rng.below(12))),
            referents,
            terms: if self.rng.below(2) == 0 {
                vec![ConceptId(self.rng.skewed(TERMS) as u32)]
            } else {
                Vec::new()
            },
        }
    }

    /// Grow the study by `annotations` annotations (and the objects they land on),
    /// in batches of 64 ops.
    fn grow(&mut self, annotations: u64, mut apply: impl FnMut(&[LogOp])) {
        let mut batch = Vec::new();
        for i in 0..annotations {
            if i % ANNOTATIONS_PER_OBJECT == 0 {
                batch.push(self.register());
            }
            batch.push(self.annotate());
            if batch.len() >= 64 {
                apply(&batch);
                batch.clear();
            }
        }
        apply(&batch);
    }

    /// Grow the ontology to `concepts` concepts, in batches of 64 definitions.
    fn grow_ontology(&mut self, concepts: u64, mut apply: impl FnMut(&[LogOp])) {
        while self.concepts < concepts {
            let batch: Vec<LogOp> = (self.concepts..concepts.min(self.concepts + 64))
                .map(|_| self.define_term())
                .collect();
            apply(&batch);
        }
    }

    /// One 2-op commit of kind `KINDS[kind]`.
    fn commit_batch(&mut self, kind: usize) -> Vec<LogOp> {
        match kind {
            0 => vec![self.register(), self.register()],
            1 => vec![self.define_term(), self.define_term()],
            _ => vec![self.annotate(), self.annotate()],
        }
    }
}

/// The two serving shapes: what "commit a batch", "pin the published state" and
/// "checkpoint, then recover" mean.
trait Shape {
    type Held;
    fn commit(&mut self, ops: &[LogOp]);
    fn hold(&self) -> Self::Held;
    fn annotations(&self) -> u64;
    /// The framed checkpoint of the current state.
    fn checkpoint(&self) -> Vec<u8>;
    /// Recover from `storage`; returns the recovered annotation count.
    fn recover(storage: &MemStorage) -> u64;
}

impl Shape for DurableSystem {
    type Held = graphitti::core::Snapshot;
    fn commit(&mut self, ops: &[LogOp]) {
        self.apply(ops).expect("unsharded commit");
    }
    fn hold(&self) -> Self::Held {
        self.system().snapshot()
    }
    fn annotations(&self) -> u64 {
        self.system().annotation_count() as u64
    }
    fn checkpoint(&self) -> Vec<u8> {
        Checkpoint::capture(self.system(), self.version()).encode()
    }
    fn recover(storage: &MemStorage) -> u64 {
        recover_unsharded(storage).expect("unsharded recovery").0.annotation_count() as u64
    }
}

impl Shape for DurableShardedSystem {
    type Held = graphitti::core::ShardCut;
    fn commit(&mut self, ops: &[LogOp]) {
        self.apply(ops).expect("sharded commit");
    }
    fn hold(&self) -> Self::Held {
        self.system().capture_cut()
    }
    fn annotations(&self) -> u64 {
        self.system().annotation_count() as u64
    }
    fn checkpoint(&self) -> Vec<u8> {
        Checkpoint::capture(self.system(), self.version()).encode()
    }
    fn recover(storage: &MemStorage) -> u64 {
        recover_sharded(storage, 4).expect("sharded recovery").0.annotation_count() as u64
    }
}

/// Commits measured (and averaged) per corpus size and kind: enough that a commit
/// which happens to land on a chunk boundary or a hash-map doubling is averaged out.
const COMMITS: u64 = 16;

/// The three kinds of 2-op commit a served system takes, as the benchmark's write
/// stream mixes them.
const KINDS: [&str; 3] = ["ingest", "ontology edit", "annotation"];

/// Mean allocator calls and bytes of one 2-op commit of each of [`KINDS`], with a
/// reader pinning the state before it (`held`) or with nothing pinned (in place).
fn commit_cost(study: &mut Study, system: &mut impl Shape, held: bool) -> [(u64, u64); 3] {
    let mut totals = [(0, 0); 3];
    for _ in 0..COMMITS {
        for (kind, total) in totals.iter_mut().enumerate() {
            let batch = study.commit_batch(kind);
            let pinned = held.then(|| system.hold());
            let (calls, bytes) = allocated(|| system.commit(&batch));
            drop(pinned);
            *total = (total.0 + calls, total.1 + bytes);
        }
    }
    totals.map(|(calls, bytes)| (calls / COMMITS, bytes / COMMITS))
}

/// Corpus size N, in annotations (≈ N / 8 objects, ≈ 1.6 N referents, ≈ 2.8 N a-graph
/// nodes).  Large enough that every chunked store holds many chunks at N already.
const N: u64 = 1_000;

/// Ontology size at N, in concepts; it grows with the corpus, to 4× at 4 N.
const CONCEPTS: u64 = 256;

/// What a commit at 4 N may allocate relative to one at N.
const BOUND: f64 = 1.5;

/// Grow `system` to N annotations and [`CONCEPTS`] concepts, price a served commit of
/// each kind there (the `served_commit:` rows, held against `ceilings` in [`KINDS`]
/// order), then grow to 4× both and require a held commit's bytes to stay within
/// [`BOUND`] of what they were.
fn assert_flat(shape: &str, mut system: impl Shape, ceilings: [u64; 3]) {
    let mut study = Study::new(2008);
    system.commit(&Study::define_terms());
    study.grow(N, |ops| system.commit(ops));
    study.grow_ontology(CONCEPTS, |ops| system.commit(ops));
    let small = commit_cost(&mut study, &mut system, true);
    let in_place = commit_cost(&mut study, &mut system, false);
    study.grow(3 * N, |ops| system.commit(ops));
    study.grow_ontology(4 * CONCEPTS, |ops| system.commit(ops));
    let large = commit_cost(&mut study, &mut system, true);
    assert!(system.annotations() >= 4 * N);

    for (kind, ((small, large), (in_place, ceiling))) in
        KINDS.iter().zip(small.iter().zip(&large).zip(in_place.iter().zip(ceilings)))
    {
        println!(
            "served_commit: {kind}, {shape}: {} allocations per 2-op commit with a snapshot \
             held (ceiling {ceiling}), {} in place",
            small.0, in_place.0
        );
        println!("{shape}, 2-op {kind} commit: {} bytes at N, {} bytes at 4 N", small.1, large.1);
        assert!(
            small.0 <= ceiling,
            "{shape}: a served 2-op {kind} commit allocates {} times, above its ceiling of \
             {ceiling} (a ceiling only moves down)",
            small.0
        );
        assert!(
            (large.1 as f64) <= BOUND * small.1 as f64,
            "{shape}: a 2-op {kind} commit allocates {} bytes at 4 N = {} annotations \
             but {} at N — more than {BOUND}x: a commit is copying something that grows \
             with the corpus",
            large.1,
            4 * N,
            small.1,
        );
    }
}

#[test]
fn a_served_commit_allocates_the_same_at_four_times_the_corpus() {
    // Ceilings as `[ingest, ontology edit, annotation]`: allocator calls of one held
    // 2-op commit at N, measured plus 2 % for toolchain drift.  Before chunk elements
    // and component maps cloned without allocating, the counts were 407 / 554 / 1202
    // unsharded and 1681 / 2207 / 1828 on 4 shards; with it, 39 / 12 / 160 and
    // 111 / 34 / 213.  An object's metadata row moving into its registry entry (no
    // catalogue component to un-share) took ingest from 36 to 30 unsharded and from
    // 96 to 74 on 4 shards.  The ontology keeping no name index (nothing looked a
    // concept up by name) took an ontology edit from 12 to 8 and from 34 to 17.  The
    // annotation ceilings, left at 164 and 218 when it measured 160 and 213, are
    // re-pinned at parent `2dd72c3` → this ceiling's change (the a-graph lost its
    // liveness flags): 125 → 125 unsharded and 170 → 170 on 4 shards.  Parent
    // `4f933f1` → this ceiling's change (no stored a-graph: its links are the records'
    // own; a type's referent posting chunked): ingest 30 → 26 and annotation
    // 125 → 110 unsharded, ingest 74 → 53 and annotation 170 → 135 on 4 shards.
    assert_flat(
        "unsharded",
        DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off),
        [27, 9, 113],
    );
    // The same history through the router and four shards.
    assert_flat(
        "4 shards",
        DurableShardedSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off, 4),
        [55, 18, 138],
    );
}

#[test]
fn cloning_a_component_or_an_element_allocates_nothing() {
    // What a commit copies when a snapshot shares it: a component (on its first write)
    // and the elements of each chunk it writes.  Neither may allocate, whatever the
    // corpus holds.
    let mut system = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
    system.commit(&Study::define_terms());
    Study::new(2008).grow(N, |ops| system.commit(ops));
    let view = system.system();
    let (calls, _) = allocated(|| {
        drop(view.content_store().clone());
        drop(view.indexes().clone());
        drop(view.ontology().clone());
        drop(view.objects().clone());
        drop(view.referents().clone());
        drop(view.annotations().clone());
        view.objects().iter().for_each(|object| drop(object.clone()));
        view.referents().iter().for_each(|referent| drop(referent.clone()));
        view.annotations().iter().for_each(|annotation| drop(annotation.clone()));
    });
    assert_eq!(calls, 0, "a clone allocated");
}

/// Frees the publish of one 2-op annotation commit performs on a service whose cache
/// holds `cached` multi-page results, each a keyword query at N.
fn publish_frees<S: Shape>(create: &impl Fn() -> S, cached: usize) -> u64
where
    S::Held: Version,
{
    let mut system = create();
    let mut study = Study::new(2008);
    system.commit(&Study::define_terms());
    study.grow(N, |ops| system.commit(ops));
    let config = ServiceConfig::default().with_workers(1).with_cache_capacity(cached);
    let service = Service::new(system.hold(), config);
    for word in 0..cached {
        let query = Query::new(Target::AnnotationContents).with_keywords([format!("w{word}")]);
        let pages = service.run_now(&query).expect("an unbounded query is served").page_count();
        assert!(pages > 1, "w{word} answers with {pages} page(s)");
    }
    assert_eq!(service.cache_len(), cached);
    system.commit(&study.commit_batch(2));
    let published = system.hold();
    freed(|| service.publish(published).expect("no log is attached"))
}

#[test]
fn a_publish_frees_the_same_whatever_the_cache_holds() {
    fn assert_flat<S: Shape>(shape: &str, create: impl Fn() -> S)
    where
        S::Held: Version,
    {
        let (few, many) = (publish_frees(&create, 8), publish_frees(&create, 64));
        println!(
            "publish: annotation commit, {shape}: {few} frees with 8 results cached, {many} \
             with 64"
        );
        assert_eq!(few, many, "{shape}: a publish freed what the cache holds");
    }
    assert_flat("unsharded", || {
        DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off)
    });
    assert_flat("4 shards", || {
        DurableShardedSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off, 4)
    });
}

/// Allocations per annotation of one study of `annotations` annotations, as
/// `(ingest, replay)`: ingesting it through `apply` under `DurabilityMode::Off`
/// (registrations and term definitions included), and rebuilding it from its
/// checkpoint — read, decode and replay, `recover_*` end to end.
fn write_cost<S: Shape>(create: &impl Fn() -> S, annotations: u64) -> (f64, f64) {
    let mut system = create();
    let mut ingest = allocated(|| system.commit(&Study::define_terms())).0;
    Study::new(2008).grow(annotations, |ops| ingest += allocated(|| system.commit(ops)).0);
    let mut storage = MemStorage::new();
    storage.write_checkpoint(&system.checkpoint()).expect("in-memory checkpoint");
    let replay = allocated(|| assert_eq!(S::recover(&storage), system.annotations())).0;
    (ingest as f64 / annotations as f64, replay as f64 / annotations as f64)
}

/// What the write path may allocate per annotation at 4 N relative to N: a cost per
/// operation that grows with the corpus is a store copying or rescanning something.
const WRITE_BOUND: f64 = 1.1;

fn assert_write_cost<S: Shape>(shape: &str, create: impl Fn() -> S, ceilings: [f64; 2]) {
    let small = write_cost(&create, N);
    let large = write_cost(&create, 4 * N);
    for ((row, small, large), ceiling) in
        [("ingest", small.0, large.0), ("replay", small.1, large.1)].into_iter().zip(ceilings)
    {
        println!(
            "write_cost: {row}, {shape}: {small:.2} allocations per annotation at N, \
             {large:.2} at 4 N (ceiling {ceiling})"
        );
        assert!(
            large <= WRITE_BOUND * small,
            "{shape}: {row} allocates {large:.2} per annotation at 4 N but {small:.2} at N — \
             4 N costs more than {:.1}x N: the write path grows with the corpus",
            4.0 * WRITE_BOUND,
        );
        assert!(
            small.max(large) <= ceiling,
            "{shape}: {row} allocates {small:.2} / {large:.2} per annotation at N / 4 N, \
             above its ceiling of {ceiling} (a ceiling only moves down)"
        );
    }
}

#[test]
fn the_write_path_allocates_a_constant_per_annotation() {
    // Ceilings as `[ingest, replay]`: the measured count at N plus 2 % for toolchain
    // drift.  At N, parent `1dc604e` → this ceiling's change: unsharded 69.16 → 25.10
    // and 70.05 → 26.01, 4 shards 100.72 → 40.75 and 101.64 → 41.68.  Shared chunk
    // elements then held unsharded at 24.98 and 25.88 (an inline edge list saves the
    // allocations the shared fields add) and took 4 shards to 32.52 and 33.35 (one
    // metadata row for all replicas).  Storing the annotation's record as its content
    // document, not an element tree built from it, took parent `fa7e168` → this
    // ceiling's change: unsharded 24.98 → 18.95 and 25.88 → 19.85, 4 shards
    // 32.52 → 26.48 and 33.36 → 27.32.  Keying a-graph nodes by entity id and
    // making a record one block (decoded straight into it) took parent `a4baf43` →
    // this ceiling's change: unsharded 18.95 → 8.22 and 19.85 → 10.13, 4 shards
    // 26.48 → 12.54 and 27.32 → 14.38.  A metadata row held by the object's registry
    // entry, not inserted into a catalogue table, took unsharded 8.22 → 8.19 and
    // 10.13 → 10.09, 4 shards 12.54 → 12.39 and 14.38 → 14.23.  No stored a-graph
    // (parent `4f933f1` → this ceiling's change): unsharded 8.19 → 7.66 and
    // 10.09 → 9.54, 4 shards 12.39 → 10.95 and 14.23 → 12.89.
    assert_write_cost(
        "unsharded",
        || DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off),
        [7.9, 9.8],
    );
    assert_write_cost(
        "4 shards",
        || DurableShardedSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off, 4),
        [11.2, 13.2],
    );
}

/// Heap bytes and blocks per annotation a system holds once it has ingested the
/// study of [`write_cost`] with `annotations` annotations through `apply` — every
/// component, not only the content.
fn resident(annotations: u64) -> (f64, f64) {
    let (system, bytes, blocks) = retained(|| {
        let mut system = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
        system.commit(&Study::define_terms());
        Study::new(2008).grow(annotations, |ops| system.commit(ops));
        system
    });
    assert_eq!(system.annotations(), annotations);
    (bytes as f64 / annotations as f64, blocks as f64 / annotations as f64)
}

/// The study of [`resident`], split by [`Component`]: per component, the heap bytes
/// and blocks per annotation that dropping it frees once nothing else holds it.  An
/// annotation's content block is held by both the annotation registry and the
/// content store; the registry goes first, so the block is counted under `Content`.
fn resident_by_component(annotations: u64) -> Vec<(Component, f64, f64)> {
    let mut system = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
    system.commit(&Study::define_terms());
    Study::new(2008).grow(annotations, |ops| system.commit(ops));
    let mut view = system.system().view().clone();
    drop(system);
    let order = std::iter::once(Component::Annotations)
        .chain(Component::ALL.into_iter().filter(|&c| c != Component::Annotations));
    let mut rows = Vec::new();
    for component in order {
        let rest = view.without(component);
        let ((), bytes, blocks) = retained(|| drop(view));
        let per_annotation = |freed: i64| -freed as f64 / annotations as f64;
        rows.push((component, per_annotation(bytes), per_annotation(blocks)));
        view = rest;
    }
    rows
}

#[test]
fn an_annotation_keeps_at_most_its_resident_ceilings() {
    // Ceilings as `[bytes, blocks]`: the larger of the counts at N and 4 N plus 2 %
    // for toolchain drift; they only move down.  At N / 4 N, parent `fa7e168` → this
    // ceiling's change (a content document became the annotation's own record, not
    // an element tree built from it): 2 120 / 2 014 → 1 675 / 1 570 bytes and
    // 21.23 / 20.21 → 15.21 / 14.20 blocks.  Parent `a4baf43` → this ceiling's change
    // (a-graph nodes keyed by entity id, a record one block): 1 675 / 1 570 →
    // 1 306 / 1 201 bytes and 15.21 / 14.20 → 6.49 / 5.51 blocks.  Parent `06d46e3` →
    // this ceiling's change (the catalogue component gone, an object's metadata row
    // held by its registry entry): 1 306 / 1 201 → 1 296 / 1 194 bytes and
    // 6.49 / 5.51 → 6.34 / 5.38 blocks.  Parent `2dd72c3` → this ceiling's change (an
    // a-graph edge slot without a liveness flag, 48 → 40 bytes): 1 291 / 1 193 →
    // 1 262 / 1 164 bytes, and 6.29 / 5.37 blocks on both.  Parent `4f933f1` → this
    // ceiling's change (no stored a-graph, so no `Agraph` and `NodeMaps` rows):
    // 1 262 / 1 164 → 876 / 794 bytes and 6.29 / 5.37 → 5.99 / 5.14 blocks.
    const CEILINGS: [f64; 2] = [894.0, 6.11];
    let (small, large) = (resident(N), resident(4 * N));
    println!(
        "resident: {:.0} / {:.0} B, {:.2} / {:.2} blocks per annotation at N / 4 N \
         (ceilings {} B, {} blocks)",
        small.0, large.0, small.1, large.1, CEILINGS[0], CEILINGS[1]
    );
    for (what, small, large, ceiling) in
        [("bytes", small.0, large.0, CEILINGS[0]), ("blocks", small.1, large.1, CEILINGS[1])]
    {
        assert!(
            small.max(large) <= ceiling,
            "an annotation keeps {small:.1} / {large:.1} heap {what} at N / 4 N, above its \
             ceiling of {ceiling} (a ceiling only moves down)"
        );
    }
    // Where the bytes sit: every component's share, which together are at most the
    // whole (the rest is the durable wrapper around the view).
    let (by_small, by_large) = (resident_by_component(N), resident_by_component(4 * N));
    for ((component, bytes, blocks), (_, bytes_4n, blocks_4n)) in by_small.iter().zip(&by_large) {
        println!(
            "resident: {component:?}: {bytes:.0} / {bytes_4n:.0} B, {blocks:.2} / \
             {blocks_4n:.2} blocks per annotation at N / 4 N"
        );
    }
    for (rows, whole) in [(&by_small, small), (&by_large, large)] {
        let sum =
            rows.iter().fold((0.0, 0.0), |(b, k), &(_, bytes, blocks)| (b + bytes, k + blocks));
        assert!(
            sum.0 <= whole.0 && sum.1 <= whole.1,
            "components {sum:?} exceed the whole {whole:?}"
        );
    }
}

/// Require resolving a content filter (`probe`) and verifying 1 and 64 candidates
/// against it to allocate the same (the `verify_content:` row).
fn assert_verification_flat<'s>(filter: &str, probe: impl Fn() -> ContentProbe<'s>) {
    let verify = |candidates: u64| {
        allocated(|| {
            let probe = probe();
            std::hint::black_box((0..candidates).filter(|&i| probe.matches(DocId(i))).count());
        })
        .0
    };
    let (one, many) = (verify(1), verify(64));
    println!("verify_content: {filter}: {one} allocations for 1 candidate, {many} for 64");
    assert_eq!(one, many, "{filter}: verifying a candidate allocated");
    assert!((0..N).any(|i| probe().matches(DocId(i))), "{filter} matches nothing");
}

#[test]
fn verifying_a_content_filter_allocates_the_same_for_1_and_64_candidates() {
    // The executor resolves a phrase or keyword filter once per query — lowered,
    // tokenized, each token's postings found — and then probes each candidate: what
    // verification allocates must not grow with the candidates it verifies.
    let mut system = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
    system.commit(&Study::define_terms());
    Study::new(2008).grow(N, |ops| system.commit(ops));
    let store = system.system().content_store();
    assert_verification_flat("phrase \"W0 w1\"", || store.phrase_probe("W0 w1"));
    assert_verification_flat("keywords W0 w1", || store.keywords_probe(&["W0", "w1"]));
}

#[test]
fn a_lying_length_prefix_allocates_nothing() {
    // 2^60 as a varint: eight continuation groups of zero, then 0x10.
    let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10];
    let lying = |head: &[u8]| [head, &huge[..], &[0u8; 32][..]].concat();
    const F: u8 = FORMAT;
    // Format byte and version, then the count or length that lies: a record's op
    // list, an object name, a metadata row, a spelled-out element name, an
    // annotation's referents, a block set.
    let records = [
        lying(&[F, 1]),
        lying(&[F, 1, 1, 0, 0]),
        lying(&[F, 1, 1, 0, 0, 0, 0]),
        lying(&[F, 1, 1, 1, 1, 0]),
        lying(&[F, 1, 1, 1, 0, 0]),
        lying(&[F, 1, 1, 1, 0, 0, 1, 0, 0, 3]),
    ];
    // Format byte, version and shard tag, then the object, referent, annotation and
    // concept counts in turn.
    const C: u8 = CHECKPOINT_FORMAT;
    let checkpoints = [
        lying(&[C, 1, 0]),
        lying(&[C, 1, 0, 0]),
        lying(&[C, 1, 0, 0, 0]),
        lying(&[C, 1, 0, 0, 0, 0]),
    ];
    // An error message, and nothing that scales with the claim.
    const MESSAGE: u64 = 512;
    let refused_at_the_count = |err: Option<String>| {
        assert!(err.is_some_and(|message| message.contains("count exceeds")));
    };
    for payload in &records {
        let allocated = bytes_allocated(|| {
            refused_at_the_count(WalRecord::decode(payload).err().map(|e| e.to_string()));
        });
        assert!(allocated <= MESSAGE, "{payload:02x?}: {allocated} bytes");
    }
    for payload in &checkpoints {
        let blob = encode_frame(payload);
        let allocated = bytes_allocated(|| {
            refused_at_the_count(Checkpoint::decode(&blob).err().map(|e| e.to_string()));
        });
        assert!(allocated <= MESSAGE, "{payload:02x?}: {allocated} bytes");
    }

    // A count that does fit the bytes behind it reserves at most a constant per byte:
    // 200 claimed ops over 200 bytes of zeros (each a truncated registration).
    let mut plausible = vec![F, 1, 200, 1];
    plausible.extend([0u8; 200]);
    let allocated = bytes_allocated(|| assert!(WalRecord::decode(&plausible).is_err()));
    assert!(allocated <= 256 * plausible.len() as u64, "{allocated} bytes");
}

#[test]
fn a_frame_read_into_a_kept_buffer_allocates_nothing() {
    // A response's worth of frames: ten pages and a tail, ≈ 180 bytes each.
    let mut wire = Vec::new();
    for i in 0..11u8 {
        write_frame(&mut wire, &[i; 180]).unwrap();
    }
    let read_all = |buf: &mut Vec<u8>| {
        let mut source = wire.as_slice();
        while read_frame_into(&mut source, MAX_FRAME_LEN, buf).unwrap() {}
    };
    let mut kept = Vec::new();
    read_all(&mut kept); // the first response grows the buffer
    assert_eq!(bytes_allocated(|| read_all(&mut kept)), 0);
    // The one-shot wrapper pays a buffer per frame.
    let per_frame = bytes_allocated(|| {
        let mut source = wire.as_slice();
        while read_frame(&mut source, MAX_FRAME_LEN).unwrap().is_some() {}
    });
    assert_eq!(per_frame, 11 * 180);

    // A lying length is refused before the buffer is sized to it ...
    let mut lying = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
    lying.extend([0u8; 4]);
    let allocated = bytes_allocated(|| {
        assert!(read_frame_into(&mut lying.as_slice(), MAX_FRAME_LEN, &mut kept).is_err());
    });
    assert!(allocated <= 512, "an error message, not {allocated} bytes");
    // ... and one oversized frame does not pin its allocation past the next read.
    let mut big = Vec::new();
    write_frame(&mut big, &vec![7u8; 8 * RESPONSE_BUFFER_LEN]).unwrap();
    assert!(read_frame_into(&mut big.as_slice(), MAX_FRAME_LEN, &mut kept).unwrap());
    assert!(kept.capacity() >= 8 * RESPONSE_BUFFER_LEN);
    read_all(&mut kept);
    assert!(kept.capacity() <= 2 * RESPONSE_BUFFER_LEN, "capacity {}", kept.capacity());
}
