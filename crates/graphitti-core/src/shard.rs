//! [`ShardedSystem`] — hash-partitioned scale-out over N independent [`Graphitti`]
//! shards, plus the [`ShardCut`] consistent-read handle the scatter-gather query path
//! executes against.
//!
//! The ROADMAP's first scale-out lever is **sharding**: partition the corpus so that
//! the write path, the copy-on-publish cost and the index structures are split across
//! independent systems, while the read path fans a query out to every shard and merges
//! the partial results.  The partitioning rule:
//!
//! * **Annotations, referents and annotation content are partitioned** by the hash of
//!   their *anchor object* (the first object an annotation marks, or the owning object
//!   of the first reused referent).  An annotation and all of its referents are always
//!   co-located on one shard, so every shard-local a-graph neighbourhood
//!   (content ↔ referent ↔ object) is complete.
//! * **Object registry entries and the ontology are replicated** to every shard (the
//!   replicas share one metadata row): any shard can validate markers against any
//!   object and expand ontology classes locally, and global object / concept ids are
//!   identical on every shard by construction — no translation on the hot path.
//! * **Annotation / referent ids are global**: the router assigns each committed
//!   annotation and each created referent the id the *equivalent unsharded system*
//!   would have assigned (registration order), and keeps dense two-way translation
//!   maps (global → (shard, local), local → global per shard).  Per-shard local id
//!   order equals global order (both are creation order), so a translated per-shard
//!   candidate set is already sorted — the scatter-gather merge is a k-way merge of
//!   disjoint sorted runs.
//!
//! Besides the shards, the router maintains the **global collation mirror**: a real
//! a-graph ([`MultiGraph`]) keyed by *global* ids plus entity → node maps, grown with
//! every routed write by the a-graph writer `system.rs` grows its own graph with
//! (the `NodeMaps` methods) — this module holds no node or edge creation of its
//! own; it only decides *which* global ids to hand the writer, in the order the
//! equivalent unsharded system would have created them (each new referent, then the
//! annotation; a rejected commit creates neither, on either system).  Collation (page building,
//! graph constraints) runs once, over this mirror — which is why a sharded query
//! result is **byte-identical** to the same query on the equivalent unsharded
//! system, result-page node ids included.  The randomized cross-shard equivalence
//! battery (`graphitti-query/tests/sharded_equivalence.rs`) pins that contract
//! against the unsharded `ReferenceExecutor` oracle.  The mirror has no epochs: a
//! cut is validated by its per-shard epoch vectors.
//!
//! The write surface is the [`WriteSystem`] a [`Graphitti`] also implements — one
//! annotation builder, one batch type, one study replay; this module supplies what is
//! particular to N shards: routing, id translation and the mirror.  Writes are batched
//! with [`ShardedBatch`](crate::ShardedBatch) (from [`ShardedSystem::batch`]): one
//! *logical* batch opens a coalesced-epoch batch on **every** shard (each shard takes
//! its single bump lazily, only if the batch actually routes a write to it), so a
//! heterogeneous logical batch publishes at most one new version per shard.  The
//! batch exclusively borrows the system, so a [`ShardCut`] can never observe a
//! mid-batch state.
//!
//! Known limit (documented, enforced with a clear error, and listed in the ROADMAP):
//! an annotation whose *reused* referents live on two different shards is rejected
//! ([`CoreError::CrossShardReuse`], naming both shards).
//!
//! The global mirror and the id router are copy-on-publish values like any
//! `SystemView` component, and as cheap: the mirror's a-graph and every dense map
//! (entity → node, global ↔ local ids) are `ChunkedVec`s, so a batch
//! committed after a cut was captured copies the chunks it writes — the tail chunks,
//! plus the chunk of each older node whose adjacency it extends — and shares the rest
//! with the cut.

use std::sync::Arc;

use agraph::{MultiGraph, NodeId};
use chunked::ChunkedVec;
use ontology::{ConceptId, Ontology};
use relstore::Value;
use xmlstore::DublinCore;

use crate::annotation::{AnnotationBuilder, AnnotationId, AnnotationSpec};
use crate::epoch::EpochVector;
use crate::error::CoreError;
use crate::marker::Marker;
use crate::referent::ReferentId;
use crate::snapshot::Snapshot;
use crate::study::{AnnotationSnapshot, Created, ReferentSnapshot, StudySnapshot};
use crate::system::{creation_order, Graphitti, NodeMaps, ObjectId, Registration};
use crate::types::DataType;
use crate::wal::LogReferent;
use crate::write::WriteSystem;
use crate::Result;

/// Where a partitioned entity lives: its shard index and its shard-local id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Home {
    /// The shard the entity is stored on.
    pub shard: usize,
    /// The entity's dense id *within* that shard.
    pub local: u64,
}

/// Global ↔ local id translation for the partitioned entity kinds.
///
/// Objects need no maps (replicated: global id == local id everywhere).  The maps are
/// dense on both sides, and both sides are in creation order, so translation preserves
/// sort order.  Every map is a [`ChunkedVec`] indexed by the id it translates, so a
/// post-cut batch copies the tail chunks it appends to, not the maps.
#[derive(Debug, Clone, Default)]
struct IdMaps {
    /// Global annotation id → home.
    annotations: ChunkedVec<Home>,
    /// Global referent id → home.
    referents: ChunkedVec<Home>,
    /// Per shard: local annotation id → global id.
    ann_l2g: Vec<ChunkedVec<u64>>,
    /// Per shard: local referent id → global id.
    ref_l2g: Vec<ChunkedVec<u64>>,
    /// Number of registered (replicated) objects.
    objects: u64,
    /// Per global object id: bitmask of the shards holding at least one of its
    /// referents (shard counts are capped at 64).  The scatter-gather executor prunes
    /// an id-pinned referent filter to exactly these shards.
    object_ref_shards: ChunkedVec<u64>,
}

/// A hash-partitioned Graphitti deployment: N independent shards (each a full
/// [`Graphitti`] with its own epoch vector and copy-on-write commit path), the id
/// router, and the global collation mirror.  See the [module docs](self) for the
/// partitioning rule and the byte-identity contract.
#[derive(Debug)]
pub struct ShardedSystem {
    shards: Vec<Graphitti>,
    /// The collation mirror's a-graph (global node / edge ids, mirroring the
    /// equivalent unsharded system exactly).
    graph: Arc<MultiGraph>,
    /// The mirror's entity → node maps (global ids throughout).
    nodes: Arc<NodeMaps>,
    /// Global ↔ local id translation.
    ids: Arc<IdMaps>,
    /// Logical version: bumped once per batch (lazily, on its first write attempt) or
    /// once per unbatched write attempt.  Names published cuts; per-shard epoch vectors
    /// carry the correctness story.
    version: u64,
    batching: bool,
    batch_bumped: bool,
}

impl ShardedSystem {
    /// Create an empty sharded system with `shards` partitions (1..=64).
    pub fn new(shards: usize) -> ShardedSystem {
        assert!((1..=64).contains(&shards), "shard count must be in 1..=64, got {shards}");
        ShardedSystem {
            shards: (0..shards).map(|_| Graphitti::new()).collect(),
            graph: Arc::default(),
            nodes: Arc::default(),
            ids: Arc::new(IdMaps {
                ann_l2g: vec![ChunkedVec::new(); shards],
                ref_l2g: vec![ChunkedVec::new(); shards],
                ..IdMaps::default()
            }),
            version: 0,
            batching: false,
            batch_bumped: false,
        }
    }

    /// Rebuild a sharded system from a serialisable [`StudySnapshot`], in the one replay
    /// order [`Graphitti::from_study_snapshot`] also uses (ontology, then all
    /// registrations, then annotations with lazy referent materialisation) — so the
    /// global ids *and mirror node ids* equal those of an unsharded replay of the same
    /// snapshot.  The whole replay is one batch: each touched shard takes exactly one
    /// epoch bump.
    pub fn from_study_snapshot(snapshot: &StudySnapshot, shards: usize) -> Result<ShardedSystem> {
        let mut sys = ShardedSystem::new(shards);
        crate::study::replay_study(&mut sys, snapshot.clone(), &snapshot.registrations_first())?;
        Ok(sys)
    }

    // --- topology ---

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Read access to one shard (its full [`SystemView`] API, via deref).
    pub fn shard(&self, index: usize) -> &Graphitti {
        &self.shards[index]
    }

    /// The shard a (hypothetical or registered) object's annotations are routed to:
    /// a deterministic hash of the global object id.
    pub(crate) fn shard_of_object(&self, object: ObjectId) -> usize {
        shard_of(object, self.shards.len())
    }

    /// The current logical version (bumped once per batch / unbatched write attempt).
    pub fn version(&self) -> u64 {
        self.version
    }

    // --- global counts and lookups ---

    /// Number of registered (replicated) objects.
    pub fn object_count(&self) -> usize {
        self.ids.objects as usize
    }

    /// Number of committed annotations across all shards.
    pub fn annotation_count(&self) -> usize {
        self.ids.annotations.len()
    }

    /// Number of referents across all shards.
    pub fn referent_count(&self) -> usize {
        self.ids.referents.len()
    }

    /// The home (shard + local id) of a global annotation id.
    pub fn annotation_home(&self, id: AnnotationId) -> Option<Home> {
        self.ids.annotations.get(id.0 as usize).copied()
    }

    /// The home (shard + local id) of a global referent id.
    pub fn referent_home(&self, id: ReferentId) -> Option<Home> {
        self.ids.referents.get(id.0 as usize).copied()
    }

    /// The global referent ids an annotation links, in link order.
    pub fn annotation_referents(&self, id: AnnotationId) -> Option<Vec<ReferentId>> {
        let home = self.annotation_home(id)?;
        let ann = self.shards[home.shard].annotation(AnnotationId(home.local))?;
        let l2g = &self.ids.ref_l2g[home.shard];
        Some(ann.referents.iter().map(|r| ReferentId(l2g[r.0 as usize])).collect())
    }

    /// The (replicated) ontology — identical on every shard; shard 0's copy.
    pub fn ontology(&self) -> &Ontology {
        self.shards[0].ontology()
    }

    /// The global collation mirror's a-graph.
    pub fn agraph(&self) -> &MultiGraph {
        &self.graph
    }

    // --- reads used by tests: cross-shard integrity ---

    /// Check internal consistency: every shard's own integrity, the id maps'
    /// bijectivity, the replicated stores' agreement, and the mirror's node maps.
    pub fn verify_integrity(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            for p in shard.verify_integrity() {
                problems.push(format!("shard {i}: {p}"));
            }
            if shard.object_count() != self.object_count() {
                problems.push(format!(
                    "shard {i}: replicated object count {} != {}",
                    shard.object_count(),
                    self.object_count()
                ));
            }
            if shard.ontology() != self.shards[0].ontology() {
                problems.push(format!("shard {i}: replicated ontology diverged"));
            }
            if shard.annotation_count() != self.ids.ann_l2g[i].len() {
                problems.push(format!("shard {i}: annotation l2g map out of sync"));
            }
            if shard.referent_count() != self.ids.ref_l2g[i].len() {
                problems.push(format!("shard {i}: referent l2g map out of sync"));
            }
        }
        for (g, home) in self.ids.annotations.iter().enumerate() {
            if self.ids.ann_l2g[home.shard].get(home.local as usize) != Some(&(g as u64)) {
                problems.push(format!("annotation {g}: g2l/l2g mismatch at {home:?}"));
            }
        }
        for (g, home) in self.ids.referents.iter().enumerate() {
            if self.ids.ref_l2g[home.shard].get(home.local as usize) != Some(&(g as u64)) {
                problems.push(format!("referent {g}: g2l/l2g mismatch at {home:?}"));
            }
        }
        if self.nodes.object_node.len() != self.object_count() {
            problems.push("mirror object-node map out of sync".into());
        }
        if self.nodes.referent_node.len() != self.referent_count() {
            problems.push("mirror referent-node map out of sync".into());
        }
        problems
    }

    // --- the consistent cut ---

    /// Capture a [`ShardCut`]: one snapshot per shard plus the mirror, all taken
    /// atomically (the exclusive borrow means no write can interleave), each an O(1)
    /// `Arc` clone.  Hand the cut to the sharded query service's `publish`, which
    /// installs it under its snapshot write lock — readers then observe either the
    /// whole previous cut or the whole new one, never a torn mix.
    pub fn capture_cut(&self) -> ShardCut {
        ShardCut {
            shards: Arc::from(
                self.shards.iter().map(Graphitti::snapshot).collect::<Vec<Snapshot>>(),
            ),
            graph: Arc::clone(&self.graph),
            nodes: Arc::clone(&self.nodes),
            ids: Arc::clone(&self.ids),
            version: self.version,
        }
    }

    /// Export the global state as a replayable [`StudySnapshot`] — the same flat
    /// global-id-ordered form [`Graphitti::study_snapshot`] produces, so the export
    /// replays into an unsharded system or any shard count with identical global
    /// ids.  This is the durability layer's checkpoint body
    /// ([`crate::wal::Checkpoint`]).
    pub fn study_snapshot(&self) -> StudySnapshot {
        // Object registry entries and the ontology are replicated: shard 0 sees every
        // object.
        let objects = crate::study::object_snapshots(self.shard(0));

        // Global referent/annotation ids are dense and in commit order, so walking
        // them in order reproduces the oracle's snapshot layout exactly.
        let referents = (0..self.referent_count() as u64)
            .map(|grid| {
                let home = self.referent_home(ReferentId(grid)).expect("dense global id");
                let r = self
                    .shard(home.shard)
                    .referent(ReferentId(home.local))
                    .expect("referent on its home shard");
                ReferentSnapshot { object: r.object.0 as usize, marker: r.marker.clone() }
            })
            .collect();

        let annotations = (0..self.annotation_count() as u64)
            .map(|gaid| {
                let home = self.annotation_home(AnnotationId(gaid)).expect("dense global id");
                let a = self
                    .shard(home.shard)
                    .annotation(AnnotationId(home.local))
                    .expect("annotation on its home shard");
                let referents = self
                    .annotation_referents(AnnotationId(gaid))
                    .expect("link list for a committed annotation")
                    .iter()
                    .map(|r| r.0 as usize)
                    .collect();
                AnnotationSnapshot {
                    content: DublinCore::clone(&a.content),
                    referents,
                    terms: a.terms.to_vec(),
                }
            })
            .collect();

        StudySnapshot { objects, referents, annotations, ontology: self.ontology().clone() }
    }

    // --- writes ---

    /// Bump the logical version for a write attempt (once per batch when batching).
    fn touch_version(&mut self) {
        if !self.batching {
            self.version += 1;
        } else if !self.batch_bumped {
            self.version += 1;
            self.batch_bumped = true;
        }
    }

    /// Apply an edit to the (replicated) ontology on **every** shard.  The closure
    /// must be deterministic — it runs once per shard and the replicas must stay
    /// identical (freshly assigned [`ConceptId`]s then agree globally, because every
    /// shard applies the same edit sequence — which is also why returning one
    /// replica's result speaks for all).
    pub fn ontology_edit<R>(&mut self, edit: impl Fn(&mut Ontology) -> R) -> R {
        self.touch_version();
        let mut result = None;
        for shard in &mut self.shards {
            result = Some(edit(shard.ontology_mut()));
        }
        result.expect("at least one shard")
    }

    /// Decide an annotation spec's route shard and enforce reuse co-location.
    fn route_annotation(&self, spec: &AnnotationSpec) -> Result<usize> {
        let mut route: Option<usize> = None;
        for pending in spec.referents.iter() {
            if let LogReferent::Existing(grid) = pending {
                if let Some(home) = self.ids.referents.get(grid.0 as usize) {
                    match route {
                        None => route = Some(home.shard),
                        Some(r) if r != home.shard => {
                            return Err(CoreError::CrossShardReuse { home: r, reused: home.shard });
                        }
                        Some(_) => {}
                    }
                }
            }
        }
        if let Some(r) = route {
            return Ok(r);
        }
        for pending in spec.referents.iter() {
            if let LogReferent::New { object, .. } = pending {
                return Ok(self.shard_of_object(*object));
            }
            // An unknown reused referent with no route: fall through to the default
            // shard, whose local lookup will fail exactly like the unsharded system.
        }
        Ok(self.ids.annotations.len() % self.shards.len())
    }

    /// Record (ledger + mirror) every referent the route shard's committed annotation
    /// created, those from local id `refs_before` on.  Per referent, in creation order:
    /// the global id, then the mirror node and its `part-of` edge.
    fn mirror_new_referents(&mut self, shard_idx: usize, refs_before: u64) {
        let created = self.shards[shard_idx].referents();
        for local in refs_before..created.len() as u64 {
            let referent = &created[local as usize];
            let ids = Arc::make_mut(&mut self.ids);
            let global = ReferentId(ids.referents.len() as u64);
            ids.referents.push(Home { shard: shard_idx, local });
            ids.ref_l2g[shard_idx].push(global.0);
            *ids.object_ref_shards
                .get_mut(referent.object.0 as usize)
                .expect("a registered object") |= 1 << shard_idx;
            Arc::make_mut(&mut self.nodes)
                .add_referent(Arc::make_mut(&mut self.graph), global, referent.object)
                .expect("mirror part-of edge between mirrored nodes");
        }
    }
}

/// The deterministic object → shard hash (splitmix64 finalizer over the global id).
/// A pure function of `(object, shards)`, so routing never depends on arrival order.
pub(crate) fn shard_of(object: ObjectId, shards: usize) -> usize {
    let mut z = object.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// The fluent builder for one sharded annotation: the one
/// [`AnnotationBuilder`] speaking **global** ids.
pub type ShardedAnnotationBuilder<'a> = AnnotationBuilder<'a, ShardedSystem>;

impl WriteSystem for ShardedSystem {
    /// Register a data object on **every** shard (object metadata is replicated), and
    /// mirror its a-graph node.  The returned id is global *and* local everywhere.  The
    /// registration is built once, so the replicas share one row, name and domain.
    fn register_object(
        &mut self,
        data_type: DataType,
        name: impl Into<String>,
        metadata: Vec<Value>,
        payload: Arc<[u8]>,
        domain: impl Into<String>,
    ) -> Result<ObjectId> {
        self.touch_version();
        // Checked once, before any shard is written: a refused row reaches no replica.
        let registration =
            Registration::new(data_type, name.into(), metadata, payload, domain.into())?;
        let mut replicated = self.shards.iter_mut().map(|shard| shard.register(&registration));
        let id = replicated.next().expect("at least one shard");
        for replica in replicated {
            debug_assert!(replica == id, "replicated registration diverged across shards");
        }
        debug_assert_eq!(id.0, self.ids.objects, "replicated object ids must stay global");
        Arc::make_mut(&mut self.nodes).add_object(Arc::make_mut(&mut self.graph), id);
        let ids = Arc::make_mut(&mut self.ids);
        ids.objects += 1;
        ids.object_ref_shards.push(0);
        Ok(id)
    }

    fn ontology_edit<R>(&mut self, edit: impl Fn(&mut Ontology) -> R) -> R {
        ShardedSystem::ontology_edit(self, edit)
    }

    fn annotation_referents(&self, id: AnnotationId) -> Option<Vec<ReferentId>> {
        ShardedSystem::annotation_referents(self, id)
    }

    fn study_snapshot(&self) -> StudySnapshot {
        ShardedSystem::study_snapshot(self)
    }

    fn creation_order(&self) -> Vec<(Created, usize)> {
        // The mirror's global a-graph numbers nodes as the unsharded system does.
        creation_order(&self.graph)
    }

    /// Route and commit one annotation spec carrying **global** ids.
    ///
    /// Routing: the home shard of the first *reused* referent when there is one, else
    /// the hash shard of the first newly marked object, else (a terms-only
    /// annotation) `next_global_annotation_id % shards`.  Every reused referent must
    /// be co-located on the route shard — a cross-shard reuse is rejected with
    /// [`CoreError::CrossShardReuse`] before anything is written (the documented sharding
    /// limit).  An *unknown* reused referent id is forwarded to the shard as an
    /// unknown local id, so the shard rejects the commit exactly as the unsharded
    /// system does: whole, before anything is written, so nothing is mirrored.
    fn commit_annotation(&mut self, spec: AnnotationSpec) -> Result<AnnotationId> {
        self.touch_version();
        let shard_idx = self.route_annotation(&spec)?;

        // Translate the spec to the route shard's local ids.  Objects are replicated
        // (global == local); only reused referent ids need translation.
        let local_spec = AnnotationSpec {
            content: spec.content,
            terms: spec.terms,
            referents: spec
                .referents
                .into_iter()
                .map(|p| match p {
                    new @ LogReferent::New { .. } => new,
                    LogReferent::Existing(grid) => {
                        let local = self
                            .ids
                            .referents
                            .get(grid.0 as usize)
                            .map(|h| h.local)
                            // Unknown global id: forward an id unknown to the shard
                            // too, preserving the unsharded failure behaviour.
                            .unwrap_or(u64::MAX);
                        LogReferent::Existing(ReferentId(local))
                    }
                })
                .collect(),
        };

        let refs_before = self.shards[shard_idx].referent_count() as u64;
        let local_aid = self.shards[shard_idx].commit_annotation(local_spec)?;
        self.mirror_new_referents(shard_idx, refs_before);

        let ids = Arc::make_mut(&mut self.ids);
        let gaid = ids.annotations.len() as u64;
        debug_assert_eq!(local_aid.0, ids.ann_l2g[shard_idx].len() as u64);
        ids.annotations.push(Home { shard: shard_idx, local: local_aid.0 });
        ids.ann_l2g[shard_idx].push(gaid);

        // Mirror the annotation under its global id, linked to its global referents.
        let ann = self.shards[shard_idx]
            .annotation(local_aid)
            .expect("committed annotation present on its shard");
        let l2g = &self.ids.ref_l2g[shard_idx];
        debug_assert_eq!(self.nodes.annotation_node.len() as u64, gaid);
        Arc::make_mut(&mut self.nodes).add_annotation(
            Arc::make_mut(&mut self.graph),
            AnnotationId(gaid),
            ann.referents.iter().map(|r| ReferentId(l2g[r.0 as usize])),
            &ann.terms,
        )?;
        Ok(AnnotationId(gaid))
    }

    fn begin_batch(&mut self) {
        for shard in &mut self.shards {
            shard.begin_batch();
        }
        self.batching = true;
        self.batch_bumped = false;
    }

    fn end_batch(&mut self) {
        for shard in &mut self.shards {
            shard.end_batch();
        }
        self.batching = false;
        self.batch_bumped = false;
    }

    fn checkpoint_shards(&self) -> usize {
        self.shards.len()
    }
}

/// A consistent cross-shard read handle: one [`Snapshot`] per shard plus the global
/// collation mirror, captured atomically by [`ShardedSystem::capture_cut`].  Clone is
/// a handful of `Arc` bumps — hand one to every scatter-gather worker.
///
/// A reader holding a cut observes one frozen state of *every* shard: no shard can
/// appear "ahead" of the cut, because the cut's snapshots are immutable for their
/// whole life (per-shard copy-on-publish).  Per-shard epoch vectors carry the
/// footprint-agreement validity test a cut-level result cache uses
/// ([`ShardCut::version_vector`], shard by shard [`Snapshot::agrees_on`]).
#[derive(Debug, Clone)]
pub struct ShardCut {
    shards: Arc<[Snapshot]>,
    graph: Arc<MultiGraph>,
    nodes: Arc<NodeMaps>,
    ids: Arc<IdMaps>,
    version: u64,
}

impl ShardCut {
    /// Number of shards in the cut.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The snapshot of one shard.
    pub fn shard(&self, index: usize) -> &Snapshot {
        &self.shards[index]
    }

    /// All per-shard snapshots, in shard order.
    pub fn shards(&self) -> &[Snapshot] {
        &self.shards
    }

    /// The logical version this cut was captured at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether two cuts are views of the same published state (same version and the
    /// identical snapshot on every shard).
    pub fn same_cut(&self, other: &ShardCut) -> bool {
        self.version == other.version
            && self.shards.len() == other.shards.len()
            && self.shards.iter().zip(other.shards.iter()).all(|(a, b)| a.same_epoch(b))
    }

    /// Per-shard lineage ids and epoch vectors — the lightweight version tag a
    /// cut-level cache entry stores instead of pinning whole snapshots alive.
    pub fn version_vector(&self) -> Vec<(u64, EpochVector)> {
        self.shards.iter().map(|s| (s.system_id(), s.component_epochs())).collect()
    }

    // --- global reads (collation + translation) ---

    /// Number of committed annotations across the cut.
    pub fn annotation_count(&self) -> usize {
        self.ids.annotations.len()
    }

    /// Number of referents across the cut.
    pub fn referent_count(&self) -> usize {
        self.ids.referents.len()
    }

    /// Number of registered objects.
    pub fn object_count(&self) -> usize {
        self.ids.objects as usize
    }

    /// The global collation mirror's a-graph.
    pub fn agraph(&self) -> &MultiGraph {
        &self.graph
    }

    /// Translate a shard's local annotation id to its global id.
    pub fn annotation_global(&self, shard: usize, local: AnnotationId) -> AnnotationId {
        AnnotationId(self.ids.ann_l2g[shard][local.0 as usize])
    }

    /// Translate a shard's local referent id to its global id.
    pub fn referent_global(&self, shard: usize, local: ReferentId) -> ReferentId {
        ReferentId(self.ids.ref_l2g[shard][local.0 as usize])
    }

    /// The bitmask of shards holding referents of an object (pruning an id-pinned
    /// referent filter).  Unknown objects hold none.
    pub fn object_referent_shards(&self, object: ObjectId) -> u64 {
        self.ids.object_ref_shards.get(object.0 as usize).copied().unwrap_or(0)
    }

    /// The global referent ids an annotation links, in link order.
    pub fn annotation_referents(&self, id: AnnotationId) -> Option<Vec<ReferentId>> {
        let home = self.ids.annotations.get(id.0 as usize)?;
        let ann = self.shards[home.shard].annotation(AnnotationId(home.local))?;
        let l2g = &self.ids.ref_l2g[home.shard];
        Some(ann.referents.iter().map(|r| ReferentId(l2g[r.0 as usize])).collect())
    }

    /// The terms an annotation cites (concept ids are global already).
    pub fn annotation_terms(&self, id: AnnotationId) -> Option<Vec<ConceptId>> {
        let home = self.ids.annotations.get(id.0 as usize)?;
        self.shards[home.shard].annotation(AnnotationId(home.local)).map(|a| a.terms.to_vec())
    }

    /// The (global) object a referent marks.
    pub fn referent_object(&self, id: ReferentId) -> Option<ObjectId> {
        let home = self.ids.referents.get(id.0 as usize)?;
        self.shards[home.shard].referent(ReferentId(home.local)).map(|r| r.object)
    }

    /// The marker of a referent.
    pub fn referent_marker(&self, id: ReferentId) -> Option<Marker> {
        let home = self.ids.referents.get(id.0 as usize)?;
        self.shards[home.shard].referent(ReferentId(home.local)).map(|r| r.marker.clone())
    }

    /// Every (global) referent of an object, across all shards, in ascending global
    /// id order — which is creation order, matching the unsharded
    /// `referents_of_object`.
    pub fn referents_of_object(&self, object: ObjectId) -> Vec<ReferentId> {
        let mask = self.object_referent_shards(object);
        let mut out: Vec<ReferentId> = Vec::new();
        for shard in 0..self.shards.len() {
            if mask & (1 << shard) == 0 {
                continue;
            }
            let l2g = &self.ids.ref_l2g[shard];
            out.extend(
                self.shards[shard]
                    .referents_of_object(object)
                    .iter()
                    .map(|r| ReferentId(l2g[r.0 as usize])),
            );
        }
        out.sort_unstable();
        out
    }

    /// The (global) annotations linking a referent, ascending — a referent and all
    /// its annotations are co-located, so this is one shard lookup plus translation.
    pub fn annotations_of_referent(&self, id: ReferentId) -> Vec<AnnotationId> {
        let Some(home) = self.ids.referents.get(id.0 as usize) else { return Vec::new() };
        let l2g = &self.ids.ann_l2g[home.shard];
        self.shards[home.shard]
            .annotations_of_referent(ReferentId(home.local))
            .iter()
            .map(|a| AnnotationId(l2g[a.0 as usize]))
            .collect()
    }

    /// The mirror node of an object.
    pub fn object_node(&self, id: ObjectId) -> Option<NodeId> {
        self.nodes.object_node.get(id.0 as usize).copied()
    }

    /// The mirror node of a referent.
    pub fn referent_node(&self, id: ReferentId) -> Option<NodeId> {
        self.nodes.referent_node.get(id.0 as usize).copied()
    }

    /// The mirror node of an annotation.
    pub fn annotation_node(&self, id: AnnotationId) -> Option<NodeId> {
        self.nodes.annotation_node.get(id.0 as usize).copied()
    }

    /// The mirror node of an ontology term, if cited.
    pub fn term_node(&self, concept: ConceptId) -> Option<NodeId> {
        self.nodes.term_node.get(&concept).copied()
    }
}

// Published cuts are cloned out of the sharded query service by every thread that
// runs a query.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardCut>();
    assert_send_sync::<ShardedSystem>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Component;

    /// One interleaved register + annotate history, written once against the write
    /// surface both systems share; returns every id the system assigned.
    fn write_history<S: WriteSystem>(sys: &mut S) -> (Vec<ObjectId>, Vec<AnnotationId>) {
        let term = sys.ontology_edit(|o| o.add_concept("Motif"));
        let objects = (0..6u64)
            .map(|i| {
                sys.register_sequence(format!("seq-{i}"), DataType::DnaSequence, 2_000, "chr1")
            })
            .collect();
        let annotations = (0..12u64)
            .map(|i| {
                sys.annotate()
                    .comment(format!("note {i}"))
                    .mark(ObjectId(i % 6), Marker::interval(i * 50, i * 50 + 25))
                    .cite_term(term)
                    .commit()
                    .unwrap()
            })
            .collect();
        (objects, annotations)
    }

    /// [`write_history`] applied to an unsharded oracle and a sharded system; returns
    /// both.
    fn parallel_build(shards: usize) -> (Graphitti, ShardedSystem) {
        let mut oracle = Graphitti::new();
        let mut sharded = ShardedSystem::new(shards);
        assert_eq!(
            write_history(&mut sharded),
            write_history(&mut oracle),
            "replicated registration and the router must assign the oracle's ids"
        );
        (oracle, sharded)
    }

    /// A multi-mark annotation whose second mark references an unknown reused
    /// referent: the commit fails, whole.
    fn partial<S: WriteSystem>(sys: &mut S) -> Result<AnnotationId> {
        sys.annotate()
            .comment("partial")
            .mark(ObjectId(0), Marker::interval(900, 950))
            .mark_existing(ReferentId(9_999))
            .commit()
    }

    /// What [`write_history`] leaves out: a failed commit after a valid mark, and a
    /// term first cited late (its node is created by that citation, then reused).
    fn late_history<S: WriteSystem>(sys: &mut S) -> Vec<AnnotationId> {
        let late = sys.ontology_edit(|o| o.add_concept("Late"));
        assert!(partial(sys).is_err());
        (0..2u64)
            .map(|i| {
                sys.annotate()
                    .comment(format!("cites late {i}"))
                    .mark(ObjectId(1 + i), Marker::interval(5, 9))
                    .cite_term(late)
                    .commit()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn mirror_matches_oracle_graph_exactly() {
        for shards in [1, 2, 3, 5] {
            let (mut oracle, mut sharded) = parallel_build(shards);
            assert_eq!(late_history(&mut sharded), late_history(&mut oracle));
            assert!(sharded.verify_integrity().is_empty(), "{:?}", sharded.verify_integrity());
            assert_eq!(sharded.agraph().node_count(), oracle.agraph().node_count());
            assert_eq!(sharded.agraph().edge_count(), oracle.agraph().edge_count());
            // Same nodes (kind and key) and the same adjacency, node by node, edge
            // record (endpoints and label) by edge record.
            for node in oracle.agraph().nodes() {
                assert_eq!(sharded.agraph().node(node), oracle.agraph().node(node));
                assert_eq!(
                    sharded.agraph().out_edges(node),
                    oracle.agraph().out_edges(node),
                    "out-edges diverge at {node:?} with {shards} shards"
                );
                for &e in oracle.agraph().out_edges(node) {
                    assert_eq!(sharded.agraph().edge(e), oracle.agraph().edge(e));
                }
            }
            // Entity decoding matches too.
            let cut = sharded.capture_cut();
            for node in oracle.agraph().nodes() {
                assert_eq!(crate::system::entity_of(cut.agraph(), node), oracle.entity_of(node));
            }
        }
    }

    #[test]
    fn ids_partition_and_translate_round_trip() {
        let (_oracle, sharded) = parallel_build(3);
        let cut = sharded.capture_cut();
        assert_eq!(cut.annotation_count(), 12);
        for g in 0..cut.annotation_count() as u64 {
            let home = sharded.annotation_home(AnnotationId(g)).unwrap();
            assert_eq!(
                cut.annotation_global(home.shard, AnnotationId(home.local)),
                AnnotationId(g)
            );
        }
        for g in 0..cut.referent_count() as u64 {
            let home = sharded.referent_home(ReferentId(g)).unwrap();
            assert_eq!(cut.referent_global(home.shard, ReferentId(home.local)), ReferentId(g));
        }
        // Every annotation landed on its anchor object's hash shard.
        for g in 0..cut.annotation_count() as u64 {
            let refs = sharded.annotation_referents(AnnotationId(g)).unwrap();
            let obj = cut.referent_object(refs[0]).unwrap();
            assert_eq!(
                sharded.annotation_home(AnnotationId(g)).unwrap().shard,
                sharded.shard_of_object(obj)
            );
        }
    }

    #[test]
    fn referents_of_object_merges_in_global_order() {
        let (oracle, sharded) = parallel_build(4);
        let cut = sharded.capture_cut();
        for o in 0..oracle.object_count() as u64 {
            assert_eq!(
                cut.referents_of_object(ObjectId(o)),
                oracle.referents_of_object(ObjectId(o)).to_vec(),
            );
        }
    }

    #[test]
    fn sharded_batch_bumps_each_touched_shard_once() {
        let mut sharded = ShardedSystem::new(3);
        let seq = sharded.register_sequence("s", DataType::DnaSequence, 2_000, "chr1");
        let target = sharded.shard_of_object(seq);
        let epochs_before: Vec<u64> = (0..3).map(|i| sharded.shard(i).epoch()).collect();
        let version_before = sharded.version();

        let mut batch = sharded.batch();
        for i in 0..5u64 {
            batch
                .annotate()
                .comment(format!("burst {i}"))
                .mark(seq, Marker::interval(i * 10, i * 10 + 5))
                .commit()
                .unwrap();
        }
        assert_eq!(batch.commit(), 5);

        assert_eq!(sharded.version(), version_before + 1, "one logical version per batch");
        for (i, &before) in epochs_before.iter().enumerate() {
            let expected = before + u64::from(i == target);
            assert_eq!(sharded.shard(i).epoch(), expected, "shard {i} epoch");
        }
    }

    #[test]
    fn ingest_batch_leaves_annotation_components_clean_on_every_shard() {
        let mut sharded = ShardedSystem::new(2);
        sharded.register_sequence("seed", DataType::DnaSequence, 1_000, "chr1");
        let cut_before = sharded.capture_cut();
        let mut batch = sharded.batch();
        for i in 0..4 {
            batch.register_sequence(format!("late-{i}"), DataType::DnaSequence, 500, "chr2");
        }
        batch.commit();
        let cut_after = sharded.capture_cut();
        let content_fp = crate::ComponentSet::of([
            Component::Content,
            Component::Annotations,
            Component::Referents,
        ]);
        assert!(
            cut_after
                .shards()
                .iter()
                .zip(cut_before.shards())
                .all(|(a, b)| a.agrees_on(b, content_fp)),
            "a replicated ingest batch must not move any shard's annotation-path epochs"
        );
        assert!(!cut_after.same_cut(&cut_before));
    }

    #[test]
    fn cross_shard_referent_reuse_is_rejected() {
        let mut sharded = ShardedSystem::new(2);
        // Find two objects hashed to different shards.
        let mut objs = Vec::new();
        for i in 0..8u64 {
            objs.push(sharded.register_sequence(
                format!("s{i}"),
                DataType::DnaSequence,
                1_000,
                "chr1",
            ));
        }
        let a = *objs.iter().find(|o| sharded.shard_of_object(**o) == 0).expect("shard-0 object");
        let b = *objs.iter().find(|o| sharded.shard_of_object(**o) == 1).expect("shard-1 object");
        let ann_a =
            sharded.annotate().comment("a").mark(a, Marker::interval(0, 10)).commit().unwrap();
        let ann_b =
            sharded.annotate().comment("b").mark(b, Marker::interval(0, 10)).commit().unwrap();
        let ra = sharded.annotation_referents(ann_a).unwrap()[0];
        let rb = sharded.annotation_referents(ann_b).unwrap()[0];
        let err = sharded.annotate().comment("x").mark_existing(ra).mark_existing(rb).commit();
        assert!(
            matches!(err, Err(CoreError::CrossShardReuse { home: 0, reused: 1 })),
            "cross-shard reuse must be rejected with the shard pair: {err:?}"
        );
        // Co-located reuse still works, and a cross-shard *new* mark is fine (objects
        // are replicated; the annotation follows its first reused referent's home).
        sharded.annotate().comment("ok").mark_existing(ra).commit().unwrap();
        sharded
            .annotate()
            .comment("ok2")
            .mark_existing(ra)
            .mark(b, Marker::interval(50, 60))
            .commit()
            .unwrap();
        assert!(sharded.verify_integrity().is_empty());
    }

    #[test]
    fn a_failed_commit_changes_nothing_on_either_system() {
        // Both systems reject the commit whole: the valid first mark is not kept.
        fn after<S: WriteSystem>(sys: &mut S) -> (AnnotationId, Option<Vec<ReferentId>>) {
            let id = sys
                .annotate()
                .comment("after")
                .mark(ObjectId(0), Marker::interval(0, 5))
                .commit()
                .unwrap();
            (id, sys.annotation_referents(id))
        }
        let (mut oracle, mut sharded) = parallel_build(3);
        let (study, graph) = (oracle.study_snapshot(), oracle.agraph().node_count());
        let before = (oracle.component_epochs(), sharded.capture_cut().version_vector());
        assert!(partial(&mut oracle).is_err() && partial(&mut sharded).is_err());
        assert_eq!(oracle.study_snapshot(), study, "the oracle keeps nothing of the failed commit");
        assert_eq!(sharded.study_snapshot(), study, "nor does the sharded system");
        assert_eq!(oracle.agraph().node_count(), graph);
        assert_eq!(sharded.agraph().node_count(), graph);
        assert_eq!(sharded.agraph().edge_count(), oracle.agraph().edge_count());
        // It wrote nothing, so it moved no component epoch on any shard ...
        assert_eq!(oracle.component_epochs(), before.0);
        assert_eq!(sharded.capture_cut().version_vector(), before.1);
        // ... and the next commit gets the ids it would have got without it.
        let referents = oracle.referent_count() as u64;
        assert_eq!(after(&mut oracle), after(&mut sharded));
        assert_eq!(
            oracle.annotation_referents(AnnotationId(12)),
            Some(vec![ReferentId(referents)])
        );
    }

    #[test]
    fn sharded_builder_has_every_content_setter_of_the_unsharded_one() {
        // One builder type: `field` / `user_tag` reach a sharded annotation, and its
        // content equals the oracle's.
        fn annotate<S: WriteSystem>(sys: &mut S) -> AnnotationId {
            sys.annotate()
                .title("site")
                .field("language", "en")
                .user_tag("confidence", "high")
                .mark(ObjectId(2), Marker::interval(10, 20))
                .commit()
                .unwrap()
        }
        let (mut oracle, mut sharded) = parallel_build(3);
        assert_eq!(annotate(&mut oracle), annotate(&mut sharded));
        let study = oracle.study_snapshot();
        let content = &study.annotations.last().unwrap().content;
        assert!(content.fields().any(|(name, _)| name == "language"));
        assert!(content.user_tags().any(|(name, _)| name == "confidence"));
        assert_eq!(sharded.study_snapshot(), study);
    }

    #[test]
    fn study_replay_matches_unsharded_replay() {
        let (oracle, _) = parallel_build(1);
        let study = oracle.study_snapshot();
        let replayed = Graphitti::from_study_snapshot(&study).unwrap();
        for shards in [1, 2, 3] {
            let sharded = ShardedSystem::from_study_snapshot(&study, shards).unwrap();
            assert_eq!(sharded.annotation_count(), replayed.annotation_count());
            assert_eq!(sharded.referent_count(), replayed.referent_count());
            assert_eq!(sharded.object_count(), replayed.object_count());
            assert_eq!(sharded.agraph().node_count(), replayed.agraph().node_count());
            assert_eq!(sharded.agraph().edge_count(), replayed.agraph().edge_count());
            for node in replayed.agraph().nodes() {
                assert_eq!(sharded.agraph().out_edges(node), replayed.agraph().out_edges(node));
            }
            // Each touched shard replayed as one version (ontology broadcast touches
            // every shard, so every shard bumped exactly once).
            for i in 0..shards {
                assert_eq!(sharded.shard(i).epoch(), 1, "shard {i} must replay as one batch");
            }
            assert!(sharded.verify_integrity().is_empty());
        }
    }

    #[test]
    fn cut_is_isolated_from_later_writes() {
        let (_, mut sharded) = parallel_build(2);
        let cut = sharded.capture_cut();
        let (anns, refs) = (cut.annotation_count(), cut.referent_count());
        sharded
            .annotate()
            .comment("late")
            .mark(ObjectId(0), Marker::interval(0, 9))
            .commit()
            .unwrap();
        sharded.register_sequence("late", DataType::DnaSequence, 100, "chr9");
        assert_eq!(cut.annotation_count(), anns, "cut must not observe later commits");
        assert_eq!(cut.referent_count(), refs);
        let newer = sharded.capture_cut();
        assert_eq!(newer.annotation_count(), anns + 1);
        assert!(!newer.same_cut(&cut));
        // No shard in the old cut is ahead of the shard's state at capture time.
        for (i, snap) in cut.shards().iter().enumerate() {
            assert!(snap.epoch() <= sharded.shard(i).epoch());
        }
    }

    #[test]
    fn shard_hash_is_deterministic_and_total() {
        for shards in [1usize, 2, 3, 8, 64] {
            for id in 0..200u64 {
                let s = shard_of(ObjectId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(ObjectId(id), shards), "routing must be deterministic");
            }
        }
    }
}
