//! Study snapshots: a whole system as plain rows, and its rebuild.
//!
//! The demo lets a user view and edit an annotation "as an XML-structured object" before
//! committing, and a study is something you save and reload. This module captures a
//! whole [`Graphitti`] system as a flat [`StudySnapshot`] of plain rows (no graph
//! node ids — those are regenerated) and rebuilds an equivalent system by replaying the
//! registrations and annotations, preserving shared referents so the a-graph connection
//! structure is reproduced exactly.
//!
//! A [`StudySnapshot`] has one serialised form: the rows of a checkpoint
//! ([`crate::codec`]), which is also the study file a user saves and reloads.  It
//! arrives from outside the process, so [`replay_study`] trusts none of its indices — a
//! referent or object index that names no row is a typed error, and so is a referent
//! list that would not rebuild snapshot referent `i` as `ReferentId(i)` — every marker
//! goes through the same checks a live commit's does, and the decoder rebuilds the
//! ontology through its own API after checking every concept id.
//!
//! Not to be confused with [`crate::Snapshot`], the in-memory isolated *read* snapshot
//! the concurrent query service executes against.

use ontology::{ConceptId, Ontology};
use relstore::Value;
use std::sync::Arc;

use crate::annotation::AnnotationSpec;
use crate::marker::Marker;
use crate::referent::ReferentId;
use crate::system::{Graphitti, ObjectId, SystemView};
use crate::types::DataType;
use crate::wal::LogReferent;
use crate::write::WriteSystem;
use crate::{CoreError, Result};
use xmlstore::DublinCore;

/// A registered object, captured for replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectSnapshot {
    /// The object's data type.
    pub data_type: DataType,
    /// Its name / accession.
    pub name: String,
    /// Its coordinate domain / system.
    pub domain: String,
    /// The metadata columns between `name` and `payload`.
    pub metadata: Vec<Value>,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

/// A referent, captured by the object it marks and the marker.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferentSnapshot {
    /// Index into [`StudySnapshot::objects`].
    pub object: usize,
    /// The marker.
    pub marker: Marker,
}

/// An annotation, captured by its content, referent references and cited terms.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationSnapshot {
    /// The Dublin Core content record.
    pub content: DublinCore,
    /// Indices into [`StudySnapshot::referents`] — shared indices encode shared referents.
    pub referents: Vec<usize>,
    /// Cited ontology concept ids.
    pub terms: Vec<ConceptId>,
}

/// What one step of a study's history created: the two kinds of write whose a-graph
/// nodes interleave.  (A referent's node and a term's node are created by the
/// annotation that first names them.)  The discriminant is the durable kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Created {
    /// An object registration.
    Object = 0,
    /// A committed annotation.
    Annotation = 1,
}

/// A complete, serialisable snapshot of a Graphitti study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySnapshot {
    /// Registered objects, in id order.
    pub objects: Vec<ObjectSnapshot>,
    /// Referents, in id order.
    pub referents: Vec<ReferentSnapshot>,
    /// Annotations, in id order.
    pub annotations: Vec<AnnotationSnapshot>,
    /// The ontology store.
    pub ontology: Ontology,
}

impl StudySnapshot {
    /// The creation order a study without one is replayed in: every registration,
    /// then every annotation.  A study that interleaved them rebuilds state-equal,
    /// with its a-graph nodes numbered in this order instead.
    pub fn registrations_first(&self) -> Vec<(Created, usize)> {
        [(Created::Object, self.objects.len()), (Created::Annotation, self.annotations.len())]
            .into_iter()
            .filter(|&(_, count)| count > 0)
            .collect()
    }
}

impl Graphitti {
    /// Capture the current state as a serialisable [`StudySnapshot`].
    pub fn study_snapshot(&self) -> StudySnapshot {
        let objects = object_snapshots(self);

        let referents = self
            .referents()
            .iter()
            .map(|r| ReferentSnapshot { object: r.object.0 as usize, marker: r.marker.clone() })
            .collect();

        let annotations = self
            .annotations()
            .iter()
            .map(|a| AnnotationSnapshot {
                content: DublinCore::clone(&a.content),
                referents: a.referents.iter().map(|r| r.0 as usize).collect(),
                terms: a.terms.to_vec(),
            })
            .collect();

        StudySnapshot { objects, referents, annotations, ontology: self.ontology().clone() }
    }

    /// Rebuild an equivalent system from a snapshot, preserving shared referents; the
    /// rebuilt system publishes as a single version (one epoch bump for the replay).
    pub fn from_study_snapshot(snapshot: &StudySnapshot) -> Result<Graphitti> {
        let mut sys = Graphitti::new();
        replay_study(&mut sys, snapshot.clone(), &snapshot.registrations_first())?;
        Ok(sys)
    }
}

/// Every registered object of `view`, in id order, as its replayable registration.
/// (A sharded system replicates the object registry, so any one shard's view exports
/// them all.)
pub(crate) fn object_snapshots(view: &SystemView) -> Vec<ObjectSnapshot> {
    view.objects()
        .iter()
        .map(|info| ObjectSnapshot {
            data_type: info.data_type,
            name: info.name.to_string(),
            domain: info.domain.to_string(),
            metadata: info.row.to_vec(),
            payload: info.payload.to_vec(),
        })
        .collect()
}

/// Replay a snapshot into an empty system — unsharded or at any shard count — through
/// the one write path a live commit takes: the ontology first, then registrations and
/// annotations interleaved as `order` says (a checkpoint's recorded
/// [`creation_order`](WriteSystem::creation_order), or
/// [`registrations_first`](StudySnapshot::registrations_first)), with referents
/// materialised as they are first named and shared ones reused.  Replayed in the
/// order they were created, the a-graph's nodes and edges get the ids they had, and a
/// sharded replay's global ids and mirror node ids equal an unsharded one's.  The
/// snapshot is consumed: names, metadata, contents and markers move into the system.
/// The whole replay — ontology included — is one [`Batch`](crate::batch::Batch): the
/// rebuilt system publishes as a single version, one epoch bump (per touched shard)
/// instead of one per registration / annotation.
///
/// Every index was read from disk, so none is trusted: one that names no row is a
/// typed error, never a panic, and so is an order whose runs do not add up to the
/// rows.  And replay is the identity on ids — snapshot object `i` is `ObjectId(i)` and
/// snapshot referent `i` is `ReferentId(i)` — or it is an error that names the
/// annotation and the index: each annotation names earlier referents, or the next new
/// one, and every referent is named.  That is the shape every capture has,
/// because a committed annotation creates its new referents in the order it lists
/// them, and a rejected one creates none.
pub(crate) fn replay_study<S: WriteSystem>(
    system: &mut S,
    snapshot: StudySnapshot,
    order: &[(Created, usize)],
) -> Result<()> {
    let StudySnapshot { objects, referents, annotations, ontology } = snapshot;
    let mut batch = system.batch();
    batch.ontology_edit(|o| *o = ontology.clone());

    let dangling = |what: &str, index: usize| {
        CoreError::Durability(format!(
            "study snapshot names {what} {index}, which it does not hold"
        ))
    };
    let uncovered = |what: &str, held: usize, left: usize| {
        CoreError::Durability(format!(
            "study snapshot holds {held} {what}, and its creation order creates {}",
            held - left
        ))
    };
    let (object_count, annotation_count) = (objects.len(), annotations.len());
    let mut objects = objects.into_iter();
    let mut annotations = annotations.into_iter().enumerate();
    let referent_count = referents.len();
    let mut unnamed = referents.into_iter();
    let mut next = 0; // the snapshot referent the next new mark materialises
    let kinds = order.iter().flat_map(|&(kind, count)| std::iter::repeat_n(kind, count));
    for kind in kinds {
        let (a, ann) = match kind {
            Created::Object => {
                let obj = objects.next().ok_or_else(|| dangling("object", object_count))?;
                let payload = Arc::from(obj.payload);
                batch.register_object(
                    obj.data_type,
                    obj.name,
                    obj.metadata,
                    payload,
                    obj.domain,
                )?;
                continue;
            }
            Created::Annotation => {
                annotations.next().ok_or_else(|| dangling("annotation", annotation_count))?
            }
        };
        let registered = object_count - objects.len();
        let first_new = next;
        let mut pending = Vec::with_capacity(ann.referents.len());
        for index in ann.referents {
            if index >= referent_count {
                return Err(dangling("referent", index));
            }
            if index < first_new {
                pending.push(LogReferent::Existing(ReferentId(index as u64)));
            } else if index == next {
                let snap = unnamed.next().ok_or_else(|| dangling("referent", index))?;
                if snap.object >= object_count {
                    return Err(dangling("object", snap.object));
                }
                if snap.object >= registered {
                    return Err(CoreError::Durability(format!(
                        "study snapshot annotation {a} marks object {}, which its creation \
                         order registers later",
                        snap.object
                    )));
                }
                let object = ObjectId(snap.object as u64);
                pending.push(LogReferent::New { object, marker: snap.marker });
                next += 1;
            } else {
                return Err(CoreError::Durability(format!(
                    "study snapshot annotation {a} names referent {index} where the next new \
                     referent is {next}: replay would not rebuild it as ReferentId({index})"
                )));
            }
        }
        let spec = AnnotationSpec { content: ann.content, referents: pending, terms: ann.terms };
        batch.commit_annotation(spec)?;
    }
    if objects.len() > 0 {
        return Err(uncovered("objects", object_count, objects.len()));
    }
    if annotations.len() > 0 {
        return Err(uncovered("annotations", annotation_count, annotations.len()));
    }
    if next < referent_count {
        return Err(CoreError::Durability(format!(
            "study snapshot holds referent {next}, which no annotation names"
        )));
    }
    batch.commit();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotationId;
    use crate::wal::{Checkpoint, MemStorage, WalStorage};
    use ontology::RelationType;
    use spatial_index::Rect;

    fn sample_system() -> Graphitti {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("seg4", DataType::DnaSequence, 2_000, "chr-flu");
        let img = sys.register_image("brain", 512, 512, "confocal", "cs25");
        let term = sys.ontology_mut().add_concept("Protease");

        let a1 = sys
            .annotate()
            .title("cleavage")
            .comment("polybasic protease cleavage site")
            .creator("condit")
            .mark(seq, Marker::interval(1_000, 1_050))
            .cite_term(term)
            .commit()
            .unwrap();
        // a2 shares a1's referent
        let shared = sys.annotation(a1).unwrap().referents[0];
        sys.annotate()
            .comment("second opinion")
            .creator("gupta")
            .mark_existing(shared)
            .commit()
            .unwrap();
        sys.annotate()
            .comment("region of interest")
            .creator("martone")
            .mark(img, Marker::region(10.0, 10.0, 60.0, 60.0))
            .commit()
            .unwrap();
        sys
    }

    #[test]
    fn snapshot_captures_counts() {
        let sys = sample_system();
        let snap = sys.study_snapshot();
        assert_eq!(snap.objects.len(), 2);
        assert_eq!(snap.annotations.len(), 3);
        assert_eq!(snap.referents.len(), sys.referent_count());
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let sys = sample_system();
        let snap = sys.study_snapshot();
        let rebuilt = Graphitti::from_study_snapshot(&snap).unwrap();
        assert_eq!(rebuilt.object_count(), sys.object_count());
        assert_eq!(rebuilt.annotation_count(), sys.annotation_count());
        assert_eq!(rebuilt.referent_count(), sys.referent_count());
        // shared referent preserved: a0 and a1 remain related
        assert_eq!(rebuilt.related_annotations(AnnotationId(0)), vec![AnnotationId(1)]);
        assert_eq!(rebuilt.study_snapshot(), snap);
    }

    #[test]
    fn roundtrip_preserves_queryability() {
        let sys = sample_system();
        let rebuilt = Graphitti::from_study_snapshot(&sys.study_snapshot()).unwrap();
        // the protease annotation is still findable by content
        assert_eq!(rebuilt.content_store().containing_phrase("protease cleavage").len(), 1);
        // the image region is still in the R-tree
        let hits =
            rebuilt.overlapping_regions("cs25", spatial_index::Rect::rect2(20.0, 20.0, 30.0, 30.0));
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn replay_takes_exactly_one_epoch() {
        // The whole rebuild — ontology assignment included — is one CommitBatch, so
        // a rebuilt system sits at epoch 1 regardless of how much it replays.
        // (Downstream epoch-keyed caches rely on rebuilt systems restarting low.)
        let rebuilt = Graphitti::from_study_snapshot(&sample_system().study_snapshot()).unwrap();
        assert_eq!(rebuilt.epoch(), 1);
    }

    #[test]
    fn empty_system_snapshot() {
        let sys = Graphitti::new();
        let snap = sys.study_snapshot();
        assert!(snap.objects.is_empty());
        let rebuilt = Graphitti::from_study_snapshot(&snap).unwrap();
        assert_eq!(rebuilt.object_count(), 0);
    }

    /// Every marker kind, every relation type (an empty `Named` too), two concepts of
    /// one name, an instance on a concept that is not the last, and integers no `f64`
    /// holds.
    fn every_kind_system() -> Graphitti {
        let mut sys = Graphitti::new();
        let seq = sys.register_sequence("seg4", DataType::DnaSequence, 2_000, "chr-flu");
        let img = sys.register_image("brain", 512, 512, "confocal", "cs25");
        let model_row = vec![Value::Int(i64::MAX), Value::Null, Value::text("cs3")];
        let model = sys.register_object(
            DataType::ProteinModel,
            "ns3",
            model_row,
            Arc::from([0xde, 0xff]),
            "cs3",
        );
        let rows_row = vec![Value::text("strains"), Value::Int(i64::MIN)];
        let rows =
            sys.register_object(DataType::RelationalRecord, "rows", rows_row, Arc::default(), "db");
        let ontology = sys.ontology_mut();
        let enzyme = ontology.add_concept("Enzyme");
        let protease = ontology.add_concept("Protease");
        let twin = ontology.add_concept("Protease");
        for (child, relation) in [
            (protease, RelationType::IsA),
            (twin, RelationType::PartOf),
            (protease, RelationType::DevelopsFrom),
            (twin, RelationType::Regulates),
            (enzyme, RelationType::Named(String::new())),
        ] {
            ontology.add_relation(enzyme, child, relation);
        }
        ontology.add_instance(protease, "NS3");
        sys.annotate()
            .title("cleavage")
            .mark(seq, Marker::interval(1_000, 1_050))
            .mark(img, Marker::region(10.0, 2.5, 60.0, 60.0))
            .mark(model.unwrap(), Marker::Volume(Rect::new([0.0, 0.0, -1.0], [1.0, 1.0, 0.0])))
            .mark(rows.unwrap(), Marker::block_set([(1 << 53) + 1, u64::MAX - 1]))
            .cite_term(protease)
            .commit()
            .unwrap();
        sys
    }

    #[test]
    fn every_kind_of_row_reloads_from_its_checkpoint_to_equal_rows() {
        let sys = every_kind_system();
        let mut storage = MemStorage::new();
        let blob = Checkpoint::capture(&sys, 1).encode();
        storage.write_checkpoint(&blob).unwrap();
        let (rebuilt, _) = crate::recover_unsharded(&storage).unwrap();
        assert_eq!(rebuilt.study_snapshot(), sys.study_snapshot());
        assert_eq!(Checkpoint::capture(&rebuilt, 1).encode(), blob);
        // The derived half of the ontology was rebuilt, not read: the instance hangs
        // off the earlier of the twins.
        let (was, is) = (sys.ontology(), rebuilt.ontology());
        assert_eq!(is.concept_name(ConceptId(2)), Some("Protease"));
        for concept in (0..3).map(ConceptId) {
            assert_eq!(is.direct_instances(concept), was.direct_instances(concept));
        }
    }
}
