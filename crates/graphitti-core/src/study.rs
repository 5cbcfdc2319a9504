//! Study snapshot export / import (serialisation).
//!
//! The demo lets a user view and edit an annotation "as an XML-structured object" before
//! committing, and a study is something you save and reload. This module serialises a
//! whole [`Graphitti`] system to a flat, `serde`-friendly [`StudySnapshot`] (no graph
//! node ids — those are regenerated) and rebuilds an equivalent system by replaying the
//! registrations and annotations, preserving shared referents so the a-graph connection
//! structure is reproduced exactly.
//!
//! A [`StudySnapshot`] has two serialised forms: the JSON export / import here
//! (`serde`, for people and other tools), and the binary rows of a checkpoint
//! ([`crate::codec`], for recovery).  Either way it arrives from outside the process,
//! so [`replay_study`] trusts none of its indices — a referent or object index that
//! names no row is a typed error — and every marker goes through the same
//! `add_referent` checks a live commit's does.
//!
//! Not to be confused with [`crate::Snapshot`], the in-memory isolated *read* snapshot
//! the concurrent query service executes against.

use ontology::{ConceptId, Ontology};
use relstore::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use crate::marker::Marker;
use crate::referent::ReferentId;
use crate::system::{Graphitti, ObjectId, SystemView};
use crate::types::DataType;
use crate::write::WriteSystem;
use crate::{CoreError, Result};
use xmlstore::DublinCore;

/// A registered object, captured for replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReferentSnapshot {
    /// Index into [`StudySnapshot::objects`].
    pub object: usize,
    /// The marker.
    pub marker: Marker,
}

/// An annotation, captured by its content, referent references and cited terms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnotationSnapshot {
    /// The Dublin Core content record.
    pub content: DublinCore,
    /// Indices into [`StudySnapshot::referents`] — shared indices encode shared referents.
    pub referents: Vec<usize>,
    /// Cited ontology concept ids.
    pub terms: Vec<ConceptId>,
}

/// A complete, serialisable snapshot of a Graphitti study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde::to_string_pretty(self)
    }

    /// Parse from JSON.
    pub fn from_json(json: &str) -> std::result::Result<StudySnapshot, serde::DeError> {
        serde::from_str(json)
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
                content: a.content.clone(),
                referents: a.referents.iter().map(|r| r.0 as usize).collect(),
                terms: a.terms.clone(),
            })
            .collect();

        StudySnapshot { objects, referents, annotations, ontology: self.ontology().clone() }
    }

    /// Rebuild an equivalent system from a snapshot, preserving shared referents; the
    /// rebuilt system publishes as a single version (one epoch bump for the replay).
    pub fn from_study_snapshot(snapshot: &StudySnapshot) -> Result<Graphitti> {
        let mut sys = Graphitti::new();
        replay_study(&mut sys, snapshot)?;
        Ok(sys)
    }

    /// Export the system directly to JSON.
    pub fn to_json(&self) -> String {
        self.study_snapshot().to_json()
    }

    /// Rebuild a system from JSON.
    pub fn from_json(json: &str) -> std::result::Result<Graphitti, String> {
        let snapshot = StudySnapshot::from_json(json).map_err(|e| e.to_string())?;
        Graphitti::from_study_snapshot(&snapshot).map_err(|e| e.to_string())
    }
}

/// Every registered object of `view`, in id order, as its replayable registration.
/// (A sharded system replicates the catalog, so any one shard's view exports them all.)
pub(crate) fn object_snapshots(view: &SystemView) -> Vec<ObjectSnapshot> {
    view.objects()
        .iter()
        .map(|info| {
            let (metadata, payload) =
                view.object_metadata(info.id).unwrap_or_else(|| (Vec::new(), Arc::default()));
            ObjectSnapshot {
                data_type: info.data_type,
                name: info.name.clone(),
                domain: info.domain.clone(),
                metadata,
                payload: payload.to_vec(),
            }
        })
        .collect()
}

/// Replay a snapshot into an empty system — unsharded or at any shard count — in the
/// one order both rebuild in (the ontology, then every registration, then the
/// annotations with referents materialised lazily and shared ones reused), so the
/// (global) ids and a-graph node ids of a sharded replay equal an unsharded one's.
/// The whole replay — ontology included — is one [`Batch`](crate::batch::Batch): the
/// rebuilt system publishes as a single version, one epoch bump (per touched shard)
/// instead of one per registration / annotation.
pub(crate) fn replay_study<S: WriteSystem>(system: &mut S, snapshot: &StudySnapshot) -> Result<()> {
    let mut batch = system.batch();
    batch.ontology_edit(|o| *o = snapshot.ontology.clone());

    // 1. register objects, mapping snapshot index -> new ObjectId.
    let mut object_map: Vec<ObjectId> = Vec::with_capacity(snapshot.objects.len());
    for obj in &snapshot.objects {
        let id = batch.register_object(
            obj.data_type,
            obj.name.clone(),
            obj.metadata.clone(),
            Arc::from(obj.payload.as_slice()),
            obj.domain.clone(),
        )?;
        object_map.push(id);
    }

    // 2. replay annotations in order, materialising referents lazily and reusing
    //    shared ones.  Every index below was read from disk or from imported JSON: one
    //    that names no row is a typed error, never a panic.
    let dangling = |what: &str, index: usize| {
        CoreError::Durability(format!(
            "study snapshot names {what} {index}, which it does not hold"
        ))
    };
    let mut referent_map: Vec<Option<ReferentId>> = vec![None; snapshot.referents.len()];
    for ann in &snapshot.annotations {
        let mut builder = batch.annotate().with_content(ann.content.clone());
        for &ref_idx in &ann.referents {
            let snap =
                snapshot.referents.get(ref_idx).ok_or_else(|| dangling("referent", ref_idx))?;
            builder = match referent_map.get(ref_idx).copied().flatten() {
                Some(rid) => builder.mark_existing(rid),
                None => {
                    let object = object_map
                        .get(snap.object)
                        .ok_or_else(|| dangling("object", snap.object))?;
                    builder.mark(*object, snap.marker.clone())
                }
            };
        }
        for &term in &ann.terms {
            builder = builder.cite_term(term);
        }
        let aid = builder.commit()?;

        // Record the freshly created referents for later sharing.  The committed list
        // is in mark order (deduped), matching `ann.referents` order.
        let committed = batch.annotation_referents(aid).unwrap_or_default();
        for (pos, &ref_idx) in ann.referents.iter().enumerate() {
            if let Some(slot @ None) = referent_map.get_mut(ref_idx) {
                *slot = committed.get(pos).copied();
            }
        }
    }
    batch.commit();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotation::AnnotationId;

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
    fn json_roundtrip() {
        let sys = sample_system();
        let json = sys.to_json();
        assert!(json.contains("Protease") || json.contains("protease"));
        let rebuilt = Graphitti::from_json(&json).unwrap();
        assert_eq!(rebuilt.annotation_count(), 3);
        // snapshot of the rebuilt system equals the original snapshot
        assert_eq!(rebuilt.study_snapshot(), sys.study_snapshot());
    }

    #[test]
    fn empty_system_snapshot() {
        let sys = Graphitti::new();
        let snap = sys.study_snapshot();
        assert!(snap.objects.is_empty());
        let rebuilt = Graphitti::from_study_snapshot(&snap).unwrap();
        assert_eq!(rebuilt.object_count(), 0);
    }

    #[test]
    fn bad_json_errors() {
        assert!(Graphitti::from_json("{not valid").is_err());
    }
}
