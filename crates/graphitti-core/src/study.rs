//! Study snapshot export / import (serialisation).
//!
//! The demo lets a user view and edit an annotation "as an XML-structured object" before
//! committing, and a study is something you save and reload. This module serialises a
//! whole [`Graphitti`] system to a flat [`StudySnapshot`] of plain rows (no graph
//! node ids — those are regenerated) and rebuilds an equivalent system by replaying the
//! registrations and annotations, preserving shared referents so the a-graph connection
//! structure is reproduced exactly.
//!
//! A [`StudySnapshot`] has two serialised forms: the JSON export / import here
//! (the `put_*` / `read_*` pairs at the end of this file, over [`jsonlite::Json`], for
//! people and other tools — layout in ARCHITECTURE "JSON export"), and the binary rows
//! of a checkpoint ([`crate::codec`], for recovery).  Either way it arrives from
//! outside the process, so [`replay_study`] trusts none of its indices — a referent or
//! object index that names no row is a typed error, and so is a referent list that
//! would not rebuild snapshot referent `i` as `ReferentId(i)` — every marker goes
//! through the same checks a live commit's does, and both decoders rebuild the
//! ontology through its own API after checking every concept id.
//!
//! Not to be confused with [`crate::Snapshot`], the in-memory isolated *read* snapshot
//! the concurrent query service executes against.

use interval_index::Interval;
use jsonlite::Json;
use ontology::{ConceptId, InstanceId, Ontology, RelationType};
use relstore::Value;
use spatial_index::Rect;
use std::sync::Arc;

use crate::annotation::AnnotationSpec;
use crate::marker::Marker;
use crate::referent::ReferentId;
use crate::system::{Graphitti, ObjectId, SystemView};
use crate::types::DataType;
use crate::wal::LogReferent;
use crate::write::WriteSystem;
use crate::{CoreError, Result};
use xmlstore::{DublinCore, Entry};

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

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        let referent = |r: &ReferentSnapshot| {
            Json::obj([("object", Json::u64(r.object as u64)), ("marker", put_marker(&r.marker))])
        };
        let annotation = |a: &AnnotationSnapshot| {
            Json::obj([
                (
                    "content",
                    Json::obj([
                        ("fields", put_pairs(a.content.fields())),
                        ("user_tags", put_pairs(a.content.user_tags())),
                    ]),
                ),
                ("referents", Json::arr(&a.referents, |&r| Json::u64(r as u64))),
                ("terms", Json::arr(&a.terms, |t| Json::u64(t.0.into()))),
            ])
        };
        Json::obj([
            ("objects", Json::arr(&self.objects, put_object)),
            ("referents", Json::arr(&self.referents, referent)),
            ("annotations", Json::arr(&self.annotations, annotation)),
            ("ontology", put_ontology(&self.ontology)),
        ])
        .pretty()
    }

    /// Parse from JSON.  Unknown keys are ignored; a missing or mistyped one is a
    /// typed error that names it.
    pub fn from_json(json: &str) -> Result<StudySnapshot> {
        let doc = Json::parse(json).map_err(bad)?;
        let referent = |v: &Json| {
            Ok(ReferentSnapshot {
                object: int(key(v, "object")?, "object")?,
                marker: read_marker(key(v, "marker")?)?,
            })
        };
        let annotation = |v: &Json| {
            let content = key(v, "content")?;
            let fields = read_pairs(key(content, "fields")?, "fields")?;
            let tags = read_pairs(key(content, "user_tags")?, "user_tags")?;
            let fields = fields.iter().map(|(name, value)| Entry::field(name, value));
            let tags = tags.iter().map(|(name, value)| Entry::Tag(name, value));
            let entries: Vec<Entry<'_>> = fields.chain(tags).collect();
            Ok(AnnotationSnapshot {
                content: DublinCore::from_entries(&entries, &mut String::new()),
                referents: list(key(v, "referents")?, "referents", |r| int(r, "referent index"))?,
                terms: list(key(v, "terms")?, "terms", |t| int(t, "term id").map(ConceptId))?,
            })
        };
        Ok(StudySnapshot {
            objects: list(key(&doc, "objects")?, "objects", read_object)?,
            referents: list(key(&doc, "referents")?, "referents", referent)?,
            annotations: list(key(&doc, "annotations")?, "annotations", annotation)?,
            ontology: read_ontology(key(&doc, "ontology")?)?,
        })
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

    /// Export the system directly to JSON.
    pub fn to_json(&self) -> String {
        self.study_snapshot().to_json()
    }

    /// Rebuild a system from JSON.
    pub fn from_json(json: &str) -> std::result::Result<Graphitti, String> {
        let mut sys = Graphitti::new();
        StudySnapshot::from_json(json)
            .and_then(|snapshot| {
                let order = snapshot.registrations_first();
                replay_study(&mut sys, snapshot, &order)
            })
            .map_err(|e| e.to_string())?;
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
/// Every index was read from disk or from imported JSON, so none is trusted: one that
/// names no row is a typed error, never a panic, and so is an order whose runs do not
/// add up to the rows.  And replay is the identity on ids — snapshot object `i` is
/// `ObjectId(i)` and snapshot referent `i` is `ReferentId(i)` — or it is an error that
/// names the annotation and the index: each annotation names earlier referents, or the
/// next new one, and every referent is named.  That is the shape every export has,
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

// --- the JSON layout ----------------------------------------------------------
//
// Structs are objects keyed by field name, enums are externally tagged (`"Null"`,
// `{"Int": 100}`), ids and counts are exact integers, a float JSON cannot spell
// (NaN, ±∞) is `null` and reads back as NaN.  One `put_*` / `read_*` pair per type,
// beside `codec.rs`'s pairs over the same rows.

fn bad(detail: impl std::fmt::Display) -> CoreError {
    CoreError::Durability(format!("study JSON does not decode: {detail}"))
}

fn mistyped(v: &Json, what: &str, expected: &str) -> CoreError {
    // The head of the offending value is enough to find it; it may be the whole study.
    let mut got = v.compact();
    if let Some((cut, _)) = got.char_indices().nth(60) {
        got.truncate(cut);
        got.push('…');
    }
    bad(format!("{what}: expected {expected}, got {got}"))
}

/// The value under `name` in object `v`.
fn key<'a>(v: &'a Json, name: &str) -> Result<&'a Json> {
    v.get(name).ok_or_else(|| bad(format!("missing key {name:?}")))
}

/// An exact integer that `T` holds.
fn int<T: TryFrom<i128>>(v: &Json, what: &str) -> Result<T> {
    let held = match v {
        Json::Int(i) => T::try_from(*i).ok(),
        _ => None,
    };
    held.ok_or_else(|| mistyped(v, what, "an integer in range"))
}

fn float(v: &Json, what: &str) -> Result<f64> {
    if v.is_null() {
        return Ok(f64::NAN);
    }
    v.as_f64().ok_or_else(|| mistyped(v, what, "a number"))
}

fn text(v: &Json, what: &str) -> Result<String> {
    v.as_str().map(str::to_string).ok_or_else(|| mistyped(v, what, "a string"))
}

fn items<'a>(v: &'a Json, what: &str) -> Result<&'a [Json]> {
    v.as_arr().ok_or_else(|| mistyped(v, what, "an array"))
}

fn list<T>(v: &Json, what: &str, read: impl Fn(&Json) -> Result<T>) -> Result<Vec<T>> {
    items(v, what)?.iter().map(read).collect()
}

fn tagged(tag: &'static str, payload: Json) -> Json {
    Json::obj([(tag, payload)])
}

/// An externally tagged enum value: `"Tag"` (no payload) or `{"Tag": payload}`.
fn variant<'a>(v: &'a Json, what: &str) -> Result<(&'a str, &'a Json)> {
    static NO_PAYLOAD: Json = Json::Null;
    match v {
        Json::Str(tag) => Ok((tag, &NO_PAYLOAD)),
        Json::Obj(pairs) => match pairs.as_slice() {
            [(tag, payload)] => Ok((tag, payload)),
            _ => Err(mistyped(v, what, "one variant")),
        },
        _ => Err(mistyped(v, what, "a variant")),
    }
}

fn put_bytes(bytes: &[u8]) -> Json {
    Json::arr(bytes, |&b| Json::u64(b.into()))
}

fn read_bytes(v: &Json, what: &str) -> Result<Vec<u8>> {
    list(v, what, |b| int(b, what))
}

fn put_object(o: &ObjectSnapshot) -> Json {
    let value = |value: &Value| match value {
        Value::Null => Json::str("Null"),
        Value::Int(i) => tagged("Int", Json::Int((*i).into())),
        Value::Float(f) => tagged("Float", Json::Num(*f)),
        Value::Text(t) => tagged("Text", Json::str(t)),
        Value::Bool(b) => tagged("Bool", Json::Bool(*b)),
        Value::Blob(b) => tagged("Blob", put_bytes(b)),
    };
    Json::obj([
        // A data type is spelled as its variant name, which is what `Debug` prints.
        ("data_type", Json::str(format!("{:?}", o.data_type))),
        ("name", Json::str(&o.name)),
        ("domain", Json::str(&o.domain)),
        ("metadata", Json::arr(&o.metadata, value)),
        ("payload", put_bytes(&o.payload)),
    ])
}

fn read_object(v: &Json) -> Result<ObjectSnapshot> {
    let spelled = key(v, "data_type")?;
    let data_type = DataType::ALL
        .into_iter()
        .find(|t| spelled.as_str() == Some(&format!("{t:?}")))
        .ok_or_else(|| mistyped(spelled, "data_type", "a data type"))?;
    let value = |v: &Json| {
        Ok(match variant(v, "metadata value")? {
            ("Null", _) => Value::Null,
            ("Int", i) => Value::Int(int(i, "Int")?),
            ("Float", f) => Value::Float(float(f, "Float")?),
            ("Text", t) => Value::Text(text(t, "Text")?),
            ("Bool", b) => Value::Bool(b.as_bool().ok_or_else(|| mistyped(b, "Bool", "a bool"))?),
            ("Blob", b) => Value::blob(read_bytes(b, "Blob")?),
            _ => return Err(mistyped(v, "metadata value", "a value variant")),
        })
    };
    Ok(ObjectSnapshot {
        data_type,
        name: text(key(v, "name")?, "name")?,
        domain: text(key(v, "domain")?, "domain")?,
        metadata: list(key(v, "metadata")?, "metadata", value)?,
        payload: read_bytes(key(v, "payload")?, "payload")?,
    })
}

fn put_marker(marker: &Marker) -> Json {
    let rect = |r: &Rect| {
        Json::obj([("min", Json::arr(r.min, Json::Num)), ("max", Json::arr(r.max, Json::Num))])
    };
    match marker {
        Marker::Interval(iv) => tagged(
            "Interval",
            Json::obj([("start", Json::u64(iv.start)), ("end", Json::u64(iv.end))]),
        ),
        Marker::Region(r) => tagged("Region", rect(r)),
        Marker::Volume(r) => tagged("Volume", rect(r)),
        Marker::BlockSet(ids) => tagged("BlockSet", Json::arr(ids.iter(), |&id| Json::u64(id))),
    }
}

fn read_rect(v: &Json) -> Result<Rect> {
    let corner = |name: &str| {
        let corner = list(key(v, name)?, name, |c| float(c, "rect coordinate"))?;
        <[f64; 3]>::try_from(corner).map_err(|_| bad(format!("{name}: expected 3 coordinates")))
    };
    Ok(Rect { min: corner("min")?, max: corner("max")? })
}

/// A marker as spelled — its invariants are `add_referent`'s to check, at replay.
fn read_marker(v: &Json) -> Result<Marker> {
    Ok(match variant(v, "marker")? {
        ("Interval", iv) => Marker::Interval(Interval {
            start: int(key(iv, "start")?, "start")?,
            end: int(key(iv, "end")?, "end")?,
        }),
        ("Region", r) => Marker::Region(read_rect(r)?),
        ("Volume", r) => Marker::Volume(read_rect(r)?),
        ("BlockSet", ids) => {
            Marker::BlockSet(list(ids, "BlockSet", |id| int(id, "block id"))?.into())
        }
        _ => return Err(mistyped(v, "marker", "a marker variant")),
    })
}

fn put_pairs<'a>(pairs: impl Iterator<Item = (&'a str, &'a str)>) -> Json {
    Json::Arr(pairs.map(|(key, value)| Json::Arr(vec![Json::str(key), Json::str(value)])).collect())
}

fn read_pairs(v: &Json, what: &str) -> Result<Vec<(String, String)>> {
    list(v, what, |pair| match items(pair, what)? {
        [key, value] => Ok((text(key, what)?, text(value, what)?)),
        _ => Err(mistyped(pair, what, "a [key, value] pair")),
    })
}

/// The ontology through its public API, as `codec.rs` stores it: every concept's name
/// and outgoing `[child, relation]` list, then `{concept, name}` per instance in id
/// order.  The name index and the per-concept instance lists are derived, not stored.
fn put_ontology(ontology: &Ontology) -> Json {
    let relation = |relation: RelationType| match relation {
        RelationType::Named(name) => tagged("Named", Json::str(name)),
        // The four built-in relations are unit variants, spelled as `Debug` prints them.
        builtin => Json::str(format!("{builtin:?}")),
    };
    let concept = |concept: ConceptId| {
        Json::obj([
            ("name", Json::str(ontology.concept_name(concept).unwrap_or_default())),
            (
                "children",
                Json::arr(ontology.children(concept), |(child, r)| {
                    Json::Arr(vec![Json::u64(child.0.into()), relation(r)])
                }),
            ),
        ])
    };
    let instance = |instance: InstanceId| {
        Json::obj([
            ("concept", Json::u64(ontology.instance_concept(instance).map_or(0, |c| c.0.into()))),
            ("name", Json::str(ontology.instance_name(instance).unwrap_or_default())),
        ])
    };
    Json::obj([
        ("concepts", Json::arr((0..ontology.concept_count() as u32).map(ConceptId), concept)),
        ("instances", Json::arr((0..ontology.instance_count() as u32).map(InstanceId), instance)),
    ])
}

fn read_ontology(v: &Json) -> Result<Ontology> {
    let mut ontology = Ontology::new();
    let concepts = items(key(v, "concepts")?, "concepts")?;
    // Concept ids are `u32`, and `add_relation` / `add_instance` panic on an unknown
    // one: both are checked here, where the ids arrive.
    let count = u32::try_from(concepts.len()).map_err(|_| bad("concept count out of range"))?;
    let concept = |v: &Json, what: &str| match int::<u32>(v, what)? {
        id if id < count => Ok(ConceptId(id)),
        id => Err(bad(format!("{what} {id} names no concept"))),
    };
    for node in concepts {
        ontology.add_concept(text(key(node, "name")?, "concept name")?);
    }
    for (parent, node) in (0..count).map(ConceptId).zip(concepts) {
        for edge in items(key(node, "children")?, "children")? {
            let [child, relation] = items(edge, "children")? else {
                return Err(mistyped(edge, "children", "a [child, relation] pair"));
            };
            let relation = match variant(relation, "relation")? {
                ("IsA", _) => RelationType::IsA,
                ("PartOf", _) => RelationType::PartOf,
                ("DevelopsFrom", _) => RelationType::DevelopsFrom,
                ("Regulates", _) => RelationType::Regulates,
                ("Named", name) => RelationType::Named(text(name, "Named")?),
                _ => return Err(mistyped(relation, "relation", "a relation variant")),
            };
            ontology.add_relation(parent, concept(child, "related concept")?, relation);
        }
    }
    for instance in items(key(v, "instances")?, "instances")? {
        let of = concept(key(instance, "concept")?, "instance concept")?;
        ontology.add_instance(of, text(key(instance, "name")?, "instance name")?);
    }
    Ok(ontology)
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

    /// Every marker kind, every relation type (an empty `Named` too), two concepts of
    /// one name, an instance on a concept that is not the last, and integers no `f64`
    /// holds.
    fn golden_system() -> Graphitti {
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

    /// The layout, pinned — compact here, `pretty` as exported.
    const GOLDEN: &str = concat!(
        r#"{"objects":[{"data_type":"DnaSequence","name":"seg4","domain":"chr-flu","metadata":"#,
        r#"[{"Int":2000},{"Text":"unknown"},{"Float":0.5},{"Text":"chr-flu"}],"payload":[]},"#,
        r#"{"data_type":"Image","name":"brain","domain":"cs25","metadata":"#,
        r#"[{"Int":512},{"Int":512},{"Text":"confocal"},{"Text":"cs25"}],"payload":[]},"#,
        r#"{"data_type":"ProteinModel","name":"ns3","domain":"cs3","metadata":"#,
        r#"[{"Int":9223372036854775807},"Null",{"Text":"cs3"}],"payload":[222,255]},"#,
        r#"{"data_type":"RelationalRecord","name":"rows","domain":"db","metadata":"#,
        r#"[{"Text":"strains"},{"Int":-9223372036854775808}],"payload":[]}],"#,
        r#""referents":[{"object":0,"marker":{"Interval":{"start":1000,"end":1050}}},"#,
        r#"{"object":1,"marker":{"Region":{"min":[10,2.5,0],"max":[60,60,0]}}},"#,
        r#"{"object":2,"marker":{"Volume":{"min":[0,0,-1],"max":[1,1,0]}}},"#,
        r#"{"object":3,"marker":{"BlockSet":[9007199254740993,18446744073709551614]}}],"#,
        r#""annotations":[{"content":{"fields":[["title","cleavage"]],"user_tags":[]},"#,
        r#""referents":[0,1,2,3],"terms":[1]}],"#,
        r#""ontology":{"concepts":[{"name":"Enzyme","children":[[1,"IsA"],[2,"PartOf"],"#,
        r#"[1,"DevelopsFrom"],[2,"Regulates"],[0,{"Named":""}]]},"#,
        r#"{"name":"Protease","children":[]},{"name":"Protease","children":[]}],"#,
        r#""instances":[{"concept":1,"name":"NS3"}]}}"#,
    );

    #[test]
    fn the_export_equals_its_golden_text_and_reimports_to_a_fixed_point() {
        let sys = golden_system();
        let text = sys.to_json();
        assert_eq!(Json::parse(&text).unwrap().compact(), GOLDEN);
        let rebuilt = Graphitti::from_json(&text).unwrap();
        assert_eq!(rebuilt.to_json(), text);
        assert_eq!(rebuilt.study_snapshot(), sys.study_snapshot());
        // The derived half of the ontology was rebuilt, not read: the instance hangs
        // off the earlier of the twins.
        let (was, is) = (sys.ontology(), rebuilt.ontology());
        assert_eq!(is.concept_name(ConceptId(2)), Some("Protease"));
        for concept in (0..3).map(ConceptId) {
            assert_eq!(is.direct_instances(concept), was.direct_instances(concept));
        }

        // Values no relational schema admits still round-trip as rows, and a float JSON
        // cannot spell goes out as `null` and comes back NaN.
        let mut rows = sys.study_snapshot();
        rows.objects[0].metadata =
            vec![Value::Bool(true), Value::blob([]), Value::blob([0, 255]), Value::Float(-12.5)];
        let text = rows.to_json();
        assert!(Json::parse(&text).unwrap().compact().contains(
            r#""metadata":[{"Bool":true},{"Blob":[]},{"Blob":[0,255]},{"Float":-12.5}]"#
        ));
        assert_eq!(StudySnapshot::from_json(&text).unwrap(), rows);
        rows.objects[0].metadata = vec![Value::Float(f64::NEG_INFINITY)];
        let text = rows.to_json();
        assert!(text.contains("\"Float\": null"));
        let back = StudySnapshot::from_json(&text).unwrap();
        assert!(matches!(back.objects[0].metadata[..], [Value::Float(f)] if f.is_nan()));
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn bad_json_is_a_typed_error_that_names_the_key() {
        let text = golden_system().to_json();
        for (edited, names) in [
            ("{not valid".to_string(), "JSON error at byte 1"),
            ("[".repeat(2_000_000), "nested too deeply"),
            (text.replacen("\"domain\"", "\"extra\"", 1), "missing key \"domain\""),
            (text.replacen("\"DnaSequence\"", "\"Dna\"", 1), "data_type: expected a data type"),
            (text.replacen("9007199254740993", "18446744073709551616", 1), "block id: expected"),
            (text.replacen("9007199254740993", "7.5", 1), "block id: expected"),
            (text.replacen("9223372036854775807", "9223372036854775808", 1), "Int: expected"),
            (text.replacen("\"IsA\"", "\"Isa\"", 1), "relation: expected"),
        ] {
            let err = Graphitti::from_json(&edited).expect_err(names);
            assert!(err.contains("study JSON does not decode") && err.contains(names), "{err}");
        }
        // An unknown key is ignored.
        let annotated = text.replacen('{', "{\"comment\": [1, {}],", 1);
        assert_eq!(Graphitti::from_json(&annotated).unwrap().to_json(), text);
    }
}
