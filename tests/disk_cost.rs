//! What a curator's annotation costs to keep: bytes on disk per byte supplied.
//!
//! `BENCHMARK.json`'s `disk_bytes_per_user_byte` is this number end to end; here it is
//! a ratchet in tier-1.  For one seeded `datagen` corpus the framed checkpoint — the
//! canonical varint codec of `graphitti_core::codec` — must stay under a literal
//! ceiling, last measured when Dublin Core elements became codes and planar regions
//! four coordinates, and under 1.15 × the bytes the user supplied; a one-mark
//! annotation's WAL record must stay under its own ceiling, for an interval and for a
//! planar region.
//! On disk, appending the records of 2 000 benchmark-sized commits through
//! `FileStorage` may change `wal.log`'s length once per 64 KiB extent and no more,
//! and the closed file holds exactly the bytes appended.
//! The counts are byte lengths of deterministic encodings, so they repeat exactly.
//! **The ceilings only ever move down**: a change that needs to raise one has made
//! annotations more expensive to keep, and says so in its issue.

use graphitti::core::wal::{batch_dirty, LOG_EXTENT};
use graphitti::core::{
    Checkpoint, FileStorage, LogOp, LogReferent, Marker, ObjectId, StudySnapshot, WalRecord,
    WalStorage,
};
use graphitti::relational::Value;
use graphitti::workloads::unified::{self, UnifiedConfig};
use graphitti::xml::DublinCore;

/// Bytes the user supplied, by `benchmark/src/gen.rs`'s definition restated over a
/// snapshot's rows: object names and text metadata (the coordinate domain is one of
/// those columns), Dublin Core and user-tag values, 8 per marker coordinate — 16 per
/// interval, 32 per 2-D region, 48 per volume, 8 per block id — 4 per cited term, and
/// the names of the vocabulary.
fn user_bytes(snapshot: &StudySnapshot) -> usize {
    let objects: usize = snapshot
        .objects
        .iter()
        .map(|o| {
            let text = o.metadata.iter().filter_map(Value::as_text).map(str::len).sum::<usize>();
            o.name.len() + text + o.payload.len()
        })
        .sum();
    let marks: usize = snapshot
        .referents
        .iter()
        .map(|r| match &r.marker {
            Marker::Interval(_) => 16,
            Marker::Region(_) => 32,
            Marker::Volume(_) => 48,
            Marker::BlockSet(ids) => 8 * ids.len(),
        })
        .sum();
    let annotations: usize = snapshot
        .annotations
        .iter()
        .map(|a| {
            let values = a.content.fields.iter().chain(&a.content.user_tags);
            values.map(|(_, value)| value.len()).sum::<usize>() + 4 * a.terms.len()
        })
        .sum();
    let ontology = &snapshot.ontology;
    let vocabulary: usize = (0..ontology.concept_count() as u32)
        .filter_map(|c| ontology.concept_name(graphitti::onto::ConceptId(c)))
        .map(str::len)
        .sum();
    objects + marks + annotations + vocabulary
}

/// The checkpoint of 180 objects and 1 200 annotations, 60 of them marking a sequence
/// and an image.
fn corpus() -> Checkpoint {
    let config = UnifiedConfig {
        seed: 2008,
        sequences: 120,
        images: 60,
        annotations: 1_140,
        cross_annotations: 60,
    };
    let checkpoint = Checkpoint::capture(&unified::build(&config).system, 1);
    let snapshot = &checkpoint.snapshot;
    assert_eq!((snapshot.objects.len(), snapshot.annotations.len()), (180, 1_200));
    checkpoint
}

#[test]
fn a_checkpoint_costs_at_most_its_ceilings() {
    let checkpoint = corpus();
    let supplied = user_bytes(&checkpoint.snapshot);
    let blob = checkpoint.encode();
    println!("disk_cost: checkpoint bytes {} / user bytes {supplied}", blob.len());

    // Measured 108 355 (1.128 per user byte) with element codes and four-coordinate
    // regions; 145 532 when the binary codec landed, which spelled out every element
    // name and every z; the same corpus as JSON, through `serde`: 347 245 bytes.
    const CHECKPOINT_CEILING: usize = 108_355;
    assert!(blob.len() <= CHECKPOINT_CEILING, "{} > {CHECKPOINT_CEILING}", blob.len());
    assert!(
        blob.len() * 100 <= supplied * 115,
        "{} bytes on disk for {supplied} supplied: {:.3} per user byte",
        blob.len(),
        blob.len() as f64 / supplied as f64
    );
    assert_eq!(Checkpoint::decode(&blob).expect("decodes").encode(), blob);
}

/// The framed record of one annotation: a 60-byte description and one mark.
fn one_mark_record(marker: Marker) -> Vec<u8> {
    let description = "polybasic cleavage site upstream of the HA fusion peptide H5";
    assert_eq!(description.len(), 60);
    let ops = vec![LogOp::Annotate {
        content: DublinCore::new().description(description),
        referents: vec![LogReferent::New { object: ObjectId(17), marker }],
        terms: vec![],
    }];
    WalRecord { version: 40_000, dirty: batch_dirty(&ops).bits(), ops }.encode()
}

#[test]
fn a_one_mark_annotation_frames_to_at_most_its_ceiling() {
    let frame = one_mark_record(Marker::interval(1_000, 1_050));
    println!("disk_cost: record bytes {} for a 60-byte description", frame.len());
    // 60 of text + 16 of coordinates supplied; measured 86 (97 with the element name
    // spelled out; as JSON: 251).
    assert!(frame.len() <= 86, "{} bytes", frame.len());
}

#[test]
fn a_one_region_annotation_frames_to_at_most_its_ceiling() {
    let frame = one_mark_record(Marker::region(120.0, 64.5, 310.25, 200.0));
    println!("disk_cost: region record bytes {} for a 60-byte description", frame.len());
    // 60 of text + 32 of coordinates supplied; measured 115, where the region's two
    // zero z coordinates would add 16.
    assert!(frame.len() <= 115, "{} bytes", frame.len());
}

#[test]
fn an_append_inside_the_reserved_extent_never_changes_the_log_length() {
    let dir = std::env::temp_dir().join(format!("graphitti-disk-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log_len = || std::fs::metadata(dir.join("wal.log")).expect("wal.log").len();
    let description = "polybasic cleavage site upstream of the HA fusion peptide H5, \
                       curated against the reference strain";
    let mut storage = FileStorage::open(&dir).expect("open");
    let (mut appended, mut grew) = (0u64, 0u64);
    for version in 1..=2_000 {
        let ops = vec![LogOp::Annotate {
            content: DublinCore::new().description(description),
            referents: vec![LogReferent::New {
                object: ObjectId(version % 180),
                marker: Marker::interval(version * 10, version * 10 + 50),
            }],
            terms: vec![],
        }];
        let frame = WalRecord { version, dirty: batch_dirty(&ops).bits(), ops }.encode();
        // The size of the benchmark's 2-op commit record.
        assert!((119..=125).contains(&frame.len()), "{} bytes", frame.len());
        let before = log_len();
        storage.append(&frame).expect("append");
        storage.sync().expect("sync");
        grew += u64::from(log_len() != before);
        appended += frame.len() as u64;
    }
    drop(storage);
    println!("disk_cost: wal.log length changes {grew} in 2000 appends of {appended} bytes");
    // One length change per extent the records fill, and none inside one: measured
    // 3, `open` having reserved the first.
    assert!(grew <= appended.div_ceil(LOG_EXTENT), "{grew} length changes");
    assert_eq!(log_len(), appended, "a closed log is exactly its records");
    let _ = std::fs::remove_dir_all(&dir);
}
