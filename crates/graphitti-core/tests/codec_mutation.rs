//! The durable decoder is total and canonical: a mutation battery.
//!
//! For seeded records and checkpoints — Dublin Core elements as codes and spelled out,
//! regions in and off the plane, interleaved creation runs — every truncation point
//! and every single-byte substitution of the payload is **re-framed with a fresh
//! CRC** — so the payload decoder, not the checksum, is what stands in front of the
//! mutant — and must come back as a typed error or as a value that re-encodes to
//! exactly the mutant's bytes.
//! Never a panic, and never a value the encoder would have spelled differently.
//!
//! The same seeded records, followed by the zeros a reserved log extent reads as, are
//! cut and substituted byte by byte: the scan keeps exactly the frames left whole and
//! never takes the zeros for a tear.
//!
//! `cargo test` runs a few seeds with a handful of substitutes per byte; CI runs
//! `mutation_battery_long` (`--ignored`, release) with all 255 substitutes over more
//! seeds.  (That a lying length prefix allocates nothing is counted in the root
//! `tests/commit_cost.rs`, which owns the counting allocator.)

use graphitti_core::ontology::{ConceptId, RelationType};
use graphitti_core::relstore::Value;
use graphitti_core::spatial_index::Rect;
use graphitti_core::wal::{encode_frame, scan_frames, FRAME_HEADER, LOG_EXTENT};
use graphitti_core::xmlstore::DublinCore;
use graphitti_core::{
    Checkpoint, CoreError, DataType, DurabilityMode, DurableSystem, LogOp, LogReferent, Marker,
    MemStorage, ObjectId, ReferentId, WalRecord,
};

/// splitmix64.
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
}

/// One batch: registrations of every shape, then annotations over them with every
/// marker kind, reused referents and terms, then a term definition.
fn batch(rng: &mut Rng, objects_before: u64) -> Vec<LogOp> {
    let register = |data_type, name: String, metadata, domain: &str| LogOp::Register {
        data_type,
        name,
        metadata,
        payload: vec![0xde, 0x00, 0xff],
        domain: domain.into(),
    };
    let n = rng.below(1_000);
    let mut ops = vec![
        LogOp::register_sequence(format!("seq-{n}"), DataType::DnaSequence, 900 + n, "chr1"),
        register(
            DataType::Image,
            format!("img-{n}"),
            vec![Value::Int(512), Value::Int(-1), Value::text("mri"), Value::text("cs")],
            "cs",
        ),
        register(
            DataType::ProteinModel,
            format!("model-{n}"),
            vec![Value::Int(10), Value::Float(-0.0), Value::text("cs3")],
            "cs3",
        ),
        register(
            DataType::RelationalRecord,
            format!("rows-{n}"),
            vec![Value::text("strains"), Value::Int(40)],
            "db",
        ),
    ];
    let (seq, img, model, rows) =
        (objects_before, objects_before + 1, objects_before + 2, objects_before + 3);
    for _ in 0..1 + rng.below(3) {
        let start = rng.below(800);
        let x = rng.below(400) as f64 / 4.0;
        let marks = [
            (seq, Marker::interval(start, start + 1 + rng.below(200))),
            (img, Marker::region(x, x / 2.0, x + 8.0, x + 130.5)),
            (model, Marker::Volume(Rect::new([0.0, x, -x], [1.0, x + 1.0, 0.0]))),
            (rows, Marker::block_set([rng.below(40), 40 + rng.below(300)])),
        ];
        let mut referents: Vec<LogReferent> = marks
            .into_iter()
            .filter(|_| rng.below(2) == 0)
            .map(|(object, marker)| LogReferent::New { object: ObjectId(object), marker })
            .collect();
        if start.is_multiple_of(2) {
            // A region off the plane: six coordinates, `-0.0` kept.
            let off_plane = Rect { min: [x, 0.0, -0.0], max: [x + 1.0, 1.0, x] };
            referents.push(LogReferent::New {
                object: ObjectId(img),
                marker: Marker::Region(off_plane),
            });
        }
        if rng.below(3) == 0 {
            // May name a referent on another shard's worth of objects, or none at all:
            // a rejected commit is logged too.
            referents.push(LogReferent::Existing(ReferentId(rng.below(6))));
        }
        ops.push(LogOp::Annotate {
            content: DublinCore::new()
                .description(format!("note {} — ünïcode", rng.below(10_000)))
                .creator("condit")
                .field(["Title", "dc:title", "x-lab"][start as usize % 3], "SDSC")
                .user_tag("confidence", format!("{}", rng.below(100))),
            referents,
            terms: (0..rng.below(3)).map(|_| ConceptId(rng.below(3) as u32)).collect(),
        });
    }
    ops.push(LogOp::DefineTerm { name: format!("term-{}", rng.below(50)) });
    ops
}

/// The frames to mutate for one seed: a few records, and the checkpoint of the state
/// they build (under an ontology with relations and instances).
fn seeded_frames(seed: u64) -> (Vec<Vec<u8>>, Vec<u8>) {
    let mut rng = Rng(seed);
    let mut system = DurableSystem::create(Box::new(MemStorage::new()), DurabilityMode::Off);
    let mut records = Vec::new();
    system
        .apply(&["Protease", "Enzyme", "Site"].map(|name| LogOp::DefineTerm { name: name.into() }))
        .unwrap();
    for round in 0..3 {
        let ops = batch(&mut rng, round * 4);
        let version = system.apply(&ops).unwrap();
        records.push(WalRecord { version, dirty: 0, ops }.encode());
    }
    let mut checkpoint = Checkpoint::capture(system.system(), system.version());
    assert!(checkpoint.order.len() >= 4, "registrations interleave with annotations");
    checkpoint.shards = seed as usize % 5;
    let snapshot = &mut checkpoint.snapshot;
    assert!(snapshot.annotations.len() >= 3 && snapshot.objects.len() == 12);
    let (protease, enzyme, site) = (ConceptId(0), ConceptId(1), ConceptId(2));
    snapshot.ontology.add_relation(enzyme, protease, RelationType::IsA);
    snapshot.ontology.add_relation(protease, site, RelationType::Named("cleaves-at".into()));
    snapshot.ontology.add_instance(protease, "NS3");
    (records, checkpoint.encode())
}

/// The contract, for one mutant payload: `decode` sees it behind a valid CRC and
/// answers with a typed error or with a value whose encoding is the mutant itself.
fn hold_to_the_contract(mutant: &[u8], is_checkpoint: bool, what: impl Fn() -> String) {
    let frame = encode_frame(mutant);
    let reencoded = if is_checkpoint {
        Checkpoint::decode(&frame).map(|c| c.encode())
    } else {
        let scan = scan_frames(&frame);
        if mutant.is_empty() {
            // An empty payload frames to the all-zero header: the clean end of a log.
            assert!(scan.payloads.is_empty() && !scan.torn, "{}: not the end of a log", what());
            return;
        }
        assert_eq!(scan.payloads.len(), 1, "{}: the mutant's CRC is valid", what());
        WalRecord::decode(&scan.payloads[0]).map(|r| r.encode())
    };
    match reencoded {
        Err(CoreError::Durability(_)) => {}
        Err(other) => panic!("{}: not a durability error: {other:?}", what()),
        Ok(bytes) => assert_eq!(bytes, frame, "{}: decoded, but not canonical", what()),
    }
}

/// Every truncation and, per byte, every substitute in `substitutes` (as XOR masks).
fn mutate(frame: &[u8], is_checkpoint: bool, substitutes: &[u8], seed: u64) -> u64 {
    let payload = &frame[FRAME_HEADER..];
    hold_to_the_contract(payload, is_checkpoint, || format!("seed {seed} unmutated"));
    let mut mutants = 0;
    for cut in 0..payload.len() {
        hold_to_the_contract(&payload[..cut], is_checkpoint, || format!("seed {seed} cut {cut}"));
        mutants += 1;
    }
    let mut mutant = payload.to_vec();
    for at in 0..payload.len() {
        for &xor in substitutes {
            mutant[at] = payload[at] ^ xor;
            let what = || format!("seed {seed} byte {at} ^ {xor:#04x}");
            hold_to_the_contract(&mutant, is_checkpoint, what);
            mutants += 1;
        }
        mutant[at] = payload[at];
    }
    mutants
}

fn battery(seeds: std::ops::Range<u64>, substitutes: &[u8]) {
    let mut mutants = 0;
    for seed in seeds {
        let (records, checkpoint) = seeded_frames(seed);
        for record in &records {
            mutants += mutate(record, false, substitutes, seed);
        }
        mutants += mutate(&checkpoint, true, substitutes, seed);
    }
    assert!(mutants > 10_000, "the battery must actually run: {mutants} mutants");
}

#[test]
fn mutation_battery() {
    // The low bit, the continuation bit, and everything at once: between them small
    // counts turn large, tags turn unknown and varints run on.
    battery(0..2, &[0x01, 0x80, 0xff]);
}

/// The seeded records as a power cut leaves a `FileStorage` log: the frames, then the
/// zeros of the extent reserved past them.  Cut anywhere or substituted anywhere, the
/// image scans to exactly the records the damage left whole; zeros are never a tear.
#[test]
fn records_then_zeros_scan_to_the_records_the_damage_left_whole() {
    let zeros = vec![0u8; LOG_EXTENT as usize];
    for seed in 0..2 {
        let (records, _) = seeded_frames(seed);
        let log = records.concat();
        let ends: Vec<usize> = records
            .iter()
            .scan(0, |end, record| {
                *end += record.len();
                Some(*end)
            })
            .collect();
        for cut in 0..=log.len() {
            let scan = scan_frames(&[&log[..cut], &zeros].concat());
            // A frame the cut reached survives only where zeros stand in for every
            // byte it took.
            let whole = ends
                .iter()
                .take_while(|&&end| log[cut.min(end)..end].iter().all(|&b| b == 0))
                .count();
            let valid = whole.checked_sub(1).map_or(0, |last| ends[last]);
            let what = format!("seed {seed} cut {cut}");
            assert_eq!((scan.payloads.len(), scan.valid_len), (whole, valid), "{what}");
            assert_eq!(scan.torn, log[valid..cut.max(valid)].iter().any(|&b| b != 0), "{what}");
        }
        let mut image = [log.as_slice(), &zeros].concat();
        let scan = scan_frames(&image);
        assert_eq!(
            (scan.payloads.len(), scan.valid_len, scan.torn),
            (records.len(), log.len(), false)
        );
        for at in 0..log.len() {
            for xor in [0x01, 0x80, 0xff] {
                image[at] = log[at] ^ xor;
                let scan = scan_frames(&image);
                let damaged = ends.iter().filter(|&&end| end <= at).count();
                let what = format!("seed {seed} byte {at} ^ {xor:#04x}");
                assert_eq!(scan.payloads.len(), damaged, "{what}");
                assert!(scan.torn, "{what}");
            }
            image[at] = log[at];
        }
    }
}

#[test]
#[ignore = "the long form: every substitute for every byte; CI runs it in release"]
fn mutation_battery_long() {
    let every_substitute: Vec<u8> = (1..=255).collect();
    battery(100..106, &every_substitute);
}
