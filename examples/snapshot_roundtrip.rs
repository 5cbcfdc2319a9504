//! Save a study to a file and reload it.
//!
//! Run with `cargo run --release --example snapshot_roundtrip`.
//!
//! Builds an influenza workload, writes the whole study as a checkpoint file (the one
//! serialised form of a study, which recovery also reads) into a temporary directory,
//! reloads it, and verifies the reloaded system holds the same rows and answers a query
//! identically — including the a-graph's shared-referent connection structure.

use graphitti::core::wal::WalStorage;
use graphitti::core::{recover_unsharded, Checkpoint, FileStorage};
use graphitti::query::{Executor, Query, Target};
use graphitti::workloads::influenza::{self, InfluenzaConfig};

fn main() {
    let sys = influenza::build(&InfluenzaConfig {
        seed: 11,
        sequences: 40,
        annotations: 200,
        protease_prob: 0.4,
        shared_referent_prob: 0.4,
        ..InfluenzaConfig::default()
    });
    println!(
        "original: {} objects, {} annotations, {} referents",
        sys.object_count(),
        sys.annotation_count(),
        sys.referent_count()
    );

    // Save: the study's rows and the order its objects and annotations were created in.
    let dir = std::env::temp_dir().join(format!("graphitti-study-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut storage = FileStorage::open(&dir).expect("open the study directory");
    storage.write_checkpoint(&Checkpoint::capture(&sys, 0).encode()).expect("save the study");
    let file = dir.join("checkpoint.bin");
    let size = std::fs::metadata(&file).expect("the study file").len();
    println!("study file: {} ({size} bytes)", file.display());
    drop(storage);

    // Reload.
    let storage = FileStorage::open(&dir).expect("reopen the study directory");
    let (rebuilt, _) = recover_unsharded(&storage).expect("reload the study");
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "rebuilt : {} objects, {} annotations, {} referents",
        rebuilt.object_count(),
        rebuilt.annotation_count(),
        rebuilt.referent_count()
    );

    // Verify query parity.
    let q = Query::new(Target::AnnotationContents).with_phrase("protease");
    let (before, after) = (Executor::new(&sys).run(&q), Executor::new(&rebuilt).run(&q));
    println!(
        "\nprotease annotations — original: {}, rebuilt: {}",
        before.annotations.len(),
        after.annotations.len()
    );
    assert_eq!(before, after);

    // Study snapshots must be identical.
    assert_eq!(sys.study_snapshot(), rebuilt.study_snapshot());
    println!("study snapshots are identical — round-trip verified.");
}
