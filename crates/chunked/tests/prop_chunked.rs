//! Property tests for `ChunkedVec` against a plain `Vec` oracle: contents and order,
//! snapshot isolation of clones, and the copy-on-write granularity — and for the
//! two element types beside it, `SmallList` against a `Vec` and `BucketMap` against a
//! `HashMap`, clones included.

use std::collections::HashMap;

use chunked::{BucketMap, ChunkedVec, SmallList, CHUNK};
use proptest::prelude::*;

/// One step of a random history: `(kind, index, value)` — push `value`, overwrite the
/// element at `index % len` through `get_mut`, or take a clone.
type Op = (u8, usize, u32);

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..8, 0usize..10_000, 0u32..1_000_000), 0..max)
}

fn assert_matches(v: &ChunkedVec<u32>, oracle: &[u32]) {
    assert_eq!(v.len(), oracle.len());
    assert_eq!(v.is_empty(), oracle.is_empty());
    assert!(v.iter().eq(oracle.iter()), "iter order differs from the oracle");
    assert_eq!(v.iter().len(), oracle.len());
    assert_eq!(v.last(), oracle.last());
    for (i, value) in oracle.iter().enumerate() {
        assert_eq!(v.get(i), Some(value));
        assert_eq!(v[i], *value);
    }
    assert_eq!(v.get(oracle.len()), None);
    assert_eq!(v.chunk_count(), oracle.len().div_ceil(CHUNK));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_histories_match_the_vec_oracle_and_clones_stay_frozen(history in ops(600)) {
        let mut v: ChunkedVec<u32> = ChunkedVec::new();
        let mut oracle: Vec<u32> = Vec::new();
        // Every clone taken along the way, with the oracle's contents at that moment.
        let mut held: Vec<(ChunkedVec<u32>, Vec<u32>)> = Vec::new();
        for (kind, index, value) in history {
            match kind {
                // pushes dominate, as they do in an append-mostly store
                kind if kind < 5 => {
                    v.push(value);
                    oracle.push(value);
                }
                5 | 6 => {
                    if oracle.is_empty() {
                        prop_assert!(v.get_mut(index).is_none());
                    } else {
                        let at = index % oracle.len();
                        *v.get_mut(at).unwrap() = value;
                        oracle[at] = value;
                    }
                    prop_assert!(v.get_mut(oracle.len()).is_none());
                }
                _ => held.push((v.clone(), oracle.clone())),
            }
        }
        assert_matches(&v, &oracle);
        // A clone taken at any point never observes a later write.
        for (clone, then) in &held {
            assert_matches(clone, then);
        }
    }

    #[test]
    fn pushes_after_a_clone_unshare_only_the_chunks_they_fill(
        before in 0usize..400,
        pushes in 0usize..400,
    ) {
        let mut v: ChunkedVec<usize> = (0..before).collect();
        let held = v.clone();
        prop_assert_eq!(v.shared_chunks(&held), v.chunk_count());
        for i in 0..pushes {
            v.push(before + i);
        }
        let unshared = v.chunk_count() - v.shared_chunks(&held);
        prop_assert!(
            unshared <= pushes.div_ceil(CHUNK) + 1,
            "{} pushes after a clone at length {} unshared {} chunks",
            pushes, before, unshared
        );
        // Nothing the clone holds was copied needlessly: every chunk that was full at
        // the clone is still shared.
        prop_assert!(v.shared_chunks(&held) >= before / CHUNK);
        prop_assert!(held.iter().copied().eq(0..before));
        prop_assert!(v.iter().copied().eq(0..before + pushes));
    }

    #[test]
    fn an_overwrite_after_a_clone_unshares_exactly_its_chunk(
        len in 1usize..600,
        at in 0usize..600,
    ) {
        let mut v: ChunkedVec<usize> = (0..len).collect();
        let held = v.clone();
        let at = at % len;
        *v.get_mut(at).unwrap() = usize::MAX;
        prop_assert_eq!(v.chunk_count() - v.shared_chunks(&held), 1);
        prop_assert_eq!(held[at], at);
        prop_assert_eq!(v[at], usize::MAX);
        // A second write to the same chunk copies nothing more.
        let neighbour = (at / CHUNK) * CHUNK;
        *v.get_mut(neighbour).unwrap() = 7;
        prop_assert_eq!(v.chunk_count() - v.shared_chunks(&held), 1);
    }

    #[test]
    fn binary_search_agrees_with_the_slice(
        values in prop::collection::vec(0u32..2_000, 0..500),
        probe in 0u32..2_100,
    ) {
        let mut sorted = values;
        sorted.sort_unstable();
        sorted.dedup();
        let v: ChunkedVec<u32> = sorted.iter().copied().collect();
        prop_assert_eq!(v.binary_search(&probe), sorted.binary_search(&probe));
        for x in &sorted {
            prop_assert_eq!(v.binary_search(x), sorted.binary_search(x));
        }
    }

    #[test]
    fn small_lists_match_the_vec_oracle_and_clones_stay_frozen(history in ops(300)) {
        let mut list: SmallList<u32, 4> = SmallList::new();
        let mut oracle: Vec<u32> = Vec::new();
        let mut held: Vec<(SmallList<u32, 4>, Vec<u32>)> = Vec::new();
        for (kind, _, value) in history {
            match kind {
                0..=5 => {
                    list.push(value);
                    oracle.push(value);
                }
                _ => held.push((list.clone(), oracle.clone())),
            }
            prop_assert_eq!(list.as_slice(), &oracle[..]);
        }
        for (clone, then) in &held {
            prop_assert_eq!(clone.as_slice(), &then[..]);
        }
    }

    #[test]
    fn bucket_maps_match_the_hash_map_oracle_and_clones_stay_frozen(history in ops(400)) {
        let mut map: BucketMap<u32, u32> = BucketMap::new();
        let mut oracle: HashMap<u32, u32> = HashMap::new();
        let mut held: Vec<(BucketMap<u32, u32>, HashMap<u32, u32>)> = Vec::new();
        for (kind, key, value) in history {
            let key = (key % 300) as u32;
            match kind {
                0..=2 => prop_assert_eq!(map.insert(key, value), oracle.insert(key, value)),
                3 | 4 => {
                    prop_assert_eq!(map.get_mut(&key).map(|v| *v), oracle.get_mut(&key).map(|v| *v))
                }
                5 => prop_assert_eq!(
                    *map.get_or_insert_with(key, || value),
                    *oracle.entry(key).or_insert(value)
                ),
                _ => held.push((map.clone(), oracle.clone())),
            }
            prop_assert_eq!(map.get(&key), oracle.get(&key));
        }
        held.push((map, oracle));
        for (clone, then) in &held {
            prop_assert_eq!(clone.len(), then.len());
            prop_assert!(clone.iter().all(|(k, v)| then.get(k) == Some(v)));
        }
    }
}
