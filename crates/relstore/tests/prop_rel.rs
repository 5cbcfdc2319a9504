//! Property tests: indexed scans must return exactly the same rows as a full scan, and
//! insert/remove must keep row counts and lookups consistent.

use proptest::prelude::*;
use relstore::{Column, ColumnType, Predicate, Schema, Table, Value};

fn table_with(rows: &[(String, i64)]) -> Table {
    let schema = Schema::new(vec![
        Column::new("name", ColumnType::Text),
        Column::new("len", ColumnType::Int),
    ]);
    let mut t = Table::new("t", schema);
    for (n, l) in rows {
        t.insert(vec![Value::text(n.clone()), Value::Int(*l)]).unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_equality_matches_full_scan(
        rows in prop::collection::vec(("[a-e]", 0i64..100), 1..80),
        probe in "[a-e]",
    ) {
        let mut indexed = table_with(&rows);
        indexed.create_index("by_name", "name").unwrap();
        let unindexed = table_with(&rows);
        let pred = Predicate::Eq("name".into(), Value::text(probe));
        let mut a = indexed.scan(&pred);
        let mut b = unindexed.scan(&pred);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn range_scan_matches_reference(
        rows in prop::collection::vec(("[a-z]{1,4}", 0i64..1000), 0..120),
        threshold in 0i64..1000,
    ) {
        let t = table_with(&rows);
        let pred = Predicate::Ge("len".into(), Value::Int(threshold));
        let got: usize = t.scan(&pred).len();
        let expected = rows.iter().filter(|(_, l)| *l >= threshold).count();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn remove_then_count_consistent(
        rows in prop::collection::vec(("[a-c]", 0i64..50), 1..60),
        remove in 0usize..60,
    ) {
        let mut t = table_with(&rows);
        t.create_index("by_name", "name").unwrap();
        let idx = remove % rows.len();
        t.remove(relstore::RowId(idx as u64)).unwrap();
        prop_assert_eq!(t.len(), rows.len() - 1);
        // every remaining value of "a" is findable via the index
        let expected = rows
            .iter()
            .enumerate()
            .filter(|(i, (n, _))| *i != idx && n == "a")
            .count();
        prop_assert_eq!(t.scan(&Predicate::Eq("name".into(), Value::text("a"))).len(), expected);
    }

    #[test]
    fn contains_predicate_matches_reference(
        rows in prop::collection::vec("[a-z]{1,8}", 0..80),
        needle in "[a-z]{1,3}",
    ) {
        let schema = Schema::new(vec![Column::new("s", ColumnType::Text)]);
        let mut t = Table::new("t", schema);
        for r in &rows {
            t.insert(vec![Value::text(r.clone())]).unwrap();
        }
        let got = t.scan(&Predicate::contains("s", needle.clone())).len();
        let expected = rows.iter().filter(|r| r.contains(&needle)).count();
        prop_assert_eq!(got, expected);
    }
}
