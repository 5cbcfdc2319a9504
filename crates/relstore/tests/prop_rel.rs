//! Property tests: predicate scans return exactly the rows a reference filter over the
//! inserted values keeps.

use proptest::prelude::*;
use relstore::{Column, ColumnType, Predicate, Table, Value};

fn table_with(rows: &[(String, i64)]) -> Table {
    const COLUMNS: &[Column] = &[("name", ColumnType::Text), ("len", ColumnType::Int)];
    let mut t = Table::new(COLUMNS);
    for (n, l) in rows {
        t.insert(vec![Value::text(n.clone()), Value::Int(*l)]).unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

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
    fn contains_predicate_matches_reference(
        rows in prop::collection::vec("[a-z]{1,8}", 0..80),
        needle in "[a-z]{1,3}",
    ) {
        const COLUMNS: &[Column] = &[("s", ColumnType::Text)];
        let mut t = Table::new(COLUMNS);
        for r in &rows {
            t.insert(vec![Value::text(r.clone())]).unwrap();
        }
        let got = t.scan(&Predicate::contains("s", needle.clone())).len();
        let expected = rows.iter().filter(|r| r.contains(&needle)).count();
        prop_assert_eq!(got, expected);
    }
}
