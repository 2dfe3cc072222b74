//! End-to-end: SQL text → parse → bind → optimize → execute.

use dpnext_catalog::tpch_catalog;
use dpnext_core::{optimize, Algorithm};
use dpnext_sql::plan;

/// The paper's introductory query, straight from its SQL text.
const EX: &str = "select ns.n_name, nc.n_name, count(*) \
    from (nation ns join supplier s on ns.n_nationkey = s.s_nationkey) \
    full outer join \
    (nation nc join customer c on nc.n_nationkey = c.c_nationkey) \
    on ns.n_nationkey = nc.n_nationkey \
    group by ns.n_name, nc.n_name";

#[test]
fn intro_query_from_sql_text() {
    let catalog = tpch_catalog();
    let bound = plan(EX, &catalog).unwrap();
    assert_eq!(4, bound.query.table_count());
    assert_eq!(
        vec!["ns.n_name", "nc.n_name", "count(*)"],
        bound.output_names
    );

    // Optimize and execute at a small scale; all algorithms must agree
    // with the canonical plan.
    let db = bound.database(0.002, 11);
    let reference = bound.query.canonical_plan().eval(&db);
    for algo in [Algorithm::DPhyp, Algorithm::H1, Algorithm::EaPrune] {
        let opt = optimize(&bound.query, algo);
        assert!(
            opt.plan.root.eval(&db).bag_eq(&reference),
            "{}",
            algo.name()
        );
    }

    // And the eager plan must beat the baseline by orders of magnitude.
    let lazy = optimize(&bound.query, Algorithm::DPhyp).plan.cost;
    let eager = optimize(&bound.query, Algorithm::EaPrune).plan.cost;
    assert!(lazy / eager > 1000.0, "gain only {}", lazy / eager);
}

#[test]
fn aliases_and_self_joins_resolve() {
    let catalog = tpch_catalog();
    let bound = plan(
        "select a.n_name, count(*) from nation a join nation b on a.n_regionkey = b.n_regionkey \
         group by a.n_name",
        &catalog,
    )
    .unwrap();
    assert_eq!(2, bound.query.table_count());
    // Self-join: distinct attributes per occurrence.
    let a_key = bound.occurrences[0].2["n_nationkey"];
    let b_key = bound.occurrences[1].2["n_nationkey"];
    assert_ne!(a_key, b_key);
}

#[test]
fn unqualified_columns_resolve_when_unique() {
    let catalog = tpch_catalog();
    let bound = plan(
        "select n_name, count(s_suppkey) from nation join supplier on n_nationkey = s_nationkey \
         group by n_name",
        &catalog,
    )
    .unwrap();
    assert_eq!(2, bound.query.table_count());
    let opt = optimize(&bound.query, Algorithm::EaPrune);
    assert!(opt.plan.cost.is_finite());
}

#[test]
fn semantic_errors() {
    let catalog = tpch_catalog();
    // Unknown table.
    assert!(plan("select a from nowhere", &catalog).is_err());
    // Unknown column.
    assert!(plan("select nation.bogus from nation", &catalog).is_err());
    // Ambiguous column in a self-join.
    assert!(plan(
        "select n_name from nation a join nation b on a.n_nationkey = b.n_nationkey",
        &catalog
    )
    .is_err());
    // Non-grouped plain column.
    assert!(plan(
        "select n_name, count(*) from nation group by n_regionkey",
        &catalog
    )
    .is_err());
    // Join condition not connecting the sides.
    assert!(plan(
        "select r_name from region join nation on region.r_regionkey = region.r_name",
        &catalog
    )
    .is_err());
    // Duplicate alias.
    assert!(plan(
        "select r_name from region x join nation x on x.r_regionkey = x.n_regionkey",
        &catalog
    )
    .is_err());
}

#[test]
fn avg_and_distinct_aggregates_bind() {
    let catalog = tpch_catalog();
    let bound = plan(
        "select n_name, avg(s_acctbal), count(distinct s_nationkey) \
         from nation join supplier on n_nationkey = s_nationkey group by n_name",
        &catalog,
    )
    .unwrap();
    // avg is normalized into sum/count partials with a post-map.
    let g = bound.query.grouping.as_ref().unwrap();
    assert_eq!(3, g.aggs.len()); // sum + countNN + count(distinct)
    assert_eq!(1, g.post.len());
}

#[test]
fn scalar_aggregate_without_group_by() {
    let catalog = tpch_catalog();
    let bound = plan(
        "select count(*) from nation join supplier on n_nationkey = s_nationkey",
        &catalog,
    )
    .unwrap();
    let g = bound.query.grouping.as_ref().unwrap();
    assert!(g.group_by.is_empty());
    let opt = optimize(&bound.query, Algorithm::EaPrune);
    assert!(opt.plan.cost.is_finite());
}

#[test]
fn semi_and_anti_join_queries() {
    let catalog = tpch_catalog();
    let bound = plan(
        "select n_name, count(*) from nation semi join supplier on n_nationkey = s_nationkey \
         group by n_name",
        &catalog,
    )
    .unwrap();
    let db = bound.database(0.005, 3);
    let reference = bound.query.canonical_plan().eval(&db);
    let opt = optimize(&bound.query, Algorithm::EaPrune);
    assert!(opt.plan.root.eval(&db).bag_eq(&reference));
}

/// A grouped statement's labels sit over their own columns: the executed
/// plan yields the select list, in order, and nothing else — whatever order
/// GROUP BY names the grouping columns in, and whether or not it selects
/// them.
#[test]
fn grouped_select_list_labels_its_own_columns() {
    let catalog = tpch_catalog();
    for (select, group_by) in [
        ("count(*), n.n_name", "n.n_name"),
        ("count(*)", "n.n_name"),
        (
            "n.n_regionkey, n.n_name, count(*)",
            "n.n_name, n.n_regionkey",
        ),
    ] {
        let text = format!(
            "select {select} from nation n join supplier s on n.n_nationkey = s.s_nationkey \
             group by {group_by}"
        );
        let bound = plan(&text, &catalog).unwrap();
        let db = bound.database(0.002, 11);
        let alias = |i: usize| bound.query.tables[i].alias.clone();
        let join_rows = bound.query.tree.to_alg(&alias).eval(&db).len() as i64;
        let result = optimize(&bound.query, Algorithm::EaPrune)
            .plan
            .root
            .eval(&db);
        assert_eq!(bound.output_names.len(), result.schema().len(), "{text}");
        for (label, &attr) in bound.output_names.iter().zip(result.schema().attrs()) {
            match label.strip_prefix("n.") {
                // A plain column: the attribute of nation's occurrence.
                Some(column) => assert_eq!(bound.occurrences[0].2[column], attr, "{text}: {label}"),
                // The count: the column whose values sum to the join's rows.
                None => {
                    let counted: i64 = (0..result.len())
                        .map(|row| result.value(row, attr).as_int().expect("a count"))
                        .sum();
                    assert_eq!(join_rows, counted, "{text}: {label}");
                }
            }
        }
    }
    // Output columns are identified by attribute: a repeat cannot be labelled.
    assert!(plan(
        "select n_name, n_name, count(*) from nation group by n_name",
        &catalog
    )
    .is_err());
}
