//! The paper's TPC-H workload: the introductory query *Ex* and queries
//! Q3, Q5 and Q10 (Table 2), written as SQL and bound by `dpnext_sql`
//! against the SF-1 statistics of [`tpch_catalog`].
//!
//! Following the paper ("query statistics were taken from a scale factor
//! 1 instance of TPC-H"), raw SF-1 base-table statistics are used: the
//! statements below carry no `where` clause, so selections are *not*
//! folded into the cardinalities. (Folding the date/segment selectivities
//! shrinks the per-customer/per-order group sizes to ≤ 1 and erases the
//! eager-aggregation gain on Q3/Q10; with raw stats the relative costs
//! reproduce Table 2's shape.)

use dpnext_catalog::tpch_catalog;
use dpnext_sql::{plan, BoundQuery};

/// A TPC-H query: its name, its SQL text and the text bound against
/// [`tpch_catalog`]. [`BoundQuery::database`] generates data for it.
pub struct TpchQuery {
    pub name: &'static str,
    pub sql: &'static str,
    pub bound: BoundQuery,
}

impl TpchQuery {
    fn bind(name: &'static str, sql: &'static str) -> Self {
        let bound = plan(sql, &tpch_catalog()).unwrap_or_else(|e| panic!("{name}: {e}"));
        TpchQuery { name, sql, bound }
    }
}

/// The introductory query *Ex* (§1): a grouping above a full outerjoin.
pub fn ex_query() -> TpchQuery {
    TpchQuery::bind(
        "Ex",
        "select ns.n_name, nc.n_name, count(*) \
         from (nation ns join supplier s on ns.n_nationkey = s.s_nationkey) \
         full outer join (nation nc join customer c on nc.n_nationkey = c.c_nationkey) \
         on ns.n_nationkey = nc.n_nationkey \
         group by ns.n_name, nc.n_name",
    )
}

// Q3, Q5 and Q10 model `sum(l_extendedprice * (1 - l_discount))` as
// `sum(l_extendedprice)`: the aggregate's shape (duplicate sensitive,
// decomposable) is what matters for plan generation.

/// TPC-H Q3 (shipping priority) on raw SF-1 statistics.
pub fn q3() -> TpchQuery {
    TpchQuery::bind(
        "Q3",
        "select l.l_orderkey, o.o_orderdate, o.o_shippriority, sum(l.l_extendedprice) \
         from customer c join orders o on c.c_custkey = o.o_custkey \
         join lineitem l on o.o_orderkey = l.l_orderkey \
         group by l.l_orderkey, o.o_orderdate, o.o_shippriority",
    )
}

/// TPC-H Q5 (local supplier volume) on raw SF-1 statistics. The
/// `c_nationkey = s_nationkey` term makes the query graph cyclic.
pub fn q5() -> TpchQuery {
    TpchQuery::bind(
        "Q5",
        "select n.n_name, sum(l.l_extendedprice) \
         from customer c join orders o on c.c_custkey = o.o_custkey \
         join lineitem l on o.o_orderkey = l.l_orderkey \
         join supplier s on l.l_suppkey = s.s_suppkey and c.c_nationkey = s.s_nationkey \
         join nation n on s.s_nationkey = n.n_nationkey \
         join region r on n.n_regionkey = r.r_regionkey \
         group by n.n_name",
    )
}

/// TPC-H Q10 (returned items) on raw SF-1 statistics.
pub fn q10() -> TpchQuery {
    TpchQuery::bind(
        "Q10",
        "select c.c_custkey, c.c_acctbal, n.n_name, sum(l.l_extendedprice) \
         from customer c join orders o on c.c_custkey = o.o_custkey \
         join lineitem l on o.o_orderkey = l.l_orderkey \
         join nation n on c.c_nationkey = n.n_nationkey \
         group by c.c_custkey, c.c_acctbal, n.n_name",
    )
}

/// All four Table-2 queries.
pub fn table2_queries() -> Vec<TpchQuery> {
    vec![ex_query(), q3(), q5(), q10()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_queries_validate() {
        for q in table2_queries() {
            assert!(q.bound.query.grouping.is_some(), "{}", q.name);
            assert!(q.bound.query.table_count() >= 3);
        }
    }

    #[test]
    fn ex_shape() {
        let ex = ex_query();
        assert_eq!(4, ex.bound.query.table_count());
        assert_eq!(3, ex.bound.query.tree.operator_count());
        // Self-join of nation: occurrences carry distinct attributes.
        let ns_key = ex.bound.occurrences[0].2["n_nationkey"];
        let nc_key = ex.bound.occurrences[2].2["n_nationkey"];
        assert_ne!(ns_key, nc_key);
    }

    #[test]
    fn ex_canonical_plan_executes_at_small_scale() {
        let ex = ex_query();
        let db = ex.bound.database(0.002, 42);
        let res = ex.bound.query.canonical_plan().eval(&db);
        // Groups: (n_name_s, n_name_c) pairs plus padded sides.
        assert!(!res.is_empty());
        assert_eq!(3, res.schema().len());
    }

    #[test]
    fn raw_sf1_cards() {
        let q = q3();
        assert_eq!(150_000.0, q.bound.query.tables[0].card);
        assert_eq!(1_500_000.0, q.bound.query.tables[1].card);
        assert_eq!(6_001_215.0, q.bound.query.tables[2].card);
    }
}
