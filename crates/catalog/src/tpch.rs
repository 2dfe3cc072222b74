//! TPC-H metadata (SF-1 statistics) and a synthetic data generator.
//!
//! The paper's Table 2 uses "query statistics taken from a scale factor 1
//! instance of TPC-H"; the cardinalities and distinct counts below are the
//! public SF-1 numbers. The data generator produces scaled-down but
//! distribution-faithful instances (sequential keys, uniform foreign keys)
//! for executing plans on the algebra interpreter — our substitute for the
//! paper's HyPer measurements (see `docs/ARCHITECTURE.md`).

use crate::catalog::Catalog;
use dpnext_algebra::{AttrId, Database, Relation, Value};
use dpnext_query::QueryTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Build a catalog with the TPC-H tables (the subset of columns used by
/// the paper's queries Ex, Q3, Q5 and Q10), with SF-1 statistics.
pub fn tpch_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_relation(
        "region",
        5.0,
        &[("r_regionkey", 5.0), ("r_name", 5.0)],
        &[&["r_regionkey"]],
    );
    c.add_relation(
        "nation",
        25.0,
        &[
            ("n_nationkey", 25.0),
            ("n_name", 25.0),
            ("n_regionkey", 5.0),
        ],
        &[&["n_nationkey"]],
    );
    c.add_relation(
        "supplier",
        10_000.0,
        &[
            ("s_suppkey", 10_000.0),
            ("s_nationkey", 25.0),
            ("s_acctbal", 9_955.0),
        ],
        &[&["s_suppkey"]],
    );
    c.add_relation(
        "customer",
        150_000.0,
        &[
            ("c_custkey", 150_000.0),
            ("c_nationkey", 25.0),
            ("c_mktsegment", 5.0),
            ("c_acctbal", 140_187.0),
        ],
        &[&["c_custkey"]],
    );
    c.add_relation(
        "orders",
        1_500_000.0,
        &[
            ("o_orderkey", 1_500_000.0),
            ("o_custkey", 99_996.0),
            ("o_orderdate", 2_406.0),
            ("o_shippriority", 1.0),
            ("o_totalprice", 1_464_556.0),
        ],
        &[&["o_orderkey"]],
    );
    c.add_relation(
        "lineitem",
        6_001_215.0,
        &[
            ("l_orderkey", 1_500_000.0),
            ("l_suppkey", 10_000.0),
            ("l_extendedprice", 933_900.0),
            ("l_discount", 11.0),
            ("l_shipdate", 2_526.0),
            ("l_returnflag", 3.0),
            ("l_quantity", 50.0),
        ],
        &[],
    );
    c
}

/// Synthetic TPC-H data generator at a configurable scale.
///
/// `scale = 1.0` is SF-1; the execution experiments use small scales
/// (e.g. `0.01`) so the interpreted canonical plans stay tractable.
/// Distributions follow dbgen's shape: sequential primary keys, uniform
/// foreign keys into the full referenced key range.
pub struct TpchGen {
    scale: f64,
    rng: StdRng,
}

impl TpchGen {
    pub fn new(scale: f64, seed: u64) -> Self {
        TpchGen {
            scale,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Scaled cardinality of a TPC-H table (`nation`/`region` are fixed).
    pub fn card(&self, table: &str) -> usize {
        let base = match table {
            "region" => return 5,
            "nation" => return 25,
            "supplier" => 10_000.0,
            "customer" => 150_000.0,
            "orders" => 1_500_000.0,
            "lineitem" => 6_001_215.0,
            other => panic!("unknown TPC-H table {other}"),
        };
        ((base * self.scale).round() as usize).max(1)
    }

    /// Generate one table occurrence's relation. `mapping` maps TPC-H
    /// column names to the occurrence's attribute ids (from
    /// [`Catalog::instantiate`]).
    pub fn generate(&mut self, table: &str, mapping: &HashMap<String, AttrId>) -> Relation {
        let n = self.card(table);
        let columns: Vec<(&String, &AttrId)> = {
            let mut v: Vec<_> = mapping.iter().collect();
            v.sort_by_key(|(_, &id)| id);
            v
        };
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(n);
        for row in 0..n {
            let mut vals = Vec::with_capacity(columns.len());
            for (name, _) in &columns {
                vals.push(self.value(table, name, row));
            }
            rows.push(vals);
        }
        let attrs: Vec<AttrId> = columns.iter().map(|(_, &id)| id).collect();
        Relation::from_rows(attrs, rows)
    }

    fn uniform(&mut self, d: usize) -> Value {
        Value::Int(self.rng.gen_range(0..d.max(1)) as i64)
    }

    fn value(&mut self, table: &str, column: &str, row: usize) -> Value {
        match (table, column) {
            // Sequential primary keys.
            (_, "r_regionkey")
            | (_, "n_nationkey")
            | (_, "s_suppkey")
            | (_, "c_custkey")
            | (_, "o_orderkey") => Value::Int(row as i64),
            // 1:1 name columns (kept integer-coded).
            (_, "r_name") | (_, "n_name") => Value::Int(row as i64),
            // Foreign keys: uniform over the referenced key range.
            (_, "n_regionkey") => self.uniform(5),
            (_, "s_nationkey") | (_, "c_nationkey") => self.uniform(25),
            (_, "o_custkey") => {
                let c = self.card("customer");
                self.uniform(c)
            }
            (_, "l_orderkey") => {
                let o = self.card("orders");
                self.uniform(o)
            }
            (_, "l_suppkey") => {
                let s = self.card("supplier");
                self.uniform(s)
            }
            // Value columns: uniform over their distinct count.
            (_, "c_mktsegment") => self.uniform(5),
            (_, "o_shippriority") => Value::Int(0),
            (_, "o_orderdate") | (_, "l_shipdate") => self.uniform(2_406),
            (_, "l_returnflag") => self.uniform(3),
            (_, "l_discount") => self.uniform(11),
            (_, "l_quantity") => self.uniform(50),
            (_, "l_extendedprice") | (_, "o_totalprice") | (_, "s_acctbal") | (_, "c_acctbal") => {
                self.uniform(100_000)
            }
            (t, c) => panic!("no generator for {t}.{c}"),
        }
    }
}

/// Generate a database for a set of instantiated table occurrences:
/// `(tpch table name, query table, column mapping)`.
pub fn generate_database(
    scale: f64,
    seed: u64,
    occurrences: &[(&str, &QueryTable, &HashMap<String, AttrId>)],
) -> Database {
    let mut db = Database::new();
    for (i, (table, qt, mapping)) in occurrences.iter().enumerate() {
        let mut gen = TpchGen::new(scale, seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        db.insert(qt.alias.clone(), gen.generate(table, mapping));
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf1_statistics() {
        let c = tpch_catalog();
        assert_eq!(25.0, c.relation("nation").card);
        assert_eq!(6_001_215.0, c.relation("lineitem").card);
        assert_eq!(25.0, c.relation("supplier").attr("s_nationkey").distinct);
        assert_eq!(1, c.relation("customer").keys.len());
    }

    #[test]
    fn scaled_cardinalities() {
        let g = TpchGen::new(0.01, 1);
        assert_eq!(25, g.card("nation")); // fixed
        assert_eq!(100, g.card("supplier"));
        assert_eq!(1_500, g.card("customer"));
    }

    #[test]
    fn generated_relation_shape() {
        let mut c = tpch_catalog();
        let (qt, mapping) = c.instantiate("nation", "n1");
        let mut g = TpchGen::new(1.0, 42);
        let rel = g.generate("nation", &mapping);
        assert_eq!(25, rel.len());
        assert_eq!(3, rel.schema().len());
        // Keys are sequential and unique.
        let keys: Vec<i64> = rel
            .tuples()
            .iter()
            .map(|t| {
                t[rel.schema().pos_of(mapping["n_nationkey"])]
                    .as_int()
                    .unwrap()
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(25, sorted.len());
        let _ = qt;
    }

    #[test]
    fn database_generation() {
        let mut c = tpch_catalog();
        let (ns, m_ns) = c.instantiate("nation", "ns");
        let (s, m_s) = c.instantiate("supplier", "s");
        let db = generate_database(0.001, 7, &[("nation", &ns, &m_ns), ("supplier", &s, &m_s)]);
        assert_eq!(25, db.get("ns").unwrap().len());
        assert_eq!(10, db.get("s").unwrap().len());
    }

    #[test]
    fn generation_is_deterministic() {
        let mut c = tpch_catalog();
        let (_, m) = c.instantiate("supplier", "s");
        let r1 = TpchGen::new(0.01, 5).generate("supplier", &m);
        let r2 = TpchGen::new(0.01, 5).generate("supplier", &m);
        assert!(r1.bag_eq(&r2));
    }
}
