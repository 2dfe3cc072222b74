//! The four workloads: request lists, the system each one drives, and the
//! set-up every run pays before it measures.
//!
//! The *queries* of a workload are frozen here (generator configurations
//! and generator seeds, the SQL corpus). Per-query optimization time is
//! heavy-tailed (`ea-prune-paper` at n = 11: median 1.4 ms, maximum 200 ms),
//! so two query sets drawn with different seeds differ in total work by
//! far more than any bound; a fixed set makes runs comparable and the
//! deterministic metrics exact. `--seed` decides what a closed-loop caller
//! would vary: the order in which each client sends its requests and the
//! data instances the execution oracle runs on.

use dpnext::catalog::generate_database;
use dpnext::core::Optimized;
use dpnext::query::Query;
use dpnext::sql::BoundQuery;
use dpnext::workload::{generate_data, generate_query, GenConfig, Topology};
use dpnext::{Algorithm, Optimizer};
use dpnext_serve::{OptimizerService, ServeResult, ServiceConfig};
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EaPrunePaper,
    EaAllPaper,
    ServeSqlHot,
    AdaptiveLarge,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EaPrunePaper,
        Workload::EaAllPaper,
        Workload::ServeSqlHot,
        Workload::AdaptiveLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EaPrunePaper => "ea-prune-paper",
            Workload::EaAllPaper => "ea-all-paper",
            Workload::ServeSqlHot => "serve-sql-hot",
            Workload::AdaptiveLarge => "adaptive-large",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client threads.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeSqlHot => 2,
            _ => 1,
        }
    }

    /// Whether the statistics epoch is bumped before every pass, so that
    /// the first arrival of each statement in a pass misses the cache.
    pub fn bumps_epoch(self) -> bool {
        self == Workload::ServeSqlHot
    }

    /// The configuration of the service the workload drives, if it drives
    /// one: the default for `serve-sql-hot`, the cache off for
    /// `adaptive-large`.
    pub fn service_config(self) -> Option<ServiceConfig> {
        match self {
            Workload::EaPrunePaper | Workload::EaAllPaper => None,
            Workload::ServeSqlHot => Some(ServiceConfig::default()),
            Workload::AdaptiveLarge => Some(ServiceConfig {
                cache_capacity: 0,
                ..ServiceConfig::default()
            }),
        }
    }

    /// The optimizer requests run under, as a caller would configure it.
    /// The two paper workloads switch EXPLAIN rendering off; the services
    /// keep the facade's default, on.
    pub fn optimizer(self) -> Optimizer {
        match self {
            Workload::EaPrunePaper => Optimizer::new(Algorithm::EaPrune).explain(false),
            Workload::EaAllPaper => Optimizer::new(Algorithm::EaAll).explain(false),
            Workload::ServeSqlHot => Optimizer::new(Algorithm::EaPrune),
            Workload::AdaptiveLarge => {
                Optimizer::new(Algorithm::Adaptive).plan_budget(ADAPTIVE_PLAN_BUDGET)
            }
        }
        .threads(1)
    }

    pub fn explains(self) -> bool {
        self.service_config().is_some()
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// `ea-prune-paper`: `GenConfig::paper(n)` for each n, generator seeds
/// `0..EA_PRUNE_SEEDS`.
pub const EA_PRUNE_SIZES: [usize; 4] = [8, 9, 10, 11];
pub const EA_PRUNE_SEEDS: u64 = 24;
/// `ea-all-paper`: generator seeds `0..EA_ALL_SEEDS` at n = 5 and 6, plus
/// the n = 7 queries among generator seeds `0..8` that EA-All finishes
/// within 2 000 000 plans (the unfiltered tail takes seconds per query:
/// seed 5 builds 2 884 212). `EA_ALL_N7_SEEDS` is that filter's result,
/// frozen; a test recomputes it.
pub const EA_ALL_SIZES: [usize; 2] = [5, 6];
pub const EA_ALL_SEEDS: u64 = 32;
pub const EA_ALL_N7_SEEDS: [u64; 7] = [0, 1, 2, 3, 4, 6, 7];
/// `serve-sql-hot`: every client sends each of its statements this often
/// per epoch, so with 16 statements and 2 clients an epoch is 3 200
/// requests per client of which 8 miss (0.25% + 0.25%).
pub const SQL_CORPUS: &str = include_str!("../workloads/serve_sql_hot.sql");
pub const SQL_REPEATS_PER_EPOCH: usize = 400;
/// `adaptive-large`: `GenConfig::topology(n, t)`, generator seeds
/// `0..ADAPTIVE_SEEDS`, under a plan budget and no deadline.
pub const ADAPTIVE_TOPOLOGIES: [Topology; 4] = [
    Topology::Chain,
    Topology::Star,
    Topology::Clique,
    Topology::Mixed,
];
pub const ADAPTIVE_SIZES: [usize; 3] = [20, 30, 40];
pub const ADAPTIVE_SEEDS: u64 = 4;
pub const ADAPTIVE_PLAN_BUDGET: u64 = 50_000;

/// The execution oracle runs requests of at most this many relations.
pub const ORACLE_MAX_RELATIONS: usize = 8;

/// What the system under test is handed.
pub enum Input {
    Query(Query),
    Sql(String),
}

pub struct Request {
    pub label: String,
    pub input: Input,
    /// The bound form of a SQL request, made by the harness for the
    /// reference cost and the oracle; the system only sees the text.
    pub bound: Option<BoundQuery>,
}

impl Request {
    fn generated(label: String, query: Query) -> Request {
        Request {
            label,
            input: Input::Query(query),
            bound: None,
        }
    }

    pub fn query(&self) -> &Query {
        match (&self.input, &self.bound) {
            (Input::Query(q), _) => q,
            (Input::Sql(_), Some(b)) => &b.query,
            (Input::Sql(_), None) => unreachable!("SQL requests are bound in set-up"),
        }
    }

    pub fn relations(&self) -> usize {
        self.query().table_count()
    }
}

// One value per run: the size of the larger variant costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum System {
    Facade(Optimizer),
    Service(OptimizerService),
}

/// What a caller gets back; the plan is owned or shared with the cache.
// Boxing the owned result would put an allocation inside the timed call.
#[allow(clippy::large_enum_variant)]
pub enum Reply {
    Owned(Optimized),
    Shared(ServeResult),
}

impl Reply {
    pub fn optimized(&self) -> &Optimized {
        match self {
            Reply::Owned(o) => o,
            Reply::Shared(r) => &r.result,
        }
    }

    pub fn cache_hit(&self) -> bool {
        matches!(self, Reply::Shared(r) if r.cache_hit)
    }
}

impl System {
    pub fn call(&self, input: &Input) -> Result<Reply, String> {
        match (self, input) {
            (System::Facade(opt), Input::Query(q)) => Ok(Reply::Owned(opt.optimize(q))),
            (System::Facade(_), Input::Sql(_)) => {
                unreachable!("no workload sends SQL text to the bare facade")
            }
            (System::Service(svc), Input::Query(q)) => svc
                .optimize(q)
                .map(Reply::Shared)
                .map_err(|e| e.to_string()),
            (System::Service(svc), Input::Sql(s)) => svc
                .optimize_sql(s)
                .map(Reply::Shared)
                .map_err(|e| e.to_string()),
        }
    }

    pub fn service(&self) -> Option<&OptimizerService> {
        match self {
            System::Service(svc) => Some(svc),
            System::Facade(_) => None,
        }
    }

    /// The optimizer configuration requests run under.
    pub fn optimizer(&self) -> &Optimizer {
        match self {
            System::Facade(opt) => opt,
            System::Service(svc) => svc.optimizer(),
        }
    }
}

/// A workload ready to measure.
pub struct Prepared {
    pub workload: Workload,
    pub requests: Vec<Request>,
    pub seed: u64,
    /// Per client, the request indices it sends in one pass; the order is
    /// drawn anew for every pass (see [`Schedule`]).
    pub schedules: Vec<Vec<u32>>,
    pub system: System,
    /// Reference cost per request: DPhyp on the same query (paper
    /// Fig. 15), or the greedy rung's cost on `adaptive-large`.
    pub reference_cost: Vec<f64>,
    /// The warm-up pass's reply per request: the cold run every later
    /// reply is compared with.
    pub warm: Vec<Reply>,
}

impl Prepared {
    /// What client 0 does before every pass: on `serve-sql-hot`, bump the
    /// statistics epoch so each statement's first arrival misses the cache.
    pub fn before_pass(&self) {
        if let (true, Some(svc)) = (self.workload.bumps_epoch(), self.system.service()) {
            svc.bump_stats_epoch();
        }
    }
}

/// SplitMix64: the benchmark's own seeded generator for schedules.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            // The modulo bias is below 2^-50 for these lengths.
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The statements of the SQL corpus, comments stripped.
pub fn sql_statements() -> Vec<String> {
    let code: String = SQL_CORPUS
        .lines()
        .filter(|l| !l.trim_start().starts_with("--"))
        .collect::<Vec<_>>()
        .join("\n");
    code.split(';')
        .map(|s| s.split_whitespace().collect::<Vec<_>>().join(" "))
        .filter(|s| !s.is_empty())
        .collect()
}

/// The frozen request list of `workload`, in index order.
pub fn requests(workload: Workload, optimizer: &Optimizer) -> Vec<Request> {
    match workload {
        Workload::EaPrunePaper => EA_PRUNE_SIZES
            .into_iter()
            .flat_map(|n| (0..EA_PRUNE_SEEDS).map(move |s| (n, s)))
            .map(paper_request)
            .collect(),
        Workload::EaAllPaper => EA_ALL_SIZES
            .into_iter()
            .flat_map(|n| (0..EA_ALL_SEEDS).map(move |s| (n, s)))
            .chain(EA_ALL_N7_SEEDS.into_iter().map(|s| (7, s)))
            .map(paper_request)
            .collect(),
        Workload::ServeSqlHot => sql_statements()
            .into_iter()
            .enumerate()
            .map(|(i, text)| {
                let bound = dpnext::sql::plan(&text, optimizer.catalog())
                    .unwrap_or_else(|e| panic!("corpus statement {i} does not bind: {e}"));
                Request {
                    label: format!("sql{i}"),
                    input: Input::Sql(text),
                    bound: Some(bound),
                }
            })
            .collect(),
        Workload::AdaptiveLarge => ADAPTIVE_TOPOLOGIES
            .into_iter()
            .flat_map(|t| ADAPTIVE_SIZES.into_iter().map(move |n| (t, n)))
            .flat_map(|(t, n)| (0..ADAPTIVE_SEEDS).map(move |s| (t, n, s)))
            .map(|(t, n, s)| {
                Request::generated(
                    format!("{t:?}-n{n}-s{s}").to_lowercase(),
                    generate_query(&GenConfig::topology(n, t), s),
                )
            })
            .collect(),
    }
}

fn paper_request((n, seed): (usize, u64)) -> Request {
    Request::generated(
        format!("paper-n{n}-s{seed}"),
        generate_query(&GenConfig::paper(n), seed),
    )
}

/// Per client, the requests of one pass: client `c` owns the requests with
/// index congruent to `c`, each `repeats` times.
pub fn schedules(workload: Workload, n_requests: usize) -> Vec<Vec<u32>> {
    let clients = workload.clients();
    let repeats = match workload {
        Workload::ServeSqlHot => SQL_REPEATS_PER_EPOCH,
        _ => 1,
    };
    (0..clients)
        .map(|c| {
            (c..n_requests)
                .step_by(clients)
                .flat_map(|i| std::iter::repeat_n(i as u32, repeats))
                .collect()
        })
        .collect()
}

/// One client's request order, drawn anew from `seed` for every pass. A
/// request's latency depends on its predecessor — glibc defers the
/// consolidation of an optimizer run's freed plans to the next allocation
/// of 1 KiB or more, 85 ms after the heaviest `ea-prune-paper` query — so
/// a fixed order would charge the same victim in every pass and make the
/// per-request medians a function of the seed.
pub struct Schedule {
    order: Vec<u32>,
    rng: SplitMix64,
}

impl Schedule {
    pub fn new(requests: &[u32], seed: u64, client: usize) -> Schedule {
        Schedule {
            order: requests.to_vec(),
            rng: SplitMix64(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
        }
    }

    /// The next pass's order.
    pub fn next_pass(&mut self) -> &[u32] {
        self.rng.shuffle(&mut self.order);
        &self.order
    }
}

/// The system a workload drives.
pub fn system(workload: Workload) -> System {
    match workload.service_config() {
        None => System::Facade(workload.optimizer()),
        Some(config) => {
            System::Service(OptimizerService::with_config(workload.optimizer(), config))
        }
    }
}

/// The optimizer whose cost is a request's reference.
pub fn reference_optimizer(workload: Workload) -> Optimizer {
    match workload {
        // The greedy rung alone: a budget of 1 clamps to the greedy floor.
        Workload::AdaptiveLarge => Optimizer::new(Algorithm::Adaptive).plan_budget(1),
        _ => Optimizer::new(Algorithm::DPhyp),
    }
    .explain(false)
    .threads(1)
}

/// Everything `setup_s` times: catalog, request list, reference costs,
/// system construction and one warm-up pass over every distinct request.
pub fn setup(workload: Workload, seed: u64) -> Prepared {
    let system = system(workload);
    let requests = requests(workload, system.optimizer());
    let schedules = schedules(workload, requests.len());
    let reference = reference_optimizer(workload);
    let reference_cost = requests
        .iter()
        .map(|r| reference.optimize(r.query()).plan.cost)
        .collect();
    let warm = requests
        .iter()
        .map(|r| {
            system
                .call(&r.input)
                .unwrap_or_else(|e| panic!("warm-up of {} failed: {e}", r.label))
        })
        .collect();
    Prepared {
        workload,
        requests,
        seed,
        schedules,
        system,
        reference_cost,
        warm,
    }
}

/// A small data instance for the execution oracle. Generated queries get
/// relations of at most 8 rows with their distinct counts cut to 4, so
/// that joins find partners (the paper's statistics would leave every
/// join empty at this size); SQL requests get a scaled TPC-H instance.
pub fn oracle_database(request: &Request, seed: u64) -> dpnext::algebra::Database {
    match &request.bound {
        Some(bound) => {
            let occs: Vec<_> = bound
                .occurrences
                .iter()
                .enumerate()
                .map(|(i, (t, _, m))| (t.as_str(), &bound.query.tables[i], m))
                .collect();
            generate_database(0.0004, seed, &occs)
        }
        None => {
            let mut small = request.query().clone();
            for t in &mut small.tables {
                t.card = t.card.min(8.0);
                for d in &mut t.distinct {
                    *d = d.min(4.0);
                }
            }
            generate_data(&small, 8, 0.1, seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The labels of the first two passes' requests, in sending order.
    fn request_list(p: &Prepared) -> Vec<String> {
        let mut out = Vec::new();
        for (c, requests) in p.schedules.iter().enumerate() {
            let mut schedule = Schedule::new(requests, p.seed, c);
            for _ in 0..2 {
                out.extend(
                    schedule
                        .next_pass()
                        .iter()
                        .map(|&i| p.requests[i as usize].label.clone()),
                );
            }
        }
        out
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Some(w), Workload::from_name(w.name()));
        }
        assert_eq!(None, Workload::from_name("dphyp-dense"));
    }

    #[test]
    fn corpus_has_sixteen_statements_of_two_to_eight_tables() {
        let opt = Optimizer::new(Algorithm::EaPrune);
        let reqs = requests(Workload::ServeSqlHot, &opt);
        assert_eq!(16, reqs.len());
        let sizes: Vec<usize> = reqs.iter().map(Request::relations).collect();
        assert_eq!(Some(&2), sizes.iter().min());
        assert_eq!(Some(&8), sizes.iter().max());
        // Distinct statements bind to distinct queries.
        let mut shapes: Vec<_> = reqs
            .iter()
            .map(|r| format!("{:?}", dpnext_serve::fingerprint_query(r.query())))
            .collect();
        shapes.sort();
        shapes.dedup();
        assert_eq!(16, shapes.len());
    }

    #[test]
    fn request_lists_have_the_frozen_sizes() {
        let opt = Optimizer::new(Algorithm::EaPrune);
        assert_eq!(96, requests(Workload::EaPrunePaper, &opt).len());
        assert_eq!(64 + 7, requests(Workload::EaAllPaper, &opt).len());
        assert_eq!(48, requests(Workload::AdaptiveLarge, &opt).len());
    }

    #[test]
    fn same_seed_same_order_other_seed_other_order() {
        let requests: Vec<u32> = (0..96).collect();
        let passes = |seed, client| {
            let mut s = Schedule::new(&requests, seed, client);
            let (a, b) = (s.next_pass().to_vec(), s.next_pass().to_vec());
            (a, b)
        };
        assert_eq!(passes(7, 0), passes(7, 0));
        assert_ne!(passes(7, 0), passes(8, 0));
        assert_ne!(passes(7, 0), passes(7, 1));
        // Every pass sends the same requests, each pass in a new order.
        let (mut a, mut b) = passes(7, 0);
        assert_ne!(a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(requests, a);
        assert_eq!(requests, b);
    }

    #[test]
    fn serve_sql_hot_splits_the_statements_between_two_clients() {
        let serve = schedules(Workload::ServeSqlHot, 16);
        assert_eq!(2, serve.len());
        assert!(serve.iter().all(|c| c.len() == 8 * SQL_REPEATS_PER_EPOCH));
        assert!(serve[0].iter().all(|i| i % 2 == 0));
        assert!(serve[1].iter().all(|i| i % 2 == 1));
    }

    #[test]
    fn same_seed_gives_identical_deterministic_results() {
        let a = setup(Workload::EaPrunePaper, 3);
        let b = setup(Workload::EaPrunePaper, 3);
        let c = setup(Workload::EaPrunePaper, 4);
        assert_eq!(request_list(&a), request_list(&b));
        assert_ne!(request_list(&a), request_list(&c));
        let bits = |p: &Prepared| -> Vec<(u64, u64, u64)> {
            p.warm
                .iter()
                .map(|r| {
                    let o = r.optimized();
                    (o.plan.cost.to_bits(), o.plans_built, o.memo.live_bytes_peak)
                })
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        // The query set is frozen, so the counts hold for any seed too.
        assert_eq!(bits(&a), bits(&c));
        let refs =
            |p: &Prepared| -> Vec<u64> { p.reference_cost.iter().map(|c| c.to_bits()).collect() };
        assert_eq!(refs(&a), refs(&b));
        let ratio = |p: &Prepared| crate::run::plan_cost_ratio(p).to_bits();
        assert_eq!(ratio(&a), ratio(&b));
    }

    #[test]
    fn ea_all_n7_filter_is_stable() {
        let opt = Optimizer::new(Algorithm::EaAll).explain(false).threads(1);
        let kept: Vec<u64> = (0..8)
            .filter(|&s| {
                let q = generate_query(&GenConfig::paper(7), s);
                opt.optimize(&q).plans_built <= 2_000_000
            })
            .collect();
        assert_eq!(EA_ALL_N7_SEEDS.to_vec(), kept);
    }

    #[test]
    fn oracle_data_lets_joins_find_partners() {
        let opt = Optimizer::new(Algorithm::EaPrune);
        let reqs = requests(Workload::EaPrunePaper, &opt);
        let non_empty = reqs
            .iter()
            .take(24)
            .filter(|r| {
                let db = oracle_database(r, 5);
                !r.query().canonical_plan().eval(&db).is_empty()
            })
            .count();
        assert!(non_empty >= 12, "only {non_empty} of 24 results non-empty");
    }
}
