//! The phases of a ladder request as its trace shows them: the context
//! (`core.context`), then the rungs below `adaptive.optimize`, with the
//! exact rung's gate (`adaptive.gate`, the capped csg-cmp-pair count) a
//! span of its own inside `adaptive.rung.exact`, so that a refusal's time
//! is the gate's and not the rung's.
//!
//! Its own file on purpose: it installs a process-global [`RingSink`],
//! which the spans of another file's concurrent tests would reach.

use dpnext_core::{optimize_into, Algorithm, Memo, OptContext, OptimizeOptions};
use dpnext_hypergraph::ccp_lower_bound;
use dpnext_obs::{RingSink, SpanRecord, TagValue};
use dpnext_workload::{generate_query, GenConfig, Topology};
use std::sync::Arc;

/// The spans of one ladder request on `topology(20, t)` seed 0, under the
/// benchmark's plan budget, and the lower bound the gate checks first.
fn traced(t: Topology) -> (Vec<SpanRecord>, u64) {
    let query = generate_query(&GenConfig::topology(20, t), 0);
    let bound = ccp_lower_bound(&OptContext::new(&query).cq.graph);
    let opts = OptimizeOptions {
        plan_budget: 50_000,
        ..OptimizeOptions::default()
    };
    let sink = Arc::new(RingSink::new(256));
    dpnext_obs::install_sink(sink.clone());
    optimize_into(&query, Algorithm::Adaptive, &opts, &mut Memo::new());
    dpnext_obs::clear_sink();
    (sink.take(), bound)
}

/// The one span named `name`.
fn one<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    let mut named = spans.iter().filter(|s| s.name == name);
    let span = named.next().unwrap_or_else(|| panic!("no {name} span"));
    assert!(named.next().is_none(), "two {name} spans");
    span
}

fn u64_tag(span: &SpanRecord, key: &str) -> Option<u64> {
    match span.tag(key)? {
        TagValue::U64(v) => Some(*v),
        other => panic!("{} tag {key} is {other:?}", span.name),
    }
}

fn str_tag<'a>(span: &'a SpanRecord, key: &str) -> &'a str {
    match span.tag(key) {
        Some(TagValue::Str(v)) => v,
        other => panic!("{} tag {key} is {other:?}", span.name),
    }
}

/// The context is built before the ladder starts, and the gate sits
/// inside the exact rung: on `star(20)` it walks (the spanning-forest
/// bound alone does not refuse) and refuses, so the rung is gated and
/// walks nothing; on `clique(20)` it admits, tagged with the pairs it
/// counted, and the rung's walk follows it.
#[test]
fn the_gate_and_the_context_are_spans_of_their_own() {
    let (star, bound) = traced(Topology::Star);
    let (clique, _) = traced(Topology::Clique);
    for spans in [&star, &clique] {
        let context = one(spans, "core.context");
        let ladder = one(spans, "adaptive.optimize");
        assert_eq!(0, context.parent, "a request's context is a root here");
        assert!(context.end_nanos <= ladder.start_nanos);
        let gate = one(spans, "adaptive.gate");
        assert_eq!(one(spans, "adaptive.rung.exact").id, gate.parent);
    }

    let gate = one(&star, "adaptive.gate");
    let cap = u64_tag(gate, "cap").expect("the gate names its cap");
    assert!(
        bound <= cap,
        "star(20): refused by the bound alone, unwalked"
    );
    assert_eq!("true", str_tag(gate, "gated"));
    assert_eq!(None, u64_tag(gate, "pairs"));
    let rung = one(&star, "adaptive.rung.exact");
    assert_eq!("budget-gated", str_tag(rung, "outcome"));
    assert!(star.iter().all(|s| s.name != "engine.enumerate"));

    let gate = one(&clique, "adaptive.gate");
    let cap = u64_tag(gate, "cap").expect("the gate names its cap");
    assert_eq!("false", str_tag(gate, "gated"));
    let pairs = u64_tag(gate, "pairs").expect("an admitting gate counts");
    assert!(
        0 < pairs && pairs <= cap,
        "{pairs} pairs under a cap of {cap}"
    );
    let walk = one(&clique, "engine.enumerate");
    assert_eq!(one(&clique, "adaptive.rung.exact").id, walk.parent);
    assert!(gate.end_nanos <= walk.start_nanos);
}
