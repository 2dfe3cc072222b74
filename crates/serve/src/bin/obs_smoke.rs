//! Observability smoke for CI: run a faulted 100-request mix against a
//! traced, metered, scrape-served [`OptimizerService`] and fail hard
//! (exit non-zero via panic) on any observability defect — an unclosed
//! span, a registry counter disagreeing with
//! [`ServiceStats`](dpnext_serve::ServiceStats), a histogram count that
//! does not reconcile with the request accounting, or scraped text
//! failing the Prometheus format lint.
//!
//! Usage: `obs_smoke [--trace-out PATH]`. The full span stream is
//! archived as JSON lines (default `OBS_trace.jsonl`) so CI can keep a
//! trace artifact next to `BENCH_smoke.json`. Runs in a few seconds; CI
//! wraps it in `timeout`.

use dpnext::{Algorithm, Optimizer};
use dpnext_obs::{lint_prometheus_text, JsonLinesSink, MetricValue, TraceLevel};
use dpnext_serve::{FaultInjector, OptimizerService, ServeError, ServiceConfig};
use dpnext_workload::{request_mix, MixConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 6;
const SEED: u64 = 42;
const THREADS: usize = 4;
const PER_THREAD: usize = 25;
const TOTAL: usize = THREADS * PER_THREAD;
/// Shapes in the request mix: wide enough that a good share of the 100
/// requests miss the cache and reach the fault schedule (hits bypass
/// it), narrow enough that hits still happen.
const SHAPES: usize = 32;
/// Injected fault rates (per million requests): enough that the 100
/// requests deterministically exercise the panic, slow and
/// memory-pressure paths, few enough that most requests complete.
const PANIC_PPM: u32 = 150_000;
const SLOW_PPM: u32 = 100_000;
const PRESSURE_PPM: u32 = 150_000;
const PRESSURE_BUDGET: u64 = 48 << 10;

fn main() {
    // Injected panics are expected traffic; everything else must stay
    // loud. (Even a silenced escaped panic still aborts the process —
    // the hook only controls the message, not the unwinding.)
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            prev(info);
        }
    }));

    let mut trace_out = "OBS_trace.jsonl".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--trace-out" => trace_out = it.next().expect("missing value for --trace-out"),
            other => panic!("unknown flag {other} (supported: --trace-out PATH)"),
        }
    }

    let sink = Arc::new(JsonLinesSink::create(&trace_out).expect("create trace artifact"));
    dpnext_obs::install_sink(sink.clone());
    dpnext_obs::set_trace_level(TraceLevel::Spans);

    let service = Arc::new(
        OptimizerService::with_config(
            Optimizer::new(Algorithm::EaPrune).explain(false),
            ServiceConfig {
                pool_capacity: THREADS,
                deadline: Some(Duration::from_millis(50)),
                max_concurrent: THREADS,
                max_queued: THREADS,
                metrics_addr: Some("127.0.0.1:0".parse().unwrap()),
                ..ServiceConfig::default()
            },
        )
        .with_fault_injection(
            FaultInjector::new(SEED, PANIC_PPM, SLOW_PPM, Duration::from_micros(50))
                .with_memory_pressure(PRESSURE_PPM, PRESSURE_BUDGET),
        ),
    );
    let server = service
        .serve_metrics()
        .expect("metrics_addr is configured")
        .expect("bind scrape endpoint");

    // The faulted mix: hot traffic from 4 client threads, every outcome
    // tallied so the endpoint's counters can be reconciled exactly.
    let mix = request_mix(&MixConfig::uniform(SHAPES, N), TOTAL, SEED);
    let ok = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    let panicked = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (service, mix, ok, hits, panicked, rejected) =
                (&service, &mix, &ok, &hits, &panicked, &rejected);
            scope.spawn(move || {
                let chunk = &mix.schedule()[t * PER_THREAD..(t + 1) * PER_THREAD];
                for &shape in chunk {
                    match service.optimize(&mix.shapes()[shape]) {
                        Ok(r) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            hits.fetch_add(r.cache_hit as u64, Ordering::Relaxed);
                        }
                        Err(ServeError::Panicked(_)) => {
                            panicked.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected error kind: {e}"),
                    }
                }
            });
        }
    });
    let (ok, hits) = (ok.load(Ordering::Relaxed), hits.load(Ordering::Relaxed));
    let panicked = panicked.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(
        TOTAL as u64,
        ok + panicked + rejected,
        "every request must resolve"
    );
    assert!(
        panicked > 0,
        "15% panic rate over the cache-missing requests went unseen"
    );
    assert!(hits > 0, "repeated shapes must produce cache hits");

    // 1. Span hygiene: everything opened during the run must be closed.
    assert_eq!(
        dpnext_obs::spans_opened(),
        dpnext_obs::spans_closed(),
        "unclosed spans after the faulted mix"
    );

    // 2. Counters must reconcile exactly with what the clients saw and
    //    with ServiceStats (same cells by construction, so any drift here
    //    is a bookkeeping bug on the request path).
    let stats = service.stats();
    assert_eq!(TOTAL as u64, stats.requests, "request counter drifted");
    assert_eq!(panicked, stats.panics, "panic counter drifted");
    assert_eq!(rejected, stats.gate.rejected, "rejection counter drifted");
    assert_eq!(hits, stats.cache.hits, "cache-hit counter drifted");
    let snapshot = service.registry().snapshot();
    assert_eq!(
        stats.requests,
        snapshot.counter_total("dpnext_requests_total")
    );
    assert_eq!(stats.panics, snapshot.counter_total("dpnext_panics_total"));
    assert_eq!(
        stats.cache.hits,
        snapshot.counter_total("dpnext_cache_hits_total")
    );
    assert_eq!(
        stats.gate.admitted,
        snapshot.counter_total("dpnext_gate_admitted_total")
    );

    // 3. Histogram totals: latency counts every return, queue wait every
    //    admission, service time every completed run.
    let hist_count = |name: &str| {
        let family = snapshot
            .family(name)
            .unwrap_or_else(|| panic!("{name} missing from the registry"));
        match family.series[0].1 {
            MetricValue::Histogram(ref h) => h.count,
            ref other => panic!("{name}: expected a histogram, got {other:?}"),
        }
    };
    assert_eq!(
        TOTAL as u64,
        hist_count("dpnext_request_latency_nanos"),
        "latency histogram must observe every request exactly once"
    );
    assert_eq!(
        stats.gate.admitted,
        hist_count("dpnext_queue_wait_nanos"),
        "queue-wait histogram must observe every admitted request"
    );
    assert_eq!(
        stats.gate.admitted - stats.panics,
        hist_count("dpnext_service_time_nanos"),
        "service-time histogram must observe every completed run"
    );

    // 4. The scrape endpoint end to end: real TCP, lint-clean text that
    //    carries the same numbers.
    let text = http_get(&server, "/metrics");
    lint_prometheus_text(&text).expect("scraped /metrics must lint clean");
    let expect = format!("dpnext_requests_total {}", stats.requests);
    assert!(
        text.lines().any(|l| l == expect),
        "scraped text must carry the request total ({expect})"
    );
    let json = http_get(&server, "/stats.json");
    assert_eq!(
        stats.render_json(),
        json.trim_end(),
        "/stats.json must serve the current ServiceStats"
    );

    dpnext_obs::set_trace_level(TraceLevel::Off);
    dpnext_obs::clear_sink();
    sink.flush().expect("flush trace artifact");
    server.stop();
    println!(
        "obs_smoke: OK — {TOTAL} requests ({ok} ok / {panicked} panicked / {rejected} rejected, \
         {hits} cache hits), spans balanced, counters reconciled, trace archived"
    );
}

fn http_get(server: &dpnext_serve::MetricsServer, path: &str) -> String {
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect scrape endpoint");
    conn.write_all(format!("GET {path} HTTP/1.0\r\nHost: smoke\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.0 200"), "GET {path}: {head}");
    body.to_string()
}
