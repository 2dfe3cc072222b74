//! Resource governance for the serving layer: a process-wide byte
//! ledger, a bounded admission gate, and a per-shape circuit breaker.
//!
//! The three pieces bound the three ways heavy traffic kills an
//! optimizer service:
//!
//! * **[`ResourceLedger`]** — global memory accounting. Every memo the
//!   pool knows about (parked *or* checked out) is registered by its
//!   [`dpnext::Memo::footprint_bytes`]; the service's load-shed policy
//!   tightens effective deadlines and memory budgets as the ledger
//!   approaches its cap, so pressure degrades plan quality before it
//!   degrades availability. Quarantined memos are released from the
//!   ledger the moment they are destroyed and tallied in
//!   [`LedgerStats::quarantined_bytes`] — they no longer silently
//!   vanish from the accounting.
//! * **[`AdmissionGate`]** — bounded concurrency. At most
//!   `max_concurrent` requests optimize at once and at most `max_queued`
//!   wait for a slot; everyone else is rejected *fast* with
//!   [`crate::ServeError::Overloaded`] and a retry hint, instead of
//!   piling onto an unbounded queue until every caller times out.
//! * **[`ShapeBreaker`]** — per-shape circuit breaking. A query shape
//!   (the exact [`crate::QueryShape`] fingerprint) that repeatedly
//!   panics or aborts on deadline/memory trips its breaker **open**:
//!   subsequent arrivals of that shape are served straight from the
//!   greedy rung (cheap, never consults the clock) so one pathological
//!   shape cannot poison throughput for everyone. After a cooldown one
//!   arrival runs as a **half-open probe** at full quality; success
//!   closes the breaker, failure re-opens it.

use crate::fingerprint::QueryShape;
use dpnext_obs::{Counter, Gauge, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Point-in-time counters of a [`ResourceLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Bytes currently registered (parked + checked-out memo footprints).
    pub bytes: u64,
    /// High-water mark of registered bytes.
    pub peak: u64,
    /// The configured cap (0 = uncapped; the shed policy never engages).
    pub cap: u64,
    /// Cumulative footprint bytes destroyed via memo quarantine. A
    /// quarantined memo is subtracted from `bytes` exactly when it is
    /// dropped, and its footprint lands here — the regression guard for
    /// quarantines silently vanishing from pool accounting.
    pub quarantined_bytes: u64,
}

/// Process-wide byte accounting across pooled and live memos.
///
/// Registration happens at pool boundaries (checkout registers a fresh
/// memo, check-in re-measures a parked one), so the ledger learns about
/// arena growth at request granularity; per-request memory budgets bound
/// the in-flight growth between those points.
#[derive(Debug, Default)]
pub struct ResourceLedger {
    // Registry-backed cells (PR 10): the gauge's built-in high-water mark
    // replaces the old separate `peak` atomic.
    bytes: Arc<Gauge>,
    cap: u64,
    quarantined_bytes: Arc<Counter>,
}

impl ResourceLedger {
    /// A ledger with a soft cap of `cap` bytes (0 = uncapped). The cap is
    /// the shed policy's reference point, not a hard allocation limit —
    /// enforcement is the per-request memory budget.
    pub fn new(cap: u64) -> ResourceLedger {
        ResourceLedger {
            cap,
            ..ResourceLedger::default()
        }
    }

    /// The configured cap (0 = uncapped).
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// Expose this ledger's cells in `registry` (under `dpnext_ledger_*`;
    /// the byte gauge's `_peak` companion carries the high-water mark).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_gauge(
            "dpnext_ledger_bytes",
            "Memo bytes registered process-wide (parked + checked out).",
            &[],
            self.bytes.clone(),
        );
        registry.register_counter(
            "dpnext_ledger_quarantined_bytes_total",
            "Footprint bytes destroyed via memo quarantine.",
            &[],
            self.quarantined_bytes.clone(),
        );
    }

    /// Register `bytes` more.
    pub fn add(&self, bytes: u64) {
        self.bytes.add(bytes);
    }

    /// Release `bytes` (saturating — a release can never drive the
    /// ledger negative even if an estimate drifted).
    pub fn sub(&self, bytes: u64) {
        self.bytes.sub(bytes);
    }

    /// Tally a quarantined memo's destroyed footprint.
    pub fn record_quarantined(&self, bytes: u64) {
        self.quarantined_bytes.add(bytes);
    }

    /// Bytes currently registered.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Registered bytes as a fraction of the cap; 0.0 when uncapped.
    pub fn utilization(&self) -> f64 {
        if self.cap == 0 {
            return 0.0;
        }
        self.bytes() as f64 / self.cap as f64
    }

    /// Current counters.
    pub fn stats(&self) -> LedgerStats {
        LedgerStats {
            bytes: self.bytes(),
            peak: self.bytes.peak(),
            cap: self.cap,
            quarantined_bytes: self.quarantined_bytes.get(),
        }
    }
}

/// Point-in-time counters of an [`AdmissionGate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Requests that received a permit (immediately or after queueing).
    pub admitted: u64,
    /// Requests rejected fast because both the concurrency slots and the
    /// queue were full.
    pub rejected: u64,
    /// High-water mark of concurrently queued requests — bounded by
    /// `max_queued` by construction; `tests/overload.rs` asserts it under
    /// a synchronized burst.
    pub queued_peak: u64,
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    queued: usize,
}

/// A bounded admission gate: at most `max_concurrent` permits out at
/// once, at most `max_queued` waiters; everyone else is turned away
/// immediately with a retry hint.
#[derive(Debug)]
pub struct AdmissionGate {
    max_concurrent: usize,
    max_queued: usize,
    state: Mutex<GateState>,
    slot_freed: Condvar,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    /// Mirrors `GateState::queued` (updated under the same lock); its
    /// peak is the reported `queued_peak`.
    queued: Arc<Gauge>,
}

/// An admission permit; releasing it (drop) frees the slot and wakes one
/// queued waiter.
#[derive(Debug)]
pub struct GatePermit<'g> {
    gate: &'g AdmissionGate,
}

impl AdmissionGate {
    /// A gate admitting `max_concurrent` requests at once (0 = unlimited,
    /// the gate never blocks or rejects) with a wait queue of `max_queued`.
    pub fn new(max_concurrent: usize, max_queued: usize) -> AdmissionGate {
        AdmissionGate {
            max_concurrent,
            max_queued,
            state: Mutex::new(GateState::default()),
            slot_freed: Condvar::new(),
            admitted: Arc::new(Counter::new()),
            rejected: Arc::new(Counter::new()),
            queued: Arc::new(Gauge::new()),
        }
    }

    /// Expose this gate's cells in `registry` (under `dpnext_gate_*`).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "dpnext_gate_admitted_total",
            "Requests that received an admission permit.",
            &[],
            self.admitted.clone(),
        );
        registry.register_counter(
            "dpnext_gate_rejected_total",
            "Requests rejected fast at a saturated gate.",
            &[],
            self.rejected.clone(),
        );
        registry.register_gauge(
            "dpnext_gate_queued",
            "Requests currently waiting for an admission slot.",
            &[],
            self.queued.clone(),
        );
    }

    /// Try to enter: a permit when a slot is free (or frees up while we
    /// are one of the `max_queued` waiters), or `Err(line_length)` when
    /// the gate is saturated — the number of requests currently active
    /// plus queued (at least 1). The *service* turns the line length into
    /// a retry hint from its measured service-time histogram (p50 × line),
    /// so the hint tracks how fast the line actually drains; standalone
    /// gate users can apply any back-off policy they like to the raw
    /// length.
    pub fn admit(&self) -> Result<GatePermit<'_>, u32> {
        let mut state = self.state.lock().unwrap();
        if self.max_concurrent == 0 || state.active < self.max_concurrent {
            state.active += 1;
            self.admitted.inc();
            return Ok(GatePermit { gate: self });
        }
        if state.queued >= self.max_queued {
            self.rejected.inc();
            let line = (state.active + state.queued) as u32;
            return Err(line.max(1));
        }
        state.queued += 1;
        self.queued.add(1);
        while state.active >= self.max_concurrent {
            state = self.slot_freed.wait(state).unwrap();
        }
        state.queued -= 1;
        self.queued.sub(1);
        state.active += 1;
        self.admitted.inc();
        Ok(GatePermit { gate: self })
    }

    /// Current counters.
    pub fn stats(&self) -> GateStats {
        GateStats {
            admitted: self.admitted.get(),
            rejected: self.rejected.get(),
            queued_peak: self.queued.peak(),
        }
    }
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().unwrap();
        state.active -= 1;
        drop(state);
        self.gate.slot_freed.notify_one();
    }
}

/// Point-in-time counters of a [`ShapeBreaker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed → open transitions (the failure threshold was reached).
    pub trips: u64,
    /// Half-open probes that failed and re-opened the breaker.
    pub reopens: u64,
    /// Requests served from the greedy rung because their shape's breaker
    /// was open.
    pub open_served: u64,
    /// Arrivals promoted to half-open probes (full-quality attempts after
    /// the cooldown).
    pub probes: u64,
    /// Breakers closed by a successful probe.
    pub closes: u64,
    /// Shapes currently open or half-open.
    pub open_shapes: u64,
}

/// What the breaker tells the service to do with one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Run at full quality and report the outcome.
    Closed,
    /// Serve from the greedy rung; do not report (degraded runs say
    /// nothing about whether the shape still fails at full quality).
    Open,
    /// Run at full quality as the half-open probe and report with
    /// `probe = true` — success closes the breaker, failure re-opens it.
    Probe,
}

#[derive(Debug)]
enum EntryState {
    Closed { fails: u32 },
    Open { until: Instant },
    HalfOpen,
}

/// A per-shape circuit breaker keyed by the exact [`QueryShape`]
/// fingerprint. `threshold` consecutive failures (panics or
/// deadline/memory aborts) trip a shape open for `cooldown`; open shapes
/// are served from the greedy rung until a half-open probe succeeds.
#[derive(Debug)]
pub struct ShapeBreaker {
    threshold: u32,
    cooldown: Duration,
    states: Mutex<HashMap<QueryShape, EntryState>>,
    trips: Arc<Counter>,
    reopens: Arc<Counter>,
    open_served: Arc<Counter>,
    probes: Arc<Counter>,
    closes: Arc<Counter>,
}

impl ShapeBreaker {
    /// A breaker tripping after `threshold` consecutive failures of one
    /// shape (0 disables the breaker entirely), staying open for
    /// `cooldown` before allowing a half-open probe.
    pub fn new(threshold: u32, cooldown: Duration) -> ShapeBreaker {
        ShapeBreaker {
            threshold,
            cooldown,
            states: Mutex::new(HashMap::new()),
            trips: Arc::new(Counter::new()),
            reopens: Arc::new(Counter::new()),
            open_served: Arc::new(Counter::new()),
            probes: Arc::new(Counter::new()),
            closes: Arc::new(Counter::new()),
        }
    }

    /// Expose this breaker's cells in `registry` (under
    /// `dpnext_breaker_*`, one `event` label per transition kind).
    pub fn register_metrics(&self, registry: &Registry) {
        for (event, cell) in [
            ("trip", &self.trips),
            ("reopen", &self.reopens),
            ("open_served", &self.open_served),
            ("probe", &self.probes),
            ("close", &self.closes),
        ] {
            registry.register_counter(
                "dpnext_breaker_events_total",
                "Circuit-breaker transitions and degraded servings by kind.",
                &[("event", event)],
                cell.clone(),
            );
        }
    }

    /// Whether the breaker is armed.
    pub fn enabled(&self) -> bool {
        self.threshold > 0
    }

    /// Route one arrival of `shape`. Only failing shapes occupy map
    /// entries (successes remove theirs), so the map stays proportional
    /// to the set of currently misbehaving shapes, not the whole
    /// workload.
    pub fn decide(&self, shape: &QueryShape) -> BreakerDecision {
        if !self.enabled() {
            return BreakerDecision::Closed;
        }
        let mut states = self.states.lock().unwrap();
        match states.get_mut(shape) {
            None | Some(EntryState::Closed { .. }) => BreakerDecision::Closed,
            Some(entry @ EntryState::Open { .. }) => {
                let EntryState::Open { until } = *entry else {
                    unreachable!()
                };
                if Instant::now() < until {
                    self.open_served.inc();
                    BreakerDecision::Open
                } else {
                    *entry = EntryState::HalfOpen;
                    self.probes.inc();
                    BreakerDecision::Probe
                }
            }
            Some(EntryState::HalfOpen) => {
                // A probe is already in flight; stay on the cheap rung.
                self.open_served.inc();
                BreakerDecision::Open
            }
        }
    }

    /// Report the outcome of a full-quality run of `shape` (never called
    /// for [`BreakerDecision::Open`] servings). A success clears the
    /// shape; a failure counts toward the trip threshold, or — for a
    /// probe — re-opens immediately.
    pub fn report(&self, shape: &QueryShape, probe: bool, success: bool) {
        if !self.enabled() {
            return;
        }
        let mut states = self.states.lock().unwrap();
        if success {
            if states.remove(shape).is_some() && probe {
                self.closes.inc();
            }
            return;
        }
        let until = Instant::now() + self.cooldown;
        if probe {
            states.insert(shape.clone(), EntryState::Open { until });
            self.reopens.inc();
            return;
        }
        let entry = states
            .entry(shape.clone())
            .or_insert(EntryState::Closed { fails: 0 });
        match entry {
            EntryState::Closed { fails } => {
                *fails += 1;
                if *fails >= self.threshold {
                    *entry = EntryState::Open { until };
                    self.trips.inc();
                }
            }
            // A non-probe failure while open/half-open (e.g. a racing
            // full-quality run that started before the trip): keep the
            // breaker open, restart the cooldown.
            EntryState::Open { .. } | EntryState::HalfOpen => {
                *entry = EntryState::Open { until };
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> BreakerStats {
        let open_shapes = self
            .states
            .lock()
            .unwrap()
            .values()
            .filter(|s| !matches!(s, EntryState::Closed { .. }))
            .count() as u64;
        BreakerStats {
            trips: self.trips.get(),
            reopens: self.reopens.get(),
            open_served: self.open_served.get(),
            probes: self.probes.get(),
            closes: self.closes.get(),
            open_shapes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpnext_workload::{generate_query, GenConfig};

    #[test]
    fn ledger_add_sub_peak() {
        let ledger = ResourceLedger::new(1000);
        ledger.add(600);
        ledger.add(300);
        ledger.sub(400);
        let s = ledger.stats();
        assert_eq!(500, s.bytes);
        assert_eq!(900, s.peak);
        assert!((ledger.utilization() - 0.5).abs() < 1e-12);
        ledger.sub(10_000); // saturates, never wraps
        assert_eq!(0, ledger.bytes());
    }

    #[test]
    fn gate_unlimited_never_rejects() {
        let gate = AdmissionGate::new(0, 0);
        let a = gate.admit().unwrap();
        let b = gate.admit().unwrap();
        drop((a, b));
        let s = gate.stats();
        assert_eq!((2, 0), (s.admitted, s.rejected));
    }

    #[test]
    fn gate_rejects_over_cap_and_queue() {
        let gate = AdmissionGate::new(1, 0);
        let held = gate.admit().unwrap();
        let err = gate.admit();
        assert!(err.is_err(), "second admit must be rejected fast");
        drop(held);
        assert!(gate.admit().is_ok(), "slot freed on permit drop");
        let s = gate.stats();
        assert_eq!((2, 1), (s.admitted, s.rejected));
    }

    #[test]
    fn breaker_trips_probes_and_closes() {
        let shape = crate::fingerprint_query(&generate_query(&GenConfig::paper(3), 1));
        let breaker = ShapeBreaker::new(2, Duration::from_millis(20));
        assert_eq!(BreakerDecision::Closed, breaker.decide(&shape));
        breaker.report(&shape, false, false);
        assert_eq!(BreakerDecision::Closed, breaker.decide(&shape));
        breaker.report(&shape, false, false); // second consecutive failure: trip
        assert_eq!(BreakerDecision::Open, breaker.decide(&shape));
        assert_eq!(1, breaker.stats().trips);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(BreakerDecision::Probe, breaker.decide(&shape));
        // While the probe is in flight, other arrivals stay degraded.
        assert_eq!(BreakerDecision::Open, breaker.decide(&shape));
        breaker.report(&shape, true, true);
        assert_eq!(BreakerDecision::Closed, breaker.decide(&shape));
        let s = breaker.stats();
        assert_eq!((1, 1, 0), (s.probes, s.closes, s.open_shapes));
    }

    #[test]
    fn breaker_failed_probe_reopens() {
        let shape = crate::fingerprint_query(&generate_query(&GenConfig::paper(3), 2));
        let breaker = ShapeBreaker::new(1, Duration::from_millis(10));
        breaker.report(&shape, false, false);
        assert_eq!(BreakerDecision::Open, breaker.decide(&shape));
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(BreakerDecision::Probe, breaker.decide(&shape));
        breaker.report(&shape, true, false);
        assert_eq!(BreakerDecision::Open, breaker.decide(&shape));
        assert_eq!(1, breaker.stats().reopens);
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let shape = crate::fingerprint_query(&generate_query(&GenConfig::paper(3), 3));
        let breaker = ShapeBreaker::new(2, Duration::from_millis(10));
        breaker.report(&shape, false, false);
        breaker.report(&shape, false, true); // success clears the streak
        breaker.report(&shape, false, false);
        assert_eq!(
            BreakerDecision::Closed,
            breaker.decide(&shape),
            "non-consecutive failures must not trip"
        );
    }
}
