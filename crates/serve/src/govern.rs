//! Admission control for the serving layer: a bounded gate.
//!
//! The gate bounds concurrency; what one request may spend is its own
//! plan budget and deadline, set on the wrapped [`dpnext::Optimizer`],
//! and the memory it holds is booked by the [`crate::MemoPool`] it runs in.
//!
//! **[`AdmissionGate`]** — at most `max_concurrent` requests optimize at
//! once and at most `max_queued` wait for a slot; everyone else is
//! rejected *fast* with [`crate::ServeError::Overloaded`] and a retry hint,
//! instead of piling onto an unbounded queue until every caller times out.

use dpnext_obs::{Counter, Gauge, Registry};
use std::sync::{Arc, Condvar, Mutex};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
