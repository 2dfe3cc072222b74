//! Deterministic seeded fault injection for the service request path.
//!
//! The panic-isolation path of [`crate::OptimizerService`], and the gate
//! and pool under a request that holds them for a while, only earn their
//! keep if they are exercised — in CI, on every commit, not just when
//! production misbehaves. A [`FaultInjector`] decides per request (by its
//! zero-based index in the service's request counter) whether to inject a
//! **panic** inside the optimizer call or a **stall** before it. A fault is
//! only ever something the production path never does on purpose: a tight
//! deadline or a small plan budget is a limit, and is set on the
//! [`dpnext::Optimizer`] the service wraps. Decisions are a pure function of
//! `(seed, request index)`, so a test can precompute exactly which of its N
//! requests will fault and assert the service survives all of them.

use std::time::Duration;

/// The fault injected into one request (or [`Fault::None`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the request runs the optimizer untouched.
    None,
    /// Panic inside the optimizer call (after the memo was checked out),
    /// exercising `catch_unwind` isolation and memo quarantine.
    Panic,
    /// Sleep this long in the run stage, holding the request's admission
    /// permit and pooled memo, then run the optimizer under its own limits
    /// — for every algorithm.
    Slow(Duration),
}

/// Seeded per-request fault schedule; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    seed: u64,
    panic_per_million: u32,
    slow_per_million: u32,
    stall: Duration,
    /// Faults fire only for request indices in `[start, end)`; `None` =
    /// always armed. Lets a test fault a prefix (or any span) of its
    /// requests and run the rest clean.
    window: Option<(u64, u64)>,
}

/// SplitMix64 finalizer: one well-mixed word per input.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// A schedule drawing from `seed`: each request independently panics
    /// with probability `panic_per_million / 1e6`, stalls for `stall`
    /// before its optimizer call with probability `slow_per_million / 1e6`,
    /// and runs clean otherwise. The two rates must sum to at most
    /// 1 000 000.
    pub fn new(
        seed: u64,
        panic_per_million: u32,
        slow_per_million: u32,
        stall: Duration,
    ) -> FaultInjector {
        assert!(
            panic_per_million as u64 + slow_per_million as u64 <= 1_000_000,
            "fault rates exceed 100%"
        );
        FaultInjector {
            seed,
            panic_per_million,
            slow_per_million,
            stall,
            window: None,
        }
    }

    /// Restrict the schedule to request indices in `[start, end)`;
    /// requests outside the window always run clean, so a test can fault
    /// the first K requests (or skip them) and know the rest are clean.
    pub fn with_window(mut self, start: u64, end: u64) -> FaultInjector {
        assert!(start < end, "empty fault window");
        self.window = Some((start, end));
        self
    }

    /// The fault injected into request number `request` (the service's
    /// zero-based request counter). Pure: tests precompute the schedule.
    pub fn fault_for(&self, request: u64) -> Fault {
        if let Some((start, end)) = self.window {
            if request < start || request >= end {
                return Fault::None;
            }
        }
        let draw = (mix(self.seed ^ mix(request)) % 1_000_000) as u32;
        if draw < self.panic_per_million {
            Fault::Panic
        } else if draw < self.panic_per_million + self.slow_per_million {
            Fault::Slow(self.stall)
        } else {
            Fault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_respects_rates() {
        let stall = Duration::from_micros(10);
        let inj = FaultInjector::new(7, 100_000, 100_000, stall);
        let first: Vec<Fault> = (0..1000).map(|i| inj.fault_for(i)).collect();
        let again: Vec<Fault> = (0..1000).map(|i| inj.fault_for(i)).collect();
        assert_eq!(first, again);
        let panics = first.iter().filter(|f| **f == Fault::Panic).count();
        let slows = first.iter().filter(|f| **f == Fault::Slow(stall)).count();
        // 10% each over 1000 draws: both must land well within [2%, 25%].
        assert!((20..=250).contains(&panics), "panic count {panics}");
        assert!((20..=250).contains(&slows), "slow count {slows}");
    }

    #[test]
    fn zero_rates_never_fault() {
        let inj = FaultInjector::new(3, 0, 0, Duration::ZERO);
        assert!((0..10_000).all(|i| inj.fault_for(i) == Fault::None));
    }

    #[test]
    #[should_panic(expected = "exceed 100%")]
    fn overfull_rates_are_rejected() {
        FaultInjector::new(0, 600_000, 600_000, Duration::ZERO);
    }

    #[test]
    fn slow_draws_and_window_gating() {
        let stall = Duration::from_millis(3);
        let inj = FaultInjector::new(11, 0, 500_000, stall).with_window(100, 200);
        assert!(
            (0..100).all(|i| inj.fault_for(i) == Fault::None),
            "faults before the window"
        );
        assert!(
            (200..400).all(|i| inj.fault_for(i) == Fault::None),
            "faults after the window"
        );
        let stalled = (100..200)
            .filter(|i| inj.fault_for(*i) == Fault::Slow(stall))
            .count();
        // 50% over 100 in-window draws: well within [20%, 80%].
        assert!((20..=80).contains(&stalled), "stall count {stalled}");
    }
}
