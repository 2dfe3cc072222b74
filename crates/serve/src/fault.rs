//! Deterministic seeded fault injection for the service request path.
//!
//! The panic-isolation and deadline-degradation paths of
//! [`crate::OptimizerService`] only earn their keep if they are exercised
//! — in CI, on every commit, not just when production misbehaves. A
//! [`FaultInjector`] decides per request (by its zero-based index in the
//! service's request counter) whether to inject a **panic** inside the
//! optimizer call or a **slow enumeration** (an artificial per-work-unit
//! busy-wait that forces deadline-pressured requests down the degradation
//! ladder). Decisions are a pure function of `(seed, request index)`, so a
//! test can precompute exactly which of its N requests will fault and
//! assert the service survives all of them.

use std::time::Duration;

/// The fault injected into one request (or [`Fault::None`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the request runs the optimizer untouched.
    None,
    /// Panic inside the optimizer call (after the memo was checked out),
    /// exercising `catch_unwind` isolation and memo quarantine.
    Panic,
    /// Run the optimizer with an injected per-work-unit delay, simulating
    /// a pathologically slow enumeration. Combined with a service
    /// deadline this forces the request down the degradation ladder.
    Slow,
    /// Run the optimizer under an artificially tiny memory budget
    /// ([`FaultInjector::pressure_budget_bytes`]), simulating a request
    /// arriving while the process is out of memory headroom. Forces the
    /// request down the degradation ladder via `memory_aborted`.
    MemoryPressure,
}

/// Seeded per-request fault schedule; see the module docs.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    seed: u64,
    panic_per_million: u32,
    slow_per_million: u32,
    pressure_per_million: u32,
    slow_unit_delay: Duration,
    pressure_budget_bytes: u64,
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
    /// with probability `panic_per_million / 1e6`, runs slow (with
    /// `slow_unit_delay` injected per enumeration work unit) with
    /// probability `slow_per_million / 1e6`, and runs clean otherwise.
    /// The two rates must sum to at most 1 000 000.
    pub fn new(
        seed: u64,
        panic_per_million: u32,
        slow_per_million: u32,
        slow_unit_delay: Duration,
    ) -> FaultInjector {
        assert!(
            panic_per_million as u64 + slow_per_million as u64 <= 1_000_000,
            "fault rates exceed 100%"
        );
        FaultInjector {
            seed,
            panic_per_million,
            slow_per_million,
            pressure_per_million: 0,
            slow_unit_delay,
            pressure_budget_bytes: 0,
            window: None,
        }
    }

    /// Additionally inject [`Fault::MemoryPressure`] with probability
    /// `pressure_per_million / 1e6`: the faulted request runs under a
    /// memory budget of `budget_bytes` live memo bytes. All three rates
    /// together must still sum to at most 1 000 000.
    pub fn with_memory_pressure(
        mut self,
        pressure_per_million: u32,
        budget_bytes: u64,
    ) -> FaultInjector {
        assert!(
            self.panic_per_million as u64
                + self.slow_per_million as u64
                + pressure_per_million as u64
                <= 1_000_000,
            "fault rates exceed 100%"
        );
        assert!(budget_bytes > 0, "pressure budget must be non-zero");
        self.pressure_per_million = pressure_per_million;
        self.pressure_budget_bytes = budget_bytes;
        self
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
            Fault::Slow
        } else if draw < self.panic_per_million + self.slow_per_million + self.pressure_per_million
        {
            Fault::MemoryPressure
        } else {
            Fault::None
        }
    }

    /// The per-work-unit delay a [`Fault::Slow`] request runs under.
    pub fn slow_unit_delay(&self) -> Duration {
        self.slow_unit_delay
    }

    /// The live-byte budget a [`Fault::MemoryPressure`] request runs under.
    pub fn pressure_budget_bytes(&self) -> u64 {
        self.pressure_budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_respects_rates() {
        let inj = FaultInjector::new(7, 100_000, 100_000, Duration::from_micros(10));
        let first: Vec<Fault> = (0..1000).map(|i| inj.fault_for(i)).collect();
        let again: Vec<Fault> = (0..1000).map(|i| inj.fault_for(i)).collect();
        assert_eq!(first, again);
        let panics = first.iter().filter(|f| **f == Fault::Panic).count();
        let slows = first.iter().filter(|f| **f == Fault::Slow).count();
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
    #[should_panic(expected = "exceed 100%")]
    fn overfull_pressure_rate_is_rejected() {
        FaultInjector::new(0, 500_000, 400_000, Duration::ZERO)
            .with_memory_pressure(200_000, 1 << 16);
    }

    #[test]
    fn memory_pressure_draws_and_window_gating() {
        let inj = FaultInjector::new(11, 0, 0, Duration::ZERO)
            .with_memory_pressure(500_000, 64 * 1024)
            .with_window(100, 200);
        assert_eq!(64 * 1024, inj.pressure_budget_bytes());
        assert!(
            (0..100).all(|i| inj.fault_for(i) == Fault::None),
            "faults before the window"
        );
        assert!(
            (200..400).all(|i| inj.fault_for(i) == Fault::None),
            "faults after the window"
        );
        let pressured = (100..200)
            .filter(|i| inj.fault_for(*i) == Fault::MemoryPressure)
            .count();
        // 50% over 100 in-window draws: well within [20%, 80%].
        assert!((20..=80).contains(&pressured), "pressure count {pressured}");
    }
}
