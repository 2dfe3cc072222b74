//! The one resource budget of a [`crate::algo::Search`]: how many plans it may
//! build, until when, and in how many live memo bytes — one `Copy` value
//! with one check ([`Budget::exhausted_at`]), one way to halve it
//! ([`Budget::split`]) and one cause when it runs out ([`Exhausted`]).

use std::time::Instant;

/// How much of a csg-cmp-pair stream a [`crate::algo::Search`] may consume:
/// one value for the three resources a request can run out of. A resource
/// left `None` is not limited at all — there is no "huge number" standing
/// in for "no limit". `Budget::default()` arms nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Budget {
    /// Most plans (joins + groupings; scans are free) the search may have
    /// constructed in total.
    pub plans: Option<u64>,
    /// Instant from which the search builds nothing more.
    pub deadline: Option<Instant>,
    /// Live memo bytes ([`crate::Memo::live_bytes`]) from which the search builds
    /// nothing more.
    pub bytes: Option<u64>,
}

/// The resource of a [`Budget`] that ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exhausted {
    /// The plan limit.
    Plans,
    /// The deadline.
    Deadline,
    /// The byte limit.
    Bytes,
}

impl Budget {
    /// The limit that stops a search which would have built `plans` plans
    /// and holds `live_bytes`, if any: plans before deadline before bytes.
    /// The clock is read only when a deadline is armed.
    #[inline]
    pub fn exhausted_at(&self, plans: u64, live_bytes: u64) -> Option<Exhausted> {
        if self.plans.is_some_and(|cap| plans > cap) {
            Some(Exhausted::Plans)
        } else if self.deadline.is_some_and(|dl| Instant::now() >= dl) {
            Some(Exhausted::Deadline)
        } else if self.bytes.is_some_and(|cap| live_bytes >= cap) {
            Some(Exhausted::Bytes)
        } else {
            None
        }
    }

    /// Half of what is left of every armed resource, for a search that has
    /// built `plans_spent` plans and holds `live_bytes`: the plan limit
    /// moves to the midpoint between spent and limit (the odd plan goes to
    /// this half), the deadline to the midpoint between now and then, the
    /// byte limit to the midpoint between live and limit. An absent
    /// resource stays absent; a plan limit never drops below what is spent.
    pub fn split(&self, plans_spent: u64, live_bytes: u64) -> Budget {
        let now = Instant::now();
        let left = |cap: u64, used: u64| cap.saturating_sub(used);
        Budget {
            plans: self
                .plans
                .map(|cap| plans_spent + left(cap, plans_spent).div_ceil(2)),
            deadline: self
                .deadline
                .map(|dl| now + dl.saturating_duration_since(now) / 2),
            bytes: self.bytes.map(|cap| live_bytes + left(cap, live_bytes) / 2),
        }
    }
}
