//! The one resource budget of a [`crate::algo::Search`]: how many plans it may
//! build and until when — one `Copy` value with one check
//! ([`Budget::exhausted_at`]), one way to halve it ([`Budget::split`]) and
//! one cause when it runs out ([`Exhausted`]).

use std::time::Instant;

/// How much of a csg-cmp-pair stream a [`crate::algo::Search`] may consume:
/// one value for the two resources a request can run out of. A resource
/// left `None` is not limited at all — there is no "huge number" standing
/// in for "no limit". `Budget::default()` arms nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Budget {
    /// Most plans (joins + groupings; scans are free) the search may have
    /// constructed in total.
    pub plans: Option<u64>,
    /// Instant from which the search builds nothing more.
    pub deadline: Option<Instant>,
}

/// The resource of a [`Budget`] that ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Exhausted {
    /// The plan limit.
    Plans,
    /// The deadline.
    Deadline,
}

impl Budget {
    /// The limit that stops a search which would have built `plans` plans,
    /// if any: plans before deadline. The clock is read only when a
    /// deadline is armed.
    #[inline]
    pub fn exhausted_at(&self, plans: u64) -> Option<Exhausted> {
        if self.plans.is_some_and(|cap| plans > cap) {
            Some(Exhausted::Plans)
        } else if self.deadline.is_some_and(|dl| Instant::now() >= dl) {
            Some(Exhausted::Deadline)
        } else {
            None
        }
    }

    /// Half of what is left of every armed resource, for a search that has
    /// built `plans_spent` plans: the plan limit moves to the midpoint
    /// between spent and limit (the odd plan goes to this half), the
    /// deadline to the midpoint between now and then. An absent resource
    /// stays absent; a plan limit never drops below what is spent.
    pub fn split(&self, plans_spent: u64) -> Budget {
        let now = Instant::now();
        Budget {
            plans: self
                .plans
                .map(|cap| plans_spent + cap.saturating_sub(plans_spent).div_ceil(2)),
            deadline: self
                .deadline
                .map(|dl| now + dl.saturating_duration_since(now) / 2),
        }
    }
}
