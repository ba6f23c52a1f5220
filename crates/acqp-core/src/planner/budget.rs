//! Cooperative planning budgets and search reports.
//!
//! Plan search is worst-case exponential (#P-hard, Thm 3.1), so both
//! conditional planners accept an effort budget: a cap on expanded
//! subproblems and an optional wall-clock deadline. The budget is
//! *cooperative* — the search consults its [`SearchLimits`] before
//! expanding a subproblem, and once it is exhausted the search
//! degrades gracefully: open subproblems are closed with the best
//! sequential plan found so far, and the result is flagged as truncated.
//!
//! Truncation trades optimality for latency, never validity: a truncated
//! plan still computes `φ` exactly on every tuple, and its expected cost
//! is at least the optimum's (see `tests/plan_search.rs`).

use std::cell::Cell;
use std::time::{Duration, Instant};

use crate::plan::Plan;

/// How far down the fallback ladder a plan came from (§ DESIGN.md §10).
///
/// The ladder `Exhaustive → GreedyPlan → GreedySeq → Naive` trades plan
/// quality for robustness: each rung needs strictly less machinery (and
/// less trust in the estimator) than the one above, and the bottom rung
/// is a pure function of the schema that cannot fail. Every level yields
/// an *executable, correct* plan — degradation affects expected cost
/// only, never answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DegradationLevel {
    /// The primary (exhaustive dynamic-program) search succeeded.
    #[default]
    None,
    /// The exhaustive search was unavailable (panic, budget exhausted)
    /// and the greedy conditional planner produced the plan.
    GreedyPlan,
    /// Conditional planning was unavailable; the greedy sequential
    /// ordering (§4.1.2) produced the plan.
    GreedySeq,
    /// Even sequential optimization was unavailable; the plan is the
    /// naive cost-ordered predicate sequence, built without consulting
    /// an estimator at all.
    Naive,
}

impl DegradationLevel {
    /// Stable lower-case label used in the `fallback.*` obs taxonomy and
    /// CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationLevel::None => "none",
            DegradationLevel::GreedyPlan => "greedy_plan",
            DegradationLevel::GreedySeq => "greedy_seq",
            DegradationLevel::Naive => "naive",
        }
    }
}

/// The outcome of a plan search: the plan plus how the search went.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The produced conditional plan.
    pub plan: Plan,
    /// The plan's expected cost under the estimator's model.
    pub expected_cost: f64,
    /// Subproblems expanded (exhaustive) or leaf expansions applied
    /// (greedy) during the search.
    pub subproblems: usize,
    /// Whether the search hit its subproblem cap or deadline and closed
    /// remaining work with sequential fallbacks. Untruncated exhaustive
    /// results are provably optimal under their split grid.
    pub truncated: bool,
    /// Panics the [`super::FallbackPlanner`] caught while descending
    /// its ladder (each abandons one rung). The plan is still valid — a
    /// lower rung produced it — but a nonzero count flags that the
    /// process survived something abnormal. Planners invoked directly
    /// always report 0.
    pub worker_panics: usize,
    /// Which rung of the fallback ladder produced this plan. Planners
    /// invoked directly always report [`DegradationLevel::None`]; the
    /// [`super::FallbackPlanner`] records how far it had to descend.
    pub degradation: DegradationLevel,
}

/// Effort accounting for one plan search.
#[derive(Debug)]
pub(crate) struct SearchLimits {
    max_subproblems: usize,
    deadline: Option<Instant>,
    used: Cell<usize>,
    truncated: Cell<bool>,
}

/// How many subproblem expansions pass between deadline polls. Reading
/// the monotonic clock is a vsyscall — cheap, but not free on a path
/// taken millions of times — so the deadline is only consulted on every
/// 64th expansion (the attempt counter is already maintained for the
/// subproblem cap). At worst a search overruns its deadline by 63
/// subproblems' work; once tripped, every later call denies immediately.
const DEADLINE_CHECK_INTERVAL: usize = 64;

impl SearchLimits {
    pub(crate) fn new(max_subproblems: usize, budget: Option<Duration>) -> Self {
        SearchLimits {
            max_subproblems,
            deadline: budget.map(|d| Instant::now() + d),
            used: Cell::new(0),
            truncated: Cell::new(false),
        }
    }

    /// Claims one subproblem expansion. Returns `false` (and marks the
    /// search truncated) when the cap or deadline has been reached; the
    /// caller must then close its subproblem with a fallback plan.
    pub(crate) fn try_expand(&self) -> bool {
        let n = self.used.get();
        self.used.set(n + 1);
        if self.truncated.get() {
            return false;
        }
        let deadline_hit = n.is_multiple_of(DEADLINE_CHECK_INTERVAL)
            && self.deadline.is_some_and(|d| Instant::now() >= d);
        if n >= self.max_subproblems || deadline_hit {
            self.truncated.set(true);
            return false;
        }
        true
    }

    /// Expansions attempted so far (successful or denied).
    pub(crate) fn used(&self) -> usize {
        self.used.get()
    }

    pub(crate) fn truncated(&self) -> bool {
        self.truncated.get()
    }
}

/// A monotonic deadline for best-so-far search loops.
///
/// The greedy planner stops *improving* its plan when the deadline
/// passes — expiry never invalidates work already done. Keeping the
/// clock reads in this module confines wall-clock access to the one
/// place where it may only truncate a search, never reorder it
/// (enforced by acqp-lint's `wallclock-in-planner` rule).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline `budget` from now; `None` never expires.
    pub(crate) fn after(budget: Option<Duration>) -> Self {
        Deadline(budget.map(|d| Instant::now() + d))
    }

    /// Whether the deadline has passed.
    pub(crate) fn expired(&self) -> bool {
        self.0.is_some_and(|d| Instant::now() >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_denies_after_limit() {
        let l = SearchLimits::new(3, None);
        assert!(l.try_expand());
        assert!(l.try_expand());
        assert!(l.try_expand());
        assert!(!l.truncated());
        assert!(!l.try_expand());
        assert!(l.truncated());
        assert_eq!(l.used(), 4);
    }

    #[test]
    fn expired_deadline_denies_immediately() {
        let l = SearchLimits::new(usize::MAX, Some(Duration::ZERO));
        assert!(!l.try_expand());
        assert!(l.truncated());
    }

    /// The deadline is only polled every `DEADLINE_CHECK_INTERVAL`
    /// expansions, but truncation must still fire — on attempt 0 (the
    /// first poll) and then stick for every later attempt, so an expired
    /// deadline can never leak more than one polling window of work.
    #[test]
    fn coarse_deadline_polling_still_truncates_and_sticks() {
        let l = SearchLimits::new(usize::MAX, Some(Duration::ZERO));
        for i in 0..(3 * DEADLINE_CHECK_INTERVAL) {
            assert!(!l.try_expand(), "attempt {i} granted after deadline expiry");
        }
        assert!(l.truncated());
        assert_eq!(l.used(), 3 * DEADLINE_CHECK_INTERVAL);
    }

    /// A deadline that expires mid-search trips at the next polling
    /// point: grants can continue for at most one interval afterwards.
    #[test]
    fn mid_search_expiry_trips_within_one_interval() {
        let l = SearchLimits::new(usize::MAX, Some(Duration::from_millis(5)));
        // Burn past the first polling point while the deadline is live.
        for _ in 0..10 {
            assert!(l.try_expand());
        }
        std::thread::sleep(Duration::from_millis(10));
        let granted_after_expiry =
            (0..2 * DEADLINE_CHECK_INTERVAL).filter(|_| l.try_expand()).count();
        assert!(
            granted_after_expiry < DEADLINE_CHECK_INTERVAL,
            "deadline ignored for {granted_after_expiry} expansions"
        );
        assert!(l.truncated());
        assert!(!l.try_expand());
    }
}
