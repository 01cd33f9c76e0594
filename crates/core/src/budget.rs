//! Run budgets: draw caps, wall-clock deadlines, cooperative cancellation,
//! and honest *achieved* `(ε′, δ)` reporting for interrupted runs.
//!
//! The FPRAS drivers of [`crate::fpras`] run to convergence by default —
//! the Dagum–Karp–Luby–Ross stopping rule draws until every query reaches
//! its success target `Υ(ε, δ/k)`.  A [`RunBudget`] bounds that loop from
//! the outside: a hard cap on the number of draws, a wall-clock deadline
//! read from an injectable [`Clock`], and a cooperative [`CancelToken`]
//! that another thread (or a test) can trip at any time.  An interrupted
//! run does not abort — it returns an [`EstimateOutcome`] carrying, per
//! query, the partial estimate, the draws it observed, a
//! [`BudgetStatus`], and the **achieved** error bound obtained by
//! inverting the stopping-rule target at the actual success count
//! ([`achieved_relative_epsilon`]) and the Hoeffding bound at the actual
//! draw count ([`achieved_additive_epsilon`]).  Queries that converged
//! before the interruption keep their converged values; only the live
//! ones degrade.
//!
//! Budget checks consume **no randomness**: the RNG is touched only by
//! the shared repair draw, so a budget whose limits are never reached is
//! bit-identical to [`RunBudget::unlimited`] under the same seed, and a
//! cancelled run that is *resumed* with the same RNG continues the very
//! same sample stream (pass it as the `prior` of
//! [`crate::fpras::BatchEstimator::estimate_with_bank`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ucqa_query::CompileBudget;

/// A monotone source of elapsed time, injectable so that deadlines are
/// testable (and so the chaos harness can skew them).
///
/// Implementations must be cheap to query — the estimation loops consult
/// the clock every [`RunBudget::with_check_interval`] draws.
pub trait Clock: Send + Sync {
    /// Time elapsed since the clock's epoch (its construction, for the
    /// provided implementations).
    fn elapsed(&self) -> Duration;
}

/// The real wall clock: elapsed time since construction, via
/// [`std::time::Instant`].
#[derive(Debug, Clone)]
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    pub fn start_now() -> Self {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::start_now()
    }
}

impl Clock for SystemClock {
    fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// A hand-driven clock for tests: time advances only when
/// [`ManualClock::advance`] is called.  Shared behind an [`Arc`], it lets
/// a test fire a deadline at an exact draw index.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock stopped at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    /// Advances the clock by `by`.
    pub fn advance(&self, by: Duration) {
        self.nanos.fetch_add(
            by.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Sets the clock to an absolute elapsed time.
    pub fn set(&self, elapsed: Duration) {
        self.nanos.store(
            elapsed.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }
}

impl Clock for ManualClock {
    fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// A cooperative cancellation handle backed by an [`AtomicBool`].
///
/// Clones share the flag: hand one clone to the estimation loop (inside a
/// [`RunBudget`]) and keep the other to [`CancelToken::cancel`] from
/// another thread.  For deterministic tests the token can additionally be
/// armed to trip itself at an exact draw index
/// ([`CancelToken::tripped_at_draw`]) — cancellation then consumes no
/// wall-clock and no randomness, so the truncation point is reproducible.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    trip_at_draw: Option<u64>,
}

impl CancelToken {
    /// A token that cancels only when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally trips itself as soon as `draws` draws
    /// have been consumed (the interrupted run performs *exactly* `draws`
    /// draws, which is what makes resume tests bit-reproducible).
    pub fn tripped_at_draw(draws: u64) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            trip_at_draw: Some(draws),
        }
    }

    /// Requests cancellation; every loop sharing this token's flag stops
    /// at its next budget check.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested (by [`CancelToken::cancel`]
    /// or by an armed draw-index trip) once `draws` draws have happened.
    pub fn is_cancelled(&self, draws: u64) -> bool {
        self.flag.load(Ordering::Relaxed) || self.trip_at_draw.is_some_and(|at| draws >= at)
    }

    /// The shared flag, for adapters that cannot depend on this crate
    /// (e.g. the compile-time budget of `ucqa-query`).
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// How a budgeted run (or one query of it) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetStatus {
    /// The query reached its success target (or the fixed-sample run
    /// completed): the requested `(ε, δ)` guarantee applies.
    Converged,
    /// A draw cap (the budget's or the estimator's own `max_samples`) or
    /// the wall-clock deadline stopped the run first; the estimate is the
    /// empirical mean and only the achieved bound applies.
    BudgetExhausted,
    /// The [`CancelToken`] was tripped; the estimate is the empirical mean
    /// and only the achieved bound applies.
    Cancelled,
}

impl BudgetStatus {
    /// `true` for [`BudgetStatus::Converged`].
    pub fn is_converged(self) -> bool {
        matches!(self, BudgetStatus::Converged)
    }
}

/// An externally imposed bound on an estimation run: a cap on draws, a
/// wall-clock deadline against an injectable [`Clock`], and a cooperative
/// [`CancelToken`] — any combination, including none
/// ([`RunBudget::unlimited`]).
///
/// Budget checks happen *between* draws and consume no randomness, so an
/// unlimited budget leaves every estimator entry point bit-identical to
/// its un-budgeted counterpart under a fixed seed.  Cancellation and the
/// draw cap are checked on every draw; the clock is consulted every
/// [`RunBudget::with_check_interval`] draws (default 1024) to keep the
/// per-draw overhead to two branches.
///
/// ```
/// use std::time::Duration;
/// use ucqa_core::budget::{CancelToken, RunBudget};
///
/// let cancel = CancelToken::new();
/// let budget = RunBudget::unlimited()
///     .with_max_draws(1_000_000)
///     .with_deadline(Duration::from_millis(250))
///     .with_cancel_token(cancel.clone());
/// // ... hand `budget` to an estimator, keep `cancel` to stop it early.
/// # let _ = budget;
/// ```
#[derive(Clone, Default)]
pub struct RunBudget {
    max_draws: Option<u64>,
    deadline: Option<Duration>,
    clock: Option<Arc<dyn Clock>>,
    cancel: Option<CancelToken>,
    check_interval: Option<u64>,
    max_compile_steps: Option<u64>,
}

impl std::fmt::Debug for RunBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunBudget")
            .field("max_draws", &self.max_draws)
            .field("deadline", &self.deadline)
            .field("has_clock", &self.clock.is_some())
            .field("has_cancel", &self.cancel.is_some())
            .field("check_interval", &self.check_interval())
            .field("max_compile_steps", &self.max_compile_steps)
            .finish()
    }
}

impl RunBudget {
    /// Default number of draws between two clock reads.
    pub const DEFAULT_CHECK_INTERVAL: u64 = 1024;

    /// No constraints: budgeted entry points behave bit-identically to
    /// their un-budgeted counterparts.
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Caps the **total** number of draws (for resumed runs this counts
    /// the whole stream, prior segments included, consistent with the
    /// estimators' own `max_samples` cut-offs).
    pub fn with_max_draws(mut self, max_draws: u64) -> Self {
        self.max_draws = Some(max_draws);
        self
    }

    /// Imposes a wall-clock deadline, measured by a [`SystemClock`]
    /// starting now.
    pub fn with_deadline(self, deadline: Duration) -> Self {
        self.with_deadline_and_clock(deadline, Arc::new(SystemClock::start_now()))
    }

    /// Imposes a deadline against an injected clock (a [`ManualClock`] in
    /// tests, a skewed clock in the chaos harness).
    pub fn with_deadline_and_clock(mut self, deadline: Duration, clock: Arc<dyn Clock>) -> Self {
        self.deadline = Some(deadline);
        self.clock = Some(clock);
        self
    }

    /// Attaches a cancellation token (clones share the flag).
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Overrides how many draws pass between two deadline checks
    /// (clamped to at least 1).  Cancellation and the draw cap are
    /// checked on every draw regardless.
    pub fn with_check_interval(mut self, interval: u64) -> Self {
        self.check_interval = Some(interval.max(1));
        self
    }

    /// Caps the number of enumeration steps of bank compilation (in
    /// [`crate::fpras::BatchEstimator::estimate_batch_with_budget`] and
    /// the other entry points that compile under a budget):
    /// a pathological bank degrades to per-draw evaluator fallback
    /// instead of stalling before sampling even starts.
    pub fn with_max_compile_steps(mut self, steps: u64) -> Self {
        self.max_compile_steps = Some(steps);
        self
    }

    /// `true` iff no constraint is set (the budget can never interrupt).
    pub fn is_unlimited(&self) -> bool {
        self.max_draws.is_none() && self.deadline.is_none() && self.cancel.is_none()
    }

    /// The deadline-check stride.
    pub fn check_interval(&self) -> u64 {
        self.check_interval.unwrap_or(Self::DEFAULT_CHECK_INTERVAL)
    }

    /// The compile-step cap, as a [`CompileBudget`] for `ucqa-query`,
    /// sharing this budget's cancellation flag so a [`CancelToken`] also
    /// interrupts bank compilation.
    pub fn compile_budget(&self) -> CompileBudget {
        let mut budget = CompileBudget::unlimited();
        if let Some(steps) = self.max_compile_steps {
            budget = budget.with_max_steps(steps);
        }
        if let Some(cancel) = &self.cancel {
            budget = budget.with_cancel_flag(cancel.flag());
        }
        budget
    }

    /// Polls the budget after `draws` draws: `None` to keep going, or the
    /// status the interrupted entries should report.  Consumes no
    /// randomness.
    pub fn check(&self, draws: u64) -> Option<BudgetStatus> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled(draws) {
                return Some(BudgetStatus::Cancelled);
            }
        }
        if let Some(max_draws) = self.max_draws {
            if draws >= max_draws {
                return Some(BudgetStatus::BudgetExhausted);
            }
        }
        if let (Some(deadline), Some(clock)) = (&self.deadline, &self.clock) {
            if draws.is_multiple_of(self.check_interval()) && clock.elapsed() >= *deadline {
                return Some(BudgetStatus::BudgetExhausted);
            }
        }
        None
    }
}

/// The error bound a (possibly interrupted) run actually achieved, at its
/// actual draw and success counts.
///
/// The requested `(ε, δ)` guarantee of the stopping rule only applies to
/// entries that reached their success target.  For the others this struct
/// reports what the observed counts *do* support: the relative error
/// obtained by inverting the Dagum–Karp–Luby–Ross target at the achieved
/// success count, and the additive error obtained by inverting the
/// Hoeffding sample bound at the achieved draw count.  For a converged
/// entry the relative inversion recovers (up to the target's ceiling) the
/// requested `ε`, so the field is also a uniform way to read "how tight
/// did this entry get".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AchievedBound {
    /// Relative error `ε′` such that the achieved success count equals
    /// the DKLR target `Υ(ε′, δ)` — `None` when fewer than two successes
    /// were observed (the inversion is undefined there).
    pub relative_epsilon: Option<f64>,
    /// Additive error `ε′ = sqrt(ln(2/δ) / (2·N))` at the achieved draw
    /// count `N` (Hoeffding inversion); `+∞` when no draws happened.
    pub additive_epsilon: f64,
    /// The failure probability both inversions are computed against (the
    /// per-query `δ/k` of a batched run).
    pub delta: f64,
}

impl AchievedBound {
    /// The bound achieved at `samples` draws with `successes` successes,
    /// against failure probability `delta`.
    pub fn at(samples: u64, successes: u64, delta: f64) -> Self {
        AchievedBound {
            relative_epsilon: achieved_relative_epsilon(successes, delta),
            additive_epsilon: achieved_additive_epsilon(samples, delta),
            delta,
        }
    }
}

/// Inverts the Dagum–Karp–Luby–Ross success target at an achieved success
/// count: the `ε′` with `Υ(ε′, δ) = 1 + 4(e−2)(1+ε′)·ln(2/δ)/ε′² =
/// successes`.
///
/// Writing `c = 4(e−2)·ln(2/δ)`, the target equation rearranges to the
/// quadratic `(S−1)·ε′² − c·ε′ − c = 0` whose positive root is
/// `ε′ = (c + sqrt(c² + 4c(S−1))) / (2(S−1))`.  Returns `None` for
/// `S ≤ 1` (no inversion exists) and values above 1 unclamped — a bound
/// with `ε′ ≥ 1` is honest ("nothing useful yet"), not an error.
pub fn achieved_relative_epsilon(successes: u64, delta: f64) -> Option<f64> {
    if successes <= 1 || !(delta > 0.0 && delta < 1.0) {
        return None;
    }
    let c = 4.0 * (std::f64::consts::E - 2.0) * (2.0 / delta).ln();
    let s = (successes - 1) as f64;
    Some((c + (c * c + 4.0 * c * s).sqrt()) / (2.0 * s))
}

/// Inverts the Hoeffding sample bound at an achieved draw count: the
/// additive error `ε′ = sqrt(ln(2/δ) / (2·N))` for which `N` draws
/// suffice (the inverse of [`crate::bounds::samples_for_additive_error`]).
/// Returns `+∞` for `N = 0` and for degenerate `δ ∉ (0, 1)` — mirroring
/// [`achieved_relative_epsilon`]'s guard, so a nonsensical failure
/// probability reports "no bound" instead of a NaN (for `δ < 0` the `ln`
/// would go imaginary; for `δ ≥ 2` the square root would).
pub fn achieved_additive_epsilon(samples: u64, delta: f64) -> f64 {
    if samples == 0 || !(delta > 0.0 && delta < 1.0) {
        return f64::INFINITY;
    }
    ((2.0 / delta).ln() / (2.0 * samples as f64)).sqrt()
}

/// One query of a budgeted estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutcome {
    /// The estimate: `target/N` for a converged stopping-rule entry, the
    /// plain empirical mean otherwise.
    pub estimate: f64,
    /// Draws this query observed before converging (or the full stream
    /// length if it never did).
    pub samples: u64,
    /// Successes among them.
    pub successes: u64,
    /// How this entry ended.  Retired entries keep
    /// [`BudgetStatus::Converged`] even when the run was interrupted
    /// later — their values are final.
    pub status: BudgetStatus,
    /// The error bound the observed counts achieve (see
    /// [`AchievedBound`]).
    pub achieved: AchievedBound,
}

/// The result of a budgeted estimation run: per-query partial estimates,
/// the shared stream length, and how the run ended.
///
/// Returned by every estimation entry point of
/// [`crate::fpras::OcqaEstimator`] and [`crate::fpras::BatchEstimator`].
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateOutcome {
    /// One outcome per query, in input order.
    pub queries: Vec<QueryOutcome>,
    /// Total number of shared draws consumed (across resumed segments).
    pub total_draws: u64,
}

impl EstimateOutcome {
    /// The overall status: [`BudgetStatus::Cancelled`] if any entry was
    /// cancelled, else [`BudgetStatus::BudgetExhausted`] if any entry ran
    /// out of budget, else [`BudgetStatus::Converged`].
    pub fn status(&self) -> BudgetStatus {
        let mut status = BudgetStatus::Converged;
        for query in &self.queries {
            match query.status {
                BudgetStatus::Cancelled => return BudgetStatus::Cancelled,
                BudgetStatus::BudgetExhausted => status = BudgetStatus::BudgetExhausted,
                BudgetStatus::Converged => {}
            }
        }
        status
    }

    /// `true` iff every entry converged.
    pub fn converged(&self) -> bool {
        self.status().is_converged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_interrupts() {
        let budget = RunBudget::unlimited();
        assert!(budget.is_unlimited());
        for draws in [0, 1, 1_000_000, u64::MAX] {
            assert_eq!(budget.check(draws), None);
        }
    }

    #[test]
    fn max_draws_exhausts_at_the_cap() {
        let budget = RunBudget::unlimited().with_max_draws(10);
        assert_eq!(budget.check(9), None);
        assert_eq!(budget.check(10), Some(BudgetStatus::BudgetExhausted));
        assert_eq!(budget.check(11), Some(BudgetStatus::BudgetExhausted));
    }

    #[test]
    fn cancel_token_trips_immediately_and_by_draw_index() {
        let cancel = CancelToken::new();
        let budget = RunBudget::unlimited().with_cancel_token(cancel.clone());
        assert_eq!(budget.check(5), None);
        cancel.cancel();
        assert_eq!(budget.check(5), Some(BudgetStatus::Cancelled));

        let armed = CancelToken::tripped_at_draw(3);
        let budget = RunBudget::unlimited().with_cancel_token(armed);
        assert_eq!(budget.check(2), None);
        assert_eq!(budget.check(3), Some(BudgetStatus::Cancelled));
    }

    #[test]
    fn cancellation_outranks_the_draw_cap() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let budget = RunBudget::unlimited()
            .with_max_draws(0)
            .with_cancel_token(cancel);
        assert_eq!(budget.check(0), Some(BudgetStatus::Cancelled));
    }

    #[test]
    fn deadline_fires_only_on_check_interval_boundaries() {
        let clock = ManualClock::new();
        let budget = RunBudget::unlimited()
            .with_deadline_and_clock(Duration::from_secs(1), Arc::clone(&clock) as Arc<dyn Clock>)
            .with_check_interval(100);
        assert_eq!(budget.check(0), None, "deadline not reached yet");
        clock.advance(Duration::from_secs(2));
        assert_eq!(budget.check(50), None, "off-boundary draws skip the clock");
        assert_eq!(budget.check(100), Some(BudgetStatus::BudgetExhausted));
    }

    #[test]
    fn manual_clock_set_and_advance() {
        let clock = ManualClock::new();
        assert_eq!(clock.elapsed(), Duration::ZERO);
        clock.advance(Duration::from_millis(5));
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.elapsed(), Duration::from_millis(10));
        clock.set(Duration::from_secs(1));
        assert_eq!(clock.elapsed(), Duration::from_secs(1));
    }

    #[test]
    fn system_clock_advances() {
        let clock = SystemClock::start_now();
        let first = clock.elapsed();
        assert!(clock.elapsed() >= first);
    }

    #[test]
    fn relative_inversion_recovers_the_requested_epsilon() {
        // Round-tripping: the target Υ(ε, δ) achieved exactly inverts to
        // an ε′ at most the requested ε (the ceiling only adds successes).
        use crate::montecarlo::StoppingRuleEstimator;
        for &(epsilon, delta) in &[(0.1, 0.05), (0.25, 0.2), (0.05, 0.01)] {
            let target = StoppingRuleEstimator::new(epsilon, delta).success_target();
            let inverted = achieved_relative_epsilon(target, delta).unwrap();
            assert!(
                inverted <= epsilon + 1e-9,
                "ε = {epsilon}: inverted {inverted}"
            );
            // And not absurdly smaller: one success less already needs a
            // larger ε′.
            let coarser = achieved_relative_epsilon(target - 1, delta).unwrap();
            assert!(coarser > inverted);
        }
    }

    #[test]
    fn relative_inversion_is_undefined_below_two_successes() {
        assert_eq!(achieved_relative_epsilon(0, 0.1), None);
        assert_eq!(achieved_relative_epsilon(1, 0.1), None);
        assert!(achieved_relative_epsilon(2, 0.1).is_some());
        assert_eq!(achieved_relative_epsilon(10, 0.0), None);
        assert_eq!(achieved_relative_epsilon(10, 1.0), None);
    }

    #[test]
    fn additive_inversion_matches_the_sample_bound() {
        // samples_for_additive_error(ε, δ) draws suffice for additive ε;
        // inverting at that count must return at most ε.
        for &(epsilon, delta) in &[(0.05, 0.05), (0.01, 0.1)] {
            let samples = crate::bounds::samples_for_additive_error(epsilon, delta);
            let inverted = achieved_additive_epsilon(samples, delta);
            assert!(inverted <= epsilon + 1e-9, "ε = {epsilon}: {inverted}");
        }
        assert_eq!(achieved_additive_epsilon(0, 0.1), f64::INFINITY);
    }

    #[test]
    fn achieved_bound_shrinks_with_more_data() {
        let early = AchievedBound::at(100, 5, 0.1);
        let late = AchievedBound::at(10_000, 500, 0.1);
        assert!(late.additive_epsilon < early.additive_epsilon);
        assert!(late.relative_epsilon.unwrap() < early.relative_epsilon.unwrap());
    }

    #[test]
    fn outcome_status_aggregates_worst_first() {
        let q = |status| QueryOutcome {
            estimate: 0.5,
            samples: 10,
            successes: 5,
            status,
            achieved: AchievedBound::at(10, 5, 0.1),
        };
        let all_converged = EstimateOutcome {
            queries: vec![q(BudgetStatus::Converged)],
            total_draws: 10,
        };
        assert!(all_converged.converged());
        let mixed = EstimateOutcome {
            queries: vec![q(BudgetStatus::Converged), q(BudgetStatus::BudgetExhausted)],
            total_draws: 10,
        };
        assert_eq!(mixed.status(), BudgetStatus::BudgetExhausted);
        assert!(!mixed.converged());
        let cancelled = EstimateOutcome {
            queries: vec![q(BudgetStatus::BudgetExhausted), q(BudgetStatus::Cancelled)],
            total_draws: 10,
        };
        assert_eq!(cancelled.status(), BudgetStatus::Cancelled);
        let empty = EstimateOutcome {
            queries: Vec::new(),
            total_draws: 0,
        };
        assert!(empty.converged());
    }

    #[test]
    fn compile_budget_adapter_shares_the_cancel_flag() {
        let cancel = CancelToken::new();
        let budget = RunBudget::unlimited()
            .with_cancel_token(cancel.clone())
            .with_max_compile_steps(100);
        let compile = budget.compile_budget();
        assert!(!compile.interrupted(0));
        assert!(compile.interrupted(101), "step cap is threaded through");
        cancel.cancel();
        assert!(compile.interrupted(0), "cancel flag is shared");
        // An unlimited budget yields an unlimited compile budget.
        assert!(!RunBudget::unlimited().compile_budget().interrupted(1 << 40));
    }
}
