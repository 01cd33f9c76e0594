//! Deterministic fault injection for robustness testing (feature `chaos`).
//!
//! Estimation under a [`RunBudget`] must degrade
//! gracefully no matter *when* it is interrupted or *how* the host
//! misbehaves: a skewed clock, an adversarial hit pattern, a compile
//! budget starving bank compilation into evaluator fallback.  This module
//! packages those faults as **seeded, reproducible** injectors — the same
//! SplitMix64 discipline the parallel sharding uses — so a failing
//! combination can be replayed from its seed alone:
//!
//! * [`FaultPlan`] — a seeded stream of fault decisions: truncation
//!   points, clock-skew magnitudes, adversarial hit patterns.
//! * [`SkewedClock`] — a [`Clock`] whose `elapsed()` jumps forward by
//!   deterministic pseudo-random increments, modelling a host clock that
//!   stalls and leaps (NTP step, VM pause) instead of ticking smoothly.
//! * [`AdversarialExperiment`] — a [`StoppingBatchExperiment`] emitting
//!   deterministic worst-case hit patterns (all-hit, no-hit, alternating,
//!   pseudo-random) without consuming the RNG, stressing the budgeted
//!   stopping loop's retirement and truncation logic.
//! * [`starved_compile_budget`] — a budget whose compile-step cap forces
//!   the witness-cap fallback on every bank entry.
//!
//! The property tests at the bottom of this module assert the three
//! robustness invariants of the budget subsystem: no fault/budget
//! combination panics, an unconstrained budget is bit-identical to the
//! unbudgeted paths, and partial results at any truncation point stay
//! within their reported achieved bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::Rng;

use crate::budget::{Clock, RunBudget};
use crate::montecarlo::StoppingBatchExperiment;

/// One SplitMix64 round — the same mixer the parallel shard seeding uses,
/// so fault streams are decorrelated across nearby seeds.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, reproducible stream of fault decisions.
///
/// Every fault a test injects — where to truncate, how far the clock
/// leaps, which adversarial pattern to emit — is derived from the plan's
/// seed, never from ambient randomness, so a failing combination replays
/// from the seed alone.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
}

impl FaultPlan {
    /// A fault plan deriving every decision from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { state: seed }
    }

    /// The next raw 64-bit fault word.
    pub fn next_word(&mut self) -> u64 {
        splitmix(&mut self.state)
    }

    /// A truncation point in `[1, max_draws]` — the draw index at which a
    /// cancellation token should trip or a draw cap should bite.
    pub fn truncation_point(&mut self, max_draws: u64) -> u64 {
        1 + self.next_word() % max_draws.max(1)
    }

    /// A skewed clock whose per-observation leaps average `mean_step`
    /// (each leap is uniform in `[0, 2 × mean_step]`).
    pub fn skewed_clock(&mut self, mean_step: Duration) -> SkewedClock {
        SkewedClock::new(self.next_word(), mean_step)
    }

    /// An adversarial experiment over `queries` variables whose hit
    /// pattern is chosen by the plan.
    pub fn adversarial_experiment(&mut self, queries: usize) -> AdversarialExperiment {
        let pattern = match self.next_word() % 4 {
            0 => HitPattern::AllHit,
            1 => HitPattern::NoHit,
            2 => HitPattern::Alternating,
            _ => HitPattern::PseudoRandom(self.next_word()),
        };
        AdversarialExperiment::new(queries, pattern)
    }
}

/// A [`Clock`] that leaps forward by deterministic pseudo-random
/// increments on every observation.
///
/// Models the hostile end of real hosts — an NTP step, a suspended VM, a
/// scheduler stall — where elapsed time observed by the estimation loop
/// jumps rather than ticks.  Each `elapsed()` call advances the clock by a
/// seeded uniform increment in `[0, 2 × mean_step]`, so a deadline is
/// always eventually exceeded and the observation sequence is reproducible
/// from the seed.
#[derive(Debug)]
pub struct SkewedClock {
    state: AtomicU64,
    elapsed_nanos: AtomicU64,
    max_step_nanos: u64,
}

impl SkewedClock {
    /// A skewed clock whose leaps average `mean_step`.
    pub fn new(seed: u64, mean_step: Duration) -> Self {
        let max_step_nanos = u64::try_from(mean_step.as_nanos().saturating_mul(2))
            .unwrap_or(u64::MAX)
            .max(1);
        SkewedClock {
            state: AtomicU64::new(seed),
            elapsed_nanos: AtomicU64::new(0),
            max_step_nanos,
        }
    }
}

impl Clock for SkewedClock {
    fn elapsed(&self) -> Duration {
        // Relaxed suffices: the skew stream needs no ordering with other
        // memory, only per-clock reproducibility, and the budgeted loops
        // observe the clock from one thread at a time.
        let mut state = self.state.load(Ordering::Relaxed);
        let step = splitmix(&mut state) % self.max_step_nanos;
        self.state.store(state, Ordering::Relaxed);
        let total = self
            .elapsed_nanos
            .fetch_add(step, Ordering::Relaxed)
            .saturating_add(step);
        Duration::from_nanos(total)
    }
}

/// The hit pattern an [`AdversarialExperiment`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitPattern {
    /// Every query hits on every draw (instant convergence pressure).
    AllHit,
    /// No query ever hits (guaranteed truncation at the cut-off).
    NoHit,
    /// Query `q` hits on draw `t` iff `t + q` is even (lockstep retirement
    /// at staggered offsets).
    Alternating,
    /// Seeded pseudo-random hits, about half the draws per query.
    PseudoRandom(u64),
}

/// A [`StoppingBatchExperiment`] emitting a deterministic adversarial hit
/// pattern and consuming **no randomness** — the degenerate inputs
/// (certain queries, impossible queries, lockstep retirement cascades)
/// that stress the budgeted stopping loop's bookkeeping rather than its
/// statistics.
#[derive(Debug, Clone)]
pub struct AdversarialExperiment {
    queries: usize,
    pattern: HitPattern,
    draw: u64,
    retired: Vec<bool>,
}

impl AdversarialExperiment {
    /// An experiment over `queries` variables emitting `pattern`.
    pub fn new(queries: usize, pattern: HitPattern) -> Self {
        AdversarialExperiment {
            queries,
            pattern,
            draw: 0,
            retired: vec![false; queries],
        }
    }

    /// How many draws have been emitted so far.
    pub fn draws(&self) -> u64 {
        self.draw
    }

    /// Which queries the driver has retired (used by the property tests to
    /// check retirement is announced exactly once).
    pub fn retired(&self) -> &[bool] {
        &self.retired
    }
}

impl<R: Rng + ?Sized> StoppingBatchExperiment<R> for AdversarialExperiment {
    fn draw(&mut self, _rng: &mut R, hits: &mut [bool]) {
        self.draw += 1;
        for (q, hit) in hits.iter_mut().enumerate().take(self.queries) {
            *hit = match self.pattern {
                HitPattern::AllHit => true,
                HitPattern::NoHit => false,
                HitPattern::Alternating => (self.draw + q as u64).is_multiple_of(2),
                HitPattern::PseudoRandom(seed) => {
                    let mut state = seed ^ self.draw.wrapping_mul(0x2545_F491_4F6C_DD1D);
                    splitmix(&mut state).is_multiple_of(q as u64 + 2)
                }
            };
        }
    }

    fn retire(&mut self, query: usize) {
        self.retired[query] = true;
    }
}

/// A [`RunBudget`] whose compile-step cap is so small that **every** bank
/// entry degrades to the witness-cap fallback: estimation still answers
/// through the backtracking evaluator, just without the word-level bitset
/// fast path.  The sampling side of the budget is unconstrained.
pub fn starved_compile_budget() -> RunBudget {
    RunBudget::unlimited().with_max_compile_steps(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{BudgetStatus, CancelToken};
    use crate::exact::ExactSolver;
    use crate::fpras::{ApproximationParams, BatchEstimator, BatchQuery, EstimatorMode};
    use crate::montecarlo::estimate_stopping_batch_budgeted;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use ucqa_db::{Database, FdSet, FunctionalDependency, Schema, Value};
    use ucqa_query::parser::parse_query;
    use ucqa_query::QueryEvaluator;
    use ucqa_repair::GeneratorSpec;

    fn figure2() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A1", "A2"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [
            ("a1", "b1"),
            ("a1", "b2"),
            ("a1", "b3"),
            ("a2", "b1"),
            ("a3", "b1"),
            ("a3", "b2"),
        ] {
            db.insert_values("R", [Value::str(a), Value::str(b)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A1"], &["A2"]).unwrap());
        (db, sigma)
    }

    fn all_specs() -> Vec<GeneratorSpec> {
        vec![
            GeneratorSpec::uniform_repairs(),
            GeneratorSpec::uniform_repairs().with_singleton_only(),
            GeneratorSpec::uniform_sequences(),
            GeneratorSpec::uniform_sequences().with_singleton_only(),
            GeneratorSpec::uniform_operations(),
            GeneratorSpec::uniform_operations().with_singleton_only(),
        ]
    }

    /// Robustness invariant (a): no seeded fault/budget combination
    /// panics, and the reported statuses are always consistent with the
    /// budget that produced them.
    #[test]
    fn no_fault_and_budget_combination_panics() {
        for seed in 0..32u64 {
            let mut plan = FaultPlan::new(seed);
            let k = 1 + (plan.next_word() % 4) as usize;
            let targets: Vec<u64> = (0..k).map(|_| 1 + plan.next_word() % 20).collect();
            let max_samples = 1 + plan.next_word() % 500;
            let (budget, draw_cap) = match plan.next_word() % 5 {
                0 => (RunBudget::unlimited(), None),
                1 => {
                    let cap = plan.next_word() % 300;
                    (RunBudget::unlimited().with_max_draws(cap), Some(cap))
                }
                2 => (
                    RunBudget::unlimited().with_cancel_token(CancelToken::tripped_at_draw(
                        plan.truncation_point(300),
                    )),
                    None,
                ),
                3 => {
                    let clock = Arc::new(plan.skewed_clock(Duration::from_millis(10)));
                    (
                        RunBudget::unlimited()
                            .with_deadline_and_clock(Duration::from_millis(25), clock)
                            .with_check_interval(1 + plan.next_word() % 64),
                        None,
                    )
                }
                _ => {
                    let token = CancelToken::new();
                    if plan.next_word().is_multiple_of(2) {
                        token.cancel();
                    }
                    let cap = plan.next_word() % 100;
                    (
                        RunBudget::unlimited()
                            .with_max_draws(cap)
                            .with_cancel_token(token),
                        Some(cap),
                    )
                }
            };
            let mut experiment = plan.adversarial_experiment(k);
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = estimate_stopping_batch_budgeted(
                &mut rng,
                &targets,
                max_samples,
                &budget,
                &mut experiment,
                None,
            );
            assert_eq!(outcome.outcomes.len(), k, "seed {seed}");
            assert!(outcome.total_samples <= max_samples, "seed {seed}");
            if let Some(cap) = draw_cap {
                assert!(outcome.total_samples <= cap, "seed {seed}");
            }
            for (q, target) in targets.iter().enumerate() {
                let o = &outcome.outcomes[q];
                assert!(o.samples <= outcome.total_samples, "seed {seed}");
                assert!(o.successes <= o.samples, "seed {seed}");
                match outcome.statuses[q] {
                    BudgetStatus::Converged => {
                        assert!(!o.truncated && o.successes >= *target, "seed {seed}")
                    }
                    _ => assert!(o.truncated, "seed {seed}"),
                }
                // Retirement is announced exactly for the converged
                // queries.
                assert_eq!(
                    experiment.retired()[q],
                    outcome.statuses[q] == BudgetStatus::Converged && o.successes >= *target,
                    "seed {seed}, query {q}"
                );
            }
        }
    }

    /// Robustness invariant (a), end-to-end: seeded faults driven through
    /// the public FPRAS entry points never panic either, including the
    /// starved compile budget and mid-stream cancellation plus resume.
    #[test]
    fn end_to_end_faulted_estimation_never_panics() {
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1)];
        let params = ApproximationParams::new(0.3, 0.3)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping { max_samples: 2_000 });
        for seed in 0..8u64 {
            let mut plan = FaultPlan::new(seed);
            for spec in all_specs() {
                let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
                let cut = plan.truncation_point(1_000);
                let budget =
                    starved_compile_budget().with_cancel_token(CancelToken::tripped_at_draw(cut));
                let mut rng = StdRng::seed_from_u64(seed);
                let partial = batch
                    .estimate_stopping_batch_with_budget(&queries, params, &budget, &mut rng)
                    .unwrap();
                let bank = batch.compile_bank(&queries).unwrap();
                let resumed = batch
                    .estimate_with_bank(
                        &bank,
                        &queries,
                        params,
                        &RunBudget::unlimited(),
                        Some(&partial),
                        &mut rng,
                    )
                    .unwrap();
                for q in &resumed.queries {
                    assert!(
                        q.status == BudgetStatus::Converged
                            || q.status == BudgetStatus::BudgetExhausted,
                        "seed {seed}, spec {}",
                        spec.short_name()
                    );
                }
            }
        }
    }

    /// Robustness invariant (b): attaching chaos machinery without letting
    /// it fire — a skewed clock but no deadline, an untripped token — is
    /// bit-identical to an unlimited budget, across all six specs.
    #[test]
    fn dormant_faults_leave_estimates_bit_identical() {
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1)];
        let params = ApproximationParams::new(0.25, 0.2).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 200_000,
            },
        );
        let mut plan = FaultPlan::new(99);
        // A skewed clock is installed but no deadline references it, and
        // the cancel token never trips: the budget machinery runs its
        // checks yet every decision is "keep going".
        let dormant = RunBudget::unlimited().with_cancel_token(CancelToken::new());
        let _clock = plan.skewed_clock(Duration::from_millis(1));
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let plain = batch
                .estimate_stopping_batch_with_budget(
                    &queries,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(7),
                )
                .unwrap();
            let budgeted = batch
                .estimate_stopping_batch_with_budget(
                    &queries,
                    params,
                    &dormant,
                    &mut StdRng::seed_from_u64(7),
                )
                .unwrap();
            assert_eq!(budgeted, plain, "spec {}", spec.short_name());
        }
    }

    /// Robustness invariant (c): under seeded truncation points *and* the
    /// starved compile budget, the partial estimate stays within its
    /// reported achieved additive bound of the exact probability, for
    /// every generator spec.
    #[test]
    fn truncated_faulted_estimates_satisfy_their_achieved_bound() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let solver = ExactSolver::new(&db, &sigma);
        let params = ApproximationParams::new(0.05, 0.05).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 10_000_000,
            },
        );
        let mut plan = FaultPlan::new(2024);
        for spec in all_specs() {
            let exact = solver
                .answer_probability(spec, &evaluator, &candidate)
                .unwrap()
                .to_f64();
            let estimator = crate::fpras::OcqaEstimator::new(&db, &sigma, spec).unwrap();
            for _ in 0..3 {
                let cut = 64 + plan.truncation_point(4_000);
                let budget = starved_compile_budget().with_max_draws(cut);
                let outcome = estimator
                    .estimate_with_budget(
                        &evaluator,
                        &candidate,
                        params,
                        &budget,
                        &mut StdRng::seed_from_u64(13),
                    )
                    .unwrap();
                let query = &outcome.queries[0];
                assert_eq!(query.samples, cut, "spec {}", spec.short_name());
                assert!(
                    (query.estimate - exact).abs() <= query.achieved.additive_epsilon,
                    "spec {}, cut {cut}: estimate {} vs exact {exact}, additive ε′ {}",
                    spec.short_name(),
                    query.estimate,
                    query.achieved.additive_epsilon
                );
            }
        }
    }

    /// The skewed clock is monotone, reproducible from its seed, and
    /// eventually exceeds any deadline.
    #[test]
    fn skewed_clock_is_monotone_and_reproducible() {
        let a = SkewedClock::new(5, Duration::from_millis(3));
        let b = SkewedClock::new(5, Duration::from_millis(3));
        let mut last = Duration::ZERO;
        for _ in 0..100 {
            let ta = a.elapsed();
            let tb = b.elapsed();
            assert_eq!(ta, tb);
            assert!(ta >= last);
            last = ta;
        }
        assert!(last >= Duration::from_millis(25), "got {last:?}");
    }

    /// A deadline on a skewed clock interrupts the run without panicking,
    /// at a draw multiple of the check interval.
    #[test]
    fn skewed_clock_deadline_interrupts_at_a_check_boundary() {
        let mut plan = FaultPlan::new(7);
        let clock = Arc::new(plan.skewed_clock(Duration::from_micros(500)));
        let budget = RunBudget::unlimited()
            .with_deadline_and_clock(Duration::from_millis(5), clock)
            .with_check_interval(8);
        let targets = vec![u64::MAX];
        let mut experiment = AdversarialExperiment::new(1, HitPattern::AllHit);
        let mut rng = StdRng::seed_from_u64(0);
        let outcome = estimate_stopping_batch_budgeted(
            &mut rng,
            &targets,
            100_000,
            &budget,
            &mut experiment,
            None,
        );
        assert_eq!(outcome.statuses[0], BudgetStatus::BudgetExhausted);
        assert!(outcome.total_samples < 100_000);
        assert_eq!(outcome.total_samples % 8, 0, "deadline checks are polled");
    }
}
