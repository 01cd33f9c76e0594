//! Monte-Carlo estimation of Bernoulli means.
//!
//! The FPRAS drivers reduce every approximation task to estimating the mean
//! `p` of a Bernoulli random variable ("does a sampled repair/sequence
//! entail the query?").  Two estimators are provided:
//!
//! * the textbook fixed-sample-size estimator
//!   ([`estimate_fixed_batch_budgeted`]), used with the sample counts of
//!   [`crate::bounds`] (additive or relative guarantees);
//! * [`StoppingRuleEstimator`] — the *optimal stopping rule* of Dagum,
//!   Karp, Luby and Ross (reference \[8\] of the paper), which achieves a
//!   relative `(ε, δ)`-guarantee with an expected number of samples
//!   proportional to `1/p`, without having to know a lower bound on `p` in
//!   advance.  This is the estimator the practical FPRAS drivers use; its
//!   loop is [`estimate_stopping_batch_budgeted`].
//!
//! Both run over a *bank* of `k` Bernoulli means estimated from **one**
//! shared sample stream — a single mean is a bank of one — with
//! rayon-sharded counterparts behind the `parallel` feature
//! (`estimate_fixed_batch_parallel`, `estimate_stopping_batch_rounds_budgeted`).
//! In the adaptive loops each query tracks its own success target and *retires*
//! from the per-draw work as it converges.
//!
//! Every sequential loop runs under a [`RunBudget`] — draw caps,
//! wall-clock deadlines, cooperative cancellation — that can stop the
//! stream mid-flight and reports a [`BudgetStatus`] alongside the partial
//! outcome.  Budget checks consume no randomness and run *before* each
//! draw, so an unconstrained budget draws exactly the planned stream, and
//! an interrupted stopping run can be
//! [resumed](estimate_stopping_batch_budgeted) from the same RNG state to
//! reproduce the uninterrupted stream bit-for-bit.

use crate::budget::{BudgetStatus, RunBudget};
use crate::CoreError;
use rand::Rng;
#[cfg(feature = "parallel")]
use rand::{rngs::StdRng, SeedableRng};
#[cfg(feature = "parallel")]
use rayon::prelude::*;

/// The result of a batched Monte-Carlo run: one shared sample count, one
/// success counter per Bernoulli variable.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// The number of (shared) samples that were drawn.
    pub samples: u64,
    /// Per-variable success counts.
    pub successes: Vec<u64>,
}

/// Draws up to `samples` *shared* experiments under a [`RunBudget`], each
/// updating `queries` success counters at once: `experiment(rng,
/// successes)` must add at most one to each counter per call.
///
/// Because the RNG is consumed by the shared draw only (never by the
/// per-variable checks), running this with `k` counters is bit-identical
/// to `k` one-counter runs from the same RNG state — the batched and the
/// independent estimators realise the *same* random variables.  With
/// `samples ≥ ln(2/δ)/(2ε²)` each mean is an additive `(ε, δ)`
/// approximation (Hoeffding); with `samples ≥ 3·ln(2/δ)/(ε²·p)` a
/// relative one (multiplicative Chernoff).
///
/// One shared status for the whole batch: the fixed-sample stream either
/// runs to its planned length ([`BudgetStatus::Converged`]) or every
/// variable is cut at the same draw.  The budget is polled before each
/// draw and consumes no randomness, so an unconstrained budget draws
/// exactly `samples` experiments.
pub fn estimate_fixed_batch_budgeted<R, F>(
    rng: &mut R,
    samples: u64,
    queries: usize,
    budget: &RunBudget,
    mut experiment: F,
) -> (BatchOutcome, BudgetStatus)
where
    R: Rng + ?Sized,
    F: FnMut(&mut R, &mut [u64]),
{
    let mut successes = vec![0u64; queries];
    let mut drawn = 0u64;
    let mut status = BudgetStatus::Converged;
    while drawn < samples {
        if let Some(interrupt) = budget.check(drawn) {
            status = interrupt;
            break;
        }
        drawn += 1;
        experiment(rng, &mut successes);
    }
    (
        BatchOutcome {
            samples: drawn,
            successes,
        },
        status,
    )
}

/// Draws exactly `samples` shared experiments sharded across threads,
/// summing the per-shard success vectors.
///
/// Shard `s` runs its own `StdRng` seeded deterministically from
/// `(master_seed, s)` and its own experiment instance obtained from
/// `make_experiment` (so per-shard scratch buffers — sampled-repair
/// bitsets, walk scratch — are private to a shard and allocated once per
/// shard, not once per sample).  Shard boundaries depend only on
/// `samples` and `shard_size`, and the reduction is an element-wise
/// integer sum, so the outcome is **bit-identical for a fixed master seed
/// regardless of thread count** — including a thread count of one — and
/// bit-identical to `k` one-counter runs whose experiments consume the
/// RNG identically (the batched FPRAS guarantee).
///
/// Only available with the `parallel` feature (rayon).
#[cfg(feature = "parallel")]
pub fn estimate_fixed_batch_parallel<E, F>(
    master_seed: u64,
    samples: u64,
    shard_size: u64,
    queries: usize,
    make_experiment: F,
) -> BatchOutcome
where
    F: Fn() -> E + Sync,
    E: FnMut(&mut StdRng, &mut [u64]),
{
    let shard_size = shard_size.max(1);
    let shards = samples.div_ceil(shard_size);
    let successes = (0..shards)
        .into_par_iter()
        .map(|shard| {
            let mut rng = StdRng::seed_from_u64(shard_seed(master_seed, shard));
            let mut experiment = make_experiment();
            let count = shard_size.min(samples - shard * shard_size);
            let mut successes = vec![0u64; queries];
            for _ in 0..count {
                experiment(&mut rng, &mut successes);
            }
            successes
        })
        .reduce(
            || vec![0u64; queries],
            |mut acc, shard| {
                for (a, s) in acc.iter_mut().zip(&shard) {
                    *a += s;
                }
                acc
            },
        );
    BatchOutcome { samples, successes }
}

/// Default number of samples per parallel shard: large enough to amortise
/// per-shard setup (RNG seeding, scratch-buffer construction), small enough
/// to shard a few hundred thousand samples across many cores.
#[cfg(feature = "parallel")]
pub const DEFAULT_SHARD_SIZE: u64 = 4096;

/// Derives the RNG seed of shard `shard` from the master seed via a
/// SplitMix64 round, so shard streams are decorrelated and fully
/// determined by `(master_seed, shard)`.
#[cfg(feature = "parallel")]
fn shard_seed(master_seed: u64, shard: u64) -> u64 {
    let mut z =
        master_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A batched Bernoulli experiment driven by the sequential stopping-rule
/// loop ([`estimate_stopping_batch_budgeted`]).
///
/// Unlike the fixed-sample batched loop, the adaptive loop *retires*
/// queries as they converge, and the experiment is told about it so the
/// per-draw work can shrink (the FPRAS driver drops a retired query's
/// witnesses out of the shared containment scan).
pub trait StoppingBatchExperiment<R: Rng + ?Sized> {
    /// Draws **one** shared sample and writes `hits[q] = true` iff query
    /// `q` is entailed by it, for every *live* query `q`.
    ///
    /// Entries of retired queries may be left stale — the driver never
    /// reads them.  The RNG must be consumed by the shared draw only
    /// (never per query), which is what keeps the sequential loop
    /// bit-identical to independent per-query stopping-rule runs.
    fn draw(&mut self, rng: &mut R, hits: &mut [bool]);

    /// Notification that `query` has reached its success target and will
    /// never be read again.  The default does nothing; implementations
    /// use it to compact their per-draw state.
    fn retire(&mut self, _query: usize) {}
}

/// The result of a batched stopping-rule run: one outcome per query, plus
/// the length of the shared sample stream (the stream runs until the last
/// live query retires or `max_samples` truncates it).
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingBatchOutcome {
    /// Per-query stopping-rule outcomes.  `outcomes[q].samples` is the
    /// length of the stream prefix query `q` observed before retiring
    /// (or the full stream length if it was truncated).
    pub outcomes: Vec<StoppingRuleOutcome>,
    /// Total number of shared samples drawn — the maximum of the
    /// per-query sample counts.
    pub total_samples: u64,
}

/// Drives **one** shared sample stream until every query has reached its
/// success target `targets[q]` (or `max_samples` truncates the stream),
/// retiring queries as they converge.
///
/// Query `q` retires at the first draw `N_q` where its success count
/// reaches `targets[q]`, with estimate `targets[q] / N_q` — exactly the
/// Dagum–Karp–Luby–Ross stopping rule applied to the prefix of the shared
/// stream it observed.  Because the experiment's per-query checks consume
/// no randomness, that prefix is the *same* sample sequence an independent
/// one-query run with the same target would see from the same RNG state:
/// the sequential batched loop is **bit-identical** to per-query
/// stopping-rule runs (pass each query `Υ(ε, δ/k)` to realise
/// the union-bound guarantee over a bank of `k`).
///
/// Queries still live when `max_samples` is reached are flagged
/// [`truncated`](StoppingRuleOutcome::truncated) and report the plain
/// empirical mean; a zero-probability query therefore truncates without
/// stalling the retirement of the others — it merely keeps the stream
/// running to the cut-off while the per-draw live set shrinks around it.
pub fn estimate_stopping_batch<R, E>(
    rng: &mut R,
    targets: &[u64],
    max_samples: u64,
    experiment: &mut E,
) -> StoppingBatchOutcome
where
    R: Rng + ?Sized,
    E: StoppingBatchExperiment<R>,
{
    let budgeted = estimate_stopping_batch_budgeted(
        rng,
        targets,
        max_samples,
        &RunBudget::unlimited(),
        experiment,
        None,
    );
    StoppingBatchOutcome {
        outcomes: budgeted.outcomes,
        total_samples: budgeted.total_samples,
    }
}

/// The result of a budgeted batched stopping-rule run: the per-query
/// outcomes of [`StoppingBatchOutcome`] plus one [`BudgetStatus`] per
/// query recording *why* that query's stream prefix ended.
///
/// A query is [`Converged`](BudgetStatus::Converged) iff it reached its
/// success target; converged queries keep their values even when the run
/// is later interrupted — only live queries degrade to
/// [`BudgetExhausted`](BudgetStatus::BudgetExhausted) or
/// [`Cancelled`](BudgetStatus::Cancelled) partial estimates.  The whole
/// value can be fed back as the `resume` argument of
/// [`estimate_stopping_batch_budgeted`] to continue the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetedStoppingOutcome {
    /// Per-query stopping-rule outcomes (partial for non-converged ones).
    pub outcomes: Vec<StoppingRuleOutcome>,
    /// Per-query termination statuses.
    pub statuses: Vec<BudgetStatus>,
    /// Total number of shared samples drawn, including the draws of a
    /// resumed prior run.
    pub total_samples: u64,
}

/// As [`estimate_stopping_batch`], under a [`RunBudget`], with optional
/// resumption of an interrupted run.
///
/// The budget is polled *before* each draw and consumes no randomness, so
/// an unconstrained budget is **bit-identical** to
/// [`estimate_stopping_batch`], and an interruption at draw `t` leaves the
/// RNG having consumed exactly `t` draws.  Feeding the returned outcome
/// back as `resume` (with the *same* RNG, now positioned after draw `t`)
/// continues the shared stream where it stopped: converged queries keep
/// their frozen outcomes (their retirement is re-announced to
/// `experiment`), live queries pick their success counts back up, and the
/// concatenated run is bit-identical to one uninterrupted run.
///
/// Draw counts are absolute across resumption: `max_samples`, a
/// [`max_draws`](RunBudget::with_max_draws) cap and a
/// [`tripped_at_draw`](crate::budget::CancelToken::tripped_at_draw) token
/// all refer to the total stream length, not to the draws of one call.
///
/// # Panics
/// Panics if `resume` covers a different number of queries than `targets`
/// (a programming error, not a runtime condition).
pub fn estimate_stopping_batch_budgeted<R, E>(
    rng: &mut R,
    targets: &[u64],
    max_samples: u64,
    budget: &RunBudget,
    experiment: &mut E,
    resume: Option<&BudgetedStoppingOutcome>,
) -> BudgetedStoppingOutcome
where
    R: Rng + ?Sized,
    E: StoppingBatchExperiment<R>,
{
    let k = targets.len();
    let mut outcomes = vec![
        StoppingRuleOutcome {
            estimate: 0.0,
            samples: 0,
            successes: 0,
            truncated: false,
        };
        k
    ];
    let mut statuses = vec![BudgetStatus::Converged; k];
    let mut successes = vec![0u64; k];
    let mut hits = vec![false; k];
    let mut live: Vec<usize> = Vec::with_capacity(k);
    let mut draws = 0u64;
    match resume {
        Some(prior) => {
            assert_eq!(
                prior.outcomes.len(),
                k,
                "resume outcome must cover the same queries as `targets`"
            );
            draws = prior.total_samples;
            for q in 0..k {
                successes[q] = prior.outcomes[q].successes;
                if prior.statuses[q] == BudgetStatus::Converged {
                    // Converged entries keep their frozen outcome; the
                    // experiment is told again so it can compact its
                    // per-draw state exactly as in the original run.
                    outcomes[q] = prior.outcomes[q];
                    experiment.retire(q);
                } else {
                    live.push(q);
                }
            }
        }
        None => live.extend(0..k),
    }
    let mut interrupt = None;
    while !live.is_empty() && draws < max_samples {
        if let Some(status) = budget.check(draws) {
            interrupt = Some(status);
            break;
        }
        draws += 1;
        experiment.draw(rng, &mut hits);
        let mut j = 0;
        while j < live.len() {
            let q = live[j];
            if hits[q] {
                successes[q] += 1;
                if successes[q] >= targets[q] {
                    outcomes[q] = StoppingRuleOutcome {
                        estimate: targets[q] as f64 / draws as f64,
                        samples: draws,
                        successes: successes[q],
                        truncated: false,
                    };
                    live.swap_remove(j);
                    experiment.retire(q);
                    continue;
                }
            }
            j += 1;
        }
    }
    // Anything still live was cut off — by the budget if it fired, by the
    // `max_samples` cut-off otherwise.
    let live_status = interrupt.unwrap_or(BudgetStatus::BudgetExhausted);
    for &q in &live {
        outcomes[q] = StoppingRuleOutcome {
            estimate: if draws == 0 {
                0.0
            } else {
                successes[q] as f64 / draws as f64
            },
            samples: draws,
            successes: successes[q],
            truncated: true,
        };
        statuses[q] = live_status;
    }
    BudgetedStoppingOutcome {
        outcomes,
        statuses,
        total_samples: draws,
    }
}

/// Round-based rayon-sharded variant of [`estimate_stopping_batch_budgeted`]:
/// draws up to `round_samples` shared samples per round (sharded across
/// worker threads exactly like [`estimate_fixed_batch_parallel`], with a
/// global shard counter deriving the per-shard RNG streams), then checks
/// retirement at the round boundary.
///
/// `make_experiment` is called once per shard with the **current live
/// query list** and returns the shard's experiment closure, so a fresh
/// shard only pays for the queries that are still live.
///
/// **Adaptive round size.**  Rounds shrink with the live set: a round
/// draws `⌈round_samples · live/k⌉` samples (never less than one shard,
/// never more than the remaining budget), so a long tail — one rare query
/// pinning the stream after the crowd has retired — checks its target at
/// proportionally finer boundaries instead of paying full-size rounds of
/// overshoot.  The schedule depends only on `(targets, round_samples,
/// shard_size)` and the summed per-round success counts, so it is as
/// thread-count-deterministic as the fixed schedule; retirement still
/// happens only at boundaries with at least the DKLR success target, so
/// the `(ε, δ)` guarantee is unchanged.
///
/// **Where bit-identity ends.**  Retirement is round-granular here: a
/// query that crosses its success target mid-round keeps observing draws
/// until the boundary, so its sample count — and hence its estimate, the
/// empirical mean `successes/samples` over at least `targets[q]`
/// successes — differs from the sequential loop's `target/N_q`.  The
/// round-based variant matches the sequential one (and `k` independent
/// stopping-rule runs) in *guarantee*, not bit-for-bit: each query stops
/// with at least the DKLR success target at a sample count at least as
/// large, which preserves the relative `(ε, δ)` bound (tested against the
/// exact solver).  The outcome is still **bit-identical across thread
/// counts** for a fixed `master_seed`: shard boundaries, shard seeds and
/// the element-wise integer success sums are all thread-count independent,
/// and retirement decisions are made from the summed per-round counts.
///
/// The budget is polled once per **round boundary** (consuming no
/// randomness), so cancellation here is round-granular: a deadline or
/// token observed at a boundary stops the run before the next round is
/// dispatched to the thread pool, and live queries report the empirical
/// mean over the rounds that completed.  The outcome remains
/// bit-identical across thread counts for a fixed `master_seed`
/// whenever the budget decisions themselves are deterministic (draw caps
/// and pre-tripped tokens are; a wall-clock deadline is not, by nature).
/// Resumption is not offered on this path — mid-round work cannot be
/// replayed draw-by-draw.
///
/// Only available with the `parallel` feature (rayon).
#[cfg(feature = "parallel")]
pub fn estimate_stopping_batch_rounds_budgeted<E, F>(
    master_seed: u64,
    targets: &[u64],
    max_samples: u64,
    round_samples: u64,
    shard_size: u64,
    budget: &RunBudget,
    make_experiment: F,
) -> BudgetedStoppingOutcome
where
    F: Fn(&[usize]) -> E + Sync,
    E: FnMut(&mut StdRng, &mut [bool]),
{
    let k = targets.len();
    let round_samples = round_samples.max(1);
    let shard_size = shard_size.max(1);
    let mut outcomes = vec![
        StoppingRuleOutcome {
            estimate: 0.0,
            samples: 0,
            successes: 0,
            truncated: false,
        };
        k
    ];
    let mut statuses = vec![BudgetStatus::Converged; k];
    let mut successes = vec![0u64; k];
    let mut live: Vec<usize> = (0..k).collect();
    let mut drawn = 0u64;
    let mut next_shard = 0u64;
    let mut interrupt = None;
    while !live.is_empty() && drawn < max_samples {
        if let Some(status) = budget.check(drawn) {
            interrupt = Some(status);
            break;
        }
        // Shrink the round proportionally to the live set (at least one
        // shard's worth), so late-stage boundaries are finer.
        let scaled = ((round_samples as u128 * live.len() as u128).div_ceil(k as u128)) as u64;
        let round = scaled
            .max(shard_size.min(round_samples))
            .min(max_samples - drawn);
        let shards = round.div_ceil(shard_size);
        let live_ref: &[usize] = &live;
        let round_successes = (0..shards)
            .into_par_iter()
            .map(|shard| {
                let mut rng = StdRng::seed_from_u64(shard_seed(master_seed, next_shard + shard));
                let mut experiment = make_experiment(live_ref);
                let count = shard_size.min(round - shard * shard_size);
                let mut hits = vec![false; k];
                let mut acc = vec![0u64; k];
                for _ in 0..count {
                    experiment(&mut rng, &mut hits);
                    for &q in live_ref {
                        if hits[q] {
                            acc[q] += 1;
                        }
                    }
                }
                acc
            })
            .reduce(
                || vec![0u64; k],
                |mut acc, shard| {
                    for (a, s) in acc.iter_mut().zip(&shard) {
                        *a += s;
                    }
                    acc
                },
            );
        next_shard += shards;
        drawn += round;
        live.retain(|&q| {
            successes[q] += round_successes[q];
            if successes[q] >= targets[q] {
                outcomes[q] = StoppingRuleOutcome {
                    estimate: successes[q] as f64 / drawn as f64,
                    samples: drawn,
                    successes: successes[q],
                    truncated: false,
                };
                false
            } else {
                true
            }
        });
    }
    let live_status = interrupt.unwrap_or(BudgetStatus::BudgetExhausted);
    for &q in &live {
        outcomes[q] = StoppingRuleOutcome {
            estimate: if drawn == 0 {
                0.0
            } else {
                successes[q] as f64 / drawn as f64
            },
            samples: drawn,
            successes: successes[q],
            truncated: true,
        };
        statuses[q] = live_status;
    }
    BudgetedStoppingOutcome {
        outcomes,
        statuses,
        total_samples: drawn,
    }
}

/// The Stopping Rule Algorithm of Dagum–Karp–Luby–Ross.
///
/// Draws samples until the number of successes reaches
/// `Υ = 1 + 4·(e − 2)·(1 + ε)·ln(2/δ)/ε²` and outputs `Υ / N`, where `N`
/// is the number of samples drawn.  The output is within relative error
/// `ε` of the true mean with probability at least `1 − δ`, and the
/// expected sample count is `O(Υ / p)`.
///
/// This type holds the `(ε, δ)` parameters and derives the success target
/// `Υ`; the loop itself is [`estimate_stopping_batch_budgeted`] (a single
/// mean is a bank of one).  Because the expected running time is
/// inversely proportional to the true mean, the loop enforces a
/// `max_samples` cut-off; if it is reached the loop returns the empirical
/// mean observed so far and flags the result as truncated.
#[derive(Debug, Clone, Copy)]
pub struct StoppingRuleEstimator {
    epsilon: f64,
    delta: f64,
}

/// The outcome of a stopping-rule estimation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRuleOutcome {
    /// The estimate of the Bernoulli mean.
    pub estimate: f64,
    /// The number of samples that were drawn.
    pub samples: u64,
    /// The number of positive samples among them.
    pub successes: u64,
    /// Whether the sample cut-off was hit before the success target
    /// (in which case the `(ε, δ)` guarantee does not apply; this happens
    /// exactly when the true mean is smaller than roughly
    /// `Υ / max_samples`).
    pub truncated: bool,
}

impl StoppingRuleEstimator {
    /// Creates an estimator with the given relative error `ε ∈ (0, 1)` and
    /// failure probability `δ ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics if the parameters are out of range — callers validate them as
    /// part of [`crate::fpras::ApproximationParams`]; use
    /// [`StoppingRuleEstimator::try_new`] for a typed error instead.
    pub fn new(epsilon: f64, delta: f64) -> Self {
        match Self::try_new(epsilon, delta) {
            Ok(estimator) => estimator,
            Err(e) => panic!("{e}"),
        }
    }

    /// As [`StoppingRuleEstimator::new`], returning
    /// [`CoreError::InvalidParameters`] instead of panicking on
    /// out-of-range parameters.
    pub fn try_new(epsilon: f64, delta: f64) -> Result<Self, CoreError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(CoreError::InvalidParameters {
                message: format!("epsilon must be in (0, 1), got {epsilon}"),
            });
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(CoreError::InvalidParameters {
                message: format!("delta must be in (0, 1), got {delta}"),
            });
        }
        Ok(StoppingRuleEstimator { epsilon, delta })
    }

    /// The success target `Υ` of the stopping rule.
    pub fn success_target(&self) -> u64 {
        let e = std::f64::consts::E;
        let upsilon = 1.0
            + 4.0 * (e - 2.0) * (1.0 + self.epsilon) * (2.0 / self.delta).ln()
                / (self.epsilon * self.epsilon);
        upsilon.ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One Bernoulli variable as a bank of one for the stopping loop.
    struct Bernoulli<F>(F);

    impl<R: Rng + ?Sized, F: FnMut(&mut R) -> bool> StoppingBatchExperiment<R> for Bernoulli<F> {
        fn draw(&mut self, rng: &mut R, hits: &mut [bool]) {
            hits[0] = (self.0)(rng);
        }
    }

    /// The stopping rule on one Bernoulli `experiment`: a bank of one
    /// with target `Υ(ε, δ)`.
    fn stop<R: Rng + ?Sized>(
        estimator: StoppingRuleEstimator,
        max_samples: u64,
        rng: &mut R,
        budget: &RunBudget,
        experiment: impl FnMut(&mut R) -> bool,
    ) -> (StoppingRuleOutcome, BudgetStatus) {
        let outcome = estimate_stopping_batch_budgeted(
            rng,
            &[estimator.success_target()],
            max_samples,
            budget,
            &mut Bernoulli(experiment),
            None,
        );
        assert_eq!(outcome.total_samples, outcome.outcomes[0].samples);
        (outcome.outcomes[0], outcome.statuses[0])
    }

    /// A fixed-sample run on one Bernoulli `experiment`: a bank of one.
    fn fixed<R: Rng + ?Sized>(
        rng: &mut R,
        samples: u64,
        budget: &RunBudget,
        mut experiment: impl FnMut(&mut R) -> bool,
    ) -> (BatchOutcome, BudgetStatus) {
        estimate_fixed_batch_budgeted(rng, samples, 1, budget, |rng, successes| {
            if experiment(rng) {
                successes[0] += 1;
            }
        })
    }

    #[test]
    fn fixed_estimator_recovers_the_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let (outcome, status) = fixed(&mut rng, 40_000, &RunBudget::unlimited(), |rng| {
            rng.random_bool(0.3)
        });
        assert_eq!(status, BudgetStatus::Converged);
        assert_eq!(outcome.samples, 40_000);
        assert!((outcome.successes[0] as f64 / 40_000.0 - 0.3).abs() < 0.02);
    }

    #[test]
    fn fixed_estimator_with_zero_samples_is_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let (outcome, status) = fixed(&mut rng, 0, &RunBudget::unlimited(), |_| true);
        assert_eq!(status, BudgetStatus::Converged);
        assert_eq!(outcome.samples, 0);
        assert_eq!(outcome.successes, vec![0]);
    }

    #[test]
    fn stopping_rule_achieves_relative_error() {
        let estimator = StoppingRuleEstimator::new(0.1, 0.05);
        let mut rng = StdRng::seed_from_u64(3);
        for &p in &[0.5, 0.1, 0.01] {
            let (outcome, status) = stop(
                estimator,
                50_000_000,
                &mut rng,
                &RunBudget::unlimited(),
                |rng: &mut StdRng| rng.random_bool(p),
            );
            assert!(!outcome.truncated);
            assert_eq!(status, BudgetStatus::Converged);
            let relative_error = (outcome.estimate - p).abs() / p;
            assert!(
                relative_error < 0.15,
                "p = {p}: estimate {} (relative error {relative_error})",
                outcome.estimate
            );
        }
    }

    #[test]
    fn stopping_rule_uses_fewer_samples_for_larger_means() {
        let estimator = StoppingRuleEstimator::new(0.2, 0.1);
        let mut rng = StdRng::seed_from_u64(4);
        let unlimited = RunBudget::unlimited();
        let (big, _) = stop(
            estimator,
            u64::MAX,
            &mut rng,
            &unlimited,
            |rng: &mut StdRng| rng.random_bool(0.5),
        );
        let (small, _) = stop(
            estimator,
            u64::MAX,
            &mut rng,
            &unlimited,
            |rng: &mut StdRng| rng.random_bool(0.02),
        );
        assert!(big.samples * 5 < small.samples);
    }

    #[test]
    fn stopping_rule_truncates_on_zero_probability_events() {
        let estimator = StoppingRuleEstimator::new(0.2, 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        let (outcome, status) = stop(estimator, 5_000, &mut rng, &RunBudget::unlimited(), |_| {
            false
        });
        assert!(outcome.truncated);
        assert_eq!(status, BudgetStatus::BudgetExhausted);
        assert_eq!(outcome.estimate, 0.0);
        assert_eq!(outcome.samples, 5_000);
    }

    #[test]
    fn golden_bernoulli_runs_of_the_deleted_single_variable_loops() {
        // Same-seed outputs of the former single-variable loops
        // (`estimate_fixed` and `StoppingRuleEstimator::estimate`), pinned
        // before they were deleted: a bank of one must reproduce them.
        let unlimited = RunBudget::unlimited();
        let (outcome, _) = fixed(&mut StdRng::seed_from_u64(77), 5_000, &unlimited, |rng| {
            rng.random_bool(0.3)
        });
        let estimate = outcome.successes[0] as f64 / outcome.samples as f64;
        assert_eq!(
            (estimate.to_bits(), outcome.samples, outcome.successes[0]),
            (0x3fd32fec56d5cfab, 5000, 1499)
        );
        let estimator = StoppingRuleEstimator::new(0.2, 0.1);
        let (outcome, _) = stop(
            estimator,
            50_000_000,
            &mut StdRng::seed_from_u64(13),
            &unlimited,
            |rng: &mut StdRng| rng.random_bool(0.4),
        );
        assert_eq!(
            (
                outcome.estimate.to_bits(),
                outcome.samples,
                outcome.successes
            ),
            (0x3fd94018dca64398, 659, 260)
        );
        assert!(!outcome.truncated);
        let (outcome, _) = stop(
            estimator,
            500,
            &mut StdRng::seed_from_u64(13),
            &unlimited,
            |rng: &mut StdRng| rng.random_bool(0.01),
        );
        assert_eq!(
            (
                outcome.estimate.to_bits(),
                outcome.samples,
                outcome.successes
            ),
            (0x3f789374bc6a7efa, 500, 3)
        );
        assert!(outcome.truncated);
        #[cfg(feature = "parallel")]
        {
            let outcome = estimate_fixed_batch_parallel(7, 50_001, 1_000, 1, || {
                |rng: &mut StdRng, successes: &mut [u64]| {
                    if rng.random_bool(0.4) {
                        successes[0] += 1;
                    }
                }
            });
            assert_eq!((outcome.samples, outcome.successes[0]), (50_001, 19808));
            let estimate = outcome.successes[0] as f64 / outcome.samples as f64;
            assert_eq!(estimate.to_bits(), 0x3fd95a8e3db1dc31);
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_panics() {
        let _ = StoppingRuleEstimator::new(1.5, 0.1);
    }

    /// A one-variable parallel run: the rayon-sharded fixed loop over a
    /// bank of one.
    #[cfg(feature = "parallel")]
    fn parallel(master_seed: u64, samples: u64, shard_size: u64, p: f64) -> BatchOutcome {
        estimate_fixed_batch_parallel(master_seed, samples, shard_size, 1, || {
            move |rng: &mut StdRng, successes: &mut [u64]| {
                if rng.random_bool(p) {
                    successes[0] += 1;
                }
            }
        })
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_estimator_recovers_the_mean() {
        let outcome = parallel(99, 80_000, DEFAULT_SHARD_SIZE, 0.25);
        assert_eq!(outcome.samples, 80_000);
        assert!((outcome.successes[0] as f64 / 80_000.0 - 0.25).abs() < 0.01);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_estimator_is_thread_count_independent() {
        let run = || parallel(7, 50_001, 1_000, 0.4);
        let baseline = run();
        for threads in [1usize, 2, 5, 16] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let outcome = pool.install(run);
            assert_eq!(outcome, baseline, "{threads} threads");
        }
    }

    #[test]
    fn batch_estimator_matches_independent_runs_per_variable() {
        // A shared experiment whose per-variable checks are deterministic
        // functions of one shared draw: a batch of k must equal k banks
        // of one from the same RNG state.
        let thresholds = [0.2f64, 0.5, 0.8];
        let unlimited = RunBudget::unlimited();
        let (batched, _) = {
            let mut rng = StdRng::seed_from_u64(11);
            estimate_fixed_batch_budgeted(
                &mut rng,
                10_000,
                thresholds.len(),
                &unlimited,
                |rng, successes| {
                    let draw: f64 = rng.random();
                    for (s, &t) in successes.iter_mut().zip(&thresholds) {
                        if draw < t {
                            *s += 1;
                        }
                    }
                },
            )
        };
        assert_eq!(batched.samples, 10_000);
        for (i, &t) in thresholds.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(11);
            let (single, _) = fixed(&mut rng, 10_000, &unlimited, |rng| {
                let draw: f64 = rng.random();
                draw < t
            });
            assert_eq!(batched.successes[i], single.successes[0], "variable {i}");
            assert!((batched.successes[i] as f64 / 10_000.0 - t).abs() < 0.02);
        }
    }

    #[test]
    fn batch_estimator_with_zero_samples_or_queries() {
        let mut rng = StdRng::seed_from_u64(1);
        let unlimited = RunBudget::unlimited();
        let (zero, _) =
            estimate_fixed_batch_budgeted(&mut rng, 0, 3, &unlimited, |_, _| panic!("no draws"));
        assert_eq!(zero.successes, vec![0, 0, 0]);
        assert_eq!(zero.samples, 0);
        let (empty, _) =
            estimate_fixed_batch_budgeted(&mut rng, 5, 0, &unlimited, |_, successes| {
                assert!(successes.is_empty());
            });
        assert!(empty.successes.is_empty());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_batch_matches_independent_parallel_runs() {
        let thresholds = [0.3f64, 0.7];
        let experiment = |rng: &mut StdRng, successes: &mut [u64]| {
            let draw: f64 = rng.random();
            for (s, &t) in successes.iter_mut().zip(&thresholds) {
                if draw < t {
                    *s += 1;
                }
            }
        };
        let batched = estimate_fixed_batch_parallel(42, 30_001, 1_000, 2, || experiment);
        for (i, &t) in thresholds.iter().enumerate() {
            let single = estimate_fixed_batch_parallel(42, 30_001, 1_000, 1, || {
                move |rng: &mut StdRng, successes: &mut [u64]| {
                    let draw: f64 = rng.random();
                    if draw < t {
                        successes[0] += 1;
                    }
                }
            });
            assert_eq!(batched.successes[i], single.successes[0], "variable {i}");
        }
        // Thread-count independence.
        for threads in [1usize, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let outcome =
                pool.install(|| estimate_fixed_batch_parallel(42, 30_001, 1_000, 2, || experiment));
            assert_eq!(outcome, batched, "{threads} threads");
        }
    }

    /// A batched experiment whose per-query checks are thresholds over one
    /// shared uniform draw; records retirement notifications.
    struct ThresholdExperiment {
        thresholds: Vec<f64>,
        retired: Vec<usize>,
    }

    impl ThresholdExperiment {
        fn new(thresholds: &[f64]) -> Self {
            ThresholdExperiment {
                thresholds: thresholds.to_vec(),
                retired: Vec::new(),
            }
        }
    }

    impl<R: Rng + ?Sized> StoppingBatchExperiment<R> for ThresholdExperiment {
        fn draw(&mut self, rng: &mut R, hits: &mut [bool]) {
            let draw: f64 = rng.random();
            for (hit, &t) in hits.iter_mut().zip(&self.thresholds) {
                *hit = draw < t;
            }
        }

        fn retire(&mut self, query: usize) {
            self.retired.push(query);
        }
    }

    #[test]
    fn stopping_batch_is_bit_identical_to_independent_stopping_runs() {
        // Per-query targets over one shared stream: each query's outcome
        // must equal a standalone stopping-rule run with the same target
        // from the same RNG state (the draws it observes are identical).
        let thresholds = [0.6f64, 0.25, 0.05];
        let targets: Vec<u64> = vec![40, 25, 10];
        let mut experiment = ThresholdExperiment::new(&thresholds);
        let mut rng = StdRng::seed_from_u64(21);
        let batched = estimate_stopping_batch(&mut rng, &targets, 1_000_000, &mut experiment);
        assert_eq!(batched.outcomes.len(), 3);
        for (q, (&t, &target)) in thresholds.iter().zip(&targets).enumerate() {
            let mut rng = StdRng::seed_from_u64(21);
            let mut samples = 0u64;
            let mut successes = 0u64;
            while successes < target {
                samples += 1;
                let draw: f64 = rng.random();
                if draw < t {
                    successes += 1;
                }
            }
            let outcome = batched.outcomes[q];
            assert!(!outcome.truncated, "query {q}");
            assert_eq!(outcome.samples, samples, "query {q}");
            assert_eq!(outcome.successes, target, "query {q}");
            assert_eq!(
                outcome.estimate,
                target as f64 / samples as f64,
                "query {q}"
            );
        }
        // Rarer queries observe longer stream prefixes; the stream length
        // is the maximum.
        assert!(batched.outcomes[0].samples <= batched.outcomes[1].samples);
        assert!(batched.outcomes[1].samples <= batched.outcomes[2].samples);
        assert_eq!(batched.total_samples, batched.outcomes[2].samples);
        // Every converged query was retired, in convergence order.
        assert_eq!(experiment.retired, vec![0, 1, 2]);
    }

    #[test]
    fn stopping_batch_truncates_impossible_queries_without_stalling_others() {
        let thresholds = [0.5f64, 0.0];
        let targets = vec![30u64, 30];
        let mut experiment = ThresholdExperiment::new(&thresholds);
        let mut rng = StdRng::seed_from_u64(5);
        let batched = estimate_stopping_batch(&mut rng, &targets, 2_000, &mut experiment);
        let easy = batched.outcomes[0];
        assert!(!easy.truncated);
        assert!(easy.samples < 2_000, "the easy query retires early");
        let never = batched.outcomes[1];
        assert!(never.truncated);
        assert_eq!(never.samples, 2_000);
        assert_eq!(never.successes, 0);
        assert_eq!(never.estimate, 0.0);
        assert_eq!(batched.total_samples, 2_000);
        assert_eq!(experiment.retired, vec![0]);
    }

    #[test]
    fn stopping_batch_with_empty_bank_draws_nothing() {
        let mut experiment = ThresholdExperiment::new(&[]);
        let mut rng = StdRng::seed_from_u64(1);
        let batched = estimate_stopping_batch(&mut rng, &[], 1_000, &mut experiment);
        assert!(batched.outcomes.is_empty());
        assert_eq!(batched.total_samples, 0);
    }

    /// The round-based stopping rule with an unconstrained budget.
    #[cfg(feature = "parallel")]
    fn rounds<E, F>(
        master_seed: u64,
        targets: &[u64],
        max_samples: u64,
        round_samples: u64,
        shard_size: u64,
        make_experiment: F,
    ) -> BudgetedStoppingOutcome
    where
        F: Fn(&[usize]) -> E + Sync,
        E: FnMut(&mut StdRng, &mut [bool]),
    {
        estimate_stopping_batch_rounds_budgeted(
            master_seed,
            targets,
            max_samples,
            round_samples,
            shard_size,
            &RunBudget::unlimited(),
            make_experiment,
        )
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn stopping_batch_rounds_achieves_relative_error_and_retires() {
        let thresholds = [0.5f64, 0.02];
        let estimator = StoppingRuleEstimator::new(0.1, 0.05);
        let targets = vec![estimator.success_target(); 2];
        let run = || {
            rounds(33, &targets, 10_000_000, 2_048, 512, |_live| {
                move |rng: &mut StdRng, hits: &mut [bool]| {
                    let draw: f64 = rng.random();
                    for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                        *hit = draw < t;
                    }
                }
            })
        };
        let batched = run();
        for (q, &t) in thresholds.iter().enumerate() {
            let outcome = batched.outcomes[q];
            assert!(!outcome.truncated, "query {q}");
            assert!(outcome.successes >= targets[q], "query {q}");
            let relative_error = (outcome.estimate - t).abs() / t;
            assert!(
                relative_error < 0.15,
                "query {q}: estimate {} (relative error {relative_error})",
                outcome.estimate
            );
        }
        // The common query retires rounds earlier than the rare one.
        assert!(batched.outcomes[0].samples < batched.outcomes[1].samples);
        assert_eq!(batched.total_samples, batched.outcomes[1].samples);
        // Bit-identical across thread counts.
        for threads in [1usize, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let outcome = pool.install(run);
            assert_eq!(outcome, batched, "{threads} threads");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn stopping_batch_rounds_shrink_with_the_live_set() {
        use std::sync::Mutex;

        // One common query retiring in round one, one rare query riding a
        // long tail.  With shard_size == round_samples / 2, a full round
        // runs as two shards and a half-sized tail round as one, so the
        // live-set sizes recorded per `make_experiment` call reveal the
        // schedule.
        let thresholds = [0.9f64, 0.02];
        let target = StoppingRuleEstimator::new(0.3, 0.1).success_target();
        let targets = vec![target; 2];
        let live_sizes: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let batched = rounds(9, &targets, 1_000_000, 1_000, 500, |live| {
            live_sizes.lock().unwrap().push(live.len());
            move |rng: &mut StdRng, hits: &mut [bool]| {
                let draw: f64 = rng.random();
                for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                    *hit = draw < t;
                }
            }
        });
        let easy = batched.outcomes[0];
        assert!(!easy.truncated);
        assert_eq!(easy.samples, 1_000, "the common query retires in round one");
        let rare = batched.outcomes[1];
        assert!(!rare.truncated);
        assert!(rare.samples > 1_000);
        // After the first retirement rounds shrink to ⌈1000 · 1/2⌉ = 500.
        assert_eq!(
            (rare.samples - 1_000) % 500,
            0,
            "tail rounds are half-sized: {} samples",
            rare.samples
        );
        let sizes = live_sizes.into_inner().unwrap();
        assert_eq!(&sizes[..2], &[2, 2], "the full first round runs two shards");
        assert!(sizes[2..].iter().all(|&s| s == 1), "{sizes:?}");
        assert_eq!(
            sizes.len() as u64,
            2 + (rare.samples - 1_000) / 500,
            "one shard per tail round: {sizes:?}"
        );
        // The adaptive schedule stays bit-identical across thread counts.
        let rerun = || {
            rounds(9, &targets, 1_000_000, 1_000, 500, |_live| {
                move |rng: &mut StdRng, hits: &mut [bool]| {
                    let draw: f64 = rng.random();
                    for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                        *hit = draw < t;
                    }
                }
            })
        };
        for threads in [1usize, 3] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            assert_eq!(pool.install(rerun), batched, "{threads} threads");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn stopping_batch_rounds_truncates_at_the_cut_off() {
        let targets = vec![10u64];
        let batched = rounds(1, &targets, 1_000, 256, 64, |_live| {
            |_rng: &mut StdRng, hits: &mut [bool]| hits.fill(false)
        });
        assert!(batched.outcomes[0].truncated);
        assert_eq!(batched.outcomes[0].samples, 1_000);
        assert_eq!(batched.total_samples, 1_000);
    }

    #[test]
    fn unbudgeted_and_unlimited_budget_fixed_runs_are_bit_identical() {
        // The golden stream (1499 successes in 5000 draws at seed 77) is
        // reproduced exactly under the unlimited and a non-binding budget.
        let run = |budget: &RunBudget| {
            let mut rng = StdRng::seed_from_u64(77);
            fixed(&mut rng, 5_000, budget, |rng| rng.random_bool(0.3))
        };
        let (unlimited, status) = run(&RunBudget::unlimited());
        assert_eq!((unlimited.samples, unlimited.successes[0]), (5_000, 1499));
        assert_eq!(status, BudgetStatus::Converged);
        let non_binding = RunBudget::unlimited()
            .with_max_draws(5_000)
            .with_cancel_token(crate::budget::CancelToken::new());
        assert_eq!(run(&non_binding), (unlimited, status));
    }

    #[test]
    fn budgeted_fixed_run_stops_at_the_draw_cap() {
        let mut rng = StdRng::seed_from_u64(77);
        let budget = RunBudget::unlimited().with_max_draws(100);
        let (outcome, status) = fixed(&mut rng, 5_000, &budget, |rng| rng.random_bool(0.3));
        assert_eq!(status, BudgetStatus::BudgetExhausted);
        assert_eq!(outcome.samples, 100);
        // Exactly 100 draws were consumed: the next draw continues the
        // uninterrupted stream.
        let unlimited = RunBudget::unlimited();
        let (continued, _) = fixed(&mut rng, 4_900, &unlimited, |rng| rng.random_bool(0.3));
        let (full, _) = {
            let mut rng = StdRng::seed_from_u64(77);
            fixed(&mut rng, 5_000, &unlimited, |rng| rng.random_bool(0.3))
        };
        assert_eq!(
            outcome.successes[0] + continued.successes[0],
            full.successes[0]
        );
    }

    #[test]
    fn budgeted_batch_run_cancels_mid_stream() {
        let thresholds = [0.2f64, 0.8];
        let token = crate::budget::CancelToken::tripped_at_draw(42);
        let budget = RunBudget::unlimited().with_cancel_token(token);
        let mut rng = StdRng::seed_from_u64(3);
        let (outcome, status) =
            estimate_fixed_batch_budgeted(&mut rng, 10_000, 2, &budget, |rng, successes| {
                let draw: f64 = rng.random();
                for (s, &t) in successes.iter_mut().zip(&thresholds) {
                    if draw < t {
                        *s += 1;
                    }
                }
            });
        assert_eq!(status, BudgetStatus::Cancelled);
        assert_eq!(outcome.samples, 42);
    }

    #[test]
    fn budgeted_stopping_batch_with_unlimited_budget_matches_plain() {
        let thresholds = [0.6f64, 0.25, 0.05];
        let targets: Vec<u64> = vec![40, 25, 10];
        let plain = {
            let mut experiment = ThresholdExperiment::new(&thresholds);
            let mut rng = StdRng::seed_from_u64(21);
            estimate_stopping_batch(&mut rng, &targets, 1_000_000, &mut experiment)
        };
        let budgeted = {
            let mut experiment = ThresholdExperiment::new(&thresholds);
            let mut rng = StdRng::seed_from_u64(21);
            estimate_stopping_batch_budgeted(
                &mut rng,
                &targets,
                1_000_000,
                &RunBudget::unlimited(),
                &mut experiment,
                None,
            )
        };
        assert_eq!(budgeted.outcomes, plain.outcomes);
        assert_eq!(budgeted.total_samples, plain.total_samples);
        assert!(budgeted.statuses.iter().all(|s| s.is_converged()));
    }

    #[test]
    fn cancelled_stopping_batch_resumes_bit_for_bit() {
        let thresholds = [0.6f64, 0.25, 0.05];
        let targets: Vec<u64> = vec![40, 25, 10];
        let uninterrupted = {
            let mut experiment = ThresholdExperiment::new(&thresholds);
            let mut rng = StdRng::seed_from_u64(21);
            estimate_stopping_batch(&mut rng, &targets, 1_000_000, &mut experiment)
        };
        // Cancel mid-stream at several truncation points, then resume with
        // the same RNG: the concatenated run must equal the uninterrupted
        // one bit-for-bit.
        for trip_at in [1u64, 17, 60, 150] {
            let mut experiment = ThresholdExperiment::new(&thresholds);
            let mut rng = StdRng::seed_from_u64(21);
            let budget = RunBudget::unlimited()
                .with_cancel_token(crate::budget::CancelToken::tripped_at_draw(trip_at));
            let partial = estimate_stopping_batch_budgeted(
                &mut rng,
                &targets,
                1_000_000,
                &budget,
                &mut experiment,
                None,
            );
            assert_eq!(partial.total_samples, trip_at);
            for (q, status) in partial.statuses.iter().enumerate() {
                if !status.is_converged() {
                    assert_eq!(*status, BudgetStatus::Cancelled, "query {q} at {trip_at}");
                    assert!(partial.outcomes[q].truncated);
                }
            }
            let resumed = estimate_stopping_batch_budgeted(
                &mut rng,
                &targets,
                1_000_000,
                &RunBudget::unlimited(),
                &mut experiment,
                Some(&partial),
            );
            assert_eq!(
                resumed.outcomes, uninterrupted.outcomes,
                "trip at {trip_at}"
            );
            assert_eq!(resumed.total_samples, uninterrupted.total_samples);
            assert!(resumed.statuses.iter().all(|s| s.is_converged()));
        }
    }

    #[test]
    fn stopping_rule_budgeted_matches_plain_and_reports_cancellation() {
        // The golden run (retiring after 659 draws at seed 13) is
        // reproduced under a non-binding budget and cut by a tripped token.
        let estimator = StoppingRuleEstimator::new(0.2, 0.1);
        let run = |budget: &RunBudget| {
            let mut rng = StdRng::seed_from_u64(13);
            stop(
                estimator,
                50_000_000,
                &mut rng,
                budget,
                |rng: &mut StdRng| rng.random_bool(0.4),
            )
        };
        let (plain, status) = run(&RunBudget::unlimited());
        assert_eq!((plain.samples, plain.successes), (659, 260));
        assert_eq!(status, BudgetStatus::Converged);
        let non_binding = RunBudget::unlimited()
            .with_cancel_token(crate::budget::CancelToken::tripped_at_draw(659));
        assert_eq!(run(&non_binding), (plain, status));
        let budget = RunBudget::unlimited()
            .with_cancel_token(crate::budget::CancelToken::tripped_at_draw(7));
        let (partial, status) = run(&budget);
        assert_eq!(status, BudgetStatus::Cancelled);
        assert!(partial.truncated);
        assert_eq!(partial.samples, 7);
    }

    #[test]
    fn try_new_rejects_out_of_range_parameters() {
        assert!(StoppingRuleEstimator::try_new(0.0, 0.1).is_err());
        assert!(StoppingRuleEstimator::try_new(0.1, 1.0).is_err());
        assert!(StoppingRuleEstimator::try_new(f64::NAN, 0.1).is_err());
        assert!(StoppingRuleEstimator::try_new(0.1, 0.1).is_ok());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn budgeted_rounds_with_unlimited_budget_match_plain_rounds() {
        let thresholds = [0.5f64, 0.02];
        let targets = vec![StoppingRuleEstimator::new(0.1, 0.05).success_target(); 2];
        let experiment = |_live: &[usize]| {
            move |rng: &mut StdRng, hits: &mut [bool]| {
                let draw: f64 = rng.random();
                for (hit, &t) in hits.iter_mut().zip(&thresholds) {
                    *hit = draw < t;
                }
            }
        };
        let plain = rounds(33, &targets, 10_000_000, 2_048, 512, experiment);
        let non_binding = RunBudget::unlimited()
            .with_max_draws(u64::MAX)
            .with_cancel_token(crate::budget::CancelToken::new());
        let budgeted = estimate_stopping_batch_rounds_budgeted(
            33,
            &targets,
            10_000_000,
            2_048,
            512,
            &non_binding,
            experiment,
        );
        assert_eq!(budgeted, plain);
        assert!(budgeted.statuses.iter().all(|s| s.is_converged()));
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn budgeted_rounds_cancel_at_round_boundaries() {
        let targets = vec![1_000u64];
        let token = crate::budget::CancelToken::new();
        token.cancel();
        let budget = RunBudget::unlimited().with_cancel_token(token);
        let cancelled = estimate_stopping_batch_rounds_budgeted(
            1,
            &targets,
            1_000_000,
            256,
            64,
            &budget,
            |_live| |rng: &mut StdRng, hits: &mut [bool]| hits.fill(rng.random_bool(0.5)),
        );
        // A pre-tripped token fires at the first boundary: nothing drawn.
        assert_eq!(cancelled.total_samples, 0);
        assert_eq!(cancelled.statuses, vec![BudgetStatus::Cancelled]);
        assert!(cancelled.outcomes[0].truncated);
        let capped = estimate_stopping_batch_rounds_budgeted(
            1,
            &targets,
            1_000_000,
            256,
            64,
            &RunBudget::unlimited().with_max_draws(300),
            |_live| |rng: &mut StdRng, hits: &mut [bool]| hits.fill(rng.random_bool(0.001)),
        );
        // The cap is observed at the next boundary after 300 draws.
        assert_eq!(capped.statuses, vec![BudgetStatus::BudgetExhausted]);
        assert!(capped.total_samples >= 300);
        assert!(capped.outcomes[0].truncated);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_estimator_handles_edge_sample_counts() {
        let zero = parallel(1, 0, 64, 1.0);
        assert_eq!(zero.successes, vec![0]);
        assert_eq!(zero.samples, 0);
        let one = parallel(1, 1, 64, 1.0);
        assert_eq!(one.successes, vec![1]);
    }
}
