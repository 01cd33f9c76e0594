//! End-to-end FPRAS drivers for uniform operational CQA.
//!
//! [`OcqaEstimator`] wires together a uniform generator specification, the
//! matching polynomial sampler, and a Monte-Carlo estimator, and enforces
//! the constraint-class requirements under which the paper proves each
//! combination approximable:
//!
//! | Generator | Pair + singleton ops | Singleton ops only |
//! |---|---|---|
//! | `M^ur` (uniform repairs)   | primary keys (Thm 5.1(2)); **no FPRAS** for FDs (Thm 5.1(3)); open for keys | primary keys (Thm E.1(2)) |
//! | `M^us` (uniform sequences) | primary keys (Thm 6.1(2)); open for keys/FDs | primary keys (Thm E.8(2)) |
//! | `M^uo` (uniform operations)| arbitrary keys (Thm 7.1(2)); open for FDs (Prop. D.6 rules out plain Monte-Carlo) | arbitrary FDs (Thm 7.5) |
//!
//! Requesting a combination outside this table yields
//! [`CoreError::Unsupported`] with the relevant theorem cited in the error
//! message.

use rand::Rng;

use ucqa_db::{ConflictIndex, Database, FactSet, FdSet, Value};
use ucqa_query::{BankLiveSet, BankScratch, LineageBank, QueryEvaluator, DEFAULT_WITNESS_CAP};
use ucqa_repair::{GeneratorSpec, UniformSemantics};

use crate::bounds;
use crate::budget::{AchievedBound, BudgetStatus, EstimateOutcome, QueryOutcome, RunBudget};
use crate::montecarlo::{
    estimate_fixed_batch_budgeted, estimate_stopping_batch_budgeted, BudgetedStoppingOutcome,
    StoppingBatchExperiment, StoppingRuleEstimator, StoppingRuleOutcome,
};
use crate::sample_operations::{OperationWalkSampler, WalkScratch};
use crate::sample_repairs::RepairSampler;
use crate::sample_sequences::SequenceSampler;
use crate::CoreError;

/// How many samples to draw, and under which guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorMode {
    /// The Dagum–Karp–Luby–Ross optimal stopping rule with the given
    /// sample cut-off: a relative `(ε, δ)`-guarantee whenever the cut-off
    /// is not hit.  This is the default and the practical choice.
    OptimalStopping {
        /// Hard cap on the number of samples.
        max_samples: u64,
    },
    /// A fixed number of samples derived from the worst-case lower bounds
    /// of [`crate::bounds`] (relative guarantee).  Fails when the bound is
    /// too small to be useful.
    FixedFromLowerBound,
    /// A fixed number of samples for an *additive* `(ε, δ)`-guarantee.
    FixedAdditive,
    /// An explicit number of samples (no formal guarantee; useful for
    /// benchmarks).
    FixedSamples(u64),
}

/// Approximation parameters `(ε, δ)` plus the estimator mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproximationParams {
    /// Relative (or additive, depending on the mode) error bound.
    pub epsilon: f64,
    /// Failure probability.
    pub delta: f64,
    /// The estimator mode.
    pub mode: EstimatorMode,
}

impl ApproximationParams {
    /// Creates parameters using the optimal stopping rule with a default
    /// cut-off of 10 million samples.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, CoreError> {
        let params = ApproximationParams {
            epsilon,
            delta,
            mode: EstimatorMode::OptimalStopping {
                max_samples: 10_000_000,
            },
        };
        params.validate()?;
        Ok(params)
    }

    /// Switches to a different estimator mode.
    pub fn with_mode(mut self, mode: EstimatorMode) -> Self {
        self.mode = mode;
        self
    }

    fn validate(&self) -> Result<(), CoreError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(CoreError::InvalidParameters {
                message: format!("epsilon must be in (0, 1), got {}", self.epsilon),
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(CoreError::InvalidParameters {
                message: format!("delta must be in (0, 1), got {}", self.delta),
            });
        }
        Ok(())
    }
}

/// Which sampler backs the estimator.
///
/// The operations walker owns its precomputed [`ucqa_db::ConflictIndex`],
/// built once here so that every Monte-Carlo shard shares it by reference;
/// the sequences samplers are built in log-space-only mode because the
/// estimator never needs `sample_sequence` (skipping the exact `Natural`
/// DP cells, whose big-integer arithmetic dominates construction).
enum SamplerKind<'a> {
    Repairs(RepairSampler),
    RepairsSingleton(RepairSampler),
    Sequences(SequenceSampler),
    SequencesSingleton(SequenceSampler),
    Operations(OperationWalkSampler<'a>),
}

impl SamplerKind<'_> {
    /// Draws one repair into the reused buffer.
    ///
    /// This is the *only* place the Monte-Carlo loops consume the RNG —
    /// every loop's experiment dispatches through it, which is what makes
    /// a bank of `k` bit-identical to `k` banks of one under a shared
    /// seed.
    fn sample_repair_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut FactSet,
        scratch: &mut WalkScratch,
    ) {
        match self {
            SamplerKind::Repairs(sampler) => sampler.sample_into(rng, out),
            SamplerKind::RepairsSingleton(sampler) => sampler.sample_singleton_into(rng, out),
            SamplerKind::Sequences(sampler) => sampler.sample_result_into(rng, out),
            SamplerKind::SequencesSingleton(sampler) => {
                sampler.sample_result_singleton_into(rng, out)
            }
            SamplerKind::Operations(walker) => walker.sample_result_into(rng, out, scratch),
        }
    }
}

/// An approximate (FPRAS) solver for `OCQA(Σ, M, Q)` over one database.
pub struct OcqaEstimator<'a> {
    db: &'a Database,
    sigma: &'a FdSet,
    spec: GeneratorSpec,
    sampler: SamplerKind<'a>,
}

impl<'a> OcqaEstimator<'a> {
    /// Creates an estimator for the given uniform generator, validating
    /// that the paper provides an FPRAS for the combination of generator
    /// and constraint class.
    pub fn new(db: &'a Database, sigma: &'a FdSet, spec: GeneratorSpec) -> Result<Self, CoreError> {
        Self::new_inner(db, sigma, spec, None)
    }

    /// As [`OcqaEstimator::new`], reusing a caller-maintained
    /// [`ConflictIndex`] for the uniform-operations walk — typically one
    /// kept current across database mutations with
    /// [`ConflictIndex::refresh`] — instead of rebuilding it from scratch.
    /// Estimates are bit-identical to [`OcqaEstimator::new`] under the
    /// same seed; only the construction cost differs.
    ///
    /// # Errors
    /// The same support errors as [`OcqaEstimator::new`]; additionally,
    /// the spec must use [`UniformSemantics::Operations`] (the repair and
    /// sequence generators do not consume a conflict index).
    ///
    /// # Panics
    /// Panics if `index` is stale with respect to `db` (see
    /// [`crate::sample_operations::OperationWalkSampler::with_index`]).
    pub fn with_conflict_index(
        db: &'a Database,
        sigma: &'a FdSet,
        spec: GeneratorSpec,
        index: ConflictIndex,
    ) -> Result<Self, CoreError> {
        if spec.semantics != UniformSemantics::Operations {
            return Err(CoreError::Unsupported {
                semantics: spec.semantics,
                singleton_only: spec.singleton_only,
                constraint_class: "any".to_string(),
                explanation: "a precomputed conflict index only backs the uniform-operations \
                              walk; use OcqaEstimator::new for the other generators"
                    .to_string(),
            });
        }
        Self::new_inner(db, sigma, spec, Some(index))
    }

    fn new_inner(
        db: &'a Database,
        sigma: &'a FdSet,
        spec: GeneratorSpec,
        index: Option<ConflictIndex>,
    ) -> Result<Self, CoreError> {
        let schema = db.schema();
        let primary_keys = sigma.is_primary_keys(schema);
        let keys = sigma.is_keys(schema);
        let constraint_class = if primary_keys {
            "primary keys"
        } else if keys {
            "keys"
        } else {
            "functional dependencies"
        };
        let unsupported = |explanation: &str| CoreError::Unsupported {
            semantics: spec.semantics,
            singleton_only: spec.singleton_only,
            constraint_class: constraint_class.to_string(),
            explanation: explanation.to_string(),
        };

        let sampler = match (spec.semantics, spec.singleton_only) {
            (UniformSemantics::Repairs, false) => {
                if !primary_keys {
                    return Err(unsupported(if keys {
                        "open problem (Theorem 5.1 covers primary keys; Proposition 5.5 \
                         rules out approximate repair counting for keys)"
                    } else {
                        "Theorem 5.1(3): no FPRAS for FDs unless RP = NP"
                    }));
                }
                SamplerKind::Repairs(RepairSampler::new(db, sigma)?)
            }
            (UniformSemantics::Repairs, true) => {
                if !primary_keys {
                    return Err(unsupported(
                        "Theorem E.1 covers primary keys only; E.1(3) rules out FDs",
                    ));
                }
                SamplerKind::RepairsSingleton(RepairSampler::new(db, sigma)?)
            }
            (UniformSemantics::Sequences, false) => {
                if !primary_keys {
                    return Err(unsupported(
                        "Theorem 6.1 covers primary keys; keys/FDs are open (conjectured hard)",
                    ));
                }
                SamplerKind::Sequences(SequenceSampler::new_log_space(db, sigma)?)
            }
            (UniformSemantics::Sequences, true) => {
                if !primary_keys {
                    return Err(unsupported("Theorem E.8 covers primary keys only"));
                }
                SamplerKind::SequencesSingleton(SequenceSampler::new_log_space(db, sigma)?)
            }
            (UniformSemantics::Operations, false) => {
                if !keys {
                    return Err(unsupported(
                        "Theorem 7.1(2) requires keys; for general FDs the target probability \
                         can be exponentially small (Proposition D.6), use singleton operations \
                         (Theorem 7.5) instead",
                    ));
                }
                SamplerKind::Operations(match index {
                    Some(index) => OperationWalkSampler::with_index(db, sigma, index),
                    None => OperationWalkSampler::new(db, sigma),
                })
            }
            (UniformSemantics::Operations, true) => {
                let walker = match index {
                    Some(index) => OperationWalkSampler::with_index(db, sigma, index),
                    None => OperationWalkSampler::new(db, sigma),
                };
                SamplerKind::Operations(walker.singleton_only())
            }
        };
        Ok(OcqaEstimator {
            db,
            sigma,
            spec,
            sampler,
        })
    }

    /// The generator this estimator approximates.
    pub fn spec(&self) -> GeneratorSpec {
        self.spec
    }

    /// The worst-case lower bound on the (non-zero) target probability for
    /// this generator and constraint class, from [`crate::bounds`].
    pub fn theoretical_lower_bound(&self, evaluator: &QueryEvaluator) -> ucqa_numeric::LogFloat {
        let d = self.db.len();
        let q = evaluator.query().atom_count();
        match &self.sampler {
            SamplerKind::Repairs(_) => bounds::rrfreq_lower_bound(d, q),
            SamplerKind::RepairsSingleton(_) => bounds::singleton_frequency_lower_bound(d, q),
            SamplerKind::Sequences(_) => bounds::srfreq_lower_bound(d, q),
            SamplerKind::SequencesSingleton(_) => bounds::singleton_frequency_lower_bound(d, q),
            SamplerKind::Operations(walker) if walker.is_singleton_only() => {
                bounds::fd_singleton_lower_bound(d, q)
            }
            SamplerKind::Operations(_) => {
                bounds::uniform_operations_keys_lower_bound(d, q, self.sigma.max_fds_per_relation())
            }
        }
    }

    /// Estimates `P_{M_Σ,Q}(D, c̄)` under a [`RunBudget`].
    ///
    /// A single query is a bank of one: the candidate's lineage is
    /// compiled into a one-entry [`LineageBank`] — a monotone DNF of
    /// witnesses stored as short fact-id lists, so the per-draw entailment
    /// check is a "some witness ⊆ repair" test of a few bit probes per
    /// witness, with no heap allocation and no backtracking search
    /// (falling back to the slot-compiled evaluator
    /// when the witness count exceeds [`DEFAULT_WITNESS_CAP`]) — and the
    /// run goes through the same driver as
    /// [`BatchEstimator::estimate_with_bank`].  Compilation validates the
    /// candidate arity before any sampling happens; the budget's
    /// compile-step cap (and its cancel flag) interrupt a pathological
    /// enumeration into evaluator fallback.
    ///
    /// The budget is polled between draws and consumes no randomness: an
    /// unconstrained budget runs the mode to completion with status
    /// [`Converged`](BudgetStatus::Converged) (a stopping run that hits
    /// its `max_samples` cut-off reports
    /// [`BudgetExhausted`](BudgetStatus::BudgetExhausted)).  An
    /// interrupted run returns the partial estimate together with the
    /// achieved `(ε′, δ)` bound at the observed counts (see
    /// [`AchievedBound`]).
    pub fn estimate_with_budget<R: Rng + ?Sized>(
        &self,
        evaluator: &QueryEvaluator,
        candidate: &[Value],
        params: ApproximationParams,
        budget: &RunBudget,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        let queries = [BatchQuery::new(evaluator, candidate)];
        let bank = self.compile(&queries, budget)?;
        self.drive(&bank, &queries, params, budget, None, rng)
    }

    /// Estimates `P_{M_Σ,Q}(D, c̄)` with samples sharded across rayon
    /// worker threads — a bank of one through
    /// [`BatchEstimator::estimate_batch_parallel`]'s path.
    ///
    /// Each shard owns its own deterministic RNG stream derived from
    /// `master_seed` and its own sampling buffers, so the result is
    /// bit-identical for a fixed master seed regardless of the number of
    /// worker threads.
    #[cfg(feature = "parallel")]
    pub fn estimate_parallel(
        &self,
        evaluator: &QueryEvaluator,
        candidate: &[Value],
        params: ApproximationParams,
        master_seed: u64,
    ) -> Result<EstimateOutcome, CoreError> {
        let queries = [BatchQuery::new(evaluator, candidate)];
        let bank = self.compile(&queries, &RunBudget::unlimited())?;
        self.drive_parallel(&bank, &queries, params, master_seed)
    }

    /// Compiles the shared lineage of `queries` ([`LineageBank`]: grounded
    /// plan-ordered atom sequences factored into one scan trie, witnesses
    /// deduplicated into one arena), validating every candidate arity,
    /// under the compile-time part of `budget`
    /// ([`RunBudget::with_max_compile_steps`] and the cancel token).  An
    /// interrupted enumeration degrades the **whole bank** to evaluator
    /// fallback — a partial witness set would under-report entailment —
    /// so estimation proceeds correctly, just without the word-level
    /// bitset fast path.
    fn compile(
        &self,
        queries: &[BatchQuery<'_>],
        budget: &RunBudget,
    ) -> Result<LineageBank, CoreError> {
        let refs: Vec<(&QueryEvaluator, &[Value])> =
            queries.iter().map(|q| (q.evaluator, q.candidate)).collect();
        Ok(LineageBank::compile_with_budget(
            self.db,
            &refs,
            DEFAULT_WITNESS_CAP,
            &budget.compile_budget(),
        )?)
    }

    /// The one sequential estimation driver: every estimate — a single
    /// query (a bank of one), a whole bank, a resumed or an enrolled
    /// stream — runs through here.
    ///
    /// Validates the arguments before any draw (returning
    /// [`CoreError::InvalidParameters`], never advancing `rng`), then
    /// dispatches on the [`EstimatorMode`]:
    ///
    /// * [`EstimatorMode::OptimalStopping`] runs the batched DKLR loop
    ///   ([`estimate_stopping_batch_budgeted`]) with per-query target
    ///   `Υ(ε, δ/k)`.  Without a `prior` every entry is live; with one,
    ///   the live set is built from [`BankLiveSet::empty`] by
    ///   [enrolling](BankLiveSet::enroll) exactly the prior's
    ///   non-converged entries, converged entries are returned verbatim,
    ///   and enrolled entries continue their stream at absolute draw
    ///   counts.
    /// * The fixed-sample modes run one shared loop of the common length
    ///   ([`estimate_fixed_batch_budgeted`]); they cannot resume a prior.
    fn drive<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        prior: Option<&EstimateOutcome>,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        params.validate()?;
        self.check_bank(bank, queries)?;
        let k = queries.len();
        if let Some(prior) = prior {
            if prior.queries.len() != k {
                return Err(invalid(format!(
                    "the prior outcome covers {} entries, the batch {k}",
                    prior.queries.len()
                )));
            }
        }
        match params.mode {
            EstimatorMode::OptimalStopping { max_samples } => {
                let (targets, per_query_delta) = stopping_targets(params, k);
                let live = match prior {
                    None => BankLiveSet::full(bank),
                    Some(prior) => {
                        let mut live = BankLiveSet::empty(bank);
                        for (query, outcome) in prior.queries.iter().enumerate() {
                            if !outcome.status.is_converged() {
                                live.enroll(bank, query);
                            }
                        }
                        live
                    }
                };
                let resume = prior.map(budgeted_from);
                let mut experiment = BatchStoppingExperiment::new(self, bank, queries, live);
                let budgeted = estimate_stopping_batch_budgeted(
                    rng,
                    &targets,
                    max_samples,
                    budget,
                    &mut experiment,
                    resume.as_ref(),
                );
                Ok(outcome_from(budgeted, per_query_delta))
            }
            _ => {
                if prior.is_some() {
                    return Err(invalid(format!(
                        "only EstimatorMode::OptimalStopping can resume a prior outcome \
                         (got {:?}); a fixed-sample run has no per-entry convergence to \
                         continue",
                        params.mode
                    )));
                }
                let samples = self.fixed_sample_count(queries, params)?;
                let mut experiment =
                    BatchStoppingExperiment::new(self, bank, queries, BankLiveSet::full(bank));
                let mut hits = vec![false; k];
                let (outcome, status) =
                    estimate_fixed_batch_budgeted(rng, samples, k, budget, |rng, successes| {
                        experiment.count(rng, &mut hits, successes)
                    });
                Ok(fixed_outcome(
                    outcome.samples,
                    &outcome.successes,
                    status,
                    params.delta,
                ))
            }
        }
    }

    /// Checks that `bank` was compiled from `queries` and is current with
    /// respect to the estimator's database.
    fn check_bank(&self, bank: &LineageBank, queries: &[BatchQuery<'_>]) -> Result<(), CoreError> {
        if bank.len() != queries.len() {
            return Err(invalid(format!(
                "the bank has {} entries but the batch {} queries: it was compiled from a \
                 different query list",
                bank.len(),
                queries.len()
            )));
        }
        if bank.universe() != self.db.len() {
            return Err(invalid(format!(
                "the bank is stale (universe {}, database {} facts): refresh it against \
                 the database before estimating",
                bank.universe(),
                self.db.len()
            )));
        }
        Ok(())
    }

    /// The shared sample count of a fixed-sample [`EstimatorMode`] over
    /// `queries`.
    ///
    /// [`EstimatorMode::FixedFromLowerBound`] derives its count from one
    /// query's worst-case lower bound, so it is allowed exactly when the
    /// bank has one entry (a larger bank would need a different count per
    /// query, defeating the shared loop).
    fn fixed_sample_count(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
    ) -> Result<u64, CoreError> {
        match (params.mode, queries) {
            (EstimatorMode::FixedSamples(samples), _) => Ok(samples),
            (EstimatorMode::FixedAdditive, _) => Ok(bounds::samples_for_additive_error(
                params.epsilon,
                params.delta,
            )),
            (EstimatorMode::FixedFromLowerBound, [query]) => {
                let bound = self.theoretical_lower_bound(query.evaluator);
                bounds::samples_for_relative_error(params.epsilon, params.delta, bound).ok_or_else(
                    || {
                        invalid(
                            "the worst-case lower bound is too small to derive a practical \
                             sample count; use EstimatorMode::OptimalStopping",
                        )
                    },
                )
            }
            (EstimatorMode::FixedFromLowerBound, _) => Err(invalid(format!(
                "EstimatorMode::FixedFromLowerBound derives its sample count from one \
                 query's lower bound, so it needs a bank of exactly one entry (got {}); use \
                 FixedSamples, FixedAdditive or OptimalStopping for a larger bank",
                queries.len()
            ))),
            (EstimatorMode::OptimalStopping { .. }, _) => Err(invalid(
                "EstimatorMode::OptimalStopping has no fixed sample count; it is sequential",
            )),
        }
    }

    /// The rayon-sharded driver: fixed-sample modes share one sharded
    /// loop, [`EstimatorMode::OptimalStopping`] runs the round-based
    /// stopping rule with [`DEFAULT_ROUND_SAMPLES`] per round.
    #[cfg(feature = "parallel")]
    fn drive_parallel(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        master_seed: u64,
    ) -> Result<EstimateOutcome, CoreError> {
        use crate::montecarlo::{estimate_fixed_batch_parallel, DEFAULT_SHARD_SIZE};

        if matches!(params.mode, EstimatorMode::OptimalStopping { .. }) {
            return self.drive_rounds(
                bank,
                queries,
                params,
                master_seed,
                DEFAULT_ROUND_SAMPLES,
                &RunBudget::unlimited(),
            );
        }
        params.validate()?;
        self.check_bank(bank, queries)?;
        let samples = self.fixed_sample_count(queries, params)?;
        let k = queries.len();
        let outcome =
            estimate_fixed_batch_parallel(master_seed, samples, DEFAULT_SHARD_SIZE, k, || {
                let mut experiment =
                    BatchStoppingExperiment::new(self, bank, queries, BankLiveSet::full(bank));
                let mut hits = vec![false; k];
                move |rng: &mut rand::rngs::StdRng, successes: &mut [u64]| {
                    experiment.count(rng, &mut hits, successes)
                }
            });
        Ok(fixed_outcome(
            samples,
            &outcome.successes,
            BudgetStatus::Converged,
            params.delta,
        ))
    }

    /// The round-based rayon-sharded stopping rule over `bank` (see
    /// [`BatchEstimator::estimate_stopping_batch_rounds_with_budget`]).
    #[cfg(feature = "parallel")]
    fn drive_rounds(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        master_seed: u64,
        round_samples: u64,
        budget: &RunBudget,
    ) -> Result<EstimateOutcome, CoreError> {
        use crate::montecarlo::{estimate_stopping_batch_rounds_budgeted, DEFAULT_SHARD_SIZE};

        params.validate()?;
        self.check_bank(bank, queries)?;
        let EstimatorMode::OptimalStopping { max_samples } = params.mode else {
            return Err(invalid(format!(
                "the round-based stopping rule requires EstimatorMode::OptimalStopping \
                 (got {:?}); use estimate_batch_parallel for the fixed-sample modes",
                params.mode
            )));
        };
        let (targets, per_query_delta) = stopping_targets(params, queries.len());
        let budgeted = estimate_stopping_batch_rounds_budgeted(
            master_seed,
            &targets,
            max_samples,
            round_samples,
            DEFAULT_SHARD_SIZE,
            budget,
            |live_queries| {
                let live = BankLiveSet::restrict(bank, live_queries);
                let mut experiment = BatchStoppingExperiment::new(self, bank, queries, live);
                move |rng: &mut rand::rngs::StdRng, hits: &mut [bool]| {
                    experiment.draw_live(rng, hits)
                }
            },
        );
        Ok(outcome_from(budgeted, per_query_delta))
    }
}

/// The per-query DKLR success targets `Υ(ε, δ/k)` of a stopping run over
/// a bank of `k`, and the per-query failure probability `δ/k` (a union
/// bound over the bank restores the overall `(ε, δ)` guarantee).
fn stopping_targets(params: ApproximationParams, k: usize) -> (Vec<u64>, f64) {
    let per_query_delta = params.delta / k.max(1) as f64;
    let target = StoppingRuleEstimator::new(params.epsilon, per_query_delta).success_target();
    (vec![target; k], per_query_delta)
}

/// An [`CoreError::InvalidParameters`] with the given message.
fn invalid(message: impl Into<String>) -> CoreError {
    CoreError::InvalidParameters {
        message: message.into(),
    }
}

/// The public [`EstimateOutcome`] of a fixed-sample run: every entry
/// observed the same `samples` draws and shares one `status`; the achieved
/// bound is taken at `delta`.
fn fixed_outcome(
    samples: u64,
    successes: &[u64],
    status: BudgetStatus,
    delta: f64,
) -> EstimateOutcome {
    let queries = successes
        .iter()
        .map(|&s| QueryOutcome {
            estimate: if samples == 0 {
                0.0
            } else {
                s as f64 / samples as f64
            },
            samples,
            successes: s,
            status,
            achieved: AchievedBound::at(samples, s, delta),
        })
        .collect();
    EstimateOutcome {
        queries,
        total_draws: samples,
    }
}

/// Converts a budgeted stopping-batch outcome into the public
/// [`EstimateOutcome`], attaching each query's achieved `(ε′, δ/k)` bound
/// at its observed counts.
fn outcome_from(budgeted: BudgetedStoppingOutcome, per_query_delta: f64) -> EstimateOutcome {
    let queries = budgeted
        .outcomes
        .iter()
        .zip(&budgeted.statuses)
        .map(|(o, &status)| QueryOutcome {
            estimate: o.estimate,
            samples: o.samples,
            successes: o.successes,
            status,
            achieved: AchievedBound::at(o.samples, o.successes, per_query_delta),
        })
        .collect();
    EstimateOutcome {
        queries,
        total_draws: budgeted.total_samples,
    }
}

/// Reconstructs the resumable montecarlo-layer outcome from a prior public
/// [`EstimateOutcome`].
fn budgeted_from(prior: &EstimateOutcome) -> BudgetedStoppingOutcome {
    BudgetedStoppingOutcome {
        outcomes: prior
            .queries
            .iter()
            .map(|q| StoppingRuleOutcome {
                estimate: q.estimate,
                samples: q.samples,
                successes: q.successes,
                truncated: !q.status.is_converged(),
            })
            .collect(),
        statuses: prior.queries.iter().map(|q| q.status).collect(),
        total_samples: prior.total_draws,
    }
}

/// One query of a batched estimation run: an evaluator plus its candidate
/// answer tuple.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'q> {
    /// The (slot-compiled) query evaluator.
    pub evaluator: &'q QueryEvaluator,
    /// The candidate answer tuple (empty for Boolean queries).
    pub candidate: &'q [Value],
}

impl<'q> BatchQuery<'q> {
    /// Creates a batch query.
    pub fn new(evaluator: &'q QueryEvaluator, candidate: &'q [Value]) -> Self {
        BatchQuery {
            evaluator,
            candidate,
        }
    }
}

/// A batched multi-query FPRAS driver: one sampler loop, `k` estimates.
///
/// Estimating `k` queries over the same database with `k` independent
/// [`OcqaEstimator::estimate_with_budget`] calls runs `k` walk/sampler
/// loops even though a single draw of an operational repair can answer
/// *all* queries at once (the per-draw check is membership of the sampled
/// repair in each query's lineage).  [`BatchEstimator`] compiles the whole
/// query bank into a shared [`LineageBank`] — witness enumeration factored
/// through a shared scan trie over the per-query join plans, witnesses
/// deduplicated into one arena, per-query masks — and drives **one**
/// sampling loop; each sampled repair updates every per-query hit counter
/// in a single word-level pass.
///
/// **Bit-identity guarantee.**  The RNG is consumed by the shared draw
/// only, never by the per-query checks, so under a fixed seed a bank of
/// `k` returns, for every query, exactly the outcome a bank of one would
/// return from the same RNG state (a single-query
/// [`OcqaEstimator::estimate_with_budget`] run) — in the fixed-sample
/// modes directly, and under the stopping rule with the bank's per-query
/// target `Υ(ε, δ/k)`.  The rayon-sharded
/// [`BatchEstimator::estimate_batch_parallel`] is likewise bit-identical
/// to `k` [`OcqaEstimator::estimate_parallel`] runs in the fixed-sample
/// modes, regardless of thread count.
///
/// Three estimator modes are supported on a bank.  The fixed-sample-count
/// modes ([`EstimatorMode::FixedSamples`] and
/// [`EstimatorMode::FixedAdditive`]) share one loop of a fixed length.
/// The adaptive [`EstimatorMode::OptimalStopping`] runs the batched
/// stopping rule: each query tracks its own Dagum–Karp–Luby–Ross success
/// target `Υ(ε, δ/k)` over the shared repair stream and **retires** as it
/// converges, shrinking the per-draw work until the last query stops the
/// stream.  [`EstimatorMode::FixedFromLowerBound`] is accepted only for a
/// bank of one entry (it would derive a different fixed count per query,
/// defeating the shared loop).
pub struct BatchEstimator<'a> {
    inner: OcqaEstimator<'a>,
}

impl<'a> BatchEstimator<'a> {
    /// Creates a batched estimator for the given uniform generator, with
    /// the same constraint-class validation as [`OcqaEstimator::new`].
    pub fn new(db: &'a Database, sigma: &'a FdSet, spec: GeneratorSpec) -> Result<Self, CoreError> {
        Ok(BatchEstimator {
            inner: OcqaEstimator::new(db, sigma, spec)?,
        })
    }

    /// As [`BatchEstimator::new`], reusing a caller-maintained
    /// [`ConflictIndex`] for the uniform-operations walk (see
    /// [`OcqaEstimator::with_conflict_index`] for the errors, the
    /// staleness panics, and the bit-identity guarantee).
    pub fn with_conflict_index(
        db: &'a Database,
        sigma: &'a FdSet,
        spec: GeneratorSpec,
        index: ConflictIndex,
    ) -> Result<Self, CoreError> {
        Ok(BatchEstimator {
            inner: OcqaEstimator::with_conflict_index(db, sigma, spec, index)?,
        })
    }

    /// The generator this estimator approximates.
    pub fn spec(&self) -> GeneratorSpec {
        self.inner.spec()
    }

    /// The underlying single-query estimator (sharing the sampler and its
    /// precomputed conflict index).
    pub fn estimator(&self) -> &OcqaEstimator<'a> {
        &self.inner
    }

    /// Estimates `P_{M_Σ,Qᵢ}(D, c̄ᵢ)` for every query of the bank from one
    /// shared sequence of sampled repairs, under a [`RunBudget`].
    ///
    /// Compiles the [`LineageBank`] (validating every candidate arity)
    /// before any sampling happens, under the budget's compile-step cap;
    /// queries whose witness enumeration overflows the cap (or whose bank
    /// the budget interrupted) fall back to the backtracking evaluator per
    /// draw.  Then runs [`BatchEstimator::estimate_with_bank`] without a
    /// prior: [`EstimatorMode::OptimalStopping`] retires queries as they
    /// converge, the fixed modes share one loop that the budget can cut at
    /// any draw, in which case every query reports the same truncated
    /// sample count together with its achieved `(ε′, δ)` bound.
    pub fn estimate_batch_with_budget<R: Rng + ?Sized>(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        let bank = self.inner.compile(queries, budget)?;
        self.inner.drive(&bank, queries, params, budget, None, rng)
    }

    /// As [`BatchEstimator::estimate_batch_with_budget`], requiring
    /// [`EstimatorMode::OptimalStopping`]: every query of the bank is
    /// estimated adaptively from **one** shared repair stream, query `i`
    /// tracking its own success target `Υ(ε, δ/k)` and **retiring** the
    /// moment it is reached — its witnesses drop out of the shared
    /// per-draw containment scan ([`BankLiveSet`]), so the per-draw cost
    /// shrinks as the bank drains.  With `δ/k` per query, a union bound
    /// gives: with probability at least `1 − δ`, **every** converged
    /// estimate is within relative error `ε` of its true probability.
    ///
    /// The budget is polled between draws and consumes no randomness.
    /// When it interrupts the stream, queries that already retired **keep
    /// their converged values**; queries still live report the empirical
    /// mean over the truncated stream, flagged
    /// [`BudgetExhausted`](BudgetStatus::BudgetExhausted) or
    /// [`Cancelled`](BudgetStatus::Cancelled), each with the achieved
    /// `(ε′, δ/k)` bound at its observed counts.  An interrupted outcome
    /// can be continued by passing it as the `prior` of
    /// [`BatchEstimator::estimate_with_bank`].
    pub fn estimate_stopping_batch_with_budget<R: Rng + ?Sized>(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        if !matches!(params.mode, EstimatorMode::OptimalStopping { .. }) {
            return Err(invalid(format!(
                "the batched stopping rule requires EstimatorMode::OptimalStopping (got {:?}); \
                 use estimate_batch_with_budget for the fixed-sample modes",
                params.mode
            )));
        }
        self.estimate_batch_with_budget(queries, params, budget, rng)
    }

    /// Estimates a bank compiled (or [refreshed](LineageBank::refresh))
    /// earlier — the compile-once / estimate-many pattern — optionally
    /// continuing a `prior` outcome.
    ///
    /// Without a `prior` this is
    /// [`BatchEstimator::estimate_batch_with_budget`] minus the
    /// compilation.  With one (requires
    /// [`EstimatorMode::OptimalStopping`]) it is both the **resume** path
    /// of an interrupted run and the **enrollment** path of the
    /// sliding-window estimator (`crate::stream`), the admission dual of
    /// the retirement the stopping loop performs as queries converge.
    /// The live set is built from [`BankLiveSet::empty`] by
    /// [enrolling](BankLiveSet::enroll) exactly the prior's non-converged
    /// entries.  Converged entries of `prior` are returned **verbatim**
    /// (bit-identical, zero draws); enrolled entries pick their success
    /// counts back up.
    ///
    /// To resume, `prior` must come from a run over the **same queries
    /// and parameters**, and `rng` must be the same generator, positioned
    /// where the interrupted run left it (the budget machinery consumes no
    /// randomness, so an interruption at draw `t` leaves the RNG after
    /// exactly `t` draws); the concatenated run is then **bit-identical**
    /// to one uninterrupted run (property-tested).  Draw counts are
    /// absolute across resumption: `max_samples`, a draw cap and a
    /// [`tripped_at_draw`](crate::budget::CancelToken::tripped_at_draw)
    /// token all refer to the total stream length.
    ///
    /// `prior` is also the seeding hook for a *fresh* stream over a
    /// refreshed bank: hand in a baseline outcome whose entries carry
    /// zero counts and a non-converged status for everything that should
    /// (re-)enter the loop, and converged outcomes carried over verbatim
    /// for everything that should not.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameters`], before any draw, if `bank` was not
    /// compiled from `queries`, if `bank` is stale with respect to the
    /// estimator's database, if `prior` covers a different number of
    /// entries, or if a `prior` is passed with a fixed-sample mode.
    pub fn estimate_with_bank<R: Rng + ?Sized>(
        &self,
        bank: &LineageBank,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        budget: &RunBudget,
        prior: Option<&EstimateOutcome>,
        rng: &mut R,
    ) -> Result<EstimateOutcome, CoreError> {
        self.inner.drive(bank, queries, params, budget, prior, rng)
    }

    /// Round-based rayon-sharded stopping rule under a [`RunBudget`]:
    /// draws `round_samples` shared repairs per round (sharded across
    /// worker threads with deterministic per-shard RNG streams), retires
    /// converged queries at each round boundary, and rebuilds the
    /// compacted live bank view for the next round.
    ///
    /// **Where bit-identity ends.**  Retirement is round-granular: a query
    /// crossing its success target mid-round keeps observing draws to the
    /// boundary and reports the empirical mean over at least `Υ(ε, δ/k)`
    /// successes, so its outcome differs from the sequential loop's
    /// `Υ/N` — the round-based variant matches the sequential one (and
    /// `k` independent stopping-rule runs) in *guarantee*, not
    /// bit-for-bit.  It **is** bit-identical across thread counts for a
    /// fixed `master_seed` (deterministic shard seeds, integer success
    /// sums, round-boundary retirement) whenever the budget decisions are
    /// deterministic (draw caps and pre-tripped tokens are; wall-clock
    /// deadlines are not).  The `(ε, δ)` accuracy bound is validated
    /// against the exact solver in the test-suite.
    ///
    /// The budget is polled once per **round boundary** (consuming no
    /// randomness), so cancellation here is round-granular.  Resumption
    /// is not offered on this path — mid-round work cannot be replayed
    /// draw-by-draw; use the sequential
    /// [`BatchEstimator::estimate_with_bank`] when resumable interruption
    /// matters more than sharding.
    ///
    /// Only available with the `parallel` feature (rayon).
    #[cfg(feature = "parallel")]
    pub fn estimate_stopping_batch_rounds_with_budget(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        master_seed: u64,
        round_samples: u64,
        budget: &RunBudget,
    ) -> Result<EstimateOutcome, CoreError> {
        let bank = self.inner.compile(queries, budget)?;
        self.inner
            .drive_rounds(&bank, queries, params, master_seed, round_samples, budget)
    }

    /// Estimates every query of the bank with the shared samples sharded
    /// across rayon worker threads: same shard boundaries, same per-shard
    /// RNG streams and integer success sums as
    /// [`OcqaEstimator::estimate_parallel`], so the result is
    /// bit-identical for a fixed master seed regardless of thread count,
    /// and bit-identical to `k` independent `estimate_parallel` runs in
    /// the fixed-sample modes.
    ///
    /// [`EstimatorMode::OptimalStopping`] runs the round-based stopping
    /// rule ([`BatchEstimator::estimate_stopping_batch_rounds_with_budget`])
    /// with [`DEFAULT_ROUND_SAMPLES`] samples per round.
    #[cfg(feature = "parallel")]
    pub fn estimate_batch_parallel(
        &self,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        master_seed: u64,
    ) -> Result<EstimateOutcome, CoreError> {
        let bank = self.compile_bank(queries)?;
        self.inner
            .drive_parallel(&bank, queries, params, master_seed)
    }

    /// Compiles the bank's shared lineage ([`LineageBank::compile`]:
    /// grounded plan-ordered atom sequences factored into one scan trie,
    /// witnesses deduplicated into one arena), validating every candidate
    /// arity — the compile half of the compile-once / estimate-many
    /// pattern ([`BatchEstimator::estimate_with_bank`]).
    pub fn compile_bank(&self, queries: &[BatchQuery<'_>]) -> Result<LineageBank, CoreError> {
        self.inner.compile(queries, &RunBudget::unlimited())
    }
}

/// Default number of shared repairs drawn per round by the round-based
/// adaptive batch path ([`BatchEstimator::estimate_batch_parallel`] in
/// [`EstimatorMode::OptimalStopping`]): a few shards' worth, so rounds
/// parallelise while retirement stays reasonably fine-grained.
#[cfg(feature = "parallel")]
pub const DEFAULT_ROUND_SAMPLES: u64 = 4 * crate::montecarlo::DEFAULT_SHARD_SIZE;

/// The per-draw Bernoulli experiment of every estimation loop: draw a
/// repair into a reused buffer, write per-query hits for the **live**
/// queries only, compacting the shared witness scan as queries retire
/// (the [`BankLiveSet`] drops witnesses referenced only by retired
/// queries).  The fixed-sample loops run it with every query live.
///
/// Construction hoists everything out of the Monte-Carlo loop: the repair
/// buffer, the walk scratch and the bank scratch; a draw performs no heap
/// allocation on any sampler path (the buffers reach steady-state
/// capacity after the first few draws).
struct BatchStoppingExperiment<'e, 'a> {
    estimator: &'e OcqaEstimator<'a>,
    bank: &'e LineageBank,
    queries: &'e [BatchQuery<'e>],
    live: BankLiveSet,
    repair: FactSet,
    scratch: WalkScratch,
    bank_scratch: BankScratch,
}

impl<'e, 'a> BatchStoppingExperiment<'e, 'a> {
    fn new(
        estimator: &'e OcqaEstimator<'a>,
        bank: &'e LineageBank,
        queries: &'e [BatchQuery<'e>],
        live: BankLiveSet,
    ) -> Self {
        BatchStoppingExperiment {
            estimator,
            bank,
            queries,
            live,
            repair: FactSet::empty(estimator.db.len()),
            scratch: WalkScratch::new(),
            bank_scratch: BankScratch::new(),
        }
    }

    /// Draws one shared repair and writes `hits[q]` for every live query
    /// (fallback entries route through the backtracking evaluator).
    fn draw_live<R: Rng + ?Sized>(&mut self, rng: &mut R, hits: &mut [bool]) {
        self.estimator
            .sampler
            .sample_repair_into(rng, &mut self.repair, &mut self.scratch);
        self.bank
            .evaluate_live_into(&self.live, &self.repair, &mut self.bank_scratch, hits);
        for &q in self.live.live_queries() {
            let query = &self.queries[q];
            if self.bank.is_fallback(q) {
                hits[q] = query
                    .evaluator
                    .has_answer(self.estimator.db, &self.repair, query.candidate)
                    .expect("candidate arity was validated during bank compilation");
            } else {
                debug_assert_eq!(
                    hits[q],
                    query
                        .evaluator
                        .has_answer(self.estimator.db, &self.repair, query.candidate)
                        .expect("candidate arity was validated during bank compilation"),
                    "live lineage bank disagrees with the backtracking evaluator on query {q}"
                );
            }
        }
    }

    /// Draws one shared repair and adds one to `successes[q]` for every
    /// query it entails — the per-draw step of the fixed-sample loops
    /// (every query live; `hits` is caller-held scratch).
    fn count<R: Rng + ?Sized>(&mut self, rng: &mut R, hits: &mut [bool], successes: &mut [u64]) {
        self.draw_live(rng, hits);
        for (success, &hit) in successes.iter_mut().zip(hits.iter()) {
            if hit {
                *success += 1;
            }
        }
    }
}

impl<R: Rng + ?Sized> StoppingBatchExperiment<R> for BatchStoppingExperiment<'_, '_> {
    fn draw(&mut self, rng: &mut R, hits: &mut [bool]) {
        self.draw_live(rng, hits);
    }

    fn retire(&mut self, query: usize) {
        self.live.retire(self.bank, query);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{BudgetStatus, CancelToken};
    use crate::exact::ExactSolver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ucqa_db::{FunctionalDependency, Schema};
    use ucqa_query::parser::parse_query;

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

    /// A two-key database (arbitrary keys, not primary keys).
    fn two_key_database() -> (Database, FdSet) {
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)] {
            db.insert_values("R", [Value::int(a), Value::int(b)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["B"], &["A"]).unwrap());
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

    fn stopping(epsilon: f64, delta: f64, max_samples: u64) -> ApproximationParams {
        ApproximationParams::new(epsilon, delta)
            .unwrap()
            .with_mode(EstimatorMode::OptimalStopping { max_samples })
    }

    fn fixed(epsilon: f64, delta: f64, samples: u64) -> ApproximationParams {
        ApproximationParams::new(epsilon, delta)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(samples))
    }

    /// A single-query run with an unconstrained budget.
    fn single(
        estimator: &OcqaEstimator<'_>,
        evaluator: &QueryEvaluator,
        candidate: &[Value],
        params: ApproximationParams,
        seed: u64,
    ) -> QueryOutcome {
        let outcome = estimator
            .estimate_with_budget(
                evaluator,
                candidate,
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap();
        assert_eq!(outcome.queries.len(), 1);
        assert_eq!(outcome.total_draws, outcome.queries[0].samples);
        outcome.queries[0]
    }

    /// A whole-bank run with an unconstrained budget.
    fn batch_run(
        batch: &BatchEstimator<'_>,
        queries: &[BatchQuery<'_>],
        params: ApproximationParams,
        seed: u64,
    ) -> EstimateOutcome {
        batch
            .estimate_batch_with_budget(
                queries,
                params,
                &RunBudget::unlimited(),
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap()
    }

    /// The fields a golden value pins: `(estimate bits, samples,
    /// successes, status)`.
    fn pin(q: &QueryOutcome) -> (u64, u64, u64, BudgetStatus) {
        (q.estimate.to_bits(), q.samples, q.successes, q.status)
    }

    /// Whether `rng` is still at the state `StdRng::seed_from_u64(seed)`
    /// starts in (i.e. nothing was drawn from it).
    fn untouched(rng: &mut StdRng, seed: u64) -> bool {
        rng.random::<u64>() == StdRng::seed_from_u64(seed).random::<u64>()
    }

    const C: BudgetStatus = BudgetStatus::Converged;
    const X: BudgetStatus = BudgetStatus::BudgetExhausted;

    #[test]
    fn golden_single_query_estimates_of_the_deleted_plain_path() {
        // Same-seed outputs of the former unbudgeted single-query
        // `OcqaEstimator::estimate` (seed 12), pinned before it was
        // deleted: a bank of one through the driver must reproduce them.
        let params = [stopping(0.25, 0.2, 200_000), fixed(0.25, 0.2, 2_000)];
        let figure2_golden: [[(u64, u64, u64); 2]; 6] = [
            [
                (0x3fcff0beb0632885, 537, 134),
                (0x3fcfbe76c8b43958, 2000, 496),
            ],
            [
                (0x3fd4b708a83177f6, 414, 134),
                (0x3fd5d2f1a9fbe76d, 2000, 682),
            ],
            [
                (0x3fd03e0f83e0f83e, 528, 134),
                (0x3fcf3b645a1cac08, 2000, 488),
            ],
            [
                (0x3fd4f7dcf2db1227, 409, 134),
                (0x3fd578d4fdf3b646, 2000, 671),
            ],
            [
                (0x3fd29011bb4a4047, 462, 134),
                (0x3fd15810624dd2f2, 2000, 542),
            ],
            [
                (0x3fd8a4c8178a4c81, 348, 134),
                (0x3fd5b22d0e560419, 2000, 678),
            ],
        ];
        // Repairs and sequences are unsupported over non-primary keys.
        let two_key_golden: [Option<[(u64, u64, u64); 2]>; 6] = [
            None,
            None,
            None,
            None,
            Some([
                (0x3fcbc1091cff2be9, 618, 134),
                (0x3fccac083126e979, 2000, 448),
            ]),
            Some([
                (0x3fd71dabd11402c3, 371, 134),
                (0x3fd62d0e56041893, 2000, 693),
            ]),
        ];
        for (name, (db, sigma), text, candidate, golden) in [
            (
                "figure2",
                figure2(),
                "Ans(x) :- R('a1', x)",
                Value::str("b1"),
                figure2_golden.map(Some),
            ),
            (
                "two-key",
                two_key_database(),
                "Ans(x) :- R(1, x)",
                Value::int(1),
                two_key_golden,
            ),
        ] {
            let evaluator = QueryEvaluator::new(parse_query(db.schema(), text).unwrap());
            for (spec, golden) in all_specs().into_iter().zip(golden) {
                let Some(golden) = golden else {
                    assert!(matches!(
                        OcqaEstimator::new(&db, &sigma, spec),
                        Err(CoreError::Unsupported { .. })
                    ));
                    continue;
                };
                let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
                for (params, (bits, samples, successes)) in params.into_iter().zip(golden) {
                    let got = single(
                        &estimator,
                        &evaluator,
                        std::slice::from_ref(&candidate),
                        params,
                        12,
                    );
                    assert_eq!(
                        pin(&got),
                        (bits, samples, successes, C),
                        "{name}, spec {}, mode {:?}",
                        spec.short_name(),
                        params.mode
                    );
                }
            }
        }
        // The lower-bound-derived fixed count (a bank of one).
        let (db, sigma) = figure2();
        let evaluator =
            QueryEvaluator::new(parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap());
        let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let from_bound = ApproximationParams::new(0.3, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        let got = single(&estimator, &evaluator, &[Value::str("b1")], from_bound, 12);
        assert_eq!(pin(&got), (0x3fd0970ba95ef573, 922, 239, C));
    }

    /// The two-query bank of
    /// `batched_stopping_is_bit_identical_to_per_query_stopping_runs`.
    fn lookup_and_member(db: &Database) -> (QueryEvaluator, QueryEvaluator) {
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let member = parse_query(db.schema(), "Ans() :- R('a3', 'b1')").unwrap();
        (QueryEvaluator::new(lookup), QueryEvaluator::new(member))
    }

    #[test]
    fn golden_batch_estimates_of_the_deleted_plain_paths() {
        // Same-seed outputs of the former `estimate_batch` (fixed mode)
        // and `estimate_stopping_batch` (seed 17), one row per spec.
        let golden: [[[(u64, u64, u64); 2]; 2]; 6] = [
            [
                [
                    (0x3fcfef9db22d0e56, 2000, 499),
                    (0x3fd47ae147ae147b, 2000, 640),
                ],
                [
                    (0x3fd0a54f35f4852a, 669, 174),
                    (0x3fd4da9b536a6d4e, 534, 174),
                ],
            ],
            [
                [
                    (0x3fd5a9fbe76c8b44, 2000, 677),
                    (0x3fdfef9db22d0e56, 2000, 998),
                ],
                [
                    (0x3fd5cae572b95cae, 511, 174),
                    (0x3fe0ec8c0f8ff38d, 329, 174),
                ],
            ],
            [
                [
                    (0x3fcd70a3d70a3d71, 2000, 460),
                    (0x3fd56872b020c49c, 2000, 669),
                ],
                [
                    (0x3fcd75d75d75d75d, 756, 174),
                    (0x3fd4f8c4b35839da, 531, 174),
                ],
            ],
            [
                [
                    (0x3fd4ed916872b021, 2000, 654),
                    (0x3fdf2b020c49ba5e, 2000, 974),
                ],
                [
                    (0x3fd6c5e3bae54cf5, 489, 174),
                    (0x3fdead7cd391fbc5, 363, 174),
                ],
            ],
            [
                [
                    (0x3fd1810624dd2f1b, 2000, 547),
                    (0x3fd589374bc6a7f0, 2000, 673),
                ],
                [
                    (0x3fd100640e11fa87, 655, 174),
                    (0x3fd602061236a3ec, 506, 174),
                ],
            ],
            [
                [
                    (0x3fd56872b020c49c, 2000, 669),
                    (0x3fded0e560418937, 2000, 963),
                ],
                [
                    (0x3fd6c5e3bae54cf5, 489, 174),
                    (0x3fdc55fc17734c37, 393, 174),
                ],
            ],
        ];
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = [fixed(0.25, 0.2, 2_000), stopping(0.25, 0.2, 200_000)];
        for (spec, golden) in all_specs().into_iter().zip(golden) {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            for (params, golden) in params.into_iter().zip(golden) {
                let outcome = batch_run(&batch, &queries, params, 17);
                let got: Vec<_> = outcome.queries.iter().map(pin).collect();
                let want: Vec<_> = golden.iter().map(|&(b, n, s)| (b, n, s, C)).collect();
                assert_eq!(
                    got,
                    want,
                    "spec {}, mode {:?}",
                    spec.short_name(),
                    params.mode
                );
                let longest = outcome.queries.iter().map(|q| q.samples).max();
                assert_eq!(Some(outcome.total_draws), longest);
            }
        }
    }

    #[test]
    fn golden_resume_after_a_draw_cap_of_the_deleted_recompiling_resume() {
        // Same-seed outputs of the former `estimate_stopping_batch_resume`
        // (seed 41) after a `with_max_draws(cut)` interruption: every cut
        // resumes to the same uninterrupted stream.
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = stopping(0.25, 0.2, 200_000);
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let bank = batch.compile_bank(&queries).unwrap();
        let partials = [
            (
                1,
                [(0x3ff0000000000000, 1, 1, X), (0x3ff0000000000000, 1, 1, X)],
            ),
            (
                40,
                [
                    (0x3fd4cccccccccccd, 40, 13, X),
                    (0x3fdccccccccccccd, 40, 18, X),
                ],
            ),
            (
                300,
                [
                    (0x3fd1eb851eb851ec, 300, 84, X),
                    (0x3fd740da740da741, 300, 109, X),
                ],
            ),
        ];
        let resumed_golden = [
            (0x3fd1519e0f210b8c, 643, 174, C),
            (0x3fd645a1cac08312, 500, 174, C),
        ];
        for (cut, golden) in partials {
            let mut rng = StdRng::seed_from_u64(41);
            let partial = batch
                .estimate_with_bank(
                    &bank,
                    &queries,
                    params,
                    &RunBudget::unlimited().with_max_draws(cut),
                    None,
                    &mut rng,
                )
                .unwrap();
            assert_eq!(partial.total_draws, cut);
            assert_eq!(partial.queries.iter().map(pin).collect::<Vec<_>>(), golden);
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
            assert_eq!(resumed.total_draws, 643, "cut {cut}");
            assert_eq!(
                resumed.queries.iter().map(pin).collect::<Vec<_>>(),
                resumed_golden,
                "cut {cut}"
            );
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn golden_parallel_estimates_of_the_deleted_estimate_types() {
        // Same-seed outputs of the former `Estimate`-returning
        // `estimate_parallel` (seed 7) and `estimate_batch_parallel`
        // (fixed at seed 7, round-based stopping at seed 23).
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let fixed_golden = [
            (0x3fd1e69ad42c3c9f, 10_000, 2797, C),
            (0x3fd56d5cfaacd9e8, 10_000, 3348, C),
        ];
        let params = fixed(0.1, 0.1, 10_000);
        for (query, golden) in queries.iter().zip(fixed_golden) {
            let single = batch
                .estimator()
                .estimate_parallel(query.evaluator, query.candidate, params, 7)
                .unwrap();
            assert_eq!(pin(&single.queries[0]), golden);
        }
        let batched = batch.estimate_batch_parallel(&queries, params, 7).unwrap();
        assert_eq!(
            batched.queries.iter().map(pin).collect::<Vec<_>>(),
            fixed_golden
        );
        let rounds = batch
            .estimate_batch_parallel(&queries, stopping(0.2, 0.1, 1_000_000), 23)
            .unwrap();
        assert_eq!(
            rounds.queries.iter().map(pin).collect::<Vec<_>>(),
            [
                (0x3fd1ab0000000000, 16_384, 4523, C),
                (0x3fd5730000000000, 16_384, 5491, C),
            ]
        );
    }

    #[test]
    fn estimates_match_exact_probabilities_on_primary_keys() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let solver = ExactSolver::new(&db, &sigma);
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        for (seed, spec) in all_specs().into_iter().enumerate() {
            let exact = solver
                .answer_probability(spec, &evaluator, &candidate)
                .unwrap()
                .to_f64();
            let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
            let estimate = single(
                &estimator,
                &evaluator,
                &candidate,
                params,
                2024 + seed as u64,
            );
            assert_eq!(estimate.status, C, "spec {}", spec.short_name());
            let relative_error = (estimate.estimate - exact).abs() / exact;
            assert!(
                relative_error < 0.1,
                "spec {}: exact {exact}, estimate {} (relative error {relative_error})",
                spec.short_name(),
                estimate.estimate
            );
        }
    }

    #[test]
    fn uniform_operations_supports_arbitrary_keys() {
        let (db, sigma) = two_key_database();
        assert!(!sigma.is_primary_keys(db.schema()));
        let q = parse_query(db.schema(), "Ans() :- R(3, 3)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let solver = ExactSolver::new(&db, &sigma);
        let exact = solver
            .answer_probability(GeneratorSpec::uniform_operations(), &evaluator, &[])
            .unwrap()
            .to_f64();
        let estimator =
            OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let params = ApproximationParams::new(0.05, 0.05).unwrap();
        let estimate = single(&estimator, &evaluator, &[], params, 7);
        let relative_error = (estimate.estimate - exact).abs() / exact;
        assert!(
            relative_error < 0.1,
            "exact {exact}, got {}",
            estimate.estimate
        );
    }

    #[test]
    fn unsupported_combinations_are_rejected_with_theorem_citations() {
        let (db, sigma) = two_key_database();
        // Uniform repairs / sequences over non-primary keys: rejected.
        for spec in [
            GeneratorSpec::uniform_repairs(),
            GeneratorSpec::uniform_sequences(),
            GeneratorSpec::uniform_repairs().with_singleton_only(),
            GeneratorSpec::uniform_sequences().with_singleton_only(),
        ] {
            match OcqaEstimator::new(&db, &sigma, spec) {
                Err(CoreError::Unsupported { .. }) => {}
                Err(other) => panic!("{spec:?}: unexpected error {other}"),
                Ok(_) => panic!("{spec:?}: expected an Unsupported error"),
            }
        }
        // Uniform operations with pair removals over non-key FDs: rejected,
        // but the singleton variant is supported (Theorem 7.5).
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B", "C"]).unwrap();
        let mut db = Database::with_schema(schema);
        db.insert_values("R", [Value::int(0), Value::int(0), Value::int(0)])
            .unwrap();
        db.insert_values("R", [Value::int(0), Value::int(1), Value::int(1)])
            .unwrap();
        let mut fds = FdSet::new();
        fds.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        assert!(matches!(
            OcqaEstimator::new(&db, &fds, GeneratorSpec::uniform_operations()),
            Err(CoreError::Unsupported { .. })
        ));
        assert!(OcqaEstimator::new(
            &db,
            &fds,
            GeneratorSpec::uniform_operations().with_singleton_only()
        )
        .is_ok());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(ApproximationParams::new(0.0, 0.1).is_err());
        assert!(ApproximationParams::new(0.1, 1.5).is_err());
        let (db, sigma) = figure2();
        let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        // Wrong candidate arity surfaces as a query error.
        let params = ApproximationParams::new(0.1, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            estimator.estimate_with_budget(
                &evaluator,
                &[Value::int(1), Value::int(2)],
                params,
                &RunBudget::unlimited(),
                &mut rng
            ),
            Err(CoreError::Query(_))
        ));
        assert!(untouched(&mut rng, 0));
    }

    #[test]
    fn fixed_modes_work_and_report_sample_counts() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let estimator = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();

        let additive = ApproximationParams::new(0.05, 0.05)
            .unwrap()
            .with_mode(EstimatorMode::FixedAdditive);
        let estimate = single(&estimator, &evaluator, &candidate, additive, 1);
        assert!((estimate.estimate - 0.25).abs() < 0.05);
        assert_eq!(
            estimate.samples,
            bounds::samples_for_additive_error(0.05, 0.05)
        );

        let estimate = single(
            &estimator,
            &evaluator,
            &candidate,
            fixed(0.05, 0.05, 500),
            2,
        );
        assert_eq!(estimate.samples, 500);
        assert_eq!(estimate.status, C);

        let from_bound = ApproximationParams::new(0.3, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        let estimate = single(&estimator, &evaluator, &candidate, from_bound, 3);
        assert!((estimate.estimate - 0.25).abs() < 0.25 * 0.3 + 0.02);
    }

    #[test]
    fn batched_estimates_are_bit_identical_to_single_query_runs() {
        // A bank of k is k banks of one: under a shared seed every entry
        // of a fixed-sample batch equals the single-query run.
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let never = parse_query(db.schema(), "Ans() :- R('zz', 'zz')").unwrap();
        let never = QueryEvaluator::new(never);
        let b1 = [Value::str("b1")];
        let queries = [
            BatchQuery::new(&lookup, &b1),
            BatchQuery::new(&member, &[]),
            BatchQuery::new(&never, &[]),
        ];
        let params = fixed(0.1, 0.1, 2_000);
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let batched = batch_run(&batch, &queries, params, 99);
            assert_eq!(batched.queries.len(), queries.len());
            assert_eq!(batched.total_draws, 2_000);
            for (i, query) in queries.iter().enumerate() {
                let single = single(
                    batch.estimator(),
                    query.evaluator,
                    query.candidate,
                    params,
                    99,
                );
                assert_eq!(
                    batched.queries[i],
                    single,
                    "spec {}, query {i}",
                    spec.short_name()
                );
            }
            // The impossible query is estimated at exactly zero.
            assert_eq!(
                batched.queries[2].successes,
                0,
                "spec {}",
                spec.short_name()
            );
        }
    }

    #[test]
    fn batched_stopping_is_bit_identical_to_per_query_stopping_runs() {
        // The sequential adaptive batch draws one shared repair stream;
        // query i's outcome must equal a bank of one with the same
        // per-query target Υ(ε, δ/k) — i.e. a single-query run at δ/k —
        // from the same seed: the per-query checks consume no randomness,
        // so each query observes exactly the stream prefix its standalone
        // run would draw.
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = stopping(0.25, 0.2, 200_000);
        let per_query = stopping(0.25, 0.2 / queries.len() as f64, 200_000);
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            // `estimate_batch_with_budget` routes OptimalStopping to the
            // batched stopping rule, exactly as the stopping entry point.
            let via_batch = batch_run(&batch, &queries, params, 17);
            let direct = batch
                .estimate_stopping_batch_with_budget(
                    &queries,
                    params,
                    &RunBudget::unlimited(),
                    &mut StdRng::seed_from_u64(17),
                )
                .unwrap();
            assert_eq!(via_batch, direct, "spec {}", spec.short_name());
            for (i, query) in queries.iter().enumerate() {
                let standalone = single(
                    batch.estimator(),
                    query.evaluator,
                    query.candidate,
                    per_query,
                    17,
                );
                assert_eq!(standalone.status, C);
                assert_eq!(
                    direct.queries[i],
                    standalone,
                    "spec {}, query {i}",
                    spec.short_name()
                );
            }
        }
    }

    #[test]
    fn batched_stopping_truncates_impossible_queries_without_stalling_others() {
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let never = parse_query(db.schema(), "Ans() :- R('zz', 'zz')").unwrap();
        let never = QueryEvaluator::new(never);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&never, &[])];
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let outcome = batch_run(&batch, &queries, stopping(0.2, 0.1, 5_000), 8);
        let estimates = &outcome.queries;
        assert_eq!(estimates[0].status, C);
        assert!(
            estimates[0].samples < 5_000,
            "the feasible query retires before the cut-off"
        );
        assert!((estimates[0].estimate - 0.25).abs() < 0.25 * 0.3);
        assert_eq!(estimates[1].status, X);
        assert_eq!(estimates[1].samples, 5_000);
        assert_eq!(estimates[1].successes, 0);
        assert_eq!(estimates[1].estimate, 0.0);
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn round_based_stopping_matches_guarantee_and_thread_counts() {
        let (db, sigma) = figure2();
        let solver = ExactSolver::new(&db, &sigma);
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = stopping(0.1, 0.05, 10_000_000);
        let spec = GeneratorSpec::uniform_operations();
        let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
        // `estimate_batch_parallel` routes OptimalStopping to the
        // round-based stopping rule with the default round size.
        let baseline = batch.estimate_batch_parallel(&queries, params, 23).unwrap();
        let direct = batch
            .estimate_stopping_batch_rounds_with_budget(
                &queries,
                params,
                23,
                DEFAULT_ROUND_SAMPLES,
                &RunBudget::unlimited(),
            )
            .unwrap();
        assert_eq!(baseline, direct);
        for (i, query) in queries.iter().enumerate() {
            let estimate = baseline.queries[i];
            assert_eq!(estimate.status, C, "query {i}");
            let exact = solver
                .answer_probability(spec, query.evaluator, query.candidate)
                .unwrap()
                .to_f64();
            let relative_error = (estimate.estimate - exact).abs() / exact;
            assert!(
                relative_error < 0.15,
                "query {i}: exact {exact}, estimate {} (relative error {relative_error})",
                estimate.estimate
            );
        }
        // Bit-identical across thread counts.
        for threads in [1usize, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let outcome = pool
                .install(|| batch.estimate_batch_parallel(&queries, params, 23))
                .unwrap();
            assert_eq!(outcome, baseline, "{threads} threads");
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_batched_estimates_match_independent_parallel_runs() {
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = fixed(0.1, 0.1, 10_000);
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let batched = batch.estimate_batch_parallel(&queries, params, 7).unwrap();
        for (i, query) in queries.iter().enumerate() {
            let single = batch
                .estimator()
                .estimate_parallel(query.evaluator, query.candidate, params, 7)
                .unwrap();
            assert_eq!(batched.queries[i], single.queries[0], "query {i}");
        }
    }

    #[test]
    fn consistent_database_estimates_exactly_one() {
        // A consistent database has a single repair: the database itself.
        // Every query it entails must be estimated at exactly 1.
        let mut schema = Schema::new();
        schema.add_relation("R", &["A", "B"]).unwrap();
        let mut db = Database::with_schema(schema);
        for (a, b) in [(1, 1), (2, 2), (3, 3)] {
            db.insert_values("R", [Value::int(a), Value::int(b)])
                .unwrap();
        }
        let mut sigma = FdSet::new();
        sigma.add(FunctionalDependency::from_names(db.schema(), "R", &["A"], &["B"]).unwrap());
        assert!(sigma.satisfied_by_database(&db));
        let q1 = QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(1, 1)").unwrap());
        let q2 = QueryEvaluator::new(parse_query(db.schema(), "Ans() :- R(x, x)").unwrap());
        let queries = [BatchQuery::new(&q1, &[]), BatchQuery::new(&q2, &[])];
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            let estimates = batch_run(&batch, &queries, fixed(0.1, 0.1, 500), 3);
            for (i, estimate) in estimates.queries.iter().enumerate() {
                assert_eq!(
                    estimate.estimate,
                    1.0,
                    "spec {}, query {i}",
                    spec.short_name()
                );
                assert_eq!(estimate.successes, 500);
            }
        }
    }

    #[test]
    fn batched_estimation_rejects_sequential_modes_and_bad_arity() {
        let (db, sigma) = figure2();
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let b1 = [Value::str("b1")];
        let b2 = [Value::str("b2")];
        let two = [
            BatchQuery::new(&evaluator, &b1),
            BatchQuery::new(&evaluator, &b2),
        ];
        let unlimited = RunBudget::unlimited();
        let mut rng = StdRng::seed_from_u64(0);
        // The per-query lower-bound mode cannot share one loop across a
        // bank of two (a bank of one is accepted, see
        // `fixed_from_lower_bound_is_accepted_exactly_for_a_bank_of_one`).
        let params = ApproximationParams::new(0.2, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        assert!(matches!(
            batch.estimate_batch_with_budget(&two, params, &unlimited, &mut rng),
            Err(CoreError::InvalidParameters { .. })
        ));
        // The stopping entry point requires the stopping mode.
        let fixed = fixed(0.2, 0.2, 10);
        assert!(matches!(
            batch.estimate_stopping_batch_with_budget(&two, fixed, &unlimited, &mut rng),
            Err(CoreError::InvalidParameters { .. })
        ));
        assert!(untouched(&mut rng, 0));
        // A wrong candidate arity anywhere in the bank aborts before
        // sampling.
        let bad = [
            BatchQuery::new(&evaluator, &b1),
            BatchQuery::new(&evaluator, &[]),
        ];
        assert!(matches!(
            batch.estimate_batch_with_budget(&bad, fixed, &unlimited, &mut rng),
            Err(CoreError::Query(_))
        ));
        // An empty bank is a no-op, not an error.
        let empty = batch
            .estimate_batch_with_budget(&[], fixed, &unlimited, &mut rng)
            .unwrap();
        assert!(empty.queries.is_empty());
    }

    #[test]
    fn fixed_from_lower_bound_is_accepted_exactly_for_a_bank_of_one() {
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let from_bound = ApproximationParams::new(0.3, 0.2)
            .unwrap()
            .with_mode(EstimatorMode::FixedFromLowerBound);
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let one = [BatchQuery::new(&lookup, &b1)];
        let single = single(batch.estimator(), &lookup, &b1, from_bound, 5);
        let banked = batch_run(&batch, &one, from_bound, 5);
        assert_eq!(banked.queries, vec![single]);
        let two = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let mut rng = StdRng::seed_from_u64(5);
        assert!(matches!(
            batch.estimate_batch_with_budget(&two, from_bound, &RunBudget::unlimited(), &mut rng),
            Err(CoreError::InvalidParameters { .. })
        ));
        assert!(untouched(&mut rng, 5));
    }

    #[test]
    fn the_driver_rejects_a_bank_or_prior_of_the_wrong_length_before_any_draw() {
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let params = stopping(0.25, 0.2, 200_000);
        let unlimited = RunBudget::unlimited();
        let one_entry = batch.compile_bank(&queries[..1]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            batch.estimate_with_bank(&one_entry, &queries, params, &unlimited, None, &mut rng),
            Err(CoreError::InvalidParameters { .. })
        ));
        let bank = batch.compile_bank(&queries).unwrap();
        let prior = batch
            .estimate_with_bank(
                &one_entry,
                &queries[..1],
                params,
                &unlimited,
                None,
                &mut rng,
            )
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            batch.estimate_with_bank(&bank, &queries, params, &unlimited, Some(&prior), &mut rng),
            Err(CoreError::InvalidParameters { .. })
        ));
        assert!(untouched(&mut rng, 3));
    }

    #[test]
    fn the_driver_rejects_a_stale_bank_before_any_draw() {
        let (db, sigma) = figure2();
        let (lookup, _) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1)];
        // A bank compiled against a larger database than the estimator's.
        let mut grown = db.clone();
        grown
            .insert_values("R", [Value::str("a4"), Value::str("b4")])
            .unwrap();
        let stale = LineageBank::compile(&grown, &[(&lookup, &b1[..])]).unwrap();
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert!(matches!(
            batch.estimate_with_bank(
                &stale,
                &queries,
                stopping(0.25, 0.2, 200_000),
                &RunBudget::unlimited(),
                None,
                &mut rng
            ),
            Err(CoreError::InvalidParameters { .. })
        ));
        assert!(untouched(&mut rng, 4));
    }

    #[test]
    fn the_driver_rejects_a_prior_in_a_fixed_sample_mode_before_any_draw() {
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let bank = batch.compile_bank(&queries).unwrap();
        let budget = RunBudget::unlimited().with_max_draws(10);
        let prior = batch
            .estimate_with_bank(
                &bank,
                &queries,
                stopping(0.25, 0.2, 200_000),
                &budget,
                None,
                &mut StdRng::seed_from_u64(6),
            )
            .unwrap();
        assert!(!prior.converged());
        let mut rng = StdRng::seed_from_u64(6);
        for mode in [
            EstimatorMode::FixedSamples(100),
            EstimatorMode::FixedAdditive,
        ] {
            let params = ApproximationParams::new(0.25, 0.2).unwrap().with_mode(mode);
            assert!(matches!(
                batch.estimate_with_bank(
                    &bank,
                    &queries,
                    params,
                    &RunBudget::unlimited(),
                    Some(&prior),
                    &mut rng
                ),
                Err(CoreError::InvalidParameters { .. })
            ));
        }
        assert!(untouched(&mut rng, 6));
    }

    /// A budget whose every limit is set but never reached.
    fn non_binding_budget() -> RunBudget {
        RunBudget::unlimited()
            .with_max_draws(u64::MAX)
            .with_max_compile_steps(u64::MAX)
            .with_cancel_token(CancelToken::new())
    }

    #[test]
    fn unlimited_budget_estimates_are_bit_identical_across_all_specs() {
        // The acceptance criterion of the budget subsystem: budget checks
        // consume no randomness, so a budget with every limit set but
        // never reached draws the same stream and reports the same outcome
        // as an unlimited one (whose outputs the golden tests pin), for
        // every generator spec.
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let params = stopping(0.25, 0.2, 200_000);
        for spec in all_specs() {
            let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
            let unlimited = single(&estimator, &evaluator, &candidate, params, 11);
            let budgeted = estimator
                .estimate_with_budget(
                    &evaluator,
                    &candidate,
                    params,
                    &non_binding_budget(),
                    &mut StdRng::seed_from_u64(11),
                )
                .unwrap();
            assert_eq!(
                budgeted.queries,
                vec![unlimited],
                "spec {}",
                spec.short_name()
            );
            assert_eq!(unlimited.status, C);
            assert!(unlimited.achieved.relative_epsilon.is_some());
        }
    }

    #[test]
    fn unlimited_budget_batch_paths_are_bit_identical_across_all_specs() {
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        for spec in all_specs() {
            let batch = BatchEstimator::new(&db, &sigma, spec).unwrap();
            for params in [stopping(0.25, 0.2, 200_000), fixed(0.1, 0.1, 2_000)] {
                let unlimited = batch_run(&batch, &queries, params, 29);
                let budgeted = batch
                    .estimate_batch_with_budget(
                        &queries,
                        params,
                        &non_binding_budget(),
                        &mut StdRng::seed_from_u64(29),
                    )
                    .unwrap();
                assert_eq!(
                    budgeted,
                    unlimited,
                    "spec {}, mode {:?}",
                    spec.short_name(),
                    params.mode
                );
                assert!(unlimited.converged());
            }
        }
    }

    #[test]
    fn cancelled_batch_resumes_bit_for_bit() {
        // Cancel the shared stream mid-flight, then resume with the same
        // RNG: the concatenated run must equal one uninterrupted run, for
        // several truncation points.
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = stopping(0.25, 0.2, 200_000);
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let uninterrupted = batch_run(&batch, &queries, params, 41);
        let bank = batch.compile_bank(&queries).unwrap();
        for cut in [1u64, 17, 80, 500] {
            let mut rng = StdRng::seed_from_u64(41);
            let token = CancelToken::tripped_at_draw(cut);
            let budget = RunBudget::unlimited().with_cancel_token(token);
            let partial = batch
                .estimate_stopping_batch_with_budget(&queries, params, &budget, &mut rng)
                .unwrap();
            assert_eq!(partial.total_draws, cut, "cut {cut}");
            assert!(partial
                .queries
                .iter()
                .any(|q| q.status == BudgetStatus::Cancelled));
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
            assert_eq!(resumed, uninterrupted, "cut {cut}");
        }
    }

    #[test]
    fn enrollment_resume_with_a_precompiled_bank_matches_the_recompiling_resume() {
        // The driver resumes by enrolling the prior's non-converged
        // entries into an empty live set; the montecarlo layer on its own
        // resumes from the full live set and re-announces every converged
        // entry's retirement.  Both must be indistinguishable: same
        // outcomes, statuses and total draws, for several truncation
        // points.
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = stopping(0.25, 0.2, 200_000);
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        let bank = batch.compile_bank(&queries).unwrap();
        let per_query_delta = params.delta / queries.len() as f64;
        let target = StoppingRuleEstimator::new(params.epsilon, per_query_delta).success_target();
        for cut in [1u64, 17, 80, 500] {
            let mut rng = StdRng::seed_from_u64(41);
            let budget =
                RunBudget::unlimited().with_cancel_token(CancelToken::tripped_at_draw(cut));
            let partial = batch
                .estimate_stopping_batch_with_budget(&queries, params, &budget, &mut rng)
                .unwrap();
            let mut retiring_rng = rng.clone();
            let enrolled = batch
                .estimate_with_bank(
                    &bank,
                    &queries,
                    params,
                    &RunBudget::unlimited(),
                    Some(&partial),
                    &mut rng,
                )
                .unwrap();
            let mut experiment = BatchStoppingExperiment::new(
                batch.estimator(),
                &bank,
                &queries,
                BankLiveSet::full(&bank),
            );
            let retiring = estimate_stopping_batch_budgeted(
                &mut retiring_rng,
                &[target; 2],
                200_000,
                &RunBudget::unlimited(),
                &mut experiment,
                Some(&budgeted_from(&partial)),
            );
            assert_eq!(
                enrolled,
                outcome_from(retiring, per_query_delta),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn compile_budget_fallback_keeps_estimates_bit_identical() {
        // A compile-step cap of 1 degrades the whole bank to evaluator
        // fallback; the sampled repair stream consumes the RNG identically
        // and the fallback evaluator decides the same entailments, so the
        // estimates are bit-identical — only the per-draw cost changes.
        let (db, sigma) = figure2();
        let lookup = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let lookup = QueryEvaluator::new(lookup);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1)];
        let params = stopping(0.25, 0.2, 200_000);
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        let starved = RunBudget::unlimited().with_max_compile_steps(1);
        let bank = batch.estimator().compile(&queries, &starved).unwrap();
        assert!(bank.is_fallback(0), "the starved bank degrades to fallback");
        let plain = batch_run(&batch, &queries, params, 5);
        let degraded = batch
            .estimate_stopping_batch_with_budget(
                &queries,
                params,
                &starved,
                &mut StdRng::seed_from_u64(5),
            )
            .unwrap();
        assert_eq!(degraded, plain);
        assert_eq!(degraded.queries[0].status, C);
    }

    #[test]
    fn truncated_estimates_satisfy_their_achieved_bound_against_the_exact_solver() {
        // Cut the stream at several points; the reported achieved bound at
        // the observed counts must cover the true probability (fixed seeds;
        // the bound holds with probability ≥ 1 − δ per truncation point).
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::str("b1")];
        let spec = GeneratorSpec::uniform_operations();
        let exact = ExactSolver::new(&db, &sigma)
            .answer_probability(spec, &evaluator, &candidate)
            .unwrap()
            .to_f64();
        let params = ApproximationParams::new(0.05, 0.05).unwrap().with_mode(
            EstimatorMode::OptimalStopping {
                max_samples: 10_000_000,
            },
        );
        let estimator = OcqaEstimator::new(&db, &sigma, spec).unwrap();
        for cut in [50u64, 500, 5_000] {
            let budget = RunBudget::unlimited().with_max_draws(cut);
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
            assert_eq!(query.samples, cut);
            assert_eq!(query.status, BudgetStatus::BudgetExhausted);
            let additive = query.achieved.additive_epsilon;
            assert!(
                (query.estimate - exact).abs() <= additive,
                "cut {cut}: estimate {} vs exact {exact}, additive ε′ {additive}",
                query.estimate
            );
            if let Some(relative) = query.achieved.relative_epsilon {
                assert!(
                    (query.estimate - exact).abs() <= relative * exact,
                    "cut {cut}: estimate {} vs exact {exact}, relative ε′ {relative}",
                    query.estimate
                );
            }
        }
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn budgeted_rounds_with_unlimited_budget_match_plain_rounds_at_fpras_level() {
        let (db, sigma) = figure2();
        let (lookup, member) = lookup_and_member(&db);
        let b1 = [Value::str("b1")];
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&member, &[])];
        let params = stopping(0.2, 0.1, 1_000_000);
        let batch = BatchEstimator::new(&db, &sigma, GeneratorSpec::uniform_operations()).unwrap();
        // The unbudgeted rounds path is the parallel batch entry point in
        // the stopping mode; a non-binding budget must not change it.
        let plain = batch.estimate_batch_parallel(&queries, params, 23).unwrap();
        let budgeted = batch
            .estimate_stopping_batch_rounds_with_budget(
                &queries,
                params,
                23,
                DEFAULT_ROUND_SAMPLES,
                &non_binding_budget(),
            )
            .unwrap();
        assert_eq!(budgeted, plain);
        assert!(budgeted.converged());
        // A draw cap interrupts at a round boundary: a query that cannot
        // converge is cut after the first round instead of running to the
        // `max_samples` cut-off (queries that converged within the round
        // keep their values — the cap is round-granular).
        let never = parse_query(db.schema(), "Ans() :- R('zz', 'zz')").unwrap();
        let never = QueryEvaluator::new(never);
        let queries = [BatchQuery::new(&lookup, &b1), BatchQuery::new(&never, &[])];
        let capped = batch
            .estimate_stopping_batch_rounds_with_budget(
                &queries,
                params,
                23,
                DEFAULT_ROUND_SAMPLES,
                &RunBudget::unlimited().with_max_draws(1),
            )
            .unwrap();
        assert_eq!(capped.queries[1].status, BudgetStatus::BudgetExhausted);
        assert!(
            capped.total_draws < 1_000_000,
            "the cap stops the stream long before the cut-off (drew {})",
            capped.total_draws
        );
    }

    #[test]
    fn lower_bounds_are_reported_per_generator() {
        let (db, sigma) = figure2();
        let q = parse_query(db.schema(), "Ans(x) :- R('a1', x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let rr = OcqaEstimator::new(&db, &sigma, GeneratorSpec::uniform_repairs()).unwrap();
        assert!((rr.theoretical_lower_bound(&evaluator).to_f64() - 1.0 / 12.0).abs() < 1e-9);
        let uo1 = OcqaEstimator::new(
            &db,
            &sigma,
            GeneratorSpec::uniform_operations().with_singleton_only(),
        )
        .unwrap();
        let bound = uo1.theoretical_lower_bound(&evaluator).to_f64();
        assert!(bound > 0.0 && bound < 1.0);
    }

    #[test]
    fn a_refreshed_conflict_index_reproduces_the_internally_built_estimates() {
        let (mut db, sigma) = two_key_database();
        // Build the index before the mutations, then bring it up to date
        // with `refresh` — the estimator must behave exactly as if it had
        // built a fresh index itself.
        let mut index = ConflictIndex::build(&db, &sigma);
        db.insert_values("R", [Value::int(3), Value::int(1)])
            .unwrap();
        let gone = ucqa_db::Fact::new(
            db.schema().relation_id("R").unwrap(),
            vec![Value::int(2), Value::int(2)],
        );
        db.retract(&gone).unwrap();
        index.refresh(&db, &sigma);

        let q = parse_query(db.schema(), "Ans(x) :- R(1, x)").unwrap();
        let evaluator = QueryEvaluator::new(q);
        let candidate = [Value::int(1)];
        let params = ApproximationParams::new(0.1, 0.1)
            .unwrap()
            .with_mode(EstimatorMode::FixedSamples(512));
        for spec in [
            GeneratorSpec::uniform_operations(),
            GeneratorSpec::uniform_operations().with_singleton_only(),
        ] {
            let fresh = OcqaEstimator::new(&db, &sigma, spec).unwrap();
            let fresh = single(&fresh, &evaluator, &candidate, params, 99);
            let reused =
                OcqaEstimator::with_conflict_index(&db, &sigma, spec, index.clone()).unwrap();
            let reused = single(&reused, &evaluator, &candidate, params, 99);
            assert_eq!(
                fresh,
                reused,
                "spec {}: a refreshed index must be bit-identical to a fresh build",
                spec.short_name()
            );
        }
    }

    #[test]
    fn a_conflict_index_is_rejected_for_non_operations_generators() {
        let (db, sigma) = two_key_database();
        let index = ConflictIndex::build(&db, &sigma);
        for spec in [
            GeneratorSpec::uniform_repairs(),
            GeneratorSpec::uniform_sequences().with_singleton_only(),
        ] {
            let err = OcqaEstimator::with_conflict_index(&db, &sigma, spec, index.clone());
            assert!(
                matches!(err, Err(CoreError::Unsupported { .. })),
                "spec {} must be rejected",
                spec.short_name()
            );
        }
    }
}
