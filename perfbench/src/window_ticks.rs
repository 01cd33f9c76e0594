//! The `window-churn` workload: a stream of ticks, each answered by
//! `WindowedEstimator::tick` and then `estimate`.
//!
//! The untraced run times each tick plus estimate.  The traced run times
//! the two calls separately, and splits the maintain work from outside:
//! it replays every tick's inserts, retractions and expiries into a
//! shadow `Database` and times the shadow's `ConflictIndex::refresh` and
//! `LineageBank::refresh_with_delta`, asserting after every tick that the
//! shadow's conflict pairs, witness sets and changed entries equal the
//! windowed estimator's.  On ticks that draw, it replays the estimate
//! over the shadow with the traced replica under a clone of the tick's
//! RNG, which must agree with the library bit for bit, and so splits the
//! draw path into draw, check and stop.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_core::budget::{BudgetStatus, EstimateOutcome};
use ucqa_core::fpras::BatchQuery;
use ucqa_core::montecarlo::{
    estimate_stopping_batch_budgeted, BudgetedStoppingOutcome, StoppingRuleEstimator,
    StoppingRuleOutcome,
};
use ucqa_core::sample_operations::OperationWalkSampler;
use ucqa_core::{CoreError, RunBudget, TickOutcome, TickReport, WindowSpec, WindowedEstimator};
use ucqa_db::{ConflictIndex, Database, FactId};
use ucqa_query::{BankLiveSet, LineageBank, QueryEvaluator};

use crate::replica::{bit_identical, same_position, LayerClock, TracedExperiment};
use crate::report::{beyond, median, peak_rss_mb, percentile, Report};
use crate::workload::{
    failed_answers, params, spec, Descriptors, WindowWorkload, BANK_SIZE, DELTA, EPSILON,
    MAX_SAMPLES, WINDOW,
};
use crate::{setup_due, Args};

/// Ticks a run makes at least: enough to leave ten beyond the p90.
const MIN_TICKS: usize = 110;
/// One set-up per this much of the untraced run; the run reports their
/// median.  A set-up takes about a second, so a 50-second run makes
/// about thirteen.
const SETUP_EVERY: Duration = Duration::from_secs(4);

/// The stream, its estimator, and the stream's RNG, just after the first
/// full estimation pass.
struct Stream {
    workload: WindowWorkload,
    estimator: WindowedEstimator,
    rng: StdRng,
    /// The shadow of the initial window (traced runs only).
    shadow: Option<Database>,
}

/// Loads the stream, builds the windowed estimator and runs its first
/// full pass: the stream's set-up.  Returns the set-up time and the
/// failed answers of the first pass too.
fn set_up(seed: u64, keep_shadow: bool) -> (Stream, f64, usize) {
    let started = Instant::now();
    let (workload, db) = WindowWorkload::new(seed);
    let shadow = keep_shadow.then(|| db.clone());
    let mut estimator = WindowedEstimator::new(
        db,
        workload.sigma.clone(),
        spec(),
        WindowSpec::Count(WINDOW),
        workload.queries.clone(),
    )
    .expect("M^{uo,1} applies to a primary key");
    let mut rng = StdRng::seed_from_u64(!seed);
    let first = estimator.estimate(params(), &RunBudget::unlimited(), &mut rng);
    let elapsed = started.elapsed().as_secs_f64();
    let expect = workload.expect(estimator.db());
    let failed = first
        .as_ref()
        .map_or(BANK_SIZE, |t| failed_answers(&expect, &t.outcome));
    let stream = Stream {
        workload,
        estimator,
        rng,
        shadow,
    };
    (stream, elapsed, failed)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (stream, elapsed, failed) = set_up(args.seed, args.trace);
    report.answers(BANK_SIZE, failed);
    // The stream grows its block-queried blocks, so the window is
    // described as it stands after set-up.
    let w = &stream.estimator;
    let descriptors = Descriptors::of(w.db(), w.conflict_index(), w.bank());
    println!("descriptors: {descriptors}");
    if args.trace {
        traced(stream, &descriptors, args, &mut report);
    } else {
        untraced(stream, vec![elapsed], args, &mut report);
    }
    report
}

/// The failed answers of one tick.  A tick that enrolled no entry must
/// also have been answered from reuse alone, at zero draws.
fn failed_tick(
    stream: &Stream,
    tick: Result<&TickReport, &CoreError>,
    outcome: Result<&TickOutcome, &CoreError>,
) -> usize {
    let (Ok(tick), Ok(outcome)) = (tick, outcome) else {
        return BANK_SIZE;
    };
    if tick.enrolled.iter().all(|&e| !e) && outcome.tick_draws != 0 {
        eprintln!("tick {}: no entry changed, yet it drew", tick.tick);
        return BANK_SIZE;
    }
    let expect = stream.workload.expect(stream.estimator.db());
    failed_answers(&expect, &outcome.outcome)
}

fn untraced(mut stream: Stream, mut setup: Vec<f64>, args: &Args, report: &mut Report) {
    let budget = RunBudget::unlimited();
    let mut latencies = Vec::new();
    let mut answered = 0usize;
    let started = Instant::now();
    while args.more(started, latencies.len(), MIN_TICKS)
        && !stream.workload.exhausted(stream.estimator.db())
    {
        while setup_due(started, setup.len(), SETUP_EVERY) {
            // Every set-up's first pass is checked; the new stream is
            // dropped outside the timer.
            let (fresh, elapsed, failed) = set_up(args.seed, false);
            setup.push(elapsed);
            report.answers(BANK_SIZE, failed);
            drop(fresh);
        }
        let tick = latencies.len() + 1;
        let (inserts, retracts) = stream.workload.tick(stream.estimator.db(), tick);
        let sent = Instant::now();
        let ticked = stream.estimator.tick(inserts, &retracts);
        let estimated = stream
            .estimator
            .estimate(params(), &budget, &mut stream.rng);
        latencies.push(sent.elapsed().as_secs_f64());
        let failed = failed_tick(&stream, ticked.as_ref(), estimated.as_ref());
        report.answers(BANK_SIZE, failed);
        answered += BANK_SIZE - failed;
    }
    let peak = peak_rss_mb();
    let n = latencies.len();
    let busy: f64 = latencies.iter().sum();
    report.add(
        "setup_s",
        median(&setup),
        "s",
        format!(
            "median of {} set-ups spread over the run, each with its first full pass",
            setup.len()
        ),
    );
    report.add(
        "request_s",
        median(&latencies),
        "s",
        format!("tick_s: median of {n} ticks (tick + estimate)"),
    );
    report.add(
        "request_s_p90",
        percentile(&latencies, 0.9),
        "s",
        format!(
            "tick_s_p90: p90 of {n} ticks, {} beyond it",
            beyond(&latencies, 0.9)
        ),
    );
    report.add(
        "answers_per_s",
        answered as f64 / busy,
        "1/s",
        format!("{answered} converged, checked answers in {busy:.3} s of ticks"),
    );
    report.add("peak_rss_mb", peak, "MB", "VmHWM of the run".to_string());
}

/// The shadow of the window: the same mutations, replayed from outside
/// into a second database, its conflict index and its bank.
struct Shadow {
    db: Database,
    index: ConflictIndex,
    bank: LineageBank,
    fingerprints: Vec<Option<u64>>,
}

/// Per-tick spans of a traced tick.
#[derive(Default)]
struct TracedTick {
    tick_call: f64,
    estimate_call: f64,
    mutate: f64,
    index_refresh: f64,
    bank_refresh: f64,
    replayed: usize,
    draws: u64,
    reused: usize,
    /// The replica's spans, on ticks that drew.
    replica: Option<(LayerClock, Duration)>,
}

fn canonical_witnesses(bank: &LineageBank, entry: usize) -> Option<Vec<Vec<FactId>>> {
    bank.witnesses_of(entry).map(|witnesses| {
        let mut lists: Vec<Vec<FactId>> = witnesses.iter().map(|w| w.iter().collect()).collect();
        lists.sort_unstable();
        lists
    })
}

/// The state a windowed pass resumes from: converged outcomes of entries
/// not enrolled, and fresh zero counts for enrolled ones — as the
/// windowed estimator builds it.
fn resume_state(
    prior: Option<&EstimateOutcome>,
    enrolled: &[bool],
) -> (BudgetedStoppingOutcome, Vec<usize>) {
    let mut outcomes = Vec::new();
    let mut statuses = Vec::new();
    let mut live = Vec::new();
    for (q, &enrolled) in enrolled.iter().enumerate() {
        match (prior, enrolled) {
            (Some(prior), false) => {
                let o = prior.queries[q];
                outcomes.push(StoppingRuleOutcome {
                    estimate: o.estimate,
                    samples: o.samples,
                    successes: o.successes,
                    truncated: !o.status.is_converged(),
                });
                statuses.push(o.status);
            }
            _ => {
                outcomes.push(StoppingRuleOutcome {
                    estimate: 0.0,
                    samples: 0,
                    successes: 0,
                    truncated: true,
                });
                statuses.push(BudgetStatus::BudgetExhausted);
                live.push(q);
            }
        }
    }
    let resume = BudgetedStoppingOutcome {
        outcomes,
        statuses,
        total_samples: 0,
    };
    (resume, live)
}

fn traced(mut stream: Stream, descriptors: &Descriptors, args: &Args, report: &mut Report) {
    let sigma = stream.workload.sigma.clone();
    let evaluators: Vec<QueryEvaluator> = stream
        .workload
        .queries
        .iter()
        .map(|(e, _)| e.clone())
        .collect();
    let refs: Vec<(&QueryEvaluator, &[ucqa_db::Value])> =
        evaluators.iter().map(|e| (e, &[] as &[_])).collect();
    let batch: Vec<BatchQuery<'_>> = evaluators.iter().map(|e| BatchQuery::new(e, &[])).collect();

    // The shadow's set-up, timed layer by layer.
    let mut db = stream.shadow.take().expect("traced set-up keeps a shadow");
    db.expire_oldest(WINDOW).expect("expiry applies");
    let built = Instant::now();
    let index = ConflictIndex::build(&db, &sigma);
    let build_s = built.elapsed().as_secs_f64();
    let compiled = Instant::now();
    let bank = LineageBank::compile(&db, &refs).expect("bank compiles");
    let compile_s = compiled.elapsed().as_secs_f64();
    let fingerprints = bank.fingerprints(&index.structure());
    let mut shadow = Shadow {
        db,
        index,
        bank,
        fingerprints,
    };

    let budget = RunBudget::unlimited();
    let target = StoppingRuleEstimator::new(EPSILON, DELTA / BANK_SIZE as f64).success_target();
    let targets = vec![target; BANK_SIZE];
    let mut ticks: Vec<TracedTick> = Vec::new();
    let started = Instant::now();
    while args.more(started, ticks.len(), MIN_TICKS)
        && !stream.workload.exhausted(stream.estimator.db())
    {
        let tick = ticks.len() + 1;
        let (inserts, retracts) = stream.workload.tick(stream.estimator.db(), tick);
        let prior = stream.estimator.last_converged().cloned();
        let shadow_inserts = inserts.clone();

        let sent = Instant::now();
        let ticked = stream.estimator.tick(inserts, &retracts);
        let tick_call = sent.elapsed().as_secs_f64();
        let rng_before = stream.rng.clone();
        let sent = Instant::now();
        let estimated = stream
            .estimator
            .estimate(params(), &budget, &mut stream.rng);
        let estimate_call = sent.elapsed().as_secs_f64();
        let mut failed = failed_tick(&stream, ticked.as_ref(), estimated.as_ref());
        let Ok(tick_report) = ticked else {
            report.answers(BANK_SIZE, failed);
            report.check(false, || format!("tick {tick}: the tick call failed"));
            break;
        };

        // Maintain, from outside: the same mutations into the shadow.
        let sent = Instant::now();
        for fact in &retracts {
            shadow.db.retract(fact).expect("retraction applies");
        }
        shadow.db.extend(shadow_inserts).expect("inserts apply");
        let expired = shadow.db.expire_oldest(WINDOW).expect("expiry applies");
        let mutate = sent.elapsed().as_secs_f64();
        let sent = Instant::now();
        let replayed = shadow.index.refresh(&shadow.db, &sigma);
        let structure = shadow.index.structure();
        let index_refresh = sent.elapsed().as_secs_f64();
        let sent = Instant::now();
        let delta = shadow
            .bank
            .refresh_with_delta(&shadow.db, &refs, &shadow.fingerprints, &structure)
            .expect("bank refreshes");
        let bank_refresh = sent.elapsed().as_secs_f64();

        // A window whose maintained state diverged from the shadow, or
        // whose estimate the replica cannot reproduce, fails every answer
        // of the tick.
        let w = &stream.estimator;
        let mut consistent = report.check(expired == tick_report.expired, || {
            format!("tick {tick}: the shadow expired other facts")
        });
        consistent &= report.check(delta.changed == tick_report.changed, || {
            format!("tick {tick}: the shadow changed other entries")
        });
        consistent &= report.check(shadow.index.pairs() == w.conflict_index().pairs(), || {
            format!("tick {tick}: the shadow's conflict pairs diverged")
        });
        consistent &= report.check(
            (0..BANK_SIZE)
                .all(|e| canonical_witnesses(&shadow.bank, e) == canonical_witnesses(w.bank(), e)),
            || format!("tick {tick}: the shadow's witness sets diverged"),
        );
        shadow.fingerprints = delta.fingerprints;

        let mut traced_tick = TracedTick {
            tick_call,
            estimate_call,
            mutate,
            index_refresh,
            bank_refresh,
            replayed,
            ..TracedTick::default()
        };
        if let Ok(outcome) = &estimated {
            traced_tick.draws = outcome.tick_draws;
            traced_tick.reused = outcome.reused.iter().filter(|&&r| r).count();
            if outcome.tick_draws > 0 {
                // The draw path, replayed over the shadow.
                let (resume, live_queries) = resume_state(prior.as_ref(), &tick_report.enrolled);
                let sampler =
                    OperationWalkSampler::with_index(&shadow.db, &sigma, shadow.index.clone())
                        .singleton_only();
                let mut live = BankLiveSet::empty(&shadow.bank);
                for &q in &live_queries {
                    live.enroll(&shadow.bank, q);
                }
                let mut rng = rng_before;
                let sent = Instant::now();
                let mut experiment =
                    TracedExperiment::new(&sampler, &shadow.db, &shadow.bank, &batch, live);
                let replica = estimate_stopping_batch_budgeted(
                    &mut rng,
                    &targets,
                    MAX_SAMPLES,
                    &budget,
                    &mut experiment,
                    Some(&resume),
                );
                let loop_time = sent.elapsed() - experiment.clock.counting;
                consistent &= report.check(
                    bit_identical(&outcome.outcome, &replica.outcomes, replica.total_samples)
                        && same_position(&stream.rng, &rng),
                    || format!("tick {tick}: the replica diverged from the windowed estimate"),
                );
                traced_tick.replica = Some((experiment.clock, loop_time));
            }
        }
        if !consistent {
            failed = BANK_SIZE;
        }
        report.answers(BANK_SIZE, failed);
        ticks.push(traced_tick);
    }

    let n = ticks.len();
    let col = |f: fn(&TracedTick) -> f64| -> Vec<f64> { ticks.iter().map(f).collect() };
    let per = |what: &str| format!("median per tick, {n} ticks{what}");
    let drawing: Vec<&(LayerClock, Duration)> =
        ticks.iter().filter_map(|t| t.replica.as_ref()).collect();
    let m = drawing.len();
    let drawn = |f: fn(&(LayerClock, Duration)) -> f64| -> f64 {
        let values: Vec<f64> = drawing.iter().map(|&c| f(c)).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let per_drawing = |what: &str| format!("median over {m} drawing ticks{what}");
    let total_draw: f64 = drawing.iter().map(|(c, _)| c.draw.as_secs_f64()).sum();
    let total_draws: u64 = drawing.iter().map(|(c, _)| c.draws).sum();
    let sampled_scans: u64 = drawing.iter().map(|(c, _)| c.sampled_scans).sum();
    let sampled_hits: u64 = drawing.iter().map(|(c, _)| c.sampled_hits).sum();
    let zero_draw_ticks = ticks.iter().filter(|t| t.draws == 0).count();
    let reused: usize = ticks.iter().map(|t| t.reused).sum();
    println!(
        "layer split: {zero_draw_ticks} of {n} ticks at zero draws, so {} the median; \
         median tick call {:.2} ms, median estimate call {:.2} ms",
        if 2 * zero_draw_ticks > n {
            "zero-draw ticks set"
        } else {
            "drawing ticks set"
        },
        1e3 * median(&col(|t| t.tick_call)),
        1e3 * median(&col(|t| t.estimate_call)),
    );

    report.add(
        "db.conflict_index.build_s",
        build_s,
        "s",
        "the shadow's initial build".to_string(),
    );
    report.add("db.mutate_s", median(&col(|t| t.mutate)), "s", per(""));
    report.add(
        "db.conflict_index.refresh_s",
        median(&col(|t| t.index_refresh)),
        "s",
        per(", refresh plus component structure"),
    );
    report.add(
        "db.changelog_replayed",
        median(&col(|t| t.replayed as f64)),
        "count",
        per(""),
    );
    report.add(
        "query.bank.compile_s",
        compile_s,
        "s",
        "the shadow's initial compile".to_string(),
    );
    report.add(
        "query.bank.refresh_s",
        median(&col(|t| t.bank_refresh)),
        "s",
        per(", refresh_with_delta"),
    );
    report.add(
        "query.bank.witnesses",
        descriptors.witnesses as f64,
        "count",
        "distinct witnesses in the arena after set-up".to_string(),
    );
    report.add(
        "query.bank.check_s",
        drawn(|(c, _)| c.check.as_secs_f64()),
        "s",
        per_drawing(""),
    );
    report.add(
        "query.check_witness_scans",
        drawn(|(c, _)| c.scans as f64),
        "count",
        per_drawing(""),
    );
    report.add(
        "query.check_hit_ratio",
        sampled_hits as f64 / sampled_scans.max(1) as f64,
        "ratio",
        format!("{sampled_hits} contained of {sampled_scans} scanned, every 8th draw"),
    );
    report.add(
        "query.fallback_evals",
        drawn(|(c, _)| c.fallback_evals as f64),
        "count",
        per_drawing(""),
    );
    report.add(
        "core.sample_operations.draw_s",
        drawn(|(c, _)| c.draw.as_secs_f64()),
        "s",
        per_drawing(""),
    );
    report.add(
        "core.draw_us",
        1e6 * total_draw / total_draws.max(1) as f64,
        "us",
        format!("{total_draws} draws"),
    );
    report.add(
        "core.draws",
        col(|t| t.draws as f64).iter().sum::<f64>() / n as f64,
        "count",
        format!("mean per tick, {n} ticks"),
    );
    report.add(
        "core.draw_relevant_share",
        descriptors.relevant_share,
        "ratio",
        "conflicting facts in a component holding a witness fact".to_string(),
    );
    report.add(
        "core.montecarlo.stop_s",
        drawn(|(c, l)| (l.saturating_sub(c.draw + c.check)).as_secs_f64()),
        "s",
        per_drawing(", replica loop minus draw and check"),
    );
    report.add(
        "core.stream.tick_call_s",
        median(&col(|t| t.tick_call)),
        "s",
        per(""),
    );
    report.add(
        "core.stream.estimate_call_s",
        median(&col(|t| t.estimate_call)),
        "s",
        per(""),
    );
    report.add(
        "core.stream.reused_share",
        reused as f64 / (n * BANK_SIZE) as f64,
        "ratio",
        format!("entries answered from reuse, {n} ticks"),
    );
    report.add(
        "core.stream.zero_draw_ticks",
        zero_draw_ticks as f64,
        "count",
        format!("of {n} ticks"),
    );
    report.add(
        "core.stream.replans",
        stream.estimator.replans() as f64,
        "count",
        format!("over {n} ticks"),
    );
    report.add(
        "trace_overhead",
        0.0,
        "ratio",
        "not applicable: the traced ticks time the same calls as the untraced".to_string(),
    );
}
