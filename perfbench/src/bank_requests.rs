//! The join-bank workload: a closed loop of bank requests from one client.
//!
//! A request hands the estimator the bank and gets back one estimate per
//! query: `BatchEstimator::estimate_stopping_batch_with_budget` compiles
//! the bank and runs the shared stopping loop.  Each request has its own
//! RNG seed.  The untraced run times whole requests; the traced run
//! times, per request, the library call and then the replica under the
//! same seed, checks that both agree bit for bit, and splits the
//! replica's time into compile, draw, check and stop.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use ucqa_core::fpras::{BatchEstimator, BatchQuery};
use ucqa_core::montecarlo::{estimate_stopping_batch, StoppingRuleEstimator};
use ucqa_core::sample_operations::OperationWalkSampler;
use ucqa_core::RunBudget;
use ucqa_db::ConflictIndex;
use ucqa_query::BankLiveSet;

use crate::replica::{bit_identical, same_position, TracedExperiment};
use crate::report::{beyond, median, peak_rss_mb, percentile, Report};
use crate::workload::{
    failed_answers, params, spec, Descriptors, StaticWorkload, BANK_SIZE, DELTA, EPSILON,
    MAX_SAMPLES,
};
use crate::{setup_due, Args};

/// Requests a run makes at least, however short `--seconds` is.
const MIN_REQUESTS: usize = 3;
/// One set-up per this much of the untraced run; the run reports their
/// median.  A set-up takes tens of milliseconds, so they cost a few
/// percent of the run.
const SETUP_EVERY: Duration = Duration::from_secs(1);
/// Conflict-index builds of the traced run, back to back.
const BUILD_REPEATS: usize = 15;

fn request_rng(seed: u64, request: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ request as u64)
}

/// Builds the workload and its estimator once, pushes the time it took
/// to `times`, and returns the workload.  The estimator is dropped
/// outside the timer.
fn set_up(seed: u64, times: &mut Vec<f64>) -> StaticWorkload {
    let started = Instant::now();
    let workload = StaticWorkload::join_bank(seed);
    let estimator =
        BatchEstimator::new(&workload.db, &workload.sigma, spec()).expect("M^{uo,1} applies");
    times.push(started.elapsed().as_secs_f64());
    black_box(&estimator);
    drop(estimator);
    workload
}

pub fn run(args: &Args) -> Report {
    let mut setup = Vec::new();
    let workload = set_up(args.seed, &mut setup);
    let mut report = Report::default();
    if args.trace {
        traced(&workload, args, &mut report);
    } else {
        untraced(&workload, setup, args, &mut report);
    }
    report
}

fn untraced(workload: &StaticWorkload, mut setup: Vec<f64>, args: &Args, report: &mut Report) {
    let estimator =
        BatchEstimator::new(&workload.db, &workload.sigma, spec()).expect("M^{uo,1} applies");
    let batch: Vec<BatchQuery<'_>> = workload
        .evaluators
        .iter()
        .map(|e| BatchQuery::new(e, &[]))
        .collect();
    let budget = RunBudget::unlimited();
    let mut latencies = Vec::new();
    let mut answered = 0usize;
    let started = Instant::now();
    while args.more(started, latencies.len(), MIN_REQUESTS) {
        let mut rng = request_rng(args.seed, latencies.len());
        let sent = Instant::now();
        let outcome =
            estimator.estimate_stopping_batch_with_budget(&batch, params(), &budget, &mut rng);
        latencies.push(sent.elapsed().as_secs_f64());
        if let Ok(o) = &outcome {
            eprintln!(
                "request {}: {:.4} s, {} draws",
                latencies.len(),
                latencies[latencies.len() - 1],
                o.total_draws
            );
        }
        let failed = outcome
            .as_ref()
            .map_or(BANK_SIZE, |o| failed_answers(&workload.expect, o));
        report.answers(BANK_SIZE, failed);
        answered += BANK_SIZE - failed;
        while setup_due(started, setup.len(), SETUP_EVERY) {
            // The new workload is dropped outside the timer.
            drop(set_up(args.seed, &mut setup));
        }
    }
    let peak = peak_rss_mb();
    let n = latencies.len();
    let busy: f64 = latencies.iter().sum();
    report.add(
        "setup_s",
        median(&setup),
        "s",
        format!("median of {} set-ups, spread over the run", setup.len()),
    );
    report.add(
        "request_s",
        median(&latencies),
        "s",
        format!("median of {n} requests"),
    );
    report.add(
        "request_s_p90",
        percentile(&latencies, 0.9),
        "s",
        format!("p90 of {n} requests, {} beyond it", beyond(&latencies, 0.9)),
    );
    report.add(
        "answers_per_s",
        answered as f64 / busy,
        "1/s",
        format!("{answered} converged, checked answers in {busy:.3} s of requests"),
    );
    report.add("peak_rss_mb", peak, "MB", "VmHWM of the run".to_string());
    let bank = estimator.compile_bank(&batch).expect("bank compiles");
    let index = ConflictIndex::build(&workload.db, &workload.sigma);
    println!(
        "descriptors: {}",
        Descriptors::of(&workload.db, &index, &bank)
    );
}

/// Per-request spans of the traced replica.
struct TracedRequest {
    untraced: f64,
    traced: f64,
    compile: f64,
    draw: f64,
    check: f64,
    stop: f64,
    draws: u64,
    scans: u64,
    sampled_scans: u64,
    sampled_hits: u64,
    fallback_evals: u64,
}

fn traced(workload: &StaticWorkload, args: &Args, report: &mut Report) {
    let (db, sigma) = (&workload.db, &workload.sigma);
    let mut builds = Vec::new();
    let mut index = None;
    for _ in 0..BUILD_REPEATS {
        let started = Instant::now();
        let built = ConflictIndex::build(db, sigma);
        builds.push(started.elapsed().as_secs_f64());
        index = Some(built);
    }
    let index = index.expect("at least one build");
    let estimator = BatchEstimator::with_conflict_index(db, sigma, spec(), index.clone())
        .expect("M^{uo,1} applies");
    let sampler = OperationWalkSampler::with_index(db, sigma, index.clone()).singleton_only();
    let batch: Vec<BatchQuery<'_>> = workload
        .evaluators
        .iter()
        .map(|e| BatchQuery::new(e, &[]))
        .collect();
    let budget = RunBudget::unlimited();
    let target = StoppingRuleEstimator::new(EPSILON, DELTA / BANK_SIZE as f64).success_target();
    let targets = vec![target; BANK_SIZE];

    let mut requests: Vec<TracedRequest> = Vec::new();
    let started = Instant::now();
    while args.more(started, requests.len(), MIN_REQUESTS) {
        let i = requests.len();
        // The library call, untraced.
        let mut library_rng = request_rng(args.seed, i);
        let sent = Instant::now();
        let library = estimator.estimate_stopping_batch_with_budget(
            &batch,
            params(),
            &budget,
            &mut library_rng,
        );
        let untraced = sent.elapsed().as_secs_f64();
        // The replica, under the same seed.
        let mut rng = request_rng(args.seed, i);
        let sent = Instant::now();
        let bank = estimator.compile_bank(&batch).expect("bank compiles");
        let compiled = Instant::now();
        let mut experiment =
            TracedExperiment::new(&sampler, db, &bank, &batch, BankLiveSet::full(&bank));
        let replica = estimate_stopping_batch(&mut rng, &targets, MAX_SAMPLES, &mut experiment);
        let done = Instant::now();
        let clock = experiment.clock;
        let compile = compiled - sent;
        let loop_time = done - compiled - clock.counting;
        // The request's own span, against which the layers must add up.
        let traced = done - sent - clock.counting;

        // A replica that diverged fails every answer of the request.
        let failed = match &library {
            Ok(library) => {
                if report.check(
                    bit_identical(library, &replica.outcomes, replica.total_samples)
                        && same_position(&library_rng, &rng),
                    || format!("request {i}: replica diverged from the library call"),
                ) {
                    failed_answers(&workload.expect, library)
                } else {
                    BANK_SIZE
                }
            }
            Err(_) => BANK_SIZE,
        };
        report.answers(BANK_SIZE, failed);
        let layers = [compile, clock.draw, clock.check];
        report.check(
            layers.iter().all(|t| !t.is_zero()) && clock.draw + clock.check < loop_time,
            || format!("request {i}: a layer span is missing or spans overlap"),
        );
        let stop = loop_time.saturating_sub(clock.draw + clock.check);
        let sum = compile + clock.draw + clock.check + stop;
        report.check(
            sum.abs_diff(traced).as_secs_f64() <= 0.01 * traced.as_secs_f64(),
            || format!("request {i}: layer times {sum:?} do not add up to {traced:?}"),
        );
        requests.push(TracedRequest {
            untraced,
            traced: traced.as_secs_f64(),
            compile: compile.as_secs_f64(),
            draw: clock.draw.as_secs_f64(),
            check: clock.check.as_secs_f64(),
            stop: stop.as_secs_f64(),
            draws: clock.draws,
            scans: clock.scans,
            sampled_scans: clock.sampled_scans,
            sampled_hits: clock.sampled_hits,
            fallback_evals: clock.fallback_evals,
        });
    }

    let bank = estimator.compile_bank(&batch).expect("bank compiles");
    let descriptors = Descriptors::of(db, &index, &bank);
    println!("descriptors: {descriptors}");
    let n = requests.len();
    let col = |f: fn(&TracedRequest) -> f64| -> Vec<f64> { requests.iter().map(f).collect() };
    let per = |what: &str| format!("median per request, {n} requests{what}");
    let total_draw: f64 = col(|r| r.draw).iter().sum();
    let total_draws: f64 = col(|r| r.draws as f64).iter().sum();
    let sampled_scans: u64 = requests.iter().map(|r| r.sampled_scans).sum();
    let sampled_hits: u64 = requests.iter().map(|r| r.sampled_hits).sum();
    let traced_median = median(&col(|r| r.traced));
    let layers = [
        ("compile", median(&col(|r| r.compile))),
        ("draw", median(&col(|r| r.draw))),
        ("check", median(&col(|r| r.check))),
        ("stop", median(&col(|r| r.stop))),
    ];
    let dominant = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("four layers");
    let shares: Vec<String> = layers
        .iter()
        .map(|(name, t)| format!("{name} {:.1}%", 100.0 * t / traced_median))
        .collect();
    println!(
        "layer split: {} of the traced request; {} dominates",
        shares.join(", "),
        dominant.0
    );

    report.add(
        "db.conflict_index.build_s",
        median(&builds),
        "s",
        format!("median of {} builds", builds.len()),
    );
    report.add("db.mutate_s", 0.0, "s", "no mutations".to_string());
    report.add(
        "db.conflict_index.refresh_s",
        0.0,
        "s",
        "no mutations".to_string(),
    );
    report.add(
        "db.changelog_replayed",
        0.0,
        "count",
        "no mutations".to_string(),
    );
    report.add(
        "query.bank.compile_s",
        median(&col(|r| r.compile)),
        "s",
        per(""),
    );
    report.add("query.bank.refresh_s", 0.0, "s", "no mutations".to_string());
    report.add(
        "query.bank.witnesses",
        descriptors.witnesses as f64,
        "count",
        "distinct witnesses in the arena".to_string(),
    );
    report.add(
        "query.bank.check_s",
        median(&col(|r| r.check)),
        "s",
        per(""),
    );
    report.add(
        "query.check_witness_scans",
        median(&col(|r| r.scans as f64)),
        "count",
        per(", live witnesses scanned over all draws"),
    );
    report.add(
        "query.check_hit_ratio",
        sampled_hits as f64 / sampled_scans.max(1) as f64,
        "ratio",
        format!("{sampled_hits} contained of {sampled_scans} scanned, every 8th draw"),
    );
    report.add(
        "query.fallback_evals",
        median(&col(|r| r.fallback_evals as f64)),
        "count",
        per(""),
    );
    report.add(
        "core.sample_operations.draw_s",
        median(&col(|r| r.draw)),
        "s",
        per(""),
    );
    report.add(
        "core.draw_us",
        1e6 * total_draw / total_draws,
        "us",
        format!("{total_draws} draws"),
    );
    report.add(
        "core.draws",
        median(&col(|r| r.draws as f64)),
        "count",
        per(""),
    );
    report.add(
        "core.draw_relevant_share",
        descriptors.relevant_share,
        "ratio",
        "conflicting facts in a component holding a witness fact".to_string(),
    );
    report.add(
        "core.montecarlo.stop_s",
        median(&col(|r| r.stop)),
        "s",
        per(", loop minus draw and check"),
    );
    for (name, unit) in [
        ("core.stream.tick_call_s", "s"),
        ("core.stream.estimate_call_s", "s"),
        ("core.stream.reused_share", "ratio"),
        ("core.stream.zero_draw_ticks", "count"),
        ("core.stream.replans", "count"),
    ] {
        report.add(name, 0.0, unit, "no stream".to_string());
    }
    let overheads: Vec<f64> = requests
        .iter()
        .map(|r| r.traced / r.untraced - 1.0)
        .collect();
    report.add(
        "trace_overhead",
        median(&overheads),
        "ratio",
        per(", traced / untraced - 1 under the same seed"),
    );
}
