//! `validate`: Alg. 1 on the full-scale health preset.
//!
//! One iteration selects a claim with the `info` strategy (the evalkit
//! sweep settings: pool 6, one hypothetical EM iteration), elicits an
//! exact simulated user's verdict, re-runs inference and re-grounds. This
//! is the paper's interactive-latency path, and guidance hypotheticals
//! plus the Gibbs E-step do almost all of the work; the stream, serve and
//! durability layers do none.
//!
//! Each run validates [`DATASETS`] instances of the preset, generated
//! from seeds derived from `--seed`, stepping them in turn, so a run's
//! figures average over datasets rather than hang on one. Cold starts
//! are timed on [`COLD_DATASETS`] instances, these and more, taking
//! [`COLD_PER_ROUND`] of them in turn after each round of steps. The
//! untraced run times `ValidationProcess::step` from outside. The traced
//! run alternates, for [`TRACED_ITERATIONS`] iterations on the first
//! instance, that untraced `step` with `step` unrolled into its public
//! calls on a fresh engine, one span per layer, and checks that both
//! produce the same digest (validated claims, verdicts and the final
//! probabilities' bits).

use crate::metrics::MetricSet;
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Tracer};
use crf::bitset::Bitset;
use crf::entropy::source_trust_probs;
use crf::{CrfModel, Icrf, IcrfStats, VarId};
use factcheck::grounding::grounding_changes;
use factcheck::{instantiate_grounding, ProcessConfig, ValidationProcess};
use guidance::info_gain::database_entropy_of;
use guidance::{GuidanceContext, InfoGainStrategy, IterationFeedback, SelectionStrategy};
use oracle::{GroundTruthUser, User};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Dataset instances stepped per run.
const DATASETS: usize = 3;
/// Dataset instances set up per run: the [`DATASETS`] stepped ones and
/// more that only cold-start. `setup_s` is the median of their set-up
/// times. The cost of `ValidationProcess::new` depends on the dataset
/// far more than a step's does (40–66 ms on most health instances, about
/// 160 ms on some), so the cold start needs more instances than the
/// steps to be a figure of the engine rather than of the seed: the median
/// over six instances still spread 0.11 across seeds.
const COLD_DATASETS: usize = 12;
/// Cold starts after each round of steps, cycling through the
/// [`COLD_DATASETS`] instances.
const COLD_PER_ROUND: usize = 6;
/// Every instance makes at least this many iterations, even when
/// `--seconds` runs out first, and precision is taken after exactly this
/// many (averaged over the instances).
pub const PRECISION_AT: usize = 10;
/// Iterations of each phase of a traced run.
pub const TRACED_ITERATIONS: usize = 20;

struct Setup {
    model: Arc<CrfModel>,
    truth: Vec<bool>,
    config: ProcessConfig,
}

/// One dataset instance and the validation session running on it.
struct Session {
    setup: Setup,
    process: Process,
}

type Process = ValidationProcess<InfoGainStrategy, GroundTruthUser>;

fn process(setup: &Setup) -> Process {
    ValidationProcess::new(
        setup.model.clone(),
        InfoGainStrategy::new(evalkit::fast_ig()),
        GroundTruthUser::new(setup.truth.clone()),
        setup.config.clone(),
    )
}

/// Dataset and model build plus the first process (its initial inference
/// and grounding). Returns the set-up, its process, and the set-up time.
fn set_up(seed: u64) -> (Setup, Process, Duration) {
    let started = Instant::now();
    let mut synth = factdb::DatasetPreset::Health.config();
    synth.seed = seed;
    let ds = factdb::synth::generate(&synth);
    let model = Arc::new(
        ds.db
            .to_crf_model()
            .expect("the health preset builds a valid model"),
    );
    let mut config = ProcessConfig {
        icrf: evalkit::fast_icrf(),
        ..Default::default()
    };
    config.icrf.gibbs.seed ^= seed;
    let setup = Setup {
        model,
        truth: ds.truth,
        config,
    };
    let p = process(&setup);
    (setup, p, started.elapsed())
}

/// FNV-1a over the validated sequence and the final probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn step(&mut self, claim: VarId, verdict: bool) {
        self.word(claim.0 as u64);
        self.word(verdict as u64);
    }

    fn finish(mut self, probs: &[f64]) -> u64 {
        for p in probs {
            self.word(p.to_bits());
        }
        self.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `step` of a session, timed from outside, followed by the answer a
/// user reads after it: the grounding and the source trust it implies,
/// recomputed from the engine and checked against the process's own.
/// Returns the validated claim and verdict with the two timings.
fn timed_step(p: &mut Process, label: &str, out: &mut Outcome) -> Option<(VarId, bool, f64, f64)> {
    out.attempted += 1;
    let started = Instant::now();
    let record = p.step().map(|r| (r.claim, r.verdict));
    let took = ms(started.elapsed());
    let Some((claim, verdict)) = record else {
        out.failed += 1;
        out.check_failures
            .push(format!("{label}: step returned no iteration"));
        return None;
    };
    let started = Instant::now();
    let grounding = instantiate_grounding(p.icrf());
    let trust = source_trust_probs(p.icrf().model(), &grounding);
    let answer_us = started.elapsed().as_secs_f64() * 1e6;
    black_box(&trust);
    out.check(grounding == *p.grounding(), || {
        format!("{label}: recomputed grounding differs from the process's")
    });
    Some((claim, verdict, took, answer_us))
}

/// Untraced iterations through `step`.
struct Untraced {
    iteration_ms: Vec<f64>,
    answer_us: Vec<f64>,
    /// [`COLD_PER_ROUND`] fresh `ValidationProcess::new` per round,
    /// spread over the run.
    cold_ms: Vec<f64>,
    /// Per session: precision after [`PRECISION_AT`] iterations.
    precision: Vec<f64>,
}

/// Rounds of one `step` per session and [`COLD_PER_ROUND`] cold starts,
/// cycling through the sessions' set-ups and then `cold`, while
/// `keep_going(rounds done)`.
fn untraced(
    sessions: &mut [Session],
    cold: &[Setup],
    keep_going: impl Fn(usize) -> bool,
    out: &mut Outcome,
) -> Untraced {
    let mut u = Untraced {
        iteration_ms: Vec::new(),
        answer_us: Vec::new(),
        cold_ms: Vec::new(),
        precision: vec![f64::NAN; sessions.len()],
    };
    let mut rounds = 0;
    while keep_going(rounds) {
        rounds += 1;
        for (i, session) in sessions.iter_mut().enumerate() {
            let label = format!("instance {i}, iteration {rounds}");
            let Some((_, _, took, answer)) = timed_step(&mut session.process, &label, out) else {
                return u;
            };
            u.iteration_ms.push(took);
            u.answer_us.push(answer);
            if rounds == PRECISION_AT {
                u.precision[i] =
                    evalkit::precision(session.process.grounding(), &session.setup.truth);
            }
        }
        let instances = sessions.len() + cold.len();
        for j in 0..COLD_PER_ROUND.min(instances) {
            let i = ((rounds - 1) * COLD_PER_ROUND + j) % instances;
            let setup = match sessions.get(i) {
                Some(session) => &session.setup,
                None => &cold[i - sessions.len()],
            };
            let started = Instant::now();
            black_box(process(setup));
            u.cold_ms.push(ms(started.elapsed()));
        }
    }
    u
}

pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) -> Option<Tracer> {
    let (stepped, instances) = if traced {
        (1, 1)
    } else {
        (DATASETS, COLD_DATASETS)
    };
    let mut setup_s = Vec::new();
    let mut sessions = Vec::new();
    let mut cold_only = Vec::new();
    for i in 0..instances {
        let dataset_seed = seed
            .wrapping_mul(COLD_DATASETS as u64)
            .wrapping_add(i as u64);
        let (setup, process_, took) = set_up(dataset_seed);
        setup_s.push(took.as_secs_f64());
        if i < stepped {
            sessions.push(Session {
                setup,
                process: process_,
            });
        } else {
            cold_only.push(setup);
        }
    }

    if traced {
        return Some(run_traced(&mut sessions[0], out));
    }

    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let u = untraced(
        &mut sessions,
        &cold_only,
        |rounds| rounds < PRECISION_AT || started.elapsed() < budget,
        out,
    );

    let iter = stats::sorted(u.iteration_ms.clone());
    let answers = stats::sorted(u.answer_us.clone());
    let cold = stats::sorted(u.cold_ms.clone());
    let setups = stats::sorted(setup_s);
    let mut m = MetricSet::end_to_end();
    let nan = f64::NAN;
    m.set("setup_s", stats::median(&setups).unwrap_or(nan));
    let p50 = stats::median(&iter).unwrap_or(nan);
    let rate = iter.len() as f64 / (stats::sum(&iter) / 1e3);
    m.set("latency_p50_ms", p50);
    m.set("throughput_per_s", rate);
    out.named(
        "iteration_p50_ms",
        p50,
        "ms",
        format!("{} iterations", iter.len()),
    );
    out.named("iterations_per_s", rate, "1/s", String::new());
    match stats::tail(&iter) {
        Some(tail) => {
            m.set_noted("latency_tail_ms", tail.value, tail.note());
            out.named("iteration_tail_ms", tail.value, "ms", tail.note());
        }
        None => out.check(false, || "too few iterations for a tail".to_string()),
    }
    let p50 = stats::median(&answers).unwrap_or(nan);
    m.set("answer_p50_us", p50);
    out.named("grounding_answer_p50_us", p50, "us", String::new());
    if let Some(tail) = stats::tail(&answers) {
        out.named("grounding_answer_tail_us", tail.value, "us", tail.note());
    }
    let cold_start = stats::median(&cold).unwrap_or(nan);
    m.set("cold_start_ms", cold_start);
    out.named(
        "session_cold_start_p50_ms",
        cold_start,
        "ms",
        format!(
            "{} process constructions on {instances} instances",
            cold.len()
        ),
    );
    out.named(
        "precision_at_end",
        stats::mean(&u.precision).unwrap_or(nan),
        "fraction",
        format!(
            "after {PRECISION_AT} iterations, mean of {} instances",
            u.precision.len()
        ),
    );
    m.set("peak_rss_mb", crate::report::peak_rss_mb().unwrap_or(nan));
    m.emit(out);
    None
}

/// `ValidationProcess::step` unrolled into its public calls, with a span
/// around each call into a layer. Mirrors `step` line by line (with the
/// confirmation check off, as configured), so it must validate the same
/// claims and reach the same probabilities.
struct Unrolled<'a> {
    setup: &'a Setup,
    icrf: Icrf,
    grounding: Bitset,
    strategy: InfoGainStrategy,
    user: GroundTruthUser,
    effort: usize,
}

impl<'a> Unrolled<'a> {
    /// The state `ValidationProcess::new` builds: initial inference and
    /// grounding.
    fn new(setup: &'a Setup) -> Self {
        let mut icrf = Icrf::new(setup.model.clone(), setup.config.icrf.clone());
        icrf.run();
        let grounding = instantiate_grounding(&icrf);
        Unrolled {
            setup,
            icrf,
            grounding,
            strategy: InfoGainStrategy::new(evalkit::fast_ig()),
            user: GroundTruthUser::new(setup.truth.clone()),
            effort: 0,
        }
    }

    fn step(&mut self, tr: &mut Tracer, req: u64) -> Option<(VarId, bool, IcrfStats)> {
        let cfg = &self.setup.config;
        let icrf = &mut self.icrf;
        if tr.leaf("crf.sync", req, || icrf.sync()) {
            icrf.run();
            self.grounding = instantiate_grounding(icrf);
        }
        let can_continue =
            self.effort < cfg.budget && icrf.n_labelled() < icrf.model().n_claims() && {
                let h = tr.leaf("core.entropy", req, || {
                    database_entropy_of(icrf, cfg.entropy_mode)
                });
                !cfg.goal.satisfied(h, icrf.probs())
            };
        if !can_continue {
            return None;
        }
        let ranked = tr.leaf("guidance.rank", req, || {
            let ctx = GuidanceContext {
                icrf,
                grounding: &self.grounding,
                entropy_mode: cfg.entropy_mode,
            };
            self.strategy.rank(&ctx, 1 + cfg.skip_fallbacks)
        });
        if ranked.is_empty() {
            return None;
        }
        let mut chosen = None;
        for attempt in 0..100 {
            let claim = ranked[attempt % ranked.len()];
            if icrf.labels()[claim.idx()].is_some() {
                continue;
            }
            if let Some(v) = self.user.validate(claim.idx()) {
                chosen = Some((claim, v));
                break;
            }
        }
        let (claim, verdict) = chosen?;
        let prev_prob = icrf.probs()[claim.idx()];
        let error_rate = if self.grounding.get(claim.idx()) {
            1.0 - prev_prob
        } else {
            prev_prob
        };
        let stats = tr.leaf("crf.infer", req, || {
            icrf.set_label(claim, verdict);
            icrf.run()
        });
        self.effort += 1;
        let (grounding, trust) = tr.leaf("core.ground", req, || {
            let g = instantiate_grounding(icrf);
            let trust = source_trust_probs(icrf.model(), &g);
            (g, trust)
        });
        black_box(grounding_changes(&self.grounding, &grounding));
        self.grounding = grounding;
        let unreliable = trust.iter().filter(|&&t| t < 0.5).count();
        self.strategy.observe(IterationFeedback {
            error_rate,
            unreliable_ratio: unreliable as f64 / trust.len().max(1) as f64,
            n_validated: icrf.n_labelled(),
            n_claims: icrf.model().n_claims(),
        });
        black_box(tr.leaf("core.entropy", req, || {
            database_entropy_of(icrf, cfg.entropy_mode)
        }));
        Some((claim, verdict, stats))
    }
}

/// The traced run: `step` on the set-up's process and the unrolled,
/// traced step on a fresh engine over the same instance, alternating
/// iteration by iteration so both see the same machine conditions.
fn run_traced(session: &mut Session, out: &mut Outcome) -> Tracer {
    let Session { setup, process } = session;
    let mut tr = Tracer::new(Instant::now());
    let mut unrolled = Unrolled::new(setup);
    let (mut reference, mut traced) = (Digest::new(), Digest::new());
    let mut untraced_ms = Vec::new();
    let mut work: Vec<IcrfStats> = Vec::new();
    let (mut precision_ref, mut precision) = (f64::NAN, f64::NAN);
    for i in 1..=TRACED_ITERATIONS {
        let label = format!("iteration {i}");
        let Some((claim, verdict, took, _)) = timed_step(process, &label, out) else {
            break;
        };
        reference.step(claim, verdict);
        untraced_ms.push(took);

        out.attempted += 1;
        let req = i as u64;
        let span = tr.begin("validate.iteration", req);
        let stepped = unrolled.step(&mut tr, req);
        tr.end(span);
        let Some((claim, verdict, stats)) = stepped else {
            out.failed += 1;
            out.check_failures
                .push(format!("unrolled iteration {i} selected no claim"));
            break;
        };
        traced.step(claim, verdict);
        work.push(stats);
        if i == PRECISION_AT {
            precision_ref = evalkit::precision(process.grounding(), &setup.truth);
            precision = evalkit::precision(&unrolled.grounding, &setup.truth);
        }
    }
    let (reference, traced) = (
        reference.finish(process.icrf().probs()),
        traced.finish(unrolled.icrf.probs()),
    );
    out.check(traced == reference, || {
        format!("unrolled step digest {traced:016x} differs from step()'s {reference:016x}")
    });
    out.check(precision.to_bits() == precision_ref.to_bits(), || {
        "unrolled precision differs from step()'s".to_string()
    });

    let spans = tr.spans();
    let n = work.len().max(1) as f64;
    let per_iter_ms = |name: &str| stats::sum(&trace::durations_of(spans, name)) / n / 1e6;
    let self_by_name = trace::self_times_by_name(spans);
    let mut m = MetricSet::per_layer();
    m.set("guidance.rank_ms", per_iter_ms("guidance.rank"));
    m.set("crf.infer_ms", per_iter_ms("crf.infer"));
    m.set("core.ground_ms", per_iter_ms("core.ground"));
    m.set("core.entropy_ms", per_iter_ms("core.entropy"));
    // `crf.sync` is not a layer of its own here: it finds nothing to sync.
    m.set(
        "validate.unattributed_ms",
        self_by_name
            .get("validate.iteration")
            .map_or(0.0, |v| stats::sum(v) / n / 1e6)
            + per_iter_ms("crf.sync"),
    );
    let mean_of = |f: fn(&IcrfStats) -> usize| work.iter().map(|s| f(s) as f64).sum::<f64>() / n;
    m.set("crf.em_iterations", mean_of(|s| s.em_iterations));
    m.set("crf.tron_iterations", mean_of(|s| s.tron_iterations));
    m.set("crf.gibbs_sweeps", mean_of(|s| s.gibbs_sweeps));
    m.set("crf.tron_coords_moved", mean_of(|s| s.tron_coords_moved));
    m.set("crf.components", mean_of(|s| s.components));
    m.set("crf.largest_component", mean_of(|s| s.largest_component));
    m.set("crf.cache_rebuilds", mean_of(|s| s.cache_rebuilds));
    m.set("validate.precision_at_end", precision);
    let untraced_mean = stats::mean(&untraced_ms).unwrap_or(f64::NAN);
    let traced_mean = per_iter_ms("validate.iteration");
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_mean - untraced_mean) / untraced_mean,
    );
    out.named(
        "untraced_iteration_mean_ms",
        untraced_mean,
        "ms",
        String::new(),
    );
    out.named("traced_iteration_mean_ms", traced_mean, "ms", String::new());
    m.emit(out);
    tr
}
