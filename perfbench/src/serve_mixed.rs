//! `serve_mixed`: a served stream with a query load beside it.
//!
//! A `TruthServer<StreamingChecker>` publishes after every arrival over
//! the steady-state live set (see `live`). Arrivals are open-loop at
//! [`ARRIVAL_RATE`], generated inline by the writer thread from a due-time
//! schedule; one open-loop reader thread issues query rounds
//! (`truth_batch` + `top_k_uncertain` + `source_trust`) at
//! [`QUERY_RATE`]; in its idle time the writer times cold starts of a
//! second serving front end over a spare copy of the live set. A
//! closed-loop phase with the reader still running then measures
//! capacity. Writes run beside reads, and
//! publication plus the model copy on every arrival dominate; the Gibbs
//! sampler and the WAL do no work.
//!
//! The traced run makes the open-loop phase only, with publication
//! deferred so `publish()` is timed on its own, and alternates blocks of
//! arrivals with and without spans.

use crate::driver::{OpenLoop, OpenLoopReport, Schedule};
use crate::live::{self, bits_equal, query_round, Arrivals};
use crate::metrics::{self, MetricSet};
use crate::report::Outcome;
use crate::stats;
use crate::trace::{self, Tracer};
use crf::{ModelHandle, Partition, VarId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serve::{IngestBackend, PublishPolicy, Published, QueryHandle, TruthServer, NO_COMPONENT};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamcheck::{OnlineEmConfig, StreamingChecker};

/// Arrivals per second in the open-loop phase. Frozen at about half the
/// served capacity measured at the seed baseline (14–16/s, `README.md`),
/// so a faster engine shows as lower latency, not as a different load.
/// At 10/s (two thirds of capacity) a spell of slow memory on the host
/// pushed the writer near saturation and the queue it built tripled the
/// visibility tail of some runs; at half capacity it drains.
pub const ARRIVAL_RATE: f64 = 7.0;
/// Cost of one query round on an idle core at the seed baseline
/// (`README.md`, *Findings*).
const QUERY_ROUND_S: f64 = 0.29e-3;
/// Share of one core the reader spends answering: the ~10% duty the
/// repository's serve bench (`crates/bench/benches/serve.rs`) calibrates
/// its readers to.
const READER_DUTY: f64 = 0.10;
/// Query rounds per second of the reader thread (about 345), frozen from
/// [`READER_DUTY`] and [`QUERY_ROUND_S`] so a faster engine shows as lower
/// latency at the same load.
pub const QUERY_RATE: f64 = READER_DUTY / QUERY_ROUND_S;
/// Compact after about 50 retirements: several compactions per run even
/// at [`ARRIVAL_RATE`].
pub const COMPACT_THRESHOLD: f64 = 0.005;
/// Share of `--seconds` given to the open-loop phase; the closed-loop
/// phase gets the rest.
const OPEN_SHARE: f64 = 0.7;
const SETUPS: usize = 3;
/// The writer times a cold start (`TruthServer::new` over the spare live
/// set) only when the next arrival is due at least this far ahead, so a
/// cold start never delays an arrival.
const COLD_START_MARGIN: Duration = Duration::from_millis(20);
/// Every this many arrivals the writer checks the published state against
/// an offline recomputation (outside the arrival's timed span).
const CHECK_EVERY: usize = 30;
/// Arrivals per block of a traced run; blocks with and without spans
/// alternate.
const TRACE_BLOCK: usize = 10;

type Server = TruthServer<StreamingChecker>;

/// The prefilled checker; the server is built by the caller.
fn set_up(seed: u64) -> StreamingChecker {
    let mut checker = StreamingChecker::try_new(
        ModelHandle::new(live::base_model(seed)),
        OnlineEmConfig::default(),
    )
    .expect("the default online-EM configuration is valid")
    .with_retention(live::retention(COMPACT_THRESHOLD));
    live::expose_all(&mut checker);
    checker
}

/// What the reader thread saw in one phase.
struct ReaderResult {
    report: OpenLoopReport,
    rounds: usize,
    stale: Vec<f64>,
    non_monotone: usize,
    tracer: Option<Tracer>,
}

/// The open-loop reader: rounds due every `1 / QUERY_RATE` from `t0`,
/// until `stop`; only rounds due before `until` are reported.
fn reader(
    handle: &QueryHandle,
    t0: Instant,
    until: Instant,
    stop: &AtomicBool,
    writer_arrivals: &AtomicUsize,
    seed: u64,
    mut tracer: Option<Tracer>,
) -> ReaderResult {
    let schedule = Schedule::new(t0, QUERY_RATE);
    let mut ol = OpenLoop::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x005E_ED0F_4EAD);
    let mut last_tag = 0usize;
    let mut non_monotone = 0;
    let mut stale = Vec::new();
    let mut j = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let due = schedule.due(j);
        let start = schedule.wait_for(j);
        let req = j as u64;
        let span = tracer.as_mut().map(|t| {
            let id = t.begin_at("serve.query_round", req, t.ns_of(due));
            t.record_closed("serve.reader_wait", req, t.ns_of(due), t.ns_of(start));
            id
        });
        let tags = query_round(handle, &mut rng, &mut tracer.as_mut(), req);
        let end = Instant::now();
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.end(id);
        }
        let seen = writer_arrivals.load(Ordering::SeqCst);
        for tag in tags {
            if tag < last_tag {
                non_monotone += 1;
            }
            last_tag = last_tag.max(tag);
        }
        if due < until {
            let at = |i: Instant| i.duration_since(t0).as_secs_f64();
            ol.record(at(due), at(start), at(end));
            stale.push(seen.saturating_sub(tags[0]) as f64);
        }
        j += 1;
    }
    ReaderResult {
        report: ol.report(),
        rounds: j,
        stale,
        non_monotone,
        tracer,
    }
}

/// The writer's view of one open-loop phase.
#[derive(Default)]
struct WriterResult {
    report: OpenLoopReport,
    /// Trace mode: latencies (s) of the arrivals with and without spans.
    spanned_latencies: Vec<f64>,
    plain_latencies: Vec<f64>,
    arrivals: usize,
    model_copies: usize,
    retired: usize,
    compactions: usize,
    compact_arrive_ns: Vec<f64>,
    cold_ms: Vec<f64>,
}

/// One open-loop phase of `duration` starting at arrival `k0`. In trace
/// mode the server must defer publication: the writer publishes after
/// every arrival itself, and blocks of [`TRACE_BLOCK`] arrivals with spans
/// alternate with blocks without, so both see the same conditions. With a
/// `spare` checker the writer times cold starts over it in its idle time.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    srv: &mut Server,
    spare: &mut Option<StreamingChecker>,
    arrivals: &Arrivals,
    k0: &mut u64,
    duration: Duration,
    seed: u64,
    traced: bool,
    out: &mut Outcome,
) -> (WriterResult, ReaderResult, Option<Tracer>) {
    let epoch = Instant::now();
    let t0 = epoch + Duration::from_millis(20);
    let schedule = Schedule::new(t0, ARRIVAL_RATE);
    let n = schedule.count_within(duration);
    let until = schedule.due(n);
    let stop = AtomicBool::new(false);
    let writer_arrivals = AtomicUsize::new(srv.backend().checker().arrivals());
    let handle = srv.reader();
    let reader_tracer = traced.then(|| Tracer::new(epoch));
    let mut tr = traced.then(|| Tracer::new(epoch));
    let mut ol = OpenLoop::default();
    let mut w = WriterResult {
        arrivals: n,
        ..WriterResult::default()
    };
    let at = |i: Instant| i.duration_since(t0).as_secs_f64();
    let reader_result = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            reader(
                &handle,
                t0,
                until,
                &stop,
                &writer_arrivals,
                seed,
                reader_tracer,
            )
        });
        let mut addr = Arc::as_ptr(srv.backend().checker().model()) as usize;
        for i in 0..n {
            let k = *k0;
            *k0 += 1;
            let due = schedule.due(i);
            let start = schedule.wait_for(i);
            out.attempted += 1;
            let spanned = traced && (i / TRACE_BLOCK) % 2 == 1;
            let mut tr = if spanned { tr.as_mut() } else { None };
            let span = tr.as_deref_mut().map(|t| {
                let id = t.begin_at("serve.arrival", k, t.ns_of(due));
                t.record_closed("serve.wait", k, t.ns_of(due), t.ns_of(start));
                id
            });
            let delta = arrivals.delta(srv.backend().checker(), k);
            let compactions_before = srv.backend().checker().model().compactions();
            let arrive_start = Instant::now();
            let result = match tr.as_deref_mut() {
                Some(t) => t.leaf("stream.arrive", k, || srv.ingest(delta)),
                None => srv.ingest(delta),
            };
            let arrive_ns = arrive_start.elapsed().as_nanos() as f64;
            let model = srv.backend().checker().model();
            let new_addr = Arc::as_ptr(model) as usize;
            if new_addr != addr && model.compactions() == compactions_before {
                w.model_copies += 1;
            }
            addr = new_addr;
            if traced {
                match tr.as_deref_mut() {
                    Some(t) => t.leaf("serve.publish", k, || srv.publish()),
                    None => srv.publish(),
                }
            }
            let end = Instant::now();
            if let (Some(t), Some(id)) = (tr, span) {
                t.end(id);
            }
            if traced {
                let latency = end.duration_since(due).as_secs_f64();
                match spanned {
                    true => w.spanned_latencies.push(latency),
                    false => w.plain_latencies.push(latency),
                }
            }
            match result {
                Ok(stats) => {
                    w.retired += stats.retired_claims;
                    if stats.compacted {
                        w.compactions += 1;
                        w.compact_arrive_ns.push(arrive_ns);
                    }
                }
                Err(e) => {
                    out.failed += 1;
                    out.check_failures.push(format!("arrival {k}: {e}"));
                }
            }
            ol.record(at(due), at(start), at(end));
            let published = srv.published();
            let expected = srv.backend().checker().arrivals();
            writer_arrivals.store(expected, Ordering::SeqCst);
            out.check(published.arrivals == expected, || {
                format!(
                    "arrival {k}: published state carries {} arrivals, writer has {expected}",
                    published.arrivals
                )
            });
            if i % CHECK_EVERY == CHECK_EVERY - 1 {
                check_published(&published, out);
            }
            let idle = schedule
                .due(i + 1)
                .saturating_duration_since(Instant::now());
            if let Some(checker) = spare.take_if(|_| idle >= COLD_START_MARGIN) {
                let t = Instant::now();
                let cold = Server::new(checker);
                w.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.check(
                    bits_equal(&cold.published().probs, cold.backend().probs()),
                    || {
                        "a cold-started server publishes probabilities other than its checker's"
                            .to_string()
                    },
                );
                *spare = Some(cold.into_backend());
            }
        }
        // Let the reader finish every round due inside the phase.
        let now = Instant::now();
        if until > now {
            std::thread::sleep(until - now);
        }
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread panicked")
    });
    w.report = ol.report();
    (w, reader_result, tr)
}

/// A published state checked against an offline recomputation from the
/// model it pins.
fn check_published(p: &Published, out: &mut Outcome) {
    out.check(p.revision == p.model.revision(), || {
        format!("published revision {:?} is not its model's", p.revision)
    });
    let part = Partition::of_model(&p.model);
    let keys_match = (0..p.model.n_claims()).all(|c| {
        let want = part
            .try_component_of(VarId(c as u32))
            .map_or(NO_COMPONENT, |i| i as u32);
        p.comp_key.get(c) == Some(&want)
    });
    out.check(keys_match && p.comp_key.len() == p.model.n_claims(), || {
        format!(
            "published comp_key at revision {:?} differs from Partition::of_model",
            p.revision
        )
    });
    let trust = crf::em::source_trust_from_probs(&p.model, &p.probs, Server::TRUST_PRIOR);
    out.check(bits_equal(&trust, &p.trust), || {
        format!(
            "published trust at revision {:?} differs from source_trust_from_probs",
            p.revision
        )
    });
}

fn check_phase(w: &WriterResult, r: &ReaderResult, out: &mut Outcome) {
    out.check(!w.report.backlog_growing, || {
        format!("arrival backlog grew at {ARRIVAL_RATE}/s: the rate exceeds capacity")
    });
    out.check(!r.report.backlog_growing, || {
        format!("query backlog grew at {QUERY_RATE:.0}/s")
    });
    out.check(r.non_monotone == 0, || {
        format!("{} reader answers went back in staleness", r.non_monotone)
    });
    out.attempted += r.rounds as u64;
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

pub fn run(seed: u64, seconds: u64, traced: bool, out: &mut Outcome) -> Option<Tracer> {
    let setups = if traced { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut initial_publish_ms = 0.0;
    let mut kept = None;
    // The set-up before the last one is kept as the spare live set.
    let mut spare = None;
    for _ in 0..setups {
        spare = kept.take();
        let started = Instant::now();
        let checker = set_up(seed);
        let first = Instant::now();
        let srv = Server::new(checker);
        initial_publish_ms = first.elapsed().as_secs_f64() * 1e3;
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some(srv.into_backend());
    }
    let checker = kept.expect("at least one set-up");
    let arrivals = Arrivals::new(seed);
    let mut k = 0u64;
    let budget = Duration::from_secs(seconds);

    let open = budget.mul_f64(OPEN_SHARE);
    if traced {
        let mut srv = Server::new(checker).with_policy(PublishPolicy::batched(usize::MAX));
        let (w, r, tr) = open_loop(
            &mut srv, &mut None, &arrivals, &mut k, open, seed, true, out,
        );
        check_phase(&w, &r, out);
        let mut tr = tr.expect("trace mode keeps its tracer");
        if let Some(rt) = r.tracer {
            tr.absorb(rt);
        }
        let spans = tr.spans();
        let mean_us =
            |name: &str| stats::mean(&trace::durations_of(spans, name)).unwrap_or(0.0) / 1e3;
        let arrive = stats::sorted(trace::durations_of(spans, "stream.arrive"));
        let self_by_name = trace::self_times_by_name(spans);
        let mut m = MetricSet::per_layer();
        m.set(
            "stream.arrive_p50_us",
            stats::median(&arrive).unwrap_or(0.0) / 1e3,
        );
        m.set(
            "stream.arrive_p99_us",
            stats::percentile(&arrive, 0.99).unwrap_or(0.0) / 1e3,
        );
        m.set(
            "stream.model_copies",
            w.model_copies as f64 / w.arrivals.max(1) as f64,
        );
        m.set(
            "stream.compact_arrive_ms",
            stats::mean(&w.compact_arrive_ns).unwrap_or(0.0) / 1e6,
        );
        m.set("stream.retired_claims", w.retired as f64);
        m.set("stream.compactions", w.compactions as f64);
        m.set("serve.publish_us", mean_us("serve.publish"));
        let n = w.report.latencies.len().max(1) as f64;
        m.set(
            "serve.queue_wait_ms",
            ms(stats::sum(&w.report.queue_waits) / n),
        );
        m.set("serve.truth_batch_us", mean_us("serve.truth_batch"));
        m.set("serve.top_k_us", mean_us("serve.top_k"));
        m.set("serve.trust_us", mean_us("serve.trust"));
        m.set("serve.stale_arrivals", stats::mean(&r.stale).unwrap_or(0.0));
        m.set(
            "serve.generator_late_ms",
            ms(stats::mean(&w.report.generator_lates).unwrap_or(0.0)),
        );
        m.set(
            "serve.reader_late_us",
            stats::mean(&r.report.generator_lates).unwrap_or(0.0) * 1e6,
        );
        m.set("serve.initial_publish_ms", initial_publish_ms);
        m.set(
            "serve.unattributed_us",
            self_by_name
                .get("serve.arrival")
                .and_then(|v| stats::mean(v))
                .unwrap_or(0.0)
                / 1e3,
        );
        let untraced = stats::mean(&w.plain_latencies).unwrap_or(f64::NAN);
        let traced_mean = stats::mean(&w.spanned_latencies).unwrap_or(f64::NAN);
        m.set(
            "trace.overhead_pct",
            100.0 * (traced_mean - untraced) / untraced,
        );
        out.named(
            "untraced_visible_mean_ms",
            ms(untraced),
            "ms",
            String::new(),
        );
        out.named(
            "traced_visible_mean_ms",
            ms(traced_mean),
            "ms",
            String::new(),
        );
        out.named(
            "model_copies_per_arrival",
            w.model_copies as f64 / w.arrivals.max(1) as f64,
            "1/arrival",
            String::new(),
        );
        m.emit(out);
        return Some(tr);
    }

    let mut srv = Server::new(checker).with_policy(PublishPolicy::every_arrival());
    let (w, r, _) = open_loop(
        &mut srv, &mut spare, &arrivals, &mut k, open, seed, false, out,
    );
    drop(spare);
    check_phase(&w, &r, out);

    // Closed loop, reader still running: capacity.
    let closed = budget.saturating_sub(open);
    let stop = AtomicBool::new(false);
    let writer_arrivals = AtomicUsize::new(srv.backend().checker().arrivals());
    let handle = srv.reader();
    let t0 = Instant::now();
    let (served, closed_s, closed_reader) = std::thread::scope(|s| {
        let reader = s.spawn(|| reader(&handle, t0, t0, &stop, &writer_arrivals, seed, None));
        let mut served = 0usize;
        while t0.elapsed() < closed {
            out.attempted += 1;
            let delta = arrivals.delta(srv.backend().checker(), k);
            k += 1;
            match srv.ingest(delta) {
                Ok(_) => served += 1,
                Err(e) => {
                    out.failed += 1;
                    out.check_failures
                        .push(format!("closed-loop arrival {k}: {e}"));
                }
            }
            writer_arrivals.store(srv.backend().checker().arrivals(), Ordering::SeqCst);
        }
        let closed_s = t0.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        (
            served,
            closed_s,
            reader.join().expect("reader thread panicked"),
        )
    });
    out.check(closed_reader.non_monotone == 0, || {
        "closed-loop reader answers went back in staleness".to_string()
    });
    out.attempted += closed_reader.rounds as u64;
    let last = srv.published();
    out.check(
        bits_equal(&last.probs, srv.backend().checker().probs()),
        || "final published probabilities differ from the writer's".to_string(),
    );
    check_published(&last, out);

    let visible = stats::sorted(w.report.latencies.iter().map(|&s| ms(s)).collect());
    let queries = stats::sorted(r.report.latencies.iter().map(|&s| s * 1e6).collect());
    let mut m = MetricSet::end_to_end();
    let nan = f64::NAN;
    m.set(
        "setup_s",
        stats::median(&stats::sorted(setup_s)).unwrap_or(nan),
    );
    let (p50, tail) = (stats::median(&visible), stats::tail(&visible));
    m.set("latency_p50_ms", p50.unwrap_or(nan));
    if let Some(t) = tail {
        m.set_noted("latency_tail_ms", t.value, t.note());
        out.named("visible_tail_ms", t.value, "ms", t.note());
    } else {
        out.check(false, || {
            "too few arrivals for a visibility tail".to_string()
        });
    }
    out.named(
        "visible_p50_ms",
        p50.unwrap_or(nan),
        "ms",
        format!("{} arrivals at {ARRIVAL_RATE}/s", visible.len()),
    );
    let served_per_s = served as f64 / closed_s;
    m.set("throughput_per_s", served_per_s);
    out.named(
        "served_arrivals_per_s",
        served_per_s,
        "1/s",
        format!("{served} arrivals closed-loop"),
    );
    let (q50, qtail) = (stats::median(&queries), stats::tail(&queries));
    m.set("answer_p50_us", q50.unwrap_or(nan));
    out.named(
        "query_p50_us",
        q50.unwrap_or(nan),
        "us",
        format!("{} rounds at {QUERY_RATE:.0}/s", queries.len()),
    );
    if let Some(t) = qtail {
        out.named("query_tail_us", t.value, "us", t.note());
    }
    let cold_ms = stats::sorted(w.cold_ms.clone());
    let cold = stats::percentile(&cold_ms, metrics::COLD_START_QUANTILE).unwrap_or(nan);
    m.set("cold_start_ms", cold);
    out.named(
        "server_cold_start_ms",
        cold,
        "ms",
        format!("p10 of {} cold starts", cold_ms.len()),
    );
    out.named(
        "server_cold_start_p50_ms",
        stats::median(&cold_ms).unwrap_or(nan),
        "ms",
        String::new(),
    );
    out.named(
        "generator_late_mean_ms",
        ms(stats::mean(&w.report.generator_lates).unwrap_or(0.0)),
        "ms",
        String::new(),
    );
    out.named(
        "compactions",
        w.compactions as f64,
        "count",
        "open-loop phase".into(),
    );
    m.set("peak_rss_mb", crate::report::peak_rss_mb().unwrap_or(nan));
    m.emit(out);
    None
}
