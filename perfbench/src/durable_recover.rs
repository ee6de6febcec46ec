//! `durable_recover`: durable ingest broken by crash → recover cycles.
//!
//! The live set and arrival stream of `serve_mixed` flow through a
//! `TruthServer<DurableChecker>` on a `DiskFs` store with the default
//! `DurabilityConfig` (`Batched(16)` fsync, a checkpoint every 64
//! arrivals, every 8th full, a full checkpoint on compaction) and
//! `PublishPolicy::batched(16)`. Ingest is closed-loop; every
//! [`CYCLE_ARRIVALS`] arrivals the server is dropped without a sync (a
//! process crash: written bytes survive), recovered with
//! `DurableChecker::recover` and served again with `TruthServer::new`.
//! The WAL and checkpoint layer does its work here while publication is
//! light: the mirror image of `serve_mixed`.
//!
//! A volatile shadow checker, recovered once from a copy of the store,
//! receives identical deltas: its probabilities must equal the durable
//! checker's after every arrival and every recovery. The shadow's model is
//! pinned whenever the server publishes, so in the traced run the
//! shadow's arrival time is a like-for-like baseline of the WAL overhead,
//! and its arrivals that followed no pin show whether ingest copies the
//! model on its own account.

use crate::live::{self, bits_equal, query_round, Arrivals};
use crate::metrics::MetricSet;
use crate::report::Outcome;
use crate::stats;
use crate::storage::{CountingStorage, StorageCounters, StorageSnapshot};
use crate::trace::{self, Tracer};
use crf::{CrfModel, ModelHandle};
use durability::{DiskFs, MemFs, Storage};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serve::{PublishPolicy, TruthServer};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamcheck::{DurabilityConfig, DurableChecker, OnlineEmConfig, StreamingChecker};

/// Arrivals between two crashes.
pub const CYCLE_ARRIVALS: usize = 100;
/// Publication cadence of the served durable checker.
pub const PUBLISH_EVERY: usize = 16;
/// Compact after about 527 retirements (`d / (10_000 + d) ≥ 0.05`): the
/// closed loop ingests thousands of arrivals per run.
pub const COMPACT_THRESHOLD: f64 = 0.05;
const SETUPS: usize = 3;

type Server = TruthServer<DurableChecker>;

fn serve(durable: DurableChecker, deferred: bool) -> Server {
    // A traced run defers publication and publishes on the same cadence
    // itself, so `publish()` is timed on its own.
    let every = if deferred { usize::MAX } else { PUBLISH_EVERY };
    TruthServer::new(durable).with_policy(PublishPolicy::batched(every))
}

struct Store {
    storage: Arc<dyn Storage>,
    counters: Arc<StorageCounters>,
}

fn open_store(dir: &Path) -> Store {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("clear the previous store");
    }
    let counters = Arc::new(StorageCounters::default());
    let disk = DiskFs::open(dir).expect("create the store directory");
    Store {
        storage: Arc::new(CountingStorage::new(disk, counters.clone())),
        counters,
    }
}

/// A durable lineage over the prefilled live set: created, every prebuilt
/// claim exposed, then checkpointed so the exposures are durable.
fn set_up(seed: u64, store: &Store) -> DurableChecker {
    let mut durable = DurableChecker::create(
        store.storage.clone(),
        ModelHandle::new(live::base_model(seed)),
        OnlineEmConfig::default(),
        live::retention(COMPACT_THRESHOLD),
        DurabilityConfig::default(),
    )
    .expect("create a durable checker on an empty store");
    live::expose_all(durable.checker_mut());
    durable
        .checkpoint()
        .expect("checkpoint the prefilled live set");
    durable
}

/// The shadow: the store's state recovered into memory and detached from
/// its log.
fn shadow_of(storage: &Arc<dyn Storage>) -> StreamingChecker {
    let mem = MemFs::new();
    for name in storage.list().expect("list the store") {
        let data = storage.read(&name).expect("read a store file");
        mem.write_atomic(&name, &data).expect("copy into memory");
    }
    DurableChecker::recover(
        Arc::new(mem),
        OnlineEmConfig::default(),
        DurabilityConfig::default(),
    )
    .expect("recover the shadow from the store copy")
    .into_inner()
}

/// Samples of the cycles of one kind (with or without spans).
#[derive(Default)]
struct Phase {
    ingest_ms: Vec<f64>,
    answer_us: Vec<f64>,
    recovery_ms: Vec<f64>,
    busy_s: f64,
    plain_arrive_ns: Vec<f64>,
    plain_shadow_ns: Vec<f64>,
    full_ckpt_ns: Vec<f64>,
    incr_ckpt_ns: Vec<f64>,
    compact_ns: Vec<f64>,
    ingest_io: StorageSnapshot,
    arrivals: usize,
    model_copies: usize,
    /// The shadow's arrivals that followed no pin, and those of them that
    /// moved its model without compacting it.
    unpinned_arrivals: usize,
    unpinned_copies: usize,
    retired: usize,
    compactions: usize,
    recover_io: Vec<StorageSnapshot>,
    chain_len: Vec<f64>,
    replayed: Vec<f64>,
}

struct Live {
    srv: Option<Server>,
    shadow: StreamingChecker,
    /// The shadow's model, pinned whenever the server publishes, so the
    /// shadow's next arrival pays the same copy-on-write as the durable
    /// checker's and the two differ by the WAL alone.
    shadow_pin: Option<Arc<CrfModel>>,
    k: u64,
}

/// One ingest cycle of [`CYCLE_ARRIVALS`] arrivals and the crash and
/// recovery that end it. In trace mode (`deferred`) the server defers
/// publication and the cycle publishes every [`PUBLISH_EVERY`] arrivals
/// itself, so cycles with and without spans (`tr`) do the same work.
/// Returns `false` when the recovery failed and the run cannot go on.
#[allow(clippy::too_many_arguments)]
fn cycle(
    live: &mut Live,
    store: &Store,
    arrivals: &Arrivals,
    rng: &mut SmallRng,
    deferred: bool,
    mut tr: Option<&mut Tracer>,
    phase: &mut Phase,
    out: &mut Outcome,
) -> bool {
    let mut srv = live.srv.take().expect("a serving state between cycles");
    let mut since_publish = 0usize;
    let mut last_published = srv.published().arrivals;
    let mut addr = Arc::as_ptr(srv.backend().checker().model()) as usize;
    for _ in 0..CYCLE_ARRIVALS {
        let k = live.k;
        live.k += 1;
        out.attempted += 1;
        let delta = arrivals.delta(srv.backend().checker(), k);
        let compactions_before = srv.backend().checker().model().compactions();
        let io_before = store.counters.snapshot();
        let t = Instant::now();
        let span = tr.as_deref_mut().map(|t| t.begin("durable.arrival", k));
        let result = match tr.as_deref_mut() {
            Some(t) => t.leaf("stream.arrive", k, || srv.ingest(delta)),
            None => srv.ingest(delta),
        };
        let arrive_ns = t.elapsed().as_nanos() as f64;
        if deferred {
            since_publish += 1;
            if since_publish == PUBLISH_EVERY {
                match tr.as_deref_mut() {
                    Some(t) => t.leaf("serve.publish", k, || srv.publish()),
                    None => srv.publish(),
                }
                since_publish = 0;
            }
        }
        if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
            t.end(id);
        }
        let took = t.elapsed();
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => {
                out.failed += 1;
                out.check_failures.push(format!("durable arrival {k}: {e}"));
                continue;
            }
        };
        phase.ingest_ms.push(took.as_secs_f64() * 1e3);
        phase.busy_s += took.as_secs_f64();
        phase.arrivals += 1;

        let shadow_delta = arrivals.delta(&live.shadow, k);
        let shadow_addr = Arc::as_ptr(live.shadow.model()) as usize;
        let shadow_compactions = live.shadow.model().compactions();
        let t = Instant::now();
        let shadowed = live.shadow.arrive_new(shadow_delta);
        let shadow_ns = t.elapsed().as_nanos() as f64;
        // Once an arrival has passed the pin, holding it changes nothing.
        if live.shadow_pin.take().is_none() {
            let model = live.shadow.model();
            phase.unpinned_arrivals += 1;
            if Arc::as_ptr(model) as usize != shadow_addr
                && model.compactions() == shadow_compactions
            {
                phase.unpinned_copies += 1;
            }
        }
        if let Err(e) = shadowed {
            out.failed += 1;
            out.check_failures.push(format!("shadow arrival {k}: {e}"));
        }
        out.check(
            bits_equal(live.shadow.probs(), srv.backend().checker().probs()),
            || format!("arrival {k}: durable probabilities differ from the shadow's"),
        );

        let io = store.counters.snapshot().since(&io_before);
        if io.full_checkpoints > 0 {
            phase.full_ckpt_ns.push(arrive_ns);
        } else if io.increment_checkpoints > 0 {
            phase.incr_ckpt_ns.push(arrive_ns);
        } else {
            phase.plain_arrive_ns.push(arrive_ns);
            phase.plain_shadow_ns.push(shadow_ns);
        }
        if stats.compacted {
            phase.compact_ns.push(arrive_ns);
        }
        phase.ingest_io = phase.ingest_io.plus(&io);
        let model = srv.backend().checker().model();
        let new_addr = Arc::as_ptr(model) as usize;
        if new_addr != addr && model.compactions() == compactions_before {
            phase.model_copies += 1;
        }
        addr = new_addr;
        phase.retired += stats.retired_claims;
        phase.compactions += stats.compacted as usize;

        // A read of every newly published state.
        let published = srv.published().arrivals;
        if published != last_published {
            last_published = published;
            live.shadow_pin = Some(live.shadow.model().clone());
            let handle = srv.reader();
            let t = Instant::now();
            let span = tr.as_deref_mut().map(|t| t.begin("serve.query_round", k));
            let tags = query_round(&handle, rng, &mut tr.as_deref_mut(), k);
            if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
                t.end(id);
            }
            phase.answer_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.check(tags.iter().all(|&a| a == published), || {
                format!("answers after arrival {k} carry tags {tags:?}, published {published}")
            });
        }
    }

    // Crash: drop the server without a sync or a checkpoint.
    let pre_probs = srv.backend().checker().probs().to_vec();
    let pre_arrivals = srv.backend().checker().arrivals();
    drop(srv);
    out.attempted += 1;
    if let Some(t) = tr.as_deref_mut() {
        let report = t.leaf("durability.verify_store", 0, || {
            streamcheck::verify_store(&store.storage)
        });
        match report {
            Ok(r) => {
                phase.chain_len.push(r.chain_len as f64);
                let replay = r.recoverable_to.zip(r.chain_tip).map_or(0, |(a, b)| a - b);
                phase.replayed.push(replay as f64);
            }
            Err(e) => out.check_failures.push(format!("verify_store: {e}")),
        }
    }
    let io_before = store.counters.snapshot();
    let t = Instant::now();
    let span = tr
        .as_deref_mut()
        .map(|t| t.begin("durable.recovery", live.k));
    let recover = || {
        DurableChecker::recover(
            store.storage.clone(),
            OnlineEmConfig::default(),
            DurabilityConfig::default(),
        )
    };
    let recovered = match tr.as_deref_mut() {
        Some(t) => t.leaf("durability.recover", live.k, recover),
        None => recover(),
    };
    let durable = match recovered {
        Ok(d) => d,
        Err(e) => {
            if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
                t.end(id);
            }
            out.failed += 1;
            out.check_failures
                .push(format!("recovery after arrival {}: {e}", live.k));
            return false;
        }
    };
    let srv = match tr.as_deref_mut() {
        Some(t) => t.leaf("serve.initial_publish", live.k, || serve(durable, deferred)),
        None => serve(durable, deferred),
    };
    let loaded = srv.published();
    phase.recovery_ms.push(t.elapsed().as_secs_f64() * 1e3);
    if let (Some(t), Some(id)) = (tr, span) {
        t.end(id);
    }
    phase
        .recover_io
        .push(store.counters.snapshot().since(&io_before));
    out.check(bits_equal(&loaded.probs, &pre_probs), || {
        format!(
            "recovered probabilities differ from the acked state before arrival {}",
            live.k
        )
    });
    out.check(loaded.arrivals == pre_arrivals, || {
        format!(
            "recovered {} arrivals, acked {pre_arrivals}",
            loaded.arrivals
        )
    });
    out.check(bits_equal(&loaded.probs, live.shadow.probs()), || {
        format!(
            "recovered probabilities differ from the shadow's at arrival {}",
            live.k
        )
    });
    live.srv = Some(srv);
    live.shadow_pin = Some(live.shadow.model().clone());
    true
}

pub fn run(
    seed: u64,
    seconds: u64,
    traced: bool,
    work_dir: &Path,
    out: &mut Outcome,
) -> Option<Tracer> {
    let dir = work_dir.join(format!("store-{}", std::process::id()));
    let setups = if traced { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let store = open_store(&dir);
        let started = Instant::now();
        let durable = set_up(seed, &store);
        let srv = serve(durable, traced);
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((store, srv));
    }
    let (store, srv) = kept.expect("at least one set-up");
    let shadow = shadow_of(&store.storage);
    let mut live = Live {
        shadow_pin: Some(shadow.model().clone()),
        shadow,
        srv: Some(srv),
        k: 0,
    };
    let arrivals = Arrivals::new(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0D04_AB1E);
    let budget = Duration::from_secs(seconds);
    // A traced run alternates cycles without and with spans, so both kinds
    // see the same machine conditions; only the spanned ones feed the
    // per-layer metrics.
    let mut plain = Phase::default();
    let mut spanned = Phase::default();
    let mut tr = Tracer::new(Instant::now());
    let started = Instant::now();
    let mut n = 0usize;
    while started.elapsed() < budget {
        let with_spans = traced && n % 2 == 1;
        let (t, phase) = if with_spans {
            (Some(&mut tr), &mut spanned)
        } else {
            (None, &mut plain)
        };
        if !cycle(
            &mut live, &store, &arrivals, &mut rng, traced, t, phase, out,
        ) {
            break;
        }
        n += 1;
    }
    let result = if traced {
        traced_metrics(&tr, &spanned, &plain, out);
        Some(tr)
    } else {
        end_to_end(&plain, setup_s, out);
        None
    };
    drop(live);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn end_to_end(p: &Phase, setup_s: Vec<f64>, out: &mut Outcome) {
    let nan = f64::NAN;
    let ingest = stats::sorted(p.ingest_ms.clone());
    let answers = stats::sorted(p.answer_us.clone());
    let recovery = stats::sorted(p.recovery_ms.clone());
    let mut m = MetricSet::end_to_end();
    m.set(
        "setup_s",
        stats::median(&stats::sorted(setup_s)).unwrap_or(nan),
    );
    let p50 = stats::median(&ingest).unwrap_or(nan);
    m.set("latency_p50_ms", p50);
    out.named(
        "durable_ingest_p50_ms",
        p50,
        "ms",
        format!("{} arrivals", ingest.len()),
    );
    match stats::tail(&ingest) {
        Some(t) => {
            m.set_noted("latency_tail_ms", t.value, t.note());
            out.named("durable_ingest_tail_ms", t.value, "ms", t.note());
        }
        None => out.check(false, || "too few arrivals for an ingest tail".to_string()),
    }
    let rate = ingest.len() as f64 / p.busy_s;
    m.set("throughput_per_s", rate);
    out.named(
        "durable_arrivals_per_s",
        rate,
        "1/s",
        "closed loop, time inside ingest".into(),
    );
    let q50 = stats::median(&answers).unwrap_or(nan);
    m.set("answer_p50_us", q50);
    out.named(
        "query_after_publish_p50_us",
        q50,
        "us",
        format!("{} rounds", answers.len()),
    );
    if let Some(t) = stats::tail(&answers) {
        out.named("query_after_publish_tail_us", t.value, "us", t.note());
    }
    let rec = stats::median(&recovery).unwrap_or(nan);
    m.set("cold_start_ms", rec);
    out.named(
        "recovery_ms",
        rec,
        "ms",
        format!("median of {} recoveries", recovery.len()),
    );
    m.set("peak_rss_mb", crate::report::peak_rss_mb().unwrap_or(nan));
    m.emit(out);
}

fn traced_metrics(tr: &Tracer, p: &Phase, untraced: &Phase, out: &mut Outcome) {
    let spans = tr.spans();
    let mean = |v: &[f64]| stats::mean(v).unwrap_or(0.0);
    let mean_of = |name: &str| mean(&trace::durations_of(spans, name));
    let arrive = stats::sorted(trace::durations_of(spans, "stream.arrive"));
    let n = p.arrivals.max(1) as f64;
    let recoveries = p.recover_io.len().max(1) as f64;
    let mut m = MetricSet::per_layer();
    m.set(
        "stream.arrive_p50_us",
        stats::median(&arrive).unwrap_or(0.0) / 1e3,
    );
    m.set(
        "stream.arrive_p99_us",
        stats::percentile(&arrive, 0.99).unwrap_or(0.0) / 1e3,
    );
    m.set("stream.model_copies", p.model_copies as f64 / n);
    m.set(
        "stream.unpinned_model_copies",
        p.unpinned_copies as f64 / p.unpinned_arrivals.max(1) as f64,
    );
    m.set("stream.compact_arrive_ms", mean(&p.compact_ns) / 1e6);
    m.set("stream.retired_claims", p.retired as f64);
    m.set("stream.compactions", p.compactions as f64);
    m.set("serve.publish_us", mean_of("serve.publish") / 1e3);
    m.set("serve.truth_batch_us", mean_of("serve.truth_batch") / 1e3);
    m.set("serve.top_k_us", mean_of("serve.top_k") / 1e3);
    m.set("serve.trust_us", mean_of("serve.trust") / 1e3);
    m.set(
        "serve.initial_publish_ms",
        mean_of("serve.initial_publish") / 1e6,
    );
    let self_by_name = trace::self_times_by_name(spans);
    m.set(
        "serve.unattributed_us",
        self_by_name.get("durable.arrival").map_or(0.0, |v| mean(v)) / 1e3,
    );
    m.set(
        "durability.wal_overhead_us",
        (mean(&p.plain_arrive_ns) - mean(&p.plain_shadow_ns)) / 1e3,
    );
    m.set(
        "durability.full_ckpt_arrival_ms",
        mean(&p.full_ckpt_ns) / 1e6,
    );
    m.set(
        "durability.incr_ckpt_arrival_ms",
        mean(&p.incr_ckpt_ns) / 1e6,
    );
    let io = p.ingest_io;
    m.set(
        "durability.fsyncs",
        (io.syncs + io.full_checkpoints + io.increment_checkpoints) as f64 / n,
    );
    m.set("durability.bytes_written", io.written_bytes() as f64 / n);
    m.set("durability.recover_ms", mean_of("durability.recover") / 1e6);
    let read: u64 = p.recover_io.iter().map(|s| s.read_bytes).sum();
    m.set("durability.bytes_read", read as f64 / recoveries);
    m.set("durability.replayed_records", mean(&p.replayed));
    m.set("durability.chain_len", mean(&p.chain_len));
    let untraced_mean = mean(&untraced.ingest_ms);
    let traced_mean = mean(&p.ingest_ms);
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_mean - untraced_mean) / untraced_mean,
    );
    out.named(
        "untraced_ingest_mean_ms",
        untraced_mean,
        "ms",
        String::new(),
    );
    out.named("traced_ingest_mean_ms", traced_mean, "ms", String::new());
    m.emit(out);
}
