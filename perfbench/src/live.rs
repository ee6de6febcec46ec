//! The steady-state live set and arrival stream shared by the streaming
//! workloads.
//!
//! The live set is `synthetic_model(10_000, 500, 3, 16, 16, seed)` with
//! every prebuilt claim exposed in id order, under a sliding window as
//! wide as the live set: from the first new arrival on, each arrival adds
//! one claim (three documents, three cliques) and retires the oldest, so
//! the live set holds its size. Each workload sets the compaction
//! threshold so that several compactions fall inside every run. Both
//! workloads read the served state with the same query round.

use crate::trace::Tracer;
use crf::graph::{synthetic_model, ModelDelta, Stance};
use crf::{CrfModel, VarId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::QueryHandle;
use std::hint::black_box;
use streamcheck::{RetentionPolicy, StreamingChecker};

pub const LIVE_CLAIMS: usize = 10_000;
pub const SOURCES: usize = 500;
pub const DOCS_PER_CLAIM: usize = 3;
pub const FEATURES: usize = 16;
/// Claims per truth batch and answers per top-k scan of a query round.
const BATCH: usize = 8;
const TOP_K: usize = 10;

pub fn base_model(seed: u64) -> CrfModel {
    synthetic_model(
        LIVE_CLAIMS,
        SOURCES,
        DOCS_PER_CLAIM,
        FEATURES,
        FEATURES,
        seed,
    )
}

/// A sliding window as wide as the live set; the model compacts once the
/// dead fraction `d / (10_000 + d)` reaches `compact_threshold`.
pub fn retention(compact_threshold: f64) -> RetentionPolicy {
    RetentionPolicy {
        compact_threshold,
        ..RetentionPolicy::sliding_window(LIVE_CLAIMS as u64)
    }
}

/// Expose every prebuilt claim in id order: afterwards the window is full
/// and each further arrival retires exactly the oldest claim.
pub fn expose_all(checker: &mut StreamingChecker) {
    for c in 0..checker.model().n_claims() {
        checker.arrive(VarId(c as u32));
    }
}

/// The arrival stream of one seed: arrival `k` is a function of the seed,
/// `k` and the model it lands on (live sources only), so a shadow checker
/// in the same state receives an identical delta.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    seed: u64,
}

impl Arrivals {
    pub fn new(seed: u64) -> Self {
        Arrivals { seed }
    }

    pub fn delta(&self, checker: &StreamingChecker, k: u64) -> ModelDelta {
        let model = checker.model();
        let mut rng = SmallRng::seed_from_u64(self.seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F));
        let mut delta = checker.delta();
        let claim = delta.add_claim();
        let mut row = vec![0.0; model.m_doc()];
        for _ in 0..DOCS_PER_CLAIM {
            for x in row.iter_mut() {
                *x = rng.gen();
            }
            let doc = delta
                .add_document(&row)
                .expect("row width is the model's document dimension");
            let source = live_source(model, rng.gen_range(0..model.n_sources()));
            let stance = if rng.gen_bool(0.8) {
                Stance::Support
            } else {
                Stance::Refute
            };
            delta.add_clique(claim, doc, source, stance);
        }
        delta
    }
}

/// The first live source at or after `start`, wrapping around.
fn live_source(model: &CrfModel, start: usize) -> u32 {
    let n = model.n_sources();
    (0..n)
        .map(|i| (start + i) % n)
        .find(|&s| model.source_live(s))
        .expect("the live set always keeps live sources") as u32
}

/// One reader round: a truth batch, a top-k scan and a trust lookup.
/// Returns the three answers' arrival tags.
pub fn query_round(
    handle: &QueryHandle,
    rng: &mut SmallRng,
    tr: &mut Option<&mut Tracer>,
    req: u64,
) -> [usize; 3] {
    let width = handle.snapshot().model.n_sources();
    let n_claims = handle.snapshot().model.n_claims();
    let ids: Vec<VarId> = (0..BATCH)
        .map(|_| VarId(rng.gen_range(0..n_claims) as u32))
        .collect();
    let source = rng.gen_range(0..width) as u32;
    let mut timed = |name: &'static str, f: &mut dyn FnMut() -> usize| match tr {
        Some(t) => t.leaf(name, req, f),
        None => f(),
    };
    let a = timed("serve.truth_batch", &mut || {
        black_box(handle.truth_batch(&ids)).at.arrivals
    });
    let b = timed("serve.top_k", &mut || {
        black_box(handle.top_k_uncertain(TOP_K)).at.arrivals
    });
    let c = timed("serve.trust", &mut || {
        black_box(handle.source_trust(source)).at.arrivals
    });
    [a, b, c]
}

/// Whether two float slices are bit-identical.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crf::ModelHandle;
    use streamcheck::OnlineEmConfig;

    #[test]
    fn each_arrival_adds_one_claim_and_retires_the_oldest() {
        let base = synthetic_model(40, 6, DOCS_PER_CLAIM, 2, 2, 3);
        let mut checker =
            StreamingChecker::try_new(ModelHandle::new(base), OnlineEmConfig::default())
                .unwrap()
                .with_retention(RetentionPolicy {
                    compact_threshold: 1.0,
                    ..RetentionPolicy::sliding_window(40)
                });
        expose_all(&mut checker);
        assert_eq!(checker.model().n_live_claims(), 40);
        let arrivals = Arrivals::new(11);
        for k in 0..25 {
            let stats = checker.arrive_new(arrivals.delta(&checker, k)).unwrap();
            assert_eq!(stats.retired_claims, 1);
            assert_eq!(checker.model().n_live_claims(), 40);
            assert!(
                !checker.model().claim_live(k as usize),
                "oldest retired first"
            );
        }
    }
}
