//! Open-loop load: requests due on a fixed-rate schedule, each timed from
//! the moment it was due.
//!
//! The thread that issues a request also serves it (the writer ingests its
//! own arrivals; the reader answers its own query rounds), so a request
//! whose predecessor overran starts late. That wait is *queueing* and is
//! part of the request's latency. A request whose thread was idle but
//! woke late measures the *generator*, not the system; it is reported
//! separately so a slow sleeper cannot pass for a slow server.
//!
//! A rate the system cannot sustain builds a backlog that grows for as
//! long as the run lasts. [`OpenLoop::report`] flags it instead of
//! reporting latencies that only measure the run's length.

use std::time::{Duration, Instant};

/// How long before a due time a waiting thread stops sleeping and spins,
/// at most: a quarter of the period on faster schedules, so a fast reader
/// does not keep a core busy spinning.
pub const SPIN_BEFORE_DUE: Duration = Duration::from_millis(2);

/// A fixed-rate schedule: request `k` is due at `start + k / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, k: usize) -> Instant {
        self.start + self.period * k as u32
    }

    /// How long before each due time the waiting thread spins.
    pub fn spin(&self) -> Duration {
        SPIN_BEFORE_DUE.min(self.period / 4)
    }

    /// Requests due within `span` of the start.
    pub fn count_within(&self, span: Duration) -> usize {
        (span.as_secs_f64() / self.period.as_secs_f64()).floor() as usize
    }

    /// Wait until request `k` is due (no-op when already late) and
    /// return the instant the request starts. The thread sleeps until
    /// [`Schedule::spin`] before the due time and spins from there, so a
    /// slow wake-up from sleep does not make the generator late.
    pub fn wait_for(&self, k: usize) -> Instant {
        let due = self.due(k);
        let spin = self.spin();
        let now = Instant::now();
        if due > now + spin {
            std::thread::sleep(due - now - spin);
        }
        loop {
            let now = Instant::now();
            if now >= due {
                return now;
            }
            std::hint::spin_loop();
        }
    }
}

/// Latency of one open-loop request, in seconds relative to its due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Start − due.
    pub start_late: f64,
    /// End − due: the request's latency.
    pub latency: f64,
    /// Whether the issuing thread was still busy with the previous
    /// request when this one fell due (a queueing wait) rather than idle
    /// (a generator wake-up delay).
    pub queued: bool,
}

/// Accumulates the timings of one open-loop stream.
#[derive(Debug, Default, Clone)]
pub struct OpenLoop {
    timings: Vec<Timing>,
    prev_end: Option<f64>,
}

/// Median start lag of the last quarter minus that of the first quarter
/// above which a backlog counts as growing.
pub const BACKLOG_GROWTH_S: f64 = 0.025;

/// Summary of one open-loop stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopReport {
    /// End − due of every request, seconds, in issue order.
    pub latencies: Vec<f64>,
    /// Start − due of requests that waited behind a busy predecessor.
    pub queue_waits: Vec<f64>,
    /// Start − due of requests whose thread was idle: how late the
    /// generator itself woke.
    pub generator_lates: Vec<f64>,
    /// Whether the start lag grew by more than [`BACKLOG_GROWTH_S`]
    /// between the first and the last quarter of the stream.
    pub backlog_growing: bool,
}

impl OpenLoop {
    /// Record request `k`'s due, start and end instants as seconds on any
    /// common clock. Requests must be recorded in issue order.
    pub fn record(&mut self, due: f64, start: f64, end: f64) {
        let queued = self.prev_end.is_some_and(|prev| prev > due);
        self.timings.push(Timing {
            start_late: (start - due).max(0.0),
            latency: (end - due).max(0.0),
            queued,
        });
        self.prev_end = Some(end);
    }

    pub fn report(&self) -> OpenLoopReport {
        let mut queue_waits = Vec::new();
        let mut generator_lates = Vec::new();
        for t in &self.timings {
            if t.queued {
                queue_waits.push(t.start_late);
            } else {
                generator_lates.push(t.start_late);
            }
        }
        OpenLoopReport {
            latencies: self.timings.iter().map(|t| t.latency).collect(),
            queue_waits,
            generator_lates,
            backlog_growing: backlog_growing(
                &self
                    .timings
                    .iter()
                    .map(|t| t.start_late)
                    .collect::<Vec<_>>(),
            ),
        }
    }
}

/// Whether a stream's start lags (seconds, issue order) show a backlog
/// that kept growing: the median lag of the last quarter exceeds that of
/// the first by more than [`BACKLOG_GROWTH_S`]. A burst that drains (a
/// compaction stalling a few requests) moves neither median.
pub fn backlog_growing(lags: &[f64]) -> bool {
    let q = lags.len() / 4;
    if q == 0 {
        return false;
    }
    let first = crate::stats::sorted(lags[..q].to_vec());
    let last = crate::stats::sorted(lags[lags.len() - q..].to_vec());
    let (Some(a), Some(b)) = (crate::stats::median(&first), crate::stats::median(&last)) else {
        return false;
    };
    b - a > BACKLOG_GROWTH_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_by_the_period() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 200.0);
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(3) - t0, Duration::from_millis(15));
        assert_eq!(s.count_within(Duration::from_secs(2)), 400);
        assert_eq!(Schedule::new(t0, 100.0).spin(), SPIN_BEFORE_DUE);
        assert_eq!(Schedule::new(t0, 1000.0).spin(), Duration::from_micros(250));
    }

    #[test]
    fn wait_for_sleeps_until_due_and_never_early() {
        let s = Schedule::new(Instant::now(), 1000.0);
        for k in 0..5 {
            let started = s.wait_for(k);
            assert!(started >= s.due(k));
        }
    }

    #[test]
    fn latency_counts_from_due_time_and_splits_waits() {
        let mut ol = OpenLoop::default();
        // Due every 10 ms. Request 0 is on time and slow (25 ms), so
        // requests 1 and 2 queue behind it; request 3 finds the thread
        // idle and wakes 1 ms late.
        ol.record(0.000, 0.000, 0.025);
        ol.record(0.010, 0.025, 0.028);
        ol.record(0.020, 0.028, 0.029);
        ol.record(0.030, 0.031, 0.033);
        let r = ol.report();
        let close = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-12)
        };
        assert!(close(&r.latencies, &[0.025, 0.018, 0.009, 0.003]));
        assert!(close(&r.queue_waits, &[0.015, 0.008]));
        assert!(close(&r.generator_lates, &[0.0, 0.001]));
        assert!(!r.backlog_growing);
    }

    #[test]
    fn a_rate_above_capacity_is_flagged_as_a_growing_backlog() {
        // Due every 10 ms, served in 12 ms: the lag grows 2 ms per request.
        let mut ol = OpenLoop::default();
        let mut end = 0.0f64;
        for k in 0..200 {
            let due = k as f64 * 0.010;
            let start = end.max(due);
            end = start + 0.012;
            ol.record(due, start, end);
        }
        assert!(ol.report().backlog_growing);
    }

    #[test]
    fn a_stall_that_drains_is_not_a_growing_backlog() {
        // Due every 10 ms, served in 2 ms, one 200 ms stall in the middle.
        let mut ol = OpenLoop::default();
        let mut end = 0.0f64;
        for k in 0..400 {
            let due = k as f64 * 0.010;
            let start = end.max(due);
            end = start + if k == 200 { 0.200 } else { 0.002 };
            ol.record(due, start, end);
        }
        let r = ol.report();
        assert!(!r.backlog_growing);
        assert!(r.queue_waits.len() >= 10, "the stall queued later requests");
    }
}
