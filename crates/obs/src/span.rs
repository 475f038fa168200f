//! RAII phase spans and accumulating timers.
//!
//! [`Span`] times one phase on one rank: on [`Span::finish`] (or drop)
//! it records the elapsed seconds into the registry's phase aggregate
//! and, with a tracer attached, one trace span. `finish()` also
//! *returns* the seconds, for call sites that ship them elsewhere (a
//! worker's summary to the master).
//!
//! [`Timer`] is a stopwatch for inner loops that run many short bursts
//! of the same phase (e.g. per-batch alignment in a slave): start/stop
//! accumulates, and the total is recorded once at the end.

use crate::Obs;
use std::time::{Duration, Instant};

/// An open phase span. Created by [`Obs::span`] / [`Obs::span_on`].
#[must_use = "a span times the region until finish() or drop"]
pub struct Span<'a> {
    obs: &'a Obs,
    phase: &'a str,
    rank: usize,
    start: Instant,
    finished: bool,
}

impl<'a> Span<'a> {
    pub(crate) fn begin(obs: &'a Obs, phase: &'a str, rank: usize) -> Self {
        Span {
            obs,
            phase,
            rank,
            start: Instant::now(),
            finished: false,
        }
    }

    /// Seconds elapsed so far, without closing the span.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Close the span, record it, and return the elapsed seconds.
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        let secs = self.start.elapsed().as_secs_f64();
        self.finished = true;
        self.obs
            .registry()
            .record_phase(self.phase, self.rank, secs);
        self.obs.trace_with(|tracer| {
            let dur_us = (secs * 1e6) as u64;
            let end_us = self.obs.now_us();
            tracer.span(
                self.rank,
                tracer.intern(self.phase),
                end_us.saturating_sub(dur_us),
                dur_us,
                0,
                0,
            );
        });
        secs
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.close();
        }
    }
}

/// An accumulating stopwatch. Unlike [`Span`] it is detached from any
/// `Obs`: it only measures, and the caller records the total (via
/// [`crate::Registry::record_phase`]) when the loop is done.
#[derive(Debug, Default)]
pub struct Timer {
    acc: Duration,
    running: Option<Instant>,
}

impl Timer {
    /// A stopped timer with zero accumulated time.
    pub fn new() -> Self {
        Timer::default()
    }

    /// Start (or restart) the stopwatch. Starting a running timer is a
    /// no-op.
    pub fn start(&mut self) {
        if self.running.is_none() {
            self.running = Some(Instant::now());
        }
    }

    /// Stop the stopwatch and return the seconds of the lap just ended.
    /// Stopping a stopped timer returns 0.
    pub fn stop(&mut self) -> f64 {
        match self.running.take() {
            Some(started) => {
                let lap = started.elapsed();
                self.acc += lap;
                lap.as_secs_f64()
            }
            None => 0.0,
        }
    }

    /// Time one closure, accumulating its duration.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.start();
        let out = f();
        self.stop();
        out
    }

    /// Total accumulated seconds (excluding any still-running lap).
    pub fn secs(&self) -> f64 {
        self.acc.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    #[test]
    fn span_records_on_drop() {
        let obs = Obs::noop();
        {
            let _span = obs.span("gst_construction");
        }
        let snap = obs.registry().snapshot();
        assert_eq!(snap.phases["gst_construction"].count, 1);
    }

    #[test]
    fn finish_returns_elapsed_and_records_once() {
        let obs = Obs::noop();
        let span = obs.span_on("node_sorting", 2);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let secs = span.finish();
        assert!(secs >= 0.002);
        let agg = &obs.registry().snapshot().phases["node_sorting"];
        assert_eq!(agg.count, 1);
        assert!((agg.max - secs).abs() < 1e-9);
    }

    #[test]
    fn timer_accumulates_laps() {
        let mut t = Timer::new();
        t.start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let lap = t.stop();
        assert!(lap > 0.0);
        let out = t.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            7
        });
        assert_eq!(out, 7);
        assert!(t.secs() >= lap);
        assert_eq!(t.stop(), 0.0, "stopping a stopped timer is a no-op");
    }
}
