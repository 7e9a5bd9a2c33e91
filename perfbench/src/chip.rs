//! A timing [`OnnChip`] decorator: calls, queries and busy wall time per
//! benchmark phase, measured from outside the program.
//!
//! Every trait method is forwarded to the inner chip, including the ones
//! the trait gives defaults for. A default would silently swap the inner
//! chip's compiled GEMM path for the per-sample walk and change both the
//! speed and the rounding being measured.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use photon_zo::linalg::{CVector, RVector};
use photon_zo::photonics::{
    AbortFlag, Architecture, BatchScratch, CacheStats, ChipScratch, ErrorVector, Network, OnnChip,
};
use rand::Rng;

use crate::Phase;

/// Counters of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Measurement calls (one batched call counts once).
    pub calls: u64,
    /// Chip queries those calls spent (one per input).
    pub queries: u64,
    /// Wall time during which at least one chip call was in flight.
    pub busy_ns: u64,
}

/// Per-phase counters shared between a [`TimedChip`] and the benchmark,
/// which switches the phase at its serial control points.
#[derive(Debug, Default)]
pub struct ChipClock {
    phase: AtomicUsize,
    calls: [AtomicU64; Phase::COUNT],
    queries: [AtomicU64; Phase::COUNT],
    busy_ns: [AtomicU64; Phase::COUNT],
    /// Calls in flight and the instant the current busy interval began.
    /// Busy time is the union of call intervals, so pool workers measuring
    /// at once are not counted twice and chip time stays comparable with
    /// the wall time of the call that caused it.
    inflight: Mutex<(usize, Option<Instant>)>,
}

impl ChipClock {
    /// Attributes subsequent chip work to `phase`. Call only while no chip
    /// call is in flight.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase.index(), Ordering::Relaxed);
    }

    /// The counters of `phase` so far.
    pub fn stats(&self, phase: Phase) -> PhaseStats {
        let i = phase.index();
        PhaseStats {
            calls: self.calls[i].load(Ordering::Relaxed),
            queries: self.queries[i].load(Ordering::Relaxed),
            busy_ns: self.busy_ns[i].load(Ordering::Relaxed),
        }
    }

    /// Queries counted over every phase.
    pub fn total_queries(&self) -> u64 {
        self.queries.iter().map(|q| q.load(Ordering::Relaxed)).sum()
    }

    fn enter(&self) {
        let mut g = self.inflight.lock().expect("chip clock lock poisoned");
        if g.0 == 0 {
            g.1 = Some(Instant::now());
        }
        g.0 += 1;
    }

    fn exit(&self, calls: u64, queries: u64) {
        let i = self.phase.load(Ordering::Relaxed);
        {
            let mut g = self.inflight.lock().expect("chip clock lock poisoned");
            g.0 -= 1;
            if g.0 == 0 {
                if let Some(since) = g.1.take() {
                    let ns = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    self.busy_ns[i].fetch_add(ns, Ordering::Relaxed);
                }
            }
        }
        self.calls[i].fetch_add(calls, Ordering::Relaxed);
        self.queries[i].fetch_add(queries, Ordering::Relaxed);
    }
}

/// Wraps a chip and charges its work to the current phase of a
/// [`ChipClock`]. Measurements count calls and queries; pin compiles and
/// drift steps count only time, since they are photonics-layer work that
/// spends no query.
#[derive(Debug)]
pub struct TimedChip<'c, C: OnnChip> {
    inner: &'c C,
    clock: Arc<ChipClock>,
}

impl<'c, C: OnnChip> TimedChip<'c, C> {
    /// Decorates `inner`, charging its work to `clock`.
    pub fn new(inner: &'c C, clock: Arc<ChipClock>) -> Self {
        TimedChip { inner, clock }
    }

    fn timed<T>(&self, calls: u64, queries: usize, f: impl FnOnce() -> T) -> T {
        self.clock.enter();
        let out = f();
        self.clock.exit(calls, queries as u64);
        out
    }
}

impl<C: OnnChip> OnnChip for TimedChip<'_, C> {
    fn architecture(&self) -> &Architecture {
        self.inner.architecture()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn init_params<R: Rng + ?Sized>(&self, rng: &mut R) -> RVector {
        self.inner.init_params(rng)
    }

    fn forward_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s CVector {
        self.timed(1, 1, || self.inner.forward_into(x, theta, scratch))
    }

    fn forward_powers_into<'s>(
        &self,
        x: &CVector,
        theta: &RVector,
        scratch: &'s mut ChipScratch,
    ) -> &'s RVector {
        self.timed(1, 1, || self.inner.forward_powers_into(x, theta, scratch))
    }

    fn forward_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [CVector] {
        self.timed(1, xs.len(), || {
            self.inner.forward_batch_into(xs, theta, scratch)
        })
    }

    fn forward_powers_batch_into<'s>(
        &self,
        xs: &[&CVector],
        theta: &RVector,
        scratch: &'s mut BatchScratch,
    ) -> &'s [RVector] {
        self.timed(1, xs.len(), || {
            self.inner.forward_powers_batch_into(xs, theta, scratch)
        })
    }

    fn forward(&self, x: &CVector, theta: &RVector) -> CVector {
        self.timed(1, 1, || self.inner.forward(x, theta))
    }

    fn forward_powers(&self, x: &CVector, theta: &RVector) -> RVector {
        self.timed(1, 1, || self.inner.forward_powers(x, theta))
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn reset_query_count(&self) {
        self.inner.reset_query_count()
    }

    fn oracle_errors(&self) -> ErrorVector {
        self.inner.oracle_errors()
    }

    fn oracle_network(&self) -> Network {
        self.inner.oracle_network()
    }

    fn advance_to(&self, step: u64) {
        self.timed(0, 0, || self.inner.advance_to(step))
    }

    fn abort_flag(&self) -> AbortFlag {
        self.inner.abort_flag()
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn pin_compile_base(&self, theta: &RVector) {
        self.timed(0, 0, || self.inner.pin_compile_base(theta))
    }

    fn pinned_theta(&self) -> Option<RVector> {
        self.inner.pinned_theta()
    }
}
