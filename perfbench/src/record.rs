//! What one repetition of a workload leaves behind: its [`Outcome`] (the
//! end-to-end numbers and output checks) and, in a traced repetition, the
//! per-layer numbers a [`Recorder`] collects.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use photon_zo::photonics::CacheStats;
use photon_zo::trace::{MemorySink, TraceEvent, TraceHandle};

use crate::chip::ChipClock;
use crate::{Arm, Phase};

/// The end-to-end result of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Seconds spent in the workload's timed work.
    pub wall_s: f64,
    /// Chip queries the repetition spent.
    pub chip_queries: u64,
    /// Operations attempted: arms, online cycles or serving requests.
    pub attempted: u64,
    /// Operations that failed: arms that erred or ended non-finite,
    /// aborted cycles, requests shed or expired.
    pub failed: u64,
    /// Mean final test accuracy over the arms, or the online deployment's.
    pub acc_mean: Option<f64>,
    /// Held-out power fidelity of the calibrated model.
    pub calib_fidelity: Option<f64>,
    /// Serving requests completed per host second.
    pub serve_req_per_s: Option<f64>,
    /// Virtual-time p99 latency over all tenants, µs.
    pub serve_p99_us: Option<f64>,
    /// Hash of every result bit (parameters, accuracies, counts), equal
    /// between repetitions and between the bare and the decorated chip.
    pub fingerprint: u64,
    /// Output checks that failed.
    pub failures: Vec<String>,
    /// Known defects of the program this repetition showed; printed, not
    /// failed.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Folds `bits` into the fingerprint (FNV-1a over the 8 bytes).
    pub fn mix(&mut self, bits: u64) {
        let mut h = if self.fingerprint == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.fingerprint
        };
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.fingerprint = h;
    }

    /// Folds every element's bits into the fingerprint.
    pub fn mix_all(&mut self, values: &[f64]) {
        for v in values {
            self.mix(v.to_bits());
        }
    }
}

/// Collects per-layer numbers. A bare recorder still times the
/// benchmark's coarse calls (a handful per repetition), but has no chip
/// clock and a null trace sink; a traced one adds the timing chip
/// decorator and an in-memory trace sink.
#[derive(Debug)]
pub struct Recorder {
    clock: Option<Arc<ChipClock>>,
    trace: TraceHandle,
    sink: Option<Arc<MemorySink>>,
    layers: BTreeMap<String, f64>,
    attributed_ns: f64,
}

impl Recorder {
    /// Bare chip, null trace sink.
    pub fn bare() -> Self {
        Recorder {
            clock: None,
            trace: TraceHandle::null(),
            sink: None,
            layers: BTreeMap::new(),
            attributed_ns: 0.0,
        }
    }

    /// Timing chip decorator and in-memory trace sink.
    pub fn traced() -> Self {
        let (trace, sink) = TraceHandle::memory(0);
        Recorder {
            clock: Some(Arc::new(ChipClock::default())),
            trace,
            sink: Some(sink),
            layers: BTreeMap::new(),
            attributed_ns: 0.0,
        }
    }

    /// `true` for a traced recorder.
    pub fn is_traced(&self) -> bool {
        self.clock.is_some()
    }

    /// The chip clock, when traced.
    pub fn clock(&self) -> Option<Arc<ChipClock>> {
        self.clock.clone()
    }

    /// The trace handle to put into the program's configuration.
    pub fn trace(&self) -> TraceHandle {
        self.trace.clone()
    }

    /// Charges subsequent chip work to `phase`.
    pub fn phase(&self, phase: Phase) {
        if let Some(clock) = &self.clock {
            clock.set_phase(phase);
        }
    }

    /// Runs `f` as part of the timed work and adds its nanoseconds to
    /// layer metric `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.attributed_ns += ns;
        self.add(name, ns);
        out
    }

    /// Like [`Recorder::time`], for work outside the timed work (the
    /// traced run's extra measurements).
    pub fn time_aside<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed().as_nanos() as f64);
        out
    }

    /// Adds `value` to layer metric `name`.
    pub fn add(&mut self, name: &str, value: f64) {
        *self.layers.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The value of layer metric `name` so far (0 when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.layers.get(name).copied().unwrap_or(0.0)
    }

    /// Sets layer metric `name` to `value`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Records the compiled-plan cache counters a repetition moved.
    pub fn cache(&mut self, delta: CacheStats) {
        let lookups = delta.hits + delta.misses + delta.incremental;
        if lookups > 0 {
            self.set(
                "photonics.cache_hit_ratio",
                delta.hits as f64 / lookups as f64,
            );
        }
        self.set("photonics.cache_misses", delta.misses as f64);
        self.set("photonics.cache_incremental", delta.incremental as f64);
    }

    /// The trace events recorded so far (empty when bare).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.sink.as_ref().map(|s| s.events()).unwrap_or_default()
    }

    /// The layer metrics of a finished traced repetition whose timed work
    /// took `wall_s`: the benchmark's own timings plus the chip clock's
    /// per-phase counters, host time per arm and the pool counters from
    /// the trace.
    pub fn finish(mut self, wall_s: f64) -> BTreeMap<String, f64> {
        if let Some(clock) = self.clock.take() {
            for phase in Phase::all() {
                let s = clock.stats(phase);
                let name = phase.name();
                self.set(&format!("photonics.chip_ns.{name}"), s.busy_ns as f64);
                self.set(&format!("photonics.chip_calls.{name}"), s.calls as f64);
                self.set(&format!("photonics.chip_queries.{name}"), s.queries as f64);
            }
            for arm in Arm::ALL {
                let name = arm.name();
                if let Some(&total) = self.layers.get(&format!("core.finetune_ns.{name}")) {
                    let chip = clock.stats(Phase::Arm(arm)).busy_ns as f64;
                    self.set(&format!("opt.host_ns.{name}"), total - chip);
                }
            }
        }
        let (mut map_calls, mut items, mut peak) = (0u64, 0u64, 0u64);
        for event in self.events() {
            if let TraceEvent::PoolStats {
                map_calls: m,
                items: i,
                peak_worker_share_milli: p,
                ..
            } = event
            {
                map_calls += m;
                items += i;
                peak = peak.max(p);
            }
        }
        self.set("exec.map_calls", map_calls as f64);
        self.set("exec.items", items as f64);
        self.set("exec.peak_worker_share", peak as f64 / 1000.0);
        self.set("bench.traced_wall_s", wall_s);
        if wall_s > 0.0 {
            self.set("bench.attributed_share", self.attributed_ns / 1e9 / wall_s);
        }
        self.layers
    }
}

/// Every per-layer metric with its unit, in the order `BENCHMARK.json`
/// lists them. A traced run prints all of them on every workload; a layer
/// the workload does not use reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    push("data.build_ns", "ns");
    push("calib.probe_ns", "ns");
    push("calib.probe_queries", "count");
    push("calib.fit_ns", "ns");
    push("calib.fit_iters", "count");
    push("calib.cost_ratio", "ratio");
    push("calib.fidelity", "ratio");
    push("calib.fidelity_ideal", "ratio");
    push("core.warm_start_ns", "ns");
    push("core.eval_ns", "ns");
    push("core.eval_queries", "count");
    for arm in Arm::ALL {
        push(&format!("core.finetune_ns.{}", arm.name()), "ns");
    }
    for arm in Arm::ALL {
        push(&format!("opt.host_ns.{}", arm.name()), "ns");
    }
    for phase in Phase::all() {
        push(&format!("photonics.chip_ns.{}", phase.name()), "ns");
    }
    for phase in Phase::all() {
        push(&format!("photonics.chip_calls.{}", phase.name()), "count");
    }
    for phase in Phase::all() {
        push(&format!("photonics.chip_queries.{}", phase.name()), "count");
    }
    push("photonics.cache_hit_ratio", "ratio");
    push("photonics.cache_misses", "count");
    push("photonics.cache_incremental", "count");
    push("exec.map_calls", "count");
    push("exec.items", "count");
    push("exec.peak_worker_share", "ratio");
    push("exec.scaling_2t", "ratio");
    push("core.journal_append_ns", "ns");
    push("core.journal_replay_ns", "ns");
    push("core.journal_records", "count");
    push("core.journal_bytes", "bytes");
    push("core.journal_resumes", "count");
    push("farm.online_ns", "ns");
    push("farm.cycles", "count");
    push("farm.promotions", "count");
    push("farm.rollbacks", "count");
    push("sim.run_on_chip_ns", "ns");
    push("sim.event_loop_ns", "ns");
    push("sim.serve_ns", "ns");
    push("sim.dispatches", "count");
    push("sim.mean_batch", "count");
    push("sim.peak_queue", "count");
    push("outcome.acc_mean", "ratio");
    push("outcome.serve_req_per_s", "req/s");
    push("outcome.serve_p99_us", "us");
    push("bench.traced_wall_s", "s");
    push("bench.untraced_wall_s", "s");
    push("bench.trace_overhead", "ratio");
    push("bench.attributed_share", "ratio");
    push("bench.host_slowdown", "ratio");
    m
}
