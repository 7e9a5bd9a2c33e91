//! # photon-perfbench
//!
//! The repository benchmark: four workloads (the quick Table-1 cell, the
//! K=24 ZO fine-tune, online recalibration on a drifting chip and
//! chip-backed serving), each timed end to end with the bare chip and
//! tracing off, and layer by layer in a separate traced run. See
//! `README.md` next to this crate for the metric definitions and for why
//! `BENCHMARK.json` gates only three of them.
//!
//! Layers are timed from outside the program: the benchmark times its own
//! calls into public functions, and a [`chip::TimedChip`] decorator charges
//! chip calls to the phase the benchmark is in. The end-to-end times are
//! corrected for the shared host's speed, which [`host`] measures while a
//! run goes on.

#![warn(missing_docs)]

pub mod chip;
pub mod host;
pub mod record;
pub mod runner;
pub mod workloads;

use photon_zo::core::{Method, ModelChoice};

/// The seed the benchmark was tuned on.
pub const TUNING_SEED: u64 = 42;

/// A seed kept out of tuning, for checking a performance claim on inputs
/// the change was not written against.
pub const CLAIM_SEED: u64 = 20_261_017;

/// Named RNG streams. Every input of a workload comes from
/// `photon_zo::core::epoch_seed(seed, stream)`, so arms share the chip, the calibration and
/// the warm start, and differ only in method and their own arm stream.
pub mod streams {
    /// Fabrication and dataset.
    pub const TASK: usize = 1;
    /// Calibration probe plan.
    pub const CALIB: usize = 2;
    /// Backprop warm start.
    pub const WARM_START: usize = 3;
    /// Held-out fidelity inputs and phase settings.
    pub const FIDELITY: usize = 4;
    /// Pre-drift deployment training (online recalibration).
    pub const DEPLOY: usize = 5;
    /// Thermal drift of the live chip.
    pub const DRIFT: usize = 6;
    /// Root of the online controller's per-cycle streams.
    pub const ONLINE: usize = 7;
    /// Root of the serving simulator's streams.
    pub const SERVE: usize = 8;
    /// First arm stream; arm `a` uses `ARM_BASE + a`.
    pub const ARM_BASE: usize = 16;
}

/// A black-box fine-tune arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// ZO with Gaussian probes.
    ZoI,
    /// Coordinate-wise ZO.
    ZoCo,
    /// Linear combination, identity metric.
    ZoLc,
    /// ZO with block natural-gradient preconditioning on the ideal model.
    ZoNgIdeal,
    /// LCNG with the ideal model's metric.
    LcngIdeal,
    /// LCNG with the calibrated model's metric.
    LcngCalib,
    /// LCNG with the true chip errors (upper bound).
    LcngOracle,
    /// CMA-ES, σ₀ = 0.1.
    Cma,
}

impl Arm {
    /// Every arm, in metric order.
    pub const ALL: [Arm; 8] = [
        Arm::ZoI,
        Arm::ZoCo,
        Arm::ZoLc,
        Arm::ZoNgIdeal,
        Arm::LcngIdeal,
        Arm::LcngCalib,
        Arm::LcngOracle,
        Arm::Cma,
    ];

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Arm::ZoI => "zo_i",
            Arm::ZoCo => "zo_co",
            Arm::ZoLc => "zo_lc",
            Arm::ZoNgIdeal => "zo_ng_ideal",
            Arm::LcngIdeal => "lcng_ideal",
            Arm::LcngCalib => "lcng_calib",
            Arm::LcngOracle => "lcng_oracle",
            Arm::Cma => "cma",
        }
    }

    /// The trainer method this arm runs.
    pub fn method(self) -> Method {
        match self {
            Arm::ZoI => Method::ZoGaussian,
            Arm::ZoCo => Method::ZoCoordinate,
            Arm::ZoLc => Method::ZoLc,
            Arm::ZoNgIdeal => Method::ZoNg {
                model: ModelChoice::Ideal,
            },
            Arm::LcngIdeal => Method::Lcng {
                model: ModelChoice::Ideal,
            },
            Arm::LcngCalib => Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            Arm::LcngOracle => Method::Lcng {
                model: ModelChoice::OracleTrue,
            },
            Arm::Cma => Method::Cma { sigma0: 0.1 },
        }
    }

    /// The arm's own RNG stream.
    pub fn stream(self) -> usize {
        streams::ARM_BASE + self as usize
    }
}

/// What the chip is doing, for the timing decorator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Calibration probe sweep.
    Calib,
    /// One fine-tune arm, its final evaluation included.
    Arm(Arm),
    /// Evaluation of the warm start.
    Eval,
    /// The whole online-recalibration loop.
    Online,
}

impl Phase {
    /// Number of phases.
    pub(crate) const COUNT: usize = 3 + Arm::ALL.len();

    /// Every phase, in metric order.
    pub fn all() -> impl Iterator<Item = Phase> {
        std::iter::once(Phase::Calib)
            .chain(Arm::ALL.into_iter().map(Phase::Arm))
            .chain([Phase::Eval, Phase::Online])
    }

    /// Dense index in `0..COUNT`.
    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Calib => 0,
            Phase::Arm(a) => 1 + a as usize,
            Phase::Eval => 1 + Arm::ALL.len(),
            Phase::Online => 2 + Arm::ALL.len(),
        }
    }

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Calib => "calib",
            Phase::Arm(a) => a.name(),
            Phase::Eval => "eval",
            Phase::Online => "online",
        }
    }
}
