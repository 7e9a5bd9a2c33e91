//! # photon-calib
//!
//! Black-box chip calibration: estimating the hidden fabrication errors of a
//! [`photon_photonics::FabricatedChip`] from input/output power measurements
//! — the "Calibrated Model" of the paper's title.
//!
//! The pipeline:
//!
//! 1. [`ProbePlan`] drives the chip with basis + Haar-random inputs at
//!    several random phase settings (each pair = one chip query);
//! 2. [`calibrate`] fits the model's per-component error vector by damped
//!    Gauss-Newton ([`fit_least_squares`]) on the power residuals, with the
//!    exact reverse-mode Jacobian of [`CalibrationProblem`] — the fit runs
//!    entirely on the free software model;
//! 3. [`evaluate_model`] scores the result on held-out probes
//!    (field/power fidelity), and `ErrorVector::rmse` against
//!    `FabricatedChip::oracle_errors` scores parameter recovery.
//!
//! The calibrated model then supplies the Fisher metric for the LCNG
//! optimizer in `photon-opt`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod calibrator;
mod fidelity;
mod gauss_newton;
mod probe;

pub use calibrator::{
    calibrate, calibrate_from_measurements, calibrate_traced, recalibrate,
    recalibrate_from_measurements, CalibError, CalibrationOutcome, CalibrationProblem,
    CalibrationSettings,
};
pub use fidelity::{evaluate_model, field_fidelity, power_fidelity, FidelityReport};
pub use gauss_newton::{
    fit_least_squares, levenberg_marquardt, LeastSquares, LmResult, LmSettings,
    POOL_MIN_JACOBIAN_ENTRIES,
};
pub use probe::{measure_chip, measure_chip_pooled, Measurements, ProbePlan};
