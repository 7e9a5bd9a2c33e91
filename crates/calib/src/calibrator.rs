//! The chip calibrator: estimates per-component fabrication errors from
//! black-box power measurements.
//!
//! Protocol:
//!
//! 1. drive the chip with a [`crate::ProbePlan`] (basis + random inputs at
//!    several random phase settings) and record detector powers;
//! 2. fit the model's flat error vector `e = (γ…, attenuation…, phase…)` by
//!    damped Gauss-Newton on the residual
//!    `r(e) = [ |y_model(x_p; θ_s, e)|² − measured ]_{s,p}`, with the exact
//!    Jacobian from one reverse sweep per probe ([`CalibrationProblem`]);
//! 3. return the estimated [`ErrorVector`] and the calibrated [`Network`].
//!
//! The fit touches only the software model — chip queries are spent solely
//! on step 1, so calibration cost is exactly `plan.query_cost()` queries.

use std::sync::Mutex;

use rand::Rng;

use photon_exec::ExecPool;
use photon_linalg::{CVector, LinalgError, RMatrix, RVector, C64};
use photon_photonics::{
    Architecture, ErrorRows, ErrorVector, Network, NetworkError, NetworkScratch, OnnChip,
};
use photon_trace::{QueryCategory, TraceEvent, TraceHandle};

use crate::gauss_newton::{fit_least_squares, pool_for, LeastSquares, LmSettings};
use crate::probe::{measure_chip, Measurements, ProbePlan};

/// Calibration hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSettings {
    /// Include the `K` basis inputs in the probe plan.
    pub include_basis: bool,
    /// Number of Haar-random unit inputs.
    pub random_inputs: usize,
    /// Number of random phase settings.
    pub num_settings: usize,
    /// Gauss-Newton settings for the model fit.
    pub lm: LmSettings,
}

impl Default for CalibrationSettings {
    fn default() -> Self {
        CalibrationSettings {
            include_basis: true,
            random_inputs: 8,
            num_settings: 3,
            lm: LmSettings::default(),
        }
    }
}

impl CalibrationSettings {
    /// A budget-scaled preset: roughly `budget` chip queries split over
    /// inputs and settings.
    ///
    /// # Panics
    ///
    /// Panics when `budget` is too small to fit one basis sweep.
    pub fn with_query_budget(k: usize, budget: usize) -> Self {
        assert!(
            budget >= 2 * k,
            "budget must cover at least two basis sweeps"
        );
        let num_settings = (budget / (2 * k)).clamp(2, 6);
        let inputs_per_setting = budget / num_settings;
        let random_inputs = inputs_per_setting.saturating_sub(k).max(2);
        CalibrationSettings {
            include_basis: true,
            random_inputs,
            num_settings,
            lm: LmSettings::default(),
        }
    }
}

/// Errors raised by the calibrator.
#[derive(Debug)]
#[non_exhaustive]
pub enum CalibError {
    /// The least-squares solve failed.
    Linalg(LinalgError),
    /// Rebuilding the model from the fitted errors failed (never occurs for
    /// plans generated from the chip's own architecture).
    Network(NetworkError),
}

impl std::fmt::Display for CalibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibError::Linalg(e) => write!(f, "calibration solve failed: {e}"),
            CalibError::Network(e) => write!(f, "calibrated model rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for CalibError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CalibError::Linalg(e) => Some(e),
            CalibError::Network(e) => Some(e),
        }
    }
}

impl From<LinalgError> for CalibError {
    fn from(e: LinalgError) -> Self {
        CalibError::Linalg(e)
    }
}

impl From<NetworkError> for CalibError {
    fn from(e: NetworkError) -> Self {
        CalibError::Network(e)
    }
}

/// The outcome of a calibration run.
#[derive(Debug)]
pub struct CalibrationOutcome {
    /// Estimated per-component error assignment.
    pub errors: ErrorVector,
    /// The calibrated software model (architecture + estimated errors).
    pub model: Network,
    /// Final fit cost `‖r‖²`.
    pub fit_cost: f64,
    /// Fit cost before optimization (ideal-model residual).
    pub initial_cost: f64,
    /// Gauss-Newton iterations used.
    pub iterations: usize,
    /// Chip queries consumed by the measurement sweep.
    pub chip_queries: usize,
}

/// Calibrates `chip` with the given settings.
///
/// # Errors
///
/// See [`CalibError`].
///
/// # Examples
///
/// ```no_run
/// use rand::SeedableRng;
/// use photon_calib::{calibrate, CalibrationSettings};
/// use photon_photonics::{Architecture, ErrorModel, FabricatedChip};
///
/// let arch = Architecture::single_mesh(4, 2)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
/// let outcome = calibrate(&chip, &CalibrationSettings::default(), &mut rng)?;
/// assert!(outcome.fit_cost <= outcome.initial_cost);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn calibrate<C: OnnChip, R: Rng + ?Sized>(
    chip: &C,
    settings: &CalibrationSettings,
    rng: &mut R,
) -> Result<CalibrationOutcome, CalibError> {
    let plan = ProbePlan::for_chip(
        chip,
        settings.include_basis,
        settings.random_inputs,
        settings.num_settings,
        rng,
    );
    let measured = measure_chip(chip, &plan);
    calibrate_from_measurements(chip, &plan, &measured, &settings.lm)
}

/// [`calibrate`], with telemetry: emits a [`TraceEvent::Calibration`] fit
/// summary plus an epoch-0 [`TraceEvent::QueryLedger`] entry in the
/// `Calibration` category covering the chip queries the measurement sweep
/// actually consumed. With a null handle this is exactly [`calibrate`].
///
/// Use this for standalone (pre-training) calibration so a traced run's
/// ledger accounts for every chip query; in-run recalibrations are ledgered
/// by the trainer itself.
///
/// # Errors
///
/// See [`CalibError`].
pub fn calibrate_traced<C: OnnChip, R: Rng + ?Sized>(
    chip: &C,
    settings: &CalibrationSettings,
    rng: &mut R,
    trace: &TraceHandle,
) -> Result<CalibrationOutcome, CalibError> {
    let before = chip.query_count();
    let outcome = calibrate(chip, settings, rng)?;
    let spent = chip.query_count().saturating_sub(before);
    trace.emit(|| TraceEvent::Calibration {
        queries: spent,
        initial_cost: outcome.initial_cost,
        fit_cost: outcome.fit_cost,
        iterations: outcome.iterations as u64,
    });
    trace.emit(|| TraceEvent::QueryLedger {
        epoch: 0,
        category: QueryCategory::Calibration,
        queries: spent,
    });
    Ok(outcome)
}

/// Incremental recalibration: re-fit an already-calibrated chip whose
/// physical errors have drifted, warm-starting the Gauss-Newton fit from a
/// prior [`ErrorVector`] instead of zeros.
///
/// Under slow drift (e.g. OU thermal walks) the prior estimate is already
/// close to the new optimum, so the warm start converges in a fraction of
/// the iterations of a cold [`calibrate`] and tolerates much smaller probe
/// sweeps — this is the entry point the online-recalibration controller
/// uses between serving windows, where every chip query steals a microbatch
/// slot from live traffic.
///
/// # Errors
///
/// See [`CalibError`].
///
/// # Panics
///
/// Panics when `prior`'s flat layout does not match the chip architecture's
/// error slots.
pub fn recalibrate<C: OnnChip, R: Rng + ?Sized>(
    chip: &C,
    prior: &ErrorVector,
    settings: &CalibrationSettings,
    rng: &mut R,
) -> Result<CalibrationOutcome, CalibError> {
    let plan = ProbePlan::for_chip(
        chip,
        settings.include_basis,
        settings.random_inputs,
        settings.num_settings,
        rng,
    );
    let measured = measure_chip(chip, &plan);
    recalibrate_from_measurements(chip, &plan, &measured, &settings.lm, prior)
}

/// [`recalibrate`] from an existing measurement sweep: warm-starts the fit
/// at `prior` instead of zeros. Useful when the probe sweep was collected
/// piggybacked on live traffic (so measurement and fitting happen at
/// different times).
///
/// # Errors
///
/// See [`CalibError`].
///
/// # Panics
///
/// Panics when `prior`'s flat layout does not match the chip architecture's
/// error slots.
pub fn recalibrate_from_measurements<C: OnnChip>(
    chip: &C,
    plan: &ProbePlan,
    measured: &Measurements,
    lm: &LmSettings,
    prior: &ErrorVector,
) -> Result<CalibrationOutcome, CalibError> {
    let (n_bs, n_ps) = chip.architecture().error_slots();
    let flat = prior.to_flat();
    assert_eq!(
        flat.len(),
        n_bs + 2 * n_ps,
        "prior error vector does not match the chip architecture"
    );
    fit_measurements(chip, plan, measured, lm, RVector::from_vec(flat))
}

/// Calibrates from an existing measurement sweep (useful when the sweep is
/// shared across calibration budgets in an experiment). The fit cold-starts
/// from the ideal model (zero errors); see [`recalibrate_from_measurements`]
/// for the warm-started variant.
///
/// # Errors
///
/// See [`CalibError`].
pub fn calibrate_from_measurements<C: OnnChip>(
    chip: &C,
    plan: &ProbePlan,
    measured: &Measurements,
    lm: &LmSettings,
) -> Result<CalibrationOutcome, CalibError> {
    let (n_bs, n_ps) = chip.architecture().error_slots();
    fit_measurements(chip, plan, measured, lm, RVector::zeros(n_bs + 2 * n_ps))
}

/// The calibration fit as a least-squares problem over the flat error
/// vector ([`ErrorVector::to_flat`] layout): the detector-power residuals
/// of the model built from those errors against a measurement sweep.
///
/// The Jacobian is exact: one taped forward per `(setting, input)` and one
/// backward sweep carrying the `K` detector cotangents `2·y_d·e_d` together
/// ([`Network::error_vjp`]). The `(setting, input)` blocks are independent,
/// each writing its own `K` rows, so from
/// [`crate::POOL_MIN_JACOBIAN_ENTRIES`] up they run on
/// [`ExecPool::from_env`], one tape and scratch per worker, with the same
/// bits at any thread count. A dropped or non-finite reading has its
/// residual entry and its Jacobian row zeroed, which removes that detector
/// sample from the objective.
///
/// Evaluating at a vector whose length is not the architecture's
/// `n_bs + 2·n_ps`, or with measurements not shaped like the plan, panics.
#[derive(Debug)]
pub struct CalibrationProblem<'a> {
    arch: &'a Architecture,
    plan: &'a ProbePlan,
    measured: &'a Measurements,
    scratch: NetworkScratch,
    pool: ExecPool,
}

impl<'a> CalibrationProblem<'a> {
    /// The fit of `arch`'s error vector to `measured`, the chip's responses
    /// to `plan`.
    pub fn new(arch: &'a Architecture, plan: &'a ProbePlan, measured: &'a Measurements) -> Self {
        CalibrationProblem {
            arch,
            plan,
            measured,
            scratch: NetworkScratch::new(),
            pool: ExecPool::from_env(),
        }
    }

    /// This problem with its Jacobian on `pool` (above the work threshold).
    #[cfg(test)]
    pub(crate) fn with_pool(mut self, pool: ExecPool) -> Self {
        self.pool = pool;
        self
    }

    fn model(&self, flat: &RVector) -> Network {
        let (n_bs, n_ps) = self.arch.error_slots();
        let errors = ErrorVector::from_flat(n_bs, n_ps, flat.as_slice())
            .expect("flat error vector must match the architecture's slots");
        self.arch
            .build_with_errors(&errors)
            .expect("flat layout matches the architecture")
    }

    /// The residual of one detector power against its reading; `None` when
    /// either is non-finite, for the caller to zero.
    fn power_residual(y: C64, target: f64) -> Option<f64> {
        let e = y.norm_sqr() - target;
        e.is_finite().then_some(e)
    }
}

impl LeastSquares for CalibrationProblem<'_> {
    fn residual(&mut self, flat: &RVector) -> RVector {
        let model = self.model(flat);
        let k_out = model.output_dim();
        let mut r = RVector::zeros(self.plan.residual_count(k_out));
        let mut idx = 0;
        for (s, theta) in self.plan.settings.iter().enumerate() {
            for (p, x) in self.plan.inputs.iter().enumerate() {
                let y = model.forward_into(x, theta, &mut self.scratch);
                let target = &self.measured.powers[s][p];
                for d in 0..k_out {
                    r[idx] = Self::power_residual(y[d], target[d]).unwrap_or(0.0);
                    idx += 1;
                }
            }
        }
        r
    }

    fn jacobian(&mut self, flat: &RVector, _r: &RVector) -> RMatrix {
        let model = self.model(flat);
        let (n_bs, n_ps) = self.arch.error_slots();
        let k_out = model.output_dim();
        let width = n_bs + 2 * n_ps;
        let rows = self.plan.residual_count(k_out);
        let mut jac = RMatrix::zeros(rows, width);
        // One item per (setting, input) block: its K rows of the Jacobian.
        let blocks: Vec<Mutex<&mut [f64]>> = jac
            .as_mut_slice()
            .chunks_mut((k_out * width).max(1))
            .map(Mutex::new)
            .collect();
        let inputs = self.plan.inputs.len();
        let worker = || {
            let gys = vec![CVector::zeros(k_out); k_out];
            (
                model.new_tape(),
                NetworkScratch::new(),
                CVector::zeros(k_out),
                gys,
            )
        };
        pool_for(&self.pool, rows, width).map_with(&blocks, worker, |work, b, block| {
            let (tape, scratch, y, gys) = work;
            let (theta, x) = (
                &self.plan.settings[b / inputs],
                &self.plan.inputs[b % inputs],
            );
            let target = &self.measured.powers[b / inputs][b % inputs];
            model.forward_tape_into(x, theta, scratch, y, tape);
            // ∂|y_d|²/∂Re(y), ∂/∂Im(y) = 2·(Re y_d, Im y_d) on port d.
            for (d, g) in gys.iter_mut().enumerate() {
                g.as_mut_slice().fill(C64::ZERO);
                g[d] = y[d].scale(2.0);
            }
            let mut rows = block
                .lock()
                .expect("each block is locked by one worker only");
            model.error_vjp(tape, theta, gys, &mut ErrorRows::new(&mut rows, n_bs, n_ps));
            for d in 0..k_out {
                if Self::power_residual(y[d], target[d]).is_none() {
                    rows[d * width..(d + 1) * width].fill(0.0);
                }
            }
        });
        drop(blocks);
        jac
    }
}

/// Shared fit body: damped Gauss-Newton on the power residuals, starting
/// from `init` (zeros for a cold calibration, the prior errors for an
/// incremental recalibration).
fn fit_measurements<C: OnnChip>(
    chip: &C,
    plan: &ProbePlan,
    measured: &Measurements,
    lm: &LmSettings,
    init: RVector,
) -> Result<CalibrationOutcome, CalibError> {
    let arch = chip.architecture();
    let mut problem = CalibrationProblem::new(arch, plan, measured);
    let fit = fit_least_squares(&mut problem, &init, lm)?;
    let (n_bs, n_ps) = arch.error_slots();
    let errors = ErrorVector::from_flat(n_bs, n_ps, fit.params.as_slice())
        .expect("length constructed to match");
    let model = arch.build_with_errors(&errors)?;
    Ok(CalibrationOutcome {
        errors,
        model,
        fit_cost: fit.cost,
        initial_cost: fit.initial_cost,
        iterations: fit.iterations,
        chip_queries: plan.query_cost(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::evaluate_model;
    use photon_photonics::{ideal_model, Architecture, ErrorModel, FabricatedChip};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calibration_improves_over_ideal_model() {
        let mut rng = StdRng::seed_from_u64(11);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(2.0), &mut rng);

        let settings = CalibrationSettings {
            random_inputs: 8,
            num_settings: 3,
            lm: LmSettings {
                max_iters: 12,
                ..LmSettings::default()
            },
            ..CalibrationSettings::default()
        };
        let outcome = calibrate(&chip, &settings, &mut rng).unwrap();
        assert!(outcome.fit_cost < outcome.initial_cost);

        // Held-out fidelity: calibrated model beats the ideal model.
        let ideal = ideal_model(&arch);
        let fid_ideal = evaluate_model(&chip, &ideal, 10, 2, &mut rng);
        let fid_calib = evaluate_model(&chip, &outcome.model, 10, 2, &mut rng);
        assert!(
            fid_calib.power > fid_ideal.power,
            "calibrated {} !> ideal {}",
            fid_calib.power,
            fid_ideal.power
        );
    }

    #[test]
    fn calibration_query_accounting() {
        let mut rng = StdRng::seed_from_u64(13);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        chip.reset_query_count();
        let settings = CalibrationSettings {
            random_inputs: 4,
            num_settings: 2,
            lm: LmSettings {
                max_iters: 3,
                ..LmSettings::default()
            },
            ..CalibrationSettings::default()
        };
        let outcome = calibrate(&chip, &settings, &mut rng).unwrap();
        // All chip queries come from the measurement sweep: (4 basis + 4
        // random) × 2 settings = 16; the Gauss-Newton fit is chip-free.
        assert_eq!(outcome.chip_queries, 16);
        assert_eq!(chip.query_count(), 16);
    }

    #[test]
    fn zero_error_chip_calibrates_to_near_zero_errors() {
        let mut rng = StdRng::seed_from_u64(17);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let chip = FabricatedChip::with_errors(&arch, &ErrorVector::zeros(n_bs, n_ps)).unwrap();
        let outcome = calibrate(&chip, &CalibrationSettings::default(), &mut rng).unwrap();
        // The residual at zero errors is already zero; LM stays there.
        assert!(outcome.fit_cost < 1e-15);
        let flat = outcome.errors.to_flat();
        assert!(flat.iter().all(|&e| e.abs() < 1e-6));
    }

    #[test]
    fn warm_start_recalibration_converges_faster_than_cold() {
        let mut rng = StdRng::seed_from_u64(29);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(2.0), &mut rng);
        // The prior is the chip's own oracle errors nudged slightly — the
        // situation after a short stretch of OU drift since the previous
        // calibration.
        let mut flat = chip.oracle_errors().to_flat();
        for (i, e) in flat.iter_mut().enumerate() {
            *e += 0.01 * (i as f64 * 0.7).sin();
        }
        let (n_bs, n_ps) = arch.error_slots();
        let prior = ErrorVector::from_flat(n_bs, n_ps, &flat).unwrap();
        let lm = LmSettings {
            max_iters: 12,
            ..LmSettings::default()
        };
        let plan = ProbePlan::for_chip(&chip, true, 6, 2, &mut rng);
        let measured = measure_chip(&chip, &plan);
        let cold = calibrate_from_measurements(&chip, &plan, &measured, &lm).unwrap();
        let warm = recalibrate_from_measurements(&chip, &plan, &measured, &lm, &prior).unwrap();
        assert!(
            warm.initial_cost < cold.initial_cost,
            "warm start must begin closer: warm {} vs cold {}",
            warm.initial_cost,
            cold.initial_cost
        );
        assert!(warm.fit_cost <= warm.initial_cost);
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn recalibrate_entry_point_spends_the_probe_budget() {
        let mut rng = StdRng::seed_from_u64(31);
        let arch = Architecture::single_mesh(4, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        chip.reset_query_count();
        let settings = CalibrationSettings {
            random_inputs: 2,
            num_settings: 2,
            lm: LmSettings {
                max_iters: 4,
                ..LmSettings::default()
            },
            ..CalibrationSettings::default()
        };
        let outcome = recalibrate(&chip, &chip.oracle_errors(), &settings, &mut rng).unwrap();
        assert_eq!(outcome.chip_queries, 12);
        assert_eq!(chip.query_count(), 12);
        // From the oracle prior the residual is already ~zero.
        assert!(outcome.initial_cost < 1e-12, "{}", outcome.initial_cost);
    }

    /// The K = 12 Table-1 fit: 60 probes (12 basis + 8 random inputs × 3
    /// settings) against the two-mesh classifier's 840 error parameters.
    fn k12_problem_parts() -> (Architecture, ProbePlan, Measurements) {
        let mut rng = StdRng::seed_from_u64(42);
        let arch = Architecture::two_mesh_classifier(12, 12).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let plan = ProbePlan::for_chip(&chip, true, 8, 3, &mut rng);
        let measured = measure_chip(&chip, &plan);
        (arch, plan, measured)
    }

    #[test]
    fn pool_threshold_splits_k12_and_keeps_k4_inline() {
        let default = CalibrationSettings::default();
        let entries = |k: usize| {
            let arch = Architecture::two_mesh_classifier(k, k).unwrap();
            let (n_bs, n_ps) = arch.error_slots();
            let probes = (k + default.random_inputs) * default.num_settings;
            probes * k * (n_bs + 2 * n_ps)
        };
        assert_eq!(entries(4), 144 * 88);
        assert!(entries(4) < crate::POOL_MIN_JACOBIAN_ENTRIES);
        assert_eq!(entries(12), 720 * 840);
        assert!(entries(12) >= crate::POOL_MIN_JACOBIAN_ENTRIES);
    }

    #[test]
    fn k12_fit_is_bitwise_identical_across_pools() {
        use crate::gauss_newton::fit_least_squares_on;
        let (arch, plan, measured) = k12_problem_parts();
        let (n_bs, n_ps) = arch.error_slots();
        let init = RVector::zeros(n_bs + 2 * n_ps);
        let lm = LmSettings {
            max_iters: 2,
            ..LmSettings::default()
        };
        let fit = |threads: usize| {
            let pool = ExecPool::new(threads);
            let mut problem =
                CalibrationProblem::new(&arch, &plan, &measured).with_pool(pool.clone());
            let jac = problem.jacobian(&init, &RVector::zeros(0));
            let fit = fit_least_squares_on(&pool, &mut problem, &init, &lm).unwrap();
            assert!(
                fit.cost < fit.initial_cost,
                "the fit must move at {threads} threads"
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (
                bits(jac.as_slice()),
                bits(fit.params.as_slice()),
                fit.cost.to_bits(),
                fit.iterations,
            )
        };
        let serial = fit(1);
        for threads in [2, 3, 8] {
            assert!(fit(threads) == serial, "fit differs at {threads} threads");
        }
    }

    #[test]
    fn budget_preset_scales() {
        let s = CalibrationSettings::with_query_budget(8, 128);
        assert!(s.num_settings >= 2);
        let sweep = (8 + s.random_inputs) * s.num_settings;
        assert!(sweep <= 160, "sweep {sweep} should be near budget");
    }

    #[test]
    fn error_display_chain() {
        let e = CalibError::from(LinalgError::Singular);
        assert!(e.to_string().contains("singular"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
