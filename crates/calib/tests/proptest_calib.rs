//! Property-based tests of the calibration stack.

use proptest::prelude::*;
use rand::SeedableRng;

use photon_calib::{
    calibrate, field_fidelity, levenberg_marquardt, measure_chip, power_fidelity,
    CalibrationProblem, CalibrationSettings, LeastSquares, LmSettings, Measurements, ProbePlan,
};
use photon_linalg::random::random_unit_cvector;
use photon_linalg::{CVector, RMatrix, RVector, C64};
use photon_photonics::{Architecture, ErrorModel, ErrorVector, FabricatedChip, ModuleSpec};

fn arb_cvec(n: usize) -> impl Strategy<Value = CVector> {
    proptest::collection::vec((-1.0..1.0f64, -1.0..1.0f64), n)
        .prop_map(|v| CVector::from_vec(v.into_iter().map(|(re, im)| C64::new(re, im)).collect()))
}

/// The architectures the calibration Jacobian must cover: single
/// Clements, Reck and PhaseDiag meshes, and the two-mesh classifier with
/// each activation.
fn jacobian_arch(kind: usize) -> Architecture {
    match kind {
        0 => Architecture::new(vec![ModuleSpec::Clements { dim: 4, layers: 3 }]),
        1 => Architecture::new(vec![ModuleSpec::Reck { dim: 4 }]),
        2 => Architecture::new(vec![ModuleSpec::PhaseDiag { dim: 3 }]),
        3 => Architecture::two_mesh_classifier(3, 3),
        _ => Architecture::two_mesh_eo_classifier(3, 3, 0.1, 0.8),
    }
    .unwrap()
}

/// A calibration problem on `arch` with random phase settings (every
/// parameter, activations included), basis plus random inputs, readings
/// from a chip with random errors, and a random fit point `x`.
fn jacobian_case(arch: &Architecture, seed: u64) -> (ProbePlan, Measurements, RVector) {
    use rand::Rng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (n_bs, n_ps) = arch.error_slots();
    let k = arch.input_dim();
    let model = ErrorModel::with_beta(2.0);
    let truth = arch
        .build_with_errors(&ErrorVector::sample(n_bs, n_ps, &model, &mut rng))
        .unwrap();
    let mut inputs: Vec<CVector> = (0..k).map(|i| CVector::basis(k, i)).collect();
    inputs.extend((0..3).map(|_| random_unit_cvector(k, &mut rng)));
    // Activation biases stay small and positive so no modReLU sits on its
    // kink; every phase is uniform on [0, 2π).
    let mut settings = Vec::new();
    for _ in 0..2 {
        let mut theta = RVector::zeros(arch.param_count());
        for (i, spec) in arch.specs().iter().enumerate() {
            let activation = matches!(
                spec,
                ModuleSpec::ModRelu { .. } | ModuleSpec::ElectroOptic { .. }
            );
            for j in truth.module_param_range(i) {
                theta[j] = if activation {
                    rng.gen::<f64>() * 0.3 + 0.05
                } else {
                    rng.gen::<f64>() * std::f64::consts::TAU
                };
            }
        }
        settings.push(theta);
    }
    let powers = settings
        .iter()
        .map(|theta| {
            inputs
                .iter()
                .map(|x| RVector::from_fn(k, |d| truth.forward(x, theta)[d].norm_sqr()))
                .collect()
        })
        .collect();
    let x = RVector::from_vec(ErrorVector::sample(n_bs, n_ps, &model, &mut rng).to_flat());
    (ProbePlan { inputs, settings }, Measurements { powers }, x)
}

/// Central-difference Jacobian of `problem` at `x`, step `h`: the oracle
/// the analytic Jacobian is checked against.
fn central_difference(problem: &mut CalibrationProblem<'_>, x: &RVector, h: f64) -> RMatrix {
    let m = problem.residual(x).len();
    let mut jac = RMatrix::zeros(m, x.len());
    for k in 0..x.len() {
        let mut xp = x.clone();
        xp[k] += h;
        let mut xm = x.clone();
        xm[k] -= h;
        let (rp, rm) = (problem.residual(&xp), problem.residual(&xm));
        for row in 0..m {
            jac[(row, k)] = (rp[row] - rm[row]) / (2.0 * h);
        }
    }
    jac
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The calibration fit's reverse-mode Jacobian agrees with central
    /// differences (h = 1e-6) to 1e-6 of its largest entry, column for
    /// column in the `ErrorVector::to_flat` layout.
    #[test]
    fn calibration_jacobian_matches_central_differences(kind in 0usize..5, seed in 0u64..1000) {
        let arch = jacobian_arch(kind);
        let (plan, measured, x) = jacobian_case(&arch, seed);
        let mut problem = CalibrationProblem::new(&arch, &plan, &measured);
        let r = problem.residual(&x);
        let jac = problem.jacobian(&x, &r);
        let oracle = central_difference(&mut problem, &x, 1e-6);
        let scale = jac.max_abs();
        prop_assert!(scale > 0.0);
        let err = (&jac - &oracle).max_abs();
        prop_assert!(err <= 1e-6 * scale, "{}: |J − J_fd| = {err:e}, max|J| = {scale:e}", arch.specs().len());
    }

    /// A non-finite reading zeroes its residual entry and its whole
    /// Jacobian row; every other row is untouched.
    #[test]
    fn nan_measurement_zeroes_its_jacobian_row(kind in 0usize..5, seed in 0u64..1000) {
        let arch = jacobian_arch(kind);
        let (plan, mut measured, x) = jacobian_case(&arch, seed);
        let k = arch.output_dim();
        let clean = {
            let mut problem = CalibrationProblem::new(&arch, &plan, &measured);
            let r = problem.residual(&x);
            problem.jacobian(&x, &r)
        };
        let (s, p, d) = (1, 2, k - 1);
        measured.powers[s][p][d] = f64::NAN;
        let mut problem = CalibrationProblem::new(&arch, &plan, &measured);
        let r = problem.residual(&x);
        let jac = problem.jacobian(&x, &r);
        let row = (s * plan.inputs.len() + p) * k + d;
        prop_assert_eq!(r[row], 0.0);
        prop_assert!(jac.row(row).iter().all(|&v| v == 0.0));
        for i in (0..jac.rows()).filter(|&i| i != row) {
            prop_assert_eq!(jac.row(i), clean.row(i));
        }
    }

    /// Fidelities are symmetric-ish bounded scores in [0, 1], equal to 1 on
    /// identical fields and invariant to global phase.
    #[test]
    fn fidelity_bounds_and_phase_invariance(
        y in arb_cvec(4),
        phase in 0.0..std::f64::consts::TAU,
    ) {
        prop_assume!(y.norm() > 0.1);
        let rotated = y.scale(C64::cis(phase));
        prop_assert!((field_fidelity(&y, &rotated) - 1.0).abs() < 1e-9);
        prop_assert!((power_fidelity(&y, &rotated) - 1.0).abs() < 1e-9);
        let other = CVector::basis(4, 0);
        let f = field_fidelity(&y, &other);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&f));
        let p = power_fidelity(&y, &other);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    /// LM never increases the cost relative to the starting point.
    #[test]
    fn lm_cost_never_increases(
        target in proptest::collection::vec(-2.0..2.0f64, 3),
        start in proptest::collection::vec(-2.0..2.0f64, 3),
    ) {
        let t = target.clone();
        let mut residual = move |p: &RVector| {
            RVector::from_fn(3, |i| (p[i] - t[i]) * (1.0 + 0.3 * p[i] * p[i]))
        };
        let fit = levenberg_marquardt(
            &mut residual,
            &RVector::from_slice(&start),
            &LmSettings { max_iters: 10, ..LmSettings::default() },
        ).unwrap();
        prop_assert!(fit.cost <= fit.initial_cost + 1e-12);
        prop_assert!(fit.params.iter().all(|v| v.is_finite()));
    }

    /// Probe plans cost exactly inputs × settings queries, for any shape.
    #[test]
    fn plan_query_cost(
        seed in 0u64..300,
        random_inputs in 1usize..6,
        num_settings in 1usize..4,
        include_basis in any::<bool>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(3, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let plan = ProbePlan::for_chip(&chip, include_basis, random_inputs, num_settings, &mut rng);
        let expected_inputs = random_inputs + if include_basis { 3 } else { 0 };
        prop_assert_eq!(plan.query_cost(), expected_inputs * num_settings);
        chip.reset_query_count();
        let _ = measure_chip(&chip, &plan);
        prop_assert_eq!(chip.query_count() as usize, plan.query_cost());
    }

    /// Calibrating a chip whose errors are *zero* always returns near-zero
    /// fit cost (the model family contains the truth).
    #[test]
    fn zero_error_chip_fits_exactly(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(3, 2).unwrap();
        let (n_bs, n_ps) = arch.error_slots();
        let chip = FabricatedChip::with_errors(&arch, &ErrorVector::zeros(n_bs, n_ps)).unwrap();
        let settings = CalibrationSettings {
            random_inputs: 3,
            num_settings: 2,
            lm: LmSettings { max_iters: 4, ..LmSettings::default() },
            ..CalibrationSettings::default()
        };
        let out = calibrate(&chip, &settings, &mut rng).unwrap();
        prop_assert!(out.fit_cost < 1e-12, "cost {}", out.fit_cost);
    }

    /// Calibration's fit cost never exceeds the ideal-model residual (LM
    /// starts from zero errors and only improves).
    #[test]
    fn calibration_cost_monotone(seed in 0u64..100, beta in 0.5..3.0f64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let arch = Architecture::single_mesh(3, 2).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(beta), &mut rng);
        let settings = CalibrationSettings {
            random_inputs: 4,
            num_settings: 2,
            lm: LmSettings { max_iters: 5, ..LmSettings::default() },
            ..CalibrationSettings::default()
        };
        let out = calibrate(&chip, &settings, &mut rng).unwrap();
        prop_assert!(out.fit_cost <= out.initial_cost + 1e-12);
    }
}
