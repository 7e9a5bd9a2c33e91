//! Criterion kernels: calibration cost (measurement sweep + Gauss-Newton),
//! plus the dense f64 kernels behind the K=12 fit and CMA-ES, single
//! threaded: the 720×720 row Gram of a 720×840 Jacobian, the Cholesky
//! factorization of the damped 720×720 Gram, and the n = 300 symmetric
//! eigendecomposition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use photon_calib::{calibrate, measure_chip, CalibrationSettings, LmSettings, ProbePlan};
use photon_linalg::{symmetric_eig, RCholesky, RMatrix};
use photon_photonics::{Architecture, ErrorModel, FabricatedChip};

fn bench_measurement_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("measure");
    for k in [4usize, 8] {
        let mut rng = StdRng::seed_from_u64(11);
        let arch = Architecture::single_mesh(k, k).unwrap();
        let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
        let plan = ProbePlan::for_chip(&chip, true, 8, 3, &mut rng);
        group.bench_with_input(BenchmarkId::new("probe_sweep", k), &k, |b, _| {
            b.iter(|| measure_chip(&chip, std::hint::black_box(&plan)))
        });
    }
    group.finish();
}

fn bench_full_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibrate");
    group.sample_size(10);
    for k in [4usize, 6] {
        group.bench_with_input(BenchmarkId::new("lm_fit", k), &k, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(12);
                let arch = Architecture::single_mesh(k, 2).unwrap();
                let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
                let settings = CalibrationSettings {
                    random_inputs: 4,
                    num_settings: 2,
                    lm: LmSettings {
                        max_iters: 3,
                        ..LmSettings::default()
                    },
                    ..CalibrationSettings::default()
                };
                calibrate(&chip, &settings, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

/// A seeded dense matrix with entries uniform in `[-0.5, 0.5)`.
fn uniform(rows: usize, cols: usize, seed: u64) -> RMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    RMatrix::from_fn(rows, cols, |_, _| rng.gen::<f64>() - 0.5)
}

fn bench_dense_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibrate");
    group.sample_size(20);
    let jac = uniform(720, 840, 1);
    group.bench_function("row_gram_720x840", |b| {
        b.iter(|| std::hint::black_box(&jac).row_gram())
    });
    let mut damped = jac.row_gram();
    damped.add_diagonal(1e-3 * damped.trace().expect("square") / 720.0);
    group.bench_function("cholesky_720", |b| {
        b.iter(|| RCholesky::new(std::hint::black_box(&damped)).expect("damped Gram is SPD"))
    });
    let b = uniform(300, 300, 2);
    let sym = &b + &b.transpose();
    group.bench_function("symmetric_eig_300", |b| {
        b.iter(|| symmetric_eig(std::hint::black_box(&sym)).expect("symmetric input"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_measurement_sweep,
    bench_full_calibration,
    bench_dense_kernels
);
criterion_main!(benches);
