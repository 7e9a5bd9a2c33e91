//! The four workloads: set-up (untimed as work, timed as `setup_s`) and
//! the timed work, each generic over the chip so the same code runs on the
//! bare chip and on the [`TimedChip`] decorator.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use photon_zo::calib::{
    calibrate_from_measurements, measure_chip, power_fidelity, CalibrationOutcome,
    CalibrationSettings, LmSettings, ProbePlan,
};
use photon_zo::core::{
    build_task, epoch_seed, evaluate_chip_pooled, ClassificationHead, JournalHeader, Method,
    ModelChoice, RunJournal, TaskInstance, TaskKind, TaskSpec, TrainConfig, Trainer,
};
use photon_zo::data::Dataset;
use photon_zo::exec::ExecPool;
use photon_zo::farm::{run_online, CoalescePolicy, OnlineOptions};
use photon_zo::faults::{DriftConfig, FaultPlan, FaultyChip};
use photon_zo::linalg::random::random_unit_cvector;
use photon_zo::linalg::RVector;
use photon_zo::photonics::{
    ideal_model, Architecture, ErrorModel, ErrorVector, FabricatedChip, Network, OnnChip,
};
use photon_zo::sim::{run_on_chip, ArrivalProcess, RecalTraffic, SimConfig, TenantLoad};
use photon_zo::trace::TraceEvent;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::chip::TimedChip;
use crate::record::{Outcome, Recorder};
use crate::{streams, Arm, Phase};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's quick Table-1 cell: calibrate, warm start, seven arms.
    Table1K12,
    /// The paper's ZO loop at K=24: four arms, no calibration, no CMA.
    FinetuneK24,
    /// `run_online` on a drifting chip with sliced, journaled shadow runs.
    OnlineRecal,
    /// Open-loop chip-backed serving through the discrete-event simulator.
    ServeSim,
}

/// Where and how a repetition runs.
#[derive(Debug, Clone)]
pub struct Env {
    /// The workload seed.
    pub seed: u64,
    /// Worker-pool threads for training and evaluation.
    pub threads: usize,
    /// Scratch directory for journals (inside the checkout).
    pub work_dir: PathBuf,
}

/// The state a workload's set-up builds.
#[derive(Debug)]
pub enum Setup {
    /// A fabricated chip with its dataset.
    Task(TaskInstance),
    /// A drifting live chip and the theta deployed on it before drift.
    Online(Box<OnlineSetup>),
    /// A pinned serving chip.
    Serve(FabricatedChip),
}

/// Set-up of `online-recal`.
#[derive(Debug)]
pub struct OnlineSetup {
    /// The live chip, drifting from step 0.
    pub chip: FaultyChip<FabricatedChip>,
    /// Training split for the shadow runs.
    pub train: Dataset,
    /// Test split for canaries and the final evaluation.
    pub test: Dataset,
    /// Readout head.
    pub head: ClassificationHead,
    /// Theta trained before the drift.
    pub deployed: RVector,
}

/// Arms of `table1-k12`: the paper's black-box block.
pub const TABLE1_ARMS: [Arm; 7] = [
    Arm::ZoI,
    Arm::ZoCo,
    Arm::ZoLc,
    Arm::ZoNgIdeal,
    Arm::LcngIdeal,
    Arm::LcngCalib,
    Arm::Cma,
];

/// Arms of `finetune-k24`.
pub const FINETUNE_ARMS: [Arm; 4] = [Arm::ZoI, Arm::ZoCo, Arm::LcngIdeal, Arm::LcngOracle];

/// Online cycles per repetition.
pub const ONLINE_CYCLES: usize = 150;
/// Shadow fine-tune epochs per cycle.
pub const ONLINE_SHADOW_EPOCHS: usize = 10;
/// Shadow epochs per slice; each slice after the first resumes from the
/// shadow journal.
pub const ONLINE_EPOCH_BUDGET: usize = 3;
/// Virtual serving window, ns.
pub const SERVE_WINDOW_NS: u64 = 10_000_000_000;

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Table1K12,
        Workload::FinetuneK24,
        Workload::OnlineRecal,
        Workload::ServeSim,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1K12 => "table1-k12",
            Workload::FinetuneK24 => "finetune-k24",
            Workload::OnlineRecal => "online-recal",
            Workload::ServeSim => "serve-sim",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's inputs from the seed. Returns the state and
    /// the nanoseconds `build_task` (or fabrication) took.
    ///
    /// # Errors
    ///
    /// A message when the program rejects the inputs.
    pub fn setup(self, env: &Env) -> Result<(Setup, f64), String> {
        let task_seed = epoch_seed(env.seed, streams::TASK);
        let start = Instant::now();
        match self {
            Workload::Table1K12 | Workload::FinetuneK24 => {
                let task = build_task(&self.task_spec(), task_seed).map_err(|e| e.to_string())?;
                Ok((Setup::Task(task), ns_since(start)))
            }
            Workload::OnlineRecal => {
                let task = build_task(&TaskSpec::quick(4), task_seed).map_err(|e| e.to_string())?;
                let build_ns = ns_since(start);
                Ok((Setup::Online(Box::new(online_setup(task, env)?)), build_ns))
            }
            Workload::ServeSim => {
                let mut rng = StdRng::seed_from_u64(task_seed);
                let arch = Architecture::single_mesh(8, 8).map_err(|e| e.to_string())?;
                let chip = FabricatedChip::fabricate(&arch, &ErrorModel::with_beta(1.0), &mut rng);
                let build_ns = ns_since(start);
                let theta = chip.init_params(&mut rng);
                chip.pin_compile_base(&theta);
                Ok((Setup::Serve(chip), build_ns))
            }
        }
    }

    /// Worker-pool threads: 2 for the fine-tune cells (at most the host's
    /// 2 cores, and fixed so results do not depend on the host), 1 for
    /// `online-recal`, whose K=4 work is too small to split (the
    /// `online_recal` example's default). `serve-sim` is single-threaded.
    pub fn threads(self) -> usize {
        match self {
            Workload::Table1K12 | Workload::FinetuneK24 => 2,
            Workload::OnlineRecal | Workload::ServeSim => 1,
        }
    }

    /// Runs the timed work once on `setup`, with the bare chip or, when
    /// `rec` is traced, the timing decorator.
    pub fn execute(self, setup: &Setup, env: &Env, rec: &mut Recorder) -> Outcome {
        let clock = rec.clock();
        let mut out = match (self, setup, &clock) {
            (Workload::Table1K12 | Workload::FinetuneK24, Setup::Task(task), None) => {
                self.cell(&task.chip, task, env, rec)
            }
            (Workload::Table1K12 | Workload::FinetuneK24, Setup::Task(task), Some(c)) => {
                self.cell(&TimedChip::new(&task.chip, c.clone()), task, env, rec)
            }
            (Workload::OnlineRecal, Setup::Online(s), None) => online(&s.chip, s, env, rec),
            (Workload::OnlineRecal, Setup::Online(s), Some(c)) => {
                online(&TimedChip::new(&s.chip, c.clone()), s, env, rec)
            }
            (Workload::ServeSim, Setup::Serve(chip), _) => return serve(chip, env, rec),
            _ => panic!("set-up does not belong to workload {}", self.name()),
        };
        // The decorator must have seen every query the chip counted.
        if let Some(c) = clock {
            let (seen, counted) = (c.total_queries(), out.chip_queries);
            out.check(seen == counted, || {
                format!("decorator counted {seen} queries, chip {counted}")
            });
        }
        out
    }

    fn task_spec(self) -> TaskSpec {
        match self {
            Workload::FinetuneK24 => TaskSpec {
                train_size: 600,
                test_size: 300,
                ..TaskSpec::image(TaskKind::FashionLike, 24)
            },
            _ => TaskSpec {
                train_size: 200,
                test_size: 100,
                ..TaskSpec::image(TaskKind::MnistLike, 12)
            },
        }
    }

    /// The training configuration of a fine-tune cell.
    pub fn train_config(self, rec: &Recorder, threads: usize) -> TrainConfig {
        let k = self.task_spec().k;
        let mut config = TrainConfig::for_network(0, k);
        config.warm_epochs = 3;
        (config.epochs, config.batch_size) = match self {
            Workload::Table1K12 => (6, 25),
            _ => (20, 100),
        };
        config.threads = Some(threads);
        config.trace = rec.trace();
        config
    }

    /// One fine-tune cell: optional calibration, one warm start and its
    /// evaluation, then every arm from the shared θ₀.
    fn cell<C: OnnChip>(
        self,
        chip: &C,
        task: &TaskInstance,
        env: &Env,
        rec: &mut Recorder,
    ) -> Outcome {
        let (arms, calibrates): (&[Arm], bool) = match self {
            Workload::Table1K12 => (&TABLE1_ARMS, true),
            _ => (&FINETUNE_ARMS, false),
        };
        let mut out = Outcome::default();
        let config = self.train_config(rec, env.threads);
        let pool = ExecPool::with_threads(Some(env.threads));
        let test_len = task.test.len() as u64;
        let chance = 1.0 / task.test.num_classes() as f64;
        let cache_start = chip.cache_stats();
        let q_start = chip.query_count();
        let start = Instant::now();

        let calibrated = if calibrates {
            match calibrate(chip, env.seed, rec, &mut out) {
                Ok(c) => Some(c),
                Err(e) => {
                    out.check(false, || format!("calibration failed: {e}"));
                    None
                }
            }
        } else {
            None
        };
        let mut trainer = Trainer::new(chip, &task.train, &task.test, task.head);
        if let Some(c) = &calibrated {
            trainer = trainer.with_calibrated_model(c.model.clone());
        }

        let mut rng = StdRng::seed_from_u64(epoch_seed(env.seed, streams::WARM_START));
        let theta0 = rec.time("core.warm_start_ns", || {
            trainer.warm_start(&config, &mut rng)
        });
        rec.phase(Phase::Eval);
        let q = chip.query_count();
        let warm = rec.time("core.eval_ns", || {
            evaluate_chip_pooled(chip, &task.test, &task.head, &theta0, &pool)
        });
        let eval_queries = chip.query_count() - q;
        rec.add("core.eval_queries", eval_queries as f64);
        out.check(eval_queries == test_len, || {
            format!("warm-start evaluation spent {eval_queries} queries for {test_len} samples")
        });
        out.mix(warm.accuracy.to_bits());

        let mut accs = Vec::new();
        for &arm in arms {
            out.attempted += 1;
            if arm == Arm::LcngCalib && calibrated.is_none() {
                out.failed += 1;
                continue;
            }
            rec.phase(Phase::Arm(arm));
            let mut theta = theta0.clone();
            let mut rng = StdRng::seed_from_u64(epoch_seed(env.seed, arm.stream()));
            let before = chip.query_count();
            let result = rec.time(&format!("core.finetune_ns.{}", arm.name()), || {
                trainer.finetune(arm.method(), &config, &mut theta, &mut rng)
            });
            let spent = chip.query_count() - before;
            let name = arm.name();
            match result {
                Ok(o) => {
                    let acc = o.final_eval.accuracy;
                    let finite = acc.is_finite()
                        && o.final_eval.loss.is_finite()
                        && theta.iter().all(|v| v.is_finite());
                    if !finite {
                        out.failed += 1;
                    }
                    out.check(finite, || format!("{name}: non-finite result"));
                    out.check(acc > chance, || {
                        format!("{name}: accuracy {acc} is not above chance {chance}")
                    });
                    // The ledger's training spend plus the final evaluation
                    // must account for every query the chip counted.
                    out.check(spent == o.training_queries + test_len, || {
                        format!(
                            "{name}: chip counted {spent} queries, ledger {} + eval {test_len}",
                            o.training_queries
                        )
                    });
                    accs.push(acc);
                    out.mix(acc.to_bits());
                    out.mix(spent);
                    out.mix_all(theta.as_slice());
                }
                Err(e) => {
                    out.failed += 1;
                    out.check(false, || format!("{name}: {e}"));
                }
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out.chip_queries = chip.query_count() - q_start;
        if !accs.is_empty() {
            out.acc_mean = Some(accs.iter().sum::<f64>() / accs.len() as f64);
        }

        // Checks after the timed work: they spend no chip queries.
        if let Some(c) = &calibrated {
            let fidelity = held_out_fidelity(chip, &c.model, env.seed);
            let ideal = held_out_fidelity(chip, &ideal_model(chip.architecture()), env.seed);
            // Known defect of this cell, reported rather than failed: 60
            // probe queries constrain 840 error parameters, and on some
            // seeds the LM fit, capped at 10 iterations, ends in a model
            // worse than the ideal one (README.md, "Known defect").
            if fidelity.is_finite() && fidelity <= ideal {
                out.notes.push(format!(
                    "calibrated fidelity {fidelity:.4} does not beat the ideal model's {ideal:.4}"
                ));
            }
            out.check(fidelity.is_finite() && fidelity > 0.0, || {
                format!("calibrated fidelity {fidelity} is not a positive number")
            });
            out.calib_fidelity = Some(fidelity);
            rec.set("calib.fidelity", fidelity);
            rec.set("calib.fidelity_ideal", ideal);
        }
        ledger_check(rec, &mut out);
        rec.cache(chip.cache_stats().since(cache_start));
        out
    }
}

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// The quick Table-1 calibration: default probe plan, LM capped at 10
/// iterations.
fn calibration_settings() -> CalibrationSettings {
    CalibrationSettings {
        lm: LmSettings {
            max_iters: 10,
            ..LmSettings::default()
        },
        ..CalibrationSettings::default()
    }
}

/// `calibrate`, split into its three public pieces so each is timed.
fn calibrate<C: OnnChip>(
    chip: &C,
    seed: u64,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<CalibrationOutcome, String> {
    let s = calibration_settings();
    let mut rng = StdRng::seed_from_u64(epoch_seed(seed, streams::CALIB));
    rec.phase(Phase::Calib);
    let before = chip.query_count();
    let (plan, measured) = rec.time("calib.probe_ns", || {
        let plan = ProbePlan::for_chip(
            chip,
            s.include_basis,
            s.random_inputs,
            s.num_settings,
            &mut rng,
        );
        let measured = measure_chip(chip, &plan);
        (plan, measured)
    });
    let spent = chip.query_count() - before;
    let cost = plan.query_cost() as u64;
    out.check(spent == cost, || {
        format!("probe sweep spent {spent} queries for a plan of {cost}")
    });
    let fit = rec.time("calib.fit_ns", || {
        calibrate_from_measurements(chip, &plan, &measured, &s.lm)
    });
    let fit = fit.map_err(|e| e.to_string())?;
    out.check(fit.fit_cost < fit.initial_cost, || {
        format!(
            "LM fit did not lower the cost: {} -> {}",
            fit.initial_cost, fit.fit_cost
        )
    });
    rec.set("calib.probe_queries", spent as f64);
    rec.set("calib.fit_iters", fit.iterations as f64);
    rec.set("calib.cost_ratio", fit.fit_cost / fit.initial_cost);
    out.mix(fit.fit_cost.to_bits());
    Ok(fit)
}

/// Mean power fidelity of `model` against the chip's true network, on
/// inputs and phase settings drawn from their own stream (so none is in
/// the probe plan). Pure software: spends no chip query.
fn held_out_fidelity<C: OnnChip>(chip: &C, model: &Network, seed: u64) -> f64 {
    const SETTINGS: usize = 4;
    const INPUTS: usize = 16;
    let oracle = chip.oracle_network();
    let mut rng = StdRng::seed_from_u64(epoch_seed(seed, streams::FIDELITY));
    let mut total = 0.0;
    for _ in 0..SETTINGS {
        let theta = oracle.init_params(&mut rng);
        for _ in 0..INPUTS {
            let x = random_unit_cvector(chip.input_dim(), &mut rng);
            total += power_fidelity(&model.forward(&x, &theta), &oracle.forward(&x, &theta));
        }
    }
    total / (SETTINGS * INPUTS) as f64
}

/// In a traced repetition, every query the trainer ledgered (its
/// `QueryLedger` events) must also have been counted by the decorator.
fn ledger_check(rec: &Recorder, out: &mut Outcome) {
    let Some(clock) = rec.clock() else { return };
    let ledgered: u64 = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::QueryLedger { queries, .. } => Some(*queries),
            _ => None,
        })
        .sum();
    let arms: u64 = Arm::ALL
        .iter()
        .map(|&a| clock.stats(Phase::Arm(a)).queries)
        .sum();
    out.check(ledgered == arms, || {
        format!("trace ledger {ledgered} != decorator count {arms} over the arms")
    });
}

fn online_setup(task: TaskInstance, env: &Env) -> Result<OnlineSetup, String> {
    // The deployment story of the `online_recal` example: theta trained on
    // the just-fabricated chip with the oracle model, then left serving
    // while the chip drifts.
    let mut config = TrainConfig::quick(4);
    config.epochs = 6;
    config.threads = Some(env.threads);
    let mut rng = StdRng::seed_from_u64(epoch_seed(env.seed, streams::DEPLOY));
    let deployed = Trainer::new(&task.chip, &task.train, &task.test, task.head)
        .with_calibrated_model(task.chip.oracle_network())
        .train(
            Method::Lcng {
                model: ModelChoice::Calibrated,
            },
            &config,
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
    let plan = FaultPlan::new(epoch_seed(env.seed, streams::DRIFT)).with_drift(DriftConfig {
        sigma: 0.05,
        tau: 20.0,
    });
    Ok(OnlineSetup {
        chip: FaultyChip::new(task.chip, plan),
        train: task.train,
        test: task.test,
        head: task.head,
        deployed: deployed.theta,
    })
}

/// The controller options of `online-recal`.
pub fn online_options(env: &Env, rec: &Recorder) -> OnlineOptions {
    let mut shadow = TrainConfig::quick(4);
    shadow.epochs = ONLINE_SHADOW_EPOCHS;
    shadow.threads = Some(env.threads);
    shadow.trace = rec.trace();
    OnlineOptions::new(ONLINE_CYCLES, epoch_seed(env.seed, streams::ONLINE), shadow)
        .with_canary(8, 0.05)
        .with_canary_batch(5)
        .with_epoch_budget(ONLINE_EPOCH_BUDGET)
        .with_trace(rec.trace())
}

fn online<C: OnnChip>(chip: &C, s: &OnlineSetup, env: &Env, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let dir = env.work_dir.join("online");
    // A leftover journal would resume instead of run.
    let _ = fs::remove_dir_all(&dir);
    let opts = online_options(env, rec);
    let (n_bs, n_ps) = chip.architecture().error_slots();
    let cache_start = chip.cache_stats();
    let q_start = chip.query_count();
    rec.phase(Phase::Online);
    let start = Instant::now();
    let result = rec.time("farm.online_ns", || {
        run_online(
            chip,
            &s.train,
            &s.test,
            s.head,
            &s.deployed,
            &ErrorVector::zeros(n_bs, n_ps),
            &opts,
            &dir,
        )
    });
    out.wall_s = start.elapsed().as_secs_f64();
    out.chip_queries = chip.query_count() - q_start;
    out.attempted = opts.cycles as u64;
    rec.cache(chip.cache_stats().since(cache_start));
    match result {
        Ok(o) => {
            let cycles = o.cycles.len() as u64;
            let planned = out.attempted;
            out.check(
                cycles == planned && o.promotions + o.rollbacks == cycles,
                || {
                    format!(
                        "{cycles} of {planned} cycles ended, {} promoted + {} rolled back",
                        o.promotions, o.rollbacks
                    )
                },
            );
            out.failed = out.attempted.saturating_sub(cycles);
            let acc = o.final_eval.accuracy;
            let chance = 1.0 / s.test.num_classes() as f64;
            out.check(acc.is_finite() && acc > chance, || {
                format!("online deployment accuracy {acc} is not above chance {chance}")
            });
            out.acc_mean = Some(acc);
            out.mix(acc.to_bits());
            out.mix(o.promotions);
            out.mix_all(o.deployed.as_slice());
            out.mix(out.chip_queries);
            rec.set("farm.cycles", cycles as f64);
            rec.set("farm.promotions", o.promotions as f64);
            rec.set("farm.rollbacks", o.rollbacks as f64);
            let test_len = s.test.len() as u64;
            let probe = &opts.probe;
            let probe_cost = ((if probe.include_basis {
                chip.input_dim()
            } else {
                0
            } + probe.random_inputs)
                * probe.num_settings) as u64;
            let canary = (opts.canary_samples * opts.canary_batch).min(s.test.len()) as u64;
            match journal_queries(&dir, cycles, rec) {
                Ok(shadow) => {
                    // Probe sweeps, shadow runs (their journaled ledgers
                    // plus each run's final evaluation), both canary arms
                    // and the final evaluation.
                    let expected =
                        cycles * (probe_cost + test_len + 2 * canary) + shadow + test_len;
                    let counted = out.chip_queries;
                    out.check(expected == counted, || {
                        format!("online ledger {expected} != chip query count {counted}")
                    });
                }
                Err(e) => out.check(false, || format!("shadow journals: {e}")),
            }
            if rec.is_traced() {
                let resumes = rec
                    .events()
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::Resume { .. }))
                    .count();
                rec.set("core.journal_resumes", resumes as f64);
                if let Err(e) = rewrite_journals(&dir, cycles, rec) {
                    out.check(false, || format!("journal rewrite: {e}"));
                }
            }
        }
        Err(e) => {
            out.failed = out.attempted;
            out.check(false, || format!("run_online: {e}"));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    out
}

fn shadow_path(dir: &Path, cycle: u64) -> PathBuf {
    dir.join(format!("shadow-{cycle}.journal"))
}

/// Replays every shadow journal and returns the chip queries their
/// ledgers record. A traced repetition times the replays.
fn journal_queries(dir: &Path, cycles: u64, rec: &mut Recorder) -> Result<u64, String> {
    let mut total = 0;
    let mut records = 0;
    for cycle in 1..=cycles {
        let path = shadow_path(dir, cycle);
        let replay = rec
            .time_aside("core.journal_replay_ns", || RunJournal::replay(&path))
            .map_err(|e| e.to_string())?;
        records += replay.entries.len();
        total += replay.entries.last().map_or(0, |e| e.state.ledger.total());
    }
    rec.set("core.journal_records", records as f64);
    Ok(total)
}

/// Writes every shadow journal's entries again through `create` and
/// `append_epoch` into a scratch journal, timing the writes.
fn rewrite_journals(dir: &Path, cycles: u64, rec: &mut Recorder) -> Result<(), String> {
    let scratch = dir.join("rewrite.journal");
    let mut bytes = 0;
    for cycle in 1..=cycles {
        let replay = RunJournal::replay(&shadow_path(dir, cycle)).map_err(|e| e.to_string())?;
        let header: JournalHeader = replay.header;
        let mut journal = rec
            .time_aside("core.journal_append_ns", || {
                RunJournal::create(&scratch, &header)
            })
            .map_err(|e| e.to_string())?;
        for entry in &replay.entries {
            bytes += rec
                .time_aside("core.journal_append_ns", || journal.append_epoch(entry))
                .map_err(|e| e.to_string())?;
        }
    }
    rec.set("core.journal_bytes", bytes as f64);
    Ok(())
}

/// The simulator configuration of `serve-sim`.
fn serve_config(seed: u64) -> SimConfig {
    SimConfig::new(epoch_seed(seed, streams::SERVE), SERVE_WINDOW_NS)
        .with_label("serve-sim")
        .with_workers(2)
        .with_coalescer(CoalescePolicy::new(16, 100_000))
        .with_tenant(
            TenantLoad::new("steady", ArrivalProcess::Poisson { rate_hz: 250_000.0 })
                .with_queue_cap(1024),
        )
        .with_tenant(
            TenantLoad::new(
                "bursty",
                ArrivalProcess::Bursty {
                    on_rate_hz: 400_000.0,
                    off_rate_hz: 10_000.0,
                    mean_on_ns: 3_000_000.0,
                    mean_off_ns: 4_000_000.0,
                },
            )
            .with_queue_cap(1024),
        )
        .with_recalibration(RecalTraffic {
            start_ns: 5_000_000,
            period_ns: 10_000_000,
        })
}

fn serve(chip: &FabricatedChip, env: &Env, rec: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let cfg = serve_config(env.seed);
    let cache_start = chip.cache_stats();
    let q_start = chip.query_count();
    let start = Instant::now();
    let report = rec.time("sim.run_on_chip_ns", || run_on_chip(&cfg, chip));
    out.wall_s = start.elapsed().as_secs_f64();
    out.chip_queries = chip.query_count() - q_start;
    let agg = &report.aggregate;
    out.attempted = agg.arrivals;
    out.failed = agg.shed + agg.expired;
    for row in report.tenants.iter().chain(std::iter::once(agg)) {
        out.check(
            row.arrivals == row.completed + row.shed + row.expired,
            || {
                format!(
                    "tenant {}: {} arrivals != {} completed + {} shed + {} expired",
                    row.tenant, row.arrivals, row.completed, row.shed, row.expired
                )
            },
        );
    }
    let counted = out.chip_queries;
    out.check(
        counted == agg.completed && report.chip_queries == Some(agg.completed),
        || {
            format!(
                "chip counted {counted} queries for {} completions",
                agg.completed
            )
        },
    );
    out.serve_req_per_s = Some(agg.completed as f64 / out.wall_s);
    out.serve_p99_us = Some(agg.p99_ns / 1e3);
    out.mix(agg.completed);
    out.mix(agg.p99_ns.to_bits());
    out.mix(report.batches);
    rec.set("sim.dispatches", report.batches as f64);
    rec.set("sim.mean_batch", report.mean_batch);
    let peak = report.tenants.iter().map(|t| t.peak_queue_depth).max();
    rec.set("sim.peak_queue", peak.unwrap_or(0) as f64);
    rec.cache(chip.cache_stats().since(cache_start));
    if rec.is_traced() {
        // The same simulation without a chip: the event loop alone.
        let model_only = rec.time_aside("sim.event_loop_ns", || photon_zo::sim::run(&cfg));
        out.check(model_only.aggregate == report.aggregate, || {
            "the model-only run's virtual timeline differs from the chip-backed run's".into()
        });
        let serve_ns = rec.get("sim.run_on_chip_ns") - rec.get("sim.event_loop_ns");
        rec.set("sim.serve_ns", serve_ns);
    }
    out
}
