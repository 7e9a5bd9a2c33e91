//! The timing decorator must not change what it measures: a decorated
//! `table1-k12` arm and a decorated `online-recal` cycle give bitwise the
//! same theta, accuracy and query count as the bare chip.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use photon_perfbench::chip::{ChipClock, TimedChip};
use photon_perfbench::record::Recorder;
use photon_perfbench::workloads::{online_options, Env, Setup, Workload};
use photon_perfbench::{streams, Arm, Phase};
use photon_zo::core::{epoch_seed, TaskInstance, Trainer};
use photon_zo::farm::run_online;
use photon_zo::linalg::RVector;
use photon_zo::photonics::{ErrorVector, OnnChip};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env(name: &str) -> Env {
    Env {
        seed: 7,
        threads: 2,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    }
}

fn bits(theta: &RVector) -> Vec<u64> {
    theta.iter().map(|v| v.to_bits()).collect()
}

/// Runs `arm` of the table1-k12 cell from its warm start; returns theta,
/// accuracy bits and the queries the chip counted.
fn table1_arm<C: OnnChip>(
    chip: &C,
    task: &TaskInstance,
    env: &Env,
    arm: Arm,
) -> (Vec<u64>, u64, u64) {
    let config = Workload::Table1K12.train_config(&Recorder::bare(), env.threads);
    let trainer = Trainer::new(chip, &task.train, &task.test, task.head);
    let mut rng = StdRng::seed_from_u64(epoch_seed(env.seed, streams::WARM_START));
    let mut theta = trainer.warm_start(&config, &mut rng);
    let mut rng = StdRng::seed_from_u64(epoch_seed(env.seed, arm.stream()));
    let before = chip.query_count();
    let out = trainer
        .finetune(arm.method(), &config, &mut theta, &mut rng)
        .expect("fine-tune");
    (
        bits(&theta),
        out.final_eval.accuracy.to_bits(),
        chip.query_count() - before,
    )
}

#[test]
fn decorated_table1_arms_match_the_bare_chip() {
    let env = env("table1");
    let (Setup::Task(task), _) = Workload::Table1K12.setup(&env).expect("set-up") else {
        panic!("table1-k12 builds a task");
    };
    let clock = Arc::new(ChipClock::default());
    let timed = TimedChip::new(&task.chip, clock.clone());
    // ZO-co exercises the pinned incremental path, ZO-LCNG the metric.
    for arm in [Arm::ZoCo, Arm::LcngIdeal] {
        clock.set_phase(Phase::Arm(arm));
        let bare = table1_arm(&task.chip, &task, &env, arm);
        let decorated = table1_arm(&timed, &task, &env, arm);
        assert_eq!(
            bare, decorated,
            "{arm:?}: theta, accuracy or queries differ"
        );
        let stats = clock.stats(Phase::Arm(arm));
        assert_eq!(stats.queries, decorated.2, "{arm:?}: decorator query count");
        assert!(stats.calls > 0 && stats.busy_ns > 0);
    }
}

#[test]
fn decorated_online_cycle_matches_the_bare_chip() {
    let env = env("online");
    let run = |decorate: bool| {
        let (Setup::Online(s), _) = Workload::OnlineRecal.setup(&env).expect("set-up") else {
            panic!("online-recal builds an online set-up");
        };
        let mut opts = online_options(&env, &Recorder::bare());
        opts.cycles = 1;
        let dir = env
            .work_dir
            .join(if decorate { "decorated" } else { "bare" });
        let _ = std::fs::remove_dir_all(&dir);
        let (n_bs, n_ps) = s.chip.architecture().error_slots();
        let zeros = ErrorVector::zeros(n_bs, n_ps);
        let before = s.chip.query_count();
        let clock = Arc::new(ChipClock::default());
        clock.set_phase(Phase::Online);
        let out = if decorate {
            let timed = TimedChip::new(&s.chip, clock.clone());
            run_online(
                &timed,
                &s.train,
                &s.test,
                s.head,
                &s.deployed,
                &zeros,
                &opts,
                &dir,
            )
        } else {
            run_online(
                &s.chip,
                &s.train,
                &s.test,
                s.head,
                &s.deployed,
                &zeros,
                &opts,
                &dir,
            )
        }
        .expect("online cycle");
        let spent = s.chip.query_count() - before;
        if decorate {
            assert_eq!(clock.stats(Phase::Online).queries, spent);
        }
        let _ = std::fs::remove_dir_all(&dir);
        (
            bits(&out.deployed),
            out.final_eval.accuracy.to_bits(),
            out.promotions,
            spent,
        )
    };
    assert_eq!(
        run(false),
        run(true),
        "theta, accuracy, verdict or queries differ"
    );
}
