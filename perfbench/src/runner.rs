//! One benchmark run: set-up and repetitions until the time budget is
//! spent, then medians, checks across repetitions and the result line.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use crate::host::{self, HostProbe};
use crate::record::{per_layer_metrics, Outcome, Recorder};
use crate::workloads::{Env, Workload};

/// Set-ups timed per run at least, for a steady `setup_s` median.
const MIN_SETUPS: usize = 5;
/// Set-ups timed per run at most.
const MAX_SETUPS: usize = 500;
/// Time spent on extra set-ups (beyond the repetitions' own) per run.
const SETUP_TIME: Duration = Duration::from_secs(1);

/// The end-to-end metrics of the result line, with units. Every workload
/// measures each of them and none reads 0.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("chip_queries", "count"),
];

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations failed, plus one per failed check.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines printed before the result line.
    pub report: Vec<String>,
}

impl RunResult {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn join(values: &[f64], digits: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.digits$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The scratch directory runs write journals into.
pub fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// The provenance line: commit, host parallelism, kernel tier, pool
/// threads, compiler and seed.
pub fn provenance(seed: u64, threads: usize) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = if root.join(".git").exists() {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance: commit {} | available_parallelism {parallelism} | kernel {} | \
         pool_threads {threads} | {} | seed {seed}",
        commit.as_deref().unwrap_or("unknown (not a git checkout)"),
        photon_zo::linalg::kernel_tier().name(),
        env!("PERFBENCH_RUSTC"),
    )
}

/// Runs `workload` for about `seconds`: repetitions of set-up and timed
/// work, each on the same inputs, until the next one would overrun the
/// budget (at least one). A traced run follows every bare repetition with
/// a traced one and reports the per-layer metrics instead. `setup_s` and
/// `wall_s` are corrected for the host's speed ([`crate::host`]).
///
/// # Errors
///
/// A message when set-up fails.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let env = Env {
        seed,
        threads: workload.threads(),
        work_dir: work_dir(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let probe = HostProbe::start(&env.work_dir)?;
    let start = Instant::now();
    // Set-ups as (start on the host probe's time line, seconds).
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut build_ns = Vec::new();
    let mut bare = Vec::new();
    let mut bare_at = Vec::new();
    let mut decorated: Vec<(Outcome, BTreeMap<String, f64>)> = Vec::new();
    // Set-ups alone, beyond the repetitions' own, for a steady median even
    // when each takes microseconds. They are spread over the run in step
    // with the elapsed budget, so they see the same host as the work.
    let mut extra = Duration::ZERO;
    let mut set_up_until =
        |share: f64, min: usize, setups: &mut Vec<(f64, f64)>, build_ns: &mut Vec<f64>| {
            let share = share.min(1.0);
            while setups.len() < min
                || (extra < SETUP_TIME.mul_f64(share)
                    && (setups.len() as f64) < MAX_SETUPS as f64 * share)
            {
                let (at, t) = (host::now(), Instant::now());
                let (_, build) = workload.setup(&env)?;
                setups.push((at, t.elapsed().as_secs_f64()));
                build_ns.push(build);
                extra += t.elapsed();
            }
            Ok::<(), String>(())
        };
    loop {
        let (at, rep) = (host::now(), Instant::now());
        let (setup, build) = workload.setup(&env)?;
        setups.push((at, rep.elapsed().as_secs_f64()));
        build_ns.push(build);
        bare_at.push(host::now());
        bare.push(workload.execute(&setup, &env, &mut Recorder::bare()));
        if traced {
            let (setup, _) = workload.setup(&env)?;
            let mut rec = Recorder::traced();
            let out = workload.execute(&setup, &env, &mut rec);
            let layers = rec.finish(out.wall_s);
            decorated.push((out, layers));
        }
        if start.elapsed() + rep.elapsed() > budget {
            break;
        }
        let share = start.elapsed().as_secs_f64() / budget.as_secs_f64();
        set_up_until(share, 0, &mut setups, &mut build_ns)?;
    }
    set_up_until(1.0, MIN_SETUPS, &mut setups, &mut build_ns)?;
    let speed = probe.finish()?;

    let mut failures: Vec<String> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let first = &bare[0];
    for (i, out) in bare
        .iter()
        .chain(decorated.iter().map(|(o, _)| o))
        .enumerate()
    {
        failures.extend(out.failures.iter().cloned());
        notes.extend(out.notes.iter().cloned());
        // Same inputs, same program: every repetition, bare or decorated,
        // must reproduce the first one bit for bit.
        if out.fingerprint != first.fingerprint || out.chip_queries != first.chip_queries {
            failures.push(format!(
                "repetition {i} differs from the first ({:016x}/{} vs {:016x}/{})",
                out.fingerprint, out.chip_queries, first.fingerprint, first.chip_queries
            ));
        }
    }
    failures.sort();
    failures.dedup();
    notes.sort();
    notes.dedup();
    let attempted: u64 = bare.iter().map(|o| o.attempted).sum();
    let failed_ops: u64 = bare.iter().map(|o| o.failed).sum();

    let raw_walls: Vec<f64> = bare.iter().map(|o| o.wall_s).collect();
    let raw_wall_s = median(&raw_walls);
    let speeds: Vec<f64> = bare
        .iter()
        .zip(&bare_at)
        .map(|(o, &at)| speed.speed(at, at + o.wall_s))
        .collect();
    let walls: Vec<f64> = raw_walls.iter().zip(&speeds).map(|(w, v)| w * v).collect();
    let slowdowns: Vec<f64> = speeds.iter().map(|v| 1.0 / v).collect();
    let wall_s = median(&walls);
    let setup_s = median(
        &setups
            .iter()
            .map(|&(at, s)| speed.corrected(at, at + s))
            .collect::<Vec<_>>(),
    );
    let rss = peak_rss_mb();
    let queries = first.chip_queries as f64;

    let mut report = vec![
        format!(
            "perfbench {} | seed {seed} | trace {} | {} repetition(s) in {:.1} s",
            workload.name(),
            u8::from(traced),
            bare.len(),
            start.elapsed().as_secs_f64()
        ),
        provenance(seed, env.threads),
        format!("  wall_s per repetition (corrected): {}", join(&walls, 4)),
        format!(
            "  wall_s per repetition (raw):       {}",
            join(&raw_walls, 4)
        ),
        format!(
            "  host slowdown per repetition:      {}",
            join(&slowdowns, 3)
        ),
    ];
    let median_of = |f: fn(&Outcome) -> Option<f64>| -> Option<f64> {
        let v: Vec<f64> = bare.iter().filter_map(f).collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let fail_frac = failed_ops as f64 / attempted.max(1) as f64;
    let rows: [(&str, Option<f64>, &str); 9] = [
        ("setup_s", Some(setup_s), "s"),
        ("wall_s", Some(wall_s), "s"),
        ("peak_rss_mb", Some(rss), "MB"),
        ("chip_queries", Some(queries), "count"),
        ("fail_frac", Some(fail_frac), "ratio"),
        ("acc_mean", median_of(|o| o.acc_mean), "ratio"),
        ("calib_fidelity", median_of(|o| o.calib_fidelity), "ratio"),
        ("serve_req_per_s", median_of(|o| o.serve_req_per_s), "req/s"),
        ("serve_p99_us", median_of(|o| o.serve_p99_us), "us"),
    ];
    for (name, value, unit) in rows {
        report.push(match value {
            Some(v) => format!("  {name:<16} {v:>16.6} {unit}"),
            None => format!("  {name:<16} {:>16} (not measured by this workload)", "-"),
        });
    }

    let metrics: Vec<Metric> = if traced {
        let mut merged: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (_, layers) in &decorated {
            for (k, v) in layers {
                merged.entry(k.clone()).or_default().push(*v);
            }
        }
        let get = |name: &str| merged.get(name).map_or(0.0, |v| median(v));
        let traced_wall = get("bench.traced_wall_s");
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        values.insert("data.build_ns".into(), median(&build_ns));
        values.insert("bench.untraced_wall_s".into(), raw_wall_s);
        values.insert("bench.trace_overhead".into(), traced_wall / raw_wall_s);
        values.insert("bench.host_slowdown".into(), median(&slowdowns));
        values.insert(
            "outcome.acc_mean".into(),
            median_of(|o| o.acc_mean).unwrap_or(0.0),
        );
        values.insert(
            "outcome.serve_req_per_s".into(),
            median_of(|o| o.serve_req_per_s).unwrap_or(0.0),
        );
        values.insert(
            "outcome.serve_p99_us".into(),
            median_of(|o| o.serve_p99_us).unwrap_or(0.0),
        );
        if workload == Workload::FinetuneK24 {
            values.insert(
                "exec.scaling_2t".into(),
                one_thread_scaling(workload, &env, raw_wall_s)?,
            );
        }
        if workload == Workload::ServeSim {
            // The online recalibration loop that the simulator's background
            // recalibration traffic stands for. `online-recal` is not a
            // gated workload (README.md), so one traced repetition of it here
            // keeps the journal and farm-online layers measured.
            let (out, layers) = online_layers(seed)?;
            failures.extend(out.failures);
            values.extend(
                layers
                    .into_iter()
                    .filter(|(k, _)| ONLINE_LAYERS.iter().any(|p| k.starts_with(p))),
            );
        }
        per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| Metric {
                value: values.get(&name).copied().unwrap_or_else(|| get(&name)),
                name,
                unit,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip([setup_s, wall_s, rss, queries])
            .map(|(&(name, unit), value)| Metric {
                name: name.into(),
                value,
                unit,
            })
            .collect()
    };
    for m in &metrics {
        if !m.value.is_finite() {
            failures.push(format!("metric {} is not finite", m.name));
        }
    }
    if traced {
        report.push("  per-layer metrics:".into());
        for m in &metrics {
            report.push(format!("    {:<36} {:>20.3} {}", m.name, m.value, m.unit));
        }
    }
    for n in &notes {
        report.push(format!("  KNOWN DEFECT: {n}"));
    }
    for f in &failures {
        report.push(format!("  CHECK FAILED: {f}"));
    }
    let _ = std::fs::remove_dir_all(&env.work_dir);
    Ok(RunResult {
        correct: failures.is_empty(),
        attempted,
        failed: failed_ops + failures.len() as u64,
        metrics,
        report,
    })
}

/// Layer metrics of `online-recal` that `serve-sim`'s traced run reports.
const ONLINE_LAYERS: [&str; 3] = ["farm.", "core.journal_", "photonics.chip_"];

/// One traced repetition of `online-recal`: its outcome and layer metrics.
fn online_layers(seed: u64) -> Result<(Outcome, BTreeMap<String, f64>), String> {
    let workload = Workload::OnlineRecal;
    let env = Env {
        seed,
        threads: workload.threads(),
        work_dir: work_dir(),
    };
    let (setup, _) = workload.setup(&env)?;
    let mut rec = Recorder::traced();
    let out = workload.execute(&setup, &env, &mut rec);
    let layers = rec.finish(out.wall_s);
    Ok((out, layers))
}

/// Wall time of one bare repetition at one pool thread over `wall_2t`, the
/// median at two.
fn one_thread_scaling(workload: Workload, env: &Env, wall_2t: f64) -> Result<f64, String> {
    let env1 = Env {
        threads: 1,
        ..env.clone()
    };
    let (setup, _) = workload.setup(&env1)?;
    let out = workload.execute(&setup, &env1, &mut Recorder::bare());
    Ok(out.wall_s / wall_2t)
}
