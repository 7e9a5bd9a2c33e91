//! Host-speed correction for the end-to-end timings.
//!
//! On a shared virtual machine the speed of a CPU moves by up to a factor
//! of two over a few seconds, with other guests' load, and no repetition
//! count inside one run averages that out. So while a run measures, one
//! probe process per CPU, pinned to it, times a fixed arithmetic loop every
//! [`PERIOD`] in its own thread CPU time and reads the CPU's stolen time
//! from `/proc/stat`. Thread CPU time leaves out both waits for the CPU (so
//! sharing it with the workload does not count) and time the hypervisor
//! ran another guest, which the steal counter adds back. A CPU's relative
//! speed is `(1 - stolen share) * NOMINAL_S / probe cost`, and the host's
//! is the mean over its CPUs. Work done for `dt` at relative speed `v`
//! takes `v dt` on a host running at the reference speed: that is what a
//! corrected interval reports. The probes run about 2 % of each CPU.
//!
//! The probes are processes, not threads, so the benchmark process runs
//! exactly the threads the workload does (one more thread changes how the
//! allocator behaves, and with it the peak memory of `serve-sim`). The
//! workload is not pinned, so work the program spreads over more CPUs
//! still shows as a shorter time.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Time between two probes on one CPU.
pub const PERIOD: Duration = Duration::from_millis(20);
/// Iterations of the probe loop.
const PROBE_ITERS: u64 = 100_000;
/// Thread CPU seconds the probe loop takes on the reference host (the
/// 2-vCPU machine the README's reference sizes come from) when no other
/// guest slows it.
pub const NOMINAL_S: f64 = 2.8e-4;
/// A probe process outliving this many seconds stops by itself.
const MAX_LIFE_S: f64 = 900.0;
/// How long [`HostProbe`] waits for a probe's next sample.
const SAMPLE_WAIT: Duration = Duration::from_secs(10);

/// The command-line flag that turns the benchmark binary into a probe.
pub const PROBE_FLAG: &str = "--host-probe";

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sysconf(name: i32) -> i64;
    fn getppid() -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SC_CLK_TCK: i32 = 2;
/// CPU-set words: 1024 CPUs, the C library's `cpu_set_t`.
const MASK_WORDS: usize = 16;

type Mask = [u64; MASK_WORDS];

fn clock_s(clock: i32) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Seconds on the monotonic clock, which every process on the host shares:
/// the time line of probe samples and timed intervals.
pub fn now() -> f64 {
    clock_s(CLOCK_MONOTONIC)
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: Mask = [0; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

fn pin_to(cpu: usize) -> Result<(), String> {
    let mut mask: Mask = [0; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("cannot pin to CPU {cpu}"))
    }
}

/// Seconds `cpu` has had stolen by the hypervisor since boot.
fn stolen_s(cpu: usize) -> Option<f64> {
    // SAFETY: sysconf has no preconditions.
    let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) } as f64;
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let label = format!("cpu{cpu}");
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(&label))?;
    // cpuN user nice system idle iowait irq softirq steal ...
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / ticks_per_s)
}

/// One probe: thread CPU seconds of the fixed loop.
fn probe() -> f64 {
    let start = clock_s(CLOCK_THREAD_CPUTIME_ID);
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0.0_f64;
    for i in 0..PROBE_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.mul_add(0.999_999, (x >> 11) as f64 * 1e-16 + i as f64 * 1e-12);
    }
    std::hint::black_box(acc);
    clock_s(CLOCK_THREAD_CPUTIME_ID) - start
}

/// The body of a probe process (`<binary> --host-probe <cpu> <file>`):
/// pinned to `cpu`, appends `<monotonic s> <probe cost s> <stolen s>`
/// lines to `file` until it is killed, its parent exits or [`MAX_LIFE_S`]
/// pass.
///
/// # Errors
///
/// A message when the probe cannot pin itself or write the file.
pub fn probe_main(cpu: usize, file: &Path) -> Result<(), String> {
    pin_to(cpu)?;
    let mut out = fs::File::create(file).map_err(|e| format!("{}: {e}", file.display()))?;
    // SAFETY: getppid has no preconditions.
    let parent = unsafe { getppid() };
    let born = now();
    // SAFETY: as above.
    while unsafe { getppid() } == parent && now() - born < MAX_LIFE_S {
        let cost = probe();
        let stolen = stolen_s(cpu).unwrap_or(0.0);
        writeln!(out, "{} {cost} {stolen}", now()).map_err(|e| e.to_string())?;
        std::thread::sleep(PERIOD);
    }
    Ok(())
}

/// One probe sample.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Monotonic seconds when it was taken.
    t: f64,
    /// Thread CPU seconds of the probe loop.
    cost: f64,
    /// The CPU's stolen seconds since boot.
    stolen: f64,
}

fn read_samples(file: &Path) -> Vec<Sample> {
    fs::read_to_string(file)
        .unwrap_or_default()
        .split_inclusive('\n')
        // A probe killed mid-write leaves a partial last line.
        .filter_map(|line| line.strip_suffix('\n'))
        .filter_map(|line| {
            let mut f = line.split(' ').map(str::parse::<f64>);
            let (t, cost, stolen) = (f.next()?.ok()?, f.next()?.ok()?, f.next()?.ok()?);
            Some(Sample { t, cost, stolen })
        })
        .collect()
}

/// The probe processes of one benchmark run, one per CPU. Dropping it
/// kills and reaps them and removes their files.
#[derive(Debug)]
pub struct HostProbe {
    children: Vec<(Child, PathBuf)>,
}

impl HostProbe {
    /// Starts the probes, writing their samples under `dir`, and returns
    /// once each has taken one.
    ///
    /// # Errors
    ///
    /// A message when a probe cannot be started or takes no sample.
    pub fn start(dir: &Path) -> Result<HostProbe, String> {
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut probe = HostProbe {
            children: Vec::new(),
        };
        for cpu in allowed_cpus() {
            let file = dir.join(format!("host-probe-{}-{cpu}.txt", std::process::id()));
            let child = Command::new(&exe)
                .arg(PROBE_FLAG)
                .arg(cpu.to_string())
                .arg(&file)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("host probe: {e}"))?;
            probe.children.push((child, file));
        }
        probe.wait_for_samples_after(f64::NEG_INFINITY)?;
        Ok(probe)
    }

    fn wait_for_samples_after(&self, t: f64) -> Result<(), String> {
        let waiting = Instant::now();
        while !self
            .children
            .iter()
            .all(|(_, file)| read_samples(file).last().is_some_and(|s| s.t > t))
        {
            if waiting.elapsed() > SAMPLE_WAIT {
                return Err("a host probe stopped taking samples".into());
            }
            std::thread::sleep(PERIOD / 4);
        }
        Ok(())
    }

    /// Waits for a sample past the last timed interval, stops the probes
    /// and returns what they measured.
    ///
    /// # Errors
    ///
    /// A message when a probe stopped taking samples.
    pub fn finish(mut self) -> Result<HostSpeed, String> {
        let waited = self.wait_for_samples_after(now());
        self.stop();
        waited?;
        Ok(HostSpeed {
            cpus: self
                .children
                .iter()
                .map(|(_, file)| read_samples(file))
                .collect(),
        })
    }

    fn stop(&mut self) {
        for (child, _) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        self.stop();
        for (_, file) in &self.children {
            let _ = fs::remove_file(file);
        }
    }
}

/// What the probes measured: per CPU, its samples in time order.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    cpus: Vec<Vec<Sample>>,
}

impl HostSpeed {
    /// The host's mean speed during `[a, b]` relative to the reference
    /// host, averaged over the CPUs. Per CPU: the share of the time between
    /// the samples around the interval that was not stolen, times the mean
    /// of [`NOMINAL_S`] over the probe costs in the interval (or in the
    /// samples around it, when none is inside). NaN when no probe took a
    /// sample.
    pub fn speed(&self, a: f64, b: f64) -> f64 {
        let per_cpu: Vec<f64> = self
            .cpus
            .iter()
            .filter(|samples| !samples.is_empty())
            .map(|samples| {
                // The last sample at or before `a` to the first at or after
                // `b`, or the nearest ones the probe took.
                let first = samples.iter().rposition(|s| s.t <= a).unwrap_or(0);
                let last = samples
                    .iter()
                    .position(|s| s.t >= b)
                    .unwrap_or(samples.len() - 1);
                let around = &samples[first..=last.max(first)];
                let inside: Vec<&Sample> = around.iter().filter(|s| s.t >= a && s.t <= b).collect();
                let costs: Vec<f64> = if inside.is_empty() {
                    around.iter().map(|s| s.cost).collect()
                } else {
                    inside.iter().map(|s| s.cost).collect()
                };
                let clock = costs.iter().map(|c| NOMINAL_S / c).sum::<f64>() / costs.len() as f64;
                let (s0, s1) = (around[0], around[around.len() - 1]);
                let stolen = if s1.t > s0.t {
                    ((s1.stolen - s0.stolen) / (s1.t - s0.t)).clamp(0.0, 0.95)
                } else {
                    0.0
                };
                (1.0 - stolen) * clock
            })
            .collect();
        per_cpu.iter().sum::<f64>() / per_cpu.len() as f64
    }

    /// `[a, b]`'s length on a host running at the reference speed.
    pub fn corrected(&self, a: f64, b: f64) -> f64 {
        (b - a) * self.speed(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CPU probed every 20 ms from 0 to 2 s at `cost`, losing `steal` of
    /// its time to other guests.
    fn cpu(cost: f64, steal: f64) -> Vec<Sample> {
        (0..=100)
            .map(|i| {
                let t = i as f64 * 0.02;
                Sample {
                    t,
                    cost,
                    stolen: steal * t,
                }
            })
            .collect()
    }

    #[test]
    fn a_host_at_the_reference_speed_leaves_times_unchanged() {
        let host = HostSpeed {
            cpus: vec![cpu(NOMINAL_S, 0.0), cpu(NOMINAL_S, 0.0)],
        };
        assert!((host.corrected(0.5, 1.5) - 1.0).abs() < 1e-12);
        // An interval between two samples uses the samples around it.
        assert!((host.corrected(0.501, 0.502) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn slow_clocks_and_stolen_time_shorten_the_corrected_time() {
        let host = HostSpeed {
            cpus: vec![cpu(2.0 * NOMINAL_S, 0.0), cpu(NOMINAL_S, 0.5)],
        };
        // CPU 0 runs at half speed; CPU 1 at full speed half the time.
        assert!((host.speed(0.2, 1.8) - 0.5).abs() < 1e-9);
        assert!((host.corrected(0.2, 1.8) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn an_interval_past_the_last_sample_uses_the_last_samples() {
        let host = HostSpeed {
            cpus: vec![cpu(2.0 * NOMINAL_S, 0.0)],
        };
        assert!((host.speed(3.0, 4.0) - 0.5).abs() < 1e-12);
        assert!(HostSpeed { cpus: vec![vec![]] }.speed(0.0, 1.0).is_nan());
    }
}
