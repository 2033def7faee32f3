//! Percentiles, the metric table and the run record.

use std::fmt::Write as _;
use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time the whole process (every thread, user and system) has used
/// so far: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. Time the host
/// steals from the VM and time spent waiting for a CPU do not count, so
/// a difference of two readings is the work done in between, whatever
/// else runs on the host. (Linux clock id.)
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: a pointer to a live, writable `timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// A wall clock and the process CPU clock started together.
#[derive(Clone, Copy)]
pub struct Clocks {
    wall: std::time::Instant,
    cpu: Duration,
}

impl Clocks {
    pub fn start() -> Clocks {
        Clocks {
            wall: std::time::Instant::now(),
            cpu: process_cpu(),
        }
    }

    /// Wall and process CPU time since `start`.
    pub fn elapsed(&self) -> (Duration, Duration) {
        (self.wall.elapsed(), process_cpu().saturating_sub(self.cpu))
    }
}

/// Nearest-rank percentile (`q` in `0..=1`); `NaN` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Interquartile range.
pub fn iqr(values: &[f64]) -> f64 {
    percentile(values, 0.75) - percentile(values, 0.25)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many observations the value summarizes.
    pub samples: usize,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The human-readable table: name, value, unit, sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }

    /// `{"name": {"value": v, "unit": u}, ...}`; non-finite values
    /// (a phase that produced no sample) are written as `null`.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Host, build and input facts that go with every result.
pub fn record(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {}, \"cpu\": \"{}\", \"profile\": \"{profile}\", \
         \"git_rev\": \"{}\"}}",
        nproc(),
        cpu.replace('"', "'"),
        git_rev()
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}
