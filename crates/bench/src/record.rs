//! The JSON recorder the criterion benches share.
//!
//! Criterion's console report is printed independently; each bench also
//! keeps its own samples per [`Case`] and hands them to [`write_json`],
//! which writes `results/BENCH_<bench>.json` with one entry per case:
//! `name`, `samples`, `min_ns`, `median_ns`, `mean_ns`, then the case's
//! extra metrics in insertion order.

use std::time::Duration;

/// One benchmark case's own timing record plus any extra metrics.
pub struct Case {
    /// Case label, unique within the bench.
    pub name: String,
    /// Wall-clock samples, in collection order.
    pub samples: Vec<Duration>,
    /// Extra `(key, value)` pairs appended to the case's JSON object.
    pub metrics: Vec<(&'static str, f64)>,
}

/// `(min, median, mean)` of `samples` in nanoseconds; the median is the
/// upper one for even counts, and all three are 0 for no samples.
pub fn summarize(samples: &[Duration]) -> (u128, u128, u128) {
    let mut sorted: Vec<Duration> = samples.to_vec();
    sorted.sort_unstable();
    let min = sorted.first().copied().unwrap_or_default().as_nanos();
    let median = sorted
        .get(sorted.len() / 2)
        .copied()
        .unwrap_or_default()
        .as_nanos();
    let mean = if sorted.is_empty() {
        0
    } else {
        sorted.iter().map(Duration::as_nanos).sum::<u128>() / sorted.len() as u128
    };
    (min, median, mean)
}

/// Writes `cases` to `results/BENCH_<bench>.json` at the repo root,
/// reporting the path on stdout or the failure on stderr.
pub fn write_json(bench: &str, cases: &[Case]) {
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let mut body = format!("{{\n  \"bench\": \"{bench}\",\n  \"cases\": [\n");
    for (i, case) in cases.iter().enumerate() {
        let (min, median, mean) = summarize(&case.samples);
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"samples\": {}, \"min_ns\": {}, \"median_ns\": {}, \
             \"mean_ns\": {}",
            case.name,
            case.samples.len(),
            min,
            median,
            mean
        ));
        for (key, value) in &case.metrics {
            body.push_str(&format!(", \"{key}\": {value}"));
        }
        body.push_str(if i + 1 == cases.len() { "}\n" } else { "},\n" });
    }
    body.push_str("  ]\n}\n");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = format!("{dir}/BENCH_{bench}.json");
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}
