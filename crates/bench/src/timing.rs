//! Minimal wall-clock bench harness.
//!
//! The container has no external bench framework, so the `benches/`
//! binaries (declared `harness = false`) use this module instead: warm up,
//! auto-calibrate a sample count against a time budget, report mean/min
//! per iteration, and optionally record everything as JSON
//! (`cargo bench -p mspcg-bench --bench spmv -- --json FILE`).
//!
//! The JSON is hand-rolled (flat array of objects, append-merge on reruns)
//! — enough for comparing runs and for plotting, without a serializer
//! dependency.

use std::time::Instant;

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench group (e.g. `spmv_poisson512`).
    pub group: String,
    /// Configuration label within the group (e.g. `par4`).
    pub label: String,
    /// Samples taken.
    pub samples: u64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest observed iteration.
    pub min_ns: f64,
    /// Worker-pool thread budget while the sample ran.
    pub threads: usize,
    /// Extra numeric counters recorded alongside the timing (e.g.
    /// `iterations`, `barriers_per_iter`, `reductions_per_iter`): the
    /// quantities that stay meaningful on a single-core container where
    /// wall-clock parallel wins cannot show. Each becomes a JSON field.
    pub extras: Vec<(String, f64)>,
}

impl BenchResult {
    /// `group/label` identifier.
    pub fn id(&self) -> String {
        format!("{}/{}", self.group, self.label)
    }

    /// Attach an extra numeric counter to the record (builder style).
    #[must_use]
    pub fn with_extra(mut self, key: &str, value: f64) -> Self {
        self.extras.push((key.to_string(), value));
        self
    }
}

/// Time budget per measurement, overridable with `MSPCG_BENCH_MS`.
pub fn budget_nanos() -> u128 {
    let ms = std::env::var("MSPCG_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(250);
    u128::from(ms) * 1_000_000
}

/// Measure `f`, printing the result line and returning the record.
pub fn bench(group: &str, label: &str, mut f: impl FnMut()) -> BenchResult {
    // Warmup (also primes caches and the worker pool).
    f();
    let budget = budget_nanos();
    let mut samples = 0u64;
    let mut total_ns = 0u128;
    let mut min_ns = u128::MAX;
    // At least 5 samples, then until the budget is spent (cap 10k).
    while (samples < 5 || total_ns < budget) && samples < 10_000 {
        let start = Instant::now();
        f();
        let dt = start.elapsed().as_nanos().max(1);
        samples += 1;
        total_ns += dt;
        if dt < min_ns {
            min_ns = dt;
        }
        if total_ns >= budget && samples >= 5 {
            break;
        }
    }
    let result = BenchResult {
        group: group.to_string(),
        label: label.to_string(),
        samples,
        mean_ns: total_ns as f64 / samples as f64,
        min_ns: min_ns as f64,
        threads: mspcg_sparse::par::max_threads(),
        extras: Vec::new(),
    };
    println!(
        "{:<40} mean {:>12}  min {:>12}  ({} samples, {} thread(s))",
        result.id(),
        fmt_ns(result.mean_ns),
        fmt_ns(result.min_ns),
        result.samples,
        result.threads,
    );
    result
}

/// Human-readable nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn json_object(r: &BenchResult) -> String {
    let mut extras = String::new();
    for (key, value) in &r.extras {
        extras.push_str(&format!(", {}: {}", json_string(key), json_number(*value)));
    }
    format!(
        "  {{\"group\": {}, \"label\": {}, \"samples\": {}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"threads\": {}{}}}",
        json_string(&r.group),
        json_string(&r.label),
        r.samples,
        r.mean_ns,
        r.min_ns,
        r.threads,
        extras,
    )
}

/// Render a counter value as valid JSON (no NaN/inf literals).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v:.4}")
        }
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Append results to a JSON array file (created if absent). Only files
/// written by this function are understood — the merge keeps the existing
/// entries verbatim and adds the new ones.
///
/// # Errors
/// Propagates I/O failures.
pub fn append_json(path: &std::path::Path, results: &[BenchResult]) -> std::io::Result<()> {
    let rendered: Vec<String> = results.iter().map(json_object).collect();
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end().trim_end_matches(']').trim_end();
            let sep = if trimmed.ends_with('[') { "\n" } else { ",\n" };
            format!("{}{}{}\n]\n", trimmed, sep, rendered.join(",\n"))
        }
        Err(_) => format!("[\n{}\n]\n", rendered.join(",\n")),
    };
    std::fs::write(path, body)
}

/// Scan argv for `--json <path>` (other args — e.g. cargo's `--bench` —
/// are ignored).
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// Print the closing summary and record JSON when requested via `--json`.
pub fn finish(results: &[BenchResult]) {
    if let Some(path) = json_path_from_args() {
        match append_json(&path, results) {
            Ok(()) => println!("recorded {} result(s) to {}", results.len(), path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_counts() {
        std::env::set_var("MSPCG_BENCH_MS", "1");
        let mut calls = 0u64;
        let r = bench("unit", "noop", || calls += 1);
        assert!(r.samples >= 5);
        assert_eq!(calls, r.samples + 1); // + warmup
        assert!(r.min_ns <= r.mean_ns);
        std::env::remove_var("MSPCG_BENCH_MS");
    }

    #[test]
    fn json_round_trips_through_append() {
        let dir = std::env::temp_dir().join("mspcg_bench_test_json");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("out.json");
        let _ = std::fs::remove_file(&path);
        let r = BenchResult {
            group: "g".into(),
            label: "l\"x".into(),
            samples: 3,
            mean_ns: 1.5,
            min_ns: 1.0,
            threads: 2,
            extras: vec![
                ("iterations".into(), 41.0),
                ("barriers_per_iter".into(), 7.5),
            ],
        };
        append_json(&path, std::slice::from_ref(&r)).unwrap();
        append_json(&path, std::slice::from_ref(&r)).unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s.matches("\"group\"").count(), 2);
        assert!(s.trim_start().starts_with('['));
        assert!(s.trim_end().ends_with(']'));
        // Extras become plain JSON fields (integers stay integers).
        assert!(s.contains("\"iterations\": 41"));
        assert!(s.contains("\"barriers_per_iter\": 7.5000"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn json_number_renders_valid_json() {
        assert_eq!(json_number(3.0), "3");
        assert_eq!(json_number(-12.0), "-12");
        assert_eq!(json_number(2.25), "2.2500");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
