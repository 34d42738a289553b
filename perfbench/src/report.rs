//! The metric registry, the check that `BENCHMARK.json` declares exactly
//! what this program prints, and the result line.

use crate::json::{self, Value};
use crate::workloads::Workload;

/// End-to-end metrics of an untraced run, as `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] =
    &[("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of a traced run, as `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fem.assemble_s", "s"),
    ("coloring.order_s", "s"),
    ("coloring.colors", "count"),
    ("lanczos.s", "s"),
    ("precond.build_s", "s"),
    ("spmv.calls_per_solve", "count"),
    ("spmv.us", "us"),
    ("spmv.gbs", "GB/s"),
    ("spmv.pct_triad", "%"),
    ("spmv.share", "fraction"),
    ("msolve.calls_per_solve", "count"),
    ("msolve.us", "us"),
    ("msolve.gbs", "GB/s"),
    ("msolve.share", "fraction"),
    ("pcg.iterations", "count"),
    ("pcg.reductions_per_iter", "count"),
    ("pcg.inner_products_per_iter", "count"),
    ("pcg.fallbacks", "count"),
    ("pcg.audits", "count"),
    ("pcg.self_share", "fraction"),
    ("vecops.fused_update_us", "us"),
    ("vecops.dot_us", "us"),
    ("par.triad_gbs_t1", "GB/s"),
    ("par.triad_gbs_t2", "GB/s"),
    ("par.fork_join_us", "us"),
    ("multi.lane_speedup", "ratio"),
    ("spmd.barriers_per_iter", "count"),
    ("spmd.reductions_per_iter", "count"),
    ("spmd.splits_per_iter", "count"),
    ("spmd.fixed_ms", "ms"),
    ("spmd.t1_solve_s", "s"),
    ("spmd.speedup_2v1", "ratio"),
    ("spmd.vs_pool", "ratio"),
    ("barrier.crossing_ns", "ns"),
    ("barrier.est_share", "fraction"),
    ("trace.overhead", "fraction"),
];

/// Check that `manifest` (the text of `BENCHMARK.json`) names exactly the
/// workloads and metrics this program runs and prints, with the same
/// units, and that each workload's `why` states its accuracy bound.
pub fn check_manifest(manifest: &str) -> Result<(), String> {
    let doc = json::parse(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no array '{key}'"))
    };
    let field = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without string '{key}'"))
    };

    let declared: Vec<(String, String)> = section("workloads")?
        .iter()
        .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
        .collect::<Result<_, String>>()?;
    let mut names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    let mut ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.sort_unstable();
    ours.sort_unstable();
    if names != ours {
        return Err(format!(
            "BENCHMARK.json workloads {names:?} != program workloads {ours:?}"
        ));
    }
    for (name, why) in &declared {
        let w = Workload::from_name(name).expect("names matched above");
        let bound = format!("{:e}", w.accuracy());
        if !why.contains(&bound) {
            return Err(format!(
                "BENCHMARK.json: why of '{name}' does not state its accuracy bound {bound}"
            ));
        }
    }

    for (key, registry) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let mut declared: Vec<(String, String)> = section(key)?
            .iter()
            .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        let mut printed: Vec<(String, String)> = registry
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        declared.sort();
        printed.sort();
        if declared != printed {
            return Err(format!(
                "BENCHMARK.json {key} does not match the printed metrics: declared {declared:?}, printed {printed:?}"
            ));
        }
    }
    Ok(())
}

/// The last line of a run: the verdict and every metric of `registry`,
/// each taken from `values`.
///
/// # Panics
/// Panics when `values` misses a registry metric, names one twice or
/// holds one the registry lacks, or a value is not finite — all bugs in
/// this program.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    registry: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    assert_eq!(values.len(), registry.len(), "metric count mismatch");
    let metrics: Vec<String> = registry
        .iter()
        .map(|(name, unit)| {
            let hits: Vec<f64> = values
                .iter()
                .filter(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .collect();
            assert_eq!(hits.len(), 1, "metric {name} must be given exactly once");
            assert!(
                hits[0].is_finite(),
                "metric {name} is not finite: {}",
                hits[0]
            );
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                hits[0],
                json::string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    #[test]
    fn manifest_declares_exactly_the_printed_metrics() {
        check_manifest(&manifest()).unwrap();
    }

    #[test]
    fn manifest_check_catches_a_renamed_metric() {
        let broken = manifest().replacen("\"solve_s\"", "\"solve_ms\"", 1);
        assert!(check_manifest(&broken).is_err());
        let broken = manifest().replacen("\"spmv.gbs\"", "\"spmv.gbps\"", 1);
        assert!(check_manifest(&broken).is_err());
    }

    #[test]
    fn result_line_parses_and_keeps_every_digit() {
        let values: Vec<(&str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (*n, 0.123456789012345 + i as f64))
            .collect();
        let line = result_line(true, 12, 0, END_TO_END, &values);
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted"), Some(&Value::Num(12.0)));
        let m = v.get("metrics").unwrap();
        for (i, (name, unit)) in END_TO_END.iter().enumerate() {
            let entry = m.get(name).unwrap();
            assert_eq!(entry.get("unit").unwrap().as_str(), Some(*unit));
            assert_eq!(
                entry.get("value"),
                Some(&Value::Num(0.123456789012345 + i as f64))
            );
        }
    }
}
