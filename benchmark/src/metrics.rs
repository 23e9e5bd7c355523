//! The benchmark's metric catalogue and its result line.
//!
//! The names, units and order here are the ones `BENCHMARK.json` declares; a
//! unit test keeps the two in step.

use crate::json;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, every one reported by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("grind_ns", "ns/cell/step"),
    ("time_to_solution_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("bytes_per_cell", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`; the name is
/// `<layer>.<metric>`.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("igr-prec.f16_unpack_ns_per_elem", "ns"),
    ("igr-prec.f16_pack_ns_per_elem", "ns"),
    ("igr-prec.f32_copy_ns_per_elem", "ns"),
    ("igr-grid.slab_pack_ns_per_elem", "ns"),
    ("igr-grid.slab_unpack_ns_per_elem", "ns"),
    ("igr-grid.nonfinite_scan_ns_per_cell", "ns"),
    ("igr-core.ghost_fill_ns_per_cell", "ns"),
    ("igr-core.cfl_ns_per_cell", "ns"),
    ("igr-core.sigma_source_ns_per_cell", "ns"),
    ("igr-core.sigma_sweep_ns_per_cell", "ns"),
    ("igr-core.flux_sweep_ns_per_cell", "ns"),
    ("igr-core.rhs_ns_per_cell", "ns"),
    ("igr-core.rk_combine_ns_per_cell", "ns"),
    ("igr-core.step_ns_per_cell", "ns"),
    ("igr-core.rhs_evals_per_step", "count"),
    ("igr-core.sigma_sweeps_per_rhs", "count"),
    ("igr-core.flops_per_cell_step", "count"),
    ("igr-core.model_bytes_per_cell_step", "B"),
    ("igr-core.achieved_gb_s", "GB/s"),
    ("igr-core.pct_of_triad", "%"),
    ("igr-core.par_speedup_t2", "x"),
    ("host.triad_gb_s", "GB/s"),
    ("igr-baseline.weno_rhs_ns_per_cell", "ns"),
    ("igr-species.step_ns_per_cell", "ns"),
    ("igr-comm.halo_msgs_per_step", "count"),
    ("igr-comm.halo_bytes_per_step", "B"),
    ("igr-comm.halo_exchange_us", "us"),
    ("igr-app.case_build_s", "s"),
    ("igr-app.snapshot_restore_us", "us"),
    ("igr-app.checkpoint_save_mb_s", "MB/s"),
    ("igr-app.checkpoint_load_mb_s", "MB/s"),
    ("igr-app.checkpoint_bytes_per_cell", "B"),
    ("igr-app.driver_overhead_ns_per_step", "ns"),
    ("igr-campaign.sweep_expand_us_per_spec", "us"),
    ("igr-campaign.store_open_us_per_line_192", "us"),
    ("igr-campaign.store_open_us_per_line_19200", "us"),
    ("igr-campaign.content_hash_ns", "ns"),
    ("igr-campaign.spec_encode_ns", "ns"),
    ("igr-campaign.spec_decode_ns", "ns"),
    ("igr-campaign.result_encode_ns", "ns"),
    ("igr-campaign.result_decode_ns", "ns"),
    ("igr-campaign.store_fetch_ns", "ns"),
    ("igr-campaign.wire_rtt_us", "us"),
    ("igr-campaign.store_append_us", "us"),
    ("igr-campaign.exec_scenario_us", "us"),
    ("igr-campaign.exec_overhead_us", "us"),
    ("igr-campaign.queue_overhead_us", "us"),
    ("igr-campaign.sync_round_us", "us"),
    ("igr-campaign.executed", "count"),
    ("igr-campaign.cache_hits", "count"),
    ("igr-campaign.store_bytes_per_result", "B"),
    ("igr-obs.span_disabled_ns", "ns"),
    ("igr-obs.span_enabled_ns", "ns"),
    ("igr-obs.enabled_grind_overhead_pct", "%"),
    ("igr-mem.footprint_vs_17n", "x"),
    ("harness.quantum_p10_us", "us"),
    ("harness.quantum_p50_us", "us"),
    ("harness.quantum_p90_us", "us"),
    ("harness.wall_s", "s"),
    ("harness.spinup_s", "s"),
    ("harness.disturbance", "x"),
    ("harness.trace_overhead_pct", "%"),
    ("harness.unattributed_pct", "%"),
];

/// Values collected for one catalogue, by name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `catalogue` with its value and unit. Panics if a metric was never set:
/// a silently missing number is worse than a crash.
pub fn result_line(
    catalogue: &[(&'static str, &'static str)],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        assert!(
            json::valid_name(name),
            "metric name {name:?} breaks the contract's charset"
        );
        let value = values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json::string(name),
            json::number(value),
            json::string(unit)
        );
    }
    out.push_str("}}");
    out
}

/// The same metrics as an aligned table for people.
pub fn table(catalogue: &[(&'static str, &'static str)], values: &Values) -> String {
    let mut out = String::new();
    for (name, unit) in catalogue {
        if let Some(v) = values.get(name) {
            let _ = writeln!(out, "  {name:<44} {v:>16.6} {unit}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn catalogue_names_and_units_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(json::valid_name(name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            v.set(name, 1.5 + i as f64);
        }
        let parsed = Value::parse(&result_line(&END_TO_END, &v, 120, 0)).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(120.0));
        let metrics = parsed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let grind = parsed.get("metrics").unwrap().get("grind_ns").unwrap();
        assert_eq!(grind.get("value").unwrap().as_f64(), Some(2.5));
        assert_eq!(grind.get("unit").unwrap().as_str(), Some("ns/cell/step"));

        let failed = Value::parse(&result_line(&END_TO_END, &v, 120, 3)).unwrap();
        assert_eq!(failed.get("correct").unwrap().as_bool(), Some(false));
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_missing_metric_is_a_bug() {
        result_line(&END_TO_END, &Values::default(), 1, 0);
    }

    /// `BENCHMARK.json` and the harness must declare the same metrics and
    /// workloads, in the same order.
    #[test]
    fn benchmark_json_agrees_with_the_harness() {
        let path = crate::repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let file = Value::parse(&text).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            file.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
                .iter()
                .map(|m| m.get(field).and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        let units = |c: &[(&str, &str)]| c.iter().map(|(_, u)| u.to_string()).collect::<Vec<_>>();
        assert_eq!(listed("end_to_end", "name"), names(&END_TO_END));
        assert_eq!(listed("end_to_end", "unit"), units(&END_TO_END));
        assert_eq!(listed("per_layer", "name"), names(&PER_LAYER));
        assert_eq!(listed("per_layer", "unit"), units(&PER_LAYER));
        let workloads: Vec<String> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(listed("workloads", "name"), workloads);
        assert_eq!(
            file.get("run_seconds").and_then(Value::as_f64),
            Some(crate::workloads::RUN_SECONDS as f64)
        );
    }
}
