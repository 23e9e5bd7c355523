//! Campaign reports: per-scenario records and machine-readable aggregates.
//!
//! One campaign run produces one [`CampaignReport`]: a row per submitted
//! scenario (in submission order, cache-served or executed) carrying the
//! grind measurement, conservation drift, and base-heating diagnostics,
//! plus whole-campaign aggregates. Renders to JSON (no external
//! serialization crates exist in this environment, so the writer is
//! hand-rolled), CSV, and a fixed-width text table.

use crate::persist::json_str;
use igr_app::actions::{Action, ActionRecord};
use igr_app::base::BaseHeatingReport;
use igr_app::diagnostics::Sample;
use igr_app::recovery::RecoveryRecord;
use std::sync::Arc;

/// How a scenario run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The solver ran every step and produced a measurement.
    Completed,
    /// The solver diverged or rejected the configuration; the message is
    /// the solver/spec error. Failed runs are cached too — resubmitting a
    /// known-diverging scenario should not re-burn the compute.
    Failed(String),
}

impl RunStatus {
    /// True for [`RunStatus::Completed`].
    pub fn is_ok(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

/// A per-scenario diagnostics time series: flow samples taken every
/// `every` timed steps by the run driver's diagnostics observer
/// ([`crate::spec::ScenarioSpec::series_every`]). Persists in the result
/// store and rides the wire with the rest of the result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioSeries {
    /// Sampling cadence in timed steps.
    pub every: usize,
    /// The samples, in step order. A resumed run's series covers the steps
    /// executed after the restore (earlier samples died with the
    /// interrupted process).
    pub samples: Vec<Sample>,
}

/// Everything measured about one scenario execution.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario's derived (or labelled) name.
    pub name: String,
    /// `ScenarioSpec::hash_hex` of the spec that produced this.
    pub hash_hex: String,
    /// How the run ended.
    pub status: RunStatus,
    /// Interior cells of the (global) grid.
    pub cells: usize,
    /// Timed steps.
    pub steps: usize,
    /// Thread-ranks the run was decomposed over (1 = single block).
    pub ranks: usize,
    /// Wall-clock of the timed region, seconds.
    pub wall_s: f64,
    /// Grind time, ns per cell per step (Table 3's metric).
    pub ns_per_cell_step: f64,
    /// Relative change of total mass over the run, `|m1 - m0| / m0`. For
    /// closed (periodic) cases this is a conservation check; for jet cases
    /// it reports the global mass-budget change through the boundaries.
    pub mass_drift: f64,
    /// Relative change of total energy over the run.
    pub energy_drift: f64,
    /// Base-plane heating diagnostics (jet cases only).
    pub base_heating: Option<BaseHeatingReport>,
    /// In-flight diagnostics series (when the spec asked for one).
    pub series: Option<ScenarioSeries>,
    /// Absolute step the run resumed from, when it restarted from an
    /// autosaved checkpoint instead of running start-to-finish.
    pub resumed_from: Option<usize>,
    /// The applied action log, when the scenario ran closed-loop
    /// ([`crate::spec::ScenarioSpec::controller`]): every mid-run mutation
    /// the controller issued, in application order. Persists in the result
    /// store and rides the wire as an additive optional key.
    pub actions: Option<Vec<ActionRecord>>,
    /// The recovery log, when the scenario ran self-healing
    /// ([`crate::spec::ScenarioSpec::recovery`]): one record per checkpoint
    /// rollback, in trip order. `Some(vec![])` means recovery was armed and
    /// the run never diverged. Persists in the result store and rides the
    /// wire as an additive optional key.
    pub recoveries: Option<Vec<RecoveryRecord>>,
}

/// One report row: the result plus how it was obtained. The result is the
/// store's own `Arc` — duplicated submissions and cache hits share one
/// allocation rather than cloning the result per row.
#[derive(Clone, Debug)]
pub struct ReportRow {
    /// The measurement (shared with the store's cache entry).
    pub result: Arc<ScenarioResult>,
    /// True when the row was served from the result cache.
    pub cached: bool,
}

/// The aggregated outcome of one executor batch.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Per-scenario rows, in submission order.
    pub rows: Vec<ReportRow>,
    /// Scenarios actually simulated in this batch.
    pub executed: usize,
    /// Scenarios served from the result cache (duplicates within the batch
    /// and resubmissions across batches).
    pub cache_hits: usize,
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Wall-clock of the whole batch, seconds.
    pub batch_wall_s: f64,
}

impl CampaignReport {
    /// Completed rows only.
    pub fn completed(&self) -> impl Iterator<Item = &ReportRow> {
        self.rows.iter().filter(|r| r.result.status.is_ok())
    }

    /// Total cell-steps simulated (executed rows only — cached rows cost
    /// nothing, which is the point).
    pub fn cell_steps_executed(&self) -> u64 {
        self.rows
            .iter()
            .filter(|r| !r.cached && r.result.status.is_ok())
            .map(|r| r.result.cells as u64 * r.result.steps as u64)
            .sum()
    }

    /// Mean grind time over completed rows (ns/cell/step).
    pub fn mean_grind(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for r in self.completed() {
            sum += r.result.ns_per_cell_step;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// The completed scenario with the highest recirculation flux — the
    /// campaign's answer to "which configuration heats the base worst?".
    pub fn worst_base_heating(&self) -> Option<&ReportRow> {
        // Filtered to Some below; the None arm is unreachable and orders
        // last either way.
        let flux = |r: &ReportRow| {
            r.result
                .base_heating
                .as_ref()
                .map_or(f64::NEG_INFINITY, |h| h.recirculation_flux)
        };
        self.completed()
            .filter(|r| r.result.base_heating.is_some())
            .max_by(|a, b| flux(a).total_cmp(&flux(b)))
    }

    /// Machine-readable JSON: `{"summary": {...}, "scenarios": [...]}`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 * self.rows.len() + 256);
        s.push_str("{\n  \"summary\": {");
        s.push_str(&format!(
            "\"scenarios\": {}, \"executed\": {}, \"cache_hits\": {}, \
             \"workers\": {}, \"batch_wall_s\": {}, \"cell_steps_executed\": {}, \
             \"mean_grind_ns\": {}",
            self.rows.len(),
            self.executed,
            self.cache_hits,
            self.workers,
            json_f64(self.batch_wall_s),
            self.cell_steps_executed(),
            json_f64(self.mean_grind()),
        ));
        s.push_str("},\n  \"scenarios\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let r = &row.result;
            s.push_str("    {");
            s.push_str(&format!(
                "\"name\": {}, \"hash\": \"{}\", \"cached\": {}, \"status\": {}, \
                 \"cells\": {}, \"steps\": {}, \"ranks\": {}, \"wall_s\": {}, \
                 \"grind_ns_per_cell_step\": {}, \"mass_drift\": {}, \"energy_drift\": {}",
                json_str(&r.name),
                r.hash_hex,
                row.cached,
                match &r.status {
                    RunStatus::Completed => "\"completed\"".to_string(),
                    RunStatus::Failed(msg) => json_str(&format!("failed: {msg}")),
                },
                r.cells,
                r.steps,
                r.ranks,
                json_f64(r.wall_s),
                json_f64(r.ns_per_cell_step),
                json_f64(r.mass_drift),
                json_f64(r.energy_drift),
            ));
            if let Some(b) = &r.base_heating {
                s.push_str(&format!(
                    ", \"base_heating\": {{\"heated_fraction\": {}, \
                     \"recirculation_flux\": {}, \"mean_backflow_enthalpy\": {}, \
                     \"peak_temperature\": {}, \"mean_pressure\": {}, \
                     \"footprint_centroid\": [{}, {}]}}",
                    json_f64(b.heated_fraction),
                    json_f64(b.recirculation_flux),
                    json_f64(b.mean_backflow_enthalpy),
                    json_f64(b.peak_temperature),
                    json_f64(b.mean_pressure),
                    json_f64(b.footprint_centroid[0]),
                    json_f64(b.footprint_centroid[1]),
                ));
            }
            if let Some(rf) = r.resumed_from {
                s.push_str(&format!(", \"resumed_from\": {rf}"));
            }
            if let Some(actions) = &r.actions {
                s.push_str(", \"actions\": [");
                for (ai, rec) in actions.iter().enumerate() {
                    if ai > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&json_action_record(rec));
                }
                s.push(']');
            }
            if let Some(recs) = &r.recoveries {
                s.push_str(", \"recoveries\": [");
                for (ri, rec) in recs.iter().enumerate() {
                    if ri > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&json_recovery_record(rec));
                }
                s.push(']');
            }
            if let Some(series) = &r.series {
                s.push_str(&format!(
                    ", \"series\": {{\"every\": {}, \"samples\": [",
                    series.every
                ));
                for (si, sm) in series.samples.iter().enumerate() {
                    if si > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!(
                        "{{\"step\": {}, \"t\": {}, \"mass\": {}, \"energy\": {}, \
                         \"kinetic_energy\": {}, \"max_mach\": {}, \"min_rho\": {}}}",
                        sm.step,
                        json_f64(sm.t),
                        json_f64(sm.totals[0]),
                        json_f64(sm.totals[4]),
                        json_f64(sm.kinetic_energy),
                        json_f64(sm.max_mach),
                        json_f64(sm.min_rho),
                    ));
                }
                s.push_str("]}");
            }
            s.push('}');
            if i + 1 < self.rows.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// CSV with one row per scenario (base-heating columns empty for
    /// non-jet cases).
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "name,hash,cached,status,cells,steps,ranks,wall_s,grind_ns_per_cell_step,\
             mass_drift,energy_drift,heated_fraction,recirc_flux,backflow_h0,peak_T,\
             mean_p_base,centroid_a,centroid_b,resumed_from,series_samples,actions,\
             recoveries\n",
        );
        for row in &self.rows {
            let r = &row.result;
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{}",
                csv_str(&r.name),
                r.hash_hex,
                row.cached,
                match &r.status {
                    RunStatus::Completed => "completed".to_string(),
                    RunStatus::Failed(msg) => csv_str(&format!("failed: {msg}")),
                },
                r.cells,
                r.steps,
                r.ranks,
                r.wall_s,
                r.ns_per_cell_step,
                r.mass_drift,
                r.energy_drift,
            ));
            match &r.base_heating {
                Some(b) => s.push_str(&format!(
                    ",{},{},{},{},{},{},{}",
                    b.heated_fraction,
                    b.recirculation_flux,
                    b.mean_backflow_enthalpy,
                    b.peak_temperature,
                    b.mean_pressure,
                    b.footprint_centroid[0],
                    b.footprint_centroid[1],
                )),
                None => s.push_str(",,,,,,,"),
            }
            s.push_str(&format!(
                ",{},{},{},{}\n",
                r.resumed_from.map(|v| v.to_string()).unwrap_or_default(),
                r.series
                    .as_ref()
                    .map(|se| se.samples.len().to_string())
                    .unwrap_or_default(),
                r.actions
                    .as_ref()
                    .map(|a| a.len().to_string())
                    .unwrap_or_default(),
                r.recoveries
                    .as_ref()
                    .map(|a| a.len().to_string())
                    .unwrap_or_default(),
            ));
        }
        s
    }

    /// Fixed-width text table for terminals.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<60} {:>6} {:>10} {:>10} {:>10} {:>10}\n",
            "scenario", "cached", "grind ns", "wall s", "recirc", "peak T"
        ));
        s.push_str(&"-".repeat(112));
        s.push('\n');
        for row in &self.rows {
            let r = &row.result;
            let (recirc, peak) = match &r.base_heating {
                Some(b) => (
                    format!("{:.4}", b.recirculation_flux),
                    format!("{:.2}", b.peak_temperature),
                ),
                None => ("-".into(), "-".into()),
            };
            let grind = if r.status.is_ok() {
                format!("{:.0}", r.ns_per_cell_step)
            } else {
                "FAILED".into()
            };
            s.push_str(&format!(
                "{:<60} {:>6} {:>10} {:>10.3} {:>10} {:>10}\n",
                truncate(&r.name, 60),
                if row.cached { "yes" } else { "no" },
                grind,
                r.wall_s,
                recirc,
                peak
            ));
        }
        s.push_str(&format!(
            "\n{} scenarios | {} executed | {} cache hits | {:.2} s batch wall | \
             mean grind {:.0} ns/cell/step\n",
            self.rows.len(),
            self.executed,
            self.cache_hits,
            self.batch_wall_s,
            self.mean_grind()
        ));
        s
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!(
            "{}…",
            &s[..s
                .char_indices()
                .take(n - 1)
                .last()
                .map(|(i, c)| i + c.len_utf8())
                .unwrap_or(0)]
        )
    }
}

/// One applied action as a report-JSON object. This is the *human-facing*
/// rendering (non-finite parameters become null like every other report
/// float); the bit-exact round-trip form lives in [`crate::persist`].
fn json_action_record(rec: &ActionRecord) -> String {
    let mut s = format!(
        "{{\"step\": {}, \"t\": {}, \"kind\": \"{}\"",
        rec.step,
        json_f64(rec.t),
        rec.action.kind_name()
    );
    match &rec.action {
        Action::SetGimbal {
            engine,
            target,
            rate,
        } => s.push_str(&format!(
            ", \"engine\": {}, \"target\": [{}, {}], \"rate\": {}",
            engine,
            json_f64(target[0]),
            json_f64(target[1]),
            json_f64(*rate)
        )),
        Action::EngineOut { engine } => s.push_str(&format!(", \"engine\": {engine}")),
        Action::SetBackpressure { pressure } => {
            s.push_str(&format!(", \"pressure\": {}", json_f64(*pressure)))
        }
        Action::SwapInflow {
            ambient_rho,
            ambient_p,
            mach,
            gamma,
            pressure_ratio,
            density_ratio,
        } => s.push_str(&format!(
            ", \"ambient_rho\": {}, \"ambient_p\": {}, \"mach\": {}, \"gamma\": {}, \
             \"pressure_ratio\": {}, \"density_ratio\": {}",
            json_f64(*ambient_rho),
            json_f64(*ambient_p),
            json_f64(*mach),
            json_f64(*gamma),
            json_f64(*pressure_ratio),
            json_f64(*density_ratio)
        )),
        Action::SetFixedDt { dt } => match dt {
            Some(dt) => s.push_str(&format!(", \"dt\": {}", json_f64(*dt))),
            None => s.push_str(", \"dt\": null"),
        },
        Action::RequestCheckpoint => {}
    }
    s.push('}');
    s
}

/// One recovery rollback as a report-JSON object. Human-facing like
/// [`json_action_record`]: a NaN `prev_dt` (the "restore adaptive stepping"
/// sentinel) renders as null; the bit-exact form lives in [`crate::persist`].
fn json_recovery_record(rec: &RecoveryRecord) -> String {
    format!(
        "{{\"trip_step\": {}, \"rollback_step\": {}, \"rollback_t\": {}, \
         \"prev_dt\": {}, \"backoff_dt\": {}, \"hold_until\": {}, \"retry\": {}}}",
        rec.trip_step,
        rec.rollback_step,
        json_f64(rec.rollback_t),
        json_f64(rec.prev_dt),
        json_f64(rec.backoff_dt),
        rec.hold_until,
        rec.retry
    )
}

/// JSON number formatting: finite floats print bare, non-finite become
/// null (JSON has no NaN/Inf).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn csv_str(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, grind: f64, recirc: Option<f64>) -> ScenarioResult {
        ScenarioResult {
            name: name.into(),
            hash_hex: format!("{:016x}", 0xabcu64),
            status: RunStatus::Completed,
            cells: 100,
            steps: 4,
            ranks: 1,
            wall_s: 0.01,
            ns_per_cell_step: grind,
            mass_drift: 1e-15,
            energy_drift: 2e-15,
            base_heating: recirc.map(|f| BaseHeatingReport {
                recirculation_flux: f,
                ..Default::default()
            }),
            series: None,
            resumed_from: None,
            actions: None,
            recoveries: None,
        }
    }

    fn report() -> CampaignReport {
        CampaignReport {
            rows: vec![
                ReportRow {
                    result: Arc::new(result("a", 100.0, Some(0.5))),
                    cached: false,
                },
                ReportRow {
                    result: Arc::new(result("b", 300.0, Some(1.5))),
                    cached: false,
                },
                ReportRow {
                    result: Arc::new(result("a", 100.0, Some(0.5))),
                    cached: true,
                },
            ],
            executed: 2,
            cache_hits: 1,
            workers: 2,
            batch_wall_s: 0.5,
        }
    }

    #[test]
    fn aggregates_count_executed_rows_only() {
        let r = report();
        assert_eq!(r.cell_steps_executed(), 2 * 400);
        assert!((r.mean_grind() - (100.0 + 300.0 + 100.0) / 3.0).abs() < 1e-12);
        assert_eq!(r.worst_base_heating().unwrap().result.name, "b");
    }

    #[test]
    fn json_has_summary_and_all_rows() {
        let j = report().to_json();
        assert!(j.contains("\"executed\": 2"));
        assert!(j.contains("\"cache_hits\": 1"));
        assert_eq!(j.matches("\"name\"").count(), 3);
        assert!(j.contains("\"base_heating\""));
        // Balanced braces (cheap well-formedness check).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn csv_row_count_matches() {
        let c = report().to_csv();
        assert_eq!(c.lines().count(), 4, "header + 3 rows");
        assert!(c.lines().nth(3).unwrap().starts_with("a,"));
    }

    #[test]
    fn action_log_renders_in_json_and_counts_in_csv() {
        let mut r = result("ctrl", 100.0, Some(0.5));
        r.actions = Some(vec![
            ActionRecord {
                step: 3,
                t: 0.1,
                action: Action::EngineOut { engine: 1 },
            },
            ActionRecord {
                step: 5,
                t: 0.2,
                action: Action::SetGimbal {
                    engine: 0,
                    target: [0.05, 0.0],
                    rate: f64::INFINITY, // non-finite params render as null
                },
            },
        ]);
        let rep = CampaignReport {
            rows: vec![ReportRow {
                result: Arc::new(r),
                cached: false,
            }],
            executed: 1,
            cache_hits: 0,
            workers: 1,
            batch_wall_s: 0.1,
        };
        let j = rep.to_json();
        assert!(j.contains("\"actions\": ["), "{j}");
        assert!(j.contains("\"kind\": \"engine_out\""), "{j}");
        assert!(j.contains("\"rate\": null"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let c = rep.to_csv();
        assert!(c.lines().next().unwrap().ends_with(",actions,recoveries"));
        // 2 actions; no recovery log → empty trailing field.
        assert!(c.lines().nth(1).unwrap().ends_with(",2,"), "{c}");
    }

    #[test]
    fn recovery_log_renders_in_json_and_counts_in_csv() {
        let mut r = result("healed", 100.0, None);
        r.recoveries = Some(vec![igr_app::recovery::RecoveryRecord {
            trip_step: 40,
            rollback_step: 32,
            rollback_t: 0.4,
            prev_dt: f64::NAN, // "was adaptive" renders as null
            backoff_dt: 5e-5,
            hold_until: 64,
            retry: 1,
        }]);
        let rep = CampaignReport {
            rows: vec![ReportRow {
                result: Arc::new(r),
                cached: false,
            }],
            executed: 1,
            cache_hits: 0,
            workers: 1,
            batch_wall_s: 0.1,
        };
        let j = rep.to_json();
        assert!(j.contains("\"recoveries\": ["), "{j}");
        assert!(j.contains("\"trip_step\": 40"), "{j}");
        assert!(j.contains("\"prev_dt\": null"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let c = rep.to_csv();
        // No action log → empty field; 1 recovery.
        assert!(c.lines().nth(1).unwrap().ends_with(",,1"), "{c}");
    }

    #[test]
    fn json_escapes_strings_and_nonfinite() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
