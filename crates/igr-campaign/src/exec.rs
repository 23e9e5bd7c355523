//! The sharded campaign executor.
//!
//! Scenarios are deduplicated by content hash, looked up in the
//! [`ResultStore`], and the remainder executed on a pool of worker threads
//! that pull jobs from a shared cursor (work stealing at job granularity:
//! a worker that finishes a cheap 1-D scenario immediately steals the next
//! pending one while a 3-D scenario still occupies its neighbor). Each
//! worker runs its solver inside a `rayon` pool sized to its share of the
//! machine, so one campaign saturates the host without oversubscribing it;
//! decomposed scenarios (`ranks > 1`) additionally spread one run over
//! `igr-comm` thread-ranks inside the worker's slot.

use crate::report::{CampaignReport, ReportRow, RunStatus, ScenarioResult, ScenarioSeries};
use crate::spec::{ScenarioSpec, SchemeKind};
use crate::store::ResultStore;
use igr_app::base::BaseHeatingReport;
use igr_app::cases::CaseSetup;
use igr_app::checkpoint::CheckpointScalar;
use igr_app::diagnostics::History;
use igr_app::driver::{
    Cadence, Checkpointable, DiagnosticsObserver, Driver, DriverError, GimbalFeedbackController,
    StopCondition,
};
use igr_app::parallel::{rank_ckpt_path, run_decomposed, DecompCheckpointing};
use igr_core::solver::{BcGhostOps, RhsScheme, Solver, SolverError};
use igr_core::Fields;
use igr_prec::{PrecisionMode, Real, Storage, StoreF16, StoreF32, StoreF64};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// Concurrent scenario workers.
    pub workers: usize,
    /// `rayon` threads each worker's solver uses. 0 = machine parallelism
    /// divided evenly among workers (at least 1).
    pub threads_per_worker: usize,
    /// Directory for per-scenario restart files (`<hash>.ckpt`). When set
    /// and a spec asks for [`crate::spec::ScenarioSpec::checkpoint_every`],
    /// workers autosave while running and *resume* from an existing file on
    /// the next submission — an interrupted campaign re-enters mid-flight
    /// instead of restarting every scenario. Files are removed once their
    /// scenario completes (the result store takes over from there).
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecConfig {
            workers: cores.clamp(1, 8),
            threads_per_worker: 0,
            checkpoint_dir: None,
        }
    }
}

impl ExecConfig {
    /// `workers` concurrent scenario workers, solver threads split evenly.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        ExecConfig {
            workers,
            ..Default::default()
        }
    }

    pub(crate) fn solver_threads(&self) -> usize {
        if self.threads_per_worker > 0 {
            return self.threads_per_worker;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        (cores / self.workers).max(1)
    }
}

/// A campaign session: an executor plus its result cache. Batches submitted
/// through one `Campaign` share the cache, so iterating on a sweep re-runs
/// only the scenarios that changed.
pub struct Campaign {
    cfg: ExecConfig,
    store: ResultStore,
}

impl Campaign {
    /// A campaign session over a fresh in-memory result cache.
    pub fn new(cfg: ExecConfig) -> Self {
        Campaign {
            cfg,
            store: ResultStore::new(),
        }
    }

    /// A campaign over an existing store — e.g. one recovered from disk via
    /// [`ResultStore::open`], or handed over from a finished
    /// [`crate::queue::CampaignQueue`].
    pub fn with_store(cfg: ExecConfig, store: ResultStore) -> Self {
        Campaign { cfg, store }
    }

    /// A campaign whose cache is backed by the JSON-lines store file at
    /// `path` (created if absent): results recorded by earlier processes
    /// are served as cache hits, and results executed here are appended for
    /// later ones.
    pub fn open(cfg: ExecConfig, path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Campaign {
            cfg,
            store: ResultStore::open(path)?,
        })
    }

    /// The result cache (hit/miss counters, size).
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// Hand the cache off (e.g. to a [`crate::queue::CampaignQueue`] that
    /// should keep serving it).
    pub fn into_store(self) -> ResultStore {
        self.store
    }

    /// Run a batch of scenarios and report per-scenario results in
    /// submission order. Duplicates (within the batch or vs. earlier
    /// batches) are served from the cache; only unique, uncached scenarios
    /// are simulated.
    pub fn run(&mut self, specs: &[ScenarioSpec]) -> CampaignReport {
        let t0 = Instant::now();

        // Normalize and hash every submission.
        let submissions: Vec<(ScenarioSpec, u64)> = specs
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.normalize();
                let h = s.content_hash();
                (s, h)
            })
            .collect();

        // Plan: first unsettled occurrence of each hash becomes a job. A
        // settled entry (completed, or a quarantined/permanent failure) is
        // served from the cache; a transient failure with retry budget
        // left is treated as absent and re-executed (see docs/RECOVERY.md).
        let mut first_occurrence: HashMap<u64, usize> = HashMap::new();
        let mut jobs: Vec<(ScenarioSpec, u64)> = Vec::new();
        for (spec, hash) in &submissions {
            if self.store.settled(*hash) || first_occurrence.contains_key(hash) {
                continue;
            }
            first_occurrence.insert(*hash, jobs.len());
            // Record the miss now (planning *is* the cache lookup that
            // fails); the execution below fills the entry.
            let _ = self.store.fetch(*hash);
            jobs.push((spec.clone(), *hash));
        }

        // Execute the job list on the worker pool.
        let workers = self.cfg.workers.min(jobs.len()).max(1);
        let solver_threads = self.cfg.solver_threads();
        let executed = jobs.len();
        if !jobs.is_empty() {
            let cursor = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<ScenarioResult>>> =
                jobs.iter().map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let pool = rayon::ThreadPoolBuilder::new()
                            .num_threads(solver_threads)
                            .build()
                            .expect("rayon pool");
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs.len() {
                                break;
                            }
                            // run_scenario_caught absorbs panics into
                            // Failed rows, so one diverging/buggy scenario
                            // cannot take down the batch; a poisoned slot
                            // (a *previous* panic between lock and store)
                            // is recovered the same way.
                            let ckpt_dir = self.cfg.checkpoint_dir.as_deref();
                            let result =
                                pool.install(|| run_scenario_caught_with(&jobs[i].0, ckpt_dir));
                            match slots[i].lock() {
                                Ok(mut slot) => *slot = Some(result),
                                Err(poisoned) => *poisoned.into_inner() = Some(result),
                            }
                        }
                    });
                }
            });
            for ((spec, hash), slot) in jobs.iter().zip(slots) {
                let result = slot
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .unwrap_or_else(|| {
                        // A worker claimed the slot and died before filling
                        // it — record the scenario as failed rather than
                        // aborting the whole ensemble.
                        failed_result(spec, "worker died before reporting a result".into())
                    });
                self.store.insert(*hash, result);
            }
        }

        // Assemble rows in submission order; everything not in the job
        // list's first-occurrence slot is a cache-served row.
        let mut rows = Vec::with_capacity(submissions.len());
        let mut job_slot_used: Vec<bool> = vec![false; executed];
        let mut cache_hits = 0usize;
        for (_, hash) in &submissions {
            let fresh = match first_occurrence.get(hash) {
                Some(&j) if !job_slot_used[j] => {
                    job_slot_used[j] = true;
                    true
                }
                _ => false,
            };
            // Fresh rows read back the result they just produced — that is
            // not cache traffic, so bypass the hit counter; cache-served
            // rows go through the counting fetch.
            let result = if fresh {
                self.store
                    .peek(*hash)
                    .cloned()
                    .expect("every executed job was inserted")
            } else {
                cache_hits += 1;
                self.store
                    .fetch(*hash)
                    .expect("every submission is in the store by now")
            };
            rows.push(ReportRow {
                result,
                cached: !fresh,
            });
        }

        CampaignReport {
            rows,
            executed,
            cache_hits,
            workers,
            batch_wall_s: t0.elapsed().as_secs_f64(),
        }
    }
}

/// The `Failed` record for a scenario that produced no measurement.
fn failed_result(spec: &ScenarioSpec, msg: String) -> ScenarioResult {
    ScenarioResult {
        name: spec.scenario_name(),
        hash_hex: spec.hash_hex(),
        status: RunStatus::Failed(msg),
        cells: 0,
        steps: spec.steps,
        ranks: spec.ranks.unwrap_or(1),
        wall_s: 0.0,
        ns_per_cell_step: 0.0,
        mass_drift: 0.0,
        energy_drift: 0.0,
        base_heating: None,
        series: None,
        resumed_from: None,
        actions: None,
        recoveries: None,
    }
}

/// [`run_scenario`] hardened for worker pools: a panic anywhere in the
/// solver stack is caught and recorded as a [`RunStatus::Failed`] result,
/// so one bad scenario degrades to one failed row instead of poisoning
/// slot mutexes and killing the whole ensemble.
pub fn run_scenario_caught(spec: &ScenarioSpec) -> ScenarioResult {
    run_scenario_caught_with(spec, None)
}

/// [`run_scenario_caught`] with an optional restart-file directory (the
/// executor threads [`ExecConfig::checkpoint_dir`] through here).
pub fn run_scenario_caught_with(
    spec: &ScenarioSpec,
    checkpoint_dir: Option<&std::path::Path>,
) -> ScenarioResult {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        panic_injection(spec);
        run_scenario_with(spec, checkpoint_dir)
    }));
    match caught {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            failed_result(spec, format!("worker panicked: {msg}"))
        }
    }
}

/// Test-only fault injection: lets the poison-recovery tests force a panic
/// inside a worker without a real solver bug. Labels are excluded from the
/// content hash, so the trigger does not perturb the cache keying under
/// test.
#[cfg(test)]
fn panic_injection(spec: &ScenarioSpec) {
    if spec.label.as_deref() == Some("__panic_injection__") {
        panic!("injected panic (test hook)");
    }
}

/// Test-only chaos injection: a label of `__nan_inject_<step>__` arms the
/// driver's one-shot NaN injection at that absolute step, so the recovery
/// tests can poison a run mid-flight through the public executor path.
/// Labels are hash-excluded, so the armed and clean submissions share a
/// cache key — which is exactly what the chaos tests exercise.
#[cfg(test)]
fn nan_inject_step(spec: &ScenarioSpec) -> Option<usize> {
    spec.label
        .as_deref()?
        .strip_prefix("__nan_inject_")?
        .strip_suffix("__")?
        .parse()
        .ok()
}

/// Run one scenario to completion (never panics on solver divergence: the
/// failure becomes a `RunStatus::Failed` row).
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioResult {
    run_scenario_with(spec, None)
}

/// [`run_scenario`] with an optional restart-file directory: when the spec
/// enables checkpointing and `<dir>/<hash>.ckpt` exists, the run resumes
/// from it bit-exactly instead of starting over.
pub fn run_scenario_with(
    spec: &ScenarioSpec,
    checkpoint_dir: Option<&std::path::Path>,
) -> ScenarioResult {
    let case = match spec.build_case() {
        Ok(c) => c,
        Err(e) => return failed_result(spec, e.to_string()),
    };
    // Restart files are in play only when the spec asks for them AND the
    // executor has somewhere to put them.
    let checkpoint_dir = checkpoint_dir.filter(|_| spec.checkpoint_every.is_some());
    if let Some(dir) = checkpoint_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return failed_result(spec, format!("checkpoint dir {dir:?}: {e}"));
        }
    }
    if spec.ranks.is_some_and(|r| r > 1) {
        return run_decomposed_scenario_with(spec, &case, checkpoint_dir);
    }
    let ckpt = checkpoint_dir.map(|dir| dir.join(format!("{}.ckpt", spec.hash_hex())));
    match (spec.scheme, spec.precision) {
        (SchemeKind::Igr, PrecisionMode::Fp64) => run_igr::<f64, StoreF64>(spec, &case, ckpt),
        (SchemeKind::Igr, PrecisionMode::Fp32) => run_igr::<f32, StoreF32>(spec, &case, ckpt),
        (SchemeKind::Igr, PrecisionMode::Fp16Fp32) => run_igr::<f32, StoreF16>(spec, &case, ckpt),
        (SchemeKind::WenoBaseline, PrecisionMode::Fp64) => {
            run_weno::<f64, StoreF64>(spec, &case, ckpt)
        }
        (SchemeKind::WenoBaseline, PrecisionMode::Fp32) => {
            run_weno::<f32, StoreF32>(spec, &case, ckpt)
        }
        (SchemeKind::WenoBaseline, PrecisionMode::Fp16Fp32) => {
            run_weno::<f32, StoreF16>(spec, &case, ckpt)
        }
    }
}

fn run_igr<R, S>(spec: &ScenarioSpec, case: &CaseSetup, ckpt: Option<PathBuf>) -> ScenarioResult
where
    R: Real,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
{
    let cfg = spec.igr_config(case);
    let mut solver = igr_core::solver::igr_solver::<R, S>(cfg, case.domain, case.init_state());
    drive(spec, case, &mut solver, ckpt)
}

fn run_weno<R, S>(spec: &ScenarioSpec, case: &CaseSetup, ckpt: Option<PathBuf>) -> ScenarioResult
where
    R: Real,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
{
    let cfg = spec.weno_config(case);
    let mut solver = igr_baseline::scheme::weno_solver::<R, S>(cfg, case.domain, case.init_state());
    drive(spec, case, &mut solver, ckpt)
}

/// Shared measurement path, marched through the unified [`Driver`]: grind
/// timing, conservation drift, base heating, and — when the spec asks —
/// an in-flight diagnostics series, a feedback controller, divergence
/// recovery and checkpoint autosave/resume, each one capability attached to
/// the same driver.
///
/// The timing contract matches `igr_app::grind`: untimed warm-up steps with
/// the per-step NaN check on, then a frozen dt and a check-free timed
/// region (observer cost rides inside it — it is part of running *this*
/// scenario), then one explicit divergence scan.
fn drive<R, S, Sch>(
    spec: &ScenarioSpec,
    case: &CaseSetup,
    solver: &mut Solver<R, S, Sch, BcGhostOps>,
    ckpt: Option<PathBuf>,
) -> ScenarioResult
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
    Solver<R, S, Sch, BcGhostOps>: Checkpointable,
{
    let totals0 = solver.q.totals(&case.domain);
    let total_steps = spec.warmup + spec.steps;
    let mut resumed_from = None;
    let mut history = History::new();

    let mut run = || -> Result<_, DriverError> {
        let mut driver = Driver::new().stop_when(StopCondition::StepReached(total_steps));
        if let Some(every) = spec.series_every {
            driver = driver.observe(
                Cadence::EverySteps(every),
                DiagnosticsObserver::new(&mut history),
            );
        }
        if let Some(c) = &spec.controller {
            // Closed loop: the feedback controller fires at its cadence and
            // the driver applies + logs its actions at step boundaries.
            driver = driver.control(
                Cadence::EverySteps(c.every),
                GimbalFeedbackController {
                    gain: c.gain,
                    rate: c.rate,
                    ..GimbalFeedbackController::with_gain(c.gain)
                },
            );
        }
        if let Some(rspec) = &spec.recovery {
            // Self-healing: snapshots ring in memory, rollback + dt backoff
            // on divergence, every rollback logged.
            driver = driver.recover(rspec.to_policy());
            #[cfg(test)]
            if let Some(step) = nan_inject_step(spec) {
                driver = driver.inject_nan_at(step);
            }
        }
        if let Some(path) = &ckpt {
            driver = driver.checkpoint_to(path, spec.checkpoint_every.map(Cadence::EverySteps));
        }

        // Resume: an autosaved restart file re-enters the interrupted
        // timeline (state, Σ, clock and the frozen dt restore bit-exactly;
        // the embedded action log is replayed, both logs are seeded). A
        // foreign/stale snapshot (wrong precision, shape, or a clock outside
        // this spec's window) is refused before the solver is touched and
        // the run starts fresh.
        let restart = ckpt
            .as_ref()
            .filter(|p| p.exists())
            .and_then(|p| igr_app::Checkpoint::load(p).ok())
            .filter(|ck| ck.step >= spec.warmup && ck.step <= total_steps);
        if let Some(ck) = &restart {
            match driver.resume_from(solver, ck) {
                Ok(()) => resumed_from = Some(ck.step),
                // The file is this scenario's, but its action log does not
                // apply to the solver the spec builds: fail, don't guess.
                Err(e @ DriverError::Action(_)) => return Err(e),
                Err(_) => {}
            }
        }
        if resumed_from.is_none() {
            // Warm-up: adaptive dt, per-step NaN check (cheap insurance
            // against bad initial data), no instrumentation.
            solver.nan_check_every = 1;
            if spec.warmup > 0 {
                Driver::new().max_steps(spec.warmup).run(solver)?;
            }
            // Freeze dt so every timed step does identical work.
            solver.fixed_dt = Some(solver.stable_dt());
        }
        solver.nan_check_every = 0;

        let t0 = Instant::now();
        let summary = driver.run(solver)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let actions = driver.take_action_log().records().to_vec();
        let recoveries = driver.take_recovery_log().records().to_vec();
        // The timed region ran check-free; scan once at the end.
        if let Some((var, pos)) = solver.q.find_non_finite() {
            return Err(SolverError::NonFinite {
                step: solver.steps_taken(),
                var,
                pos,
            }
            .into());
        }
        Ok((wall_s, summary.steps, actions, recoveries))
    };

    let cells = case.domain.shape.n_interior();
    let (wall_s, steps_timed, actions, recoveries) = match run() {
        Ok(done) => done,
        Err(e) => {
            return ScenarioResult {
                name: case.name.clone(),
                cells,
                ranks: 1,
                resumed_from,
                ..failed_result(spec, e.to_string())
            }
        }
    };
    // The scenario is done: its restart file is consumed (the result store
    // serves every future submission).
    if let Some(path) = ckpt.as_ref() {
        let _ = std::fs::remove_file(path);
    }
    if !recoveries.is_empty() {
        // Re-run windows re-fire the series observer; keep the last sample
        // per step (the one from the surviving timeline) so the recorded
        // series matches an uninterrupted replay.
        let last: std::collections::BTreeMap<usize, _> =
            history.samples.drain(..).map(|sm| (sm.step, sm)).collect();
        history.samples = last.into_values().collect();
    }
    let totals1 = solver.q.totals(&case.domain);
    ScenarioResult {
        name: case.name.clone(),
        hash_hex: spec.hash_hex(),
        status: RunStatus::Completed,
        cells,
        steps: spec.steps,
        ranks: 1,
        wall_s,
        ns_per_cell_step: wall_s * 1e9 / (steps_timed.max(1) as f64 * cells as f64),
        mass_drift: rel_drift(totals0[0], totals1[0]),
        energy_drift: rel_drift(totals0[4], totals1[4]),
        base_heating: case
            .jet_inflow
            .as_ref()
            .map(|inflow| BaseHeatingReport::measure(&solver.q, &case.domain, case.gamma, inflow)),
        series: spec.series_every.map(|every| ScenarioSeries {
            every,
            samples: history.samples,
        }),
        resumed_from,
        actions: spec.controller.is_some().then_some(actions),
        recoveries: spec.recovery.is_some().then_some(recoveries),
    }
}

/// Decomposed (multi-rank) path: the whole run goes through `igr-app`'s
/// rank launcher, which has no warmup/timed split — so every step marched
/// (warmup included) is timed and the grind normalizes by that count. The
/// timer necessarily wraps rank spawn/gather too, so the number is an upper
/// bound relative to the single-block path.
///
/// Takes the restart-file directory (already created by the caller).
/// When the spec enables checkpointing, each rank autosaves its shard to
/// `<dir>/<hash>.rank<N>.ckpt`; a resubmission whose per-rank file set is
/// complete and consistent resumes mid-flight (on *any* node holding the
/// files — the trailer pins the decomposition, not the machine), and the
/// files are consumed on completion like the single-block `<hash>.ckpt`.
fn run_decomposed_scenario_with(
    spec: &ScenarioSpec,
    case: &CaseSetup,
    checkpoint_dir: Option<&std::path::Path>,
) -> ScenarioResult {
    let ranks = spec.ranks.unwrap_or(1);
    let cfg = spec.igr_config(case);
    let init = case.init.clone();
    let steps = spec.warmup + spec.steps;
    let cells = case.domain.shape.n_interior();
    let ckpt = checkpoint_dir
        .zip(spec.checkpoint_every)
        .map(|(dir, every)| DecompCheckpointing {
            dir: dir.to_path_buf(),
            stem: spec.hash_hex(),
            every,
        });
    let t0 = Instant::now();
    let run = run_decomposed::<f64, StoreF64>(
        &cfg,
        &case.domain,
        ranks,
        steps,
        move |p| init(p),
        ckpt.clone(),
        &[],
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let totals0: [f64; 5] = case.init_state::<f64, StoreF64>().totals(&case.domain);
    let totals1 = run.state.totals(&case.domain);
    let status = match run.state.find_non_finite() {
        None => RunStatus::Completed,
        Some((var, pos)) => RunStatus::Failed(format!(
            "non-finite value in variable {var} at {pos:?} after decomposed run"
        )),
    };
    if let (Some(c), RunStatus::Completed) = (&ckpt, &status) {
        // Completed: the per-rank restart set is consumed, same contract as
        // the single-block `<hash>.ckpt`.
        for rank in 0..ranks {
            let _ = std::fs::remove_file(rank_ckpt_path(&c.dir, &c.stem, rank));
        }
    }
    let base_heating = case
        .jet_inflow
        .as_ref()
        .map(|inflow| BaseHeatingReport::measure(&run.state, &case.domain, case.gamma, inflow));
    // A resumed run marched (and timed) only the steps past its restart.
    let steps_timed = steps - run.resumed_from.unwrap_or(0);
    ScenarioResult {
        name: case.name.clone(),
        hash_hex: spec.hash_hex(),
        status,
        cells,
        // Every step of the decomposed run counts as measured, so the
        // reported step count is the full total.
        steps,
        ranks,
        wall_s,
        ns_per_cell_step: wall_s * 1e9 / (steps_timed.max(1) as f64 * cells as f64),
        mass_drift: rel_drift(totals0[0], totals1[0]),
        energy_drift: rel_drift(totals0[4], totals1[4]),
        base_heating,
        series: None,
        resumed_from: run.resumed_from,
        actions: None,
        recoveries: None,
    }
}

fn rel_drift(before: f64, after: f64) -> f64 {
    (after - before).abs() / before.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BaseCase;
    use igr_app::recovery::RecoveryRecord;

    fn quick_spec() -> ScenarioSpec {
        let mut s = ScenarioSpec::new(BaseCase::SteepeningWave { amp: 0.2 }, 48);
        s.warmup = 1;
        s.steps = 2;
        s
    }

    #[test]
    fn duplicated_scenarios_are_served_from_cache() {
        let mut campaign = Campaign::new(ExecConfig {
            workers: 2,
            threads_per_worker: 1,
            ..Default::default()
        });
        let a = quick_spec();
        let mut b = quick_spec();
        b.resolution = 64;
        // Submit A twice and B once: 3 rows, 2 simulations.
        let report = campaign.run(&[a.clone(), b.clone(), a.clone()]);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.executed, 2, "run count == unique count");
        assert_eq!(report.cache_hits, 1);
        assert!(!report.rows[0].cached);
        assert!(!report.rows[1].cached);
        assert!(report.rows[2].cached);
        // Resubmitting the whole batch is all cache hits.
        let again = campaign.run(&[a, b]);
        assert_eq!(again.executed, 0);
        assert_eq!(again.cache_hits, 2);
        assert!(again.rows.iter().all(|r| r.cached));
        assert_eq!(campaign.store().len(), 2);
    }

    #[test]
    fn cached_rows_match_executed_rows_bit_for_bit_in_physics() {
        let mut campaign = Campaign::new(ExecConfig {
            workers: 1,
            threads_per_worker: 1,
            ..Default::default()
        });
        let spec = quick_spec();
        let first = campaign.run(std::slice::from_ref(&spec));
        let second = campaign.run(std::slice::from_ref(&spec));
        let (a, b) = (&first.rows[0].result, &second.rows[0].result);
        assert_eq!(a.hash_hex, b.hash_hex);
        assert_eq!(a.mass_drift.to_bits(), b.mass_drift.to_bits());
        assert_eq!(a.energy_drift.to_bits(), b.energy_drift.to_bits());
        assert!(second.rows[0].cached);
    }

    #[test]
    fn invalid_specs_become_failed_rows_not_panics() {
        let mut bad = ScenarioSpec::new(BaseCase::Sod, 64);
        bad.backpressure = Some(0.5); // non-jet case: invalid override
        let mut campaign = Campaign::new(ExecConfig {
            workers: 1,
            threads_per_worker: 1,
            ..Default::default()
        });
        let report = campaign.run(std::slice::from_ref(&bad));
        assert_eq!(report.rows.len(), 1);
        assert!(matches!(report.rows[0].result.status, RunStatus::Failed(_)));
        // Failed results cache too: a resubmission is not re-attempted.
        let again = campaign.run(std::slice::from_ref(&bad));
        assert_eq!(again.executed, 0);
    }

    #[test]
    fn panicking_worker_fails_one_row_not_the_batch() {
        // One scenario panics inside the worker (injected via the
        // test-only label hook); the other is healthy. The batch must
        // complete, with the panic recorded as a Failed row — not abort
        // via a poisoned slot mutex.
        let mut panics = quick_spec();
        panics.label = Some("__panic_injection__".into());
        // Distinct physics: labels are hash-excluded, so without this the
        // two specs would dedup onto one job.
        let mut healthy = quick_spec();
        healthy.resolution = 64;
        let mut campaign = Campaign::new(ExecConfig {
            workers: 2,
            threads_per_worker: 1,
            ..Default::default()
        });
        let report = campaign.run(&[panics.clone(), healthy.clone()]);
        assert_eq!(report.rows.len(), 2);
        match &report.rows[0].result.status {
            RunStatus::Failed(msg) => assert!(msg.contains("panicked"), "{msg}"),
            s => panic!("expected Failed, got {s:?}"),
        }
        assert!(report.rows[1].result.status.is_ok());
        // A worker panic is a *transient* failure: resubmission re-executes
        // (the retry could land on a healthy worker) until the quarantine
        // budget runs out, after which the cached failure is served.
        for attempt in 2..=crate::store::QUARANTINE_AFTER {
            let again = campaign.run(std::slice::from_ref(&panics));
            assert_eq!(again.executed, 1, "attempt {attempt} re-executes");
            assert!(!again.rows[0].cached);
        }
        let quarantined = campaign.run(&[panics]);
        assert_eq!(quarantined.executed, 0, "quarantined: no more compute");
        assert!(quarantined.rows[0].cached);
    }

    #[test]
    fn series_request_rides_in_the_result_and_the_cache() {
        let mut spec = quick_spec();
        spec.warmup = 1;
        spec.steps = 6;
        spec.series_every = Some(2);
        let mut campaign = Campaign::new(ExecConfig {
            workers: 1,
            threads_per_worker: 1,
            ..Default::default()
        });
        let report = campaign.run(std::slice::from_ref(&spec));
        let r = &report.rows[0].result;
        assert!(r.status.is_ok(), "{:?}", r.status);
        let series = r.series.as_ref().expect("series requested");
        assert_eq!(series.every, 2);
        // Timed steps are absolute steps 2..=7; cadence fires on 2, 4, 6.
        let steps: Vec<usize> = series.samples.iter().map(|s| s.step).collect();
        assert_eq!(steps, vec![2, 4, 6]);
        assert!(series.samples.iter().all(|s| s.min_rho > 0.0));
        // A cached resubmission serves the same series.
        let again = campaign.run(std::slice::from_ref(&spec));
        assert_eq!(again.executed, 0);
        let cached = again.rows[0].result.series.as_ref().unwrap();
        assert_eq!(cached.samples.len(), 3);
        // And a spec without a series keys a *different* cache entry.
        let mut plain = spec.clone();
        plain.series_every = None;
        assert_ne!(plain.content_hash(), spec.content_hash());
    }

    #[test]
    fn interrupted_scenario_resumes_from_its_restart_file_bitwise() {
        use igr_app::driver::{Checkpointable, Driver};

        let dir = std::env::temp_dir().join("igr_exec_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut spec = quick_spec();
        spec.warmup = 2;
        spec.steps = 3;
        spec.checkpoint_every = Some(1);

        // The ground truth: the same spec run start-to-finish.
        let fresh = run_scenario(&spec);
        assert!(fresh.status.is_ok());
        assert!(fresh.resumed_from.is_none());

        // Simulate an interrupted worker: march exactly as `drive` does
        // (warm-up with NaN checks, freeze dt, one timed step), then
        // "crash", leaving only the autosaved restart file behind.
        let case = spec.build_case().unwrap();
        let cfg = spec.igr_config(&case);
        let mut solver =
            igr_core::solver::igr_solver::<f64, StoreF64>(cfg, case.domain, case.init_state());
        solver.nan_check_every = 1;
        Driver::new()
            .max_steps(spec.warmup)
            .run(&mut solver)
            .unwrap();
        solver.fixed_dt = Some(solver.stable_dt());
        solver.nan_check_every = 0;
        Driver::new().max_steps(1).run(&mut solver).unwrap();
        let path = dir.join(format!("{}.ckpt", spec.hash_hex()));
        solver.capture().save(&path).unwrap();

        // The resubmission resumes mid-flight...
        let resumed = run_scenario_with(&spec, Some(&dir));
        assert!(resumed.status.is_ok(), "{:?}", resumed.status);
        assert_eq!(resumed.resumed_from, Some(spec.warmup + 1));
        // ...reaches the identical final state (drift metrics are functions
        // of the final state, so they must agree bit for bit)...
        assert_eq!(resumed.mass_drift.to_bits(), fresh.mass_drift.to_bits());
        assert_eq!(resumed.energy_drift.to_bits(), fresh.energy_drift.to_bits());
        // ...and consumes the restart file on completion.
        assert!(!path.exists(), "completed scenario keeps no restart file");

        // A stale restart file whose clock is outside this spec's window
        // must be ignored *without touching the solver*: the run starts
        // from scratch and still reproduces the fresh result bit for bit.
        let mut early = igr_core::solver::igr_solver::<f64, StoreF64>(
            spec.igr_config(&case),
            case.domain,
            case.init_state(),
        );
        Driver::new().max_steps(1).run(&mut early).unwrap(); // step 1 < warmup
        early.capture().save(&path).unwrap();
        let scratch = run_scenario_with(&spec, Some(&dir));
        assert!(scratch.status.is_ok(), "{:?}", scratch.status);
        assert!(
            scratch.resumed_from.is_none(),
            "stale clock must not resume"
        );
        assert_eq!(scratch.mass_drift.to_bits(), fresh.mass_drift.to_bits());
        assert_eq!(scratch.energy_drift.to_bits(), fresh.energy_drift.to_bits());
    }

    #[test]
    fn closed_loop_scenario_records_its_actions_and_caches_them() {
        use crate::spec::ControllerSpec;

        // Engine 0 is out from the start, so the base-heating centroid sits
        // off-center and the proportional controller has an error signal.
        let mut spec = ScenarioSpec::new(BaseCase::EngineRow2d { engines: 3 }, 32);
        spec.warmup = 1;
        spec.steps = 12;
        spec.engine_out = vec![0];
        spec.controller = Some(ControllerSpec {
            gain: 1.5,
            rate: 0.0,
            every: 2,
        });
        let mut campaign = Campaign::new(ExecConfig {
            workers: 1,
            threads_per_worker: 1,
            ..Default::default()
        });
        let report = campaign.run(std::slice::from_ref(&spec));
        let r = &report.rows[0].result;
        assert!(r.status.is_ok(), "{:?}", r.status);
        let actions = r
            .actions
            .as_ref()
            .expect("closed-loop result carries its log");
        // Every applied action is a gimbal command (that is all this
        // controller emits), clamped to its authority limit.
        for rec in actions {
            match &rec.action {
                igr_app::Action::SetGimbal { target, .. } => {
                    assert!(target[0].abs() <= 0.35 && target[1].abs() <= 0.35);
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(
            r.name.contains("+ctrl1.50"),
            "controller shows in the name: {}",
            r.name
        );

        // Cached resubmission serves the identical log.
        let again = campaign.run(std::slice::from_ref(&spec));
        assert_eq!(again.executed, 0);
        let cached = again.rows[0].result.actions.as_ref().unwrap();
        assert_eq!(cached.len(), actions.len());

        // The open-loop point is distinct physics (and carries no log).
        let mut open = spec.clone();
        open.controller = None;
        assert_ne!(open.content_hash(), spec.content_hash());
    }

    #[test]
    fn jet_scenarios_carry_base_heating_and_grind() {
        let mut spec = ScenarioSpec::new(BaseCase::EngineRow2d { engines: 3 }, 16);
        spec.warmup = 1;
        spec.steps = 2;
        let result = run_scenario(&spec);
        assert!(result.status.is_ok(), "{:?}", result.status);
        assert!(result.base_heating.is_some());
        assert!(result.ns_per_cell_step > 0.0);
        assert_eq!(result.cells, 32 * 16);
    }

    #[test]
    fn preempted_decomposed_scenario_resumes_from_rank_files_bitwise() {
        // A ranks=2 scenario preempted mid-flight leaves one restart file
        // per rank; resubmitting the spec against that directory must pick
        // up at the cut (not t = 0) and land on the identical physics. The
        // rank files are decomposition-keyed, not machine-keyed, so this is
        // exactly the cross-node failover path the federation tier uses.
        let mut spec = ScenarioSpec::new(BaseCase::EngineRow2d { engines: 3 }, 16);
        spec.warmup = 0;
        spec.steps = 4;
        spec.ranks = Some(2);
        spec.checkpoint_every = Some(1);
        spec.validate().expect("decomposed checkpointing is legal");
        let case = spec.build_case().unwrap();
        let dir = std::env::temp_dir().join("igr_exec_rank_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();

        let fresh = run_scenario(&spec);
        assert!(fresh.status.is_ok(), "{:?}", fresh.status);
        assert!(fresh.resumed_from.is_none());

        // Preempt: march the same spec's physics for 2 of 4 steps with
        // autosave on, as the worker on the dying node would have.
        let cfg = spec.igr_config(&case);
        let init = case.init.clone();
        let cut = run_decomposed::<f64, StoreF64>(
            &cfg,
            &case.domain,
            2,
            2,
            move |p| init(p),
            Some(DecompCheckpointing {
                dir: dir.clone(),
                stem: spec.hash_hex(),
                every: 1,
            }),
            &[],
        );
        assert!(cut.resumed_from.is_none());
        for rank in 0..2 {
            assert!(rank_ckpt_path(&dir, &spec.hash_hex(), rank).exists());
        }

        // Resubmission (on "another node" holding the files): resumes at
        // the cut, reproduces the uninterrupted physics bit for bit, and
        // consumes the restart set.
        let resumed = run_scenario_with(&spec, Some(&dir));
        assert!(resumed.status.is_ok(), "{:?}", resumed.status);
        assert_eq!(resumed.resumed_from, Some(2), "must not restart from t=0");
        // Only the 2 steps past the cut were marched and timed: the grind
        // normalizes by those, not by the scenario's 4.
        let per_marched_step = resumed.wall_s * 1e9 / (2.0 * resumed.cells as f64);
        assert_eq!(
            resumed.ns_per_cell_step.to_bits(),
            per_marched_step.to_bits(),
            "a resumed run must not dilute its grind with steps it never ran"
        );
        assert_eq!(resumed.mass_drift.to_bits(), fresh.mass_drift.to_bits());
        assert_eq!(resumed.energy_drift.to_bits(), fresh.energy_drift.to_bits());
        for rank in 0..2 {
            assert!(
                !rank_ckpt_path(&dir, &spec.hash_hex(), rank).exists(),
                "completed scenario keeps no rank restart files"
            );
        }
    }

    #[test]
    fn decomposed_scenario_is_rank_count_invariant() {
        // 1-rank and 2-rank decomposed runs take the identical adaptive-dt
        // path (rank-order reductions are deterministic), so the gathered
        // physics must agree to rounding. (The single-block executor path
        // is *not* comparable here: grind measurement freezes dt.)
        let mut spec = ScenarioSpec::new(BaseCase::EngineRow2d { engines: 3 }, 16);
        spec.warmup = 0;
        spec.steps = 2;
        spec.ranks = Some(2);
        let case = spec.build_case().unwrap();
        let one = {
            let mut s = spec.clone();
            s.ranks = Some(1);
            run_decomposed_scenario_with(&s, &case, None)
        };
        let two = run_decomposed_scenario_with(&spec, &case, None);
        assert!(two.status.is_ok(), "{:?}", two.status);
        assert_eq!(two.ranks, 2);
        let (a, b) = (
            one.base_heating.as_ref().unwrap(),
            two.base_heating.as_ref().unwrap(),
        );
        assert!(
            (a.mean_pressure - b.mean_pressure).abs() <= 1e-12 * a.mean_pressure.abs().max(1.0),
            "1 rank {} vs 2 ranks {}",
            a.mean_pressure,
            b.mean_pressure
        );
        assert!(
            (a.recirculation_flux - b.recirculation_flux).abs()
                <= 1e-12 * a.recirculation_flux.abs().max(1.0),
            "1 rank {} vs 2 ranks {}",
            a.recirculation_flux,
            b.recirculation_flux
        );
    }

    fn recovery_spec() -> crate::spec::RecoverySpec {
        crate::spec::RecoverySpec {
            snapshot_ring_depth: 2,
            snapshot_every: 4,
            max_retries: 3,
            dt_backoff_factor: 0.5,
            backoff_hold_steps: 4,
        }
    }

    /// `quick_spec` stretched to 12 total steps with recovery armed: room
    /// for a snapshot at 4, the chaos injection at 6, and a full backoff
    /// hold before the end.
    fn armed_spec() -> ScenarioSpec {
        let mut s = quick_spec();
        s.warmup = 2;
        s.steps = 10;
        s.recovery = Some(recovery_spec());
        s
    }

    /// `RecoveryRecord` carries NaN-able floats, so it has no `PartialEq`;
    /// compare the logs field by field at bit granularity.
    fn assert_recoveries_bit_equal(a: &[RecoveryRecord], b: &[RecoveryRecord]) {
        assert_eq!(a.len(), b.len(), "recovery log lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.trip_step, y.trip_step, "record {i}");
            assert_eq!(x.rollback_step, y.rollback_step, "record {i}");
            assert_eq!(x.rollback_t.to_bits(), y.rollback_t.to_bits(), "record {i}");
            assert_eq!(x.prev_dt.to_bits(), y.prev_dt.to_bits(), "record {i}");
            assert_eq!(x.backoff_dt.to_bits(), y.backoff_dt.to_bits(), "record {i}");
            assert_eq!(x.hold_until, y.hold_until, "record {i}");
            assert_eq!(x.retry, y.retry, "record {i}");
        }
    }

    #[test]
    fn chaos_nan_injection_self_heals_with_zero_failed_rows() {
        // One scenario is poisoned mid-flight (via the test-only label
        // hook); both have recovery armed. The campaign must come back
        // with zero Failed rows: the poisoned run rolls back, backs off,
        // and completes — and its row carries the rollback history.
        let mut poisoned = armed_spec();
        poisoned.label = Some("__nan_inject_6__".into());
        // Distinct physics so the two specs don't dedup onto one job
        // (labels are hash-excluded).
        let mut healthy = armed_spec();
        healthy.resolution = 64;
        let mut campaign = Campaign::new(ExecConfig {
            workers: 2,
            threads_per_worker: 1,
            ..Default::default()
        });
        let report = campaign.run(&[poisoned, healthy]);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(
                row.result.status.is_ok(),
                "self-healing run must not fail: {:?}",
                row.result.status
            );
        }
        let recs = report.rows[0].result.recoveries.as_ref().unwrap();
        assert!(!recs.is_empty(), "the poisoned run logs its rollback");
        assert_eq!(recs[0].trip_step, 6, "trip at the injection boundary");
        assert_eq!(recs[0].rollback_step, 4, "rollback to the last snapshot");
        // Armed but never tripped: the log is present and empty — the
        // report distinguishes "no divergence" from "recovery off".
        let clean = report.rows[1].result.recoveries.as_ref().unwrap();
        assert!(clean.is_empty());
    }

    #[test]
    fn recovered_runs_are_bitwise_deterministic_across_reruns() {
        // The dt schedule is a pure function of the recovery log, so
        // re-running the identical poisoned scenario must reproduce the
        // healed trajectory — and the log itself — bit for bit, at both
        // f64 and f32.
        for precision in [PrecisionMode::Fp64, PrecisionMode::Fp32] {
            let mut spec = armed_spec();
            spec.precision = precision;
            spec.label = Some("__nan_inject_6__".into());
            let a = run_scenario(&spec);
            let b = run_scenario(&spec);
            assert!(a.status.is_ok(), "{precision:?}: {:?}", a.status);
            assert!(b.status.is_ok(), "{precision:?}: {:?}", b.status);
            let ra = a.recoveries.as_ref().unwrap();
            assert!(!ra.is_empty(), "{precision:?}: injection must trip");
            assert_recoveries_bit_equal(ra, b.recoveries.as_ref().unwrap());
            assert_eq!(
                a.mass_drift.to_bits(),
                b.mass_drift.to_bits(),
                "{precision:?}"
            );
            assert_eq!(
                a.energy_drift.to_bits(),
                b.energy_drift.to_bits(),
                "{precision:?}"
            );
        }
    }

    macro_rules! mid_recovery_resume_test {
        ($name:ident, $real:ty, $store:ty, $prec:expr) => {
            #[test]
            fn $name() {
                let dir = std::env::temp_dir().join(stringify!($name));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                let mut spec = armed_spec();
                spec.precision = $prec;
                spec.checkpoint_every = Some(4);
                spec.label = Some("__nan_inject_6__".into());

                // Ground truth: the poisoned run, uninterrupted.
                let fresh = run_scenario(&spec);
                assert!(fresh.status.is_ok(), "{:?}", fresh.status);
                let fresh_recs = fresh.recoveries.as_ref().unwrap();
                assert!(!fresh_recs.is_empty(), "injection must trip");

                // Crash *mid-recovery*: march exactly as `drive` does to
                // absolute step 6 — past the injection, rollback, and
                // re-run, inside the backoff hold — then die, leaving the
                // autosave (recovery log embedded) behind.
                let case = spec.build_case().unwrap();
                let cfg = spec.igr_config(&case);
                let mut solver = igr_core::solver::igr_solver::<$real, $store>(
                    cfg,
                    case.domain,
                    case.init_state(),
                );
                solver.nan_check_every = 1;
                Driver::new()
                    .max_steps(spec.warmup)
                    .run(&mut solver)
                    .unwrap();
                solver.fixed_dt = Some(solver.stable_dt());
                solver.nan_check_every = 0;
                let path = dir.join(format!("{}.ckpt", spec.hash_hex()));
                let policy = spec.recovery.as_ref().unwrap().to_policy();
                let mut driver = Driver::new()
                    .stop_when(StopCondition::StepReached(6))
                    .recover(policy)
                    .checkpoint_to(path.clone(), None)
                    .inject_nan_at(6);
                driver.run(&mut solver).unwrap();
                assert!(
                    !driver.take_recovery_log().is_empty(),
                    "the crash happens mid-recovery, after the rollback"
                );
                assert!(path.exists(), "autosave written at the cut");

                // The resubmission re-enters inside the backoff hold. It
                // must not re-fire the injection (the seeded log
                // suppresses it), replays the dt schedule from the log,
                // and lands on the identical final state and history.
                let resumed = run_scenario_with(&spec, Some(&dir));
                assert!(resumed.status.is_ok(), "{:?}", resumed.status);
                assert_eq!(resumed.resumed_from, Some(6));
                assert_recoveries_bit_equal(fresh_recs, resumed.recoveries.as_ref().unwrap());
                assert_eq!(resumed.mass_drift.to_bits(), fresh.mass_drift.to_bits());
                assert_eq!(resumed.energy_drift.to_bits(), fresh.energy_drift.to_bits());
                assert!(!path.exists(), "completed scenario keeps no restart file");
            }
        };
    }
    mid_recovery_resume_test!(
        mid_recovery_interrupt_resumes_bitwise_f64,
        f64,
        StoreF64,
        PrecisionMode::Fp64
    );
    mid_recovery_resume_test!(
        mid_recovery_interrupt_resumes_bitwise_f32,
        f32,
        StoreF32,
        PrecisionMode::Fp32
    );

    #[test]
    fn arming_recovery_without_divergence_is_physically_inert() {
        // The windowed recovered path must be a bit-identical
        // re-expression of the plain timed run when nothing trips: same
        // frozen dt, same step sequence — snapshots and NaN scans are
        // observers, never actors. This pins the recovery-disabled
        // contract too: a spec without `recovery` takes the pre-existing
        // path untouched and carries no log.
        let mut plain = quick_spec();
        plain.warmup = 2;
        plain.steps = 10;
        let mut armed = plain.clone();
        armed.recovery = Some(recovery_spec());
        assert_ne!(
            plain.content_hash(),
            armed.content_hash(),
            "recovery is an execution axis in the cache key"
        );
        let p = run_scenario(&plain);
        let a = run_scenario(&armed);
        assert!(p.status.is_ok(), "{:?}", p.status);
        assert!(a.status.is_ok(), "{:?}", a.status);
        assert!(p.recoveries.is_none(), "recovery-free runs carry no log");
        assert!(a.recoveries.as_ref().unwrap().is_empty());
        assert_eq!(p.mass_drift.to_bits(), a.mass_drift.to_bits());
        assert_eq!(p.energy_drift.to_bits(), a.energy_drift.to_bits());
    }

    #[test]
    fn super_heavy_chaos_run_self_heals_and_reproduces_bitwise() {
        // The acceptance scenario: a mid-run NaN on the 33-engine 3-D
        // case completes Ok with a non-empty recovery log, and a rerun
        // reproduces the healed trajectory bit for bit.
        let mut spec = ScenarioSpec::new(BaseCase::SuperHeavy3d, 8);
        spec.warmup = 1;
        spec.steps = 5;
        spec.recovery = Some(crate::spec::RecoverySpec {
            snapshot_ring_depth: 2,
            snapshot_every: 2,
            max_retries: 3,
            dt_backoff_factor: 0.5,
            backoff_hold_steps: 2,
        });
        spec.label = Some("__nan_inject_3__".into());
        spec.validate().expect("recovery on the hero case is legal");
        let a = run_scenario(&spec);
        assert!(a.status.is_ok(), "{:?}", a.status);
        let recs = a.recoveries.as_ref().unwrap();
        assert!(!recs.is_empty(), "injection must trip");
        let b = run_scenario(&spec);
        assert!(b.status.is_ok(), "{:?}", b.status);
        assert_recoveries_bit_equal(recs, b.recoveries.as_ref().unwrap());
        assert_eq!(a.mass_drift.to_bits(), b.mass_drift.to_bits());
        assert_eq!(a.energy_drift.to_bits(), b.energy_drift.to_bits());
    }
}
