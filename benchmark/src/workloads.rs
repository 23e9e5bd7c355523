//! The five workloads, their fixed work, and the two kinds of run: untraced
//! (end-to-end metrics) and traced (per-layer metrics).

use crate::jets::{self, JetPlan, JetSession, PackedBits};
use crate::layers::{self, CampaignTimes, CoreTimes, IgrTimes, Probes};
use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::reference;
use crate::specgen;
use crate::stats;
use crate::sweeps::{ColdSession, SweepPlan, SweepSession, WarmSession};
use crate::trace::Tracer;
use igr_app::cases::CaseSetup;
use igr_app::checkpoint::CheckpointScalar;
use igr_app::driver::Checkpointable;
use igr_core::solver::{BcGhostOps, RhsScheme, Solver};
use igr_core::IgrScheme;
use igr_prec::{Real, Storage, StoreF16, StoreF32, StoreF64};
use std::path::Path;
use std::time::Instant;

/// The `--seconds` the workloads' nominal quanta counts are stated for.
pub const NOMINAL_SECONDS: u64 = 10;

/// The default `--seconds`, and `run_seconds` in `BENCHMARK.json`: twice the
/// nominal work. On the reference host the speed of a pinned core wanders by
/// ±3 % over tens of seconds (neighbours on the shared memory system), and
/// only a timed region that outlasts the bursts lets the lower decile see
/// past them: resampling an 8-minute recording of step times, ten 9-second
/// regions spread (IQR ÷ median) by up to 10–15 %, ten 19-second regions by
/// at most 4–8 %.
pub const RUN_SECONDS: u64 = 20;

/// Fewest quanta any run times, however short `--seconds`.
const MIN_QUANTA: usize = 5;

const JET_N: usize = 48;
const JET_SPINUP_STEPS: usize = 12;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Jet3dFp32,
    Jet3dFp16,
    Weno3dFp64,
    SweepCold,
    SweepWarm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Jet3dFp32,
        Workload::Jet3dFp16,
        Workload::Weno3dFp64,
        Workload::SweepCold,
        Workload::SweepWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Jet3dFp32 => "jet3d_fp32",
            Workload::Jet3dFp16 => "jet3d_fp16",
            Workload::Weno3dFp64 => "weno3d_fp64",
            Workload::SweepCold => "sweep_cold",
            Workload::SweepWarm => "sweep_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Quanta of the workload's fixed work: what `time_to_solution_s` is the
    /// time of, and what a `--seconds 10` run times (7.5 to 9 s of timed
    /// region on the reference host).
    pub fn nominal_quanta(self) -> usize {
        match self {
            Workload::Jet3dFp32 => 120,
            Workload::Jet3dFp16 => 48,
            Workload::Weno3dFp64 => 44,
            Workload::SweepCold => specgen::SWEEP_LEN,
            Workload::SweepWarm => 1400,
        }
    }

    /// Quanta a run of `--seconds` times: the fixed work scaled by the run
    /// length, never by the clock, so two runs of the same code do the same
    /// work and reach the same peak memory.
    pub fn quanta_for(self, seconds: u64) -> usize {
        let scaled = (self.nominal_quanta() as u64 * seconds).div_ceil(NOMINAL_SECONDS);
        (scaled as usize).max(MIN_QUANTA)
    }

    /// Timed repetitions of the set-up; `setup_s` is their median. More where
    /// a repetition is cheap, so that every workload spends 1 to 2.5 s on
    /// them: a sub-second one-shot is the noisiest thing the benchmark times.
    fn setup_reps(self) -> usize {
        match self {
            Workload::Jet3dFp32 => 9,
            Workload::Weno3dFp64 => 7,
            Workload::Jet3dFp16 => 5,
            Workload::SweepCold | Workload::SweepWarm => 3,
        }
    }

    /// Steps one jet quantum times: two for the fast fp32 solver, so that a
    /// quantum is long against timer and restore granularity.
    fn steps_per_quantum(self) -> usize {
        match self {
            Workload::Jet3dFp32 => 2,
            _ => 1,
        }
    }

    /// Timed steps of a sweep scenario: 48 where execution is the point, 2
    /// where only the stored result is.
    fn sweep_steps(self) -> usize {
        match self {
            Workload::SweepWarm => 2,
            _ => 48,
        }
    }

    /// Relative tolerance of the final state against the fp64 reference.
    fn reference_tolerance(self) -> f64 {
        match self {
            Workload::Jet3dFp32 => 1e-3,
            Workload::Jet3dFp16 => 3e-2,
            _ => 1e-9,
        }
    }

    fn jet_plan(self, setup_reps: usize) -> JetPlan {
        JetPlan {
            n: JET_N,
            spinup_steps: JET_SPINUP_STEPS,
            steps_per_quantum: self.steps_per_quantum(),
            setup_reps,
        }
    }

    fn sweep_plan(self, setup_reps: usize) -> SweepPlan {
        SweepPlan {
            timed_steps: self.sweep_steps(),
            setup_reps,
            sweep_len: specgen::SWEEP_LEN,
        }
    }
}

// ---------------------------------------------------------------------------
// Quanta
// ---------------------------------------------------------------------------

/// An open workload: something that can run one quantum.
pub trait Quanta {
    /// `Ok((seconds, cell-steps advanced))` or why the quantum failed.
    fn quantum(&mut self, tr: &mut Tracer) -> Result<(f64, f64), String>;
}

/// The timings and failures of a series of quanta.
#[derive(Default)]
struct QuantaRun {
    seconds: Vec<f64>,
    cell_steps: f64,
    attempted: u64,
    failures: Vec<String>,
}

impl QuantaRun {
    fn run(session: &mut impl Quanta, quanta: usize, tr: &mut Tracer) -> QuantaRun {
        let mut run = QuantaRun::default();
        for i in 0..quanta {
            run.attempted += 1;
            match session.quantum(tr) {
                Ok((seconds, cell_steps)) => {
                    run.seconds.push(seconds);
                    run.cell_steps = cell_steps;
                }
                Err(why) => run.failures.push(format!("quantum {i}: {why}")),
            }
        }
        run
    }

    /// One more operation: an end-of-run check.
    fn check(&mut self, what: &str, outcome: Result<String, String>) -> String {
        self.attempted += 1;
        match outcome {
            Ok(note) => format!("{what}: {note}"),
            Err(why) => {
                self.failures.push(format!("{what}: {why}"));
                format!("{what}: FAILED")
            }
        }
    }

    fn p10(&self) -> f64 {
        stats::p10(&self.seconds)
    }

    fn describe(&self) -> String {
        format!(
            "quanta: {} timed | p10 {:.1} us, p50 {:.1} us, p90 {:.1} us | disturbance (p50-p10)/p10 = {:.4} | timed region {:.3} s",
            self.seconds.len(),
            self.p10() * 1e6,
            stats::median(&self.seconds) * 1e6,
            stats::quantile(&self.seconds, 0.9) * 1e6,
            stats::disturbance(&self.seconds),
            self.seconds.iter().sum::<f64>(),
        )
    }
}

// ---------------------------------------------------------------------------
// Untraced runs
// ---------------------------------------------------------------------------

/// Everything an untraced run measured.
struct Untraced {
    run: QuantaRun,
    setup_s: Vec<f64>,
    spinup_s: f64,
    scenarios_per_quantum: f64,
    bytes_per_cell: f64,
    notes: Vec<String>,
}

/// Compare a jet's final state with the reference (default seed) or the
/// invariants (any other seed).
fn jet_state_check(
    workload: Workload,
    seed: u64,
    sample: &igr_app::diagnostics::Sample,
) -> Result<String, String> {
    if seed != reference::DEFAULT_SEED {
        return reference::invariants_hold(sample).map(|()| {
            format!(
                "no reference for seed {seed}; finite and positive (min rho {:.4}, max Mach {:.3})",
                sample.min_rho, sample.max_mach
            )
        });
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    let tolerance = workload.reference_tolerance();
    let (dev, name) = reference::worst_deviation(&path, workload.name(), JET_N, sample)?;
    if dev <= tolerance {
        Ok(format!(
            "within {tolerance:e} of the fp64 reference (worst {dev:.3e} on {name})"
        ))
    } else {
        Err(format!(
            "{name} deviates {dev:.3e} from the fp64 reference, tolerance {tolerance:e}"
        ))
    }
}

fn jet_untraced<R, S, Sch>(
    workload: Workload,
    seed: u64,
    quanta: usize,
    make: impl Fn(&CaseSetup) -> Solver<R, S, Sch, BcGhostOps>,
    tr: &mut Tracer,
) -> Result<Untraced, String>
where
    R: Real,
    S: Storage<R>,
    S::Packed: PackedBits + CheckpointScalar,
    Sch: RhsScheme<R, S>,
    Solver<R, S, Sch, BcGhostOps>: Checkpointable,
{
    let mut session = JetSession::open(&workload.jet_plan(workload.setup_reps()), seed, make, tr)?;
    let mut run = QuantaRun::run(&mut session, quanta, tr);
    let notes = vec![
        format!(
            "case: {} ({} cells), engines out {:?}",
            session.case.name,
            session.cells(),
            specgen::engines_out(seed)
        ),
        run.check(
            "final state",
            jet_state_check(workload, seed, &session.sample()),
        ),
    ];
    Ok(Untraced {
        run,
        setup_s: session.setup_s.clone(),
        spinup_s: session.spinup_s,
        scenarios_per_quantum: 1.0 / workload.nominal_quanta() as f64,
        bytes_per_cell: session.solver.memory_report().bytes_per_cell(),
        notes,
    })
}

/// The first scenario of the seed's sweep, its case, and the solver the
/// executor would run it on.
type SweepSolver = Solver<f64, StoreF64, IgrScheme<f64, StoreF64>, BcGhostOps>;

fn sweep_solver(
    seed: u64,
    timed_steps: usize,
) -> Result<(igr_campaign::ScenarioSpec, CaseSetup, SweepSolver), String> {
    let spec = specgen::sweep_specs(seed, 0, timed_steps).swap_remove(0);
    let case = spec.build_case().map_err(|e| e.to_string())?;
    let solver =
        igr_core::solver::igr_solver(spec.igr_config(&case), case.domain, case.init_state());
    Ok((spec, case, solver))
}

fn sweep_untraced<T: SweepSession>(
    workload: Workload,
    seed: u64,
    quanta: usize,
    dir: &Path,
    tr: &mut Tracer,
) -> Result<Untraced, String> {
    let mut session = T::open(&workload.sweep_plan(workload.setup_reps()), seed, dir, tr)?;
    let mut run = QuantaRun::run(&mut session, quanta, tr);
    let setup_s = session.setup_s().to_vec();
    let scenarios_per_quantum = session.scenarios_per_quantum() as f64;
    let notes = vec![run.check(
        "server counts",
        session.close().map(|s| {
            format!(
                "executed {}, cache hits {}, misses {}",
                s.executed, s.hits, s.misses
            )
        }),
    )];
    Ok(Untraced {
        run,
        setup_s,
        spinup_s: 0.0,
        scenarios_per_quantum,
        bytes_per_cell: sweep_solver(seed, workload.sweep_steps())?
            .2
            .memory_report()
            .bytes_per_cell(),
        notes,
    })
}

/// Print the failures and the result line; the exit code.
fn finish(catalogue: &[(&'static str, &'static str)], values: &Values, run: &QuantaRun) -> i32 {
    for why in &run.failures {
        println!("FAILED {why}");
    }
    println!(
        "ops_attempted: {} | ops_failed: {}",
        run.attempted,
        run.failures.len()
    );
    print!("{}", metrics::table(catalogue, values));
    println!(
        "{}",
        metrics::result_line(catalogue, values, run.attempted, run.failures.len() as u64)
    );
    i32::from(!run.failures.is_empty())
}

pub fn run_untraced(workload: Workload, seed: u64, seconds: u64) -> i32 {
    let wall = Instant::now();
    let mut tr = Tracer::new(false, workload.name());
    let tr = &mut tr;
    let quanta = workload.quanta_for(seconds);
    let dir = crate::scratch_dir(workload.name());
    let outcome = match workload {
        Workload::Jet3dFp32 => jet_untraced(
            workload,
            seed,
            quanta,
            |c| c.igr_solver::<f32, StoreF32>(),
            tr,
        ),
        Workload::Jet3dFp16 => jet_untraced(
            workload,
            seed,
            quanta,
            |c| c.igr_solver::<f32, StoreF16>(),
            tr,
        ),
        Workload::Weno3dFp64 => jet_untraced(
            workload,
            seed,
            quanta,
            |c| c.weno_solver::<f64, StoreF64>(),
            tr,
        ),
        Workload::SweepCold => sweep_untraced::<ColdSession>(workload, seed, quanta, &dir, tr),
        Workload::SweepWarm => sweep_untraced::<WarmSession>(workload, seed, quanta, &dir, tr),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let m = match outcome {
        Ok(m) if !m.run.seconds.is_empty() => m,
        Ok(m) => {
            eprintln!(
                "{}: no quantum succeeded: {:?}",
                workload.name(),
                m.run.failures
            );
            return 1;
        }
        Err(why) => {
            eprintln!("{}: {why}", workload.name());
            return 1;
        }
    };
    let Some(peak_rss_mib) = crate::host::peak_rss_mib() else {
        eprintln!("cannot read VmHWM from /proc/self/status");
        return 1;
    };

    let p10 = m.run.p10();
    let mut v = Values::default();
    v.set("setup_s", stats::median(&m.setup_s));
    v.set("grind_ns", p10 * 1e9 / m.run.cell_steps);
    v.set("time_to_solution_s", workload.nominal_quanta() as f64 * p10);
    v.set("scenarios_per_s", m.scenarios_per_quantum / p10);
    v.set("bytes_per_cell", m.bytes_per_cell);
    v.set("peak_rss_mb", peak_rss_mib);

    println!(
        "workload: {} | {} quanta of the nominal {} | untraced",
        workload.name(),
        quanta,
        workload.nominal_quanta()
    );
    for note in &m.notes {
        println!("{note}");
    }
    println!("{}", m.run.describe());
    println!(
        "set-up repetitions (s): {:?} | min {:.4} | spin-up {:.3} s | wall {:.2} s",
        m.setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
        stats::min_of(&m.setup_s),
        m.spinup_s,
        wall.elapsed().as_secs_f64(),
    );
    finish(&END_TO_END, &v, &m.run)
}

// ---------------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------------

/// Untraced, then traced quanta of an open session; sets the `harness.*`
/// metrics that come from them and returns the traced run (its failures are
/// the run's) and the untraced lower-decile quantum, seconds.
fn traced_quanta(
    session: &mut impl Quanta,
    quanta: usize,
    p: &mut Probes,
) -> Result<(QuantaRun, f64), String> {
    let mut off = Tracer::new(false, "");
    let mut plain = QuantaRun::run(session, (quanta / 6).max(MIN_QUANTA), &mut off);
    igr_obs::Registry::global().reset();
    igr_obs::enable();
    let mut traced = QuantaRun::run(session, (quanta / 4).max(MIN_QUANTA), p.tr);
    igr_obs::disable();
    if plain.seconds.is_empty() || traced.seconds.is_empty() {
        plain.failures.append(&mut traced.failures);
        return Err(format!("no quantum succeeded: {:?}", plain.failures));
    }
    println!("untraced {}", plain.describe());
    println!("traced   {}", traced.describe());
    println!("phase histograms of the program's own spans (igr-obs), traced quanta:");
    for h in igr_obs::Registry::global().snapshot().histograms {
        println!(
            "  {:<20} {:>8} spans {:>12.3} ms total {:>12.3} us mean",
            h.name,
            h.count,
            h.total_ns as f64 / 1e6,
            h.mean_ns() as f64 / 1e3
        );
    }
    let p10 = plain.p10();
    let v = &mut *p.v;
    v.set("harness.quantum_p10_us", p10 * 1e6);
    v.set(
        "harness.quantum_p50_us",
        stats::median(&plain.seconds) * 1e6,
    );
    v.set(
        "harness.quantum_p90_us",
        stats::quantile(&plain.seconds, 0.9) * 1e6,
    );
    v.set("harness.disturbance", stats::disturbance(&plain.seconds));
    v.set(
        "harness.trace_overhead_pct",
        100.0 * (traced.p10() - p10) / p10,
    );
    traced.attempted += plain.attempted;
    traced.failures.append(&mut plain.failures);
    traced.cell_steps = plain.cell_steps;
    Ok((traced, p10))
}

/// The probes that do not depend on the workload.
fn fixed_probes(p: &mut Probes) -> CampaignTimes {
    layers::prec_probes(p);
    layers::grid_probes(p);
    layers::species_probe(p);
    layers::comm_probe(p);
    layers::obs_probes(p);
    layers::campaign_probes(p)
}

/// Print `rows` of `(what, calls per quantum, seconds per call)` as shares
/// of the quantum and set `harness.unattributed_pct` to what they leave.
fn share_table(quantum_s: f64, rows: &[(&str, f64, f64)], v: &mut Values) {
    println!(
        "share of the quantum ({:.1} us) by isolated call time:",
        quantum_s * 1e6
    );
    let mut sum = 0.0;
    for (what, calls, seconds) in rows {
        let part = calls * seconds;
        sum += part;
        println!(
            "  {what:<40} {calls:>7.0} x {:>12.3} us = {:>6.2} %",
            seconds * 1e6,
            100.0 * part / quantum_s
        );
    }
    let left = 100.0 * (quantum_s - sum) / quantum_s;
    println!("  {:<40} {:>34.2} %", "unattributed", left);
    v.set("harness.unattributed_pct", left);
}

/// Shares of a solver quantum from the per-cell kernel times.
fn solver_shares(
    quantum_s: f64,
    cell_steps: f64,
    steps: f64,
    own: &CoreTimes,
    igr: Option<&IgrTimes>,
    v: &mut Values,
) {
    let cells = cell_steps / steps;
    let s = |ns_per_cell: f64| ns_per_cell * cells * 1e-9;
    let rhs_calls = steps * own.stages;
    let mut rows = vec![("igr-core stable_dt", steps, s(own.cfl))];
    match igr {
        Some(k) => rows.extend([
            ("igr-core fill_state", rhs_calls, s(own.ghost_fill)),
            ("igr-core compute_igr_source", rhs_calls, s(k.sigma_source)),
            (
                "igr-core sigma sweep + fill_scalar",
                rhs_calls * k.sweeps_per_rhs,
                s(k.sigma_sweep),
            ),
            ("igr-core accumulate_fluxes", rhs_calls, s(k.flux_sweep)),
        ]),
        None => rows.push(("igr-baseline compute_rhs", rhs_calls, s(own.rhs))),
    }
    rows.push((
        "igr-core RK combine and the rest of step",
        steps,
        s(own.rk_combine),
    ));
    share_table(quantum_s, &rows, v);
}

fn jet_traced<R, S, Sch>(
    workload: Workload,
    seconds: u64,
    scheme: igr_perf::Scheme,
    make: impl Fn(&CaseSetup) -> Solver<R, S, Sch, BcGhostOps>,
    igr_side: impl FnOnce(&mut JetSession<R, S, Sch>, &mut Probes) -> Result<IgrTimes, String>,
    p: &mut Probes,
) -> Result<QuantaRun, String>
where
    R: Real,
    S: Storage<R>,
    S::Packed: PackedBits + CheckpointScalar,
    Sch: RhsScheme<R, S>,
    Solver<R, S, Sch, BcGhostOps>: Checkpointable,
{
    let seed = p.seed;
    let mut session = JetSession::open(&workload.jet_plan(1), seed, make, p.tr)?;
    p.v.set("harness.spinup_s", session.spinup_s);
    let (run, quantum_s) = traced_quanta(&mut session, workload.quanta_for(seconds), p)?;

    let triad = layers::host_triad(p);
    let own = layers::own_probes(&mut session.solver, &session.snapshot, scheme, triad, p);
    let igr = igr_side(&mut session, p)?;
    layers::weno_probe::<R, S>(&session.case, p);
    layers::case_build_probe(|| jets::build_case(JET_N, seed).init_state::<R, S>(), p);
    drop(session); // the fixed probes do not need the 48³ solver's memory
    fixed_probes(p);
    // The jets run no campaign layer: they execute and fetch nothing.
    p.v.set("igr-campaign.executed", 0.0);
    p.v.set("igr-campaign.cache_hits", 0.0);

    let steps = workload.steps_per_quantum() as f64;
    let igr = (scheme == igr_perf::Scheme::Igr).then_some(&igr);
    solver_shares(quantum_s, run.cell_steps, steps, &own, igr, p.v);
    Ok(run)
}

/// The IGR kernels on an IGR jet's own solver, back on its capture.
fn igr_side_own<R, S>(
    session: &mut JetSession<R, S, IgrScheme<R, S>>,
    p: &mut Probes,
) -> Result<IgrTimes, String>
where
    R: Real,
    S: Storage<R>,
    S::Packed: PackedBits + CheckpointScalar,
{
    session.restore()?;
    Ok(layers::igr_probes(&mut session.solver, p))
}

/// The IGR kernels for the WENO workload: an IGR solver on the same case and
/// precision, spun up like the workload's own.
fn igr_side_of_weno(
    session: &mut JetSession<f64, StoreF64, igr_baseline::WenoHllcScheme<f64, StoreF64>>,
    p: &mut Probes,
) -> Result<IgrTimes, String> {
    let mut igr = session.case.igr_solver::<f64, StoreF64>();
    for _ in 0..JET_SPINUP_STEPS {
        igr.step().map_err(|e| format!("IGR side spin-up: {e}"))?;
    }
    Ok(layers::igr_probes(&mut igr, p))
}

fn sweep_traced<T: SweepSession>(
    workload: Workload,
    seconds: u64,
    p: &mut Probes,
) -> Result<QuantaRun, String> {
    let mut session = T::open(&workload.sweep_plan(1), p.seed, p.dir, p.tr)?;
    p.v.set("harness.spinup_s", 0.0); // a sweep's warm-up is part of its set-up
    let (mut run, quantum_s) = traced_quanta(&mut session, workload.quanta_for(seconds), p)?;
    let stats = session.close();
    let (executed, hits) = stats.as_ref().map_or((0, 0), |s| (s.executed, s.hits));
    println!(
        "{}",
        run.check(
            "server counts",
            stats.map(|s| format!("executed {}, cache hits {}", s.executed, s.hits))
        )
    );
    p.v.set("igr-campaign.executed", executed as f64);
    p.v.set("igr-campaign.cache_hits", hits as f64);

    // The scenarios' own solver: the first scenario of the sweep, built and
    // warmed up the way the executor does, with its capture.
    let triad = layers::host_triad(p);
    let (spec, case, mut solver) = sweep_solver(p.seed, workload.sweep_steps())?;
    solver
        .step()
        .map_err(|e| format!("sweep scenario warm-up step: {e}"))?;
    let snapshot = solver.capture();
    layers::own_probes(&mut solver, &snapshot, igr_perf::Scheme::Igr, triad, p);
    layers::igr_probes(&mut solver, p);
    layers::weno_probe::<f64, StoreF64>(&case, p);
    layers::case_build_probe(
        || {
            spec.build_case()
                .expect("valid spec")
                .init_state::<f64, StoreF64>()
        },
        p,
    );

    let c = fixed_probes(p);
    let n = specgen::SWEEP_LEN as f64;
    let rows: Vec<(&str, f64, f64)> = if workload == Workload::SweepCold {
        vec![
            ("igr-campaign run_scenario", 1.0, c.exec_scenario),
            ("igr-campaign queue over execution", 1.0, c.queue_overhead),
            ("igr-campaign store append", 1.0, c.store_append),
            ("igr-campaign content_hash", 2.0, c.content_hash),
            ("igr-campaign spec encode", 1.0, c.spec_encode),
            ("igr-campaign spec decode", 1.0, c.spec_decode),
            ("igr-campaign result encode", 1.0, c.result_encode),
            ("igr-campaign result decode", 1.0, c.result_decode),
            ("igr-campaign wire round trip", 2.0, c.wire_rtt),
        ]
    } else {
        vec![
            ("igr-campaign wire round trip", n + 1.0, c.wire_rtt),
            ("igr-campaign content_hash", 2.0 * n, c.content_hash),
            ("igr-campaign spec encode", n, c.spec_encode),
            ("igr-campaign spec decode", n, c.spec_decode),
            ("igr-campaign store fetch", n, c.store_fetch),
            ("igr-campaign result encode", n, c.result_encode),
            ("igr-campaign result decode", n, c.result_decode),
        ]
    };
    share_table(quantum_s, &rows, p.v);
    Ok(run)
}

pub fn run_traced(workload: Workload, seed: u64, seconds: u64) -> i32 {
    let wall = Instant::now();
    let mut tr = Tracer::new(true, workload.name());
    let mut v = Values::default();
    let dir = crate::scratch_dir(workload.name());
    let mut probes = Probes {
        tr: &mut tr,
        v: &mut v,
        budget: layers::probe_budget(seconds),
        dir: &dir,
        seed,
    };
    let p = &mut probes;
    println!(
        "workload: {} | traced | probe budget {:?} per probe",
        workload.name(),
        p.budget
    );
    let (igr, weno) = (igr_perf::Scheme::Igr, igr_perf::Scheme::WenoBaseline);
    let outcome = match workload {
        Workload::Jet3dFp32 => jet_traced(
            workload,
            seconds,
            igr,
            |c| c.igr_solver::<f32, StoreF32>(),
            igr_side_own,
            p,
        ),
        Workload::Jet3dFp16 => jet_traced(
            workload,
            seconds,
            igr,
            |c| c.igr_solver::<f32, StoreF16>(),
            igr_side_own,
            p,
        ),
        Workload::Weno3dFp64 => jet_traced(
            workload,
            seconds,
            weno,
            |c| c.weno_solver::<f64, StoreF64>(),
            igr_side_of_weno,
            p,
        ),
        Workload::SweepCold => sweep_traced::<ColdSession>(workload, seconds, p),
        Workload::SweepWarm => sweep_traced::<WarmSession>(workload, seconds, p),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let run = match outcome {
        Ok(run) => run,
        Err(why) => {
            eprintln!("{}: {why}", workload.name());
            return 1;
        }
    };
    let trace_path = crate::out_dir().join("trace.json");
    match tr.write_chrome_trace(&trace_path) {
        Ok(()) => println!(
            "{} harness spans written to {}",
            tr.spans().len(),
            trace_path.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", trace_path.display()),
    }
    println!("harness spans by name (spans, total ms, self ms):");
    for (name, count, total, own) in tr.summary() {
        println!(
            "  {name:<34} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    v.set("harness.wall_s", wall.elapsed().as_secs_f64());
    finish(&PER_LAYER, &v, &run)
}

// ---------------------------------------------------------------------------
// --write-reference
// ---------------------------------------------------------------------------

/// Regenerate `benchmark/reference.json`: each jet workload's protocol at
/// fp64, for the default seed.
pub fn write_reference() -> i32 {
    let seed = reference::DEFAULT_SEED;
    let steps = |w: Workload| JET_SPINUP_STEPS + w.steps_per_quantum();
    let sample = |w: Workload| match w {
        Workload::Weno3dFp64 => {
            jets::reference_sample(JET_N, seed, steps(w), |c| c.weno_solver::<f64, StoreF64>())
        }
        _ => jets::reference_sample(JET_N, seed, steps(w), |c| c.igr_solver::<f64, StoreF64>()),
    };
    let mut entries = Vec::new();
    for w in [
        Workload::Jet3dFp32,
        Workload::Jet3dFp16,
        Workload::Weno3dFp64,
    ] {
        match sample(w) {
            Ok(s) => entries.push((w.name(), reference::encode_entry(steps(w), &s))),
            Err(why) => {
                eprintln!("{}: {why}", w.name());
                return 1;
            }
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.json");
    match std::fs::write(&path, reference::encode_file(JET_N, &entries)) {
        Ok(()) => {
            println!("wrote {}", path.display());
            0
        }
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_quanta_scale_with_seconds() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::json::valid_name(w.name()));
            assert_eq!(w.quanta_for(NOMINAL_SECONDS), w.nominal_quanta());
            assert!(w.quanta_for(1) >= MIN_QUANTA);
            assert!(w.quanta_for(20) == 2 * w.nominal_quanta());
        }
        assert_eq!(Workload::parse("jet3d"), None);
        assert_eq!(Workload::Jet3dFp16.quanta_for(1), 5);
        assert_eq!(Workload::SweepWarm.quanta_for(6), 840);
    }
}
