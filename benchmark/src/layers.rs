//! Per-layer probes of the traced run: each times one public call of one
//! layer in isolation, inside a harness span, and reports its lower decile.
//!
//! Probes that depend on the workload (the `igr-core` kernels, the WENO
//! right-hand side, case build, snapshot restore, checkpoint I/O) run on the
//! workload's own solver and capture. The rest (`igr-prec`, `igr-grid`,
//! `igr-species`, `igr-comm`, `igr-campaign`, `igr-obs`, the host triad) are
//! fixed-size, so their numbers compare across workloads and runs.

use crate::metrics::Values;
use crate::specgen;
use crate::stats;
use crate::sweeps;
use crate::trace::Tracer;
use igr_app::cases::CaseSetup;
use igr_app::checkpoint::Checkpoint;
use igr_app::driver::{Cadence, Checkpointable, DiagnosticsObserver, Driver};
use igr_app::parallel::{init_state_global, HaloGhostOps};
use igr_app::History;
use igr_campaign::protocol::{self, Response};
use igr_campaign::{
    run_scenario, Campaign, CampaignClient, CampaignQueue, CampaignServer, ResultStore,
    ScenarioResult, ScenarioSpec, StreamedResult,
};
use igr_comm::{CartComm, Universe};
use igr_core::config::EllipticKind;
use igr_core::rhs::{accumulate_fluxes, FluxParams};
use igr_core::sigma::{compute_igr_source, gauss_seidel_sweep, jacobi_sweep};
use igr_core::solver::{BcGhostOps, GhostOps, RhsScheme, Solver};
use igr_core::{IgrScheme, State, GHOST_WIDTH};
use igr_grid::{Axis, Decomp, Field, GridShape};
use igr_mem::{DeviceKind, DeviceSpec, StepTraffic, TrafficModel};
use igr_perf::{FlopModel, MemoryLayout};
use igr_prec::{MixedVec, Real, Storage, StoreF16, StoreF32, StoreF64};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fewest and most repetitions of one probe.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 2_000;

/// How long the probes of one traced run may take, as a share of `--seconds`
/// per probe. About sixty probes run, so the set costs about a third of
/// `--seconds` plus the minimum repetitions of the slow ones.
pub fn probe_budget(seconds: u64) -> Duration {
    Duration::from_secs_f64(seconds as f64 * 0.005)
}

/// What every probe needs: where its spans and values go, how long it may
/// take, where it may write, and the run's seed.
pub struct Probes<'a> {
    pub tr: &'a mut Tracer,
    pub v: &'a mut Values,
    pub budget: Duration,
    pub dir: &'a Path,
    pub seed: u64,
}

/// Lower-decile seconds per call of `f(state)`, each call inside a span
/// `name`; `prepare(state)` runs untimed before every call.
fn time_calls_on<T: ?Sized>(
    tr: &mut Tracer,
    name: &'static str,
    budget: Duration,
    state: &mut T,
    mut prepare: impl FnMut(&mut T),
    mut f: impl FnMut(&mut T),
) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_REPS || (start.elapsed() < budget && samples.len() < MAX_REPS) {
        prepare(state);
        let t0 = Instant::now();
        tr.span(name, |_| f(state));
        samples.push(t0.elapsed().as_secs_f64());
    }
    stats::p10(&samples)
}

fn time_calls(tr: &mut Tracer, name: &'static str, budget: Duration, mut f: impl FnMut()) -> f64 {
    time_calls_on(tr, name, budget, &mut (), |()| (), |()| f())
}

/// Alternate `base` and `with` on `state`, `prepare` untimed before each:
/// the lower-decile seconds of `base`, and the median of `with − base` over
/// the pairs. Pairing cancels the drift of a shared host, which would swamp
/// an overhead of a percent or two taken as a difference of two series.
fn time_pairs<T: ?Sized>(
    tr: &mut Tracer,
    names: [&'static str; 2],
    budget: Duration,
    state: &mut T,
    mut prepare: impl FnMut(&mut T),
    mut base: impl FnMut(&mut T),
    mut with: impl FnMut(&mut T),
) -> (f64, f64) {
    let (mut bases, mut extras) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while bases.len() < MIN_REPS || (start.elapsed() < 2 * budget && bases.len() < MAX_REPS) {
        prepare(state);
        let t0 = Instant::now();
        tr.span(names[0], |_| base(state));
        let base_s = t0.elapsed().as_secs_f64();
        prepare(state);
        let t0 = Instant::now();
        tr.span(names[1], |_| with(state));
        extras.push(t0.elapsed().as_secs_f64() - base_s);
        bases.push(base_s);
    }
    (stats::p10(&bases), stats::median(&extras))
}

fn active_dims(shape: GridShape) -> usize {
    shape.active_axes().count()
}

// ---------------------------------------------------------------------------
// Host
// ---------------------------------------------------------------------------

/// Elements per triad array: 64 MiB of f64, sixteen times the 4 MiB L2 the
/// pinned core owns (the 260 MiB L3 the hypervisor reports is shared with
/// the whole host; three arrays together, 192 MiB, do not fit what a guest
/// can keep of it).
const TRIAD_ELEMS: usize = 8 << 20;

/// `a = b + s·c` over three 64 MiB arrays: the sustainable bandwidth the
/// achieved-bandwidth figures are set against, measured in the same run.
pub fn host_triad(p: &mut Probes) -> f64 {
    let mut a = vec![0.0f64; TRIAD_ELEMS];
    let b: Vec<f64> = (0..TRIAD_ELEMS).map(|i| i as f64 * 0.5).collect();
    let c: Vec<f64> = (0..TRIAD_ELEMS).map(|i| 1.0 - i as f64).collect();
    let s = black_box(3.0);
    // Four budgets: bandwidth is what neighbours on a shared host disturb
    // most, and every achieved-bandwidth figure is a ratio to this one.
    let t = time_calls(p.tr, "host.triad", 4 * p.budget, || {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
    });
    let gb_s = (3 * TRIAD_ELEMS * 8) as f64 / t / 1e9;
    p.v.set("host.triad_gb_s", gb_s);
    gb_s
}

// ---------------------------------------------------------------------------
// igr-prec, igr-grid
// ---------------------------------------------------------------------------

/// Conversion cost of the storage formats on a 1 M-element `MixedVec`.
pub fn prec_probes(p: &mut Probes) {
    const N: usize = 1 << 20;
    let src: Vec<f32> = (0..N).map(|i| (i as f32 * 0.371).sin() * 100.0).collect();
    let mut half: MixedVec<f32, StoreF16> = MixedVec::zeros(N);
    let mut single: MixedVec<f32, StoreF32> = MixedVec::zeros(N);
    let pack = time_calls(p.tr, "igr-prec.f16_pack", p.budget, || {
        half.copy_from_compute(black_box(&src));
    });
    let unpack = time_calls(p.tr, "igr-prec.f16_unpack", p.budget, || {
        let half = black_box(&half);
        let mut acc = 0.0f32;
        for i in 0..N {
            acc += half.get(i);
        }
        black_box(acc);
    });
    let copy = time_calls(p.tr, "igr-prec.f32_copy", p.budget, || {
        single.copy_from_compute(black_box(&src));
    });
    black_box(&single);
    p.v.set("igr-prec.f16_unpack_ns_per_elem", unpack * 1e9 / N as f64);
    p.v.set("igr-prec.f16_pack_ns_per_elem", pack * 1e9 / N as f64);
    p.v.set("igr-prec.f32_copy_ns_per_elem", copy * 1e9 / N as f64);
}

/// Halo slab pack/unpack across the strided x faces of a 48³ fp64 field.
pub fn grid_probes(p: &mut Probes) {
    let shape = GridShape::new(48, 48, 48, GHOST_WIDTH);
    let mut f: Field<f64, StoreF64> = Field::zeros(shape);
    f.map_interior(|i, j, k, _| (i + 2 * j + 3 * k) as f64);
    let slab = f.slab_len(Axis::X, GHOST_WIDTH);
    let mut buf = Vec::with_capacity(slab);
    let pack = time_calls(p.tr, "igr-grid.slab_pack", p.budget, || {
        f.pack_slab(Axis::X, -1, GHOST_WIDTH, &mut buf);
        black_box(&buf);
    });
    let unpack = time_calls(p.tr, "igr-grid.slab_unpack", p.budget, || {
        f.unpack_slab(Axis::X, 1, GHOST_WIDTH, black_box(&buf));
    });
    p.v.set("igr-grid.slab_pack_ns_per_elem", pack * 1e9 / slab as f64);
    p.v.set(
        "igr-grid.slab_unpack_ns_per_elem",
        unpack * 1e9 / slab as f64,
    );
}

// ---------------------------------------------------------------------------
// igr-core and igr-app, on the workload's own solver
// ---------------------------------------------------------------------------

/// What the share table needs from the own-solver probes, ns per cell.
pub struct CoreTimes {
    pub stages: f64,
    pub ghost_fill: f64,
    pub cfl: f64,
    pub rhs: f64,
    pub rk_combine: f64,
}

/// Probes that run on any scheme: ghost fill, CFL scan, right-hand side,
/// whole step (and what is left of it), the non-finite scan, snapshot
/// restore, checkpoint I/O, tracing overhead, and the computed roofline
/// figures.
pub fn own_probes<R, S, Sch>(
    solver: &mut Solver<R, S, Sch, BcGhostOps>,
    snapshot: &Checkpoint,
    scheme: igr_perf::Scheme,
    triad_gb_s: f64,
    p: &mut Probes,
) -> CoreTimes
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
    Solver<R, S, Sch, BcGhostOps>: Checkpointable,
{
    let shape = solver.domain().shape;
    let cells = shape.n_interior() as f64;
    let per_cell = |seconds: f64| seconds * 1e9 / cells;
    let restore = |solver: &mut Solver<R, S, Sch, BcGhostOps>| {
        solver
            .restore(snapshot)
            .expect("restore of the workload's own capture");
    };
    restore(solver);
    let t = solver.t();

    let ghost_fill = per_cell(time_calls(p.tr, "igr-core.ghost_fill", p.budget, || {
        GhostOps::<R, S>::fill_state(&mut solver.ghost, &mut solver.q, t);
    }));
    let cfl = per_cell(time_calls(p.tr, "igr-core.cfl", p.budget, || {
        black_box(solver.stable_dt());
    }));
    let scan = per_cell(time_calls(
        p.tr,
        "igr-grid.nonfinite_scan",
        p.budget,
        || {
            black_box(solver.q.find_non_finite());
        },
    ));
    let mut rhs_buf: State<R, S> = State::zeros(shape);
    let rhs = per_cell(time_calls(p.tr, "igr-core.rhs", p.budget, || {
        solver
            .scheme
            .compute_rhs(&mut solver.q, t, &mut rhs_buf, &mut solver.ghost);
    }));
    drop(rhs_buf);
    let step_s = time_calls_on(
        p.tr,
        "igr-core.step",
        p.budget,
        solver,
        |s| restore(s),
        |s| {
            s.step().expect("probe step");
        },
    );
    let restore_s = time_calls(p.tr, "igr-app.snapshot_restore", p.budget, || {
        restore(solver)
    });
    let step = per_cell(step_s);
    let stages = solver.scheme.params().rk.stages() as f64;
    let rk_combine = step - stages * rhs - cfl;
    p.v.set("igr-core.ghost_fill_ns_per_cell", ghost_fill);
    p.v.set("igr-core.cfl_ns_per_cell", cfl);
    p.v.set("igr-grid.nonfinite_scan_ns_per_cell", scan);
    p.v.set("igr-core.rhs_ns_per_cell", rhs);
    p.v.set("igr-core.step_ns_per_cell", step);
    p.v.set("igr-core.rk_combine_ns_per_cell", rk_combine);
    p.v.set("igr-core.rhs_evals_per_step", stages);
    p.v.set("igr-app.snapshot_restore_us", restore_s * 1e6);

    // Oversubscribed by construction (two solver threads on the one pinned
    // CPU): tracked so the dispatch path is exercised, never gated.
    let pool2 = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("thread pool");
    let step2_s = pool2.install(|| {
        time_calls_on(
            p.tr,
            "igr-core.step_t2",
            p.budget,
            solver,
            |s| restore(s),
            |s| {
                s.step().expect("probe step");
            },
        )
    });
    p.v.set("igr-core.par_speedup_t2", step_s / step2_s);

    // igr-obs: the same step with the program's own spans recording.
    igr_obs::enable();
    let traced_s = time_calls_on(
        p.tr,
        "igr-core.step_obs_enabled",
        p.budget,
        solver,
        |s| restore(s),
        |s| {
            s.step().expect("probe step");
        },
    );
    igr_obs::disable();
    p.v.set(
        "igr-obs.enabled_grind_overhead_pct",
        100.0 * (traced_s - step_s) / step_s,
    );

    // Checkpoint I/O of the workload's own capture.
    let path = p.dir.join("probe.ckpt");
    let save_s = time_calls(p.tr, "igr-app.checkpoint_save", p.budget, || {
        snapshot.save(&path).expect("checkpoint save");
    });
    let file_bytes = std::fs::metadata(&path).expect("checkpoint file").len() as f64;
    let load_s = time_calls(p.tr, "igr-app.checkpoint_load", p.budget, || {
        black_box(Checkpoint::load(&path).expect("checkpoint load"));
    });
    p.v.set("igr-app.checkpoint_save_mb_s", file_bytes / 1e6 / save_s);
    p.v.set("igr-app.checkpoint_load_mb_s", file_bytes / 1e6 / load_s);
    p.v.set("igr-app.checkpoint_bytes_per_cell", file_bytes / cells);

    // Computed, not measured: the FLOP and streamed-byte models of igr-perf,
    // set against the measured step and the measured triad through igr-mem's
    // bandwidth model.
    let storage_bytes = S::BYTES as f64;
    let flops = FlopModel {
        dims: active_dims(shape),
        rk_stages: stages as usize,
        ..FlopModel::default()
    };
    let flops_per_cell_step = flops.per_step(scheme);
    let model_bytes = flops_per_cell_step / flops.arithmetic_intensity(scheme, storage_bytes);
    let host = TrafficModel::new(DeviceSpec {
        kind: DeviceKind::HostCpu,
        name: "benchmark host",
        device_bw: triad_gb_s * 1e9,
        link_bw: triad_gb_s * 1e9,
        host_bw: triad_gb_s * 1e9,
        unified_pool: true,
        ..DeviceSpec::HOST_CPU
    });
    let streaming_grind = host.grind_ns(
        &StepTraffic {
            device_bytes: model_bytes * cells,
            link_bytes: 0.0,
        },
        cells,
    );
    p.v.set("igr-core.flops_per_cell_step", flops_per_cell_step);
    p.v.set("igr-core.model_bytes_per_cell_step", model_bytes);
    p.v.set("igr-core.achieved_gb_s", model_bytes / step);
    p.v.set("igr-core.pct_of_triad", 100.0 * streaming_grind / step);

    let layout = match scheme {
        igr_perf::Scheme::Igr => MemoryLayout::igr_in_core(storage_bytes),
        igr_perf::Scheme::WenoBaseline => MemoryLayout::weno_in_core(storage_bytes),
    };
    p.v.set(
        "igr-mem.footprint_vs_17n",
        solver.memory_report().bytes_per_cell() / layout.device_bytes_per_cell(),
    );
    restore(solver);
    CoreTimes {
        stages,
        ghost_fill,
        cfl,
        rhs,
        rk_combine,
    }
}

/// What the share table needs from the IGR kernel probes, ns per cell.
pub struct IgrTimes {
    pub sweeps_per_rhs: f64,
    pub sigma_source: f64,
    pub sigma_sweep: f64,
    pub flux_sweep: f64,
}

/// The IGR kernels in isolation, on an IGR solver's current state: Σ source
/// term, one relaxation sweep with its ghost fill, the flux sweep; and the
/// sweep count per right-hand side, read from the program's own spans.
pub fn igr_probes<R, S>(
    solver: &mut Solver<R, S, IgrScheme<R, S>, BcGhostOps>,
    p: &mut Probes,
) -> IgrTimes
where
    R: Real,
    S: Storage<R>,
{
    let domain = *solver.domain();
    let shape = domain.shape;
    let cells = shape.n_interior() as f64;
    let per_cell = |seconds: f64| seconds * 1e9 / cells;
    let alpha = solver.scheme.alpha();
    let cfg = solver.scheme.cfg.clone();

    let mut source: Field<R, S> = Field::zeros(shape);
    let sigma_source = per_cell(time_calls(p.tr, "igr-core.sigma_source", p.budget, || {
        compute_igr_source(&solver.q, &domain, alpha, &mut source);
    }));
    let mut sig_a = solver.scheme.sigma().clone();
    let mut sig_b: Field<R, S> = Field::zeros(shape);
    let sigma_sweep = per_cell(time_calls(p.tr, "igr-core.sigma_sweep", p.budget, || {
        GhostOps::<R, S>::fill_scalar(&mut solver.ghost, &mut sig_a);
        match cfg.elliptic {
            EllipticKind::Jacobi => {
                jacobi_sweep(&solver.q.rho, &source, &sig_a, &mut sig_b, &domain, alpha);
                std::mem::swap(&mut sig_a, &mut sig_b);
            }
            EllipticKind::GaussSeidel => {
                gauss_seidel_sweep(&solver.q.rho, &source, &mut sig_a, &domain, alpha);
            }
        }
    }));
    let mut rhs_buf: State<R, S> = State::zeros(shape);
    let flux_sweep = per_cell(time_calls(p.tr, "igr-core.flux_sweep", p.budget, || {
        let params = FluxParams::new(
            &solver.q,
            solver.scheme.sigma(),
            &domain,
            cfg.gamma,
            cfg.mu,
            cfg.zeta,
            cfg.order,
            alpha > 0.0,
        )
        .with_kernel(cfg.kernel);
        rhs_buf.zero();
        accumulate_fluxes(&params, &mut rhs_buf);
    }));

    // Exact count from the program's own instrumentation: one more step with
    // its spans on.
    let count = |name: &str| {
        igr_obs::Registry::global()
            .snapshot()
            .histogram(name)
            .map_or(0, |h| h.count)
    };
    let (sweeps0, solves0) = (count("sigma.sweep"), count("sigma.solve"));
    igr_obs::enable();
    solver.step().expect("probe step");
    igr_obs::disable();
    let sweeps_per_rhs =
        (count("sigma.sweep") - sweeps0) as f64 / (count("sigma.solve") - solves0).max(1) as f64;

    p.v.set("igr-core.sigma_source_ns_per_cell", sigma_source);
    p.v.set("igr-core.sigma_sweep_ns_per_cell", sigma_sweep);
    p.v.set("igr-core.flux_sweep_ns_per_cell", flux_sweep);
    p.v.set("igr-core.sigma_sweeps_per_rhs", sweeps_per_rhs);
    IgrTimes {
        sweeps_per_rhs,
        sigma_source,
        sigma_sweep,
        flux_sweep,
    }
}

/// The baseline's right-hand side on `case` at the workload's precision.
pub fn weno_probe<R: Real, S: Storage<R>>(case: &CaseSetup, p: &mut Probes) {
    // No step first: below fp64 the baseline may not survive one, and the
    // cost of its right-hand side does not depend on the data.
    let mut solver = case.weno_solver::<R, S>();
    let shape = solver.domain().shape;
    let t = solver.t();
    let mut rhs_buf: State<R, S> = State::zeros(shape);
    let rhs = time_calls(p.tr, "igr-baseline.weno_rhs", p.budget, || {
        solver
            .scheme
            .compute_rhs(&mut solver.q, t, &mut rhs_buf, &mut solver.ghost);
    });
    p.v.set(
        "igr-baseline.weno_rhs_ns_per_cell",
        rhs * 1e9 / shape.n_interior() as f64,
    );
}

/// Build the workload's case and fill its initial state.
pub fn case_build_probe<T>(build: impl Fn() -> T, p: &mut Probes) {
    let t = time_calls(p.tr, "igr-app.case_build", p.budget, || {
        black_box(build());
    });
    p.v.set("igr-app.case_build_s", t);
}

// ---------------------------------------------------------------------------
// igr-species, igr-comm
// ---------------------------------------------------------------------------

/// One step of the two-fluid solver on a 32 × 16 × 16 smooth mixture.
pub fn species_probe(p: &mut Probes) {
    use igr_species::{species_solver, MixEos, MixPrim, SpeciesConfig, SpeciesState};
    let n = 16;
    let shape = GridShape::new(2 * n, n, n, GHOST_WIDTH);
    let domain = igr_grid::Domain::new([0.0, -0.5, -0.5], [2.0, 0.5, 0.5], shape);
    let eos = MixEos {
        gamma1: 1.4,
        gamma2: 1.25,
    };
    let cfg = SpeciesConfig {
        eos,
        ..Default::default()
    };
    let tau = std::f64::consts::TAU;
    let mut q: SpeciesState<f64, StoreF64> = SpeciesState::zeros(shape);
    q.set_prim_field(&domain, &eos, |p| {
        let a = (0.5 + 0.4 * (tau * p[0]).sin() * (tau * p[1]).cos()).clamp(0.01, 0.99);
        MixPrim::new(
            [a, (1.0 - a) * 0.5],
            [0.5 * (tau * p[2]).sin(), 0.2, 0.0],
            1.0 + 0.1 * (tau * p[0]).cos(),
            a,
        )
    });
    let mut solver = species_solver(cfg, domain, q);
    solver.step().expect("species probe step");
    let t = time_calls(p.tr, "igr-species.step", p.budget, || {
        solver.step().expect("species probe step");
    });
    p.v.set(
        "igr-species.step_ns_per_cell",
        t * 1e9 / shape.n_interior() as f64,
    );
}

/// Two thread-ranks on the one pinned CPU: exact halo message and byte
/// counts per step of a decomposed 16³ IGR solve, and the time of one
/// face-slab exchange.
pub fn comm_probe(p: &mut Probes) {
    const STEPS: u64 = 3;
    const BATCHES: usize = 5;
    const EXCHANGES: usize = 100;
    let n = 16;
    let case = igr_app::cases::super_heavy_3d(n);
    let global = case.domain;
    let cfg = case.igr_config();
    let decomp = Decomp::auto([n, n, n], 2, cfg.bc.periodic_axes());
    let init = &case.init;
    let per_rank = p.tr.span("igr-comm.universe", |_| {
        Universe::run(2, |comm| {
            let rank = comm.rank();
            let cart = CartComm::new(comm, decomp.clone());
            let local = decomp.local_domain(rank, &global, GHOST_WIDTH);
            let q = init_state_global::<f64, StoreF64>(&decomp, rank, &global, cfg.gamma, &**init);
            let ghost = HaloGhostOps::new(cart, local, cfg.bc.clone(), cfg.gamma);
            let mut solver: Solver<f64, StoreF64, _, _> =
                Solver::new(IgrScheme::new(cfg.clone(), local), ghost, local, q);
            // A pinned dt keeps the per-step reduction out of the halo count.
            solver.fixed_dt = Some(1e-4);
            solver.step().expect("decomposed probe step");
            let comm = &solver.ghost.cart.comm;
            let (msgs0, bytes0) = (comm.messages_sent(), comm.bytes_sent());
            for _ in 0..STEPS {
                solver.step().expect("decomposed probe step");
            }
            let comm = &solver.ghost.cart.comm;
            let counts = (comm.messages_sent() - msgs0, comm.bytes_sent() - bytes0);

            let cart = &mut solver.ghost.cart;
            let axis = Axis::ALL
                .into_iter()
                .find(|&a| cart.neighbor(a, -1).is_some() || cart.neighbor(a, 1).is_some())
                .expect("two ranks share a face");
            // Mean over a batch, not a quantile of single exchanges: with
            // both ranks on one CPU every other exchange finds its messages
            // already delivered, and a low quantile would report only those.
            let slab = vec![rank as f64; GHOST_WIDTH * n * n];
            let mut batch_means = Vec::with_capacity(BATCHES);
            for _ in 0..BATCHES {
                let t0 = Instant::now();
                for _ in 0..EXCHANGES {
                    black_box(cart.exchange(axis, 0, &slab, &slab));
                }
                batch_means.push(t0.elapsed().as_secs_f64() / EXCHANGES as f64);
            }
            (counts, stats::min_of(&batch_means))
        })
    });
    let msgs: u64 = per_rank.iter().map(|((m, _), _)| m).sum();
    let bytes: u64 = per_rank.iter().map(|((_, b), _)| b).sum();
    p.v.set("igr-comm.halo_msgs_per_step", msgs as f64 / STEPS as f64);
    p.v.set("igr-comm.halo_bytes_per_step", bytes as f64 / STEPS as f64);
    p.v.set("igr-comm.halo_exchange_us", per_rank[0].1 * 1e6);
}

// ---------------------------------------------------------------------------
// igr-obs
// ---------------------------------------------------------------------------

/// Cost of one of the program's span sites, tracing off and on.
pub fn obs_probes(p: &mut Probes) {
    const N: usize = 100_000;
    let mut spans = |name: &'static str| {
        time_calls(p.tr, name, p.budget, || {
            for _ in 0..N {
                let _sp = igr_obs::span!("bench.probe");
            }
        }) * 1e9
            / N as f64
    };
    p.v.set("igr-obs.span_disabled_ns", spans("igr-obs.span_disabled"));
    igr_obs::enable();
    let enabled = spans("igr-obs.span_enabled");
    igr_obs::disable();
    p.v.set("igr-obs.span_enabled_ns", enabled);
}

// ---------------------------------------------------------------------------
// igr-campaign (and the driver overhead it pays per step)
// ---------------------------------------------------------------------------

/// What the share tables of the sweep workloads need, seconds.
pub struct CampaignTimes {
    pub content_hash: f64,
    pub spec_encode: f64,
    pub spec_decode: f64,
    pub result_encode: f64,
    pub result_decode: f64,
    pub store_fetch: f64,
    pub wire_rtt: f64,
    pub store_append: f64,
    pub exec_scenario: f64,
    pub queue_overhead: f64,
}

/// Seed round the campaign probes draw their scenarios from, away from the
/// rounds the workloads use.
const PROBE_ROUND: u64 = u64::MAX - 1;

/// Lower-decile seconds per operation of `f`, which performs `batch`
/// operations per call (for operations too short to time one at a time).
fn time_batched(
    tr: &mut Tracer,
    name: &'static str,
    budget: Duration,
    batch: usize,
    mut f: impl FnMut(),
) -> f64 {
    time_calls(tr, name, budget, || {
        for _ in 0..batch {
            f();
        }
    }) / batch as f64
}

/// Every campaign layer in isolation: sweep expansion, store open/append/
/// fetch, the spec and result codecs, the content hash, a bare wire round
/// trip, an anti-entropy round, one scenario's execution and its overhead
/// over its steps, and the queue's overhead over the execution.
pub fn campaign_probes(p: &mut Probes) -> CampaignTimes {
    let len = specgen::SWEEP_LEN;
    let expand = time_calls(p.tr, "igr-campaign.sweep_expand", p.budget, || {
        black_box(specgen::sweep_specs(p.seed, PROBE_ROUND, 2));
    });
    p.v.set(
        "igr-campaign.sweep_expand_us_per_spec",
        expand * 1e6 / len as f64,
    );

    // A 192-result store file, as sweep_warm's set-up makes one.
    let specs = specgen::sweep_specs(p.seed, PROBE_ROUND, 2);
    let path = p.dir.join("probe-store.jsonl");
    let report = p.tr.span("igr-campaign.populate", |_| {
        Campaign::open(sweeps::exec_config(), &path)
            .expect("probe store")
            .run(&specs)
    });
    let results: Vec<(u64, ScenarioResult)> = specs
        .iter()
        .zip(&report.rows)
        .map(|(s, row)| (s.content_hash(), (*row.result).clone()))
        .collect();
    assert!(
        results.iter().all(|(_, r)| r.status.is_ok()),
        "probe sweep failed"
    );
    p.v.set(
        "igr-campaign.store_bytes_per_result",
        sweeps::store_bytes_per_result(&path, len).expect("probe store file"),
    );

    let open_192 = time_calls(p.tr, "igr-campaign.store_open_192", p.budget, || {
        black_box(ResultStore::open(&path).expect("open"));
    });
    let big = p.dir.join("probe-store-19200.jsonl");
    std::fs::write(&big, std::fs::read(&path).expect("probe store").repeat(100))
        .expect("write the 19 200-line store");
    let open_19200 = time_calls(p.tr, "igr-campaign.store_open_19200", p.budget, || {
        black_box(ResultStore::open(&big).expect("open"));
    });
    std::fs::remove_file(&big).expect("remove the 19 200-line store");
    p.v.set(
        "igr-campaign.store_open_us_per_line_192",
        open_192 * 1e6 / len as f64,
    );
    p.v.set(
        "igr-campaign.store_open_us_per_line_19200",
        open_19200 * 1e6 / (100 * len) as f64,
    );

    // Codecs, hash and fetch, batched: each is microseconds or less.
    let spec = &specs[0];
    let (hash, result) = &results[0];
    let spec_line = protocol::encode_spec(spec);
    let streamed = Response::Result(StreamedResult {
        job: 1,
        cached: true,
        hash: *hash,
        result: result.clone(),
    });
    let result_line = streamed.encode();
    let mut store = ResultStore::open(&path).expect("open");
    let content_hash = time_batched(p.tr, "igr-campaign.content_hash", p.budget, 256, || {
        black_box(black_box(spec).content_hash());
    });
    let spec_encode = time_batched(p.tr, "igr-campaign.spec_encode", p.budget, 64, || {
        black_box(protocol::encode_spec(black_box(spec)));
    });
    let spec_decode = time_batched(p.tr, "igr-campaign.spec_decode", p.budget, 64, || {
        black_box(protocol::decode_spec(black_box(&spec_line)).expect("decode"));
    });
    let result_encode = time_batched(p.tr, "igr-campaign.result_encode", p.budget, 64, || {
        black_box(black_box(&streamed).encode());
    });
    let result_decode = time_batched(p.tr, "igr-campaign.result_decode", p.budget, 64, || {
        black_box(Response::decode(black_box(result_line.trim_end())).expect("decode"));
    });
    let store_fetch = time_batched(p.tr, "igr-campaign.store_fetch", p.budget, 256, || {
        black_box(store.fetch(black_box(*hash)));
    });
    drop(store);
    p.v.set("igr-campaign.content_hash_ns", content_hash * 1e9);
    p.v.set("igr-campaign.spec_encode_ns", spec_encode * 1e9);
    p.v.set("igr-campaign.spec_decode_ns", spec_decode * 1e9);
    p.v.set("igr-campaign.result_encode_ns", result_encode * 1e9);
    p.v.set("igr-campaign.result_decode_ns", result_decode * 1e9);
    p.v.set("igr-campaign.store_fetch_ns", store_fetch * 1e9);

    // Append: every result once into a fresh file per repetition.
    let append_path = p.dir.join("probe-append.jsonl");
    let store_append = time_calls_on(
        p.tr,
        "igr-campaign.store_append",
        p.budget,
        &mut (),
        |()| {
            let _ = std::fs::remove_file(&append_path);
        },
        |()| {
            let mut store = ResultStore::open(&append_path).expect("open");
            for (h, r) in &results {
                store.insert(*h, r.clone());
            }
        },
    ) / len as f64;
    p.v.set("igr-campaign.store_append_us", store_append * 1e6);

    // Wire: a server over the 192-result store, one client.
    let server = CampaignServer::bind(
        "127.0.0.1:0",
        sweeps::exec_config(),
        ResultStore::open(&path).expect("open"),
    )
    .expect("bind");
    let mut client = CampaignClient::connect(server.local_addr()).expect("connect");
    let wire_rtt = time_batched(p.tr, "igr-campaign.wire_rtt", p.budget, 16, || {
        black_box(client.stats().expect("stats"));
    });
    let digests: Vec<(u64, u64)> = results
        .iter()
        .map(|(h, r)| (*h, igr_campaign::result_digest(*h, r)))
        .collect();
    let sync_round = time_calls(p.tr, "igr-campaign.sync_round", p.budget, || {
        let (missing, want) = client.sync(black_box(&digests)).expect("sync");
        assert!(
            missing.is_empty() && want.is_empty(),
            "identical stores exchange nothing"
        );
    });
    client.shutdown_server().expect("shutdown");
    drop(client);
    server.join();
    p.v.set("igr-campaign.wire_rtt_us", wire_rtt * 1e6);
    p.v.set("igr-campaign.sync_round_us", sync_round * 1e6);

    // Execution: one cold-sweep scenario through `run_scenario`, against the
    // bare stepping it contains.
    let cold = specgen::sweep_specs(p.seed, PROBE_ROUND, 48);
    let timed_steps = cold[0].steps as f64;
    // Each pair runs one scenario directly and through an in-process queue
    // (submit → next_completed); the queue's store never saw it, so both
    // execute it.
    let queue = CampaignQueue::with_store(sweeps::exec_config(), ResultStore::new());
    let next = std::cell::Cell::new(0);
    let (exec_scenario, queue_overhead) = time_pairs(
        p.tr,
        ["igr-campaign.exec_scenario", "igr-campaign.queue_roundtrip"],
        4 * p.budget, // a 1 % difference of two 40 ms runs needs the pairs
        &mut (),
        |()| (),
        |()| {
            let r = run_scenario(black_box(&cold[next.get()]));
            assert!(r.status.is_ok(), "probe scenario failed: {:?}", r.status);
        },
        |()| {
            queue.submit(&cold[next.get()], 0);
            let done = queue.next_completed(Duration::from_secs(60));
            assert!(done.is_some_and(|(_, r, cached)| r.status.is_ok() && !cached));
            next.set(next.get() + 1);
        },
    );
    drop(queue.shutdown());
    let (step_s, driver_overhead) = sweep_step_probe(&cold[0], p);
    p.v.set("igr-campaign.exec_scenario_us", exec_scenario * 1e6);
    p.v.set(
        "igr-campaign.exec_overhead_us",
        (exec_scenario - timed_steps * step_s) * 1e6,
    );
    p.v.set("igr-campaign.queue_overhead_us", queue_overhead * 1e6);
    p.v.set("igr-app.driver_overhead_ns_per_step", driver_overhead * 1e9);

    CampaignTimes {
        content_hash,
        spec_encode,
        spec_decode,
        result_encode,
        result_decode,
        store_fetch,
        wire_rtt,
        store_append,
        exec_scenario,
        queue_overhead,
    }
}

/// On the solver `run_scenario` builds for `spec`: seconds per step of the
/// bare loop the executor's timed region contains (pinned dt, no per-step
/// scan), and the extra seconds per step of marching the same steps through
/// `Driver::run` with a `DiagnosticsObserver` on every step.
fn sweep_step_probe(spec: &ScenarioSpec, p: &mut Probes) -> (f64, f64) {
    const STEPS: usize = 16;
    let case = spec.build_case().expect("probe case");
    let mut solver = igr_core::solver::igr_solver::<f64, StoreF64>(
        spec.igr_config(&case),
        case.domain,
        case.init_state(),
    );
    solver.step().expect("probe step");
    solver.nan_check_every = 0;
    solver.fixed_dt = Some(solver.stable_dt());
    let snapshot = solver.capture();
    let (bare, extra) = time_pairs(
        p.tr,
        ["igr-core.step_x16", "igr-app.driver_run_x16"],
        p.budget,
        &mut solver,
        |s| s.restore(&snapshot).expect("restore"),
        |s| {
            for _ in 0..STEPS {
                s.step().expect("probe step");
            }
        },
        |s| {
            let mut history = History::new();
            Driver::new()
                .max_steps(STEPS)
                .observe(Cadence::EveryStep, DiagnosticsObserver::new(&mut history))
                .run(s)
                .expect("driven probe run");
            assert_eq!(history.samples.len(), STEPS);
        },
    );
    (bare / STEPS as f64, extra / STEPS as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igr_app::cases;

    const BUDGET: Duration = Duration::from_millis(1);

    #[test]
    fn fixed_size_probes_report_their_metrics() {
        let dir = crate::scratch_dir("fixed-probe-test");
        let mut tr = Tracer::new(true, "probe-test");
        let mut v = Values::default();
        let mut p = Probes {
            tr: &mut tr,
            v: &mut v,
            budget: BUDGET,
            dir: &dir,
            seed: 1,
        };
        prec_probes(&mut p);
        grid_probes(&mut p);
        obs_probes(&mut p);
        species_probe(&mut p);
        comm_probe(&mut p);
        for name in [
            "igr-prec.f16_unpack_ns_per_elem",
            "igr-grid.slab_pack_ns_per_elem",
            "igr-obs.span_enabled_ns",
            "igr-species.step_ns_per_cell",
            "igr-comm.halo_exchange_us",
        ] {
            assert!(v.get(name).unwrap() > 0.0, "{name}");
        }
        // Exact counts: the same on every run.
        let msgs = v.get("igr-comm.halo_msgs_per_step").unwrap();
        assert!(msgs > 0.0 && msgs.fract() == 0.0, "{msgs}");
        assert!(tr.spans().iter().any(|s| s.name == "igr-comm.universe"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn core_probes_decompose_a_small_igr_step() {
        let dir = crate::scratch_dir("core-probe-test");
        let mut tr = Tracer::new(false, "probe-test");
        let mut v = Values::default();
        let case = cases::super_heavy_3d(12);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        solver.step().unwrap();
        let snapshot = solver.capture();
        let mut p = Probes {
            tr: &mut tr,
            v: &mut v,
            budget: BUDGET,
            dir: &dir,
            seed: 1,
        };
        let own = own_probes(&mut solver, &snapshot, igr_perf::Scheme::Igr, 10.0, &mut p);
        let igr = igr_probes(&mut solver, &mut p);
        weno_probe::<f64, StoreF64>(&case, &mut p);
        assert_eq!(own.stages, 3.0);
        // At least, not exactly: the span registry is process-wide, and a test
        // running beside this one may add a cold-start solve to the count.
        assert!(igr.sweeps_per_rhs >= 5.0);
        assert!(own.rhs > igr.flux_sweep && igr.flux_sweep > 0.0);
        // 18 arrays of 8 bytes over (18/12)³ of the interior, against 17 N.
        let footprint = v.get("igr-mem.footprint_vs_17n").unwrap();
        assert!(
            (footprint - 18.0 / 17.0 * 3.375).abs() < 1e-9,
            "{footprint}"
        );
        assert!(v.get("igr-baseline.weno_rhs_ns_per_cell").unwrap() > 0.0);
        assert!(v.get("igr-app.checkpoint_bytes_per_cell").unwrap() > 6.0 * 8.0);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
