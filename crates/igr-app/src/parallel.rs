//! The decomposed (multi-rank) launcher.
//!
//! [`run_decomposed`] spawns the rank universe, settles the per-rank resume
//! consensus, and gathers the result; the marching itself is the one
//! [`Driver::run`] loop, once per rank — there is no stepping loop here.
//!
//! Runs the same `igr_core::Solver` on each rank's block, with ghost cells
//! coming from halo exchange (interior faces) or boundary conditions
//! (physical faces). The fill proceeds axis by axis in x → y → z order with
//! *extended* slabs (transverse ghosts included), so edge/corner ghosts end
//! up identical to the single-block fill — decomposed runs reproduce
//! single-rank runs bit for bit in FP64, which the integration tests assert.

use crate::actions::Action;
use crate::checkpoint::{Checkpoint, CheckpointScalar, RankMeta};
use crate::driver::{Cadence, Driver, ScheduledActions, StopCondition};
use igr_comm::{CartComm, Comm, CommData, ReduceOp, Universe};
use igr_core::bc::{
    fill_ghosts_axis_cached, fill_scalar_ghosts_axis, BcSet, FaceMask, InflowCache,
};
use igr_core::eos::Prim;
use igr_core::solver::{GhostOps, Solver};
use igr_core::Fields;
use igr_core::{IgrConfig, IgrScheme, State, GHOST_WIDTH};
use igr_grid::{Axis, Decomp, Domain, Field};
use igr_prec::{Real, Storage};
use std::path::{Path, PathBuf};

/// Halo-exchanging ghost ops for one rank.
pub struct HaloGhostOps {
    /// This rank's place in the Cartesian rank grid, and its communicator.
    pub cart: CartComm,
    /// This rank's block of the global domain.
    pub domain: Domain,
    /// The (global) boundary conditions; applied on the wall faces this
    /// rank owns.
    pub bcs: BcSet,
    /// Ratio of specific heats (inflow-profile ghost states need it).
    pub gamma: f64,
    /// Faces owned by a physical boundary (no neighbor) per axis/side.
    wall_mask: FaceMask,
    send_lo: Vec<f64>, // staging reused across calls (never reallocates)
    send_hi: Vec<f64>,
    /// Memoized static inflow planes for the wall faces this rank owns —
    /// same contract as `BcGhostOps`: replayed values are bit-identical to
    /// re-evaluating the profile. Call [`HaloGhostOps::invalidate_inflow_cache`]
    /// after swapping `bcs` mid-run.
    inflow_cache: InflowCache,
}

impl HaloGhostOps {
    /// Ghost ops for the rank `cart` addresses, on its `domain` block.
    pub fn new(cart: CartComm, domain: Domain, bcs: BcSet, gamma: f64) -> Self {
        let rank = cart.rank();
        let wall_mask: FaceMask = std::array::from_fn(|d| {
            let axis = Axis::ALL[d];
            [
                cart.decomp.neighbor(rank, axis, -1).is_none(),
                cart.decomp.neighbor(rank, axis, 1).is_none(),
            ]
        });
        HaloGhostOps {
            cart,
            domain,
            bcs,
            gamma,
            wall_mask,
            send_lo: Vec::new(),
            send_hi: Vec::new(),
            inflow_cache: InflowCache::new(),
        }
    }

    /// Drop memoized inflow planes (required after swapping `bcs` on ghost
    /// ops that have already filled ghosts — cached planes are keyed by face
    /// only and would otherwise keep replaying the old profile).
    pub fn invalidate_inflow_cache(&mut self) {
        self.inflow_cache.clear();
    }

    /// Exchange one field's halos along one axis (phase-tagged), then leave
    /// wall faces for the BC fill.
    fn exchange_field<R: Real + CommData, S: Storage<R>>(
        &mut self,
        f: &mut Field<R, S>,
        axis: Axis,
        phase: u64,
    ) {
        let ng = GHOST_WIDTH;
        // Pack into f64 staging for a uniform wire format.
        let mut lo_r: Vec<R> = Vec::new();
        let mut hi_r: Vec<R> = Vec::new();
        f.pack_slab_ext(axis, -1, ng, &mut lo_r);
        f.pack_slab_ext(axis, 1, ng, &mut hi_r);
        self.send_lo.clear();
        self.send_lo.extend(lo_r.iter().map(|x| x.to_f64()));
        self.send_hi.clear();
        self.send_hi.extend(hi_r.iter().map(|x| x.to_f64()));
        let (from_lo, from_hi) = self
            .cart
            .exchange(axis, phase, &self.send_lo, &self.send_hi);
        if let Some(buf) = from_lo {
            let vals: Vec<R> = buf.iter().map(|&x| R::from_f64(x)).collect();
            f.unpack_slab_ext(axis, -1, ng, &vals);
        }
        if let Some(buf) = from_hi {
            let vals: Vec<R> = buf.iter().map(|&x| R::from_f64(x)).collect();
            f.unpack_slab_ext(axis, 1, ng, &vals);
        }
    }
}

impl<R: Real + CommData, S: Storage<R>> GhostOps<R, S> for HaloGhostOps {
    fn fill_state(&mut self, q: &mut State<R, S>, t: f64) {
        let shape = q.shape();
        for axis in Axis::ALL {
            if !shape.is_active(axis) {
                continue;
            }
            for (phase, f) in q.fields_mut().into_iter().enumerate() {
                self.exchange_field(f, axis, phase as u64);
            }
            let domain = self.domain;
            let bcs = self.bcs.clone();
            fill_ghosts_axis_cached(
                q,
                &domain,
                &bcs,
                self.gamma,
                t,
                axis,
                &self.wall_mask,
                &mut self.inflow_cache,
            );
        }
    }

    fn fill_scalar(&mut self, f: &mut Field<R, S>) {
        let shape = f.shape();
        for axis in Axis::ALL {
            if !shape.is_active(axis) {
                continue;
            }
            self.exchange_field(f, axis, 5); // phase 5: the sigma channel
            let bcs = self.bcs.clone();
            fill_scalar_ghosts_axis(f, &bcs, axis, &self.wall_mask);
        }
    }

    /// The global CFL step: the minimum over every rank's local one.
    fn reduce_dt(&mut self, local_dt: f64) -> f64 {
        self.cart.comm.allreduce_f64(local_dt, ReduceOp::Min)
    }
}

/// Initialize a rank's state so every cell value is *identical* to the
/// single-block initialization: evaluate the init function at the global
/// cell-center formula using global indices.
pub fn init_state_global<R: Real, S: Storage<R>>(
    decomp: &Decomp,
    rank: usize,
    global_domain: &Domain,
    gamma: f64,
    init: &(impl Fn([f64; 3]) -> Prim<f64> + ?Sized),
) -> State<R, S> {
    let sd = decomp.subdomain(rank);
    let shape = decomp.local_shape(rank, GHOST_WIDTH);
    let mut q = State::zeros(shape);
    let g = R::from_f64(gamma);
    for k in 0..shape.nz as i32 {
        for j in 0..shape.ny as i32 {
            for i in 0..shape.nx as i32 {
                let pos = [
                    global_domain.center(Axis::X, sd.offset[0] as i32 + i),
                    global_domain.center(Axis::Y, sd.offset[1] as i32 + j),
                    global_domain.center(Axis::Z, sd.offset[2] as i32 + k),
                ];
                let pr64 = init(pos);
                let pr: Prim<R> = Prim::from_f64(pr64.rho, pr64.vel, pr64.p);
                q.set_cons(i, j, k, pr.to_cons(g));
            }
        }
    }
    q
}

/// Gather the interior of every rank's field into a global state on rank 0.
pub fn gather_state<R: Real + CommData, S: Storage<R>>(
    comm: &mut Comm,
    decomp: &Decomp,
    q: &State<R, S>,
) -> Option<State<R, S>> {
    const TAG_GATHER: u64 = 4000;
    let rank = comm.rank();
    // Serialize this rank's interior, variable-major then x-fastest.
    let shape = q.shape();
    let mut payload: Vec<R> = Vec::with_capacity(5 * shape.n_interior());
    for f in q.fields() {
        for lin in shape.interior_indices() {
            payload.push(f.at_lin(lin));
        }
    }
    if rank != 0 {
        comm.send(0, TAG_GATHER, &payload);
        return None;
    }
    let global_shape = igr_grid::GridShape::new(
        decomp.global[0],
        decomp.global[1],
        decomp.global[2],
        GHOST_WIDTH,
    );
    let mut global = State::zeros(global_shape);
    for src in 0..comm.size() {
        let data: Vec<R> = if src == 0 {
            std::mem::take(&mut payload)
        } else {
            comm.recv(src, TAG_GATHER)
        };
        let sd = decomp.subdomain(src);
        let n_int = sd.extent[0] * sd.extent[1] * sd.extent[2];
        assert_eq!(
            data.len(),
            5 * n_int,
            "gather size mismatch from rank {src}"
        );
        let mut it = data.into_iter();
        for f in global.fields_mut() {
            for k in 0..sd.extent[2] as i32 {
                for j in 0..sd.extent[1] as i32 {
                    for i in 0..sd.extent[0] as i32 {
                        f.set(
                            sd.offset[0] as i32 + i,
                            sd.offset[1] as i32 + j,
                            sd.offset[2] as i32 + k,
                            it.next().unwrap(),
                        );
                    }
                }
            }
        }
    }
    Some(global)
}

/// Result of a decomposed run.
pub struct DecomposedRun<R: Real, S: Storage<R>> {
    /// Gathered final state (rank 0's assembly).
    pub state: State<R, S>,
    /// The run's total step count (a resumed run marched only the tail).
    pub steps: usize,
    /// Simulation time at the end.
    pub t: f64,
    /// Total bytes sent over the "network" across ranks.
    pub total_bytes_sent: u64,
    /// Step the ranks collectively resumed from (`None` = fresh from 0).
    pub resumed_from: Option<usize>,
}

/// Per-rank restart policy for [`run_decomposed`].
#[derive(Clone, Debug)]
pub struct DecompCheckpointing {
    /// Directory holding the per-rank restart files.
    pub dir: PathBuf,
    /// File stem: rank `N` snapshots to `<stem>.rank<N>.ckpt`.
    pub stem: String,
    /// Autosave cadence in completed steps (0 = never save; an existing
    /// consistent restart set is still honored on start).
    pub every: usize,
}

/// The naming contract for one rank's restart file: `<stem>.rank<N>.ckpt`
/// under `dir`. Shared by the writer, the resume scan, and the campaign
/// executor's cleanup, so the three can never drift apart.
pub fn rank_ckpt_path(dir: &Path, stem: &str, rank: usize) -> PathBuf {
    dir.join(format!("{stem}.rank{rank}.ckpt"))
}

/// Run an IGR case decomposed over `n_ranks` thread-ranks to a TOTAL of
/// `steps` steps. Each rank marches its block through the one
/// [`Driver::run`] loop: the rank solver's adaptive dt is the global CFL
/// minimum ([`GhostOps::reduce_dt`]), the schedule is a
/// [`ScheduledActions`] controller, and autosaves are
/// [`Driver::checkpoint_to`] snapshots carrying the [`RankMeta`] trailer.
///
/// If `ckpt` is given and every rank finds a restart file written by the
/// *same* decomposition (validated via the trailer) at the *same* step —
/// agreement reached through [`Comm::allreduce_u64`], because a split
/// resume decision would deadlock the first halo exchange — all ranks
/// restore (fields + Σ + clock + action log, replayed) and run only the
/// remaining steps, bitwise-identical to an uninterrupted run. Any
/// disagreement (missing file, foreign decomp, torn write) falls back to a
/// fresh start on every rank.
///
/// `schedule` entries `(step, action)` are applied on every rank at the
/// boundary before the given 0-based step, recorded into each rank's log,
/// and replayed on resume. A `SetFixedDt` pin overrides the per-step global
/// CFL reduction until unpinned.
///
/// [`Comm::allreduce_u64`]: igr_comm::Comm::allreduce_u64
pub fn run_decomposed<R, S>(
    cfg: &IgrConfig,
    global_domain: &Domain,
    n_ranks: usize,
    steps: usize,
    init: impl Fn([f64; 3]) -> Prim<f64> + Send + Sync,
    ckpt: Option<DecompCheckpointing>,
    schedule: &[(usize, Action)],
) -> DecomposedRun<R, S>
where
    R: Real + CommData,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
{
    let global = [
        global_domain.shape.nx,
        global_domain.shape.ny,
        global_domain.shape.nz,
    ];
    let decomp = Decomp::auto(global, n_ranks, cfg.bc.periodic_axes());
    let init = &init;
    let ckpt = &ckpt;

    let mut results = Universe::run(n_ranks, move |mut comm| {
        let rank = comm.rank();
        let sd = decomp.subdomain(rank);
        let meta = RankMeta {
            rank: rank as u64,
            n_ranks: n_ranks as u64,
            global: global.map(|x| x as u64),
            dims: decomp.dims.map(|x| x as u64),
            offset: sd.offset.map(|x| x as u64),
            extent: sd.extent.map(|x| x as u64),
        };
        let path = ckpt.as_ref().map(|c| rank_ckpt_path(&c.dir, &c.stem, rank));

        // Resume proposal: a restart file that loads, belongs to THIS shard
        // of THIS decomposition, and restores bit-exactly into a scratch
        // block. Anything less proposes the "fresh" sentinel.
        let local_shape = decomp.local_shape(rank, GHOST_WIDTH);
        let mut candidate: Option<(Checkpoint, State<R, S>)> = None;
        if let Some(path) = &path {
            if let Ok(ck) = Checkpoint::load(path) {
                if ck.rank_meta == Some(meta) && ck.step > 0 && ck.step <= steps && ck.has_sigma() {
                    let mut q: State<R, S> = State::zeros(local_shape);
                    let mut sig: Field<R, S> = Field::zeros(local_shape);
                    if ck.restore(&mut q, Some(&mut sig)).is_ok() {
                        candidate = Some((ck, q));
                    }
                }
            }
        }
        let proposal = candidate
            .as_ref()
            .map(|(ck, _)| ck.step as u64)
            .unwrap_or(u64::MAX);
        let lo = comm.allreduce_u64(proposal, ReduceOp::Min);
        let hi = comm.allreduce_u64(proposal, ReduceOp::Max);
        let resume = lo == hi && lo != u64::MAX;

        let (restored, q) = if resume {
            let (ck, q) = candidate
                .take()
                .expect("resume consensus implies a candidate");
            (Some(ck), q)
        } else {
            let q = init_state_global::<R, S>(&decomp, rank, global_domain, cfg.gamma, init);
            (None, q)
        };
        let local_domain = decomp.local_domain(rank, global_domain, GHOST_WIDTH);
        let cart = CartComm::new(comm, decomp.clone());
        let ghost = HaloGhostOps::new(cart, local_domain, cfg.bc.clone(), cfg.gamma);
        let scheme = IgrScheme::new(cfg.clone(), local_domain);
        let mut solver: Solver<R, S, _, _> = Solver::new(scheme, ghost, local_domain, q);
        solver.nan_check_every = 0; // checked after gather

        let start = restored.as_ref().map_or(0, |ck| ck.step);
        let mut driver = Driver::new()
            .stop_when(StopCondition::StepReached(steps))
            .control(
                Cadence::EveryStep,
                ScheduledActions::new(schedule.to_vec()).skip_through(start),
            );
        driver.rank_meta = Some(meta);
        if let (Some(c), Some(path)) = (ckpt.as_ref().filter(|c| c.every != 0), &path) {
            driver = driver.checkpoint_to(path, Some(Cadence::EverySteps(c.every)));
        }
        if let Some(ck) = &restored {
            driver
                .resume_from(&mut solver, ck)
                .unwrap_or_else(|e| panic!("rank {rank} resume failed: {e}"));
        }
        // A controller first fires at the boundary *after* a step, so
        // entries due at the boundary the run starts from — step 0 of a
        // fresh run, or a restart file written before they were applied —
        // are applied here, unless the restored log already holds them.
        let (start_step, t) = (start as u64, solver.t());
        if !driver
            .action_log()
            .records()
            .iter()
            .any(|r| r.step == start_step)
        {
            for (_, action) in schedule.iter().filter(|(at, _)| *at == start) {
                driver
                    .apply(&mut solver, action, start, t)
                    .unwrap_or_else(|e| panic!("rank {rank} action at step {start} failed: {e}"));
            }
        }
        driver
            .run(&mut solver)
            .unwrap_or_else(|e| panic!("rank {rank} failed: {e}"));

        let bytes = solver.ghost.cart.comm.bytes_sent();
        let gathered = gather_state(&mut solver.ghost.cart.comm, &decomp, &solver.q);
        (gathered, solver.t(), bytes, resume.then_some(start))
    });

    let total_bytes: u64 = results.iter().map(|(_, _, b, _)| *b).sum();
    let (state, t, _, resumed_from) = results.swap_remove(0);
    DecomposedRun {
        state: state.expect("rank 0 gathers"),
        steps,
        t,
        total_bytes_sent: total_bytes,
        resumed_from,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use igr_prec::StoreF64;

    /// Run the same case single-rank through the same driver (n_ranks = 1).
    fn single_rank_reference(
        cfg: &IgrConfig,
        domain: &Domain,
        steps: usize,
        init: impl Fn([f64; 3]) -> Prim<f64> + Send + Sync,
    ) -> State<f64, StoreF64> {
        run_decomposed::<f64, StoreF64>(cfg, domain, 1, steps, init, None, &[]).state
    }

    #[test]
    fn two_rank_run_matches_single_rank_bitwise_1d() {
        let case = cases::steepening_wave(64, 0.3);
        let cfg = case.igr_config();
        let init = case.init.clone();
        let init2 = case.init.clone();
        let single = single_rank_reference(&cfg, &case.domain, 10, move |p| init(p));
        let multi = run_decomposed::<f64, StoreF64>(
            &cfg,
            &case.domain,
            2,
            10,
            move |p| init2(p),
            None,
            &[],
        );
        assert_eq!(
            single.max_diff(&multi.state),
            0.0,
            "decomposed run must be bitwise identical"
        );
        assert!(multi.total_bytes_sent > 0, "halos must actually travel");
    }

    #[test]
    fn four_rank_3d_run_matches_single_rank_bitwise() {
        let shape = igr_grid::GridShape::new(16, 12, 8, 3);
        let domain = Domain::unit(shape);
        let cfg = IgrConfig::default();
        let tau = std::f64::consts::TAU;
        let init = move |p: [f64; 3]| {
            Prim::new(
                1.0 + 0.2 * (tau * p[0]).sin() * (tau * p[1]).cos(),
                [0.3 * (tau * p[2]).sin(), -0.1, 0.2],
                1.0 + 0.1 * (tau * p[1]).sin(),
            )
        };
        let single = single_rank_reference(&cfg, &domain, 5, init);
        let multi = run_decomposed::<f64, StoreF64>(&cfg, &domain, 4, 5, init, None, &[]);
        assert_eq!(single.max_diff(&multi.state), 0.0);
    }

    #[test]
    fn outflow_boundaries_also_match_across_rank_counts() {
        let case = cases::sod(48);
        let cfg = case.igr_config();
        let i1 = case.init.clone();
        let i3 = case.init.clone();
        let single = single_rank_reference(&cfg, &case.domain, 8, move |p| i1(p));
        let multi =
            run_decomposed::<f64, StoreF64>(&cfg, &case.domain, 3, 8, move |p| i3(p), None, &[]);
        assert_eq!(single.max_diff(&multi.state), 0.0);
    }

    #[test]
    fn gather_reassembles_ranks_in_the_right_places() {
        // Tag each cell with its global index through init, run 0 steps,
        // and verify the gathered state equals the direct global init.
        let shape = igr_grid::GridShape::new(10, 6, 4, 3);
        let domain = Domain::unit(shape);
        let cfg = IgrConfig::default();
        let init = |p: [f64; 3]| Prim::new(1.0 + p[0] + 10.0 * p[1] + 100.0 * p[2], [0.0; 3], 1.0);
        let single = single_rank_reference(&cfg, &domain, 0, init);
        let multi = run_decomposed::<f64, StoreF64>(&cfg, &domain, 6, 0, init, None, &[]);
        assert_eq!(single.max_diff(&multi.state), 0.0);
    }

    /// The wall-face inflow fill now goes through the memoized plane cache;
    /// replayed planes must leave decomposed runs bitwise rank-count
    /// invariant (each rank caches its own slice of the engine-array plane).
    #[test]
    fn decomposed_jet_inflow_through_the_cache_matches_across_rank_counts() {
        let case = cases::engine_row_2d(16, 3, crate::jets::JetConditions::mach10());
        let cfg = case.igr_config();
        let i1 = case.init.clone();
        let i2 = case.init.clone();
        let single =
            run_decomposed::<f64, StoreF64>(&cfg, &case.domain, 1, 4, move |p| i1(p), None, &[])
                .state;
        let multi =
            run_decomposed::<f64, StoreF64>(&cfg, &case.domain, 2, 4, move |p| i2(p), None, &[]);
        assert_eq!(
            single.max_diff(&multi.state),
            0.0,
            "cached inflow planes must not perturb the decomposed run"
        );
    }

    #[test]
    fn per_rank_checkpoint_resume_is_bitwise_with_actions() {
        // An interrupted decomposed run (cut at step 6, snapshots every 3)
        // resumed from its per-rank files matches the uninterrupted run bit
        // for bit — including an engine knock-out applied before the cut
        // (comes back via the replayed ActionLog) and one after (comes back
        // via the live schedule).
        let case = cases::engine_row_2d(16, 3, crate::jets::JetConditions::mach10());
        let cfg = case.igr_config();
        let schedule = vec![
            (3usize, Action::EngineOut { engine: 1 }),
            (8usize, Action::EngineOut { engine: 0 }),
        ];
        let dir = std::env::temp_dir().join("igr_parallel_resume_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = DecompCheckpointing {
            dir: dir.clone(),
            stem: "resume_case".into(),
            every: 3,
        };

        let i1 = case.init.clone();
        let straight = run_decomposed::<f64, StoreF64>(
            &cfg,
            &case.domain,
            2,
            10,
            move |p| i1(p),
            None,
            &schedule,
        );
        assert_eq!(straight.resumed_from, None);

        let i2 = case.init.clone();
        let cut = run_decomposed::<f64, StoreF64>(
            &cfg,
            &case.domain,
            2,
            6,
            move |p| i2(p),
            Some(ckpt.clone()),
            &schedule,
        );
        assert_eq!(cut.resumed_from, None, "no prior files: fresh start");
        for rank in 0..2 {
            assert!(
                rank_ckpt_path(&dir, "resume_case", rank).exists(),
                "rank {rank} must have snapshotted at the cut"
            );
        }

        let i3 = case.init.clone();
        let resumed = run_decomposed::<f64, StoreF64>(
            &cfg,
            &case.domain,
            2,
            10,
            move |p| i3(p),
            Some(ckpt.clone()),
            &schedule,
        );
        assert_eq!(resumed.resumed_from, Some(6), "must pick up at the cut");
        assert_eq!(
            straight.state.max_diff(&resumed.state),
            0.0,
            "resumed decomposed run must be bitwise identical"
        );
        assert_eq!(straight.t.to_bits(), resumed.t.to_bits());

        // A different decomposition refuses the files and falls back fresh
        // (rank 2 of 3 has no file; consensus says start over) — and still
        // lands on the same answer because decomposed runs are rank-count
        // invariant.
        let i4 = case.init.clone();
        let other = run_decomposed::<f64, StoreF64>(
            &cfg,
            &case.domain,
            3,
            10,
            move |p| i4(p),
            Some(ckpt),
            &schedule,
        );
        assert_eq!(other.resumed_from, None, "foreign decomp must not resume");
        assert_eq!(straight.state.max_diff(&other.state), 0.0);

        for rank in 0..2 {
            let _ = std::fs::remove_file(rank_ckpt_path(&dir, "resume_case", rank));
        }
        for rank in 0..3 {
            let _ = std::fs::remove_file(rank_ckpt_path(&dir, "resume_case", rank));
        }
    }

    /// A schedule entry at step 0 means "before the first step" — the
    /// launcher's contract since before the ranks marched through
    /// `Driver::run`, whose controllers first fire *after* a step.
    #[test]
    fn schedule_entry_at_step_zero_applies_before_the_first_step() {
        use crate::actions::Actuate;
        let case = cases::engine_row_2d(16, 3, crate::jets::JetConditions::mach10());
        let cfg = case.igr_config();
        let knock_out = Action::EngineOut { engine: 1 };
        let dir = std::env::temp_dir().join("igr_parallel_step_zero_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |at: usize, ckpt| {
            let init = case.init.clone();
            let schedule = [(at, knock_out.clone())];
            run_decomposed::<f64, StoreF64>(
                &cfg,
                &case.domain,
                2,
                3,
                move |p| init(p),
                ckpt,
                &schedule,
            )
        };
        let at_zero = run(
            0,
            Some(DecompCheckpointing {
                dir: dir.clone(),
                stem: "step_zero".into(),
                every: 1,
            }),
        );

        // The log every rank carries stamps the entry at the step-0 boundary.
        for rank in 0..2 {
            let path = rank_ckpt_path(&dir, "step_zero", rank);
            let ck = Checkpoint::load(&path).unwrap();
            let rec = &ck.actions.records()[0];
            assert_eq!((rec.step, rec.t.to_bits()), (0, 0f64.to_bits()));
            let _ = std::fs::remove_file(path);
        }
        // Same physics as a block that never had the engine...
        let mut reference = case.igr_solver::<f64, StoreF64>();
        reference.actuate(&knock_out, 0.0).unwrap();
        Driver::new().max_steps(3).run(&mut reference).unwrap();
        assert_eq!(reference.q.max_diff(&at_zero.state), 0.0);
        // ...and not the physics of losing it one boundary later.
        assert!(run(1, None).state.max_diff(&at_zero.state) > 0.0);
    }

    #[test]
    fn comm_volume_grows_with_rank_count() {
        let case = cases::steepening_wave(96, 0.2);
        let cfg = case.igr_config();
        let i2 = case.init.clone();
        let i4 = case.init.clone();
        let two =
            run_decomposed::<f64, StoreF64>(&cfg, &case.domain, 2, 3, move |p| i2(p), None, &[]);
        let four =
            run_decomposed::<f64, StoreF64>(&cfg, &case.domain, 4, 3, move |p| i4(p), None, &[]);
        assert!(
            four.total_bytes_sent > two.total_bytes_sent,
            "more ranks, more halo traffic: {} vs {}",
            four.total_bytes_sent,
            two.total_bytes_sent
        );
    }
}
