//! Typed mid-run actions, the deterministic action log, and the [`Actuate`]
//! surface that applies actions to a solver at a step boundary.
//!
//! The run-loop used to be strictly read-only: observers could watch a march
//! but never change it, so engine-out cascades, gimbal ramps, and
//! backpressure transients had to be frozen into the scenario spec before
//! step 0. This module is the mutate-between-steps channel the ROADMAP
//! called for: controllers propose [`Action`]s, the `Driver` applies them
//! *only at step boundaries* through [`Actuate`], and every applied action
//! is appended to an [`ActionLog`] stamped with the step and simulation time
//! it was applied at.
//!
//! Determinism contract:
//!
//! * actions mutate the solver only through the existing BC surface (the
//!   installed [`InflowProfile`] is cloned, rewritten, and reinstalled) and
//!   the inflow-plane cache is invalidated, so the post-action march is
//!   bitwise identical to a run that had the mutated configuration from the
//!   start of the step;
//! * the log records `(step, t, action)` and every action parameter is
//!   serialized bit-exactly (floats travel as IEEE-754 bit patterns), so
//!   replaying the log against a freshly built solver — [`replay`], the
//!   resume path — reconstructs the identical boundary state: ramps are
//!   rebuilt from the *recorded* application time, not the wall clock;
//! * nothing here feeds a content hash: like `resumed_from`, the log is a
//!   recorded outcome, not part of a scenario's identity.

use crate::checkpoint::{decode_log, decode_log_exact, encode_log};
use crate::jets::{GimbalSchedule, JetArrayInflow, ScheduledJetInflow};
use igr_core::bc::{Bc, InflowProfile};
use igr_core::eos::Prim;
use igr_core::solver::{BcGhostOps, GhostOps, RhsScheme, Solver};
use igr_prec::{Real, Storage};
use igr_species::SpeciesSolver;
use std::sync::Arc;

/// A typed request to mutate the running solver at the next step boundary.
///
/// Parameters are plain `f64`/`usize` so every variant serializes into the
/// fixed-layout binary record (checkpoint trailer) and the JSON store/wire
/// codec without loss.
#[derive(Clone, Debug)]
pub enum Action {
    /// Retarget one engine's gimbal. `rate > 0` slews at that angular rate
    /// from the engine's *current* angles (a [`GimbalSchedule::ramp_at_rate`]
    /// starting at the application time); `rate == 0` snaps instantly.
    SetGimbal {
        /// Index into the installed engine array.
        engine: usize,
        /// Target gimbal angles (radians, per in-plane direction).
        target: [f64; 2],
        /// Angular slew rate (radians per time unit); 0 = instantaneous.
        rate: f64,
    },
    /// Remove one engine from the installed array (indices of later engines
    /// shift down by one, exactly like `without_engines`).
    EngineOut {
        /// Index into the installed engine array.
        engine: usize,
    },
    /// Change the ambient backpressure while keeping the engine exit state
    /// fixed — the jets become under-/over-expanded, the §3 "varying ambient
    /// pressure as the rocket traverses the atmosphere" regime, mid-run.
    SetBackpressure {
        /// New ambient pressure (the ambient density follows isothermally).
        pressure: f64,
    },
    /// Replace the jet gas conditions wholesale (ambient state, exit Mach,
    /// ratios) — the mid-run analogue of installing a different inflow
    /// profile.
    SwapInflow {
        /// Ambient density.
        ambient_rho: f64,
        /// Ambient pressure.
        ambient_p: f64,
        /// Engine exit Mach number.
        mach: f64,
        /// Ratio of specific heats.
        gamma: f64,
        /// Exit-to-ambient pressure ratio.
        pressure_ratio: f64,
        /// Exit-to-ambient density ratio.
        density_ratio: f64,
    },
    /// Pin (or unpin) the time step.
    SetFixedDt {
        /// `Some(dt)` pins; `None` returns to the CFL scan.
        dt: Option<f64>,
    },
    /// Ask the driver to write a checkpoint (with the action log embedded)
    /// at this step boundary. Applied by the `Driver`, not the solver.
    RequestCheckpoint,
}

impl Action {
    /// Stable lowercase name of the variant (error messages, JSON codec).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Action::SetGimbal { .. } => "set_gimbal",
            Action::EngineOut { .. } => "engine_out",
            Action::SetBackpressure { .. } => "set_backpressure",
            Action::SwapInflow { .. } => "swap_inflow",
            Action::SetFixedDt { .. } => "set_fixed_dt",
            Action::RequestCheckpoint => "request_checkpoint",
        }
    }
}

/// One applied action, stamped with the step boundary it was applied at.
#[derive(Clone, Debug)]
pub struct ActionRecord {
    /// Absolute step counter at application (post-step boundary).
    pub step: u64,
    /// Simulation time at application.
    pub t: f64,
    /// What was applied.
    pub action: Action,
}

/// The deterministic, time-stamped log of every applied action.
///
/// Serialized (a) into the `IGRCKPT` trailer so a resumed run replays a
/// mutated boundary state bitwise, and (b) by `igr-campaign` into store
/// lines / the wire protocol as the additive optional `actions` key.
/// Equality is *bit-exact* (floats compare as bit patterns, so NaN-carrying
/// parameters round-trip and compare equal).
#[derive(Clone, Debug, Default)]
pub struct ActionLog {
    records: Vec<ActionRecord>,
}

/// Fixed binary record layout: step(8) + t(8) + kind(1) + index(8) + 6
/// f64 parameter slots (48).
const RECORD_BYTES: usize = 8 + 8 + 1 + 8 + 48;
/// Trailer magic + version, appended after an `IGRCKPT` payload.
pub(crate) const ACTLOG_MAGIC: &[u8; 8] = b"ACTLOG\x01\0";
/// How decode errors name this log.
const WHAT: &str = "action-log";

impl ActionLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The applied actions, in application order.
    pub fn records(&self) -> &[ActionRecord] {
        &self.records
    }

    /// Number of applied actions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been applied.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append one applied action.
    pub fn record(&mut self, step: u64, t: f64, action: Action) {
        self.records.push(ActionRecord { step, t, action });
    }

    /// Serialize as the checkpoint trailer: magic + count + fixed records.
    /// Every float is written as its IEEE-754 bit pattern (bit-exact,
    /// NaN/±inf included).
    pub fn encode(&self) -> Vec<u8> {
        encode_log(ACTLOG_MAGIC, RECORD_BYTES, &self.records, |rec, out| {
            out.extend_from_slice(&rec.step.to_le_bytes());
            out.extend_from_slice(&rec.t.to_bits().to_le_bytes());
            let (kind, idx, p) = encode_action(&rec.action);
            out.push(kind);
            out.extend_from_slice(&idx.to_le_bytes());
            for v in p {
                out.extend_from_slice(&v.to_le_bytes());
            }
        })
    }

    /// Parse a trailer produced by [`ActionLog::encode`]. The byte slice
    /// must contain exactly one trailer (no slack).
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        decode_log_exact(WHAT, ACTLOG_MAGIC, RECORD_BYTES, bytes, decode_record)
            .map(|records| ActionLog { records })
    }

    /// Parse one trailer from the front of `bytes`, returning the log and
    /// the number of bytes consumed — the entry point for the multi-trailer
    /// checkpoint parser (an `ACTLOG` may be followed by a `RECLOG`).
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), String> {
        decode_log(WHAT, ACTLOG_MAGIC, RECORD_BYTES, bytes, decode_record)
            .map(|(records, used)| (ActionLog { records }, used))
    }
}

/// One fixed-layout record (a `RECORD_BYTES` slice) back into an
/// [`ActionRecord`].
fn decode_record(b: &[u8]) -> Result<ActionRecord, String> {
    let u = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8-byte slice"));
    let p: [u64; 6] = std::array::from_fn(|s| u(25 + s * 8));
    Ok(ActionRecord {
        step: u(0),
        t: f64::from_bits(u(8)),
        action: decode_action(b[16], u(17), &p)?,
    })
}

/// Bit-exact equality via the canonical binary encoding.
impl PartialEq for ActionLog {
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

/// `(kind tag, index slot, 6 f64-bit parameter slots)` of an action.
fn encode_action(a: &Action) -> (u8, u64, [u64; 6]) {
    let mut p = [0u64; 6];
    match a {
        Action::SetGimbal {
            engine,
            target,
            rate,
        } => {
            p[0] = target[0].to_bits();
            p[1] = target[1].to_bits();
            p[2] = rate.to_bits();
            (1, *engine as u64, p)
        }
        Action::EngineOut { engine } => (2, *engine as u64, p),
        Action::SetBackpressure { pressure } => {
            p[0] = pressure.to_bits();
            (3, 0, p)
        }
        Action::SwapInflow {
            ambient_rho,
            ambient_p,
            mach,
            gamma,
            pressure_ratio,
            density_ratio,
        } => {
            for (slot, v) in p.iter_mut().zip([
                ambient_rho,
                ambient_p,
                mach,
                gamma,
                pressure_ratio,
                density_ratio,
            ]) {
                *slot = v.to_bits();
            }
            (4, 0, p)
        }
        Action::SetFixedDt { dt } => {
            if let Some(dt) = dt {
                p[0] = dt.to_bits();
                (5, 1, p)
            } else {
                (5, 0, p)
            }
        }
        Action::RequestCheckpoint => (6, 0, p),
    }
}

fn decode_action(kind: u8, idx: u64, p: &[u64; 6]) -> Result<Action, String> {
    let f = |s: usize| f64::from_bits(p[s]);
    Ok(match kind {
        1 => Action::SetGimbal {
            engine: idx as usize,
            target: [f(0), f(1)],
            rate: f(2),
        },
        2 => Action::EngineOut {
            engine: idx as usize,
        },
        3 => Action::SetBackpressure { pressure: f(0) },
        4 => Action::SwapInflow {
            ambient_rho: f(0),
            ambient_p: f(1),
            mach: f(2),
            gamma: f(3),
            pressure_ratio: f(4),
            density_ratio: f(5),
        },
        5 => Action::SetFixedDt {
            dt: (idx != 0).then(|| f(0)),
        },
        6 => Action::RequestCheckpoint,
        other => return Err(format!("unknown action kind tag {other}")),
    })
}

/// Why an action could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum ActuateError {
    /// The solver (or its installed boundary profile) cannot apply this
    /// action kind.
    Unsupported(String),
    /// The action's parameters are out of range for the current state
    /// (engine index past the array, non-positive pressure, ...).
    InvalidAction(String),
}

impl std::fmt::Display for ActuateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActuateError::Unsupported(m) => write!(f, "unsupported action: {m}"),
            ActuateError::InvalidAction(m) => write!(f, "invalid action: {m}"),
        }
    }
}

impl std::error::Error for ActuateError {}

/// Apply [`Action`]s at step boundaries. Implemented by `igr_core::Solver`
/// (any scheme, single-block BC ghosts) and `igr_species::SpeciesSolver`.
///
/// `t` is the simulation time the action is applied at — the step-boundary
/// clock during a live run, the *recorded* time during a resume replay, so
/// slew ramps rebuild identically either way.
pub trait Actuate {
    /// Apply one action. Errors must leave the solver unchanged.
    fn actuate(&mut self, action: &Action, t: f64) -> Result<(), ActuateError>;
}

/// Re-apply a log against a freshly built solver — the resume path.
/// [`Action::RequestCheckpoint`] records are skipped (they never mutated the
/// solver).
pub fn replay<A: Actuate + ?Sized>(log: &ActionLog, sys: &mut A) -> Result<(), ActuateError> {
    for rec in log.records() {
        if !matches!(rec.action, Action::RequestCheckpoint) {
            sys.actuate(&rec.action, rec.t)?;
        }
    }
    Ok(())
}

/// The jet array installed on a BC surface, if any, together with every
/// engine's current gimbal angles at time `t` (schedules evaluated). Lets
/// feedback controllers derive "current command" from the installed state
/// rather than internal memory — the stateless-controller pattern that
/// keeps controlled resumes bitwise (replay reconstructs the profile, and
/// with it the controller's view).
pub(crate) fn installed_jet_state(
    bcs: &igr_core::bc::BcSet,
    t: f64,
) -> Option<(JetArrayInflow, Vec<[f64; 2]>)> {
    for face in bcs.faces.iter().flatten() {
        if let Bc::InflowProfile(p) = face {
            let any = p.as_any()?;
            if let Some(j) = any.downcast_ref::<JetArrayInflow>() {
                let gimbals = j.engines.iter().map(|e| e.gimbal).collect();
                return Some((j.clone(), gimbals));
            }
            if let Some(s) = any.downcast_ref::<ScheduledJetInflow>() {
                let gimbals = (0..s.base.engines.len())
                    .map(|i| s.gimbal_at(i, t))
                    .collect();
                return Some((s.base.clone(), gimbals));
            }
            return None;
        }
    }
    None
}

/// Rewrite the jet profile behind an installed [`InflowProfile`] according
/// to `action`, returning the replacement profile. Instant-only outcomes
/// degenerate back to the memoizable static array.
fn mutate_jet_profile(
    profile: &dyn InflowProfile,
    action: &Action,
    t: f64,
) -> Result<Arc<dyn InflowProfile>, ActuateError> {
    let any = profile.as_any().ok_or_else(|| {
        ActuateError::Unsupported("installed inflow profile is not actuatable".into())
    })?;
    let mut s = if let Some(s) = any.downcast_ref::<ScheduledJetInflow>() {
        s.clone()
    } else if let Some(j) = any.downcast_ref::<JetArrayInflow>() {
        ScheduledJetInflow {
            base: j.clone(),
            schedules: Vec::new(),
        }
    } else {
        return Err(ActuateError::Unsupported(
            "installed inflow profile is not a jet array".into(),
        ));
    };
    apply_to_scheduled(&mut s, action, t)?;
    if s.schedules.is_empty() {
        // No time dependence left: reinstall as the static array so the
        // inflow-plane memoization keeps applying.
        Ok(Arc::new(s.base))
    } else {
        Ok(Arc::new(s))
    }
}

fn apply_to_scheduled(
    s: &mut ScheduledJetInflow,
    action: &Action,
    t: f64,
) -> Result<(), ActuateError> {
    let n = s.base.engines.len();
    let check = |engine: usize| {
        if engine >= n {
            Err(ActuateError::InvalidAction(format!(
                "engine index {engine} out of range (array has {n})"
            )))
        } else {
            Ok(())
        }
    };
    match action {
        Action::SetGimbal {
            engine,
            target,
            rate,
        } => {
            check(*engine)?;
            if !(rate.is_finite() && *rate >= 0.0) {
                return Err(ActuateError::InvalidAction(format!(
                    "slew rate {rate} must be finite and >= 0"
                )));
            }
            let current = s.gimbal_at(*engine, t);
            s.schedules.retain(|(e, _)| e != engine);
            if *rate > 0.0 {
                s.schedules.push((
                    *engine,
                    GimbalSchedule::ramp_at_rate(t, current, *target, *rate),
                ));
            } else {
                s.base.engines[*engine].gimbal = *target;
            }
        }
        Action::EngineOut { engine } => {
            check(*engine)?;
            s.base.engines.remove(*engine);
            s.schedules.retain(|(e, _)| e != engine);
            for (e, _) in &mut s.schedules {
                if *e > *engine {
                    *e -= 1;
                }
            }
        }
        Action::SetBackpressure { pressure } => {
            if !(pressure.is_finite() && *pressure > 0.0) {
                return Err(ActuateError::InvalidAction(format!(
                    "ambient pressure {pressure} must be finite and positive"
                )));
            }
            // Keep the engine exit state fixed; only the ambient (and, via
            // the ratios, the expansion regime) changes — the mid-run
            // analogue of `JetConditions::mach10_at_altitude`.
            let cond = &mut s.base.conditions;
            let exit = cond.exit_state(s.base.flow_dim);
            cond.ambient = Prim::new(*pressure, [0.0; 3], *pressure);
            cond.pressure_ratio = exit.p / pressure;
            cond.density_ratio = exit.rho / pressure;
        }
        Action::SwapInflow {
            ambient_rho,
            ambient_p,
            mach,
            gamma,
            pressure_ratio,
            density_ratio,
        } => {
            for (name, v) in [
                ("ambient_rho", ambient_rho),
                ("ambient_p", ambient_p),
                ("mach", mach),
                ("gamma", gamma),
                ("pressure_ratio", pressure_ratio),
                ("density_ratio", density_ratio),
            ] {
                if !(v.is_finite() && *v > 0.0) {
                    return Err(ActuateError::InvalidAction(format!(
                        "{name} {v} must be finite and positive"
                    )));
                }
            }
            let cond = &mut s.base.conditions;
            cond.ambient = Prim::new(*ambient_rho, [0.0; 3], *ambient_p);
            cond.mach = *mach;
            cond.gamma = *gamma;
            cond.pressure_ratio = *pressure_ratio;
            cond.density_ratio = *density_ratio;
        }
        Action::SetFixedDt { .. } | Action::RequestCheckpoint => {
            unreachable!("handled before the jet path")
        }
    }
    Ok(())
}

/// The jet path shared by every solver flavor that owns a [`BcSet`]:
/// find the installed inflow-profile face, rewrite it, reinstall.
fn actuate_jet_on_bcs(
    bcs: &mut igr_core::bc::BcSet,
    action: &Action,
    t: f64,
) -> Result<(), ActuateError> {
    let mut found = None;
    'faces: for d in 0..3 {
        for side in 0..2 {
            if let Bc::InflowProfile(p) = &bcs.faces[d][side] {
                found = Some((d, side, p.clone()));
                break 'faces;
            }
        }
    }
    let (d, side, profile) = found.ok_or_else(|| {
        ActuateError::Unsupported("no inflow-profile boundary face to actuate".into())
    })?;
    let replacement = mutate_jet_profile(profile.as_ref(), action, t)?;
    bcs.faces[d][side] = Bc::InflowProfile(replacement);
    Ok(())
}

/// Ghost policies that own the boundary-condition set jet actions rewrite.
pub trait BcSurface {
    /// The boundary conditions, handed out for rewriting: memoized inflow
    /// planes are dropped, so the next ghost fill re-evaluates the profile.
    fn bcs_for_rewrite(&mut self) -> &mut igr_core::bc::BcSet;
}

impl BcSurface for BcGhostOps {
    fn bcs_for_rewrite(&mut self) -> &mut igr_core::bc::BcSet {
        self.invalidate_inflow_cache();
        &mut self.bcs
    }
}

impl BcSurface for crate::parallel::HaloGhostOps {
    fn bcs_for_rewrite(&mut self) -> &mut igr_core::bc::BcSet {
        self.invalidate_inflow_cache();
        &mut self.bcs
    }
}

/// The solver applies every action kind: dt policy directly, jet actions by
/// rewriting the installed inflow profile through the BC surface. Decomposed
/// solvers take the same path: every rank holds the full
/// [`igr_core::bc::BcSet`] and mutates it with identical parameters, so the
/// actuated boundary state stays rank-count invariant.
impl<R, S, Sch, G> Actuate for Solver<R, S, Sch, G>
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
    G: GhostOps<R, S> + BcSurface,
{
    fn actuate(&mut self, action: &Action, t: f64) -> Result<(), ActuateError> {
        match action {
            Action::SetFixedDt { dt } => {
                self.fixed_dt = *dt;
                Ok(())
            }
            Action::RequestCheckpoint => Ok(()),
            jet_action => actuate_jet_on_bcs(self.ghost.bcs_for_rewrite(), jet_action, t),
        }
    }
}

/// The two-fluid solver has no jet-array boundary surface (its inflow
/// profiles are `MixInflowProfile`s), so only the dt policy is actuatable;
/// jet actions are refused.
impl<R, S> Actuate for SpeciesSolver<R, S>
where
    R: Real,
    S: Storage<R>,
{
    fn actuate(&mut self, action: &Action, _t: f64) -> Result<(), ActuateError> {
        match action {
            Action::SetFixedDt { dt } => {
                self.fixed_dt = *dt;
                Ok(())
            }
            Action::RequestCheckpoint => Ok(()),
            other => Err(ActuateError::Unsupported(format!(
                "species solver cannot apply {}",
                other.kind_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use igr_prec::StoreF64;

    fn nontrivial_log() -> ActionLog {
        let mut log = ActionLog::new();
        log.record(
            5,
            0.125,
            Action::SetGimbal {
                engine: 2,
                target: [0.1, -0.05],
                rate: 0.25,
            },
        );
        log.record(9, 0.25, Action::EngineOut { engine: 0 });
        log.record(12, 0.375, Action::SetBackpressure { pressure: 0.1 });
        log.record(
            15,
            0.5,
            Action::SwapInflow {
                ambient_rho: 0.2,
                ambient_p: 0.2,
                mach: 8.0,
                gamma: 1.3,
                pressure_ratio: 5.0,
                density_ratio: 5.0,
            },
        );
        log.record(18, 0.625, Action::SetFixedDt { dt: Some(1e-4) });
        log.record(20, 0.75, Action::SetFixedDt { dt: None });
        log.record(22, 0.875, Action::RequestCheckpoint);
        log
    }

    #[test]
    fn binary_roundtrip_is_bit_exact_including_nonfinite() {
        let mut log = nontrivial_log();
        // Non-finite parameters must survive bit-for-bit (payload NaNs too).
        log.record(
            u64::MAX,
            f64::NAN,
            Action::SetGimbal {
                engine: usize::MAX >> 1,
                target: [f64::INFINITY, f64::NEG_INFINITY],
                rate: f64::from_bits(0x7ff8_dead_beef_cafe),
            },
        );
        let bytes = log.encode();
        let back = ActionLog::decode(&bytes).unwrap();
        assert_eq!(back, log, "bit-exact round-trip");
        assert_eq!(back.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn decode_refuses_garbage_and_truncation() {
        assert!(ActionLog::decode(b"nope").is_err());
        let mut bytes = nontrivial_log().encode();
        bytes.pop();
        assert!(ActionLog::decode(&bytes).is_err());
        let empty = ActionLog::new().encode();
        assert_eq!(ActionLog::decode(&empty).unwrap(), ActionLog::new());
    }

    #[test]
    fn gimbal_retarget_rewrites_the_installed_profile() {
        let case = cases::engine_row_2d(48, 3, crate::jets::JetConditions::mach10());
        let mut solver = case.igr_solver::<f64, StoreF64>();
        solver
            .actuate(
                &Action::SetGimbal {
                    engine: 1,
                    target: [0.2, 0.0],
                    rate: 0.0,
                },
                0.0,
            )
            .unwrap();
        // The installed profile now reports the new gimbal on engine 1.
        let jet = installed_jet(&solver.ghost.bcs);
        assert_eq!(jet.engines[1].gimbal, [0.2, 0.0]);
        // Instant retarget keeps the static (memoizable) array.
        assert!(!installed_profile(&solver.ghost.bcs).time_varying());
    }

    #[test]
    fn ramped_retarget_installs_a_schedule_anchored_at_t() {
        let case = cases::engine_row_2d(48, 3, crate::jets::JetConditions::mach10());
        let mut solver = case.igr_solver::<f64, StoreF64>();
        solver
            .actuate(
                &Action::SetGimbal {
                    engine: 0,
                    target: [0.1, 0.0],
                    rate: 0.5,
                },
                2.0,
            )
            .unwrap();
        let profile = installed_profile(&solver.ghost.bcs);
        assert!(
            profile.time_varying(),
            "ramp makes the profile time-varying"
        );
        let sched = profile
            .as_any()
            .unwrap()
            .downcast_ref::<ScheduledJetInflow>()
            .unwrap();
        assert_eq!(sched.gimbal_at(0, 2.0), [0.0, 0.0], "starts at current");
        assert_eq!(sched.gimbal_at(0, 2.2), [0.1, 0.0], "0.1 rad at 0.5/t");
    }

    #[test]
    fn engine_out_removes_and_remaps() {
        let case = cases::engine_row_2d(48, 3, crate::jets::JetConditions::mach10());
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let before = installed_jet(&solver.ghost.bcs).engines.clone();
        solver
            .actuate(&Action::EngineOut { engine: 1 }, 0.0)
            .unwrap();
        let after = installed_jet(&solver.ghost.bcs).engines.clone();
        assert_eq!(after.len(), before.len() - 1);
        assert_eq!(after[0], before[0]);
        assert_eq!(after[1], before[2]);
        // Out-of-range engine is refused without mutating anything.
        let err = solver
            .actuate(&Action::EngineOut { engine: 99 }, 0.0)
            .unwrap_err();
        assert!(matches!(err, ActuateError::InvalidAction(_)));
        assert_eq!(installed_jet(&solver.ghost.bcs).engines.len(), 2);
    }

    #[test]
    fn backpressure_keeps_the_exit_state_fixed() {
        let case = cases::engine_row_2d(48, 3, crate::jets::JetConditions::mach10());
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let exit_before = installed_jet(&solver.ghost.bcs).conditions.exit_state(1);
        solver
            .actuate(&Action::SetBackpressure { pressure: 0.1 }, 0.0)
            .unwrap();
        let cond = installed_jet(&solver.ghost.bcs).conditions;
        let exit_after = cond.exit_state(1);
        assert!((cond.ambient.p - 0.1).abs() < 1e-15);
        assert!((exit_after.p - exit_before.p).abs() < 1e-12);
        assert!((exit_after.rho - exit_before.rho).abs() < 1e-12);
    }

    #[test]
    fn replay_reconstructs_the_identical_boundary() {
        let case = cases::engine_row_2d(48, 3, crate::jets::JetConditions::mach10());
        let mut live = case.igr_solver::<f64, StoreF64>();
        let mut log = ActionLog::new();
        for (step, t, a) in [
            (
                4u64,
                0.01,
                Action::SetGimbal {
                    engine: 2,
                    target: [0.15, 0.0],
                    rate: 0.75,
                },
            ),
            (8, 0.02, Action::EngineOut { engine: 0 }),
            (12, 0.03, Action::SetBackpressure { pressure: 0.5 }),
        ] {
            live.actuate(&a, t).unwrap();
            log.record(step, t, a);
        }
        let mut resumed = case.igr_solver::<f64, StoreF64>();
        replay(&log, &mut resumed).unwrap();
        // Both installed profiles evaluate identically everywhere/everywhen.
        let (pl, pr) = (
            installed_profile(&live.ghost.bcs),
            installed_profile(&resumed.ghost.bcs),
        );
        for t in [0.0, 0.025, 0.2, 1.0] {
            for x in [-0.4, -0.1, 0.0, 0.2, 0.45] {
                let a = pl.prim([x, 0.0, 0.0], t);
                let b = pr.prim([x, 0.0, 0.0], t);
                assert_eq!(a.rho.to_bits(), b.rho.to_bits());
                assert_eq!(a.p.to_bits(), b.p.to_bits());
                for d in 0..3 {
                    assert_eq!(a.vel[d].to_bits(), b.vel[d].to_bits());
                }
            }
        }
    }

    #[test]
    fn species_solver_supports_only_dt_policy() {
        use igr_grid::{Domain, GridShape};
        use igr_species::eos::MixPrim;
        use igr_species::{species_solver, SpeciesConfig, SpeciesState};
        let shape = GridShape::new(16, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = SpeciesConfig::default();
        let mut q = SpeciesState::zeros(shape);
        q.set_prim_field(&domain, &cfg.eos, |_| {
            MixPrim::new([0.5, 0.5], [0.0; 3], 1.0, 0.5)
        });
        let mut solver = species_solver::<f64, StoreF64>(cfg, domain, q);
        solver
            .actuate(&Action::SetFixedDt { dt: Some(1e-3) }, 0.0)
            .unwrap();
        assert_eq!(solver.fixed_dt, Some(1e-3));
        let err = solver
            .actuate(&Action::EngineOut { engine: 0 }, 0.0)
            .unwrap_err();
        assert!(matches!(err, ActuateError::Unsupported(_)));
    }

    fn installed_profile(bcs: &igr_core::bc::BcSet) -> Arc<dyn InflowProfile> {
        for d in 0..3 {
            for side in 0..2 {
                if let Bc::InflowProfile(p) = &bcs.faces[d][side] {
                    return p.clone();
                }
            }
        }
        panic!("no inflow profile installed");
    }

    fn installed_jet(bcs: &igr_core::bc::BcSet) -> JetArrayInflow {
        let p = installed_profile(bcs);
        let any = p.as_any().unwrap();
        if let Some(j) = any.downcast_ref::<JetArrayInflow>() {
            j.clone()
        } else if let Some(s) = any.downcast_ref::<ScheduledJetInflow>() {
            s.base.clone()
        } else {
            panic!("installed profile is not a jet array")
        }
    }
}
