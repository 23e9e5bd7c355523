//! Self-healing runs: divergence recovery via checkpoint rollback and dt
//! backoff.
//!
//! At the paper's scale (tens of thousands of node-hours per campaign) a
//! single mid-run NaN must not discard the whole allocation. This module
//! gives the one [`Driver::run`] loop its recovery capability
//! ([`Driver::recover`]): a [`RecoveryPolicy`] keeps a small in-memory ring
//! of [`crate::driver::Checkpointable`] snapshots taken at fixed step
//! boundaries and, when the NaN guard (or the KE/positivity
//! [`crate::driver::StopCondition::DivergenceGuard`]) trips, rolls the
//! solver back to the last healthy snapshot, re-runs the window at a
//! backed-off **fixed** dt, and restores the previous dt policy once the
//! backoff hold expires. Only after `max_retries` consecutive trips of one
//! rollback chain does the run fail
//! ([`DriverError::RetriesExhausted`]).
//!
//! Determinism contract (the load-bearing property — see docs/RECOVERY.md):
//!
//! * every rollback is appended to a [`RecoveryLog`] record carrying the
//!   trip step, the rollback target (step and time), the dt in effect
//!   before the chain tripped (`prev_dt`, NaN = adaptive), the pinned
//!   backoff dt, the absolute step the hold expires at, and the retry
//!   ordinal — floats travel as IEEE-754 bit patterns, so NaN/±inf
//!   round-trip;
//! * the dt in effect at any step is a **pure function of the log**
//!   ([`RecoveryLog::dt_at`]): while any record's hold is active the latest
//!   record's `backoff_dt` is pinned; once every hold has expired the last
//!   record's `prev_dt` is restored. A resumed run that seeds the log from
//!   a checkpoint therefore replays the identical dt schedule;
//! * snapshots, rollbacks, and autosaves all happen at absolute-step
//!   boundaries (`EverySteps` cadences are absolute-aligned), so a
//!   recovered run re-fires observers on exactly the steps an
//!   uninterrupted run would — the surviving trajectory is bitwise
//!   identical across rerun *and* mid-recovery resume;
//! * the log rides in checkpoints as the `RECLOG` trailer (empty log ⇒ no
//!   trailer ⇒ recovery-free checkpoints stay byte-identical) and in
//!   campaign store lines / the wire as the additive `recoveries` key.
//!
//! The chaos-engineering hook [`Driver::inject_nan_at`] poisons one cell at
//! a chosen step boundary (through [`InjectNan`], not physics) so tests and
//! `examples/recovery.rs` can exercise the rollback path deterministically:
//! the injection only fires while the recovery log is empty, so a resumed
//! mid-recovery run — whose log already records the trip — does not
//! re-poison the state.

use crate::checkpoint::{decode_log, decode_log_exact, encode_log, Checkpoint};
use crate::driver::{Driver, DriverError, March, Probe};
use igr_core::solver::{GhostOps, RhsScheme, Solver};
use igr_core::Fields;
use igr_prec::{Real, Storage};
use igr_species::SpeciesSolver;
use std::collections::VecDeque;
use std::time::Instant;

/// How a run heals itself: snapshot cadence, rollback budget, and the dt
/// backoff schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// How many healthy snapshots the in-memory ring keeps (≥ 1). Depth 1
    /// always rolls back to the latest healthy boundary; deeper rings keep
    /// older fallbacks alive for diagnostics.
    pub snapshot_ring_depth: usize,
    /// Snapshot (and scan) every `n` steps, aligned to the absolute step
    /// counter — the rollback granularity.
    pub snapshot_every: usize,
    /// Consecutive rollbacks of one chain before the run fails (≥ 1).
    pub max_retries: usize,
    /// Each retry re-runs the window at `base_dt · factor^retry`
    /// (0 < factor < 1).
    pub dt_backoff_factor: f64,
    /// How many steps past the rollback point the backed-off dt stays
    /// pinned before the previous dt policy is restored.
    pub backoff_hold_steps: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            snapshot_ring_depth: 2,
            snapshot_every: 16,
            max_retries: 3,
            dt_backoff_factor: 0.5,
            backoff_hold_steps: 32,
        }
    }
}

impl RecoveryPolicy {
    /// Panic on a policy that can never make progress (zero cadences, a
    /// backoff factor that does not shrink dt).
    pub fn validate(&self) {
        assert!(self.snapshot_ring_depth >= 1, "ring depth must be >= 1");
        assert!(self.snapshot_every >= 1, "snapshot cadence must be >= 1");
        assert!(self.max_retries >= 1, "max_retries must be >= 1");
        assert!(
            self.dt_backoff_factor > 0.0 && self.dt_backoff_factor < 1.0,
            "dt backoff factor must be in (0, 1), got {}",
            self.dt_backoff_factor
        );
        assert!(self.backoff_hold_steps >= 1, "backoff hold must be >= 1");
    }
}

/// One rollback, stamped with everything a resume needs to replay the dt
/// schedule bit-exactly.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryRecord {
    /// Absolute step the guard tripped at.
    pub trip_step: u64,
    /// Absolute step rolled back to (the restored snapshot's step).
    pub rollback_step: u64,
    /// Simulation time rolled back to.
    pub rollback_t: f64,
    /// The dt in effect before this rollback chain's first trip; NaN means
    /// the run was on the adaptive CFL scan.
    pub prev_dt: f64,
    /// The fixed dt pinned for the re-run window.
    pub backoff_dt: f64,
    /// Absolute step at which `prev_dt` is restored.
    pub hold_until: u64,
    /// 1-based retry ordinal within the rollback chain.
    pub retry: u64,
}

/// Fixed binary record layout: trip_step(8) + rollback_step(8) +
/// rollback_t(8) + prev_dt(8) + backoff_dt(8) + hold_until(8) + retry(8).
const RECORD_BYTES: usize = 7 * 8;
/// Trailer magic + version, appended after an `IGRCKPT` payload (and after
/// any `ACTLOG` trailer).
pub(crate) const RECLOG_MAGIC: &[u8; 8] = b"RECLOG\x01\0";
/// How decode errors name this log.
const WHAT: &str = "recovery-log";

/// The deterministic, time-stamped log of every rollback a run performed.
///
/// Serialized (a) into the checkpoint `RECLOG` trailer so a resumed run
/// replays the identical dt schedule, and (b) by `igr-campaign` into store
/// lines / the wire protocol as the additive optional `recoveries` key.
/// Equality is *bit-exact* (floats compare as bit patterns, so NaN-carrying
/// dt values round-trip and compare equal).
#[derive(Clone, Debug, Default)]
pub struct RecoveryLog {
    records: Vec<RecoveryRecord>,
}

impl RecoveryLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The rollbacks, in occurrence order.
    pub fn records(&self) -> &[RecoveryRecord] {
        &self.records
    }

    /// Number of rollbacks.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the run never rolled back.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Append one rollback.
    pub fn push(&mut self, rec: RecoveryRecord) {
        self.records.push(rec);
    }

    /// The dt policy in effect at absolute step `step`, as a pure function
    /// of the log: `Some(Some(dt))` pins, `Some(None)` returns to the
    /// adaptive scan, `None` leaves the solver's current policy untouched
    /// (no rollback has happened yet).
    pub fn dt_at(&self, step: u64) -> Option<Option<f64>> {
        if let Some(rec) = self.records.iter().rev().find(|r| r.hold_until > step) {
            return Some(Some(rec.backoff_dt));
        }
        self.records
            .last()
            .map(|last| (!last.prev_dt.is_nan()).then_some(last.prev_dt))
    }

    /// Retry ordinal a trip at `step` would get: one more than the number
    /// of records whose backoff hold is still active.
    pub fn retry_at(&self, step: u64) -> usize {
        self.records.iter().filter(|r| r.hold_until > step).count() + 1
    }

    /// The earliest still-active hold expiry after `step`, if any — window
    /// ends clamp to it so the dt restore happens exactly at a boundary.
    fn next_hold_expiry(&self, step: u64) -> Option<u64> {
        self.records
            .iter()
            .map(|r| r.hold_until)
            .filter(|h| *h > step)
            .min()
    }

    /// Serialize as the checkpoint trailer: magic + count + fixed records.
    /// Every float is written as its IEEE-754 bit pattern (bit-exact,
    /// NaN/±inf included).
    pub fn encode(&self) -> Vec<u8> {
        encode_log(RECLOG_MAGIC, RECORD_BYTES, &self.records, |rec, out| {
            for v in [
                rec.trip_step,
                rec.rollback_step,
                rec.rollback_t.to_bits(),
                rec.prev_dt.to_bits(),
                rec.backoff_dt.to_bits(),
                rec.hold_until,
                rec.retry,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
        })
    }

    /// Parse a trailer produced by [`RecoveryLog::encode`]. The byte slice
    /// must contain exactly one trailer (no slack).
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        decode_log_exact(WHAT, RECLOG_MAGIC, RECORD_BYTES, bytes, decode_record)
            .map(|records| RecoveryLog { records })
    }

    /// Parse one trailer from the front of `bytes`, returning the log and
    /// the number of bytes consumed — the multi-trailer checkpoint parser's
    /// entry point.
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Self, usize), String> {
        decode_log(WHAT, RECLOG_MAGIC, RECORD_BYTES, bytes, decode_record)
            .map(|(records, used)| (RecoveryLog { records }, used))
    }
}

/// One fixed-layout record (a `RECORD_BYTES` slice) back into a
/// [`RecoveryRecord`].
fn decode_record(b: &[u8]) -> Result<RecoveryRecord, String> {
    let u = |i: usize| u64::from_le_bytes(b[i * 8..(i + 1) * 8].try_into().expect("8-byte slice"));
    Ok(RecoveryRecord {
        trip_step: u(0),
        rollback_step: u(1),
        rollback_t: f64::from_bits(u(2)),
        prev_dt: f64::from_bits(u(3)),
        backoff_dt: f64::from_bits(u(4)),
        hold_until: u(5),
        retry: u(6),
    })
}

/// Bit-exact equality via the canonical binary encoding.
impl PartialEq for RecoveryLog {
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

/// The chaos-engineering fault-injection surface: poison exactly one cell
/// of the conserved state with a NaN. Used by [`Driver::inject_nan_at`] and
/// the recovery tests — an *injection hook, not physics*; production runs
/// never call it.
pub trait InjectNan {
    /// Overwrite one interior cell of the last conserved field (energy)
    /// with NaN.
    fn inject_nan(&mut self);
}

impl<R, S, Sch, G> InjectNan for Solver<R, S, Sch, G>
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
    G: GhostOps<R, S>,
{
    fn inject_nan(&mut self) {
        let shape = self.q.en.shape();
        self.q.en.set(
            (shape.nx / 2) as i32,
            (shape.ny / 2) as i32,
            (shape.nz / 2) as i32,
            R::from_f64(f64::NAN),
        );
    }
}

impl<R, S> InjectNan for SpeciesSolver<R, S>
where
    R: Real,
    S: Storage<R>,
{
    fn inject_nan(&mut self) {
        let mut fields = self.q.fields_mut();
        let f = fields.last_mut().expect("species state has fields");
        let shape = f.shape();
        f.set(
            (shape.nx / 2) as i32,
            (shape.ny / 2) as i32,
            (shape.nz / 2) as i32,
            R::from_f64(f64::NAN),
        );
    }
}

/// The recovery state of one [`Driver::run`] call: the ring of healthy
/// snapshots and the absolute step the current window ends at.
#[derive(Default)]
pub(crate) struct Windows {
    ring: VecDeque<Checkpoint>,
    end: usize,
}

impl Windows {
    /// Whether the march pauses at absolute step `now`: at the start of the
    /// run (to seed the ring — unless the run is already over), at the
    /// window's end, and wherever the run stops.
    pub(crate) fn at_boundary(&self, now: usize, stopping: bool) -> bool {
        if self.ring.is_empty() {
            !stopping
        } else {
            stopping || now >= self.end
        }
    }
}

/// The window mechanics behind [`Driver::recover`]. Windows are bounded by
/// the policy's snapshot cadence (absolute-step aligned, so observers fire
/// exactly as in an unwindowed run), any active backoff-hold expiry, and the
/// chaos injection step.
impl<'a, P: ?Sized> Driver<'a, P> {
    /// Process the window boundary `sys` stands at. The first boundary of a
    /// run only seeds the ring (on resume that is the restored checkpoint
    /// state — exactly the snapshot the uninterrupted run held here). Every
    /// later one fires a due chaos injection and scans for non-finite
    /// values: a healthy state is snapshotted into the ring and autosaved
    /// with both logs embedded (`Ok(false)`), a trip rolls back
    /// (`Ok(true)`).
    pub(crate) fn window_boundary(
        &mut self,
        sys: &mut P,
        w: &mut Windows,
        m: &mut March,
    ) -> Result<bool, DriverError>
    where
        P: Probe,
    {
        let first = w.ring.is_empty();
        if !first {
            // The injection fires once, while the log is empty — a resumed
            // mid-recovery run (non-empty log) must not re-poison the state.
            if let Some((at, inject)) = self.nan_injection {
                if self.recovery_log.is_empty() && at == sys.steps_taken() {
                    inject(sys);
                }
            }
            if sys.find_non_finite().is_some() {
                self.heal(sys, w, m)?;
                return Ok(true);
            }
        }
        // The dt policy is applied *at the boundary step* before capturing,
        // so a snapshot taken exactly at a hold expiry stores the restored
        // policy dt, not the stale backoff pin — rollbacks targeting it then
        // read the correct chain-base dt.
        self.open_window(sys, w, m);
        let ck = self.snapshot(sys);
        if !first {
            self.save(&ck)?;
        }
        w.ring.push_back(ck);
        let (policy, _) = self.recovery.expect("only recovered runs have windows");
        while w.ring.len() > policy.snapshot_ring_depth {
            w.ring.pop_front();
        }
        Ok(false)
    }

    /// Open the window starting at the step `sys` stands at: pin the dt the
    /// log prescribes there, find where the window ends, and blank the
    /// guards' memory (they compare consecutive probes within one window —
    /// what a run resumed at this boundary would see).
    fn open_window(&self, sys: &mut P, w: &mut Windows, m: &mut March)
    where
        P: Probe,
    {
        let now = sys.steps_taken();
        // The dt schedule is a pure function of the recovery log; applying
        // it at every boundary makes backoff pinning, hold expiry, and
        // resumes all converge on the same step sizes.
        if let Some(policy_dt) = self.recovery_log.dt_at(now as u64) {
            sys.set_fixed_dt(policy_dt);
        }
        let (policy, _) = self.recovery.expect("only recovered runs have windows");
        w.end = (now / policy.snapshot_every + 1) * policy.snapshot_every;
        if let Some(h) = self.recovery_log.next_hold_expiry(now as u64) {
            w.end = w.end.min(h as usize);
        }
        match self.nan_injection {
            Some((inj, _)) if self.recovery_log.is_empty() && inj > now => w.end = w.end.min(inj),
            _ => {}
        }
        (m.last_ke, m.last_div_ke) = (None, None);
    }

    /// A trip: roll back to the latest ring snapshot, append the
    /// [`RecoveryRecord`] with the backed-off dt, and open the re-run
    /// window. Fails with [`DriverError::RetriesExhausted`] once the chain's
    /// retry budget is spent.
    pub(crate) fn heal(
        &mut self,
        sys: &mut P,
        w: &mut Windows,
        m: &mut March,
    ) -> Result<(), DriverError>
    where
        P: Probe,
    {
        let t0 = Instant::now();
        let (policy, restore) = self.recovery.expect("only recovered runs heal");
        let trip_step = sys.steps_taken() as u64;
        let reg = igr_obs::Registry::global();
        reg.counter_add("recovery.trips", 1);
        let retry = self.recovery_log.retry_at(trip_step);
        if retry > policy.max_retries {
            reg.counter_add("recovery.exhausted", 1);
            return Err(DriverError::RetriesExhausted {
                step: trip_step as usize,
                retries: policy.max_retries,
            });
        }
        let ck = w.ring.back().expect("the ring is seeded before any step");
        restore(sys, ck)?;
        // The chain's base dt: what the run marched at before the chain's
        // first trip. Retries inherit it from the chain's previous record,
        // so the geometric backoff is anchored, not compounding on itself.
        let prev_dt = if retry == 1 {
            sys.fixed_dt().unwrap_or(f64::NAN)
        } else {
            self.recovery_log
                .records()
                .last()
                .expect("retry > 1 implies a previous record")
                .prev_dt
        };
        let base = if prev_dt.is_nan() {
            // Adaptive runs back off from the CFL-stable dt of the restored
            // (deterministic) state.
            sys.stable_dt()
        } else {
            prev_dt
        };
        let backoff_dt = base * policy.dt_backoff_factor.powi(retry as i32);
        let rollback_step = sys.steps_taken() as u64;
        self.recovery_log.push(RecoveryRecord {
            trip_step,
            rollback_step,
            rollback_t: sys.time(),
            prev_dt,
            backoff_dt,
            hold_until: rollback_step + policy.backoff_hold_steps as u64,
            retry: retry as u64,
        });
        reg.counter_add("recovery.rollbacks", 1);
        reg.record_duration("recovery.rollback", t0.elapsed());
        self.open_window(sys, w, m);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Checkpointable, StopCondition};

    /// A self-healing driver marching to absolute step `target`.
    fn healing<'a, P: Checkpointable + ?Sized>(
        policy: &RecoveryPolicy,
        target: usize,
    ) -> Driver<'a, P> {
        Driver::new()
            .stop_when(StopCondition::StepReached(target))
            .recover(*policy)
    }

    fn nontrivial_log() -> RecoveryLog {
        let mut log = RecoveryLog::new();
        log.push(RecoveryRecord {
            trip_step: 37,
            rollback_step: 32,
            rollback_t: 0.125,
            prev_dt: f64::NAN, // adaptive before the chain
            backoff_dt: 1.5e-4,
            hold_until: 64,
            retry: 1,
        });
        log.push(RecoveryRecord {
            trip_step: 40,
            rollback_step: 32,
            rollback_t: 0.125,
            prev_dt: f64::NAN,
            backoff_dt: 7.5e-5,
            hold_until: 64,
            retry: 2,
        });
        log
    }

    #[test]
    fn binary_roundtrip_is_bit_exact_including_nonfinite() {
        let mut log = nontrivial_log();
        log.push(RecoveryRecord {
            trip_step: u64::MAX,
            rollback_step: 0,
            rollback_t: f64::NEG_INFINITY,
            prev_dt: f64::from_bits(0x7ff8_dead_beef_cafe),
            backoff_dt: f64::INFINITY,
            hold_until: u64::MAX,
            retry: u64::MAX,
        });
        let bytes = log.encode();
        let back = RecoveryLog::decode(&bytes).unwrap();
        assert_eq!(back, log, "bit-exact round-trip");
        assert_eq!(back.encode(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn decode_refuses_garbage_truncation_and_slack() {
        assert!(RecoveryLog::decode(b"nope").is_err());
        let mut bytes = nontrivial_log().encode();
        bytes.pop();
        assert!(RecoveryLog::decode(&bytes).is_err());
        let mut slack = nontrivial_log().encode();
        slack.push(0);
        assert!(RecoveryLog::decode(&slack).is_err());
        let empty = RecoveryLog::new().encode();
        assert_eq!(RecoveryLog::decode(&empty).unwrap(), RecoveryLog::new());
        // decode_prefix tolerates (and reports) a suffix.
        let mut prefixed = nontrivial_log().encode();
        let len = prefixed.len();
        prefixed.extend_from_slice(b"suffix");
        let (log, used) = RecoveryLog::decode_prefix(&prefixed).unwrap();
        assert_eq!(used, len);
        assert_eq!(log, nontrivial_log());
    }

    #[test]
    fn dt_policy_is_a_pure_function_of_the_log() {
        let log = nontrivial_log();
        // Hold active: the latest record's backoff dt is pinned.
        assert_eq!(log.dt_at(40), Some(Some(7.5e-5)));
        assert_eq!(log.dt_at(63), Some(Some(7.5e-5)));
        // Hold expired: the chain's base policy (adaptive) is restored.
        assert_eq!(log.dt_at(64), Some(None));
        assert_eq!(log.dt_at(1000), Some(None));
        // Empty log: leave the solver's policy untouched.
        assert_eq!(RecoveryLog::new().dt_at(0), None);
        // Retry ordinal counts only still-active holds.
        assert_eq!(log.retry_at(40), 3);
        assert_eq!(log.retry_at(64), 1, "expired holds start a fresh chain");
        assert_eq!(log.next_hold_expiry(40), Some(64));
        assert_eq!(log.next_hold_expiry(64), None);
    }

    #[test]
    fn injected_nan_recovers_and_reruns_bitwise() {
        use crate::cases;
        use crate::driver::{Driver, StopCondition, StopReason};
        use igr_prec::StoreF64;
        let case = cases::steepening_wave(48, 0.25);
        let policy = RecoveryPolicy {
            snapshot_ring_depth: 2,
            snapshot_every: 4,
            max_retries: 3,
            dt_backoff_factor: 0.5,
            backoff_hold_steps: 8,
        };
        let run = || {
            let mut solver = case.igr_solver::<f64, StoreF64>();
            let mut d = healing(&policy, 20).inject_nan_at(6);
            let summary = d.run(&mut solver).unwrap();
            (solver, d.take_recovery_log(), summary)
        };
        let (a, log_a, summary) = run();
        assert_eq!(summary.stop, StopReason::StepReached);
        assert_eq!(a.steps_taken(), 20);
        assert!(!log_a.is_empty(), "the injection must have tripped");
        assert_eq!(log_a.records()[0].trip_step, 6);
        assert_eq!(log_a.records()[0].rollback_step, 4);
        assert!(a.q.find_non_finite().is_none(), "the run healed");

        // Rerun: bitwise-identical trajectory and log.
        let (b, log_b, _) = run();
        assert_eq!(a.q.max_diff(&b.q), 0.0, "recovered rerun must be bitwise");
        assert_eq!(log_a, log_b);

        // No injection + policy enabled == plain segmented run, bitwise.
        let mut plain = case.igr_solver::<f64, StoreF64>();
        Driver::new()
            .stop_when(StopCondition::StepReached(20))
            .run(&mut plain)
            .unwrap();
        let mut unpoisoned = case.igr_solver::<f64, StoreF64>();
        let mut d = healing(&policy, 20);
        d.run(&mut unpoisoned).unwrap();
        assert!(d.recovery_log().is_empty());
        assert_eq!(
            plain.q.max_diff(&unpoisoned.q),
            0.0,
            "an untripped recovered run must match the plain run bitwise"
        );
    }

    #[test]
    fn mid_recovery_resume_finishes_bitwise() {
        use crate::cases;
        use crate::driver::{Driver, StopCondition};
        use igr_prec::{StoreF32, StoreF64};
        let case = cases::steepening_wave(48, 0.25);
        let policy = RecoveryPolicy {
            snapshot_ring_depth: 2,
            snapshot_every: 4,
            max_retries: 3,
            dt_backoff_factor: 0.5,
            backoff_hold_steps: 8,
        };
        let dir = std::env::temp_dir().join("igr_recovery_tests");
        std::fs::create_dir_all(&dir).unwrap();

        // f64 and f32 storage both stay bitwise across the interrupt.
        {
            let path = dir.join("resume64.ckpt");
            let _ = std::fs::remove_file(&path);
            let mut straight = case.igr_solver::<f64, StoreF64>();
            let mut d = healing(&policy, 20).inject_nan_at(6);
            d.run(&mut straight).unwrap();

            // Interrupt mid-recovery: stop at step 8, inside the backoff
            // hold (trip at 6, rollback to 4, hold until 12).
            let mut first = case.igr_solver::<f64, StoreF64>();
            let mut d1 = healing(&policy, 8)
                .inject_nan_at(6)
                .checkpoint_to(&path, None);
            d1.run(&mut first).unwrap();
            assert_eq!(d1.recovery_log().len(), 1);

            let mut resumed = case.igr_solver::<f64, StoreF64>();
            let ck = Checkpoint::load(&path).unwrap();
            assert_eq!(ck.step, 8);
            assert_eq!(ck.recoveries.len(), 1, "the log rides the checkpoint");
            let mut d2 = healing(&policy, 20).inject_nan_at(6); // non-empty log: must NOT re-fire
            d2.resume_from(&mut resumed, &ck).unwrap();
            d2.run(&mut resumed).unwrap();
            assert_eq!(resumed.steps_taken(), 20);
            assert_eq!(
                straight.q.max_diff(&resumed.q),
                0.0,
                "mid-recovery resume must finish bitwise"
            );
            assert_eq!(d2.recovery_log(), d1.recovery_log());
        }
        {
            let path = dir.join("resume32.ckpt");
            let _ = std::fs::remove_file(&path);
            let mut straight = case.igr_solver::<f32, StoreF32>();
            let mut d = healing(&policy, 20).inject_nan_at(6);
            d.run(&mut straight).unwrap();
            assert!(!d.recovery_log().is_empty());

            let mut first = case.igr_solver::<f32, StoreF32>();
            let mut d1 = healing(&policy, 8)
                .inject_nan_at(6)
                .checkpoint_to(&path, None);
            d1.run(&mut first).unwrap();
            let mut resumed = case.igr_solver::<f32, StoreF32>();
            let mut d2 = healing(&policy, 20);
            d2.resume_from(&mut resumed, &Checkpoint::load(&path).unwrap())
                .unwrap();
            d2.run(&mut resumed).unwrap();
            assert_eq!(
                straight.q.max_diff(&resumed.q),
                0.0,
                "f32 mid-recovery resume must finish bitwise"
            );
        }
        // StepReached also works as a plain stop condition.
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let s = Driver::new()
            .stop_when(StopCondition::StepReached(3))
            .run(&mut solver)
            .unwrap();
        assert_eq!(solver.steps_taken(), 3);
        assert_eq!(s.steps, 3);
    }

    /// A recovery-armed run whose absolute-step target is already behind the
    /// solver takes no step, takes no snapshot, and touches nothing — the
    /// step count is what the loop took, not `target − start` (which
    /// underflowed).
    #[test]
    fn recovered_run_toward_a_passed_step_is_a_zero_step_no_op() {
        use crate::cases;
        use crate::driver::StopReason;
        use igr_prec::StoreF64;
        let case = cases::steepening_wave(48, 0.25);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        Driver::new().max_steps(5).run(&mut solver).unwrap();
        let before = solver.capture();
        let path = std::env::temp_dir().join("igr_recovery_tests_passed_target.ckpt");
        let _ = std::fs::remove_file(&path);

        let mut d = healing(&RecoveryPolicy::default(), 3).checkpoint_to(&path, None);
        let summary = d.run(&mut solver).unwrap();
        assert_eq!((summary.steps, summary.stop), (0, StopReason::StepReached));
        assert_eq!(solver.steps_taken(), 5);
        assert_eq!(solver.fixed_dt, None, "the dt policy was not touched");
        assert!(d.recovery_log().is_empty());
        assert!(!path.exists(), "nothing to save");

        let mut untouched = case.igr_solver::<f64, StoreF64>();
        untouched.restore(&before).unwrap();
        assert_eq!(solver.q.max_diff(&untouched.q), 0.0);
        assert_eq!(solver.t().to_bits(), untouched.t().to_bits());
    }

    #[test]
    fn persistent_divergence_exhausts_retries() {
        use crate::cases;
        use crate::driver::DriverError;
        use igr_prec::StoreF64;
        // Re-inject on every attempt by poisoning through a solver whose
        // state the policy can never outrun: retry budget 2, injection
        // fires only once, so exhaustion needs the guard to keep tripping.
        // Use a genuinely unstable configuration instead: pin an absurdly
        // large dt so every window diverges regardless of backoff.
        let case = cases::steepening_wave(32, 0.25);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        solver.nan_check_every = 1;
        solver.fixed_dt = Some(1e3); // wildly unstable
        let policy = RecoveryPolicy {
            snapshot_ring_depth: 1,
            snapshot_every: 4,
            max_retries: 2,
            // Backoff barely shrinks dt, so the re-runs stay unstable and
            // the chain exhausts.
            dt_backoff_factor: 0.999_999,
            backoff_hold_steps: 8,
        };
        let mut d = healing(&policy, 16);
        let err = d.run(&mut solver).unwrap_err();
        assert!(
            matches!(err, DriverError::RetriesExhausted { retries: 2, .. }),
            "got {err:?}"
        );
        assert_eq!(d.recovery_log().len(), 2, "both retries were recorded");
        let msg = err.to_string();
        assert!(msg.contains("diverged"), "transient marker in {msg:?}");
    }

    #[test]
    fn divergence_guard_trips_before_the_nans() {
        use crate::cases;
        use crate::driver::{Driver, DriverError, StopCondition};
        use igr_prec::StoreF64;
        let case = cases::steepening_wave(32, 0.25);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        solver.nan_check_every = 0;
        solver.fixed_dt = Some(50.0); // unstable: KE blows up fast
        let result = Driver::new()
            .max_steps(200)
            .stop_when(StopCondition::DivergenceGuard {
                every: 1,
                max_growth: 10.0,
            })
            .run(&mut solver);
        match result {
            Err(DriverError::Diverged { .. }) => {}
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn policy_validation_rejects_degenerate_knobs() {
        for bad in [
            RecoveryPolicy {
                snapshot_ring_depth: 0,
                ..Default::default()
            },
            RecoveryPolicy {
                snapshot_every: 0,
                ..Default::default()
            },
            RecoveryPolicy {
                max_retries: 0,
                ..Default::default()
            },
            RecoveryPolicy {
                dt_backoff_factor: 1.0,
                ..Default::default()
            },
            RecoveryPolicy {
                dt_backoff_factor: 0.0,
                ..Default::default()
            },
            RecoveryPolicy {
                backoff_hold_steps: 0,
                ..Default::default()
            },
        ] {
            assert!(
                std::panic::catch_unwind(move || bad.validate()).is_err(),
                "{bad:?} must be rejected"
            );
        }
        RecoveryPolicy::default().validate();
    }
}
