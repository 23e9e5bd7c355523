//! Self-healing runs: poison a 33-engine Super Heavy run with a mid-flight
//! NaN and let the driver's recovery loop roll back to the last healthy
//! snapshot, re-run the window at a backed-off dt, and finish the run —
//! then prove the determinism contract end to end: a rerun reproduces the
//! healed trajectory bit for bit, and so does a run that is *killed in the
//! middle of the recovery* and resumed from its autosaved restart file.
//!
//! ```bash
//! cargo run --release --example recovery [recovery_log.json]
//! ```
//!
//! Self-validating: asserts the injection tripped, every final state is
//! bitwise identical (`max_diff == 0`), the three recovery logs agree
//! byte for byte, and the artifact file round-trips; CI greps for the
//! final `OK:` line.

use igr::app::checkpoint::Checkpoint;
use igr::app::driver::Checkpointable;
use igr::app::recovery::{InjectNan, RecoveryLog, RecoveryPolicy};
use igr::prelude::*;

/// The chaos injection: one cell goes NaN at this absolute step boundary.
const INJECT_AT: usize = 9;
/// Where the "process dies" in the interrupted variant — after the
/// rollback, inside the backoff hold.
const CRASH_AT: usize = 12;
const TOTAL_STEPS: usize = 24;

fn policy() -> RecoveryPolicy {
    RecoveryPolicy {
        snapshot_ring_depth: 2,
        snapshot_every: 4,
        max_retries: 3,
        dt_backoff_factor: 0.5,
        backoff_hold_steps: 6,
    }
}

/// A self-healing driver marching to absolute step `until`, with the chaos
/// injection armed.
fn armed<'a, P: Checkpointable + InjectNan>(until: usize) -> Driver<'a, P> {
    Driver::new()
        .stop_when(StopCondition::StepReached(until))
        .recover(policy())
        .inject_nan_at(INJECT_AT)
}

/// Render the recovery log as a JSON array (the CI artifact).
fn log_to_json(log: &RecoveryLog) -> String {
    let mut s = String::from("[\n");
    for (i, r) in log.records().iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str(&format!(
            "  {{\"trip_step\": {}, \"rollback_step\": {}, \"rollback_t\": {}, \
             \"prev_dt\": {:?}, \"backoff_dt\": {}, \"hold_until\": {}, \"retry\": {}}}",
            r.trip_step,
            r.rollback_step,
            r.rollback_t,
            // NaN = "was adaptive": not valid JSON as a bare literal.
            if r.prev_dt.is_nan() {
                "adaptive".to_string()
            } else {
                r.prev_dt.to_string()
            },
            r.backoff_dt,
            r.hold_until,
            r.retry
        ));
    }
    s.push_str("\n]\n");
    s
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "recovery_log.json".into());
    let case = cases::super_heavy_3d(12);
    println!(
        "33-engine case, {} cells; NaN injected at step {INJECT_AT}, {TOTAL_STEPS} steps total",
        case.domain.shape.n_interior()
    );

    // 1. The poisoned run heals itself.
    let mut healed = case.igr_solver::<f64, StoreF64>();
    let mut d = armed(TOTAL_STEPS);
    d.run(&mut healed)
        .expect("recovery must absorb the injected NaN");
    let log = d.take_recovery_log();
    assert!(!log.is_empty(), "the injection must trip the guard");
    println!("\nrecovery log ({} rollback(s)):", log.len());
    for r in log.records() {
        println!(
            "  trip at step {:>3} -> rolled back to step {:>3} (t = {:.5}), \
             dt pinned to {:.3e} until step {} (retry {})",
            r.trip_step, r.rollback_step, r.rollback_t, r.backoff_dt, r.hold_until, r.retry
        );
    }

    // 2. A rerun reproduces the healed trajectory and its log bit for bit.
    let mut rerun = case.igr_solver::<f64, StoreF64>();
    let mut d2 = armed(TOTAL_STEPS);
    d2.run(&mut rerun).expect("rerun heals identically");
    let rerun_log = d2.take_recovery_log();
    assert_eq!(
        healed.q.max_diff(&rerun.q),
        0.0,
        "rerun must be bitwise identical"
    );
    assert_eq!(
        log.encode(),
        rerun_log.encode(),
        "rerun log must match byte for byte"
    );
    println!("\nrerun: final state bitwise identical, log identical");

    // 3. Kill the run mid-recovery (inside the backoff hold), then resume
    //    from the autosaved restart file — the seeded log replays the dt
    //    schedule and suppresses the injection, and the finished run is
    //    bitwise identical to the uninterrupted one.
    let ckpt = std::env::temp_dir().join("recovery_example.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let mut dying = case.igr_solver::<f64, StoreF64>();
    let mut d3 = armed(CRASH_AT).checkpoint_to(&ckpt, None);
    d3.run(&mut dying)
        .expect("partial run reaches the crash point");
    assert!(
        !d3.take_recovery_log().is_empty(),
        "the crash happens mid-recovery"
    );
    drop(dying); // the "process" is gone; only the restart file survives

    let ck = Checkpoint::load(&ckpt).expect("restart file loads");
    assert!(
        !ck.recoveries.is_empty(),
        "RECLOG trailer rode the autosave"
    );
    let mut resumed = case.igr_solver::<f64, StoreF64>();
    let mut d4 = armed(TOTAL_STEPS); // injection armed, but the seeded log suppresses it
    d4.resume_from(&mut resumed, &ck)
        .expect("snapshot restores bit-exactly");
    d4.run(&mut resumed).expect("resumed run finishes");
    let resumed_log = d4.take_recovery_log();
    assert_eq!(
        healed.q.max_diff(&resumed.q),
        0.0,
        "mid-recovery resume must be bitwise identical"
    );
    assert_eq!(
        log.encode(),
        resumed_log.encode(),
        "resumed log must match byte for byte"
    );
    let _ = std::fs::remove_file(&ckpt);
    println!(
        "interrupted at step {CRASH_AT}, resumed from step {}: \
         final state bitwise identical, log identical",
        ck.step
    );

    // 4. The CI artifact: the recovery log as JSON.
    let json = log_to_json(&log);
    std::fs::write(&out, &json).expect("artifact written");
    let back = std::fs::read_to_string(&out).unwrap();
    assert!(back.trim().starts_with('[') && back.trim().ends_with(']'));
    assert!(back.contains("\"trip_step\""));

    println!(
        "\nOK: {} rollback(s) healed the run; rerun and mid-recovery resume \
         both bitwise identical; log written to {out}",
        log.len()
    );
}
