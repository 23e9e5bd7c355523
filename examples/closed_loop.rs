//! Closed-loop control: knock out an outboard engine mid-run and let the
//! proportional gimbal feedback controller steer the surviving engines
//! against the resulting thrust asymmetry — then compare against the same
//! fault flown open-loop, print the applied action log, and write it as a
//! JSON artifact so CI can archive *what the controller did* next to the
//! numbers it produced.
//!
//! ```bash
//! cargo run --release --example closed_loop [closed_loop_actions.json]
//! ```
//!
//! Self-validating: asserts the fault and at least one feedback command
//! landed in the log, that the closed-loop run ends with a smaller
//! base-plane asymmetry than the open-loop run, and that the artifact file
//! round-trips; CI greps for the final `OK:` line.

use igr::app::actions::{Action, ActionLog};
use igr::app::base::BaseHeatingReport;
use igr::app::cases::CaseSetup;
use igr::app::driver::{GimbalFeedbackController, ScheduledActions};
use igr::prelude::*;

/// The injected fault: engine 0 (outboard) dies at step 10.
const FAULT_STEP: usize = 10;
const TOTAL_STEPS: usize = 40;

/// Thrust-asymmetry cost: distance of the base plane's flux-weighted
/// backflow centroid from the (original) engine-array centroid. Zero on a
/// healthy symmetric array; an uncompensated engine-out pushes it outward.
fn asymmetry_cost(q: &igr::core::State<f64, StoreF64>, case: &CaseSetup) -> f64 {
    let jet = case.jet_inflow.as_ref().expect("jet case");
    let report = BaseHeatingReport::measure(q, &case.domain, case.gamma, jet);
    let n = jet.engines.len() as f64;
    let center = jet.engines.iter().fold([0.0f64; 2], |acc, e| {
        [acc[0] + e.center[0] / n, acc[1] + e.center[1] / n]
    });
    let dx = report.footprint_centroid[0] - center[0];
    let dy = report.footprint_centroid[1] - center[1];
    (dx * dx + dy * dy).sqrt()
}

fn fault() -> ScheduledActions {
    ScheduledActions::new(vec![(FAULT_STEP, Action::EngineOut { engine: 0 })])
}

/// Render the applied log as a JSON array (the CI artifact).
fn log_to_json(log: &ActionLog) -> String {
    let mut s = String::from("[\n");
    for (i, r) in log.records().iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        s.push_str(&format!(
            "  {{\"step\": {}, \"t\": {}, \"kind\": \"{}\"",
            r.step,
            r.t,
            r.action.kind_name()
        ));
        match &r.action {
            Action::SetGimbal {
                engine,
                target,
                rate,
            } => s.push_str(&format!(
                ", \"engine\": {engine}, \"target\": [{}, {}], \"rate\": {rate}",
                target[0], target[1]
            )),
            Action::EngineOut { engine } => s.push_str(&format!(", \"engine\": {engine}")),
            Action::SetBackpressure { pressure } => {
                s.push_str(&format!(", \"pressure\": {pressure}"))
            }
            _ => {}
        }
        s.push('}');
    }
    s.push_str("\n]\n");
    s
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "closed_loop_actions.json".into());

    let case = cases::engine_row_2d(64, 3, igr::app::jets::JetConditions::mach10());

    // 1. Open loop: the fault flies uncompensated.
    let mut open = case.igr_solver::<f64, StoreF64>();
    let mut d_open = Driver::new()
        .max_steps(TOTAL_STEPS)
        .control(Cadence::EveryStep, fault());
    d_open.run(&mut open).expect("open-loop run stays finite");
    let open_cost = asymmetry_cost(&open.q, &case);

    // 2. Closed loop: same fault, plus proportional gimbal feedback on the
    //    probe-sampled backflow centroid every 5 steps.
    let mut closed = case.igr_solver::<f64, StoreF64>();
    let mut d_closed = Driver::new()
        .max_steps(TOTAL_STEPS)
        .control(Cadence::EveryStep, fault())
        .control(
            Cadence::EverySteps(5),
            GimbalFeedbackController::with_gain(1.5),
        );
    d_closed
        .run(&mut closed)
        .expect("closed-loop run stays finite");
    let closed_cost = asymmetry_cost(&closed.q, &case);
    let log = d_closed.action_log();

    // 3. Show what the controller did.
    println!(
        "engine-out at step {FAULT_STEP}, {} steps total\n",
        TOTAL_STEPS
    );
    println!("applied actions ({}):", log.len());
    for r in log.records() {
        match &r.action {
            Action::EngineOut { engine } => {
                println!("  step {:>3}  engine_out   engine {engine}", r.step)
            }
            Action::SetGimbal { engine, target, .. } => println!(
                "  step {:>3}  set_gimbal   engine {engine} -> [{:+.4}, {:+.4}] rad",
                r.step, target[0], target[1]
            ),
            other => println!("  step {:>3}  {}", r.step, other.kind_name()),
        }
    }
    println!("\nbase-plane asymmetry after {TOTAL_STEPS} steps:");
    println!("  open loop   : {open_cost:.6}");
    println!("  closed loop : {closed_cost:.6}");

    // 4. Validate: the fault and at least one feedback command were logged,
    //    and feedback reduced the asymmetry cost.
    let n_fault = log
        .records()
        .iter()
        .filter(|r| matches!(r.action, Action::EngineOut { .. }))
        .count();
    let n_gimbal = log
        .records()
        .iter()
        .filter(|r| matches!(r.action, Action::SetGimbal { .. }))
        .count();
    assert_eq!(n_fault, 1, "the injected fault must appear in the log");
    assert!(n_gimbal >= 1, "feedback controller issued no commands");
    assert!(
        open_cost.is_finite() && closed_cost.is_finite(),
        "backflow centroid must be sampled by the end of the run"
    );
    assert!(
        closed_cost < open_cost,
        "gimbal feedback must reduce the asymmetry cost \
         (open {open_cost}, closed {closed_cost})"
    );

    // 5. The CI artifact: the applied action log as JSON.
    let json = log_to_json(log);
    std::fs::write(&out, &json).expect("artifact written");
    let back = std::fs::read_to_string(&out).unwrap();
    let trimmed = back.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "artifact must be a JSON array"
    );
    assert!(back.contains("\"kind\": \"engine_out\""));
    assert!(back.contains("\"kind\": \"set_gimbal\""));

    println!(
        "\nOK: {} actions logged to {out}; asymmetry {open_cost:.6} -> {closed_cost:.6} \
         ({:.1}% reduction)",
        log.len(),
        100.0 * (1.0 - closed_cost / open_cost)
    );
}
