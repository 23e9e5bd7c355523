//! Engine layouts and jet inflow profiles.
//!
//! The paper's demonstration problem is an array of Mach-10 rocket-engine
//! exhaust plumes "in a configuration inspired by the SpaceX Super Heavy"
//! (Fig. 1): 33 engines — 3 in the core, 10 on an inner ring, 20 on an
//! outer ring — modeled through inflow boundary conditions.

use igr_core::bc::InflowProfile;
use igr_core::eos::Prim;

/// One engine: center position in the inflow plane, exit radius, and gimbal
/// (thrust-vectoring) angles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Engine {
    /// Exit-circle center in the two in-plane coordinates.
    pub center: [f64; 2],
    /// Exit radius.
    pub radius: f64,
    /// Thrust-vector tilt (radians) toward each of the two in-plane
    /// directions. `[0, 0]` is an axial engine; the paper's motivation (§3)
    /// names "engine thrust vectoring for steering" among the parameters a
    /// simulation campaign must cover.
    pub gimbal: [f64; 2],
}

impl Engine {
    /// Axial (non-gimbaled) engine.
    pub fn new(center: [f64; 2], radius: f64) -> Self {
        Engine {
            center,
            radius,
            gimbal: [0.0, 0.0],
        }
    }

    /// Tilt this engine's thrust vector by `angles` (radians, per in-plane
    /// direction).
    pub fn with_gimbal(mut self, angles: [f64; 2]) -> Self {
        self.gimbal = angles;
        self
    }

    /// Unit thrust direction in `(flow, plane-a, plane-b)` components: the
    /// exhaust leaves along the flow axis tilted by the gimbal angles.
    pub fn thrust_direction(&self) -> [f64; 3] {
        let (ta, tb) = (self.gimbal[0].tan(), self.gimbal[1].tan());
        let norm = (1.0 + ta * ta + tb * tb).sqrt();
        [1.0 / norm, ta / norm, tb / norm]
    }
}

/// Remove the engines at `out` (indices into the array) — the engine-out
/// scenarios the paper's §3 motivates ("a small number of engine failures
/// can be compensated for").
pub fn without_engines(mut engines: Vec<Engine>, out: &[usize]) -> Vec<Engine> {
    let mut keep = vec![true; engines.len()];
    for &i in out {
        assert!(i < keep.len(), "engine index {i} out of range");
        keep[i] = false;
    }
    let mut it = keep.iter();
    engines.retain(|_| *it.next().unwrap());
    engines
}

/// Gas states for a jet-array inflow.
#[derive(Clone, Copy, Debug)]
pub struct JetConditions {
    /// Ambient (co-flow) state.
    pub ambient: Prim<f64>,
    /// Engine exit Mach number (paper: Mach 10).
    pub mach: f64,
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Exit-to-ambient pressure ratio (1 = pressure-matched).
    pub pressure_ratio: f64,
    /// Exit-to-ambient density ratio.
    pub density_ratio: f64,
}

impl JetConditions {
    /// Pressure-matched Mach-10 exhaust into unit ambient, the paper's
    /// representative configuration.
    pub fn mach10() -> Self {
        JetConditions {
            ambient: Prim::new(1.0, [0.0; 3], 1.0),
            mach: 10.0,
            gamma: 1.4,
            pressure_ratio: 1.0,
            density_ratio: 1.0,
        }
    }

    /// Mach-10 exhaust at altitude: the ambient pressure (and density,
    /// isothermally) drop to `p_ambient` while the engine exit state is
    /// unchanged, so the jet becomes under-expanded by `1/p_ambient` — the
    /// varying-backpressure regime the paper's §3 names ("varying ambient
    /// pressure as the rocket traverses the atmosphere").
    pub fn mach10_at_altitude(p_ambient: f64) -> Self {
        assert!(p_ambient > 0.0, "ambient pressure must be positive");
        JetConditions {
            ambient: Prim::new(p_ambient, [0.0; 3], p_ambient),
            mach: 10.0,
            gamma: 1.4,
            // Exit state fixed at (rho, p) = (1, 1): ratios are vs ambient.
            pressure_ratio: 1.0 / p_ambient,
            density_ratio: 1.0 / p_ambient,
        }
    }

    /// Exit state of an engine, flowing along `axis_dim` (0=x, 1=y, 2=z).
    pub fn exit_state(&self, axis_dim: usize) -> Prim<f64> {
        let rho = self.ambient.rho * self.density_ratio;
        let p = self.ambient.p * self.pressure_ratio;
        let c = (self.gamma * p / rho).sqrt();
        let mut vel = [0.0; 3];
        vel[axis_dim] = self.mach * c;
        Prim::new(rho, vel, p)
    }
}

/// A single centered engine.
pub fn single_engine(radius: f64) -> Vec<Engine> {
    vec![Engine::new([0.0, 0.0], radius)]
}

/// Three engines in a row (the Fig. 5 configuration), spaced `pitch` apart.
pub fn three_engine_row(radius: f64, pitch: f64) -> Vec<Engine> {
    (-1..=1)
        .map(|i| Engine::new([i as f64 * pitch, 0.0], radius))
        .collect()
}

/// The Super-Heavy-inspired 33-engine array (Fig. 1): 3 core engines, 10 on
/// an inner ring, 20 on an outer ring. `r_outer` is the outer-ring radius;
/// engine exit radius is sized so neighbors on the outer ring nearly touch,
/// as on the real booster.
pub fn super_heavy_33(r_outer: f64) -> Vec<Engine> {
    let radius = 0.85 * (std::f64::consts::PI * r_outer / 20.0);
    let mut engines = Vec::with_capacity(33);
    // 3 core engines around the center.
    let r_core = 1.2 * radius;
    for i in 0..3 {
        let th = std::f64::consts::TAU * i as f64 / 3.0 + std::f64::consts::FRAC_PI_2;
        engines.push(Engine::new([r_core * th.cos(), r_core * th.sin()], radius));
    }
    // 10 on the inner ring.
    let r_inner = 0.55 * r_outer;
    for i in 0..10 {
        let th = std::f64::consts::TAU * i as f64 / 10.0;
        engines.push(Engine::new(
            [r_inner * th.cos(), r_inner * th.sin()],
            radius,
        ));
    }
    // 20 on the outer ring.
    for i in 0..20 {
        let th = std::f64::consts::TAU * i as f64 / 20.0 + std::f64::consts::TAU / 40.0;
        engines.push(Engine::new(
            [r_outer * th.cos(), r_outer * th.sin()],
            radius,
        ));
    }
    engines
}

/// Inflow profile for an engine array on a boundary plane.
///
/// Positions inside an engine's exit circle get the exit state; elsewhere
/// the ambient. The two in-plane coordinates are selected by `plane_dims`
/// (e.g. `(0, 1)` for a z-normal plane), and the jet flows along
/// `flow_dim`. A `tanh` lip profile `smoothing` cells wide avoids a
/// zero-width shear layer.
#[derive(Clone)]
pub struct JetArrayInflow {
    /// The engines of the array, in layout order (actions index into this).
    pub engines: Vec<Engine>,
    /// Exit and ambient gas state shared by every engine.
    pub conditions: JetConditions,
    /// The two in-plane coordinate indices of the inflow face.
    pub plane_dims: (usize, usize),
    /// The coordinate index the jets flow along.
    pub flow_dim: usize,
    /// Shear-layer half-width in physical units.
    pub lip_width: f64,
}

impl JetArrayInflow {
    /// Blend factor in [0, 1] and the dominating engine: 1 deep inside an
    /// engine, 0 in the ambient.
    pub fn engine_blend(&self, pos: [f64; 3]) -> (f64, Option<&Engine>) {
        let (f, idx) = self.engine_blend_idx(pos);
        (f, idx.map(|i| &self.engines[i]))
    }

    /// Blend factor and the *index* of the dominating engine (time-varying
    /// wrappers need the index to look up per-engine schedules).
    pub fn engine_blend_idx(&self, pos: [f64; 3]) -> (f64, Option<usize>) {
        let (a, b) = self.plane_dims;
        let (x, y) = (pos[a], pos[b]);
        let mut f: f64 = 0.0;
        let mut which = None;
        for (i, e) in self.engines.iter().enumerate() {
            let d = ((x - e.center[0]).powi(2) + (y - e.center[1]).powi(2)).sqrt();
            let t = 0.5 * (1.0 - ((d - e.radius) / self.lip_width).tanh());
            if t > f {
                f = t;
                which = Some(i);
            }
        }
        (f, which)
    }

    /// Blend factor in [0, 1]: 1 deep inside an engine, 0 in the ambient.
    pub fn engine_fraction(&self, pos: [f64; 3]) -> f64 {
        self.engine_blend_idx(pos).0
    }

    /// Inflow state at `pos` with the dominating engine's gimbal supplied by
    /// `gimbal_of` (by engine index). Shared by the static profile (engine's
    /// own gimbal) and the scheduled profile (gimbal evaluated at `t`).
    pub fn prim_with_gimbal(
        &self,
        pos: [f64; 3],
        gimbal_of: impl Fn(usize) -> [f64; 2],
    ) -> Prim<f64> {
        let (f, engine) = self.engine_blend_idx(pos);
        let exit = self.conditions.exit_state(self.flow_dim);
        let amb = self.conditions.ambient;
        // Tilt the exit velocity by the dominating engine's gimbal: the
        // speed is preserved, the direction rotates toward the in-plane
        // axes.
        let mut exit_vel = exit.vel;
        if let Some(i) = engine {
            let gimbal = gimbal_of(i);
            if gimbal != [0.0, 0.0] {
                let speed = exit.vel[self.flow_dim];
                let dir = Engine {
                    gimbal,
                    ..self.engines[i]
                }
                .thrust_direction();
                exit_vel = [0.0; 3];
                exit_vel[self.flow_dim] = speed * dir[0];
                exit_vel[self.plane_dims.0] = speed * dir[1];
                exit_vel[self.plane_dims.1] = speed * dir[2];
            }
        }
        Prim::new(
            amb.rho + f * (exit.rho - amb.rho),
            [
                amb.vel[0] + f * (exit_vel[0] - amb.vel[0]),
                amb.vel[1] + f * (exit_vel[1] - amb.vel[1]),
                amb.vel[2] + f * (exit_vel[2] - amb.vel[2]),
            ],
            amb.p + f * (exit.p - amb.p),
        )
    }
}

impl InflowProfile for JetArrayInflow {
    fn prim(&self, pos: [f64; 3], _t: f64) -> Prim<f64> {
        self.prim_with_gimbal(pos, |i| self.engines[i].gimbal)
    }

    /// A fixed-gimbal array is a pure function of position, so the ghost
    /// fill may memoize its boundary plane (33 `tanh` lip profiles per cell
    /// otherwise re-evaluated every RK stage).
    fn time_varying(&self) -> bool {
        false
    }

    /// Jet arrays are actuatable: mid-run actions (gimbal retargets,
    /// engine-out, backpressure) clone-and-reinstall the profile.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// A piecewise-linear gimbal trajectory: `(t, [angle_a, angle_b])` knots,
/// linearly interpolated, clamped to the end values outside the knot span —
/// the "engine thrust vectoring for steering" schedule §3 of the paper puts
/// in a simulation campaign's parameter space.
#[derive(Clone, Debug, PartialEq)]
pub struct GimbalSchedule {
    /// Knots sorted by time (enforced at construction).
    pub knots: Vec<(f64, [f64; 2])>,
}

impl GimbalSchedule {
    /// A schedule through `(time, angles)` knots (sorted by time here).
    pub fn new(mut knots: Vec<(f64, [f64; 2])>) -> Self {
        assert!(!knots.is_empty(), "gimbal schedule needs at least one knot");
        knots.sort_by(|a, b| a.0.total_cmp(&b.0));
        GimbalSchedule { knots }
    }

    /// A time-independent schedule.
    pub fn constant(angles: [f64; 2]) -> Self {
        GimbalSchedule {
            knots: vec![(0.0, angles)],
        }
    }

    /// A linear ramp from `from` at `t0` to `to` at `t1`.
    pub fn ramp(t0: f64, from: [f64; 2], t1: f64, to: [f64; 2]) -> Self {
        assert!(t1 > t0, "ramp needs t1 > t0");
        GimbalSchedule {
            knots: vec![(t0, from), (t1, to)],
        }
    }

    /// A ramp whose *duration* is derived from an angular slew rate: start
    /// at `from` at `t0` and reach `to` after `‖to − from‖ / rate` time
    /// units — how flight software actually commands thrust vectoring
    /// (actuators move at a rate, not to a deadline). A zero-length move
    /// degenerates to a constant schedule.
    pub fn ramp_at_rate(t0: f64, from: [f64; 2], to: [f64; 2], rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "slew rate must be positive");
        let d = ((to[0] - from[0]).powi(2) + (to[1] - from[1]).powi(2)).sqrt();
        if d == 0.0 {
            return GimbalSchedule::constant(from);
        }
        GimbalSchedule::ramp(t0, from, t0 + d / rate, to)
    }

    /// Re-time a knot sequence so no segment's angular rate exceeds
    /// `max_rate`: segments that demand a faster slew are stretched to the
    /// limit-rate duration, and every later knot shifts by the accumulated
    /// stretch. Angles are never altered — only when they are reached.
    pub fn slew_limited(knots: Vec<(f64, [f64; 2])>, max_rate: f64) -> Self {
        assert!(
            max_rate > 0.0 && max_rate.is_finite(),
            "slew limit must be positive"
        );
        let sched = GimbalSchedule::new(knots); // sorts by time
        let mut out: Vec<(f64, [f64; 2])> = Vec::with_capacity(sched.knots.len());
        let mut prev_in: Option<f64> = None;
        for (t, a) in sched.knots {
            match (prev_in, out.last().copied()) {
                (Some(tp_in), Some((tp_out, a_prev))) => {
                    let d = ((a[0] - a_prev[0]).powi(2) + (a[1] - a_prev[1]).powi(2)).sqrt();
                    // The requested spacing (input timeline) is kept when
                    // admissible; a segment demanding a faster slew is
                    // stretched to the limit-rate duration.
                    let dt = (t - tp_in).max(d / max_rate);
                    out.push((tp_out + dt, a));
                }
                _ => out.push((t, a)),
            }
            prev_in = Some(t);
        }
        GimbalSchedule { knots: out }
    }

    /// Gimbal angles at time `t`.
    pub fn at(&self, t: f64) -> [f64; 2] {
        let k = &self.knots;
        if t <= k[0].0 {
            return k[0].1;
        }
        if t >= k[k.len() - 1].0 {
            return k[k.len() - 1].1;
        }
        let hi = k.partition_point(|(kt, _)| *kt <= t);
        let (t0, a0) = k[hi - 1];
        let (t1, a1) = k[hi];
        let w = if t1 > t0 { (t - t0) / (t1 - t0) } else { 0.0 };
        [a0[0] + w * (a1[0] - a0[0]), a0[1] + w * (a1[1] - a0[1])]
    }
}

/// An engine-array inflow whose gimbal angles follow per-engine
/// [`GimbalSchedule`]s in time. Engines without a schedule keep their static
/// gimbal from the base array.
#[derive(Clone)]
pub struct ScheduledJetInflow {
    /// The array whose static gimbals apply where no schedule does.
    pub base: JetArrayInflow,
    /// `(engine index, schedule)` pairs.
    pub schedules: Vec<(usize, GimbalSchedule)>,
}

impl ScheduledJetInflow {
    /// Attach `(engine index, schedule)` pairs to `base`.
    pub fn new(base: JetArrayInflow, schedules: Vec<(usize, GimbalSchedule)>) -> Self {
        for (i, _) in &schedules {
            assert!(
                *i < base.engines.len(),
                "schedule for engine {i} out of range"
            );
        }
        ScheduledJetInflow { base, schedules }
    }

    /// The gimbal of engine `i` at time `t` (scheduled or static).
    pub fn gimbal_at(&self, i: usize, t: f64) -> [f64; 2] {
        self.schedules
            .iter()
            .find(|(e, _)| *e == i)
            .map(|(_, s)| s.at(t))
            .unwrap_or(self.base.engines[i].gimbal)
    }
}

impl InflowProfile for ScheduledJetInflow {
    fn prim(&self, pos: [f64; 3], t: f64) -> Prim<f64> {
        self.base.prim_with_gimbal(pos, |i| self.gimbal_at(i, t))
    }

    /// Only actually time-varying when a schedule is attached; an empty
    /// schedule list degenerates to the static array and may be memoized.
    fn time_varying(&self) -> bool {
        !self.schedules.is_empty()
    }

    /// Scheduled arrays are actuatable too (see [`JetArrayInflow::as_any`]).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_at_rate_derives_duration_from_distance() {
        let s = GimbalSchedule::ramp_at_rate(0.5, [0.0, 0.0], [0.3, 0.4], 0.25);
        // Distance 0.5 rad at 0.25 rad/t → 2 t; done at t = 2.5.
        assert_eq!(s.knots.len(), 2);
        assert!((s.knots[1].0 - 2.5).abs() < 1e-14);
        let mid = s.at(1.5); // halfway through the ramp
        assert!((mid[0] - 0.15).abs() < 1e-14 && (mid[1] - 0.2).abs() < 1e-14);
        // Zero-length move degenerates to a constant.
        let c = GimbalSchedule::ramp_at_rate(0.0, [0.1, 0.0], [0.1, 0.0], 1.0);
        assert_eq!(c.knots.len(), 1);
    }

    #[test]
    fn slew_limited_stretches_only_too_fast_segments() {
        // Segment 1 (0→1, distance 0.05) is admissible at rate 0.1;
        // segment 2 (1→1.1, distance 0.2) demands rate 2.0 → stretched to
        // 2 t; segment 3 keeps its requested 1 t spacing, shifted.
        let s = GimbalSchedule::slew_limited(
            vec![
                (0.0, [0.0, 0.0]),
                (1.0, [0.05, 0.0]),
                (1.1, [0.25, 0.0]),
                (2.1, [0.25, 0.0]),
            ],
            0.1,
        );
        let times: Vec<f64> = s.knots.iter().map(|(t, _)| *t).collect();
        assert!((times[0]).abs() < 1e-14);
        assert!((times[1] - 1.0).abs() < 1e-14, "{times:?}");
        assert!((times[2] - 3.0).abs() < 1e-14, "{times:?}");
        assert!((times[3] - 4.0).abs() < 1e-14, "{times:?}");
        // Angles untouched.
        assert_eq!(s.knots[2].1, [0.25, 0.0]);
        // No segment exceeds the limit.
        for w in s.knots.windows(2) {
            let d = ((w[1].1[0] - w[0].1[0]).powi(2) + (w[1].1[1] - w[0].1[1]).powi(2)).sqrt();
            let dt = w[1].0 - w[0].0;
            assert!(d / dt <= 0.1 + 1e-12, "segment rate {} too fast", d / dt);
        }
    }
    use igr_core::bc::InflowProfile;

    #[test]
    fn super_heavy_has_33_engines_in_three_groups() {
        let engines = super_heavy_33(1.0);
        assert_eq!(engines.len(), 33);
        // Count by radius from center: 3 near the middle, 10 mid, 20 outer.
        let r = |e: &Engine| (e.center[0].powi(2) + e.center[1].powi(2)).sqrt();
        let core = engines.iter().filter(|e| r(e) < 0.3).count();
        let inner = engines
            .iter()
            .filter(|e| (0.3..0.8).contains(&r(e)))
            .count();
        let outer = engines.iter().filter(|e| r(e) >= 0.8).count();
        assert_eq!((core, inner, outer), (3, 10, 20));
    }

    #[test]
    fn engines_do_not_overlap() {
        let engines = super_heavy_33(1.0);
        for (i, a) in engines.iter().enumerate() {
            for b in engines.iter().skip(i + 1) {
                let d = ((a.center[0] - b.center[0]).powi(2) + (a.center[1] - b.center[1]).powi(2))
                    .sqrt();
                assert!(
                    d > a.radius + b.radius - 1e-12,
                    "engines {i} overlap: separation {d}, radii {} {}",
                    a.radius,
                    b.radius
                );
            }
        }
    }

    #[test]
    fn mach10_exit_state_is_mach_10() {
        let jc = JetConditions::mach10();
        let exit = jc.exit_state(2);
        let c = (jc.gamma * exit.p / exit.rho).sqrt();
        assert!((exit.vel[2] / c - 10.0).abs() < 1e-12);
        assert_eq!(exit.vel[0], 0.0);
    }

    #[test]
    fn inflow_profile_blends_between_exit_and_ambient() {
        let inflow = JetArrayInflow {
            engines: single_engine(0.2),
            conditions: JetConditions::mach10(),
            plane_dims: (0, 1),
            flow_dim: 2,
            lip_width: 0.01,
        };
        let inside = inflow.prim([0.0, 0.0, 0.0], 0.0);
        let outside = inflow.prim([0.9, 0.9, 0.0], 0.0);
        let c = (1.4f64).sqrt();
        assert!((inside.vel[2] - 10.0 * c).abs() < 1e-6);
        assert!(outside.vel[2].abs() < 1e-9);
        // At the lip the blend is half.
        let lip = inflow.prim([0.2, 0.0, 0.0], 0.0);
        assert!((lip.vel[2] - 5.0 * c).abs() < 0.01 * c);
    }

    #[test]
    fn gimbaled_engine_preserves_exhaust_speed() {
        let inflow = JetArrayInflow {
            engines: vec![Engine::new([0.0, 0.0], 0.2).with_gimbal([0.1, -0.05])],
            conditions: JetConditions::mach10(),
            plane_dims: (0, 1),
            flow_dim: 2,
            lip_width: 0.01,
        };
        let pr = inflow.prim([0.0, 0.0, 0.0], 0.0);
        let speed = (pr.vel[0].powi(2) + pr.vel[1].powi(2) + pr.vel[2].powi(2)).sqrt();
        let c = (1.4f64).sqrt();
        assert!((speed - 10.0 * c).abs() < 1e-6, "speed {speed}");
        // Tilt toward +x (plane dim 0) by ~tan(0.1) of the flow component.
        assert!((pr.vel[0] / pr.vel[2] - 0.1f64.tan()).abs() < 1e-9);
        assert!((pr.vel[1] / pr.vel[2] - (-0.05f64).tan()).abs() < 1e-9);
    }

    #[test]
    fn altitude_conditions_underexpand_the_jet() {
        let sea = JetConditions::mach10();
        let alt = JetConditions::mach10_at_altitude(0.1);
        // Exit state is the same absolute state...
        let e0 = sea.exit_state(2);
        let e1 = alt.exit_state(2);
        assert!((e0.p - e1.p).abs() < 1e-12);
        assert!((e0.rho - e1.rho).abs() < 1e-12);
        assert!((e0.vel[2] - e1.vel[2]).abs() < 1e-9);
        // ...but the ambient backpressure dropped tenfold.
        assert!((alt.ambient.p - 0.1).abs() < 1e-14);
        assert!((alt.pressure_ratio - 10.0).abs() < 1e-12);
    }

    #[test]
    fn engine_out_removes_exactly_the_requested_engines() {
        let engines = super_heavy_33(1.0);
        let reduced = without_engines(engines.clone(), &[0, 5, 32]);
        assert_eq!(reduced.len(), 30);
        assert!(!reduced.contains(&engines[0]));
        assert!(!reduced.contains(&engines[5]));
        assert!(!reduced.contains(&engines[32]));
        assert!(reduced.contains(&engines[1]));
    }

    #[test]
    fn thrust_direction_is_unit_length() {
        let e = Engine::new([0.0, 0.0], 0.1).with_gimbal([0.2, 0.1]);
        let d = e.thrust_direction();
        let n = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        assert!((n - 1.0).abs() < 1e-14);
        let axial = Engine::new([0.0, 0.0], 0.1).thrust_direction();
        assert_eq!(axial, [1.0, 0.0, 0.0]);
    }

    #[test]
    fn three_engine_row_is_symmetric() {
        let engines = three_engine_row(0.1, 0.3);
        assert_eq!(engines.len(), 3);
        assert_eq!(engines[0].center[0], -0.3);
        assert_eq!(engines[1].center[0], 0.0);
        assert_eq!(engines[2].center[0], 0.3);
    }

    #[test]
    fn engine_fraction_takes_the_max_over_engines() {
        let inflow = JetArrayInflow {
            engines: three_engine_row(0.1, 0.5),
            conditions: JetConditions::mach10(),
            plane_dims: (0, 1),
            flow_dim: 2,
            lip_width: 0.005,
        };
        assert!(inflow.engine_fraction([0.5, 0.0, 0.0]) > 0.99);
        assert!(inflow.engine_fraction([0.25, 0.0, 0.0]) < 0.01);
    }
}
