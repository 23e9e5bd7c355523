//! Strong-stability-preserving Runge–Kutta time integration
//! (Gottlieb & Shu total-variation-diminishing schemes, the paper's ref. \[12\]).
//!
//! The paper stores only *two* copies of the state (current stage + previous
//! state) by rearranging the stage updates so the previous-state buffer
//! updates the current stage in place (§5.5.3). [`advance`] implements
//! exactly that arrangement:
//!
//! ```text
//! RK3:  q1      = q^n + Δt L(q^n)
//!       q2      = 3/4 q^n + 1/4 (q1 + Δt L(q1))
//!       q^{n+1} = 1/3 q^n + 2/3 (q2 + Δt L(q2))
//! ```

use crate::config::RkOrder;
use crate::state::Fields;
use igr_prec::{Real, Storage};

/// One full RK step: evaluates `rhs_fn(stage_state, rhs_out)` once per stage
/// and leaves the advanced solution in `q_rk`, swapping it with `q` at the
/// end — so on return `q` holds `q^{n+1}` and `q_rk` the old `q^n` (reused
/// as scratch next step). Generic over the equation set's [`Fields`].
pub fn advance<R, S, const NF: usize, Q, F>(
    rk: RkOrder,
    dt: R,
    q: &mut Q,
    q_rk: &mut Q,
    rhs: &mut Q,
    mut rhs_fn: F,
) where
    R: Real,
    S: Storage<R>,
    Q: Fields<R, S, NF>,
    F: FnMut(&mut Q, &mut Q),
{
    match rk {
        RkOrder::Rk1 => {
            rhs_fn(q, rhs);
            q_rk.euler_from(q, dt, rhs);
        }
        RkOrder::Rk2 => {
            rhs_fn(q, rhs);
            q_rk.euler_from(q, dt, rhs);
            rhs_fn(q_rk, rhs);
            q_rk.rk_combine(R::HALF, q, R::HALF, dt, rhs);
        }
        RkOrder::Rk3 => {
            rhs_fn(q, rhs);
            q_rk.euler_from(q, dt, rhs);
            rhs_fn(q_rk, rhs);
            q_rk.rk_combine(R::from_f64(0.75), q, R::from_f64(0.25), dt, rhs);
            rhs_fn(q_rk, rhs);
            q_rk.rk_combine(R::from_f64(1.0 / 3.0), q, R::from_f64(2.0 / 3.0), dt, rhs);
        }
    }
    std::mem::swap(q, q_rk);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::State;
    use igr_grid::GridShape;
    use igr_prec::StoreF64;

    type St = State<f64, StoreF64>;

    /// Integrate dq/dt = lambda * q on every cell and compare against exp.
    fn integrate_exponential(rk: RkOrder, dt: f64, steps: usize) -> f64 {
        let shape = GridShape::new(2, 1, 1, 3);
        let mut q = St::zeros(shape);
        let mut q_rk = St::zeros(shape);
        let mut rhs = St::zeros(shape);
        let lambda = -1.0f64;
        q.rho.map_interior(|_, _, _, _| 1.0);
        for _ in 0..steps {
            advance(rk, dt, &mut q, &mut q_rk, &mut rhs, |stage, out| {
                for i in 0..2 {
                    out.rho.set(i, 0, 0, lambda * stage.rho.at(i, 0, 0));
                }
            });
        }
        q.rho.at(0, 0, 0)
    }

    #[test]
    fn rk_orders_converge_at_their_design_rates() {
        let t_end = 1.0f64;
        let exact = (-t_end).exp();
        for (rk, expected_order) in [
            (RkOrder::Rk1, 1.0),
            (RkOrder::Rk2, 2.0),
            (RkOrder::Rk3, 3.0),
        ] {
            let e_coarse = (integrate_exponential(rk, 0.1, 10) - exact).abs();
            let e_fine = (integrate_exponential(rk, 0.05, 20) - exact).abs();
            let order = (e_coarse / e_fine).log2();
            assert!(
                (order - expected_order).abs() < 0.35,
                "{rk:?}: observed order {order}, expected {expected_order}"
            );
        }
    }

    #[test]
    fn rk3_stage_weights_match_gottlieb_shu_exactly() {
        // For dq/dt = c (constant), any consistent RK gives q + c*dt exactly;
        // use dq/dt = t-dependence-free linear map and compare one step
        // against the hand-expanded Gottlieb-Shu formula.
        let shape = GridShape::new(1, 1, 1, 3);
        let mut q = St::zeros(shape);
        let mut q_rk = St::zeros(shape);
        let mut rhs = St::zeros(shape);
        let q0 = 2.0;
        let lam = 0.7;
        let dt = 0.3;
        q.rho.set(0, 0, 0, q0);
        advance(
            RkOrder::Rk3,
            dt,
            &mut q,
            &mut q_rk,
            &mut rhs,
            |stage, out| {
                out.rho.set(0, 0, 0, lam * stage.rho.at(0, 0, 0));
            },
        );
        let q1 = q0 + dt * lam * q0;
        let q2 = 0.75 * q0 + 0.25 * (q1 + dt * lam * q1);
        let q3 = (1.0 / 3.0) * q0 + (2.0 / 3.0) * (q2 + dt * lam * q2);
        assert!((q.rho.at(0, 0, 0) - q3).abs() < 1e-14);
    }

    #[test]
    fn advance_leaves_new_state_in_q() {
        let shape = GridShape::new(1, 1, 1, 3);
        let mut q = St::zeros(shape);
        let mut q_rk = St::zeros(shape);
        let mut rhs = St::zeros(shape);
        q.rho.set(0, 0, 0, 1.0);
        advance(RkOrder::Rk1, 1.0, &mut q, &mut q_rk, &mut rhs, |_, out| {
            out.rho.set(0, 0, 0, 1.0);
        });
        assert_eq!(q.rho.at(0, 0, 0), 2.0, "q holds q^{{n+1}} after the swap");
        assert_eq!(q_rk.rho.at(0, 0, 0), 1.0, "q_rk holds the old state");
    }
}
