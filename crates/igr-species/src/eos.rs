//! Mixture thermodynamics for two ideal gases under the isobaric closure.
//!
//! The stored state is `q = (α₁ρ₁, α₂ρ₂, ρu, ρv, ρw, E, α₁)`. The mixture
//! density is `ρ = α₁ρ₁ + α₂ρ₂`, and the equation of state is
//! `p = (E − ρ|u|²/2) / Γ(α₁)` with
//!
//! ```text
//! Γ(α) = α/(γ₁−1) + (1−α)/(γ₂−1).
//! ```
//!
//! `Γ` is **linear** in `α` — the property the oscillation-free interface
//! transport of the flux kernel relies on (see crate docs).

use igr_prec::Real;

/// Number of stored variables per cell.
pub const NS: usize = 7;

/// Indices into the stored tuple.
pub const I_R1: usize = 0;
/// Second partial density `α₂ρ₂`.
pub const I_R2: usize = 1;
/// x-momentum.
pub const I_MX: usize = 2;
/// y-momentum.
pub const I_MY: usize = 3;
/// z-momentum.
pub const I_MZ: usize = 4;
/// Total energy.
pub const I_E: usize = 5;
/// Volume fraction of fluid 1.
pub const I_A: usize = 6;

/// Stored state at one point.
pub type Cons2<R> = [R; NS];

/// Two-gas mixture equation of state: the specific-heat ratios of the two
/// components.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixEos {
    /// γ of fluid 1 (the fluid whose volume fraction is stored).
    pub gamma1: f64,
    /// γ of fluid 2.
    pub gamma2: f64,
}

impl MixEos {
    /// Air (γ = 1.4) / helium (γ = 1.67): the classic shock–bubble pairing.
    pub fn air_helium() -> Self {
        MixEos {
            gamma1: 1.4,
            gamma2: 1.67,
        }
    }

    /// Both fluids identical — the model must then reduce *exactly* to the
    /// single-fluid solver (tested).
    pub fn single(gamma: f64) -> Self {
        MixEos {
            gamma1: gamma,
            gamma2: gamma,
        }
    }

    /// `Γ(α) = α/(γ₁−1) + (1−α)/(γ₂−1)`, linear in `α`.
    #[inline(always)]
    pub fn big_gamma<R: Real>(&self, alpha: R) -> R {
        let g1 = R::from_f64(1.0 / (self.gamma1 - 1.0));
        let g2 = R::from_f64(1.0 / (self.gamma2 - 1.0));
        alpha * g1 + (R::ONE - alpha) * g2
    }

    /// Effective mixture ratio of specific heats `γ_mix(α) = 1 + 1/Γ(α)`.
    #[inline(always)]
    pub fn gamma_mix<R: Real>(&self, alpha: R) -> R {
        R::ONE + R::ONE / self.big_gamma(alpha)
    }

    /// Reject specific-heat ratios that are not above 1 (NaN included).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.gamma1 > 1.0 && self.gamma2 > 1.0) {
            return Err(format!(
                "both specific-heat ratios must exceed 1, got ({}, {})",
                self.gamma1, self.gamma2
            ));
        }
        Ok(())
    }
}

/// Primitive mixture state at one point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixPrim<R: Real> {
    /// Partial densities `(α₁ρ₁, α₂ρ₂)`.
    pub ar: [R; 2],
    /// Velocity.
    pub vel: [R; 3],
    /// Thermodynamic pressure.
    pub p: R,
    /// Volume fraction of fluid 1.
    pub alpha: R,
}

impl<R: Real> MixPrim<R> {
    /// Build from partial densities, velocity, pressure, volume fraction.
    pub fn new(ar: [R; 2], vel: [R; 3], p: R, alpha: R) -> Self {
        MixPrim { ar, vel, p, alpha }
    }

    /// Pure fluid 1 at `(ρ, u, p)`.
    pub fn pure1(rho: R, vel: [R; 3], p: R) -> Self {
        MixPrim {
            ar: [rho, R::ZERO],
            vel,
            p,
            alpha: R::ONE,
        }
    }

    /// Pure fluid 2 at `(ρ, u, p)`.
    pub fn pure2(rho: R, vel: [R; 3], p: R) -> Self {
        MixPrim {
            ar: [R::ZERO, rho],
            vel,
            p,
            alpha: R::ZERO,
        }
    }

    /// Convert from f64 components (case-setup convenience).
    pub fn from_f64(ar: [f64; 2], vel: [f64; 3], p: f64, alpha: f64) -> Self {
        MixPrim {
            ar: [R::from_f64(ar[0]), R::from_f64(ar[1])],
            vel: [
                R::from_f64(vel[0]),
                R::from_f64(vel[1]),
                R::from_f64(vel[2]),
            ],
            p: R::from_f64(p),
            alpha: R::from_f64(alpha),
        }
    }

    /// Mixture density `ρ = α₁ρ₁ + α₂ρ₂`.
    #[inline(always)]
    pub fn rho(&self) -> R {
        self.ar[0] + self.ar[1]
    }

    /// Stored (quasi-conservative) variables.
    #[inline(always)]
    pub fn to_cons(&self, eos: &MixEos) -> Cons2<R> {
        let rho = self.rho();
        let ke = R::HALF
            * rho
            * (self.vel[0] * self.vel[0] + self.vel[1] * self.vel[1] + self.vel[2] * self.vel[2]);
        [
            self.ar[0],
            self.ar[1],
            rho * self.vel[0],
            rho * self.vel[1],
            rho * self.vel[2],
            eos.big_gamma(self.alpha) * self.p + ke,
            self.alpha,
        ]
    }

    /// Mixture sound speed `c = sqrt(γ_mix p / ρ)` (frozen/isobaric-closure
    /// estimate — an upper bound on the Wood speed, which is what the CFL
    /// scan and the Lax–Friedrichs dissipation need).
    #[inline(always)]
    pub fn sound_speed(&self, eos: &MixEos) -> R {
        (eos.gamma_mix(self.alpha) * self.p / self.rho()).sqrt()
    }
}

/// Primitive variables from the stored tuple.
#[inline(always)]
pub fn cons_to_prim<R: Real>(q: &Cons2<R>, eos: &MixEos) -> MixPrim<R> {
    let rho = q[I_R1] + q[I_R2];
    let inv_rho = R::ONE / rho;
    let vel = [q[I_MX] * inv_rho, q[I_MY] * inv_rho, q[I_MZ] * inv_rho];
    let ke = R::HALF * rho * (vel[0] * vel[0] + vel[1] * vel[1] + vel[2] * vel[2]);
    let p = (q[I_E] - ke) / eos.big_gamma(q[I_A]);
    MixPrim {
        ar: [q[I_R1], q[I_R2]],
        vel,
        p,
        alpha: q[I_A],
    }
}

/// Inviscid flux along axis `d` with total pressure `ptot = p + Σ`.
///
/// The last slot carries the *central* part of the volume-fraction flux,
/// `α u_n`; the kernel pairs it with the non-conservative `α ∇·u` term so
/// that a uniform `α` has an exactly zero update.
#[inline(always)]
pub fn inviscid_flux<R: Real>(d: usize, q: &Cons2<R>, pr: &MixPrim<R>, ptot: R) -> Cons2<R> {
    let un = pr.vel[d];
    let mut f = [
        q[I_R1] * un,
        q[I_R2] * un,
        q[I_MX] * un,
        q[I_MY] * un,
        q[I_MZ] * un,
        (q[I_E] + ptot) * un,
        q[I_A] * un,
    ];
    f[I_MX + d] += ptot;
    f
}

/// Largest signal speed of a state along axis `d`, with the entropic
/// pressure folded into the effective sound speed as in `igr-core`.
#[inline(always)]
pub fn max_wave_speed<R: Real>(d: usize, pr: &MixPrim<R>, sigma: R, eos: &MixEos) -> R {
    let p_eff = (pr.p + sigma).max(R::from_f64(1e-300));
    pr.vel[d].abs() + (eos.gamma_mix(pr.alpha) * p_eff / pr.rho()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EOS: MixEos = MixEos {
        gamma1: 1.4,
        gamma2: 1.67,
    };

    #[test]
    fn gamma_is_linear_in_alpha() {
        // Γ(sa + (1-s)b) = s Γ(a) + (1-s) Γ(b) for the mixture rule.
        for (a, b, s) in [(0.0, 1.0, 0.3), (0.2, 0.9, 0.7), (0.5, 0.5, 0.1)] {
            let lhs: f64 = EOS.big_gamma(s * a + (1.0 - s) * b);
            let rhs = s * EOS.big_gamma(a) + (1.0 - s) * EOS.big_gamma(b);
            assert!((lhs - rhs).abs() < 1e-15);
        }
    }

    #[test]
    fn pure_fluid_limits_match_single_gas_eos() {
        assert!((EOS.gamma_mix(1.0f64) - 1.4).abs() < 1e-14);
        assert!((EOS.gamma_mix(0.0f64) - 1.67).abs() < 1e-14);
    }

    #[test]
    fn prim_cons_roundtrip() {
        let pr = MixPrim::new([0.3, 0.9], [0.4, -0.2, 1.1], 0.75, 0.35);
        let q = pr.to_cons(&EOS);
        let back = cons_to_prim(&q, &EOS);
        assert!((back.p - pr.p).abs() < 1e-14);
        assert!((back.alpha - pr.alpha).abs() < 1e-14);
        for d in 0..3 {
            assert!((back.vel[d] - pr.vel[d]).abs() < 1e-14);
        }
        for s in 0..2 {
            assert!((back.ar[s] - pr.ar[s]).abs() < 1e-14);
        }
    }

    #[test]
    fn pure_fluid_energy_matches_single_gas() {
        // With alpha = 1 the energy must be p/(gamma1-1) + ke.
        let pr = MixPrim::pure1(1.3, [2.0, 0.0, 0.0], 0.9);
        let q = pr.to_cons(&EOS);
        let expect = 0.9 / 0.4 + 0.5 * 1.3 * 4.0;
        assert!((q[I_E] - expect).abs() < 1e-14);
    }

    #[test]
    fn sound_speed_interpolates_between_pure_fluids() {
        let mk = |alpha: f64| MixPrim::new([alpha, 1.0 - alpha], [0.0; 3], 1.0, alpha);
        let c1 = mk(1.0).sound_speed(&EOS);
        let c2 = mk(0.0).sound_speed(&EOS);
        let cm = mk(0.5).sound_speed(&EOS);
        assert!((c1 - 1.4f64.sqrt()).abs() < 1e-14);
        assert!((c2 - 1.67f64.sqrt()).abs() < 1e-14);
        assert!(cm > c1.min(c2) && cm < c1.max(c2));
    }

    #[test]
    fn flux_of_stationary_mixture_is_pressure_only() {
        let pr = MixPrim::new([0.4, 0.8], [0.0; 3], 2.5, 0.6);
        let q = pr.to_cons(&EOS);
        for d in 0..3 {
            let f = inviscid_flux(d, &q, &pr, pr.p);
            assert_eq!(f[I_R1], 0.0);
            assert_eq!(f[I_R2], 0.0);
            assert_eq!(f[I_E], 0.0);
            assert_eq!(f[I_A], 0.0);
            for a in 0..3 {
                let expect = if a == d { 2.5 } else { 0.0 };
                assert_eq!(f[I_MX + a], expect);
            }
        }
    }

    #[test]
    fn entropic_pressure_enters_momentum_and_energy_only() {
        let pr = MixPrim::new([0.5, 0.5], [1.0, 0.0, 0.0], 1.0, 0.5);
        let q = pr.to_cons(&EOS);
        let sigma = 0.25;
        let f0 = inviscid_flux(0, &q, &pr, pr.p);
        let f1 = inviscid_flux(0, &q, &pr, pr.p + sigma);
        assert!((f1[I_MX] - f0[I_MX] - sigma).abs() < 1e-15);
        assert!((f1[I_E] - f0[I_E] - sigma).abs() < 1e-15);
        assert_eq!(f1[I_R1], f0[I_R1]);
        assert_eq!(f1[I_A], f0[I_A]);
    }

    #[test]
    fn wave_speed_reduces_to_single_gas_and_grows_with_sigma() {
        let pr = MixPrim::pure1(1.0, [0.5, 0.0, 0.0], 1.0);
        let s0 = max_wave_speed(0, &pr, 0.0, &EOS);
        assert!((s0 - (0.5 + 1.4f64.sqrt())).abs() < 1e-14);
        assert!(max_wave_speed(0, &pr, 0.5, &EOS) > s0);
    }

    #[test]
    fn invalid_eos_is_rejected() {
        assert!(MixEos {
            gamma1: 1.0,
            gamma2: 1.4
        }
        .validate()
        .is_err());
        assert!(MixEos {
            gamma1: 1.4,
            gamma2: 0.9
        }
        .validate()
        .is_err());
        assert!(MixEos::air_helium().validate().is_ok());
    }
}
