//! Seed → inputs. The programs under test only ever see what is generated
//! here: an engine-out pair for the jets, and sweep specs for the campaign
//! workloads.

use igr_campaign::{sweep, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scenarios per sweep: 4 engine-out sets × 8 gimbal angles × 6
/// backpressures on the 3-engine row.
pub const SWEEP_LEN: usize = 192;
const GIMBALS: usize = 8;
const PRESSURES: usize = 6;

/// Resolution of the sweep scenarios: a 64 × 32 grid, 2 048 cells, ~300 KB of
/// fp64 state — in cache, so per-scenario overhead shows where the 48³ jets
/// hide it.
pub const SWEEP_RESOLUTION: usize = 32;

/// The two engines of the 33-engine array a jet workload runs without.
pub fn engines_out(seed: u64) -> [usize; 2] {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a65_7473); // "jets"
    let a = rng.gen_range(0..33usize);
    let b = (a + 1 + rng.gen_range(0..32usize)) % 33;
    [a.min(b), a.max(b)]
}

/// `n` values, one drawn uniformly from each of `n` equal strata of
/// `[lo, hi)`: seed-dependent, never equal, never clustered.
fn stratified(rng: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    let width = (hi - lo) / n as f64;
    (0..n)
        .map(|k| lo + (k as f64 + rng.gen_range(0.0..1.0)) * width)
        .collect()
}

/// Sweep number `round` for `seed`: the `engine_out × gimbal × backpressure`
/// product with seed-drawn gimbal angles and backpressures, in seed-drawn
/// submission order. Different rounds share no scenario, so a workload that
/// needs more than 192 distinct scenarios takes the next round.
pub fn sweep_specs(seed: u64, round: u64, timed_steps: usize) -> Vec<ScenarioSpec> {
    let mut rng = StdRng::seed_from_u64(
        seed ^ round.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x0073_7765_6570, // "sweep"
    );
    let gimbals = stratified(&mut rng, GIMBALS, 0.02, 0.16);
    let pressures = stratified(&mut rng, PRESSURES, 0.2, 1.0);
    let mut specs = sweep::engine_out_gimbal_backpressure(
        SWEEP_RESOLUTION,
        timed_steps,
        &[vec![], vec![0], vec![1], vec![2]],
        &gimbals,
        &pressures,
    )
    .expand();
    assert_eq!(specs.len(), SWEEP_LEN);
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.gen_range(0..i + 1));
    }
    specs
}

/// Round number reserved for the warm-up batch of `sweep_cold`, so that no
/// timed scenario has been seen by the server before.
pub const WARMUP_ROUND: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn hashes(specs: &[ScenarioSpec]) -> Vec<u64> {
        specs.iter().map(ScenarioSpec::content_hash).collect()
    }

    #[test]
    fn same_seed_gives_the_same_192_hashes() {
        let a = hashes(&sweep_specs(1, 0, 48));
        let b = hashes(&sweep_specs(1, 0, 48));
        assert_eq!(a, b);
        assert_eq!(a.len(), SWEEP_LEN);
        assert_eq!(
            a.iter().collect::<BTreeSet<_>>().len(),
            SWEEP_LEN,
            "all distinct"
        );
    }

    #[test]
    fn seeds_and_rounds_share_no_scenario() {
        let base: BTreeSet<u64> = hashes(&sweep_specs(1, 0, 48)).into_iter().collect();
        for other in [
            sweep_specs(2, 0, 48),
            sweep_specs(1, 1, 48),
            sweep_specs(1, WARMUP_ROUND, 48),
        ] {
            assert!(hashes(&other).iter().all(|h| !base.contains(h)));
        }
    }

    #[test]
    fn every_generated_spec_is_valid() {
        for spec in sweep_specs(3, 0, 2) {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn engine_out_pairs_are_distinct_and_in_range() {
        let mut seen = BTreeSet::new();
        for seed in 0..200 {
            let [a, b] = engines_out(seed);
            assert!(a < b && b < 33, "seed {seed}: {a}, {b}");
            assert_eq!(engines_out(seed), [a, b]);
            seen.insert((a, b));
        }
        assert!(seen.len() > 100, "the seed must matter");
    }
}
