//! `reference.json`: fp64 flow samples the jet workloads' final states are
//! compared with, for the default seed.
//!
//! The reference for each workload is the same protocol run at fp64 (IGR for
//! the IGR jets, WENO for the baseline), so an fp32 or fp16 result is held
//! to the tolerance its storage precision can meet, and the fp64 workload to
//! round-off. `--write-reference` regenerates the file; other seeds have no
//! reference and fall back to finiteness and positivity.

use crate::json::{self, Value};
use igr_app::diagnostics::Sample;
use std::fmt::Write as _;
use std::path::Path;

/// The seed `reference.json` is recorded for.
pub const DEFAULT_SEED: u64 = 1;

/// The compared quantities of a [`Sample`], by name.
fn fields(s: &Sample) -> [(&'static str, f64); 9] {
    [
        ("t", s.t),
        ("mass", s.totals[0]),
        ("mom_x", s.totals[1]),
        ("mom_y", s.totals[2]),
        ("mom_z", s.totals[3]),
        ("energy", s.totals[4]),
        ("kinetic_energy", s.kinetic_energy),
        ("max_mach", s.max_mach),
        ("min_rho", s.min_rho),
    ]
}

/// One workload's entry, as a JSON object.
pub fn encode_entry(steps: usize, s: &Sample) -> String {
    let mut out = format!("{{\"steps\": {steps}");
    for (name, x) in fields(s) {
        let _ = write!(out, ", {}: {}", json::string(name), json::number(x));
    }
    out.push('}');
    out
}

/// The whole file: `entries` are `(workload, encoded entry)`.
pub fn encode_file(n: usize, entries: &[(&str, String)]) -> String {
    let mut out = format!("{{\n  \"seed\": {DEFAULT_SEED},\n  \"n\": {n},\n  \"workloads\": {{\n");
    for (i, (name, entry)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(out, "    {}: {entry}{comma}", json::string(name));
    }
    out.push_str("  }\n}\n");
    out
}

/// Worst relative deviation of `got` from the reference entry of `workload`
/// in the file at `path`, or why there is nothing to compare with. A
/// momentum component is measured against the momentum vector's length, so
/// a component that symmetry keeps near zero cannot fail on round-off.
pub fn worst_deviation(
    path: &Path,
    workload: &str,
    n: usize,
    got: &Sample,
) -> Result<(f64, &'static str), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = Value::parse(&text)?;
    let num = |v: &Value, key: &str| -> Result<f64, String> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("reference lacks `{key}`"))
    };
    if num(&file, "n")? != n as f64 {
        return Err(format!(
            "reference is for n = {}, run has n = {n}",
            num(&file, "n")?
        ));
    }
    let entry = file
        .get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or_else(|| format!("reference has no entry for {workload}"))?;
    if num(entry, "steps")? != got.step as f64 {
        return Err(format!(
            "reference is after {} steps, run is after {}",
            num(entry, "steps")?,
            got.step
        ));
    }
    let mom_len = ["mom_x", "mom_y", "mom_z"]
        .iter()
        .map(|k| num(entry, k).map(|x| x * x))
        .sum::<Result<f64, String>>()?
        .sqrt();
    let mut worst = (0.0, "t");
    for (name, x) in fields(got) {
        let want = num(entry, name)?;
        let scale = if name.starts_with("mom_") {
            mom_len
        } else {
            want.abs()
        };
        let dev = (x - want).abs() / scale;
        if dev.is_nan() {
            return Ok((dev, name)); // no tolerance admits a NaN
        }
        if dev > worst.0 {
            worst = (dev, name);
        }
    }
    Ok(worst)
}

/// The fallback for seeds without a reference: everything finite, density
/// positive, a flow present.
pub fn invariants_hold(s: &Sample) -> Result<(), String> {
    if let Some((name, x)) = fields(s).into_iter().find(|(_, x)| !x.is_finite()) {
        return Err(format!("{name} = {x} is not finite"));
    }
    if s.min_rho <= 0.0 {
        return Err(format!("min_rho = {} is not positive", s.min_rho));
    }
    if s.totals[0] <= 0.0 || s.totals[4] <= 0.0 || s.max_mach <= 0.0 {
        return Err("mass, energy and peak Mach number must be positive".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Sample {
        Sample {
            step: 14,
            t: 0.0123,
            totals: [27.5, 1e-14, -2e-14, 3.25, 70.0],
            kinetic_energy: 4.5,
            max_mach: 9.75,
            min_rho: 0.4,
        }
    }

    fn write(tag: &str, text: &str) -> std::path::PathBuf {
        let path = crate::scratch_dir(tag).join("reference.json");
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn a_sample_matches_its_own_reference_and_misses_a_shifted_one() {
        let s = sample();
        let path = write(
            "reference-test",
            &encode_file(48, &[("jet3d_fp32", encode_entry(14, &s))]),
        );
        assert_eq!(worst_deviation(&path, "jet3d_fp32", 48, &s).unwrap().0, 0.0);

        let mut shifted = s;
        shifted.max_mach *= 1.01;
        shifted.totals[1] = 1e-10; // tiny against |momentum| = 3.25
        let (dev, name) = worst_deviation(&path, "jet3d_fp32", 48, &shifted).unwrap();
        assert_eq!(name, "max_mach");
        assert!((dev - 0.01).abs() < 1e-12);

        assert!(worst_deviation(&path, "jet3d_fp16", 48, &s).is_err());
        assert!(worst_deviation(&path, "jet3d_fp32", 12, &s).is_err());
        let mut later = s;
        later.step = 15;
        assert!(worst_deviation(&path, "jet3d_fp32", 48, &later).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn a_nan_is_the_worst_deviation() {
        let s = sample();
        let path = write(
            "reference-nan-test",
            &encode_file(48, &[("w", encode_entry(14, &s))]),
        );
        let mut bad = s;
        bad.kinetic_energy = f64::NAN;
        let (dev, name) = worst_deviation(&path, "w", 48, &bad).unwrap();
        assert!(dev.is_nan());
        assert_eq!(name, "kinetic_energy");
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn invariants_catch_non_finite_and_non_positive_states() {
        assert!(invariants_hold(&sample()).is_ok());
        let mut s = sample();
        s.min_rho = -0.1;
        assert!(invariants_hold(&s).is_err());
        s = sample();
        s.totals[4] = f64::INFINITY;
        assert!(invariants_hold(&s).is_err());
    }
}
