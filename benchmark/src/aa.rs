//! `--aa`: the benchmark measured against itself.
//!
//! Runs the untraced set twice — sides A and B, one child process per
//! workload and side, alternating which side goes first — and compares the
//! sides metric by metric against the bounds `BENCHMARK.json` declares. Two
//! runs of the same code that differ by more than a bound mean the benchmark
//! cannot resolve that bound; the remedy is a longer timed region, never a
//! looser bound.

use crate::json::Value;
use crate::metrics::END_TO_END;
use crate::workloads::Workload;
use std::process::Command;

/// One child run: its end-to-end metric values, by catalogue order.
fn child(workload: Workload, seed: u64, seconds: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "exit {:?}\n{stdout}{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or("no output")?;
    let result = Value::parse(line)?;
    END_TO_END
        .iter()
        .map(|(name, _)| {
            result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("result line lacks {name}"))
        })
        .collect()
}

/// The declared bound of every end-to-end metric, by catalogue order.
fn bounds() -> Result<Vec<f64>, String> {
    let path = crate::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = Value::parse(&text)?;
    let declared = file
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    END_TO_END
        .iter()
        .map(|(name, _)| {
            declared
                .iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
                .and_then(|m| m.get("bound"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("BENCHMARK.json declares no bound for {name}"))
        })
        .collect()
}

/// Run the comparison; the process exit code.
pub fn run(seed: u64, seconds: u64) -> i32 {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(why) => {
            eprintln!("{why}");
            return 2;
        }
    };
    println!("A/A: untraced set twice, seed {seed}, --seconds {seconds}, one process per workload and side");
    let mut worst: f64 = 0.0;
    let mut exceeded = 0;
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        // Alternate which side runs first, so drift of the host over the
        // minutes this takes does not favour one side.
        let mut sides = [None, None];
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            match child(workload, seed, seconds) {
                Ok(values) => sides[side] = Some(values),
                Err(why) => {
                    eprintln!("{} side {}: {why}", workload.name(), ["A", "B"][side]);
                    return 1;
                }
            }
        }
        let [Some(a), Some(b)] = sides else {
            unreachable!("both sides ran")
        };
        for (k, (name, unit)) in END_TO_END.iter().enumerate() {
            let diff = (b[k] - a[k]).abs() / a[k].abs();
            let over = diff > bounds[k];
            worst = worst.max(diff / bounds[k]);
            exceeded += usize::from(over);
            println!(
                "{:<12} {:<20} A {:>14.6} B {:>14.6} {:<12} diff {:>7.3} % bound {:>5.1} %{}",
                workload.name(),
                name,
                a[k],
                b[k],
                unit,
                100.0 * diff,
                100.0 * bounds[k],
                if over { "  EXCEEDED" } else { "" }
            );
        }
    }
    println!(
        "worst difference: {:.2} of its bound | {exceeded} exceeded",
        worst
    );
    i32::from(exceeded > 0)
}
