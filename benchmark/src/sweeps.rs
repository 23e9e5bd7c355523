//! The two campaign workloads: one 192-scenario sweep served over loopback
//! by a `CampaignServer` to one closed-loop `CampaignClient`.
//!
//! * `sweep_cold` submits the scenarios one at a time to a server over an
//!   empty on-disk store: every submission is a miss, so a quantum is case
//!   build + execution + store append + result encode + two round trips —
//!   the campaign layers' **write** path.
//! * `sweep_warm` first executes the sweep into a store file, reopens it,
//!   and then replays the whole sweep round after round: every submission
//!   is a hit, nothing executes, so a quantum is 192 × (spec codec, content
//!   hash, store fetch, result codec) + 193 round trips — the **read** path.
//!
//! One worker, one solver thread, one client, one pinned CPU: the client
//! waits while the server works, so at most one thread is busy at a time.

use crate::specgen;
use crate::trace::Tracer;
use crate::workloads::Quanta;
use igr_campaign::{
    result_digest, Campaign, CampaignClient, CampaignServer, ExecConfig, ResultStore, ScenarioSpec,
    ServerStats,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long one `STREAM` may wait. Far above any quantum; reaching it means
/// the server is stuck and the quantum fails instead of hanging the run.
const STREAM_TIMEOUT: Duration = Duration::from_secs(60);

/// Scenarios the cold workload executes during set-up, outside the timed set.
pub const COLD_WARMUP_BATCH: usize = 16;

/// One worker with a one-thread solver pool: the server the workloads talk to.
pub fn exec_config() -> ExecConfig {
    ExecConfig {
        workers: 1,
        threads_per_worker: 1,
        checkpoint_dir: None,
    }
}

fn io(what: &str, e: std::io::Error) -> String {
    format!("{what}: {e}")
}

/// A bound server and its one connected client.
struct Link {
    server: CampaignServer,
    client: CampaignClient,
}

impl Link {
    fn open(store: ResultStore) -> Result<Link, String> {
        let server =
            CampaignServer::bind("127.0.0.1:0", exec_config(), store).map_err(|e| io("bind", e))?;
        let client = CampaignClient::connect(server.local_addr()).map_err(|e| io("connect", e))?;
        Ok(Link { server, client })
    }

    /// `STATS`, then a graceful shutdown that joins every server thread.
    fn close(mut self) -> Result<ServerStats, String> {
        let stats = self.client.stats().map_err(|e| io("stats", e))?;
        self.client
            .shutdown_server()
            .map_err(|e| io("shutdown", e))?;
        drop(self.client);
        self.server.join();
        Ok(stats)
    }
}

/// Sizes of a sweep run; the workloads fix them, the unit tests shrink them.
#[derive(Clone, Copy, Debug)]
pub struct SweepPlan {
    /// Timed steps of every scenario (48 cold, 2 warm).
    pub timed_steps: usize,
    /// Timed repetitions of the set-up.
    pub setup_reps: usize,
    /// Scenarios of the sweep actually used (192; fewer in the unit tests).
    pub sweep_len: usize,
}

fn specs_for(plan: &SweepPlan, seed: u64, round: u64) -> Vec<(ScenarioSpec, String)> {
    specgen::sweep_specs(seed, round, plan.timed_steps)
        .into_iter()
        .take(plan.sweep_len)
        .map(|s| {
            let hash = s.hash_hex();
            (s, hash)
        })
        .collect()
}

/// What the two sweep workloads share beyond [`Quanta`]: how they are opened
/// (the timed, repeated set-up) and closed (the server's own counts checked).
pub trait SweepSession: Quanta + Sized {
    /// Set up `plan.setup_reps` times, keeping the last repetition's server.
    fn open(plan: &SweepPlan, seed: u64, dir: &Path, tr: &mut Tracer) -> Result<Self, String>;
    /// Seconds of each set-up repetition.
    fn setup_s(&self) -> &[f64];
    fn scenarios_per_quantum(&self) -> usize;
    /// Check `STATS` against what the quanta should have caused; shut down.
    fn close(self) -> Result<ServerStats, String>;
}

// ---------------------------------------------------------------------------
// sweep_cold
// ---------------------------------------------------------------------------

/// An open `sweep_cold` workload.
pub struct ColdSession {
    link: Link,
    plan: SweepPlan,
    seed: u64,
    round: u64,
    specs: Vec<(ScenarioSpec, String)>,
    next: usize,
    submitted: u64,
    setup_s: Vec<f64>,
}

impl SweepSession for ColdSession {
    /// Set up `plan.setup_reps` times — expand and hash the sweep, create
    /// the store file, bind, connect and handshake, and execute the warm-up
    /// batch — keeping the last repetition's server for the timed quanta.
    fn open(plan: &SweepPlan, seed: u64, dir: &Path, tr: &mut Tracer) -> Result<Self, String> {
        assert!(plan.setup_reps >= 1);
        let mut setup_s = Vec::with_capacity(plan.setup_reps);
        let mut last: Option<(Link, Vec<(ScenarioSpec, String)>)> = None;
        for rep in 0..plan.setup_reps {
            if let Some((link, _)) = last.take() {
                link.close()?;
            }
            let t0 = Instant::now();
            let opened = tr.span("harness.setup", |tr| -> Result<_, String> {
                let specs = tr.span("igr-campaign.sweep_expand", |_| specs_for(plan, seed, 0));
                let warmup: Vec<ScenarioSpec> =
                    specgen::sweep_specs(seed, specgen::WARMUP_ROUND, plan.timed_steps)
                        .into_iter()
                        .take(COLD_WARMUP_BATCH.min(plan.sweep_len))
                        .collect();
                let store = tr
                    .span("igr-campaign.store_open", |_| {
                        ResultStore::open(dir.join(format!("cold-{rep}.jsonl")))
                    })
                    .map_err(|e| io("store", e))?;
                let mut link = tr.span("igr-campaign.connect", |_| Link::open(store))?;
                tr.span("igr-campaign.warmup_batch", |_| -> Result<(), String> {
                    link.client
                        .submit_all(&warmup, 0)
                        .map_err(|e| io("warm-up submit", e))?;
                    let done = link
                        .client
                        .stream(warmup.len(), STREAM_TIMEOUT)
                        .map_err(|e| io("warm-up stream", e))?;
                    if done.len() != warmup.len() || done.iter().any(|r| !r.result.status.is_ok()) {
                        return Err("warm-up batch did not complete".into());
                    }
                    Ok(())
                })?;
                Ok((link, specs))
            });
            setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(opened?);
        }
        let (link, specs) = last.expect("setup_reps >= 1");
        Ok(ColdSession {
            link,
            plan: *plan,
            seed,
            round: 0,
            specs,
            next: 0,
            submitted: COLD_WARMUP_BATCH.min(plan.sweep_len) as u64,
            setup_s,
        })
    }

    fn setup_s(&self) -> &[f64] {
        &self.setup_s
    }

    fn scenarios_per_quantum(&self) -> usize {
        1
    }

    /// Check the server's own counts against the quanta run, and shut down.
    fn close(self) -> Result<ServerStats, String> {
        let submitted = self.submitted;
        let stats = self.link.close()?;
        if stats.executed != submitted || stats.hits != 0 {
            return Err(format!(
                "server executed {} of {submitted} submissions with {} cache hits; expected all misses",
                stats.executed, stats.hits
            ));
        }
        Ok(stats)
    }
}

impl Quanta for ColdSession {
    /// One quantum: submit the next unseen scenario, stream its result.
    /// `Ok((seconds, cell-steps delivered))` or why the quantum failed.
    fn quantum(&mut self, tr: &mut Tracer) -> Result<(f64, f64), String> {
        if self.next == self.specs.len() {
            self.round += 1;
            self.specs = specs_for(&self.plan, self.seed, self.round);
            self.next = 0;
        }
        let (spec, hash) = &self.specs[self.next];
        self.next += 1;
        self.submitted += 1;
        let client = &mut self.link.client;
        let (seconds, reply) = tr.span("harness.quantum", |tr| {
            let t0 = Instant::now();
            let reply = tr
                .span("igr-campaign.submit", |_| client.submit(spec, 0))
                .and_then(|ack| {
                    tr.span("igr-campaign.stream", |_| client.stream(1, STREAM_TIMEOUT))
                        .map(|results| (ack, results))
                });
            (t0.elapsed().as_secs_f64(), reply)
        });
        let (ack, results) = reply.map_err(|e| io("submit/stream", e))?;
        let [r] = results.as_slice() else {
            return Err(format!("{} results streamed, expected 1", results.len()));
        };
        if !ack.queued || r.cached {
            return Err(format!("{hash}: served from the cache, expected a miss"));
        }
        if ack.hash_hex != *hash || r.result.hash_hex != *hash || r.job != ack.job {
            return Err(format!("{hash}: server answered for {}", ack.hash_hex));
        }
        if !r.result.status.is_ok() || r.result.steps != self.plan.timed_steps {
            return Err(format!("{hash}: {:?}", r.result.status));
        }
        Ok((seconds, (r.result.cells * r.result.steps) as f64))
    }
}

// ---------------------------------------------------------------------------
// sweep_warm
// ---------------------------------------------------------------------------

/// An open `sweep_warm` workload.
pub struct WarmSession {
    link: Link,
    specs: Vec<ScenarioSpec>,
    hashes: Vec<String>,
    /// content hash → digest of the result the populating run recorded.
    cold_digests: BTreeMap<u64, u64>,
    setup_s: Vec<f64>,
}

impl SweepSession for WarmSession {
    /// Set up `plan.setup_reps` times — execute the sweep into a fresh store
    /// file through `Campaign::open().run()`, reopen the file, bind,
    /// connect, and take the first hit.
    fn open(plan: &SweepPlan, seed: u64, dir: &Path, tr: &mut Tracer) -> Result<Self, String> {
        assert!(plan.setup_reps >= 1);
        let mut setup_s = Vec::with_capacity(plan.setup_reps);
        let mut last: Option<WarmSession> = None;
        for rep in 0..plan.setup_reps {
            if let Some(prev) = last.take() {
                prev.link.close()?;
            }
            let t0 = Instant::now();
            let opened = tr.span("harness.setup", |tr| -> Result<_, String> {
                let (specs, hashes): (Vec<_>, Vec<_>) =
                    specs_for(plan, seed, 0).into_iter().unzip();
                let path = dir.join(format!("warm-{rep}.jsonl"));
                let report = tr
                    .span("igr-campaign.populate", |_| {
                        Campaign::open(exec_config(), &path).map(|mut c| c.run(&specs))
                    })
                    .map_err(|e| io("populate", e))?;
                if report.executed != specs.len()
                    || report.rows.iter().any(|r| !r.result.status.is_ok())
                {
                    return Err(format!(
                        "populating run executed {} of {} scenarios",
                        report.executed,
                        specs.len()
                    ));
                }
                let cold_digests = specs
                    .iter()
                    .zip(&report.rows)
                    .map(|(s, row)| {
                        let h = s.content_hash();
                        (h, result_digest(h, &row.result))
                    })
                    .collect();
                let store = tr
                    .span("igr-campaign.store_open", |_| ResultStore::open(&path))
                    .map_err(|e| io("reopen", e))?;
                let link = tr.span("igr-campaign.connect", |_| Link::open(store))?;
                let mut session = WarmSession {
                    link,
                    specs,
                    hashes,
                    cold_digests,
                    setup_s: Vec::new(),
                };
                session.fetch(0..1, "igr-campaign.first_hit", tr)?;
                Ok(session)
            });
            setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(opened?);
        }
        let mut session = last.expect("setup_reps >= 1");
        session.setup_s = setup_s;
        Ok(session)
    }

    fn setup_s(&self) -> &[f64] {
        &self.setup_s
    }

    fn scenarios_per_quantum(&self) -> usize {
        self.specs.len()
    }

    /// Check that the server executed nothing, and shut down.
    fn close(self) -> Result<ServerStats, String> {
        let stats = self.link.close()?;
        if stats.executed != 0 || stats.misses != 0 || stats.hits == 0 {
            return Err(format!(
                "server executed {} scenarios ({} misses, {} hits); expected hits only",
                stats.executed, stats.misses, stats.hits
            ));
        }
        Ok(stats)
    }
}

impl WarmSession {
    /// Submit `range` of the sweep and stream every result back (timed),
    /// then check (untimed) that each is a hit that equals what the
    /// populating run recorded. `Ok((seconds, cell-steps delivered))`; the
    /// timed part runs inside a span called `span`.
    fn fetch(
        &mut self,
        range: std::ops::Range<usize>,
        span: &'static str,
        tr: &mut Tracer,
    ) -> Result<(f64, f64), String> {
        let (specs, hashes) = (&self.specs[range.clone()], &self.hashes[range]);
        let client = &mut self.link.client;
        let (seconds, reply) = tr.span(span, |tr| {
            let t0 = Instant::now();
            let reply = tr
                .span("igr-campaign.submit_all", |_| client.submit_all(specs, 0))
                .and_then(|acks| {
                    tr.span("igr-campaign.stream", |_| {
                        client.stream(specs.len(), STREAM_TIMEOUT)
                    })
                    .map(|results| (acks, results))
                });
            (t0.elapsed().as_secs_f64(), reply)
        });
        let (acks, results) = reply.map_err(|e| io("submit/stream", e))?;
        if results.len() != specs.len() {
            return Err(format!(
                "{} of {} results streamed",
                results.len(),
                specs.len()
            ));
        }
        for (ack, hash) in acks.iter().zip(hashes) {
            if ack.queued || ack.hash_hex != *hash {
                return Err(format!("{hash}: queued for execution, expected a hit"));
            }
        }
        let mut cell_steps = 0.0;
        for r in &results {
            if !r.cached || !r.result.status.is_ok() {
                return Err(format!("{}: not a completed cache hit", r.result.hash_hex));
            }
            if self.cold_digests.get(&r.hash) != Some(&result_digest(r.hash, &r.result)) {
                return Err(format!(
                    "{}: served result differs from the executed one",
                    r.result.hash_hex
                ));
            }
            cell_steps += (r.result.cells * r.result.steps) as f64;
        }
        Ok((seconds, cell_steps))
    }
}

impl Quanta for WarmSession {
    /// The whole sweep, `submit_all` then `stream`.
    fn quantum(&mut self, tr: &mut Tracer) -> Result<(f64, f64), String> {
        self.fetch(0..self.specs.len(), "harness.quantum", tr)
    }
}

/// Bytes per stored result of the store file `path` holds.
pub fn store_bytes_per_result(path: &Path, results: usize) -> Option<f64> {
    let len = std::fs::metadata(path).ok()?.len();
    Some(len as f64 / results as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: SweepPlan = SweepPlan {
        timed_steps: 2,
        setup_reps: 2,
        sweep_len: 6,
    };

    #[test]
    fn two_quantum_smoke_of_sweep_cold() {
        let dir = crate::scratch_dir("cold-test");
        let mut tr = Tracer::new(true, "smoke");
        let mut s = ColdSession::open(&SMALL, 1, &dir, &mut tr).unwrap();
        assert_eq!(s.setup_s().len(), 2);
        for _ in 0..2 {
            let (seconds, cell_steps) = s.quantum(&mut tr).unwrap();
            assert!(seconds > 0.0);
            assert_eq!(cell_steps, (64 * 32 * 2) as f64);
        }
        let stats = s.close().unwrap();
        assert_eq!(stats.executed, 6 + 2);
        assert_eq!(stats.hits, 0);
        assert!(tr.spans().iter().any(|sp| sp.name == "igr-campaign.stream"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sweep_cold_rolls_into_the_next_round_without_a_hit() {
        let dir = crate::scratch_dir("cold-rounds-test");
        let mut tr = Tracer::new(false, "smoke");
        let plan = SweepPlan {
            sweep_len: 2,
            setup_reps: 1,
            ..SMALL
        };
        let mut s = ColdSession::open(&plan, 1, &dir, &mut tr).unwrap();
        for _ in 0..5 {
            s.quantum(&mut tr).unwrap();
        }
        assert_eq!(s.close().unwrap().executed, 2 + 5);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn two_quantum_smoke_of_sweep_warm() {
        let dir = crate::scratch_dir("warm-test");
        let mut tr = Tracer::new(true, "smoke");
        let mut s = WarmSession::open(&SMALL, 1, &dir, &mut tr).unwrap();
        assert_eq!(s.setup_s().len(), 2);
        assert_eq!(s.scenarios_per_quantum(), 6);
        for _ in 0..2 {
            let (seconds, cell_steps) = s.quantum(&mut tr).unwrap();
            assert!(seconds > 0.0);
            assert_eq!(cell_steps, (6 * 64 * 32 * 2) as f64);
        }
        let stats = s.close().unwrap();
        assert_eq!(stats.executed, 0);
        assert_eq!(stats.hits, 1 + 2 * 6);
        let per_result = store_bytes_per_result(&dir.join("warm-1.jsonl"), 6).unwrap();
        assert!(per_result > 100.0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_tampered_store_fails_the_warm_check() {
        let dir = crate::scratch_dir("warm-tamper-test");
        let mut tr = Tracer::new(false, "smoke");
        let plan = SweepPlan {
            setup_reps: 1,
            ..SMALL
        };
        let mut s = WarmSession::open(&plan, 1, &dir, &mut tr).unwrap();
        // Pretend the populating run had recorded something else.
        for d in s.cold_digests.values_mut() {
            *d ^= 1;
        }
        let err = s.quantum(&mut tr).unwrap_err();
        assert!(err.contains("differs"), "{err}");
        s.link.close().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }
}
