//! Fault-injection chaos suite for the federated campaign fabric: kill a
//! node mid-sweep, tear a connection mid-`STREAM`, and check the sweep
//! still completes with **zero lost jobs**, no double-executions beyond
//! content-hash coalescing, and results bitwise-identical (on the physics
//! fields) to a run that never saw a failure.
//!
//! Timing fields (`wall_s`, `ns_per_cell_step`) are machine noise and are
//! never compared; `mass_drift`/`energy_drift` are compared by bits.

use igr::campaign::{
    run_scenario, BaseCase, CampaignClient, CampaignServer, ExecConfig, FederatedClient,
    FederationConfig, ResultStore, ScenarioResult, ScenarioSpec,
};
use std::collections::HashMap;
use std::time::Duration;

/// A single-worker, single-thread node: execution order and physics are
/// deterministic, so cross-node comparisons can be bitwise.
fn node() -> CampaignServer {
    CampaignServer::bind(
        "127.0.0.1:0",
        ExecConfig {
            workers: 1,
            threads_per_worker: 1,
            ..Default::default()
        },
        ResultStore::new(),
    )
    .expect("bind")
}

fn cfg() -> FederationConfig {
    FederationConfig {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Duration::from_secs(10),
        stream_slice: Duration::from_millis(200),
    }
}

fn quick(n: usize) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(BaseCase::SteepeningWave { amp: 0.2 }, n);
    s.warmup = 0;
    s.steps = 1;
    s
}

/// A 2-D jet case heavy enough that it is still running when its node is
/// killed: about 0.1 s in release (8 192 cells, 33 steps), hundreds of
/// times the loopback `STATS` poll that precedes the kill.
fn heavy() -> ScenarioSpec {
    let mut s = ScenarioSpec::new(BaseCase::EngineRow2d { engines: 3 }, 64);
    s.warmup = 1;
    s.steps = 32;
    s
}

/// The ground truth: every spec executed in-process, no servers involved.
fn reference(specs: &[ScenarioSpec]) -> HashMap<u64, ScenarioResult> {
    specs
        .iter()
        .map(|spec| {
            let mut s = spec.clone();
            s.normalize();
            (s.content_hash(), run_scenario(&s))
        })
        .collect()
}

/// Physics must match bit-for-bit; timing fields are expected to differ.
fn assert_bitwise_physics(got: &HashMap<u64, ScenarioResult>, want: &HashMap<u64, ScenarioResult>) {
    assert_eq!(got.len(), want.len());
    for (hash, w) in want {
        let g = &got[hash];
        assert!(g.status.is_ok(), "{}: failed under chaos", g.name);
        assert_eq!(
            g.mass_drift.to_bits(),
            w.mass_drift.to_bits(),
            "{}: mass drift diverged across the federation",
            g.name
        );
        assert_eq!(
            g.energy_drift.to_bits(),
            w.energy_drift.to_bits(),
            "{}: energy drift diverged across the federation",
            g.name
        );
        assert_eq!(g.cells, w.cells);
        assert_eq!(g.steps, w.steps);
    }
}

/// Kill 1 of 3 nodes after submission but before its results ever stream:
/// every orphaned job is re-homed to a survivor, the sweep completes with
/// all results, and no hash executes more than once across the survivors.
#[test]
fn killing_one_of_three_nodes_mid_sweep_loses_no_jobs() {
    let a = node();
    let b = node();
    let c = node();
    let addrs = vec![
        a.local_addr().to_string(),
        b.local_addr().to_string(),
        c.local_addr().to_string(),
    ];
    let mut fed = FederatedClient::connect(&addrs, cfg()).unwrap();
    assert_eq!(fed.live_nodes().len(), 3);

    // Six unique specs + one duplicate; round-robin parks two on each node.
    let specs = [
        quick(40),
        quick(48),
        quick(56),
        quick(64),
        quick(72),
        quick(80),
        quick(40), // duplicate of the first — dedupes client-side
    ];
    let hashes = fed.submit_all(&specs).unwrap();
    assert_eq!(hashes[0], hashes[6]);
    assert_eq!(fed.stats().deduped, 1);

    // Chaos: node C dies with its two jobs never streamed. The pause lets
    // its connection handlers notice the flag and tear their sockets, so
    // the client's next exchange hits a dead connection, not a live one.
    c.request_shutdown();
    std::thread::sleep(Duration::from_millis(300));

    let results = fed.collect(Duration::from_secs(240)).unwrap();
    assert_eq!(results.len(), 6, "every unique scenario completed");
    assert_eq!(fed.stats().nodes_lost, 1);
    assert_eq!(fed.stats().resubmitted, 2, "both orphans re-homed");

    assert_bitwise_physics(&results, &reference(&specs[..6]));

    // No double-executions beyond coalescing: the six hashes executed
    // exactly once across the survivors (four originals + two re-homed).
    let mut ca = CampaignClient::connect(a.local_addr()).unwrap();
    let mut cb = CampaignClient::connect(b.local_addr()).unwrap();
    let (sa, sb) = (ca.stats().unwrap(), cb.stats().unwrap());
    assert_eq!(
        sa.executed + sb.executed,
        6,
        "survivors executed each hash exactly once"
    );
    assert_eq!(sa.outstanding + sb.outstanding, 0, "no job left behind");

    ca.shutdown_server().unwrap();
    cb.shutdown_server().unwrap();
    a.join();
    b.join();
    c.join();
}

/// Tear the connection *during* a `STREAM` exchange: the owning node dies
/// while its job is still executing, the client fails over mid-collect,
/// and the surviving node re-executes to the same physics bits.
#[test]
fn torn_stream_mid_execution_resumes_on_a_peer() {
    let a = node();
    let b = node();
    let addrs = vec![a.local_addr().to_string(), b.local_addr().to_string()];
    // A node notices its shutdown only between stream slices, and a slice
    // that outlives heavy() delivers its result; short slices make A's
    // death visible long before heavy() could finish.
    let short_slices = FederationConfig {
        stream_slice: Duration::from_millis(10),
        ..cfg()
    };
    let mut fed = FederatedClient::connect(&addrs, short_slices).unwrap();

    // Round-robin: the heavy jet case lands on node A, the quick one on B.
    let specs = [heavy(), quick(48)];
    fed.submit_all(&specs).unwrap();

    // Killer thread: shut node A down over the wire while the main thread
    // collects and A's worker is still integrating the heavy case — the
    // kill waits for A's `STATS` to show that job outstanding and unexecuted
    // rather than for a fixed delay.
    let kill_addr = a.local_addr();
    let killer = std::thread::spawn(move || {
        let mut assassin = CampaignClient::connect(kill_addr).expect("connect to victim");
        loop {
            let s = assassin.stats().expect("stats from victim");
            assert_eq!(s.executed, 0, "heavy() finished before the kill");
            if s.outstanding == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assassin.shutdown_server().expect("shutdown verb");
    });

    let results = fed.collect(Duration::from_secs(240)).unwrap();
    killer.join().unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(fed.stats().nodes_lost, 1, "node A counted dead");
    assert_eq!(fed.stats().resubmitted, 1, "the heavy case re-homed to B");

    assert_bitwise_physics(&results, &reference(&specs));

    // The survivor owns the whole sweep now.
    let mut cb = CampaignClient::connect(b.local_addr()).unwrap();
    let sb = cb.stats().unwrap();
    assert_eq!(sb.entries, 2);
    assert_eq!(sb.executed, 2);
    cb.shutdown_server().unwrap();
    b.join();
    a.join();
}

/// A ranks=2 scenario preempted on one node resumes on a *different*
/// node from the per-rank restart files (`<hash>.rank<N>.ckpt` in a
/// shared checkpoint volume) — mid-flight, not from t = 0 — and lands on
/// the uninterrupted run's physics bit for bit.
#[test]
fn preempted_two_rank_scenario_resumes_on_a_different_node() {
    use igr::app::parallel::{rank_ckpt_path, run_decomposed, DecompCheckpointing};
    use igr::prelude::StoreF64;

    let dir = std::env::temp_dir().join("igr_federation_chaos_ckpt");
    std::fs::create_dir_all(&dir).unwrap();

    let mut spec = ScenarioSpec::new(BaseCase::EngineRow2d { engines: 3 }, 16);
    spec.warmup = 0;
    spec.steps = 4;
    spec.ranks = Some(2);
    spec.checkpoint_every = Some(1);
    spec.normalize();
    spec.validate().expect("decomposed checkpointing is legal");
    for rank in 0..2 {
        let _ = std::fs::remove_file(rank_ckpt_path(&dir, &spec.hash_hex(), rank));
    }

    // Ground truth: the same spec run start-to-finish, no preemption.
    let fresh = run_scenario(&spec);
    assert!(fresh.status.is_ok(), "{:?}", fresh.status);
    assert!(fresh.resumed_from.is_none());

    // Node A is preempted 2 steps into 4: its worker leaves one restart
    // file per rank in the shared checkpoint volume and dies.
    let case = spec.build_case().unwrap();
    let cfg = spec.igr_config(&case);
    let init = case.init.clone();
    run_decomposed::<f64, StoreF64>(
        &cfg,
        &case.domain,
        2,
        2,
        move |p| init(p),
        Some(DecompCheckpointing {
            dir: dir.clone(),
            stem: spec.hash_hex(),
            every: 1,
        }),
        &[],
    );
    for rank in 0..2 {
        assert!(rank_ckpt_path(&dir, &spec.hash_hex(), rank).exists());
    }

    // Node B — a different server sharing the volume — receives the
    // failed-over submission and resumes from the rank set.
    let exec = ExecConfig {
        workers: 1,
        threads_per_worker: 1,
        checkpoint_dir: Some(dir.clone()),
        ..Default::default()
    };
    let b = CampaignServer::bind("127.0.0.1:0", exec, ResultStore::new()).expect("bind");
    let mut cb = CampaignClient::connect(b.local_addr()).unwrap();
    cb.submit(&spec, 0).unwrap();
    let streamed = cb.stream(1, Duration::from_secs(240)).unwrap();
    assert_eq!(streamed.len(), 1);
    let r = &streamed[0].result;
    assert!(r.status.is_ok(), "{:?}", r.status);
    assert_eq!(r.resumed_from, Some(2), "must not restart from t = 0");
    assert_eq!(r.mass_drift.to_bits(), fresh.mass_drift.to_bits());
    assert_eq!(r.energy_drift.to_bits(), fresh.energy_drift.to_bits());
    for rank in 0..2 {
        assert!(
            !rank_ckpt_path(&dir, &spec.hash_hex(), rank).exists(),
            "the completed resume consumes the restart set"
        );
    }
    cb.shutdown_server().unwrap();
    b.join();
}

/// All nodes dead with work outstanding is an error, not a hang: collect
/// reports `ConnectionAborted` once the last node dies.
#[test]
fn losing_every_node_fails_loudly_instead_of_hanging() {
    let a = node();
    let addrs = vec![a.local_addr().to_string()];
    let mut fed = FederatedClient::connect(&addrs, cfg()).unwrap();

    fed.submit(&heavy()).unwrap();
    a.request_shutdown();
    std::thread::sleep(Duration::from_millis(300));

    let err = match fed.collect(Duration::from_secs(60)) {
        Ok(_) => panic!("collected a sweep from a dead federation"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionAborted);
    assert_eq!(fed.stats().nodes_lost, 1);
    a.join();
}
