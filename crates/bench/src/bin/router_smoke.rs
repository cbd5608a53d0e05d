//! Smoke client for `scripts/verify.sh`: drives a routed two-shard fleet
//! through a mid-work `kill -9` of one shard and asserts the durability
//! contract — every job the router acked reaches a terminal state with a
//! correct result, served through the router, with the failover and
//! replay visible in `/metrics`. Exits non-zero (panic message) on any
//! deviation.
//!
//! ```text
//! router_smoke <router-host:port> --kill-pid <shard-pid>
//! ```
//!
//! The script starts the shards and the router; this binary owns the kill
//! so it lands mid-submission, not between phases.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use nptsn_bench::json_u64;
use nptsn_serve::client::{BackoffConfig, Client};

/// Reads one counter out of a Prometheus text exposition.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or_else(|| panic!("no {name} sample in /metrics"))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let addr: SocketAddr = args
        .next()
        .expect("usage: router_smoke <host:port> --kill-pid <pid>")
        .parse()
        .expect("argument is not a host:port address");
    assert_eq!(args.next().as_deref(), Some("--kill-pid"), "expected --kill-pid");
    let kill_pid = args.next().expect("--kill-pid needs a pid");

    // Generous retries: while the dead shard is still on the ring, a
    // submission placed there fails un-acked and is answered 503 — the
    // client is expected to retry through the failover window.
    let mut client = Client::new(addr).with_backoff(BackoffConfig {
        max_retries: 40,
        base_ms: 25,
        cap_ms: 400,
        seed: 7,
        deadline_ms: 0,
    });

    let health = client.get("/healthz").expect("GET /healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    assert_eq!(json_u64(&health.text(), "live_shards"), 2, "{}", health.text());
    println!("router_smoke: /healthz 200, 2 live shards");

    let total = 24usize;
    let mut acked = Vec::with_capacity(total);
    for n in 0..total {
        if n == total / 2 {
            let status = std::process::Command::new("kill")
                .args(["-9", &kill_pid])
                .status()
                .expect("run kill");
            assert!(status.success(), "kill -9 {kill_pid} failed");
            println!("router_smoke: killed shard pid {kill_pid} mid-submission");
        }
        let accepted = client.post("/jobs/burn?millis=20", &[]).expect("POST /jobs/burn");
        assert_eq!(accepted.status, 202, "submission {n}: {}", accepted.text());
        acked.push(json_u64(&accepted.text(), "id"));
    }
    println!("router_smoke: {} jobs acked through the router", acked.len());

    // Zero acked loss: every 202'd job must reach `done` via the router,
    // whichever shard it first landed on.
    let deadline = Instant::now() + Duration::from_secs(60);
    for &id in &acked {
        loop {
            let status = client.get(&format!("/jobs/{id}")).expect("GET /jobs/<id>");
            if status.status == 200 && status.text().contains("\"state\":\"done\"") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "job {id} not terminal in time: {} {}",
                status.status,
                status.text()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    println!("router_smoke: all {} acked jobs terminal (done)", acked.len());

    let health = client.get("/healthz").expect("GET /healthz after kill");
    assert_eq!(json_u64(&health.text(), "live_shards"), 1, "{}", health.text());

    let metrics = client.get("/metrics").expect("GET /metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    let failovers = metric(&text, "nptsn_router_failovers_total");
    let replayed = metric(&text, "nptsn_router_replayed_jobs_total");
    assert!(failovers >= 1, "no failover recorded: {failovers}");
    assert!(replayed >= 1, "nothing replayed from the dead shard: {replayed}");
    println!("router_smoke: failovers={failovers} replayed={replayed}");

    let shutdown = client.post("/shutdown", &[]).expect("POST /shutdown");
    assert_eq!(shutdown.status, 200, "{}", shutdown.text());
    println!("router_smoke: PASS");
}
