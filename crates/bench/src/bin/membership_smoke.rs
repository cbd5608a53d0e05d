//! Smoke client for `scripts/verify.sh`: drives the elastic-membership
//! protocol (DESIGN.md §16) end to end over real shard processes and
//! asserts the contract at every step — zero acked loss across a
//! `kill -9`, replica promotion, a same-data-dir restart + rejoin, and a
//! live scale-out. Exits non-zero (panic message) on any deviation.
//!
//! ```text
//! membership_smoke
//! ```
//!
//! The binary owns its whole fleet: shards are re-executions of itself
//! (see `nptsn_bench::fleet`), the router is in-process with
//! `replication_factor: 2`, and the kill is a real SIGKILL.

use std::time::{Duration, Instant};

use nptsn_bench::fleet::{maybe_run_shard_child, spawn_named_shard};
use nptsn_bench::json_u64;
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::client::{BackoffConfig, Client};

/// Reads one counter out of a Prometheus text exposition.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or_else(|| panic!("no {name} sample in /metrics"))
}

fn submit_batch(client: &mut Client, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            let accepted = client.post("/jobs/burn?millis=5", &[]).expect("POST /jobs/burn");
            assert_eq!(accepted.status, 202, "submission {i}: {}", accepted.text());
            json_u64(&accepted.text(), "id")
        })
        .collect()
}

fn poll_done(client: &mut Client, ids: &[u64], what: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    for &id in ids {
        loop {
            let status = client.get(&format!("/jobs/{id}")).expect("GET /jobs/<id>");
            if status.status == 200 && status.text().contains("\"state\":\"done\"") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{what}: job {id} not done in time: {} {}",
                status.status,
                status.text()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

fn wait_live(client: &mut Client, n: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = client.get("/healthz").expect("GET /healthz");
        if json_u64(&health.text(), "live_shards") == n {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: fleet never reached {n} live shards");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn main() {
    maybe_run_shard_child();
    let base = std::env::temp_dir();
    let dir_a = base.join(format!("nptsn-membership-smoke-a-{}", std::process::id()));
    let dir_b = base.join(format!("nptsn-membership-smoke-b-{}", std::process::id()));
    let dir_c = base.join(format!("nptsn-membership-smoke-c-{}", std::process::id()));
    for dir in [&dir_a, &dir_b, &dir_c] {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut shard_a = spawn_named_shard(Some(&dir_a), 1, 256, Some("s0"));
    let mut shard_b = spawn_named_shard(Some(&dir_b), 1, 256, Some("s1"));
    let router = Router::bind(RouterConfig {
        shards: vec![
            ShardSpec { name: "s0".into(), addr: shard_a.addr, data_dir: Some(dir_a.clone()) },
            ShardSpec { name: "s1".into(), addr: shard_b.addr, data_dir: Some(dir_b.clone()) },
        ],
        replication_factor: 2,
        health_interval_ms: 20,
        health_failures: 2,
        forward_deadline_ms: 1_000,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut client = Client::new(router.local_addr()).with_backoff(BackoffConfig {
        max_retries: 40,
        base_ms: 10,
        cap_ms: 200,
        seed: 11,
        deadline_ms: 0,
    });

    let ready = client.get("/readyz").expect("GET /readyz");
    assert_eq!(ready.status, 200, "{}", ready.text());
    assert_eq!(json_u64(&ready.text(), "live_shards"), 2, "{}", ready.text());
    assert!(json_u64(&ready.text(), "ring_generation") >= 1, "{}", ready.text());
    println!("membership_smoke: /readyz 200, 2 live shards");

    // Phase 1: a healthy RF2 batch — every acked job mirrored.
    let first = submit_batch(&mut client, 24);
    poll_done(&mut client, &first, "healthy batch");
    println!("membership_smoke: {} jobs done on the healthy fleet", first.len());

    // Phase 2: SIGKILL the primary. Promotion, not replay, keeps every
    // acked job reachable on the survivor.
    shard_a.kill9();
    wait_live(&mut client, 1, "death detection");
    poll_done(&mut client, &first, "post-kill batch");
    let metrics = client.get("/metrics").expect("GET /metrics").text();
    assert!(
        metric(&metrics, "nptsn_router_replica_promotions_total") >= 1,
        "the death promoted no passive replica"
    );
    println!("membership_smoke: s0 killed, promotion served every acked job");

    // Phase 3: the degraded fleet keeps accepting.
    let second = submit_batch(&mut client, 24);
    poll_done(&mut client, &second, "degraded batch");

    // Phase 4: restart s0 on its old data dir (fresh port), re-announce,
    // rejoin + catch-up.
    let mut shard_a2 = spawn_named_shard(Some(&dir_a), 1, 256, Some("s0"));
    let announce = format!(
        "{{\"name\":\"s0\",\"addr\":\"{}\",\"data_dir\":\"{}\"}}",
        shard_a2.addr,
        dir_a.display()
    );
    let response = client.post("/admin/shards", announce.as_bytes()).expect("re-announce");
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("\"status\":\"rejoined\""), "{}", response.text());
    wait_live(&mut client, 2, "rejoin");
    let metrics = client.get("/metrics").expect("GET /metrics").text();
    assert!(metric(&metrics, "nptsn_router_rejoins_total") >= 1, "no rejoin recorded");
    assert!(
        metric(&metrics, "nptsn_router_migrated_jobs_total") >= 1,
        "the rejoin catch-up migrated nothing"
    );
    assert!(
        metric(&metrics, "nptsn_router_ring_generation") >= 3,
        "ring generation never advanced through death + rejoin"
    );
    poll_done(&mut client, &first, "post-rejoin first batch");
    poll_done(&mut client, &second, "post-rejoin second batch");
    println!("membership_smoke: s0 rejoined and caught up, all acked jobs intact");

    // Phase 5: live scale-out — a brand-new shard joins the running fleet.
    let mut shard_c = spawn_named_shard(Some(&dir_c), 1, 256, Some("s2"));
    let join = format!(
        "{{\"name\":\"s2\",\"addr\":\"{}\",\"data_dir\":\"{}\"}}",
        shard_c.addr,
        dir_c.display()
    );
    let response = client.post("/admin/shards", join.as_bytes()).expect("join");
    assert_eq!(response.status, 200, "{}", response.text());
    assert!(response.text().contains("\"status\":\"joined\""), "{}", response.text());
    wait_live(&mut client, 3, "scale-out");
    // The background drain hands the newcomer its share; every earlier job
    // stays reachable throughout (a mid-transfer read retries, never 404s).
    poll_done(&mut client, &first, "post-join first batch");
    poll_done(&mut client, &second, "post-join second batch");
    let third = submit_batch(&mut client, 12);
    poll_done(&mut client, &third, "three-shard batch");
    println!("membership_smoke: s2 joined live, fleet of 3 serving");

    let shutdown = client.post("/shutdown", &[]).expect("POST /shutdown");
    assert_eq!(shutdown.status, 200, "{}", shutdown.text());
    router.wait();
    for shard in [&mut shard_a2, &mut shard_b, &mut shard_c] {
        let mut direct = Client::new(shard.addr);
        if direct.post("/shutdown", &[]).is_ok() {
            shard.join();
        } else {
            shard.kill9();
        }
    }
    for dir in [&dir_a, &dir_b, &dir_c] {
        let _ = std::fs::remove_dir_all(dir);
    }
    println!("membership_smoke: PASS");
}
