//! Infer micro-batching smoke client for `scripts/verify.sh`:
//!
//! ```text
//! infer_smoke <host:port>
//! ```
//!
//! Against a server started with one worker and `--infer-batch-max > 1`,
//! it registers a checkpoint, piles identical concurrent infer jobs
//! behind a burn job so the worker coalesces them, then asserts that
//! (a) every job reached the same terminal outcome — batching never
//! changes a result — and (b) the server really fused at least one batch
//! (`nptsn_infer_batched_forwards_total >= 1` on `/metrics`). Exits
//! non-zero (with a panic message) on any deviation, then requests
//! shutdown so the script can observe the drain.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use nptsn::{Planner, PlannerConfig};
use nptsn_bench::json_u64;
use nptsn_format::parse_problem;
use nptsn_nn::{params_to_bytes, Module};
use nptsn_serve::Client;

const DOC: &str = "\
[nodes]
es camera
es ecu
sw s0
sw s1
[links]
camera s0
camera s1
ecu s0
ecu s1
s0 s1
[flows]
camera ecu 500 256
";

fn poll_terminal(client: &mut Client, id: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let body = client.get(&format!("/jobs/{id}")).expect("poll").text();
        if ["done", "failed", "cancelled"]
            .iter()
            .any(|s| body.contains(&format!("\"state\":\"{s}\"")))
        {
            return body;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn main() {
    let addr: SocketAddr = std::env::args()
        .nth(1)
        .expect("usage: infer_smoke <host:port>")
        .parse()
        .expect("argument is not a host:port address");
    let mut client = Client::new(addr);

    // A structurally valid (untrained) checkpoint for the fixture problem.
    let parsed = parse_problem(DOC).expect("fixture problem parses");
    let planner = Planner::new(parsed.problem.clone(), PlannerConfig::quick());
    let bytes = params_to_bytes(&planner.build_policy().parameters());
    let put = client.put("/checkpoints/smoke", &bytes).expect("PUT checkpoint");
    assert_eq!(put.status, 200, "{}", put.text());
    println!("infer_smoke: checkpoint 'smoke' registered");

    // Occupy the single worker so the infer jobs pile up and coalesce.
    let burn = client.post("/jobs/burn?millis=1000", &[]).expect("POST burn");
    assert_eq!(burn.status, 202, "{}", burn.text());
    let burn_id = json_u64(&burn.text(), "id");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let body = client.get(&format!("/jobs/{burn_id}")).expect("poll burn").text();
        if body.contains("\"state\":\"running\"") {
            break;
        }
        assert!(Instant::now() < deadline, "burn job never started: {body}");
        std::thread::sleep(Duration::from_millis(5));
    }

    let ids: Vec<u64> = (0..4)
        .map(|_| {
            let r = client
                .post("/jobs/infer?checkpoint=smoke&attempts=2&seed=7", DOC.as_bytes())
                .expect("POST infer");
            assert_eq!(r.status, 202, "{}", r.text());
            json_u64(&r.text(), "id")
        })
        .collect();
    println!("infer_smoke: {} identical infer jobs queued behind the burn", ids.len());

    // Identical submissions must produce identical terminal outcomes.
    let bodies: Vec<String> = ids.iter().map(|&id| poll_terminal(&mut client, id)).collect();
    let canon = |body: &str, id: u64| body.replace(&format!("\"id\":{id}"), "");
    let first = canon(&bodies[0], ids[0]);
    for (&id, body) in ids.iter().zip(&bodies).skip(1) {
        assert_eq!(canon(body, id), first, "job {id} diverged from its identical twin");
    }
    println!("infer_smoke: all {} outcomes identical", ids.len());

    // The worker really fused a batch.
    let metrics = client.get("/metrics").expect("GET /metrics").text();
    let batched: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("nptsn_infer_batched_forwards_total "))
        .and_then(|v| v.parse().ok())
        .expect("batched-forwards counter present");
    assert!(batched >= 1, "no batched forward recorded:\n{metrics}");
    let batch_jobs: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("nptsn_infer_batch_jobs_total "))
        .and_then(|v| v.parse().ok())
        .expect("batch-jobs counter present");
    println!(
        "infer_smoke: {batched} fused batch(es) served {batch_jobs} of {} jobs",
        ids.len()
    );

    let shutdown = client.post("/shutdown", &[]).expect("POST /shutdown");
    assert_eq!(shutdown.status, 200, "{}", shutdown.text());
    println!("infer_smoke: shutdown requested (200); all checks passed");
}
