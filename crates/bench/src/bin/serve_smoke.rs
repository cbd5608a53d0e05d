//! Smoke client for `scripts/verify.sh`: drives a running `nptsn serve`
//! instance end to end — submits a greedy plan job, polls it to
//! completion, fetches the plan file, checks `/healthz` and `/metrics`,
//! and requests shutdown. Exits non-zero (with a panic message) on any
//! deviation.
//!
//! ```text
//! serve_smoke <host:port>
//! ```

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use nptsn_bench::json_u64;
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

fn main() {
    let addr: SocketAddr = std::env::args()
        .nth(1)
        .expect("usage: serve_smoke <host:port>")
        .parse()
        .expect("argument is not a host:port address");
    let mut client = Client::new(addr);

    let health = client.get("/healthz").expect("GET /healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    println!("serve_smoke: /healthz 200");

    let submitted = client
        .post("/jobs/plan?greedy=1&seed=0", DOC.as_bytes())
        .expect("POST /jobs/plan");
    assert_eq!(submitted.status, 202, "{}", submitted.text());
    let id = json_u64(&submitted.text(), "id");
    println!("serve_smoke: greedy plan job {id} accepted (202)");

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.get(&format!("/jobs/{id}")).expect("poll");
        assert_eq!(status.status, 200, "{}", status.text());
        let body = status.text();
        if body.contains("\"state\":\"done\"") {
            break;
        }
        assert!(
            !body.contains("\"state\":\"failed\"") && !body.contains("\"state\":\"cancelled\""),
            "job ended badly: {body}"
        );
        assert!(Instant::now() < deadline, "job {id} never finished: {body}");
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("serve_smoke: job {id} done");

    let plan = client.get(&format!("/jobs/{id}/plan")).expect("GET plan");
    assert_eq!(plan.status, 200, "{}", plan.text());
    assert!(plan.text().contains("[switches]"), "not a plan file: {}", plan.text());
    println!("serve_smoke: plan file fetched (200, {} bytes)", plan.body.len());

    let metrics = client.get("/metrics").expect("GET /metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(!text.is_empty(), "/metrics is empty");
    assert!(text.contains("nptsn_jobs_completed_total 1"), "{text}");
    assert!(text.contains("nptsn_http_requests_total"), "{text}");
    println!("serve_smoke: /metrics 200, {} bytes", metrics.body.len());

    let shutdown = client.post("/shutdown", &[]).expect("POST /shutdown");
    assert_eq!(shutdown.status, 200, "{}", shutdown.text());
    println!("serve_smoke: shutdown requested (200); all checks passed");
}
