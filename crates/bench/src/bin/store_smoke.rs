//! Durability smoke client for `scripts/verify.sh`: proves a `--data-dir`
//! server survives `kill -9`. Two phases around a kill the *script*
//! performs:
//!
//! ```text
//! store_smoke seed  <host:port> <state-dir>   # before the kill
//! store_smoke check <host:port> <state-dir>   # against the restarted server
//! ```
//!
//! `seed` registers a checkpoint, runs a verify job to completion and
//! saves its result bytes, then loads the queue with burn jobs (one
//! running, several queued) and exits — leaving the server mid-work for
//! `kill -9`. `check` asserts, against a fresh server on the same data
//! directory, that the finished result came back byte-identical, the
//! checkpoint registry survived, and every interrupted burn job was
//! re-enqueued and driven to a terminal state. Exits non-zero (with a
//! panic message) on any deviation.

use std::net::SocketAddr;
use std::path::Path;
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

const PLAN: &str = "\
[switches]
s0 A
[plan-links]
camera s0
ecu s0
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

fn checkpoint_bytes() -> Vec<u8> {
    let parsed = parse_problem(DOC).expect("fixture problem parses");
    let planner = Planner::new(parsed.problem.clone(), PlannerConfig::quick());
    params_to_bytes(&planner.build_policy().parameters())
}

fn seed(mut client: Client, state: &Path) {
    let put = client.put("/checkpoints/smoke", &checkpoint_bytes()).expect("PUT checkpoint");
    assert_eq!(put.status, 200, "{}", put.text());
    println!("store_smoke: checkpoint 'smoke' registered (version {})", json_u64(&put.text(), "version"));

    let body = format!("{DOC}{PLAN}");
    let submit = client.post("/jobs/verify", body.as_bytes()).expect("POST verify");
    assert_eq!(submit.status, 202, "{}", submit.text());
    let verify_id = json_u64(&submit.text(), "id");
    let status = poll_terminal(&mut client, verify_id);
    assert!(status.contains("\"state\":\"done\""), "{status}");
    let result = client.get(&format!("/jobs/{verify_id}/result")).expect("GET result");
    assert_eq!(result.status, 200);
    std::fs::write(state.join("verify.id"), verify_id.to_string()).expect("save id");
    std::fs::write(state.join("verify.result"), &result.body).expect("save result");
    println!("store_smoke: verify job {verify_id} done ({} result bytes saved)", result.body.len());

    // Load the queue so the kill lands mid-work: one long burn runs while
    // the rest wait. None of these will finish before the kill.
    let mut burn_ids = Vec::new();
    for millis in [5_000, 1, 1, 1] {
        let burn = client.post(&format!("/jobs/burn?millis={millis}"), &[]).expect("POST burn");
        assert_eq!(burn.status, 202, "{}", burn.text());
        burn_ids.push(json_u64(&burn.text(), "id").to_string());
    }
    std::fs::write(state.join("burn.ids"), burn_ids.join("\n")).expect("save burn ids");
    println!("store_smoke: {} burn jobs in flight — ready for kill -9", burn_ids.len());
}

fn check(mut client: Client, state: &Path) {
    let verify_id: u64 = std::fs::read_to_string(state.join("verify.id"))
        .expect("saved id")
        .trim()
        .parse()
        .expect("saved id parses");
    let saved = std::fs::read(state.join("verify.result")).expect("saved result");

    let status = client.get(&format!("/jobs/{verify_id}")).expect("GET recovered job");
    assert_eq!(status.status, 200, "{}", status.text());
    assert!(status.text().contains("\"state\":\"done\""), "{}", status.text());
    let result = client.get(&format!("/jobs/{verify_id}/result")).expect("GET recovered result");
    assert_eq!(result.status, 200);
    assert_eq!(result.body, saved, "recovered result is not byte-identical");
    println!("store_smoke: verify job {verify_id} recovered, result byte-identical");

    let ckpt = client.get("/checkpoints/smoke").expect("GET checkpoint");
    assert_eq!(ckpt.status, 200);
    assert_eq!(ckpt.body, checkpoint_bytes(), "checkpoint bytes changed across restart");
    println!("store_smoke: checkpoint registry survived the restart");

    for line in std::fs::read_to_string(state.join("burn.ids")).expect("saved burn ids").lines() {
        let id: u64 = line.trim().parse().expect("burn id parses");
        let body = poll_terminal(&mut client, id);
        assert!(
            body.contains("\"state\":\"done\"") || body.contains("\"state\":\"failed\""),
            "re-enqueued job {id} ended badly: {body}"
        );
    }
    println!("store_smoke: every interrupted burn job was re-enqueued and finished");

    let shutdown = client.post("/shutdown", &[]).expect("POST /shutdown");
    assert_eq!(shutdown.status, 200, "{}", shutdown.text());
    println!("store_smoke: shutdown requested (200); all checks passed");
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let usage = "usage: store_smoke <seed|check> <host:port> <state-dir>";
    let mode = argv.next().expect(usage);
    let addr: SocketAddr =
        argv.next().expect(usage).parse().expect("argument is not a host:port address");
    let state = std::path::PathBuf::from(argv.next().expect(usage));
    let client = Client::new(addr);
    match mode.as_str() {
        "seed" => seed(client, &state),
        "check" => check(client, &state),
        other => panic!("unknown mode {other:?} — {usage}"),
    }
}
