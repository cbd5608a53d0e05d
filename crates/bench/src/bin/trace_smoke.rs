//! Observability smoke client for `scripts/verify.sh`: drives a routed
//! two-shard fleet through one traced job and asserts the fleet
//! observability contract — the merged `GET /jobs/<id>/trace` document
//! parses, names every fleet member, and carries router and shard spans
//! under the single router-minted trace id; `GET /debug/flight` answers
//! with a populated ring; the federated `/metrics` labels shard series.
//! The merged trace is written to a file for the script to grep. Exits
//! non-zero (panic message) on any deviation.
//!
//! ```text
//! trace_smoke <router-host:port> <trace-out-file> [--expect-capacity N]
//! ```

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use nptsn_bench::json_u64;
use nptsn_obs::json::{self, Value};
use nptsn_router::trace_for_job;
use nptsn_serve::client::{BackoffConfig, Client};

fn main() {
    let mut args = std::env::args().skip(1);
    let addr: SocketAddr = args
        .next()
        .expect("usage: trace_smoke <host:port> <trace-out-file> [--expect-capacity N]")
        .parse()
        .expect("argument is not a host:port address");
    let out_path = args.next().expect("trace_smoke needs an output file path");
    let expect_capacity = match args.next().as_deref() {
        Some("--expect-capacity") => Some(
            args.next()
                .expect("--expect-capacity needs a number")
                .parse::<f64>()
                .expect("--expect-capacity is not a number"),
        ),
        Some(other) => panic!("unknown argument {other}"),
        None => None,
    };
    let mut client = Client::new(addr).with_backoff(BackoffConfig {
        max_retries: 40,
        base_ms: 25,
        cap_ms: 400,
        seed: 7,
        deadline_ms: 0,
    });

    let accepted = client.post("/jobs/burn?millis=20", &[]).expect("POST /jobs/burn");
    assert_eq!(accepted.status, 202, "{}", accepted.text());
    let id = json_u64(&accepted.text(), "id");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.get(&format!("/jobs/{id}")).expect("GET /jobs/<id>");
        if status.status == 200 && status.text().contains("\"state\":\"done\"") {
            break;
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {}", status.text());
        std::thread::sleep(Duration::from_millis(25));
    }
    println!("trace_smoke: job {id} done through the router");

    // The shard persists its timeline just after the job goes terminal;
    // poll the merged document until both processes' spans are present.
    let hex = format!("{:032x}", trace_for_job(id).trace_id);
    let deadline = Instant::now() + Duration::from_secs(30);
    let merged = loop {
        let response = client.get(&format!("/jobs/{id}/trace")).expect("GET /jobs/<id>/trace");
        let body = response.text();
        if response.status == 200 && body.contains("job.run") && body.contains("router.forward")
        {
            break body;
        }
        assert!(Instant::now() < deadline, "merged trace never completed: {body}");
        std::thread::sleep(Duration::from_millis(25));
    };
    let doc = json::parse(&merged).expect("merged trace is not valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("merged trace has no traceEvents");
    let process_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
        .collect();
    assert!(process_names.contains(&"router"), "no router process row: {process_names:?}");
    assert!(process_names.len() >= 3, "expected router + 2 shard rows: {process_names:?}");
    let span_traces: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("trace")).and_then(Value::as_str))
        .collect();
    assert!(!span_traces.is_empty(), "merged trace holds no spans");
    assert!(
        span_traces.iter().all(|t| *t == hex),
        "a span strayed from the minted trace id {hex}: {span_traces:?}"
    );
    std::fs::write(&out_path, &merged).expect("write the merged trace");
    println!(
        "trace_smoke: merged trace with {} processes, {} spans under trace {hex}",
        process_names.len(),
        span_traces.len()
    );

    let flight = client.get("/debug/flight").expect("GET /debug/flight");
    assert_eq!(flight.status, 200, "{}", flight.text());
    let doc = json::parse(&flight.text()).expect("flight ring is not valid JSON");
    let capacity = doc.get("capacity").and_then(Value::as_num).expect("flight capacity");
    if let Some(expected) = expect_capacity {
        assert_eq!(capacity, expected, "--flight-capacity was not honored");
    }
    let entries = doc.get("entries").and_then(Value::as_arr).expect("flight entries");
    assert!(!entries.is_empty(), "flight ring recorded nothing");
    println!("trace_smoke: flight ring capacity {capacity}, {} entries", entries.len());

    let metrics = client.get("/metrics").expect("GET /metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(text.contains("shard=\""), "no shard-labeled series in /metrics");
    assert!(text.contains("nptsn_fleet_jobs_total"), "no fleet sum in /metrics");
    println!("trace_smoke: federated /metrics with shard labels and fleet sums");

    let shutdown = client.post("/shutdown", &[]).expect("POST /shutdown");
    assert_eq!(shutdown.status, 200, "{}", shutdown.text());
    println!("trace_smoke: PASS");
}
