//! Router chaos: a faulted shard scrape degrades the federation, never
//! the exposition, and faulted accepts and response writes on the
//! router's own connection loop are ridden out by client retries.
//! Separate test binary: an armed [`nptsn_chaos::FaultPlan`] is
//! process-global, and cargo runs test binaries sequentially, so the plan
//! cannot leak into the clean failover and trace tests. Within this
//! binary each test holds [`nptsn_chaos::exclusive`] for its whole body,
//! clean phases included.

use nptsn_chaos::{exclusive, FaultKind, FaultPlan, SiteRule};
use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::client::{BackoffConfig, Client};
use nptsn_serve::{ServeConfig, Server};

fn shard(name: &str) -> Server {
    Server::bind(ServeConfig {
        workers: 1,
        shard_name: Some(name.to_string()),
        ..ServeConfig::default()
    })
    .expect("bind shard")
}

#[test]
fn a_faulted_scrape_degrades_the_federation_never_the_exposition() {
    let chaos = exclusive();
    let a = shard("s0");
    let b = shard("s1");
    let router = Router::bind(RouterConfig {
        shards: vec![
            ShardSpec { name: "s0".to_string(), addr: a.local_addr(), data_dir: None },
            ShardSpec { name: "s1".to_string(), addr: b.local_addr(), data_dir: None },
        ],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut client = Client::new(router.local_addr());

    {
        let _armed = chaos.arm(FaultPlan::new(5).with_rule(SiteRule {
            site: "router.scrape".to_string(),
            kind: FaultKind::Error,
            every: 0,
            rate: 1.0,
            max_count: 0,
        }));
        // Every scrape faults: the exposition still renders — router-local
        // series only, no shard rows — and the misses are counted.
        let degraded = client.get("/metrics").unwrap();
        assert_eq!(degraded.status, 200, "{}", degraded.text());
        let text = degraded.text();
        assert!(!text.contains("shard=\"s0\""), "{text}");
        assert!(!text.contains("shard=\"s1\""), "{text}");
        let errors = text
            .lines()
            .find_map(|line| line.strip_prefix("nptsn_router_scrape_errors_total "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .expect("scrape error counter in the exposition");
        assert!(errors >= 2.0, "both shard scrapes should have faulted: {text}");
        let counts = nptsn_chaos::injection_counts();
        assert!(
            counts.iter().any(|(site, n)| site == "router.scrape" && *n >= 2),
            "no router.scrape injection recorded: {counts:?}"
        );
    }

    // Disarmed, the very next scrape federates both shards again.
    let healed = client.get("/metrics").unwrap();
    assert_eq!(healed.status, 200, "{}", healed.text());
    let text = healed.text();
    assert!(text.contains("shard=\"s0\""), "{text}");
    assert!(text.contains("shard=\"s1\""), "{text}");

    router.stop();
    a.stop();
    a.wait();
    b.stop();
    b.wait();
}

fn every(site: &str, n: u64) -> SiteRule {
    SiteRule { site: site.to_string(), kind: FaultKind::Error, every: n, rate: 1.0, max_count: 0 }
}

/// The router's connection loop carries the same `router.accept` and
/// `router.conn.write` sites as a shard's: a dropped connection or an
/// unsent answer is a transport failure the retrying client rides out.
/// The router's `/metrics` also carries the request-duration histogram
/// the shared loop records.
#[test]
fn faulted_router_accepts_and_writes_are_ridden_out_by_retries() {
    let chaos = exclusive();
    let a = shard("s0");
    let router = Router::bind(RouterConfig {
        shards: vec![ShardSpec { name: "s0".to_string(), addr: a.local_addr(), data_dir: None }],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut client = Client::new(router.local_addr()).with_backoff(BackoffConfig {
        max_retries: 20,
        base_ms: 2,
        cap_ms: 20,
        seed: 9,
        ..BackoffConfig::default()
    });

    {
        // Every third accept and every third response write fault; the
        // write faults force reconnects, so the accept site fires too.
        let _armed = chaos.arm(
            FaultPlan::new(11)
                .with_rule(every("router.accept", 3))
                .with_rule(every("router.conn.write", 3)),
        );
        for _ in 0..12 {
            let health = client.get("/healthz").expect("retries ride out the faults");
            assert_eq!(health.status, 200, "{}", health.text());
        }
        let counts = nptsn_chaos::injection_counts();
        for site in ["router.accept", "router.conn.write"] {
            assert!(
                counts.iter().any(|(s, n)| s == site && *n > 0),
                "no {site} injection recorded: {counts:?}"
            );
        }
    }

    let text = client.get("/metrics").unwrap().text();
    assert!(text.contains("# TYPE nptsn_router_http_request_seconds histogram"), "{text}");
    assert!(text.contains("nptsn_router_http_request_seconds_count "), "{text}");
    assert!(text.contains("nptsn_router_http_responses_total{code=\"200\"}"), "{text}");

    router.stop();
    router.wait();
    a.stop();
    a.wait();
}
