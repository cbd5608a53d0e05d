//! The connection-loop contract, checked once for both servers that run
//! `nptsn_serve::http::serve_connections`: a shard and the router answer
//! the same malformed, oversized, stalled and closing requests the same
//! way, and both flush the `/shutdown` answer before the listener closes.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use nptsn_router::{Router, RouterConfig, ShardSpec};
use nptsn_serve::{ServeConfig, Server};

const MAX_BODY: usize = 1024;
const IO_TIMEOUT_MS: u64 = 200;
const HEADER_DEADLINE_MS: u64 = 400;

/// One exchange on a fresh connection: the bytes sent, the status line
/// expected back, and a header the answer must carry.
struct Case {
    what: &'static str,
    request: &'static str,
    status: &'static str,
    header: &'static str,
}

const CASES: &[Case] = &[
    Case {
        what: "an oversized body is refused before it is read",
        request: "POST /jobs/burn HTTP/1.1\r\nContent-Length: 4096\r\n\r\n",
        status: "HTTP/1.1 413 ",
        header: "Connection: close",
    },
    Case {
        what: "a stalled partial head times out",
        request: "GET /healthz HT",
        status: "HTTP/1.1 408 ",
        header: "Connection: close",
    },
    Case {
        what: "a malformed request line is a bad request",
        request: "GARBAGE\r\n\r\n",
        status: "HTTP/1.1 400 ",
        header: "Connection: close",
    },
    Case {
        what: "Connection: close is honoured",
        request: "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        status: "HTTP/1.1 200 ",
        header: "Connection: close",
    },
];

/// Sends `request` on a fresh connection and reads until the server
/// closes it. A read that times out instead means the server kept the
/// connection open, which every case here forbids.
fn exchange(addr: SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut answer = String::new();
    stream
        .read_to_string(&mut answer)
        .unwrap_or_else(|e| panic!("the server kept the connection open ({e}): {answer}"));
    answer
}

fn check_contract(server: &str, addr: SocketAddr) {
    for case in CASES {
        let answer = exchange(addr, case.request);
        assert!(answer.starts_with(case.status), "{server}: {}: {answer}", case.what);
        assert!(answer.contains(case.header), "{server}: {}: {answer}", case.what);
    }
}

/// `POST /shutdown` answers `200` in full, and only then does the
/// listener go away.
fn check_shutdown(server: &str, addr: SocketAddr, wait: impl FnOnce()) {
    let answer = exchange(addr, "POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
    assert!(answer.starts_with("HTTP/1.1 200 "), "{server}: {answer}");
    assert!(answer.ends_with("{\"status\":\"shutting down\"}"), "{server}: {answer}");
    wait();
    assert!(TcpStream::connect(addr).is_err(), "{server}: the listener outlived wait()");
}

#[test]
fn shard_and_router_keep_one_connection_contract() {
    let shard = Server::bind(ServeConfig {
        workers: 1,
        shard_name: Some("s0".to_string()),
        max_body_bytes: MAX_BODY,
        io_timeout_ms: IO_TIMEOUT_MS,
        header_deadline_ms: HEADER_DEADLINE_MS,
        ..ServeConfig::default()
    })
    .expect("bind shard");
    let router = Router::bind(RouterConfig {
        shards: vec![ShardSpec {
            name: "s0".to_string(),
            addr: shard.local_addr(),
            data_dir: None,
        }],
        max_body_bytes: MAX_BODY,
        io_timeout_ms: IO_TIMEOUT_MS,
        header_deadline_ms: HEADER_DEADLINE_MS,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let (shard_addr, router_addr) = (shard.local_addr(), router.local_addr());

    check_contract("shard", shard_addr);
    check_contract("router", router_addr);

    check_shutdown("router", router_addr, || router.wait());
    check_shutdown("shard", shard_addr, || shard.wait());
}
