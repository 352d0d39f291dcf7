//! End-to-end tests over real sockets: each test binds an ephemeral port,
//! runs the server on a background thread and drives it with the crate's
//! own blocking client.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use polyinv_api::{Json, SynthesisReport, SynthesisRequest};
use polyinv_server::{
    http_request, ClientResponse, MetricsSnapshot, Server, ServerConfig, ServerHandle,
};

const TIMEOUT: Duration = Duration::from_secs(30);

/// A simple non-recursive program every test can synthesize quickly.
const TICK: &str = r#"
    tick(x) {
        @pre(x >= 0);
        while x <= 2 do
            x := x + 1
        od;
        return x
    }
"#;

struct TestServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<MetricsSnapshot>,
}

impl TestServer {
    fn start(mut config: ServerConfig) -> TestServer {
        config.addr = "127.0.0.1:0".to_string();
        let server = Server::bind(config).expect("bind ephemeral port");
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            handle,
            thread,
        }
    }

    fn request(&self, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
        http_request(self.addr, method, path, body, TIMEOUT).expect("request")
    }

    fn stop(self) -> MetricsSnapshot {
        self.handle.shutdown();
        self.thread.join().expect("server thread")
    }
}

fn generate_only_body(source: &str) -> String {
    SynthesisRequest::generate_only(source)
        .with_id("test")
        .to_json()
        .to_string()
}

#[test]
fn healthz_reports_ok_and_metrics_are_flat_json() {
    let server = TestServer::start(ServerConfig::default());
    let health = server.request("GET", "/healthz", None);
    assert_eq!(health.status, 200);
    let health_json = Json::parse(&health.body).expect("healthz JSON");
    assert_eq!(health_json.get("status").and_then(Json::as_str), Some("ok"));

    let metrics = server.request("GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    let metrics_json = Json::parse(&metrics.body).expect("metrics JSON");
    for (name, value) in metrics_json.as_object().expect("object") {
        assert!(value.as_f64().is_some(), "metric `{name}` is not flat");
    }
    assert!(metrics_json.get("requests_total").is_some());

    let summary = server.stop();
    assert_eq!(summary.healthz_requests, 1);
    assert_eq!(summary.metrics_requests, 1);
}

#[test]
fn synth_round_trips_canonical_report_json_and_caches_repeats() {
    let server = TestServer::start(ServerConfig::default());
    let body = generate_only_body(TICK);

    let first = server.request("POST", "/v1/synth", Some(&body));
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-polyinv-cache"), Some("miss"));
    let trimmed = first.body.trim_end_matches('\n');
    let report = SynthesisReport::from_json_str(trimmed).expect("canonical report");
    assert_eq!(report.to_json_string(), trimmed, "body is canonical JSON");
    assert_eq!(report.id, "test");

    // Identical request → served from the result cache, byte-identical body.
    let second = server.request("POST", "/v1/synth", Some(&body));
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-polyinv-cache"), Some("hit"));
    assert_eq!(second.body, first.body);

    // A different id is still the same computation → still a hit.
    let other_id = SynthesisRequest::generate_only(TICK)
        .with_id("other")
        .to_json()
        .to_string();
    let third = server.request("POST", "/v1/synth", Some(&other_id));
    assert_eq!(third.header("x-polyinv-cache"), Some("hit"));

    let summary = server.stop();
    assert_eq!(summary.synth_requests, 3);
    assert_eq!(summary.cache_hits, 2);
    assert_eq!(summary.cache_misses, 1);
    assert_eq!(summary.cache_entries, 1);
}

#[test]
fn check_endpoint_defaults_to_check_mode() {
    let server = TestServer::start(ServerConfig::default());
    // No "mode" in the body: /v1/check must default it to `check`.
    let body = format!(
        "{{\"source\": {}, \"assertions\": [{{\"label\": null, \"function\": null, \"text\": \"1 > 0\"}}]}}",
        Json::string(TICK)
    );
    let response = server.request("POST", "/v1/check", Some(&body));
    assert_eq!(response.status, 200, "{}", response.body);
    let report = Json::parse(&response.body).expect("report JSON");
    assert_eq!(report.get("mode").and_then(Json::as_str), Some("check"));
    server.stop();
}

#[test]
fn malformed_json_is_a_structured_400() {
    let server = TestServer::start(ServerConfig::default());
    let response = server.request("POST", "/v1/synth", Some("{not json"));
    assert_eq!(response.status, 400);
    let error = Json::parse(&response.body).expect("error JSON");
    assert_eq!(error.get("error").and_then(Json::as_str), Some("json"));
    assert!(error.get("message").is_some());

    // Valid JSON, invalid program → 422 with the parse error's span info.
    let bad_program = generate_only_body("f(x) { x := ; return x }");
    let response = server.request("POST", "/v1/synth", Some(&bad_program));
    assert_eq!(response.status, 422, "{}", response.body);
    let error = Json::parse(&response.body).expect("error JSON");
    assert_eq!(error.get("error").and_then(Json::as_str), Some("parse"));

    // The penalty lane is LM's fallback, not a back-end a request picks.
    for name in ["penalty", "alm"] {
        let body = SynthesisRequest::generate_only(TICK)
            .with_backend(name)
            .to_json()
            .to_string();
        let response = server.request("POST", "/v1/synth", Some(&body));
        assert_eq!(response.status, 400, "{}", response.body);
        let error = Json::parse(&response.body).expect("error JSON");
        let kind = error.get("error").and_then(Json::as_str);
        assert_eq!(kind, Some("unknown-backend"));
    }
    server.stop();
}

#[test]
fn oversized_bodies_are_rejected_before_reading() {
    let server = TestServer::start(ServerConfig {
        max_body_bytes: 64,
        ..ServerConfig::default()
    });
    let huge = generate_only_body(TICK); // > 64 bytes
    assert!(huge.len() > 64);
    let response = server.request("POST", "/v1/synth", Some(&huge));
    assert_eq!(response.status, 413);
    let error = Json::parse(&response.body).expect("error JSON");
    assert!(error
        .get("message")
        .and_then(Json::as_str)
        .unwrap()
        .contains("64-byte limit"));
    server.stop();
}

#[test]
fn unknown_paths_and_wrong_methods_are_answered() {
    let server = TestServer::start(ServerConfig::default());
    assert_eq!(server.request("GET", "/nope", None).status, 404);
    let wrong = server.request("GET", "/v1/synth", None);
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("allow"), Some("POST"));
    assert_eq!(server.request("POST", "/healthz", None).status, 405);
    server.stop();
}

#[test]
fn batch_answers_in_order_and_marks_cached_items() {
    let server = TestServer::start(ServerConfig::default());
    let double = r#"
        double(n) {
            @pre(n >= 0);
            x := 0;
            i := 0;
            while i < n do
                x := x + 2;
                i := i + 1
            od;
            return x
        }
    "#;
    let items = format!(
        "[{}, {}, {}]",
        generate_only_body(TICK),
        generate_only_body(double),
        generate_only_body(TICK) // duplicate of item 0 → cached by the batch
    );
    let response = server.request("POST", "/v1/batch", Some(&items));
    assert_eq!(response.status, 200, "{}", response.body);
    let entries = Json::parse(&response.body).expect("batch JSON");
    let entries = entries.as_array().expect("array");
    assert_eq!(entries.len(), 3);
    for entry in entries {
        assert!(entry.get("ok").is_some(), "{entry:?}");
    }
    // Items 0 and 2 are identical; with both missing the cache up front
    // they are both computed, but a *repeat* of the batch is all-cached.
    let again = server.request("POST", "/v1/batch", Some(&items));
    let entries = Json::parse(&again.body).expect("batch JSON");
    for entry in entries.as_array().expect("array") {
        assert_eq!(entry.get("cached").and_then(Json::as_bool), Some(true));
    }
    assert_eq!(again.header("x-polyinv-cache"), Some("hits=3;misses=0"));

    // A batch mixing a well-formed and a malformed item answers both.
    let mixed = format!("{{\"requests\": [{}, {{}}]}}", generate_only_body(TICK));
    let mixed = server.request("POST", "/v1/batch", Some(&mixed));
    let entries = Json::parse(&mixed.body).expect("batch JSON");
    let entries = entries.as_array().expect("array");
    assert!(entries[0].get("ok").is_some());
    assert!(entries[1].get("err").is_some());
    server.stop();
}

#[test]
fn saturation_answers_429_with_retry_after_instead_of_hanging() {
    let server = TestServer::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    });

    // Occupy the single worker: connect and send half a request, so the
    // worker blocks in read_request until we finish or close.
    let mut busy = TcpStream::connect(server.addr).expect("connect");
    busy.write_all(b"POST /v1/synth HTTP/1.1\r\n")
        .expect("write");
    busy.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(300));

    // Fill the one queue slot with an idle connection.
    let queued = TcpStream::connect(server.addr).expect("connect");
    std::thread::sleep(Duration::from_millis(300));

    // The next connection must be rejected by the acceptor, fast.
    let started = Instant::now();
    let mut rejected = TcpStream::connect(server.addr).expect("connect");
    rejected
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut raw = Vec::new();
    rejected.read_to_end(&mut raw).expect("read 429");
    let response = polyinv_server::client::parse_response(&raw).expect("parse 429");
    assert_eq!(response.status, 429);
    assert_eq!(response.header("retry-after"), Some("1"));
    let error = Json::parse(&response.body).expect("429 body");
    assert_eq!(error.get("error").and_then(Json::as_str), Some("saturated"));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "rejection must be immediate, not queued behind the busy worker"
    );

    // Free the worker and the queue slot.
    drop(busy);
    drop(queued);
    let summary = server.stop();
    assert_eq!(summary.rejected, 1);
}

#[test]
fn shutdown_drains_queued_requests_before_exiting() {
    let server = TestServer::start(ServerConfig {
        workers: 1,
        read_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    });
    let addr = server.addr;
    let body = generate_only_body(TICK);

    // Occupy the worker with a half-sent request…
    let mut busy = TcpStream::connect(addr).expect("connect");
    busy.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    let head = format!(
        "POST /v1/synth HTTP/1.1\r\ncontent-length: {}\r\n",
        body.len()
    );
    busy.write_all(head.as_bytes()).expect("write head");
    busy.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(300));

    // …queue a complete request behind it…
    let mut waiting = TcpStream::connect(addr).expect("connect");
    waiting.set_read_timeout(Some(TIMEOUT)).expect("timeout");
    let full = format!(
        "POST /v1/synth HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    waiting.write_all(full.as_bytes()).expect("write full");
    waiting.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(300));

    // …begin the drain while both are outstanding…
    server.handle.shutdown();

    // …then finish the half-sent request. Both must still be served.
    busy.write_all(format!("\r\n{body}").as_bytes())
        .expect("finish request");
    busy.flush().expect("flush");

    let mut raw = Vec::new();
    busy.read_to_end(&mut raw).expect("read busy response");
    assert_eq!(
        polyinv_server::client::parse_response(&raw)
            .expect("busy")
            .status,
        200
    );
    let mut raw = Vec::new();
    waiting.read_to_end(&mut raw).expect("read queued response");
    assert_eq!(
        polyinv_server::client::parse_response(&raw)
            .expect("queued")
            .status,
        200
    );

    let summary = server.thread.join().expect("server thread");
    assert_eq!(summary.requests_total, 2);
    assert_eq!(summary.responses_2xx, 2);

    // The listener is gone: new connections are refused (or at best
    // connect and see the socket close without a response).
    match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
        Err(_) => {}
        Ok(mut stream) => {
            stream
                .set_read_timeout(Some(Duration::from_secs(2)))
                .expect("timeout");
            let mut buffer = Vec::new();
            let outcome = stream.read_to_end(&mut buffer);
            assert!(
                outcome.is_err() || buffer.is_empty(),
                "a drained server must not serve new requests"
            );
        }
    }
}

#[test]
fn shutdown_endpoint_acknowledges_then_drains() {
    let server = TestServer::start(ServerConfig::default());
    let response = server.request("POST", "/shutdown", None);
    assert_eq!(response.status, 200);
    let body = Json::parse(&response.body).expect("JSON");
    assert_eq!(body.get("status").and_then(Json::as_str), Some("draining"));
    let summary = server.thread.join().expect("server thread");
    assert_eq!(summary.requests_total, 1);
}
