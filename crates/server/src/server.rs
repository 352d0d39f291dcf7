//! The service: acceptor, bounded queue, worker pool, routes.
//!
//! ```text
//!            ┌──────────┐   bounded    ┌──────────┐
//!  accept ──▶│ acceptor │──▶ queue ───▶│ worker 0 │──▶ Engine ──▶ response
//!            │  thread  │   (429 when  │    …     │      │
//!            └──────────┘    full)     │ worker N │   ResultCache
//!                                      └──────────┘
//! ```
//!
//! One connection carries one request (`Connection: close`), so the queue
//! depth *is* the number of admitted-but-unserved requests and the
//! backpressure policy is exact: when `queued ≥ queue_depth`, the acceptor
//! answers `429` with a `Retry-After` hint instead of letting latency grow
//! without bound. Graceful drain (the `POST /shutdown` endpoint or
//! [`ServerHandle::shutdown`]) stops admissions, serves everything already
//! queued or in flight, then flushes the metrics summary.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use polyinv_api::{
    ApiError, Engine, Json, Mode, RequestFingerprint, ResultCache, SynthesisReport,
    SynthesisRequest,
};

use crate::http::{read_request, HttpError, HttpRequest, HttpResponse};
use crate::metrics::{Metrics, MetricsSnapshot};

/// Everything tunable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The address to bind (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads (0: one per available core).
    pub workers: usize,
    /// Admitted-but-unserved request cap; beyond it connections get `429`.
    pub queue_depth: usize,
    /// Result-cache capacity (distinct request fingerprints).
    pub cache_capacity: usize,
    /// `Content-Length` cap; larger uploads get `413`.
    pub max_body_bytes: usize,
    /// Socket read timeout (stalled clients get `408`).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8924".to_string(),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 256,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    /// The worker count after resolving the `0 = auto` default.
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// State shared by the acceptor, the workers and shutdown handles.
struct Shared {
    engine: Engine,
    cache: Mutex<ResultCache>,
    metrics: Metrics,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutting_down: AtomicBool,
    config: ServerConfig,
    started: Instant,
    addr: SocketAddr,
}

/// A cloneable handle that can drain the server from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begins the graceful drain: stop admitting, finish queued and
    /// in-flight requests, flush metrics. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of its blocking accept with a no-op
        // connection; wake idle workers so they can observe the flag.
        let _ = TcpStream::connect(self.shared.addr);
        self.shared.available.notify_all();
    }

    /// A live snapshot of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        let cache = self.shared.cache.lock().expect("cache lock").stats();
        self.shared.metrics.snapshot(cache, self.shared.started)
    }
}

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the configured address and prepares the shared state. The
    /// listener is live after this returns (connections queue in the kernel
    /// backlog) but nothing is served until [`Server::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: Engine::new(),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            metrics: Metrics::default(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            config,
            started: Instant::now(),
            addr,
        });
        Ok(Server { listener, shared })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for shutting the server down from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until a drain is requested, then finishes queued and
    /// in-flight work, joins the workers and returns the final counters.
    pub fn run(self) -> MetricsSnapshot {
        let workers: Vec<_> = (0..self.shared.config.resolved_workers())
            .map(|index| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("polyinv-worker-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        for stream in self.listener.incoming() {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                // The wake-up connection (or a late arrival): drop it and
                // stop admitting.
                break;
            }
            let Ok(stream) = stream else { continue };
            let config = &self.shared.config;
            let _ = stream.set_read_timeout(Some(config.read_timeout));
            let _ = stream.set_write_timeout(Some(config.write_timeout));
            let mut queue = self.shared.queue.lock().expect("queue lock");
            if queue.len() >= config.queue_depth {
                drop(queue);
                self.reject(stream);
                continue;
            }
            queue.push_back(stream);
            Metrics::incr(&self.shared.metrics.queued);
            drop(queue);
            self.shared.available.notify_one();
        }

        // Drain: the queue is served FIFO by the workers, which exit once
        // it is empty and the flag is up.
        drop(self.listener);
        self.shared.available.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        let cache = self.shared.cache.lock().expect("cache lock").stats();
        self.shared.metrics.snapshot(cache, self.shared.started)
    }

    /// Answers `429 Too Many Requests` inline from the acceptor: the wire
    /// cost is one small write, so saturation degrades to fast rejection
    /// instead of a hang or an unbounded queue.
    fn reject(&self, mut stream: TcpStream) {
        Metrics::incr(&self.shared.metrics.rejected);
        self.shared.metrics.count_response(429);
        let body = Json::object(vec![
            ("error", Json::string("saturated")),
            (
                "message",
                Json::string(format!(
                    "request queue is full ({} pending); retry shortly",
                    self.shared.config.queue_depth
                )),
            ),
        ]);
        let _ = HttpResponse::json(429, &body)
            .with_header("retry-after", "1")
            .write(&mut stream);
    }
}

/// One worker: pop a connection, serve its request, close, repeat. Exits
/// when the drain flag is up and the queue is empty.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(stream) = queue.pop_front() {
                    Metrics::decr(&shared.metrics.queued);
                    break Some(stream);
                }
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared.available.wait(queue).expect("queue lock");
            }
        };
        let Some(mut stream) = stream else { return };
        Metrics::incr(&shared.metrics.in_flight);
        serve_connection(shared, &mut stream);
        Metrics::decr(&shared.metrics.in_flight);
    }
}

/// Reads one request off the connection and answers it.
fn serve_connection(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let request = match read_request(stream, shared.config.max_body_bytes) {
        Ok(request) => request,
        Err(error) => {
            answer_wire_error(shared, stream, &error);
            return;
        }
    };
    Metrics::incr(&shared.metrics.requests_total);
    let response = route(shared, &request);
    shared.metrics.count_response(response.status);
    let _ = response.write(stream);
}

/// Maps a wire-level failure to its response (or silently drops the
/// connection when nobody is listening anymore).
fn answer_wire_error(shared: &Shared, stream: &mut TcpStream, error: &HttpError) {
    match error.status() {
        Some(status) => {
            shared.metrics.count_response(status);
            let body = Json::object(vec![
                ("error", Json::string("http")),
                ("message", Json::string(error.reason())),
            ]);
            let _ = HttpResponse::json(status, &body).write(stream);
        }
        None => Metrics::incr(&shared.metrics.dropped),
    }
}

/// Routes one parsed request to its endpoint.
fn route(shared: &Arc<Shared>, request: &HttpRequest) -> HttpResponse {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => {
            Metrics::incr(&shared.metrics.healthz_requests);
            HttpResponse::json(
                200,
                &Json::object(vec![
                    ("status", Json::string("ok")),
                    (
                        "uptime_seconds",
                        Json::Number(shared.started.elapsed().as_secs_f64()),
                    ),
                    ("backend", Json::string(shared.engine.backend_name())),
                ]),
            )
        }
        ("GET", "/metrics") => {
            Metrics::incr(&shared.metrics.metrics_requests);
            let cache = shared.cache.lock().expect("cache lock").stats();
            let snapshot = shared.metrics.snapshot(cache, shared.started);
            HttpResponse::json(200, &snapshot.to_json())
        }
        ("POST", "/v1/synth") => timed(
            &shared.metrics.synth_requests,
            &shared.metrics.synth_latency_micros,
            || handle_single(shared, request, Mode::Weak),
        ),
        ("POST", "/v1/check") => timed(
            &shared.metrics.check_requests,
            &shared.metrics.check_latency_micros,
            || handle_single(shared, request, Mode::Check),
        ),
        ("POST", "/v1/batch") => timed(
            &shared.metrics.batch_requests,
            &shared.metrics.batch_latency_micros,
            || handle_batch(shared, request),
        ),
        ("POST", "/shutdown") => {
            // Raise the drain flag: the handle's wake-up connection
            // unblocks the acceptor, and the workers finish everything
            // already admitted (this response included — it is written by
            // the caller after `route` returns).
            ServerHandle {
                shared: Arc::clone(shared),
            }
            .shutdown();
            HttpResponse::json(
                200,
                &Json::object(vec![("status", Json::string("draining"))]),
            )
        }
        (_, "/healthz") | (_, "/metrics") => method_not_allowed("GET"),
        (_, "/v1/synth") | (_, "/v1/check") | (_, "/v1/batch") | (_, "/shutdown") => {
            method_not_allowed("POST")
        }
        _ => HttpResponse::json(
            404,
            &Json::object(vec![
                ("error", Json::string("not-found")),
                (
                    "message",
                    Json::string(format!("no such endpoint `{path}`")),
                ),
            ]),
        ),
    }
}

fn method_not_allowed(allow: &str) -> HttpResponse {
    HttpResponse::json(
        405,
        &Json::object(vec![
            ("error", Json::string("method-not-allowed")),
            ("message", Json::string(format!("use {allow}"))),
        ]),
    )
    .with_header("allow", allow)
}

/// Wraps a handler with its endpoint counter and latency tally.
fn timed(
    counter: &std::sync::atomic::AtomicU64,
    latency: &std::sync::atomic::AtomicU64,
    handler: impl FnOnce() -> HttpResponse,
) -> HttpResponse {
    Metrics::incr(counter);
    let start = Instant::now();
    let response = handler();
    Metrics::add(latency, start.elapsed().as_micros() as u64);
    response
}

/// `POST /v1/synth` and `POST /v1/check`: one request, served through the
/// result cache. The body is a `SynthesisRequest` JSON object; a missing
/// `mode` field defaults to the endpoint's mode.
fn handle_single(shared: &Shared, request: &HttpRequest, default_mode: Mode) -> HttpResponse {
    let body = match request.body_utf8() {
        Ok(body) => body,
        Err(error) => return bad_request(&error.reason()),
    };
    let json = match Json::parse(body) {
        Ok(json) => json,
        Err(error) => return api_error_response(&ApiError::from(error)),
    };
    let synthesis = match request_from_json(json, default_mode) {
        Ok(request) => request,
        Err(error) => return api_error_response(&error),
    };
    let (outcome, cached) = serve_cached(shared, &synthesis);
    match outcome {
        Ok(report) => HttpResponse::json(200, &report.to_json())
            .with_header("x-polyinv-cache", if cached { "hit" } else { "miss" }),
        Err(error) => api_error_response(&error),
    }
}

/// `POST /v1/batch`: a JSON array of requests (or `{"requests": [...]}`),
/// answered as an array of `{"ok": report, "cached": bool}` /
/// `{"err": error}` wrappers in request order. Cache misses fan out over
/// [`Engine::run_batch`].
fn handle_batch(shared: &Shared, request: &HttpRequest) -> HttpResponse {
    let body = match request.body_utf8() {
        Ok(body) => body,
        Err(error) => return bad_request(&error.reason()),
    };
    let doc = match Json::parse(body) {
        Ok(json) => json,
        Err(error) => return api_error_response(&ApiError::from(error)),
    };
    let items = match doc
        .as_array()
        .or_else(|| doc.get("requests").and_then(Json::as_array))
    {
        Some(items) => items,
        None => {
            return bad_request(
                "batch body must be a JSON array of requests (or {\"requests\": [...]})",
            )
        }
    };
    let requests: Vec<Result<SynthesisRequest, ApiError>> =
        items.iter().map(SynthesisRequest::from_json).collect();
    Metrics::add(&shared.metrics.batch_items, requests.len() as u64);

    // First pass: answer well-formed items from the cache.
    let mut entries: Vec<Option<(Json, bool)>> = Vec::with_capacity(requests.len());
    let mut misses: Vec<usize> = Vec::new();
    let mut fingerprints: Vec<Option<RequestFingerprint>> = Vec::with_capacity(requests.len());
    {
        let mut cache = shared.cache.lock().expect("cache lock");
        for (index, request) in requests.iter().enumerate() {
            match request {
                Ok(request) => {
                    let fingerprint = RequestFingerprint::of(request);
                    match cache.get(&fingerprint) {
                        Some(report) => {
                            entries.push(Some(batch_ok(report, true)));
                        }
                        None => {
                            entries.push(None);
                            misses.push(index);
                        }
                    }
                    fingerprints.push(Some(fingerprint));
                }
                Err(error) => {
                    entries.push(Some((Json::object(vec![("err", error.to_json())]), false)));
                    fingerprints.push(None);
                }
            }
        }
    }

    // Second pass: run the misses in parallel, then fill the cache.
    let miss_requests: Vec<SynthesisRequest> = misses
        .iter()
        .map(|&index| {
            requests[index]
                .as_ref()
                .expect("miss is well-formed")
                .clone()
        })
        .collect();
    let outcomes = shared.engine.run_batch(&miss_requests);
    {
        let mut cache = shared.cache.lock().expect("cache lock");
        for (&index, outcome) in misses.iter().zip(outcomes) {
            let entry = match outcome {
                Ok(report) => {
                    if let Some(fingerprint) = &fingerprints[index] {
                        cache.insert(fingerprint, report.clone());
                    }
                    batch_ok(report, false)
                }
                Err(error) => (Json::object(vec![("err", error.to_json())]), false),
            };
            entries[index] = Some(entry);
        }
    }

    let hits = entries
        .iter()
        .filter(|entry| matches!(entry, Some((_, true))))
        .count();
    let body = Json::Array(
        entries
            .into_iter()
            .map(|entry| entry.expect("every item answered").0)
            .collect(),
    );
    HttpResponse::json(200, &body).with_header(
        "x-polyinv-cache",
        format!("hits={hits};misses={}", requests.len() - hits),
    )
}

fn batch_ok(report: SynthesisReport, cached: bool) -> (Json, bool) {
    (
        Json::object(vec![
            ("ok", report.to_json()),
            ("cached", Json::Bool(cached)),
        ]),
        cached,
    )
}

/// Serves one request through the result cache: hit → stored report;
/// miss → Engine run, successful reports cached.
fn serve_cached(
    shared: &Shared,
    request: &SynthesisRequest,
) -> (Result<SynthesisReport, ApiError>, bool) {
    let fingerprint = RequestFingerprint::of(request);
    if let Some(report) = shared.cache.lock().expect("cache lock").get(&fingerprint) {
        return (Ok(report), true);
    }
    let outcome = shared.engine.run(request);
    if let Ok(report) = &outcome {
        shared
            .cache
            .lock()
            .expect("cache lock")
            .insert(&fingerprint, report.clone());
    }
    (outcome, false)
}

/// Builds a request from its JSON form, defaulting a missing `mode` field
/// to the endpoint's mode.
fn request_from_json(mut json: Json, default_mode: Mode) -> Result<SynthesisRequest, ApiError> {
    if json.get("mode").is_none() {
        if let Json::Object(fields) = &mut json {
            fields.push(("mode".to_string(), Json::string(default_mode.as_str())));
        }
    }
    SynthesisRequest::from_json(&json)
}

fn bad_request(message: &str) -> HttpResponse {
    HttpResponse::json(
        400,
        &Json::object(vec![
            ("error", Json::string("invalid-request")),
            ("message", Json::string(message)),
        ]),
    )
}

/// The structured 4xx/5xx body of an [`ApiError`], with the error's spans
/// travelling verbatim in the existing JSON form.
fn api_error_response(error: &ApiError) -> HttpResponse {
    HttpResponse::json(http_status(error), &error.to_json())
}

/// The HTTP status an [`ApiError`] maps to: wire/shape problems are `400`,
/// semantically invalid programs and assertions are `422`, local IO is
/// `500`.
fn http_status(error: &ApiError) -> u16 {
    match error {
        ApiError::Json { .. }
        | ApiError::InvalidRequest { .. }
        | ApiError::UnknownBackend { .. } => 400,
        ApiError::Parse { .. }
        | ApiError::Assertion { .. }
        | ApiError::UnknownLabel { .. }
        | ApiError::RecursionRequired { .. } => 422,
        ApiError::Io { .. } => 500,
    }
}
