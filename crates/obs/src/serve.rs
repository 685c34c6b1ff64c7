//! The observatory's HTTP plane: a std-`TcpListener` HTTP/1.0 server
//! good enough for `curl`, a Prometheus scraper and one browser tab
//! during long campaigns. No dependencies; one accept thread plus one
//! short-lived thread per connection, so a long-lived `/events`
//! subscriber never blocks a `/metrics` scrape.
//!
//! Routes:
//!
//! * `GET /`         — embedded live dashboard (inline JS, no CDN)
//! * `GET /metrics`  — Prometheus text exposition 0.0.4
//! * `GET /json`     — the registry's JSON snapshot
//! * `GET /timeline` — sampled time series ([`Timeline::to_json`])
//! * `GET /events`   — Server-Sent Events from the [`EventBus`]
//! * `GET /trace`    — Chrome trace-event JSON for ui.perfetto.dev
//! * `GET /forensics` — escape-triage report JSON (`--forensics` runs)
//! * anything else   — 404 with a route listing
//!
//! `HEAD` is answered as `GET` with the body left out (its
//! `Content-Length` kept) and, on `/events`, no stream started.
//!
//! An attached [`ApiHandler`] extends the plane with application routes
//! (the campaign job server lives behind one): it sees every request —
//! including `POST`s with a bounded body — before the built-in routes,
//! and returning `None` falls through to them.
//!
//! Hardening: request heads are read into a bounded buffer (8 KiB, 413
//! beyond that), bodies into a separate bounded buffer (256 KiB, 413),
//! connections carry read/write timeouts, and a request line that
//! doesn't parse as `METHOD SP PATH ...` gets a 400 instead of a silent
//! default route.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::events::{sse_frame, EventBus};
use crate::registry::MetricRegistry;
use crate::timeline::Timeline;

/// Maximum bytes of request head the server will buffer.
const MAX_REQUEST_BYTES: usize = 8192;
/// Maximum bytes of request body the server will buffer for an API
/// handler. Large enough for any job spec, small enough that a rogue
/// client cannot balloon the daemon.
pub const MAX_BODY_BYTES: usize = 256 * 1024;
/// Per-connection socket timeout for the request/response exchange.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// How long one `/events` poll waits for fresh events before checking
/// whether a keepalive comment is due.
const SSE_POLL: Duration = Duration::from_secs(1);
/// Default idle interval between `: keepalive` comment frames on
/// `/events` — short enough that proxies and client libraries with
/// typical 30–60 s idle timeouts never cut a quiet stream.
pub const SSE_KEEPALIVE: Duration = Duration::from_secs(15);

/// Handle to a running metrics server.
pub struct MetricServer {
    addr: SocketAddr,
}

impl MetricServer {
    /// The address the server actually bound (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

/// One parsed API request, handed to an [`ApiHandler`].
pub struct ApiRequest {
    /// HTTP method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with the query string stripped.
    pub path: String,
    /// Query string after `?`, empty when absent.
    pub query: String,
    /// Request body (empty for bodyless requests), capped at
    /// [`MAX_BODY_BYTES`].
    pub body: Vec<u8>,
    /// The client's socket address (`ip:port`), empty if unavailable.
    /// The job server's worker registry records this per worker.
    pub peer: String,
}

/// An API handler's response.
pub struct ApiResponse {
    /// Full status line value, e.g. `"200 OK"`.
    pub status: String,
    /// `Content-Type` header value.
    pub ctype: String,
    /// Response body.
    pub body: String,
}

impl ApiResponse {
    /// A `200 OK` JSON response.
    pub fn ok_json(body: impl Into<String>) -> ApiResponse {
        ApiResponse {
            status: "200 OK".into(),
            ctype: "application/json".into(),
            body: body.into(),
        }
    }

    /// A JSON response with an explicit status line (e.g. `"202
    /// Accepted"`, `"409 Conflict"`).
    pub fn json(status: impl Into<String>, body: impl Into<String>) -> ApiResponse {
        ApiResponse {
            status: status.into(),
            ctype: "application/json".into(),
            body: body.into(),
        }
    }

    /// A plain-text error response.
    pub fn error(status: impl Into<String>, message: impl Into<String>) -> ApiResponse {
        ApiResponse {
            status: status.into(),
            ctype: "text/plain; charset=utf-8".into(),
            body: message.into(),
        }
    }
}

/// Application routes plugged into the HTTP plane. The handler sees
/// every request (any method) before the built-in routes; returning
/// `None` falls through to them — so a handler can add `POST /jobs`
/// without shadowing `/metrics`, and an unhandled `POST` still earns the
/// built-in 405.
pub trait ApiHandler: Send + Sync {
    /// Handle `req`, or `None` to defer to the built-in routes.
    fn handle(&self, req: &ApiRequest) -> Option<ApiResponse>;
}

/// Everything the HTTP plane can expose. The registry is mandatory;
/// timeline, event stream, trace rendering and the application API
/// light up their routes when attached. Clonable — all parts are shared
/// handles.
#[derive(Clone)]
pub struct Observatory {
    registry: MetricRegistry,
    timeline: Option<Timeline>,
    events: Option<EventBus>,
    trace: Option<Arc<dyn Fn() -> String + Send + Sync>>,
    forensics: Option<Arc<dyn Fn() -> String + Send + Sync>>,
    api: Option<Arc<dyn ApiHandler>>,
    sse_keepalive: Duration,
}

impl Observatory {
    /// An observatory exposing only `/metrics`, `/json` and the
    /// dashboard.
    pub fn new(registry: MetricRegistry) -> Observatory {
        Observatory {
            registry,
            timeline: None,
            events: None,
            trace: None,
            forensics: None,
            api: None,
            sse_keepalive: SSE_KEEPALIVE,
        }
    }

    /// Attach a sampled time-series store, enabling `/timeline`.
    pub fn with_timeline(mut self, timeline: Timeline) -> Observatory {
        self.timeline = Some(timeline);
        self
    }

    /// Attach a live event bus, enabling `/events`.
    pub fn with_events(mut self, events: EventBus) -> Observatory {
        self.events = Some(events);
        self
    }

    /// Attach a trace renderer, enabling `/trace`. The closure runs per
    /// request, so it always reflects the campaign's current tracer
    /// output.
    pub fn with_trace_provider(
        mut self,
        provider: impl Fn() -> String + Send + Sync + 'static,
    ) -> Observatory {
        self.trace = Some(Arc::new(provider));
        self
    }

    /// Attach a forensics-report renderer, enabling `/forensics`. The
    /// closure runs per request; before the campaign finishes it should
    /// return a `{"pending": true}` placeholder so the dashboard can
    /// poll for the report landing.
    pub fn with_forensics_provider(
        mut self,
        provider: impl Fn() -> String + Send + Sync + 'static,
    ) -> Observatory {
        self.forensics = Some(Arc::new(provider));
        self
    }

    /// Attach an application API handler, consulted for every request
    /// before the built-in routes.
    pub fn with_api(mut self, api: Arc<dyn ApiHandler>) -> Observatory {
        self.api = Some(api);
        self
    }

    /// Override the idle interval between `: keepalive` comments on
    /// `/events` (default [`SSE_KEEPALIVE`]; tests shrink it).
    pub fn with_sse_keepalive(mut self, interval: Duration) -> Observatory {
        self.sse_keepalive = interval.max(Duration::from_millis(1));
        self
    }
}

/// Serve `obs` on `127.0.0.1:port` from a detached daemon accept thread
/// (one handler thread per connection). Pass port 0 to let the OS pick;
/// read it back from [`MetricServer::addr`]. Threads live until process
/// exit — the bins that use this serve for the duration of the run.
pub fn serve_observatory(obs: Observatory, port: u16) -> std::io::Result<MetricServer> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    std::thread::Builder::new()
        .name("obs-serve".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let obs = obs.clone();
                let _ = std::thread::Builder::new()
                    .name("obs-conn".into())
                    .spawn(move || handle_connection(stream, &obs));
            }
        })?;
    Ok(MetricServer { addr })
}

/// Read the request head (bounded), route it, write the response.
fn handle_connection(mut stream: TcpStream, obs: &Observatory) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Read until the end of the request headers; a client's `write!`
    // may arrive as several small segments.
    let mut buf = [0u8; MAX_REQUEST_BYTES];
    let mut n = 0usize;
    let mut complete = false;
    while n < buf.len() {
        if buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
            complete = true;
            break;
        }
        match stream.read(&mut buf[n..]) {
            Ok(0) | Err(_) => break,
            Ok(m) => n += m,
        }
    }
    if n == buf.len() && !complete {
        respond(
            &mut stream,
            "413 Payload Too Large",
            "text/plain; charset=utf-8",
            "request head exceeds 8192 bytes\n",
            false,
        );
        return;
    }
    let head_end = buf[..n]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| p + 4)
        .unwrap_or(n);
    let request = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    // A well-formed request line is `METHOD SP PATH [SP VERSION]`.
    let mut first = request.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = match (first.next(), first.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => {
            respond(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                "malformed request line\n",
                false,
            );
            return;
        }
    };
    // HEAD is GET without the body: the API and the built-in routes see
    // a GET, and the response leaves the body out.
    let head_only = method == "HEAD";
    let method = if head_only { "GET".to_string() } else { method };
    let path = target.split('?').next().unwrap_or(&target).to_string();
    let query = target
        .split_once('?')
        .map(|(_, q)| q.to_string())
        .unwrap_or_default();

    // The application API sees every request first; its `None` falls
    // through to the built-in routes (and their 405 for non-GET).
    if let Some(api) = &obs.api {
        let content_length = request
            .lines()
            .skip(1)
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            respond(
                &mut stream,
                "413 Payload Too Large",
                "text/plain; charset=utf-8",
                &format!("request body exceeds {MAX_BODY_BYTES} bytes\n"),
                head_only,
            );
            return;
        }
        // The head read may have pulled in the start of the body; read
        // the rest directly off the socket.
        let mut body = buf[head_end..n].to_vec();
        body.truncate(content_length);
        while body.len() < content_length {
            let mut chunk = [0u8; 4096];
            let want = (content_length - body.len()).min(chunk.len());
            match stream.read(&mut chunk[..want]) {
                Ok(0) | Err(_) => break,
                Ok(m) => body.extend_from_slice(&chunk[..m]),
            }
        }
        let req = ApiRequest {
            method: method.clone(),
            path: path.clone(),
            query,
            body,
            peer: stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_default(),
        };
        if let Some(resp) = api.handle(&req) {
            respond(
                &mut stream,
                &resp.status,
                &resp.ctype,
                &resp.body,
                head_only,
            );
            return;
        }
    }

    if method != "GET" {
        respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET and HEAD are supported\n",
            false,
        );
        return;
    }
    let path = path.as_str();

    if path == "/events" {
        match &obs.events {
            Some(_) if head_only => {
                let _ = stream.write_all(SSE_HEAD.as_bytes());
            }
            Some(bus) => serve_sse(stream, bus, obs.sse_keepalive),
            None => respond(
                &mut stream,
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no event bus attached to this run\n",
                head_only,
            ),
        }
        return;
    }

    let (status, ctype, body) = match path {
        "/" | "/index.html" => (
            "200 OK",
            "text/html; charset=utf-8",
            include_str!("dashboard.html").to_string(),
        ),
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            obs.registry.to_prometheus(),
        ),
        "/json" => (
            "200 OK",
            "application/json",
            serde_json::to_string_pretty(&obs.registry.snapshot())
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}")),
        ),
        "/timeline" => match &obs.timeline {
            Some(tl) => (
                "200 OK",
                "application/json",
                serde_json::to_string(&tl.to_json())
                    .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}")),
            ),
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no timeline attached to this run\n".to_string(),
            ),
        },
        "/trace" => match &obs.trace {
            Some(render) => ("200 OK", "application/json", render()),
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no trace renderer attached to this run\n".to_string(),
            ),
        },
        "/forensics" => match &obs.forensics {
            Some(render) => ("200 OK", "application/json", render()),
            None => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "no forensics report attached to this run (use --forensics)\n".to_string(),
            ),
        },
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "routes: / (dashboard), /metrics (Prometheus text), /json (snapshot), \
             /timeline (series), /events (SSE), /trace (trace-event JSON), \
             /forensics (escape triage JSON)\n"
                .to_string(),
        ),
    };
    respond(&mut stream, status, ctype, &body, head_only);
}

/// Write one whole response; `head_only` (a `HEAD` request) keeps the
/// body's `Content-Length` but sends no body.
fn respond(stream: &mut TcpStream, status: &str, ctype: &str, body: &str, head_only: bool) {
    let body_sent = if head_only { "" } else { body };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body_sent}",
        body.len()
    );
}

/// Response head of `/events`. No Content-Length: the stream ends when
/// the connection closes.
const SSE_HEAD: &str = "HTTP/1.0 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";

/// Stream the event bus over Server-Sent Events until the client goes
/// away. The first frame is the bus's replay header (`ev:"replay"` with
/// the `dropped`/`buffered` tallies), then buffered + live events; an
/// idle stream emits a `: keepalive` comment every `keepalive` so
/// proxies and client libraries don't cut the connection, which doubles
/// as the disconnect probe. The campaign side never waits on this
/// socket.
fn serve_sse(mut stream: TcpStream, bus: &EventBus, keepalive: Duration) {
    if stream.write_all(SSE_HEAD.as_bytes()).is_err() {
        return;
    }
    if stream
        .write_all(sse_frame(&bus.replay_header()).as_bytes())
        .is_err()
        || stream.flush().is_err()
    {
        return;
    }
    let mut cursor = 0u64;
    let mut last_write = Instant::now();
    loop {
        let fresh = bus.poll_after(cursor, SSE_POLL.min(keepalive));
        if fresh.is_empty() {
            if last_write.elapsed() < keepalive {
                continue;
            }
            if stream.write_all(b": keepalive\n\n").is_err() || stream.flush().is_err() {
                return;
            }
            last_write = Instant::now();
            continue;
        }
        for (seq, json) in fresh {
            cursor = cursor.max(seq);
            if stream.write_all(sse_frame(&json).as_bytes()).is_err() {
                return;
            }
        }
        if stream.flush().is_err() {
            return;
        }
        last_write = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::io::BufRead;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn raw(addr: SocketAddr, head: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        // The server may answer (413) and close while we are still
        // writing; ignore the resulting EPIPE/NotConnected on our side.
        let _ = s.write_all(head);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        let _ = s.read_to_string(&mut out);
        out
    }

    #[test]
    fn serves_prometheus_and_json() {
        let reg = MetricRegistry::new();
        reg.counter("requests_total", "requests seen", &[]).inc(7);
        let srv = serve_observatory(Observatory::new(reg), 0).unwrap();
        let text = get(srv.addr(), "/metrics");
        assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
        assert!(text.contains("requests_total 7"), "{text}");
        let json = get(srv.addr(), "/json");
        assert!(json.contains("application/json"), "{json}");
        assert!(json.contains("requests_total"), "{json}");
        let missing = get(srv.addr(), "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
    }

    #[test]
    fn serves_dashboard_timeline_and_trace() {
        let reg = MetricRegistry::new();
        reg.counter("ticks_total", "ticks", &[]).inc(3);
        let tl = Timeline::new(reg.clone(), 16);
        tl.sample();
        let obs = Observatory::new(reg)
            .with_timeline(tl)
            .with_trace_provider(|| "{\"traceEvents\":[]}".to_string());
        let srv = serve_observatory(obs, 0).unwrap();
        let home = get(srv.addr(), "/");
        assert!(home.contains("text/html"), "{home}");
        assert!(home.contains("SBST campaign observatory"), "{home}");
        let tl = get(srv.addr(), "/timeline?x=1");
        assert!(tl.contains("application/json"), "{tl}");
        assert!(tl.contains("ticks_total"), "{tl}");
        let trace = get(srv.addr(), "/trace");
        assert!(trace.contains("traceEvents"), "{trace}");
    }

    #[test]
    fn serves_forensics_when_attached() {
        let srv = serve_observatory(Observatory::new(MetricRegistry::new()), 0).unwrap();
        let missing = get(srv.addr(), "/forensics");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

        let store: Arc<std::sync::Mutex<Option<String>>> = Arc::default();
        let provider_store = store.clone();
        let obs = Observatory::new(MetricRegistry::new()).with_forensics_provider(move || {
            provider_store
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| "{\"pending\": true}".to_string())
        });
        let srv = serve_observatory(obs, 0).unwrap();
        let pending = get(srv.addr(), "/forensics");
        assert!(pending.contains("application/json"), "{pending}");
        assert!(pending.contains("pending"), "{pending}");
        *store.lock().unwrap() = Some("{\"testable_coverage\": 0.97}".to_string());
        let live = get(srv.addr(), "/forensics");
        assert!(live.contains("testable_coverage"), "{live}");
    }

    #[test]
    fn malformed_and_oversized_requests_get_http_errors() {
        let srv = serve_observatory(Observatory::new(MetricRegistry::new()), 0).unwrap();
        let bad = raw(srv.addr(), b"NONSENSE\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.0 400"), "{bad}");
        let post = raw(srv.addr(), b"POST /metrics HTTP/1.0\r\n\r\n");
        assert!(post.starts_with("HTTP/1.0 405"), "{post}");
        let huge = vec![b'A'; MAX_REQUEST_BYTES + 64];
        let too_big = raw(srv.addr(), &huge);
        assert!(too_big.starts_with("HTTP/1.0 413"), "{too_big}");
    }

    #[test]
    fn api_handler_sees_posts_and_falls_through_to_builtins() {
        struct Echo;
        impl ApiHandler for Echo {
            fn handle(&self, req: &ApiRequest) -> Option<ApiResponse> {
                if req.method == "POST" && req.path == "/jobs" {
                    let body = String::from_utf8_lossy(&req.body).into_owned();
                    return Some(ApiResponse::json(
                        "202 Accepted",
                        format!("{{\"echo\":{body},\"query\":\"{}\"}}", req.query),
                    ));
                }
                None
            }
        }
        let reg = MetricRegistry::new();
        reg.counter("requests_total", "requests seen", &[]).inc(1);
        let obs = Observatory::new(reg).with_api(Arc::new(Echo));
        let srv = serve_observatory(obs, 0).unwrap();

        // POST with a body routed to the handler, query preserved.
        let body = "{\"id\":\"j1\"}";
        let post = raw(
            srv.addr(),
            format!(
                "POST /jobs?dry=1 HTTP/1.0\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        assert!(post.starts_with("HTTP/1.0 202"), "{post}");
        assert!(post.contains("\"echo\":{\"id\":\"j1\"}"), "{post}");
        assert!(post.contains("\"query\":\"dry=1\""), "{post}");

        // Unhandled requests fall through: built-in routes still work,
        // and an unhandled POST still earns the built-in 405.
        let metrics = get(srv.addr(), "/metrics");
        assert!(metrics.contains("requests_total 1"), "{metrics}");
        let post405 = raw(srv.addr(), b"POST /metrics HTTP/1.0\r\n\r\n");
        assert!(post405.starts_with("HTTP/1.0 405"), "{post405}");

        // A declared body beyond the cap is refused before buffering.
        let huge = format!(
            "POST /jobs HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let too_big = raw(srv.addr(), huge.as_bytes());
        assert!(too_big.starts_with("HTTP/1.0 413"), "{too_big}");
    }

    /// `HEAD` gets `GET`'s status and headers, `Content-Length`
    /// included, and no body; the API sees it as `GET`, and `/events`
    /// answers its head and closes instead of streaming.
    #[test]
    fn head_answers_with_get_headers_and_no_body() {
        struct Jobs;
        impl ApiHandler for Jobs {
            fn handle(&self, req: &ApiRequest) -> Option<ApiResponse> {
                (req.method == "GET" && req.path == "/jobs")
                    .then(|| ApiResponse::ok_json("{\"jobs\":[]}"))
            }
        }
        let reg = MetricRegistry::new();
        reg.counter("requests_total", "requests seen", &[]).inc(1);
        let obs = Observatory::new(reg)
            .with_events(EventBus::new(16))
            .with_api(Arc::new(Jobs));
        let srv = serve_observatory(obs, 0).unwrap();
        for path in ["/metrics", "/jobs", "/nope"] {
            let full = get(srv.addr(), path);
            let (head, body) = full.split_once("\r\n\r\n").expect("a response head");
            assert!(!body.is_empty(), "GET {path} has a body");
            assert!(
                head.contains(&format!("Content-Length: {}", body.len())),
                "{head}"
            );
            let got = raw(
                srv.addr(),
                format!("HEAD {path} HTTP/1.0\r\n\r\n").as_bytes(),
            );
            assert_eq!(got, format!("{head}\r\n\r\n"), "HEAD {path}");
        }
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"HEAD /events HTTP/1.0\r\n\r\n").unwrap();
        let mut events = String::new();
        s.read_to_string(&mut events)
            .expect("the stream closes after its head");
        assert_eq!(events, SSE_HEAD);
    }

    #[test]
    fn api_body_split_across_segments_is_reassembled() {
        struct Len;
        impl ApiHandler for Len {
            fn handle(&self, req: &ApiRequest) -> Option<ApiResponse> {
                (req.path == "/len").then(|| ApiResponse::ok_json(format!("{}", req.body.len())))
            }
        }
        let obs = Observatory::new(MetricRegistry::new()).with_api(Arc::new(Len));
        let srv = serve_observatory(obs, 0).unwrap();
        // Write the head, pause, then the body in two pieces — the
        // server must keep reading past the head segment.
        let body = vec![b'x'; 10_000];
        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.write_all(format!("POST /len HTTP/1.0\r\nContent-Length: {}\r\n\r\n", body.len()).as_bytes())
            .unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        s.write_all(&body[..1000]).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        s.write_all(&body[1000..]).unwrap();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.ends_with("10000"), "{out}");
    }

    #[test]
    fn sse_route_streams_published_events() {
        let reg = MetricRegistry::new();
        let bus = EventBus::new(8);
        bus.publish("early", &[("n", Value::U64(1))]);
        let obs = Observatory::new(reg).with_events(bus.clone());
        let srv = serve_observatory(obs, 0).unwrap();

        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.write_all(b"GET /events HTTP/1.0\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        // Headers end at the blank line.
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            if line.contains("Content-Type") {
                assert!(line.contains("text/event-stream"), "{line}");
            }
        }
        bus.publish("late", &[("n", Value::U64(2))]);
        // Collect SSE data lines; the stream opens with the replay
        // header, then the buffered and live events follow.
        let mut datas = Vec::new();
        while datas.len() < 3 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if let Some(rest) = line.strip_prefix("data: ") {
                datas.push(rest.trim_end().to_string());
            }
        }
        assert!(datas[0].contains("\"ev\":\"replay\""), "{}", datas[0]);
        assert!(datas[0].contains("\"dropped\":0"), "{}", datas[0]);
        assert!(datas[0].contains("\"buffered\":1"), "{}", datas[0]);
        assert!(datas[1].contains("\"ev\":\"early\""), "{}", datas[1]);
        assert!(datas[2].contains("\"ev\":\"late\""), "{}", datas[2]);
        drop(reader);
        let _ = s.shutdown(std::net::Shutdown::Both);
    }

    /// A slow poller on an idle bus: the stream must carry periodic
    /// `: keepalive` comment frames (here at a 50 ms test interval)
    /// between the replay header and the eventual live event, so
    /// proxies never see a silent connection.
    #[test]
    fn idle_sse_stream_emits_keepalive_comments() {
        let bus = EventBus::new(8);
        let obs = Observatory::new(MetricRegistry::new())
            .with_events(bus.clone())
            .with_sse_keepalive(Duration::from_millis(50));
        let srv = serve_observatory(obs, 0).unwrap();

        let mut s = TcpStream::connect(srv.addr()).unwrap();
        s.write_all(b"GET /events HTTP/1.0\r\n\r\n").unwrap();
        let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
        }
        // Read slowly: nothing is published for a while, then one event.
        let pub_bus = bus.clone();
        let publisher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            pub_bus.publish("finally", &[]);
        });
        let mut keepalives = 0;
        let mut saw_event = false;
        for _ in 0..64 {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.starts_with(": keepalive") {
                keepalives += 1;
            }
            if line.contains("\"ev\":\"finally\"") {
                saw_event = true;
                break;
            }
        }
        publisher.join().unwrap();
        assert!(
            keepalives >= 2,
            "idle stream sent {keepalives} keepalives before the event"
        );
        assert!(saw_event, "live event never arrived after the idle stretch");
        drop(reader);
        let _ = s.shutdown(std::net::Shutdown::Both);
    }
}
