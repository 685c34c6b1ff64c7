//! A dependency-free HTTP/1.0 client for the campaign job server —
//! enough protocol for the `tables --submit` plumbing, the `server
//! --worker` processes, and the e2e conformance suite, with no HTTP
//! stack the container doesn't already have.
//!
//! The server speaks `Connection: close` HTTP/1.0, so a request is one
//! TCP connect, one write, read-to-EOF, split head from body.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use serde_json::Value;

/// Normalize a base URL (`http://127.0.0.1:8080/`, `127.0.0.1:8080`)
/// into the `host:port` authority to connect to.
pub fn authority(base: &str) -> String {
    let s = base.trim();
    let s = s.strip_prefix("http://").unwrap_or(s);
    let s = s.split('/').next().unwrap_or(s);
    s.to_string()
}

/// Perform one HTTP request against `base`. Returns `(status code,
/// body)`. `body` is sent as `application/json` when present. A reply
/// that does not open with `HTTP/1.0` or `HTTP/1.1` is an
/// `InvalidData` error; one whose status code does not parse reads as
/// status 0.
pub fn request(
    base: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let addr = authority(base);
    let mut stream = TcpStream::connect(&addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut req = format!("{method} {path} HTTP/1.0\r\nHost: {addr}\r\n");
    if let Some(b) = body {
        req.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            b.len()
        ));
    }
    req.push_str("Connection: close\r\n\r\n");
    if let Some(b) = body {
        req.push_str(b);
    }
    stream.write_all(req.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let mut status_line = text.split_whitespace();
    if !matches!(status_line.next(), Some("HTTP/1.0" | "HTTP/1.1")) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{addr} did not answer with an HTTP/1.x status line"),
        ));
    }
    let status = status_line
        .next()
        .and_then(|c| c.parse::<u16>().ok())
        .unwrap_or(0);
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

/// `GET path` → `(status, body)`.
pub fn get(base: &str, path: &str) -> std::io::Result<(u16, String)> {
    request(base, "GET", path, None)
}

/// `POST path` with a JSON body → `(status, body)`.
pub fn post(base: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    request(base, "POST", path, Some(body))
}

/// Submit a job spec document. Returns the parsed 202 acknowledgement or
/// the server's rejection as `(status, error body)`.
pub fn submit_job(base: &str, spec: &Value) -> Result<Value, (u16, String)> {
    let body = serde_json::to_string(spec).unwrap_or_default();
    match post(base, "/jobs", &body) {
        Ok((202, ack)) => serde_json::from_str(&ack).map_err(|e| (0, format!("bad ack: {e}"))),
        Ok((status, err)) => Err((status, err)),
        Err(e) => Err((0, format!("connect to {base} failed: {e}"))),
    }
}

/// Poll `GET /jobs/<id>` until the job leaves `running` (or `timeout`
/// elapses). Returns the final status document.
pub fn wait_job(base: &str, id: &str, timeout: Duration) -> Result<Value, String> {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, body) =
            get(base, &format!("/jobs/{id}")).map_err(|e| format!("poll failed: {e}"))?;
        if status != 200 {
            return Err(format!("GET /jobs/{id} → {status}: {body}"));
        }
        let doc: Value =
            serde_json::from_str(&body).map_err(|e| format!("bad status doc: {e}"))?;
        match doc["state"].as_str() {
            Some("running") => {}
            Some(_) => return Ok(doc),
            None => return Err(format!("status doc without state: {body}")),
        }
        if Instant::now() >= deadline {
            return Err(format!("job `{id}` still running after {timeout:?}"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Fetch the merged result document of a finished job.
pub fn fetch_result(base: &str, id: &str) -> Result<Value, String> {
    let (status, body) =
        get(base, &format!("/jobs/{id}/result")).map_err(|e| format!("fetch failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /jobs/{id}/result → {status}: {body}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("bad result doc: {e}"))
}

/// Fetch the fleet registry (`GET /workers`): every worker the
/// coordinator has seen, with heartbeats and work tallies.
pub fn fetch_workers(base: &str) -> Result<Value, String> {
    let (status, body) = get(base, "/workers").map_err(|e| format!("fetch failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /workers → {status}: {body}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("bad workers doc: {e}"))
}

/// Fetch the merged fleet trace (`GET /trace`), parsed — coordinator
/// plus every worker process as Perfetto tracks.
pub fn fetch_trace(base: &str) -> Result<Value, String> {
    let (status, body) = get(base, "/trace").map_err(|e| format!("fetch failed: {e}"))?;
    if status != 200 {
        return Err(format!("GET /trace → {status}: {body}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("bad trace doc: {e}"))
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A loopback listener that answers one request with `reply`.
    fn answer_once(reply: &'static [u8]) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let base = listener.local_addr().expect("bound address").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut head = Vec::new();
            let mut chunk = [0u8; 1024];
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => head.extend_from_slice(&chunk[..n]),
                }
            }
            stream.write_all(reply).expect("write the reply");
        });
        (base, server)
    }

    #[test]
    fn a_reply_without_an_http_status_line_is_an_error() {
        let (base, server) = answer_once(b"garbage 200 ok\r\n\r\n{\"netlist\": \"n1/g1/d1\"}");
        let err = super::get(&base, "/jobs").expect_err("not an HTTP reply");
        server.join().expect("listener thread");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

        let (base, server) = answer_once(b"HTTP/1.1 200 OK\r\n\r\n{}");
        let got = super::get(&base, "/jobs").expect("an HTTP/1.1 reply");
        server.join().expect("listener thread");
        assert_eq!(got, (200, "{}".to_string()));
    }
}
