//! Fuzz of the observatory's hand-rolled HTTP/1.0 request parser. Each
//! case sends one random request head — raw bytes, or a request line and
//! header lines whose `Content-Length` may be absent, negative,
//! non-numeric, huge or longer than the body, cut anywhere — then shuts
//! its write half and reads to EOF. Every answer must be empty or start
//! with an HTTP status line, and the server must still serve `/metrics`
//! after the last case. One server with an echo API handler and no event
//! bus serves every case, so `/events` answers 404 instead of streaming.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

use obs::serve::{serve_observatory, ApiHandler, ApiRequest, ApiResponse, MAX_BODY_BYTES};
use obs::{MetricRegistry, Observatory};
use proptest::prelude::*;

/// Answers every `POST` with its body; other methods fall through to the
/// built-in routes.
struct Echo;

impl ApiHandler for Echo {
    fn handle(&self, req: &ApiRequest) -> Option<ApiResponse> {
        (req.method == "POST").then(|| ApiResponse::ok_json(String::from_utf8_lossy(&req.body)))
    }
}

fn server() -> SocketAddr {
    static ADDR: std::sync::OnceLock<SocketAddr> = std::sync::OnceLock::new();
    *ADDR.get_or_init(|| {
        let obs = Observatory::new(MetricRegistry::new()).with_api(Arc::new(Echo));
        serve_observatory(obs, 0)
            .expect("bind a loopback port")
            .addr()
    })
}

/// Send `request`, shut the write half, and read the answer to EOF. The
/// server may answer and close before it has read everything, so write
/// and read errors end the exchange instead of failing it.
fn exchange(request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server()).expect("connect");
    let _ = stream.write_all(request);
    let _ = stream.shutdown(Shutdown::Write);
    let mut answer = Vec::new();
    let _ = stream.read_to_end(&mut answer);
    answer
}

/// xorshift64* over a case's seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    fn bytes(&mut self, max: usize) -> Vec<u8> {
        let n = self.below(max + 1);
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// One random request: raw bytes a quarter of the time, else a request
/// line, header lines and a body, cut at a random point a third of the
/// time.
fn random_request(rng: &mut Rng) -> Vec<u8> {
    if rng.below(4) == 0 {
        return rng.bytes(600);
    }
    let method = rng.pick(&["GET", "POST", "HEAD", "PUT", "post", "", "G\u{0}T"]);
    let target = rng.pick(&[
        "/",
        "/metrics",
        "/json",
        "/timeline",
        "/events",
        "/trace",
        "/forensics",
        "/jobs",
        "/x?y=1&z",
        "?",
        "*",
        "",
        "/\u{fffd}",
    ]);
    let version = rng.pick(&["HTTP/1.0", "HTTP/1.1", "", "HTTP/9"]);
    let eol = rng.pick(&["\r\n", "\n"]);
    let body = rng.bytes(300);
    let mut head = format!("{method} {target} {version}{eol}");
    for _ in 0..rng.below(4) {
        let line = match rng.below(3) {
            0 => format!("X-{}: {}", rng.next(), rng.next()),
            1 => "no colon here".to_string(),
            _ => String::from_utf8_lossy(&rng.bytes(40)).into_owned(),
        };
        head.push_str(&line);
        head.push_str(eol);
    }
    let too_big = (MAX_BODY_BYTES + 1).to_string();
    let longer = (body.len() + 1 + rng.below(100)).to_string();
    let exact = body.len().to_string();
    let length = match rng.below(7) {
        0 => None,
        1 => Some("-5"),
        2 => Some("twelve"),
        3 => Some("184467440737095516160"),
        4 => Some(too_big.as_str()),
        5 => Some(longer.as_str()),
        _ => Some(exact.as_str()),
    };
    if let Some(length) = length {
        let name = rng.pick(&["Content-Length", "content-length", "CONTENT-LENGTH "]);
        head.push_str(&format!("{name}:{length}{eol}"));
    }
    head.push_str(eol);
    let mut request = head.into_bytes();
    request.extend_from_slice(&body);
    if rng.below(3) == 0 {
        request.truncate(rng.below(request.len() + 1));
    }
    request
}

/// Whether `answer` opens with `HTTP/1.0 ` and a three-digit status.
fn has_status_line(answer: &[u8]) -> bool {
    answer.starts_with(b"HTTP/1.0 ")
        && answer.len() >= 12
        && answer[9..12].iter().all(u8::is_ascii_digit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    // Driven by the test below, which checks the server afterwards.
    fn every_request_gets_a_status_line_or_nothing(seed in any::<u64>()) {
        let request = random_request(&mut Rng(seed | 1));
        let answer = exchange(&request);
        prop_assert!(
            answer.is_empty() || has_status_line(&answer),
            "request {:?} got {:?}",
            String::from_utf8_lossy(&request),
            String::from_utf8_lossy(&answer)
        );
    }
}

#[test]
fn random_requests_leave_the_server_serving() {
    every_request_gets_a_status_line_or_nothing();
    let answer = exchange(b"GET /metrics HTTP/1.0\r\n\r\n");
    assert!(
        answer.starts_with(b"HTTP/1.0 200 OK"),
        "{}",
        String::from_utf8_lossy(&answer)
    );
}
