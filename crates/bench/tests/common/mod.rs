//! Shared plumbing for the job-server integration suites: boot the
//! `server` binary, scrape its port off stderr, and talk HTTP to it
//! over real sockets via `bench::client`.
#![allow(dead_code)] // each suite uses a different subset of helpers

use std::io::BufRead;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

/// A running `server` coordinator process, killed on drop.
pub struct ServerProc {
    child: Child,
    /// Base URL, e.g. `http://127.0.0.1:41234`.
    pub base: String,
    /// The netlist fingerprint the server announced.
    pub fingerprint: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boot `server` (the coordinator) on an ephemeral port with the given
/// extra arguments, wait for the stderr announcement, and return the
/// handle. Panics if the server does not come up within 30 s.
pub fn spawn_server(extra: &[&str]) -> ServerProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_server"));
    cmd.args(["--port", "0"]).args(extra);
    cmd.stdout(Stdio::null()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn server binary");
    let stderr = child.stderr.take().expect("server stderr");
    let mut reader = std::io::BufReader::new(stderr);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line).expect("read server stderr");
        if n == 0 || Instant::now() > deadline {
            let _ = child.kill();
            panic!("server exited or timed out before announcing its port");
        }
        if let Some(rest) = line.split("http://").nth(1) {
            let addr = rest.split('/').next().unwrap_or("").trim().to_string();
            let fingerprint = line
                .split("netlist ")
                .nth(1)
                .and_then(|s| s.split_whitespace().next())
                .unwrap_or("")
                .to_string();
            // Keep draining stderr in the background so the server never
            // blocks on a full pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                    sink.clear();
                }
            });
            return ServerProc {
                child,
                base: format!("http://{addr}"),
                fingerprint,
            };
        }
    }
}

/// Build a job-spec document for this server with sensible test-sized
/// defaults; callers override fields as needed.
pub fn spec(server: &ServerProc, id: &str) -> Value {
    serde_json::json!({
        "id": id.to_string(),
        "netlist": server.fingerprint.clone(),
        "sample": 200u64,
        "shards": 2u64,
    })
}

/// Fetch the `/json` metric snapshot.
pub fn metrics(server: &ServerProc) -> Value {
    let (status, body) = bench::client::get(&server.base, "/json").expect("GET /json");
    assert_eq!(status, 200, "GET /json → {status}");
    serde_json::from_str(&body).expect("parse metric snapshot")
}

/// Value of the first metric named `name` in a `/json` snapshot, as u64
/// (counters are u64; gauges are truncated).
pub fn metric_value(snapshot: &Value, name: &str) -> Option<u64> {
    snapshot["metrics"]
        .as_array()?
        .iter()
        .find(|m| m["name"].as_str() == Some(name))
        .and_then(|m| {
            m["value"]
                .as_u64()
                .or_else(|| m["value"].as_f64().map(|f| f as u64))
        })
}

/// Submit, wait for completion, and fetch the merged result document.
pub fn run_job(server: &ServerProc, doc: &Value) -> Value {
    let ack = bench::client::submit_job(&server.base, doc)
        .unwrap_or_else(|(s, e)| panic!("submit rejected ({s}): {e}"));
    let id = ack["id"].as_str().expect("ack id").to_string();
    let status =
        bench::client::wait_job(&server.base, &id, Duration::from_secs(120)).expect("job finishes");
    assert_eq!(
        status["state"].as_str(),
        Some("done"),
        "job status: {status:?}"
    );
    bench::client::fetch_result(&server.base, &id).expect("fetch result")
}
