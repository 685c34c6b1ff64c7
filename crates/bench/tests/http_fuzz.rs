//! Fuzz of the job plane's two hand-rolled parsers: the HTTP client
//! (`bench::client::get`) against a loopback listener that answers with
//! random bytes, and `bench::server::parse_spec` over random JSON
//! objects. Neither may panic; a reply that opens with a valid status
//! line yields that status, and every spec `parse_spec` accepts is
//! within the server's caps.

use std::io::{Read, Write};
use std::net::TcpListener;

use bench::server::{parse_spec, MAX_CYCLE_MARGIN, MAX_SHARDS, MAX_THREADS};
use proptest::prelude::*;
use serde_json::{Map, Value};

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

    fn bytes(&mut self, max: usize) -> Vec<u8> {
        let n = self.below(max + 1);
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// A random reply, and the status a client must read from it when it
/// opens with a valid status line.
fn random_reply(rng: &mut Rng) -> (Vec<u8>, Option<u16>) {
    match rng.below(4) {
        0 => {
            let code = 100 + rng.below(500) as u16;
            let version = ["HTTP/1.0", "HTTP/1.1"][rng.below(2)];
            let mut reply = format!("{version} {code} Reason\r\n").into_bytes();
            reply.extend(rng.bytes(300));
            (reply, Some(code))
        }
        1 => {
            let mut reply = b"HTTP/1.0 ".to_vec();
            reply.extend(rng.bytes(4));
            (reply, None)
        }
        2 => (
            format!("HTTP/1.0 {} X\r\n\r\n", rng.next()).into_bytes(),
            None,
        ),
        _ => (rng.bytes(400), None),
    }
}

/// A random field value, biased toward the caps and their neighbours.
fn random_value(rng: &mut Rng) -> Value {
    let caps = [MAX_THREADS as u64, MAX_SHARDS as u64, MAX_CYCLE_MARGIN];
    match rng.below(9) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::U64(caps[rng.below(3)] + rng.below(2) as u64),
        3 => Value::U64([0, 1, 64, 128, 256, 512, u64::MAX][rng.below(7)]),
        4 => Value::U64(rng.next()),
        5 => Value::I64(-(rng.below(1000) as i64) - 1),
        6 => Value::F64(rng.next() as f64 / 7.0),
        7 => Value::String(["A", "b", "j-1", "", "Z", "é"][rng.below(6)].to_string()),
        _ => Value::Array(vec![Value::U64(rng.next())]),
    }
}

/// A valid spec with up to four fields replaced, dropped or added; the
/// capped fields are drawn twice as often as the rest.
fn random_spec(rng: &mut Rng) -> Value {
    const KEYS: [&str; 13] = [
        "id",
        "netlist",
        "phase",
        "sample",
        "seed",
        "lanes",
        "note",
        "cycle_margin",
        "threads",
        "shards",
        "cycle_margin",
        "threads",
        "shards",
    ];
    let mut fields = vec![
        ("id", Value::String("job-1".into())),
        ("netlist", Value::String("n1/g1/d1".into())),
    ];
    for _ in 0..rng.below(5) {
        let key = KEYS[rng.below(KEYS.len())];
        fields.retain(|(k, _)| *k != key);
        if rng.below(4) != 0 {
            fields.push((key, random_value(rng)));
        }
    }
    let mut o = Map::new();
    for (k, v) in fields {
        o.insert(k.to_string(), v);
    }
    if rng.below(20) == 0 {
        return Value::Array(vec![Value::Object(o)]);
    }
    Value::Object(o)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn client_reads_any_reply_without_panicking(seed in any::<u64>()) {
        let (reply, status) = random_reply(&mut Rng(seed | 1));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let base = listener.local_addr().expect("bound address").to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // Read the whole request head first, so closing sends no reset.
            let mut head = Vec::new();
            let mut chunk = [0u8; 1024];
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => head.extend_from_slice(&chunk[..n]),
                }
            }
            let _ = stream.write_all(&reply);
        });
        let got = bench::client::get(&base, "/jobs");
        server.join().expect("listener thread");
        if let Some(code) = status {
            prop_assert_eq!(got.expect("a complete reply").0, code);
        }
    }

    #[test]
    fn parse_spec_accepts_only_specs_within_the_caps(seed in any::<u64>()) {
        let doc = random_spec(&mut Rng(seed | 1));
        if let Ok((_, _, spec)) = parse_spec(&doc) {
            prop_assert!(spec.threads <= MAX_THREADS, "{doc:?}");
            prop_assert!((1..=MAX_SHARDS).contains(&spec.shards), "{doc:?}");
            prop_assert!(spec.cycle_margin <= MAX_CYCLE_MARGIN, "{doc:?}");
        }
    }
}
