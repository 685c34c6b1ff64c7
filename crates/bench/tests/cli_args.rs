//! Malformed value flags of every binary: a missing or unparsable value
//! must print `<flag> needs …` and exit 2, never panic. Parsing fails
//! before any experiment runs or any port is bound, so these are
//! instant. Also here: `--trace` collects every campaign an invocation
//! grades into one file (two small runs, about two seconds).

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("run binary")
}

fn tables(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_tables"), args)
}

fn assert_usage_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(message), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn malformed_thread_count_exits_2() {
    assert_usage_error(&tables(&["--threads", "x"]), "--threads needs a number");
}

#[test]
fn trailing_seed_without_value_exits_2() {
    assert_usage_error(
        &tables(&["--table", "4", "--seed"]),
        "--seed needs a number",
    );
}

#[test]
fn difftest_malformed_seed_count_exits_2() {
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_difftest"), &["--seeds", "x"]),
        "--seeds needs a number",
    );
}

#[test]
fn server_malformed_port_exits_2_before_binding() {
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_server"), &["--port", "x"]),
        "--port needs a port number",
    );
}

#[test]
fn ledger_malformed_max_drop_exits_2() {
    assert_usage_error(
        &run(env!("CARGO_BIN_EXE_ledger"), &["--max-drop", "x"]),
        "--max-drop needs a percentage",
    );
}

/// Run `tables` with `--trace` into a temporary file and count the
/// `campaign_begin` and `campaign_end` events it wrote.
fn traced_campaigns(name: &str, args: &[&str]) -> (usize, usize) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("sbst_cli_{name}_{}.jsonl", std::process::id()));
    let trace = path.to_str().expect("utf-8 temp path");
    let out = tables(&[args, &["--trace", trace, "--no-ledger"]].concat());
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let count = |ev: &str| text.matches(&format!("\"ev\":\"{ev}\"")).count();
    (count("campaign_begin"), count("campaign_end"))
}

#[test]
fn table5_trace_holds_phases_a_b_and_c() {
    let args = ["--table", "5", "--sample", "300", "--threads", "2"];
    assert_eq!(traced_campaigns("table5", &args), (3, 3));
}

#[test]
fn parwan_trace_holds_both_programs() {
    assert_eq!(traced_campaigns("parwan", &["--table", "parwan"]), (2, 2));
}
