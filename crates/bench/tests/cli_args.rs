//! Malformed value flags of every binary: a missing or unparsable value
//! must print `<flag> needs …` and exit 2, never panic. Parsing fails
//! before any experiment runs or any port is bound, so these are
//! instant.

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
