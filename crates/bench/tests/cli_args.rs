//! Malformed `tables` value flags: a missing or unparsable value must
//! print `<flag> needs …` and exit 2, never panic. Parsing fails before
//! any experiment runs, so these are instant.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("run tables")
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
