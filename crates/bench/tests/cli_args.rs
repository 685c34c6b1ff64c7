//! Malformed value flags of every binary: a missing or unparsable value
//! must print `<flag> needs …` and exit 2, never panic. Parsing fails
//! before any experiment runs or any port is bound, so these are
//! instant; so are the flags only `tables --stats` reads, which are
//! rejected elsewhere. Also here: `--trace` collects every campaign an
//! invocation grades into one file (two small runs, about two seconds),
//! the `--forensics-fault` drill-down lists its class's members, and
//! only the experiments that sample a fault list announce the sample.

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
    assert!(out.stdout.is_empty(), "ran before failing: {stderr}");
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
fn verify_interp_is_an_unknown_argument() {
    assert_usage_error(
        &tables(&["--stats", "--verify-interp", "--no-ledger"]),
        "unknown argument `--verify-interp`",
    );
}

#[test]
fn lanes_list_without_stats_exits_2() {
    assert_usage_error(
        &tables(&["--table", "4", "--lanes", "64,128", "--no-ledger"]),
        "a --lanes width list needs --stats",
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

/// The `class members` line of `tables --forensics-fault <id>`: the
/// representative and the faults its class collapsed away.
fn class_members(id: &str) -> (String, Vec<String>) {
    let out = tables(&["--forensics-fault", id, "--no-ledger"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    let rep = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fault "))
        .and_then(|l| l.split(" — ").next())
        .expect("fault header")
        .to_string();
    let line = stdout
        .lines()
        .find(|l| l.starts_with("class members"))
        .expect("class members line");
    let (_, list) = line.split_once(": ").expect("class members: list");
    let members = match list {
        "none" => Vec::new(),
        list => list.split(", ").map(String::from).collect(),
    };
    (rep, members)
}

#[test]
fn forensics_fault_lists_class_members() {
    // A 19-fault CTRL class: the representative plus 18 members.
    let (rep, members) = class_members("n5652 sa0");
    assert_eq!(rep, "n5652 sa0");
    assert_eq!(members.len(), 18, "{members:?}");
    let distinct: std::collections::HashSet<&String> = members.iter().collect();
    assert_eq!(distinct.len(), members.len(), "{members:?}");
    assert!(!members.contains(&rep), "{members:?}");
    // A class of one has no members.
    let (rep, members) = class_members("g2175/pin1 sa0");
    assert_eq!(rep, "g2175/pin1 sa0");
    assert!(members.is_empty(), "{members:?}");
}

#[test]
fn two_modes_exit_2() {
    assert_usage_error(
        &tables(&["--forensics-fault", "n5652 sa0", "--stats", "--no-ledger"]),
        "--stats and --forensics-fault are exclusive modes",
    );
    assert_usage_error(
        &tables(&["--report", "--wave-fault", "0", "--no-ledger"]),
        "a wave dump and --report are exclusive modes",
    );
}

#[test]
fn experiment_selector_with_a_mode_exits_2() {
    assert_usage_error(
        &tables(&[
            "--forensics-fault",
            "n5652 sa0",
            "--table",
            "4",
            "--no-ledger",
        ]),
        "--table selects experiments, which --forensics-fault does not run",
    );
    assert_usage_error(
        &tables(&["--all", "--forensics", "--no-ledger"]),
        "--all selects experiments, which --forensics does not run",
    );
}

/// Whether `tables` announced its fault-list sampling on stderr.
fn notes_sampling(args: &[&str]) -> bool {
    let out = tables(&[args, &["--no-ledger"]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    stderr.contains("[fault lists sampled to ~") || stderr.contains("[complete fault lists")
}

#[test]
fn sampling_notice_only_for_sampling_experiments() {
    // Parwan grades its complete list; Table 3 grades nothing.
    assert!(!notes_sampling(&["--table", "parwan"]));
    assert!(!notes_sampling(&["--table", "3", "--full"]));
    let misr = ["--table", "misr", "--sample", "40", "--threads", "2"];
    assert!(notes_sampling(&misr));
}
