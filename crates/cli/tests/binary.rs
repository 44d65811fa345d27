//! End-to-end tests of the actual `ceps` binary: spawn the executable,
//! drive a full generate → stats → query → partition session through a
//! temp directory, and check exit codes and output.

use std::path::PathBuf;
use std::process::Command;

fn ceps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ceps"))
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ceps_bin_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_session_generate_stats_query_partition() {
    let dir = tmpdir();
    let graph = dir.join("g.txt");
    let labels = dir.join("l.txt");

    // generate
    let out = ceps()
        .args(["generate", "--scale", "tiny", "--seed", "5"])
        .args(["--out", graph.to_str().unwrap()])
        .args(["--labels-out", labels.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("100 nodes"));

    // stats
    let out = ceps()
        .args(["stats", "--graph", graph.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("nodes: 100"));
    assert!(text.contains("clustering:"));

    // query by ids, JSON output
    let out = ceps()
        .args(["query", "--graph", graph.to_str().unwrap()])
        .args([
            "--queries",
            "0,30",
            "--type",
            "and",
            "--budget",
            "5",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("query --json emits valid JSON");
    assert_eq!(doc["query_type"], "AND");
    assert!(doc["subgraph"].as_array().unwrap().len() >= 2);

    // query with push scoring and a thread pool
    let out = ceps()
        .args(["query", "--graph", graph.to_str().unwrap()])
        .args([
            "--queries",
            "0,30",
            "--push",
            "1e-8",
            "--threads",
            "2",
            "--budget",
            "4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("why (discovery order)"));

    // partition
    let parts = dir.join("parts.txt");
    let out = ceps()
        .args(["partition", "--graph", graph.to_str().unwrap()])
        .args(["--parts", "4", "--out", parts.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        std::fs::read_to_string(&parts).unwrap().lines().count(),
        100
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = ceps().args(["bogus-command"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = ceps()
        .args(["query", "--graph", "/nonexistent/file", "--queries", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn help_succeeds() {
    let out = ceps().args(["help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("center-piece"));
}

#[test]
fn closed_stdout_pipe_exits_cleanly() {
    // The read end is gone before the child starts, so its first write
    // fails with a broken pipe, as under `ceps ... | head -c 0`.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = ceps()
        .args(["help"])
        .stdout(writer)
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap()
        .wait_with_output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
