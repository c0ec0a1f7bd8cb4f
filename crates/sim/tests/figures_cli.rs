//! Command-line contract of the `figures` binary: a mistyped figure
//! name or a dangling `--json` is a usage error (exit 2), never a
//! silent success that prints or writes nothing.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run the figures binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_figure_name_is_a_usage_error() {
    let out = figures(&["--fig", "hotspot", "--quick"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(out.stdout.is_empty());
    assert!(stderr(&out).contains("hotspot"), "stderr: {}", stderr(&out));
}

#[test]
fn json_without_a_directory_is_a_usage_error() {
    let out = figures(&["--fig", "timeline", "--json"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(out.stdout.is_empty());
    assert!(stderr(&out).contains("--json"), "stderr: {}", stderr(&out));
}

#[test]
fn a_known_figure_prints_and_writes_its_json() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures-cli");
    let _ = std::fs::remove_dir_all(&dir);
    let out = figures(&["--fig", "timeline", "--json", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(!out.stdout.is_empty());
    let json = std::fs::read_to_string(dir.join("timeline.json")).expect("timeline.json written");
    assert!(json.contains("\"arms\""));
}
