//! Exit-code contract of the `omn-scn` CLI: 2 for usage errors (missing
//! or unknown subcommand, malformed or unknown flags), 1 for specs that
//! cannot be loaded or compiled and for failed experiments, 0 otherwise.

use std::path::PathBuf;
use std::process::{Command, Output};

fn omn_scn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_omn-scn"))
        .args(args)
        .output()
        .expect("spawn omn-scn")
}

fn specs_dir() -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../specs")
        .display()
        .to_string()
}

/// Runs `omn-scn` and asserts its exit code, returning stdout and stderr.
fn expect_exit(args: &[&str], code: i32) -> (String, String) {
    let out = omn_scn(args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "omn-scn {args:?}\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    (stdout, stderr)
}

#[test]
fn usage_errors_exit_2() {
    let (_, err) = expect_exit(&[], 2);
    assert!(err.contains("usage: omn-scn"), "{err}");
    let (_, err) = expect_exit(&["frobnicate"], 2);
    assert!(err.contains("unknown subcommand `frobnicate`"), "{err}");
    let (_, err) = expect_exit(&["run", "e01", "--seeds", "1,x"], 2);
    assert!(err.contains("comma-separated list of integers"), "{err}");
    let (_, err) = expect_exit(&["run"], 2);
    assert!(err.contains("run needs at least one spec"), "{err}");
}

/// `--legacy` and `--spec` are gone; `run e01 --spec specs/e12.scn` once
/// silently ran E1.
#[test]
fn removed_legacy_and_spec_flags_exit_2() {
    let (_, err) = expect_exit(&["run", "e01", "--legacy"], 2);
    assert!(err.contains("unknown flag `--legacy`"), "{err}");
    let (_, err) = expect_exit(&["run", "e01", "--spec", "specs/e12.scn"], 2);
    assert!(err.contains("unknown flag `--spec`"), "{err}");
}

#[test]
fn unknown_spec_name_exits_1() {
    let (out, err) = expect_exit(&["run", "e99"], 1);
    assert!(out.is_empty(), "{out}");
    assert!(err.contains("no embedded spec of that name"), "{err}");
    // A typo anywhere in a multi-spec run fails before anything runs.
    let (out, _) = expect_exit(&["run", "e01", "e99"], 1);
    assert!(out.is_empty(), "{out}");
}

#[test]
fn inapplicable_override_exits_1() {
    let (_, err) = expect_exit(&["plan", "e03", "--threads", "3"], 1);
    assert!(err.contains("does not read --threads"), "{err}");
    let (_, err) = expect_exit(&["run", "e01", "--nodes", "100"], 1);
    assert!(err.contains("does not read --nodes"), "{err}");
}

#[test]
fn check_specs_dir_passes_every_spec() {
    let (out, _) = expect_exit(&["check", &specs_dir()], 0);
    assert_eq!(out.lines().filter(|l| l.starts_with("ok: ")).count(), 19);
    // Several specs share the flags: each compiles with the ones it reads.
    let (out, _) = expect_exit(&["check", &specs_dir(), "--nodes", "100"], 0);
    assert_eq!(out.lines().filter(|l| l.starts_with("ok: ")).count(), 19);
}

#[test]
fn list_names_every_embedded_spec() {
    let (out, _) = expect_exit(&["list"], 0);
    for n in 1..=19 {
        let name = format!("e{n:02}  ");
        assert!(
            out.lines().any(|l| l.starts_with(&name)),
            "missing {name}: {out}"
        );
    }
}

/// A multi-spec run hands each spec only the flags it reads, keeps going
/// past a failed experiment, and ends with a summary and exit code 1.
#[test]
fn multi_spec_run_summarizes_and_fails_on_any_failure() {
    let (out, _) = expect_exit(&["run", "e01", "e12", "--seeds", "11", "--nodes", "100"], 0);
    assert!(out.contains("=== campaign summary ==="), "{out}");
    for id in ["E1  ", "E12 "] {
        assert!(
            out.lines().any(|l| l.starts_with(id) && l.ends_with(" ok")),
            "{id}: {out}"
        );
    }

    let broken = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("broken_scalability.scn");
    std::fs::write(
        &broken,
        "scenario broken\ncampaign = scalability\n\n[world]\nkind = sharded\n",
    )
    .expect("write spec");
    let broken = broken.display().to_string();
    let (out, _) = expect_exit(&["run", &broken, "e01", "--seeds", "11"], 1);
    assert!(out.contains("needs a `nodes` axis"), "{out}");
    assert!(out.contains("=== E1: trace characteristics"), "{out}");
    assert!(out.contains("1 experiment(s) failed"), "{out}");
}
