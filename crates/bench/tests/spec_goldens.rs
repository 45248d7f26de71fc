//! End-to-end goldens of every committed experiment: runs the `omn-scn`
//! binary on each embedded spec at seed 11 with `--no-wall` and compares
//! its stdout byte-for-byte with `tests/golden/<name>_seed11.txt`.
//!
//! These pin the printed tables of the whole campaign — the only
//! experiment path — so any change to a spec, a campaign driver, or the
//! simulators beneath them that moves a printed number fails here. To
//! (re-)record after an intentional change:
//!
//! ```text
//! OMN_BLESS_GOLDEN=1 cargo test -p omn-bench --test spec_goldens
//! ```
//!
//! E15 and E18 run their node sweeps at 100 nodes only. E16's fixture
//! paths are pinned relative to `<repo>`, the repository root. E18's
//! firehose leg exchanges a scheduling-dependent number of wire messages,
//! so only its lockstep leg is pinned (the firehose leg still runs and
//! must exit cleanly).

use std::process::Command;

use omn_bench::experiments::e16_real_traces::repo_root;
use omn_bench::golden::check_golden;
use omn_bench::scenario::EMBEDDED;

/// Every pinned spec and its extra flags, in campaign order.
const PINNED: [(&str, &[&str]); 19] = [
    ("e01", &[]),
    ("e02", &[]),
    ("e03", &[]),
    ("e04", &[]),
    ("e05", &[]),
    ("e06", &[]),
    ("e07", &[]),
    ("e08", &[]),
    ("e09", &[]),
    ("e10", &[]),
    ("e11", &[]),
    ("e12", &[]),
    ("e13", &[]),
    ("e14", &[]),
    ("e15", &["--nodes", "100"]),
    ("e16", &[]),
    ("e17", &[]),
    ("e18", &["--nodes", "100"]),
    ("e19", &[]),
];

/// Runs `omn-scn run <name> --seeds 11 --no-wall <extra…>` and returns
/// its stdout.
fn run_spec(name: &str) -> String {
    let extra = PINNED
        .iter()
        .find(|(id, _)| *id == name)
        .map(|(_, extra)| *extra)
        .unwrap_or_else(|| panic!("`{name}` is not pinned"));
    let out = Command::new(env!("CARGO_BIN_EXE_omn-scn"))
        .args(["run", name, "--seeds", "11", "--no-wall"])
        .args(extra)
        .output()
        .expect("spawn omn-scn");
    assert!(
        out.status.success(),
        "omn-scn run {name} failed ({}):\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    // E16 names its fixture files by absolute path; pin them relative to
    // the repository root so the goldens hold in any checkout.
    let root = repo_root().display().to_string();
    stdout.replace(&root, "<repo>")
}

fn check(name: &str) {
    check_golden(&format!("{name}_seed11.txt"), &run_spec(name));
}

/// The E18 output up to its firehose table (the lockstep leg).
fn lockstep_leg(out: &str) -> &str {
    let cut = out
        .find("\nnodes ")
        .expect("E18 prints a firehose table after the lockstep leg");
    &out[..=cut]
}

macro_rules! spec_golden {
    ($($test:ident => $name:literal),* $(,)?) => {$(
        #[test]
        fn $test() {
            check($name);
        }
    )*};
}

spec_golden! {
    e01_output => "e01",
    e02_output => "e02",
    e03_output => "e03",
    e04_output => "e04",
    e05_output => "e05",
    e06_output => "e06",
    e07_output => "e07",
    e08_output => "e08",
    e09_output => "e09",
    e10_output => "e10",
    e11_output => "e11",
    e12_output => "e12",
    e13_output => "e13",
    e14_output => "e14",
    e15_output => "e15",
    e16_output => "e16",
    e17_output => "e17",
    e19_output => "e19",
}

#[test]
fn e18_output() {
    check_golden("e18_seed11.txt", lockstep_leg(&run_spec("e18")));
}

/// Every embedded spec is pinned, in embedding order.
#[test]
fn every_embedded_spec_is_pinned() {
    let embedded: Vec<&str> = EMBEDDED.iter().map(|(name, _)| *name).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(embedded, pinned);
}
