//! `omn-scn` — the experiment CLI: lint, plan, and run the `.scn`
//! scenario specs that define every experiment.
//!
//! ```text
//! omn-scn check <path|dir> …         parse + compile every spec; exit 1 on error
//! omn-scn plan <file|name>           print the compiled campaign plan
//! omn-scn run <file|name|all> … [..] compile and execute specs in order
//! omn-scn list                       list the embedded specs
//! ```
//!
//! Positional paths come right after the subcommand; everything from the
//! first `--flag` on is the standard override set (`--seeds`, `--threads`,
//! `--no-wall`, …), applied with the usual `CLI > spec > default`
//! precedence. `plan` and `run` also accept an embedded spec name (`e01`
//! … `e19`) instead of a file path; `run all` runs every embedded spec.
//!
//! The campaign-scoped flags (`--nodes`, `--threads`, `--window-mins`,
//! `--headline`, `--trace`) are an error on a single spec whose campaign
//! does not read them; `check` and `run` over several specs hand each
//! spec only the flags its campaign reads. A multi-spec `run` isolates
//! every experiment under `catch_unwind`, keeps going past a failure,
//! ends with a per-experiment timing summary, and exits 1 if any
//! experiment failed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

use omn_bench::scenario::{
    compile, embedded, execute, parse, scope_overrides, CampaignPlan, ScenarioError, EMBEDDED,
};
use omn_bench::{cli_init_from, usage, CliOverrides};

const HELP: &str = "usage: omn-scn <subcommand> [paths…] [flags…]\n\
  check <path|dir> …         parse + compile every spec (exit 1 on any error)\n\
  plan  <file|name>          print the compiled campaign plan\n\
  run   <file|name|all> …    compile and execute specs in order\n\
  list                       list the specs embedded in this binary";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{HELP}");
        exit(2);
    }
    let cmd = args.remove(0);
    // Positionals lead; the tail from the first `--flag` on is overrides.
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let flags = args.split_off(split);
    let paths = args;
    match cmd.as_str() {
        "check" => check(&paths, flags),
        "plan" => plan(&paths, flags),
        "run" => run(&paths, flags),
        "list" => list(&paths),
        other => {
            eprintln!("error: unknown subcommand `{other}`\n{HELP}");
            exit(2);
        }
    }
}

/// Loads a spec argument: a file path, or the name of an embedded spec.
fn load(arg: &str) -> Result<String, String> {
    let path = Path::new(arg);
    if path.is_file() {
        return std::fs::read_to_string(path).map_err(|e| format!("{arg}: {e}"));
    }
    match embedded(arg) {
        Some(text) => Ok(text.to_owned()),
        None => Err(format!(
            "{arg}: no such file, and no embedded spec of that name \
             (try `omn-scn list`)"
        )),
    }
}

/// Parses and compiles one spec. `scoped` first drops the
/// campaign-scoped flags its campaign does not read (several specs share
/// one command line).
fn compile_spec(
    text: &str,
    overrides: &CliOverrides,
    scoped: bool,
) -> Result<CampaignPlan, ScenarioError> {
    let spec = parse(text)?;
    if scoped {
        compile(&spec, &scope_overrides(overrides, spec.campaign))
    } else {
        compile(&spec, overrides)
    }
}

/// Expands a `check` argument: a directory becomes its sorted `*.scn`
/// entries, anything else stays itself.
fn expand(arg: &str) -> Result<Vec<PathBuf>, String> {
    let path = Path::new(arg);
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut found: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{arg}: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    found.sort();
    if found.is_empty() {
        return Err(format!("{arg}: no .scn files in directory"));
    }
    Ok(found)
}

fn check(paths: &[String], flags: Vec<String>) {
    if paths.is_empty() {
        eprintln!("error: check needs at least one spec file or directory\n{HELP}");
        exit(2);
    }
    let overrides = cli_init_from(flags);
    let mut bad = 0usize;
    let mut files = Vec::new();
    for arg in paths {
        match expand(arg) {
            Ok(found) => files.extend(found),
            Err(msg) => {
                println!("error: {msg}");
                bad += 1;
            }
        }
    }
    let scoped = files.len() > 1;
    for file in files {
        let shown = file.display();
        match std::fs::read_to_string(&file) {
            Err(e) => {
                println!("error: {shown}: {e}");
                bad += 1;
            }
            Ok(text) => match compile_spec(&text, overrides, scoped) {
                Ok(plan) => println!(
                    "ok: {shown} (scenario {}, {} points)",
                    plan.spec.name,
                    plan.points.len()
                ),
                Err(err) => {
                    println!("error: {shown}: {err}");
                    bad += 1;
                }
            },
        }
    }
    if bad > 0 {
        eprintln!("{bad} spec(s) failed to compile");
        exit(1);
    }
}

fn plan(paths: &[String], flags: Vec<String>) {
    let [arg] = paths else {
        eprintln!("error: plan takes exactly one spec file or embedded name\n{HELP}");
        exit(2);
    };
    let overrides = cli_init_from(flags);
    let text = load(arg).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        exit(1);
    });
    match compile_spec(&text, overrides, false) {
        Ok(plan) => print!("{}", plan.render_summary()),
        Err(err) => {
            eprintln!("error: {arg}: {err}");
            exit(1);
        }
    }
}

fn run(paths: &[String], flags: Vec<String>) {
    if paths.is_empty() {
        eprintln!("error: run needs at least one spec file, embedded name, or `all`\n{HELP}");
        exit(2);
    }
    let overrides = cli_init_from(flags);
    let args: Vec<&str> = paths
        .iter()
        .flat_map(|arg| match arg.as_str() {
            "all" => EMBEDDED.iter().map(|&(name, _)| name).collect(),
            one => vec![one],
        })
        .collect();
    // Load everything first so a typo fails before hours of simulation.
    let specs: Vec<(&str, String)> = args
        .iter()
        .map(|&arg| match load(arg) {
            Ok(text) => (arg, text),
            Err(msg) => {
                eprintln!("error: {msg}");
                exit(1);
            }
        })
        .collect();
    if let [(arg, text)] = specs.as_slice() {
        match compile_spec(text, overrides, false) {
            Ok(plan) => execute(&plan),
            Err(err) => {
                eprintln!("error: {arg}: {err}");
                exit(1);
            }
        }
        return;
    }
    run_campaign(&specs, overrides);
}

/// Runs several specs in order, each under `catch_unwind`, then prints a
/// per-experiment timing summary; exits 1 if any experiment failed.
fn run_campaign(specs: &[(&str, String)], overrides: &CliOverrides) {
    let mut timings: Vec<(String, f64, bool)> = Vec::new();
    for (arg, text) in specs {
        let id = label(arg);
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            compile_spec(text, overrides, true)
                .map(|plan| execute(&plan))
                .map_err(|err| format!("{arg}: {err}"))
        }));
        let secs = start.elapsed().as_secs_f64();
        let error = match outcome {
            Ok(Ok(())) => None,
            Ok(Err(msg)) => Some(msg),
            Err(payload) => Some(panic_message(&*payload).to_owned()),
        };
        if let Some(msg) = &error {
            println!("\n!!! {id} FAILED after {secs:.1} s: {msg}");
        }
        timings.push((id, secs, error.is_none()));
    }

    println!("\n=== campaign summary ===");
    for (id, secs, ok) in &timings {
        println!(
            "{id:<4} {secs:>8.1} s  {}",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let failed: Vec<&str> = timings
        .iter()
        .filter(|(_, _, ok)| !ok)
        .map(|(id, _, _)| id.as_str())
        .collect();
    if !failed.is_empty() {
        println!(
            "\n{} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        exit(1);
    }
}

/// The summary label of a spec argument: `E6` for the embedded spec
/// `e06`, otherwise the argument itself.
fn label(arg: &str) -> String {
    match arg.strip_prefix('e').map(str::parse::<u32>) {
        Some(Ok(n)) if embedded(arg).is_some() => format!("E{n}"),
        _ => arg.to_owned(),
    }
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

fn list(paths: &[String]) {
    if !paths.is_empty() {
        eprintln!("error: list takes no arguments\n{HELP}");
        exit(2);
    }
    let overrides = CliOverrides::default();
    for (name, text) in EMBEDDED {
        match compile_spec(text, &overrides, false) {
            Ok(plan) => println!(
                "{name}  {} — {}",
                plan.spec.campaign,
                plan.spec.title.as_deref().unwrap_or("(untitled)")
            ),
            Err(err) => println!("{name}  (broken embedded spec: {err})"),
        }
    }
    println!("\noverride flags (plan/run/check): {}", usage());
}
