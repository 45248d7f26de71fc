//! Parallel multi-seed execution and command-line overrides.
//!
//! Every multi-replication experiment runs the same closure once per seed
//! and folds the per-seed results in seed order. [`per_seed`] runs those
//! closures on one thread per seed and joins the handles *in seed order*,
//! so the merged results — and therefore every printed table — are
//! byte-identical to a serial run: simulators draw only from per-seed
//! [`RngFactory`](omn_sim::RngFactory) streams, threads share nothing, and
//! floating-point folds happen on the caller's thread in a fixed order.
//!
//! Command-line control is consolidated in [`CliOverrides`], parsed **once
//! per process** (`omn-scn` calls [`cli_init_from`], which rejects unknown flags
//! and malformed values with a one-line error plus usage on exit code 2;
//! library consumers such as tests and benches fall back to a lenient
//! parse that ignores harness flags). The scenario planner folds them into
//! every compiled spec; flags other than `--seeds`, `--serial` and
//! `--no-wall` apply only to the campaigns that read them. The flags
//! (honored by `omn-scn`):
//!
//! * `--seeds 11,23,37` (or `--seeds=11,23,37`) — replace the default
//!   [`SEEDS`](crate::SEEDS) set.
//! * `--nodes 100,1000` (or `--nodes=100,1000`) — replace the node-count
//!   sweep of experiments that scale with network size (E15, E18).
//! * `--trace path` (or `--trace=path`) — run the real-trace experiment
//!   (E16) on one dataset file instead of the built-in registry.
//! * `--trace-format name` (or `--trace-format=name`) — the dump format of
//!   `--trace` (`reality`, `haggle`, or `omn-v1`); sniffed from the file
//!   when omitted.
//! * `--serial` — run seeds sequentially on the calling thread (useful for
//!   profiling and for demonstrating serial/parallel equivalence).
//! * `--threads n` (or `--threads=n`) — generator threads for the
//!   window-barrier parallel contact pipeline (E15); 0 (default) keeps
//!   the classic serial source. Output is bit-identical either way.
//! * `--window-mins m` (or `--window-mins=m`) — barrier window of the
//!   parallel pipeline in simulated minutes (default: span/64).
//! * `--no-wall` — hide wall-clock columns so two runs can be
//!   byte-for-byte diffed (the CI determinism job, the spec goldens).
//! * `--headline` — run the single large headline point instead of the
//!   sweep (E15: 10⁶ nodes, one seed).

use std::sync::OnceLock;
use std::thread;

/// Runs `f` once per seed — in parallel, one thread per seed — and returns
/// the results in seed order.
///
/// Runs serially on the calling thread when only one seed is given or when
/// `--serial` is on the command line; the results are identical either way
/// (each closure invocation is independent, and joins happen in seed
/// order).
///
/// # Panics
///
/// Panics if `f` panics for any seed.
pub fn per_seed<T: Send>(seeds: &[u64], f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    if seeds.len() <= 1 || serial_requested() {
        return seeds.iter().map(|&s| f(s)).collect();
    }
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .map(|&seed| scope.spawn(move || f(seed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("seed worker panicked"))
            .collect()
    })
}

/// A `--trace` override: run the real-trace experiment on one dataset file
/// instead of the built-in registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOverride {
    /// Path of the dataset file.
    pub path: String,
    /// Dump-format name from `--trace-format`, if given (otherwise the
    /// experiment sniffs the format from the file).
    pub format: Option<String>,
}

/// Every command-line override a process honors, parsed **once**.
///
/// The fields overlay scenario specs with the precedence `CLI > spec >
/// driver default`: a `None`/`false` field means "the flag was absent,
/// use the spec's (or the experiment's) value".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CliOverrides {
    /// `--seeds a,b,c`: replacement seed set.
    pub seeds: Option<Vec<u64>>,
    /// `--nodes a,b,c`: replacement node-count sweep.
    pub nodes: Option<Vec<usize>>,
    /// `--serial`: run seed replications sequentially.
    pub serial: bool,
    /// `--threads n`: generator threads for the parallel contact pipeline.
    pub threads: Option<usize>,
    /// `--window-mins m`: barrier window of the parallel pipeline.
    pub window_mins: Option<f64>,
    /// `--no-wall`: hide wall-clock columns.
    pub no_wall: bool,
    /// `--headline`: run the single large headline point.
    pub headline: bool,
    /// `--trace path` (+ optional `--trace-format`): one dataset file.
    pub trace: Option<TraceOverride>,
}

/// One-line usage string printed with every flag error.
#[must_use]
pub fn usage() -> &'static str {
    "usage: [--seeds A,B,C] [--nodes A,B,C] \
     [--serial] [--threads N] [--window-mins M] [--no-wall] [--headline] \
     [--trace FILE [--trace-format reality|haggle|omn-v1]]"
}

impl CliOverrides {
    /// Parses a full argument list (without the program name).
    ///
    /// `strict` rejects unknown flags, positional arguments, and
    /// malformed values with a one-line message; lenient mode skips
    /// anything unrecognized (test and bench harnesses inject their own
    /// flags into `std::env::args`) but still applies every flag it does
    /// recognize.
    ///
    /// # Errors
    ///
    /// Returns the one-line diagnostic (no usage suffix) on the first
    /// unknown flag or malformed value in strict mode.
    pub fn parse<I: IntoIterator<Item = String>>(args: I, strict: bool) -> Result<Self, String> {
        let mut over = CliOverrides::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            // Split `--flag=value` once; `--flag value` pulls the next token.
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                None => (arg.clone(), None),
            };
            let mut value = |flag: &str| -> Result<String, String> {
                if let Some(v) = inline.clone() {
                    return Ok(v);
                }
                match args.next() {
                    Some(next) if !next.starts_with("--") => Ok(next),
                    _ => Err(format!("{flag} requires a value")),
                }
            };
            let result: Result<(), String> = match flag.as_str() {
                "--seeds" => value("--seeds").and_then(|v| {
                    parse_list(&v, "--seeds").map(|list| {
                        if !list.is_empty() {
                            over.seeds = Some(list);
                        }
                    })
                }),
                "--nodes" => value("--nodes").and_then(|v| {
                    parse_list::<u64>(&v, "--nodes").map(|list| {
                        if !list.is_empty() {
                            over.nodes = Some(list.into_iter().map(|n| n as usize).collect());
                        }
                    })
                }),
                "--serial" => {
                    over.serial = true;
                    Ok(())
                }
                "--threads" => value("--threads").and_then(|v| {
                    v.trim()
                        .parse()
                        .map(|n| over.threads = Some(n))
                        .map_err(|_| format!("--threads takes a thread count, got `{v}`"))
                }),
                "--window-mins" => {
                    value("--window-mins").and_then(|v| match v.trim().parse::<f64>() {
                        Ok(m) if m.is_finite() && m > 0.0 => {
                            over.window_mins = Some(m);
                            Ok(())
                        }
                        _ => Err(format!(
                            "--window-mins takes a positive minute count, got `{v}`"
                        )),
                    })
                }
                "--no-wall" => {
                    over.no_wall = true;
                    Ok(())
                }
                "--headline" => {
                    over.headline = true;
                    Ok(())
                }
                "--trace" => value("--trace").map(|v| {
                    let format = over.trace.take().and_then(|t| t.format);
                    over.trace = Some(TraceOverride { path: v, format });
                }),
                "--trace-format" => value("--trace-format").map(|v| match over.trace.take() {
                    Some(mut t) => {
                        t.format = Some(v);
                        over.trace = Some(t);
                    }
                    None => {
                        over.trace = Some(TraceOverride {
                            path: String::new(),
                            format: Some(v),
                        });
                    }
                }),
                _ if strict => Err(if flag.starts_with("--") {
                    format!("unknown flag `{flag}`")
                } else {
                    format!("unexpected argument `{flag}`")
                }),
                _ => Ok(()),
            };
            if let Err(e) = result {
                if strict {
                    return Err(e);
                }
            }
        }
        // `--trace-format` alone is not an override.
        if over.trace.as_ref().is_some_and(|t| t.path.is_empty()) {
            over.trace = None;
        }
        Ok(over)
    }
}

/// Parses a non-empty comma-separated list (empty input yields an empty
/// list, which callers treat as "flag absent").
fn parse_list<T: std::str::FromStr>(input: &str, flag: &str) -> Result<Vec<T>, String> {
    input
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse()
                .map_err(|_| format!("{flag} takes a comma-separated list of integers, got `{s}`"))
        })
        .collect()
}

static GLOBAL: OnceLock<CliOverrides> = OnceLock::new();

/// Parses `args` strictly, stores the result as the process-wide override
/// set, and returns it. `omn-scn` calls this with its flags (subcommand
/// and positional paths stripped); an unknown flag or malformed value
/// prints a one-line error with usage and exits with code 2.
pub fn cli_init_from(args: Vec<String>) -> &'static CliOverrides {
    match CliOverrides::parse(args, true) {
        Ok(over) => GLOBAL.get_or_init(|| over),
        Err(msg) => {
            eprintln!("error: {msg}\n{}", usage());
            std::process::exit(2);
        }
    }
}

/// The process-wide override set. `omn-scn` populates it via
/// [`cli_init_from`];
/// in any other host (tests, benches) the first call parses the process
/// arguments leniently, so harness flags are ignored instead of fatal.
#[must_use]
pub fn overrides() -> &'static CliOverrides {
    GLOBAL.get_or_init(|| {
        CliOverrides::parse(std::env::args().skip(1), false).expect("lenient parse never fails")
    })
}

/// Whether `--serial` is on the command line.
#[must_use]
pub fn serial_requested() -> bool {
    overrides().serial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SEEDS;

    fn strict(list: &[&str]) -> Result<CliOverrides, String> {
        CliOverrides::parse(list.iter().map(|s| (*s).to_owned()), true)
    }

    fn ok(list: &[&str]) -> CliOverrides {
        strict(list).expect("valid flags")
    }

    #[test]
    fn default_seeds_without_flag() {
        assert_eq!(ok(&[]).seeds, None);
        assert_eq!(ok(&["--serial"]).seeds, None);
    }

    #[test]
    fn parses_seed_list_forms() {
        assert_eq!(ok(&["--seeds", "1,2,3"]).seeds, Some(vec![1, 2, 3]));
        assert_eq!(ok(&["--seeds=7"]).seeds, Some(vec![7]));
        assert_eq!(ok(&["--seeds=4, 5"]).seeds, Some(vec![4, 5]));
    }

    #[test]
    fn empty_seed_list_falls_back_to_default() {
        assert_eq!(ok(&["--seeds="]).seeds, None);
    }

    #[test]
    fn trailing_seeds_flag_is_an_error() {
        let err = strict(&["--seeds"]).unwrap_err();
        assert!(err.contains("--seeds requires a value"), "{err}");
    }

    #[test]
    fn malformed_seed_list_is_an_error() {
        let err = strict(&["--seeds", "1,x,3"]).unwrap_err();
        assert!(err.contains("comma-separated list of integers"), "{err}");
    }

    #[test]
    fn parses_node_list_forms() {
        assert_eq!(ok(&["--nodes", "10,20"]).nodes, Some(vec![10, 20]));
        assert_eq!(ok(&["--nodes=316"]).nodes, Some(vec![316]));
        assert_eq!(ok(&[]).nodes, None);
        assert_eq!(ok(&["--nodes="]).nodes, None);
        // `--seeds` and `--nodes` coexist without stealing each other's
        // values.
        let both = ok(&["--seeds", "1,2", "--nodes", "50"]);
        assert_eq!(both.nodes, Some(vec![50]));
        assert_eq!(both.seeds, Some(vec![1, 2]));
    }

    #[test]
    fn malformed_node_list_is_an_error() {
        let err = strict(&["--nodes", "100,big,300"]).unwrap_err();
        assert!(
            err.contains("--nodes takes a comma-separated list of integers"),
            "{err}"
        );
    }

    #[test]
    fn parses_trace_override_forms() {
        assert_eq!(ok(&[]).trace, None);
        assert_eq!(
            ok(&["--trace", "datasets/reality.csv"]).trace,
            Some(TraceOverride {
                path: "datasets/reality.csv".to_owned(),
                format: None,
            })
        );
        assert_eq!(
            ok(&["--trace=a.dat", "--trace-format", "haggle"]).trace,
            Some(TraceOverride {
                path: "a.dat".to_owned(),
                format: Some("haggle".to_owned()),
            })
        );
        // Flag order must not matter.
        assert_eq!(
            ok(&["--trace-format", "haggle", "--trace", "a.dat"]).trace,
            Some(TraceOverride {
                path: "a.dat".to_owned(),
                format: Some("haggle".to_owned()),
            })
        );
        // `--trace-format` alone is not an override.
        assert_eq!(ok(&["--trace-format", "haggle"]).trace, None);
    }

    #[test]
    fn trailing_trace_flag_is_an_error() {
        let err = strict(&["--trace"]).unwrap_err();
        assert!(err.contains("--trace requires a value"), "{err}");
        let err = strict(&["--trace", "--trace-format", "haggle"]).unwrap_err();
        assert!(err.contains("--trace requires a value"), "{err}");
    }

    #[test]
    fn parses_threads_and_window_forms() {
        assert_eq!(ok(&[]).threads, None);
        assert_eq!(ok(&["--threads", "4"]).threads, Some(4));
        assert_eq!(ok(&["--threads=2"]).threads, Some(2));
        assert_eq!(ok(&[]).window_mins, None);
        assert_eq!(ok(&["--window-mins", "73"]).window_mins, Some(73.0));
        assert_eq!(ok(&["--window-mins=7.5"]).window_mins, Some(7.5));
        let both = ok(&["--window-mins", "73", "--threads", "2"]);
        assert_eq!(both.threads, Some(2));
        assert_eq!(both.window_mins, Some(73.0));
    }

    #[test]
    fn malformed_threads_flag_is_a_clean_error() {
        // Historically `--threads abc` panicked inside the parser; it is
        // now a one-line usage error.
        let err = strict(&["--threads", "abc"]).unwrap_err();
        assert!(err.contains("--threads takes a thread count"), "{err}");
    }

    #[test]
    fn nonpositive_window_flag_is_an_error() {
        let err = strict(&["--window-mins", "0"]).unwrap_err();
        assert!(
            err.contains("--window-mins takes a positive minute count"),
            "{err}"
        );
    }

    #[test]
    fn unknown_flag_is_an_error_in_strict_mode_only() {
        let err = strict(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag `--frobnicate`"), "{err}");
        let err = strict(&["positional"]).unwrap_err();
        assert!(err.contains("unexpected argument `positional`"), "{err}");
        // Lenient mode (test harnesses inject their own flags) skips them
        // but still honors everything recognized.
        let over = CliOverrides::parse(
            ["--test-threads", "4", "--seeds", "1,2"].map(String::from),
            false,
        )
        .expect("lenient never fails");
        assert_eq!(over.seeds, Some(vec![1, 2]));
    }

    #[test]
    fn removed_spec_and_legacy_flags_are_unknown() {
        for flag in ["--legacy", "--spec"] {
            let err = strict(&[flag]).unwrap_err();
            assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
        }
    }

    #[test]
    fn per_seed_preserves_seed_order() {
        let seeds: Vec<u64> = (0..32).collect();
        let results = per_seed(&seeds, |s| s * s);
        assert_eq!(results, seeds.iter().map(|s| s * s).collect::<Vec<_>>());
    }

    #[test]
    fn per_seed_matches_serial_map() {
        // The parallel path must merge to exactly what a serial map
        // produces, including f64 bit patterns.
        let seeds = SEEDS.to_vec();
        let serial: Vec<f64> = seeds.iter().map(|&s| (s as f64).sqrt().sin()).collect();
        let parallel = per_seed(&seeds, |s| (s as f64).sqrt().sin());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
