//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process, repeating it until `--seconds` have
//! passed (at least twice per kind, so the determinism gate always has a
//! pair),
//! checks every repetition's outputs, and prints two JSON lines on
//! stdout: the run manifest, then the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics (medians over repetitions); `--trace 1`
//! alternates untimed and timed repetitions and reports the per-layer
//! metrics of the median timed repetition, so its layer self times add
//! up to its run span exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use omn_bench::experiments::e19_bandwidth::{BUDGET, LOAD, QUEUE_DEPTH, REFRESH_BYTES};
use omn_perfbench::workload::{
    firehose_rep, joint_fingerprint, joint_world, stream_fingerprint, stream_rep, JointWorld,
    FIREHOSE_NODES, JOINT_BANDWIDTH, JOINT_CATALOG, JOINT_DEADLINE_H, JOINT_WORLDS, STREAM_NODES,
};

/// Repetitions every run makes, whatever `--seconds` says.
const MIN_REPS: usize = 2;

/// The golden the first `joint-bytes` world at seed 11 must reproduce.
const E19_GOLDEN: &str = include_str!("../../crates/bench/tests/golden/e19_headline.txt");

const WORKLOADS: [&str; 3] = ["stream-10k", "joint-bytes", "firehose-3k"];

const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("contacts_per_s", "1/s"),
    ("msgs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

const PER_LAYER: [(&str, &str); 30] = [
    ("contacts.gen_ns_per_contact", "ns"),
    ("contacts.warmup_s", "s"),
    ("core.select_roles_s", "s"),
    ("core.scheme_ns_per_contact", "ns"),
    ("core.scheme_calls", "count"),
    ("sim.kernel_ns_per_contact", "ns"),
    ("core.run_streamed_ns_per_contact", "ns"),
    ("contacts.peak_resident", "count"),
    ("contacts.trace_gen_s", "s"),
    ("caching.workload_gen_s", "s"),
    ("core.joint_ns_per_contact", "ns"),
    ("sim.budget_deferred", "count"),
    ("sim.byte_deferred", "count"),
    ("sim.link_enqueued_msgs", "count"),
    ("sim.link_drained_msgs", "count"),
    ("sim.link_discarded_msgs", "count"),
    ("sim.link_dropped_msgs", "count"),
    ("sim.link_max_depth", "count"),
    ("caching.success_ratio", "ratio"),
    ("core.refresh_tx", "count"),
    ("caching.tx", "count"),
    ("node.feed_gen_ns_per_contact", "ns"),
    ("node.dispatch_ns_per_contact", "ns"),
    ("node.spawn_teardown_s", "s"),
    ("node.msgs_per_contact", "msg/contact"),
    ("node.bytes_per_msg", "B"),
    ("node.decode_errors", "count"),
    ("node.channel_errors", "count"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
#[derive(Default)]
struct Outcome {
    /// Operations attempted (contacts, or wire messages on firehose).
    attempted: u64,
    /// Operations failed: oracle violations, codec and channel errors,
    /// and one per failed gate check.
    failed: u64,
    /// Descriptions of the failed checks.
    failures: Vec<String>,
    /// End-to-end samples, one per untimed repetition.
    e2e: BTreeMap<&'static str, Vec<f64>>,
    /// Run-phase seconds of every timed repetition, with its layer
    /// metrics.
    traced: Vec<(f64, BTreeMap<&'static str, f64>)>,
    /// Workload parameters for the manifest.
    params: Vec<(&'static str, String)>,
    /// Repetitions made (untimed + timed).
    reps: usize,
}

impl Outcome {
    fn check(&mut self, ok: bool, failed_ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += failed_ops.max(1);
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.failures.push(msg);
        }
    }

    fn sample(&mut self, metric: &'static str, value: f64) {
        self.e2e.entry(metric).or_default().push(value);
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Repeats `rep(timed)` until `seconds` have passed and at least
/// [`MIN_REPS`] repetitions of each kind ran; a traced run alternates
/// untimed and timed repetitions.
fn repeat(args: &Args, out: &mut Outcome, mut rep: impl FnMut(&mut Outcome, bool)) {
    let start = Instant::now();
    let min_reps = MIN_REPS * (1 + usize::from(args.trace));
    let mut timed = false;
    while out.reps < min_reps || start.elapsed().as_secs_f64() < args.seconds {
        out.reps += 1;
        rep(out, timed);
        let run_s = if timed {
            out.traced.last().map(|t| t.0)
        } else {
            out.e2e.get("run_s").and_then(|v| v.last().copied())
        };
        eprintln!(
            "perfbench: repetition {} ({}) run phase {:.4} s",
            out.reps,
            if timed { "timed" } else { "untimed" },
            run_s.unwrap_or(f64::NAN)
        );
        timed = args.trace && !timed;
    }
}

fn run_stream(args: &Args, out: &mut Outcome) {
    out.params = vec![
        ("nodes", STREAM_NODES.to_string()),
        (
            "world",
            "scale_config(10000), serial ShardedCommunitySource".into(),
        ),
        ("scheme", "hierarchical".into()),
        (
            "config",
            "E15 sweep: estimated planning, 6 h rebuilds, 8 caching nodes, no queries".into(),
        ),
        ("warmup", "6 h streamed role selection".into()),
    ];
    let mut first: Option<Vec<u64>> = None;
    repeat(args, out, |out, timed| {
        let rep = stream_rep(STREAM_NODES, args.seed, timed);
        let contacts = rep.stats.contacts_total as u64;
        let n = out.reps;
        out.attempted += contacts;
        let fp = stream_fingerprint(&rep.report, &rep.stats);
        let same = first.get_or_insert_with(|| fp.clone()) == &fp;
        out.check(same, contacts, || {
            format!("repetition {n} differs from the first")
        });
        let violations = rep.report.oracle.total();
        out.check(violations == 0, violations, || {
            format!("{violations} oracle violations")
        });
        out.check(
            rep.gen_calls == contacts,
            contacts.abs_diff(rep.gen_calls),
            || {
                format!(
                    "source yielded {} contacts, driver pulled {contacts}",
                    rep.gen_calls
                )
            },
        );
        let per_contact = |s: f64| s * 1e9 / contacts.max(1) as f64;
        if timed {
            let layers = BTreeMap::from([
                ("contacts.gen_ns_per_contact", per_contact(rep.gen_s)),
                ("contacts.warmup_s", rep.warmup_gen_s),
                ("core.select_roles_s", rep.select_s - rep.warmup_gen_s),
                ("core.scheme_ns_per_contact", per_contact(rep.scheme_s)),
                ("core.scheme_calls", rep.scheme_calls as f64),
                (
                    "sim.kernel_ns_per_contact",
                    per_contact(rep.run_s - rep.gen_s - rep.scheme_s),
                ),
                ("core.run_streamed_ns_per_contact", per_contact(rep.run_s)),
                ("contacts.peak_resident", rep.stats.peak_resident as f64),
                ("core.refresh_tx", rep.report.transmissions as f64),
            ]);
            out.traced.push((rep.run_s, layers));
        } else {
            out.sample("setup_s", rep.setup_s);
            out.sample("run_s", rep.run_s);
            out.sample("contacts_per_s", contacts as f64 / rep.run_s);
            let msgs = contacts + rep.report.transmissions;
            out.sample("msgs_per_s", msgs as f64 / rep.run_s);
        }
    });
}

/// Parses the `bw16_*` lines of the E19 golden into (key, bits).
fn golden_bw16() -> Vec<(&'static str, u64)> {
    E19_GOLDEN
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let key = parts.next()?.strip_prefix("bw16_")?;
            let bits = parts.nth(1)?.strip_prefix("bits=")?;
            Some((key, u64::from_str_radix(bits, 16).ok()?))
        })
        .collect()
}

fn check_golden(out: &mut Outcome, w: &JointWorld) {
    let r = &w.report;
    let link = r.link.unwrap_or_default();
    let golden = golden_bw16();
    out.check(!golden.is_empty(), 1, || {
        "no bw16_* lines in the E19 golden".into()
    });
    for (key, bits) in golden {
        let got = match key {
            "mean_freshness" => r.mean_freshness().unwrap_or(f64::NAN),
            "success" => r.access.success_ratio(),
            "byte_deferred" => r.access.extras.get("byte-deferred-transmissions") as f64,
            "queued" => link.enqueued_msgs as f64,
            "peak_bytes" => r.max_contact_bytes as f64,
            _ => continue,
        };
        out.check(got.to_bits() == bits, 1, || {
            format!("seed 11 bw16_{key} is {got}, the E19 golden pins bits {bits:016x}")
        });
    }
}

fn check_joint(out: &mut Outcome, w: &JointWorld) {
    let r = &w.report;
    let violations = r.oracle.total()
        + r.freshness
            .iter()
            .map(|(_, f)| f.oracle.total())
            .sum::<u64>();
    out.check(violations == 0, violations, || {
        format!("seed {}: {violations} oracle violations", w.seed)
    });
    let Some(l) = r.link else {
        out.check(false, 1, || format!("seed {}: no link statistics", w.seed));
        return;
    };
    // Every queued message is one refresh frame, so bytes follow counts,
    // and a queue can only hand out what it accepted.
    let frame = REFRESH_BYTES;
    let conserved = l.enqueued_bytes == l.enqueued_msgs * frame
        && l.drained_bytes == l.drained_msgs * frame
        && l.discarded_bytes == l.discarded_msgs * frame
        && l.dropped_bytes == l.dropped_msgs * frame
        && l.drained_bytes + l.discarded_bytes <= l.enqueued_bytes;
    out.check(conserved, 1, || {
        format!("seed {}: link bytes not conserved: {l:?}", w.seed)
    });
}

fn run_joint(args: &Args, out: &mut Outcome) {
    out.params = vec![
        (
            "worlds",
            format!("{JOINT_WORLDS} consecutive seeds from --seed"),
        ),
        ("trace", "infocom-like".into()),
        ("load", LOAD.to_string()),
        ("budget", BUDGET.to_string()),
        ("bandwidth_bps", JOINT_BANDWIDTH.to_string()),
        ("refresh_bytes", REFRESH_BYTES.to_string()),
        ("queue_depth", QUEUE_DEPTH.to_string()),
        ("policy", "lru".into()),
        ("catalog", JOINT_CATALOG.to_string()),
        ("deadline_h", JOINT_DEADLINE_H.to_string()),
        ("priority", "query-first".into()),
    ];
    let mut first: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut golden_checked = false;
    repeat(args, out, |out, timed| {
        let n = out.reps;
        let mut sum = JointSums::default();
        for seed in args.seed..args.seed + JOINT_WORLDS {
            let w = joint_world(seed);
            out.attempted += w.contacts;
            let fp = joint_fingerprint(&w.report);
            let same = first.entry(seed).or_insert_with(|| fp.clone()) == &fp;
            out.check(same, w.contacts, || {
                format!("seed {seed}: repetition {n} differs from the first")
            });
            check_joint(out, &w);
            if seed == 11 && !golden_checked {
                check_golden(out, &w);
                golden_checked = true;
            }
            sum.add(&w);
        }
        if timed {
            out.traced.push((sum.run_s, sum.layers()));
        } else {
            out.sample("setup_s", sum.trace_gen_s + sum.workload_gen_s);
            out.sample("run_s", sum.run_s);
            out.sample("contacts_per_s", sum.contacts as f64 / sum.run_s);
            let msgs = sum.contacts + sum.refresh_tx + sum.caching_tx;
            out.sample("msgs_per_s", msgs as f64 / sum.run_s);
        }
    });
}

/// A `joint-bytes` repetition summed over its worlds.
#[derive(Default)]
struct JointSums {
    trace_gen_s: f64,
    workload_gen_s: f64,
    run_s: f64,
    contacts: u64,
    refresh_tx: u64,
    caching_tx: u64,
    created: u64,
    satisfied: u64,
    budget_deferred: u64,
    byte_deferred: u64,
    link: omn_sim::LinkStats,
}

impl JointSums {
    fn add(&mut self, w: &JointWorld) {
        let r = &w.report;
        self.trace_gen_s += w.trace_gen_s;
        self.workload_gen_s += w.workload_gen_s;
        self.run_s += w.run_s;
        self.contacts += w.contacts;
        self.refresh_tx += r
            .freshness
            .iter()
            .map(|(_, f)| f.transmissions)
            .sum::<u64>();
        self.caching_tx += r.access.transmissions;
        self.created += r.access.created as u64;
        self.satisfied += r.access.satisfied as u64;
        self.budget_deferred += r.access.extras.get("budget-deferred-transmissions");
        self.byte_deferred += r.access.extras.get("byte-deferred-transmissions");
        if let Some(l) = &r.link {
            self.link.merge(l);
        }
    }

    fn layers(&self) -> BTreeMap<&'static str, f64> {
        let l = &self.link;
        BTreeMap::from([
            ("contacts.trace_gen_s", self.trace_gen_s),
            ("caching.workload_gen_s", self.workload_gen_s),
            (
                "core.joint_ns_per_contact",
                self.run_s * 1e9 / self.contacts.max(1) as f64,
            ),
            ("sim.budget_deferred", self.budget_deferred as f64),
            ("sim.byte_deferred", self.byte_deferred as f64),
            ("sim.link_enqueued_msgs", l.enqueued_msgs as f64),
            ("sim.link_drained_msgs", l.drained_msgs as f64),
            ("sim.link_discarded_msgs", l.discarded_msgs as f64),
            ("sim.link_dropped_msgs", l.dropped_msgs as f64),
            ("sim.link_max_depth", l.max_depth as f64),
            (
                "caching.success_ratio",
                self.satisfied as f64 / self.created.max(1) as f64,
            ),
            ("core.refresh_tx", self.refresh_tx as f64),
            ("caching.tx", self.caching_tx as f64),
        ])
    }
}

/// Executor workers that leave one core to the supervisor thread.
fn firehose_workers(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

fn run_firehose(args: &Args, out: &mut Outcome, nproc: usize) {
    let workers = firehose_workers(nproc);
    out.params = vec![
        ("nodes", FIREHOSE_NODES.to_string()),
        (
            "world",
            "scale_config(3162), serial ShardedCommunitySource".into(),
        ),
        ("mode", "epidemic".into()),
        ("root", "0".into()),
        ("members", "1..=8".into()),
    ];
    let mut first_linkups = None;
    repeat(args, out, |out, timed| {
        let rep = firehose_rep(FIREHOSE_NODES, args.seed, workers, timed);
        let r = &rep.report;
        out.attempted += r.messages_sent;
        out.check(
            r.messages_sent == r.messages_received,
            r.messages_sent.abs_diff(r.messages_received),
            || {
                format!(
                    "sent {} wire messages, received {}",
                    r.messages_sent, r.messages_received
                )
            },
        );
        let errors = r.decode_errors + r.channel_errors;
        out.check(errors == 0, errors, || {
            format!(
                "{} decode and {} channel errors",
                r.decode_errors, r.channel_errors
            )
        });
        out.check(
            r.contacts == rep.feed_calls,
            r.contacts.abs_diff(rep.feed_calls),
            || {
                format!(
                    "{} link-ups from a {}-contact stream",
                    r.contacts, rep.feed_calls
                )
            },
        );
        let linkups = *first_linkups.get_or_insert(r.contacts);
        out.check(linkups == r.contacts, 1, || {
            format!(
                "{} link-ups, the first repetition had {linkups}",
                r.contacts
            )
        });
        let elapsed = r.elapsed.as_secs_f64();
        let spawn_teardown = rep.wall_s - elapsed;
        if timed {
            let per_contact = |s: f64| s * 1e9 / r.contacts.max(1) as f64;
            let layers = BTreeMap::from([
                ("contacts.gen_ns_per_contact", per_contact(rep.feed_s)),
                ("node.feed_gen_ns_per_contact", per_contact(rep.feed_s)),
                (
                    "node.dispatch_ns_per_contact",
                    per_contact(elapsed - rep.feed_s),
                ),
                ("node.spawn_teardown_s", spawn_teardown),
                (
                    "node.msgs_per_contact",
                    r.messages_received as f64 / r.contacts.max(1) as f64,
                ),
                (
                    "node.bytes_per_msg",
                    r.bytes_sent as f64 / r.messages_sent.max(1) as f64,
                ),
                ("node.decode_errors", r.decode_errors as f64),
                ("node.channel_errors", r.channel_errors as f64),
            ]);
            out.traced.push((elapsed, layers));
        } else {
            out.sample("setup_s", spawn_teardown);
            out.sample("run_s", elapsed);
            out.sample("contacts_per_s", r.contacts as f64 / elapsed);
            out.sample("msgs_per_s", r.messages_received as f64 / elapsed);
        }
    });
}

/// Peak resident set size of this process, MB (VmHWM).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

fn manifest(args: &Args, out: &Outcome, nproc: usize) -> String {
    let params: Vec<String> = out
        .params
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"manifest\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"params\": {{{}}}, \"oracle_mode\": \"campaign\", \"nproc\": {nproc}, \
         \"executor_workers\": {}, \"repetitions\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"failures\": [{}]}}}}",
        json_str(args.workload),
        args.seed,
        args.seconds,
        args.trace,
        params.join(", "),
        if args.workload == "firehose-3k" {
            firehose_workers(nproc).to_string()
        } else {
            "null".into()
        },
        out.reps,
        json_str(&env_or_unknown("PERFBENCH_RUSTC")),
        json_str(&env_or_unknown("PERFBENCH_COMMIT")),
        failures.join(", "),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> \
                 [--seconds <s>] [--trace <0|1>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = Outcome::default();
    match args.workload {
        "stream-10k" => run_stream(&args, &mut out),
        "joint-bytes" => run_joint(&args, &mut out),
        _ => run_firehose(&args, &mut out, nproc),
    }

    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        let untimed_run_s = median(out.e2e.get("run_s").map_or(&[][..], Vec::as_slice));
        // The median timed repetition by run span (the lower one of an
        // even count), so its layer numbers come from one run.
        let mut traced = std::mem::take(&mut out.traced);
        traced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (run_s, layers) = traced.swap_remove((traced.len() - 1) / 2);
        metrics.extend(layers);
        metrics.insert("trace.overhead_frac", run_s / untimed_run_s - 1.0);
        metrics.insert(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    } else {
        for (name, samples) in &out.e2e {
            metrics.insert(name, median(samples));
        }
        match peak_rss_mb() {
            Ok(mb) => {
                metrics.insert("peak_rss_mb", mb);
            }
            Err(e) => out.check(false, 1, || e),
        }
    }
    // A layer the workload does not exercise reads 0.
    let mut body = Vec::new();
    for (name, unit) in units {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        out.check(value.is_finite(), 1, || format!("{name} is not finite"));
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!("{}", manifest(&args, &out, nproc));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
