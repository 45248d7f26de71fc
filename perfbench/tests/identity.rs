//! The benchmark measures the simulator it claims to measure: its timing
//! wrappers perturb nothing, and its workloads are the experiments they
//! are named after.

use omn_bench::experiments::e15_scalability::{run_point, scale_config};
use omn_bench::experiments::e19_bandwidth::{
    bandwidth_run, BUDGET, LOAD, QUEUE_DEPTH, REFRESH_BYTES,
};
use omn_caching::policy::PolicyChoice;
use omn_contacts::synth::presets::TracePreset;
use omn_contacts::synth::sharded::ShardedCommunitySource;
use omn_core::sim::{FreshnessSimulator, SchemeChoice};
use omn_perfbench::workload::{
    firehose_rep, joint_fingerprint, joint_world, stream_config, stream_fingerprint, stream_rep,
    JOINT_BANDWIDTH, JOINT_CATALOG, JOINT_DEADLINE_H,
};
use omn_sim::{RngFactory, SimTime};

const SMALL_NODES: usize = 316;

#[test]
fn timed_run_is_bit_identical_to_an_unwrapped_run() {
    for seed in [11, 23] {
        let timed = stream_rep(SMALL_NODES, seed, true);
        assert!(
            timed.gen_s > 0.0 && timed.scheme_s > 0.0,
            "timers recorded nothing"
        );
        assert_eq!(timed.gen_calls, timed.stats.contacts_total as u64);

        // The same run with no wrapper anywhere.
        let world = scale_config(SMALL_NODES);
        let factory = RngFactory::new(seed);
        let sim = FreshnessSimulator::new(stream_config());
        let cutoff = SimTime::from_secs(6.0 * 3600.0);
        let mut warmup = ShardedCommunitySource::new(&world, &factory);
        let (source, members, oracle) = sim.select_roles_streamed(&mut warmup, cutoff);
        let mut scheme = sim.make_scheme(SchemeChoice::Hierarchical);
        let (report, stats) = sim.run_streamed(
            ShardedCommunitySource::new(&world, &factory),
            &oracle,
            source,
            &members,
            scheme.as_mut(),
            &factory,
        );
        assert_eq!(
            stream_fingerprint(&timed.report, &timed.stats),
            stream_fingerprint(&report, &stats),
            "seed {seed}: the timing wrappers changed the run"
        );
        assert_eq!(timed.scheme_calls, stats.contacts_total as u64);
    }
}

#[test]
fn stream_workload_reproduces_the_e15_point() {
    let seed = 11;
    let bench = stream_rep(SMALL_NODES, seed, false);
    let e15 = run_point(SMALL_NODES, SchemeChoice::Hierarchical, seed);
    assert_eq!(
        stream_fingerprint(&bench.report, &bench.stats),
        stream_fingerprint(&e15.report, &e15.stats)
    );
    assert!(bench.report.oracle.is_clean());
}

#[test]
fn joint_workload_reproduces_the_e19_rung() {
    for seed in [11, 12] {
        let bench = joint_world(seed);
        let e19 = bandwidth_run(
            TracePreset::InfocomLike,
            seed,
            LOAD,
            Some(BUDGET),
            JOINT_BANDWIDTH,
            REFRESH_BYTES,
            QUEUE_DEPTH,
            PolicyChoice::Lru,
            None,
            JOINT_CATALOG,
            JOINT_DEADLINE_H,
        );
        assert_eq!(
            joint_fingerprint(&bench.report),
            joint_fingerprint(&e19),
            "seed {seed}: the benchmark's joint world is not E19's 16 B/s rung"
        );
        assert!(bench.report.oracle.is_clean());
    }
}

#[test]
fn firehose_feeds_every_contact_and_delivers_every_message() {
    let rep = firehose_rep(SMALL_NODES, 11, 1, true);
    let r = &rep.report;
    assert_eq!(r.contacts, rep.feed_calls);
    assert!(r.contacts > 0 && rep.feed_s > 0.0);
    assert_eq!(r.messages_sent, r.messages_received);
    assert_eq!((r.decode_errors, r.channel_errors), (0, 0));
}
