//! Pins how the committed scenario specs compile: CLI overrides reach
//! the experiment parameters through the plan, and the compiled plan
//! summaries of every spec are pinned as one golden file
//! (`tests/golden/plan_summaries.txt`); re-record after an intentional
//! spec change with `OMN_BLESS_GOLDEN=1`. What the specs print when run
//! is pinned by the `spec_goldens` suite.

use std::path::PathBuf;

use omn_bench::experiments as e;
use omn_bench::scenario::{compile, parse, CampaignPlan, EMBEDDED};
use omn_bench::CliOverrides;

fn plan_for(id: &str) -> CampaignPlan {
    let text = EMBEDDED
        .iter()
        .find(|(name, _)| *name == id)
        .map(|&(_, text)| text)
        .unwrap_or_else(|| panic!("no embedded spec `{id}`"));
    let spec = parse(text).unwrap_or_else(|err| panic!("specs/{id}.scn: {err}"));
    compile(&spec, &CliOverrides::default()).unwrap_or_else(|err| panic!("specs/{id}.scn: {err}"))
}

/// CLI overrides thread through the plan into every experiment's params.
#[test]
fn overrides_reach_params_through_the_plan() {
    let text = EMBEDDED
        .iter()
        .find(|(name, _)| *name == "e15")
        .map(|&(_, text)| text)
        .expect("e15 embedded");
    let spec = parse(text).expect("parses");
    let overrides = CliOverrides {
        seeds: Some(vec![5]),
        nodes: Some(vec![100, 200]),
        threads: Some(3),
        no_wall: true,
        ..CliOverrides::default()
    };
    let plan = compile(&spec, &overrides).expect("compiles");
    let params = e::e15_scalability::Params::from_plan(&plan);
    assert_eq!(params.seeds, vec![5]);
    assert_eq!(params.nodes, vec![100, 200]);
    assert_eq!(params.threads, 3);
    assert!(!params.show_wall);
}

/// The deterministic plan summaries of every committed spec, pinned as
/// one golden file.
#[test]
fn plan_summaries_golden() {
    let mut out = String::new();
    for (id, _) in EMBEDDED {
        out.push_str(&plan_for(id).render_summary());
        out.push('\n');
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/plan_summaries.txt");
    if std::env::var_os("OMN_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir golden");
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    match std::fs::read_to_string(&path) {
        Ok(expected) => assert_eq!(
            expected, out,
            "plan summaries changed; if intentional, re-record with \
             OMN_BLESS_GOLDEN=1"
        ),
        Err(_) if std::env::var_os("OMN_REQUIRE_GOLDEN").is_some() => panic!(
            "golden file plan_summaries.txt is missing and OMN_REQUIRE_GOLDEN \
             is set; record it with OMN_BLESS_GOLDEN=1 and commit it"
        ),
        Err(_) => eprintln!(
            "note: golden file plan_summaries.txt not recorded yet \
             (OMN_BLESS_GOLDEN=1 to pin)"
        ),
    }
}
