//! The fuzz corpus as an in-tree property suite: the quick corpus must
//! be green and byte-for-byte deterministic, and the default (CI)
//! corpus must clear the 200-scenario floor without running it here.

use vliw_bench::fuzz::{run_corpus, FuzzConfig};

#[test]
fn quick_corpus_is_deterministic_and_green() {
    let cfg = FuzzConfig::quick();
    let a = run_corpus(&cfg);
    assert_eq!(a.violations, Vec::new(), "property-gate violations");
    assert!(
        a.oracle_mismatches.is_empty(),
        "oracle mismatches: {:?}",
        a.oracle_mismatches
    );
    assert!(
        a.compile_failures.is_empty(),
        "compile failures: {:?}",
        a.compile_failures
    );
    assert_eq!(a.scenarios, cfg.scenario_count());

    // Same config, fresh run → identical serialized report.
    let b = run_corpus(&cfg);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "corpus must be deterministic"
    );
}

#[test]
fn default_corpus_clears_the_scenario_floor() {
    assert!(
        FuzzConfig::default().scenario_count() >= 200,
        "CI corpus shrank below the 200-scenario floor: {}",
        FuzzConfig::default().scenario_count()
    );
}
