//! Detector self-test: with the `check-inject` feature, the pairing step
//! of a delete (`ceh_storage::Buckets::pair`, which Solution 2 runs)
//! skips Figure 9's label-A re-validation (the check that the page reached
//! through a possibly-stale directory entry is still the live merge
//! partner). The explorer must catch the resulting race, minimize it,
//! and produce a fixture that replays.
//!
//! Run explicitly (the feature flips the code under test, so it is a
//! separate cargo invocation): `cargo test -p ceh-check --features
//! check-inject --test inject`.

#![cfg(feature = "check-inject")]

use ceh_check::{explore, replay, ExploreConfig, ScheduleFixture, Workload};

fn cfg() -> ExploreConfig {
    ExploreConfig {
        preemption_bound: 3,
        dpor: false,
        max_schedules: 100_000,
        race: false,
    }
}

#[test]
fn explorer_catches_the_skipped_label_a_check() {
    let w = Workload::by_name("s2-delete-delete-merge").unwrap();
    let report = explore(&w, &cfg()).expect("exploration must run");
    let violation = report.violation.expect(
        "the injected label-A skip must produce a violating schedule \
         (racing deletes across a merge + tombstone)",
    );
    assert!(!violation.schedule.is_empty(), "minimized to nothing");

    // The minimized schedule replays to a violation, via the fixture
    // round-trip the regression corpus uses.
    let fixture = violation.to_fixture();
    eprintln!("--- minimized fixture ---\n{}---", fixture.serialize());
    let parsed = ScheduleFixture::parse(&fixture.serialize()).unwrap();
    assert_eq!(parsed, fixture);
    let reproduced = replay(&parsed)
        .expect("replay must run")
        .expect("minimized fixture must still violate");
    assert!(!reproduced.is_empty());
}

#[test]
fn injected_bug_does_not_break_the_split_path() {
    // The injection only disables delete-side re-validation; the insert
    // workloads must still explore clean, pinning that the self-test
    // detects the *intended* bug rather than generic breakage.
    let w = Workload::by_name("s2-insert-insert-split").unwrap();
    let report = explore(&w, &cfg()).expect("exploration must run");
    assert!(report.violation.is_none(), "{:?}", report.violation);
}
