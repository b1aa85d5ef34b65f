//! Detector self-test with the injected seqlock bug: the
//! `check-inject`-gated `ceh_check::VersionWord::write_end_missing_release` writer
//! exit must be caught as a data race on the payload, minimized to a
//! two-access witness, and reproducible from its committed fixture.
//!
//! Build with `--features "check-race check-inject"`.

#![cfg(all(feature = "check-race", feature = "check-inject"))]

use ceh_check::{explore_litmus, litmus_by_name, replay, ExploreConfig, ScheduleFixture};

fn cfg() -> ExploreConfig {
    ExploreConfig {
        preemption_bound: 3,
        dpor: true,
        max_schedules: 200_000,
        race: true,
    }
}

/// The detector catches the missing-Release seqlock writer: the reader's
/// committed speculative payload reads have no happens-before edge to
/// the writer's stores, and the witness names the payload, both sites,
/// and both threads.
#[test]
fn injected_seqlock_race_is_caught_and_minimized() {
    let l = litmus_by_name("seqlock-missing-release").expect("inject litmus present");
    assert!(l.racy);
    let r = explore_litmus(&l, &cfg()).unwrap();
    let v = r.violation.expect("missing-Release seqlock must race");
    assert!(
        v.detail.contains("data race on `seq.payload"),
        "witness should blame the payload: {}",
        v.detail
    );
    assert!(
        v.detail.contains("speculative read (committed)"),
        "witness should show the committed speculative read: {}",
        v.detail
    );
    assert!(v.detail.contains("version.rs") || v.detail.contains("litmus.rs"));

    // The minimized schedule reproduces deterministically.
    let fix = v.to_fixture();
    assert!(replay(&fix).unwrap().is_some(), "minimized witness replays");

    // And round-trips through the fixture format.
    let parsed = ScheduleFixture::parse(&fix.serialize()).unwrap();
    assert_eq!(parsed, fix);
}

/// The correct seqlock stays clean under the same exploration — the
/// verdict flip is the missing Release alone.
#[test]
fn correct_seqlock_stays_clean_under_inject_build() {
    let l = litmus_by_name("seqlock-rw").unwrap();
    let r = explore_litmus(&l, &cfg()).unwrap();
    assert!(
        r.violation.is_none(),
        "correct seqlock raced: {:?}",
        r.violation.map(|v| v.detail)
    );
}

/// The committed fixture for the injected seqlock race reproduces. (The
/// generic corpus gate in tests/race.rs skips `# requires: check-inject`
/// fixtures on non-inject builds; this is the positive side.)
#[test]
fn committed_seqlock_fixture_reproduces() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/races/seqlock_missing_release.fixture"
    );
    let text = std::fs::read_to_string(path).expect("committed seqlock race fixture");
    assert!(text.contains("# requires: check-inject"));
    let fix = ScheduleFixture::parse(&text).unwrap();
    let detail = replay(&fix)
        .unwrap()
        .expect("seqlock fixture must reproduce its race");
    assert!(detail.contains("data race on `seq.payload"), "{detail}");
}
