//! Detector self-test with the injected optimistic-find bug: under
//! `check-inject-find`, `PageStore::read_validated` never validates the
//! page's version, so a find whose read window a writer overlapped
//! answers from the changed page. The explorer lets writers run inside
//! the window (at the `WaitHook::at_probe` point), and the race detector
//! must flag the committed speculative page read as unordered with the
//! writer's page write, minimize it, and reproduce it from its committed
//! fixture.
//!
//! Build with `--features "check-race check-inject-find"`.

#![cfg(all(feature = "check-race", feature = "check-inject-find"))]

use ceh_check::{explore, replay, ExploreConfig, ScheduleFixture, Workload};

fn cfg() -> ExploreConfig {
    ExploreConfig {
        preemption_bound: 3,
        dpor: true,
        max_schedules: 200_000,
        race: true,
    }
}

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/races/find_skips_validation.fixture"
);

/// The unvalidated find is caught as a race on the bucket page in the
/// workload where a split rewrites the page a reader is scanning, and
/// the minimized witness replays.
#[test]
fn unvalidated_find_is_caught_and_minimized() {
    let w = Workload::by_name("s2-mixed").unwrap();
    let r = explore(&w, &cfg()).unwrap();
    let v = r
        .violation
        .expect("a find that skips validation must race with the split");
    assert!(
        v.detail.contains("data race on `bucket.page`"),
        "witness should blame the page: {}",
        v.detail
    );
    assert!(
        v.detail.contains("speculative read (committed)"),
        "witness should show the committed speculative read: {}",
        v.detail
    );
    let fix = v.to_fixture();
    eprintln!("--- minimized fixture ---\n{}---", fix.serialize());
    let parsed = ScheduleFixture::parse(&fix.serialize()).unwrap();
    assert_eq!(parsed, fix);
    assert!(
        replay(&parsed).unwrap().is_some(),
        "minimized witness replays"
    );
}

/// The committed fixture for the injected find race reproduces. (The
/// generic corpus gate in tests/race.rs skips `# requires:
/// check-inject-find` fixtures on other builds; this is the positive
/// side.)
#[test]
fn committed_find_fixture_reproduces() {
    let text = std::fs::read_to_string(FIXTURE).expect("committed find race fixture");
    assert!(text.lines().any(|l| l == "# requires: check-inject-find"));
    let fix = ScheduleFixture::parse(&text).unwrap();
    let detail = replay(&fix)
        .unwrap()
        .expect("the find fixture must reproduce its race");
    assert!(detail.contains("data race on `bucket.page`"), "{detail}");
}
