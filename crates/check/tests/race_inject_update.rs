//! Detector self-test with the injected in-bucket-update bug: under
//! `check-inject-update`, `LockManager::upgrade` CASes against the
//! page's current header instead of the snapshot its validated read
//! took, so an update whose read a writer overlapped still claims the
//! page and acts on what it read before the write. The explorer lets
//! writers run between the read and the CAS (at the `WaitHook::at_upgrade`
//! point), and the race detector must flag the read, committed by the
//! CAS, as unordered with the writer's page write, minimize it, and
//! reproduce it from its committed fixture.
//!
//! Build with `--features "check-race check-inject-update"`.

#![cfg(all(feature = "check-race", feature = "check-inject-update"))]

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
    "/tests/fixtures/races/update_ignores_snapshot.fixture"
);

/// The stale upgrade is caught as a race on the bucket page in the
/// workload where an insert and a delete edit one bucket in place, and
/// the minimized witness replays.
#[test]
fn stale_upgrade_is_caught_and_minimized() {
    let w = Workload::by_name("s2-in-bucket-updates").unwrap();
    let r = explore(&w, &cfg()).unwrap();
    let v = r
        .violation
        .expect("an upgrade that ignores its snapshot must race with the other update");
    assert!(
        v.detail.contains("data race on `bucket.page`"),
        "witness should blame the page: {}",
        v.detail
    );
    assert!(
        v.detail.contains("speculative read (committed)"),
        "witness should show the read the CAS committed: {}",
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

/// The committed fixture for the injected update race reproduces. (The
/// generic corpus gate in tests/race.rs skips `# requires:
/// check-inject-update` fixtures on other builds; this is the positive
/// side.)
#[test]
fn committed_update_fixture_reproduces() {
    let text = std::fs::read_to_string(FIXTURE).expect("committed update race fixture");
    assert!(text.lines().any(|l| l == "# requires: check-inject-update"));
    let fix = ScheduleFixture::parse(&text).unwrap();
    let detail = replay(&fix)
        .unwrap()
        .expect("the update fixture must reproduce its race");
    assert!(detail.contains("data race on `bucket.page`"), "{detail}");
}
