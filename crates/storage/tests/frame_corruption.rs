//! Medium-corruption recovery tests on the frame-CRC path.
//!
//! These are the crash shapes of torn tail pages and corrupt headers,
//! held to the durable store's *checksum* verification (the bucket-level
//! sweep above it is `tests/persistence.rs`): every frame on the medium
//! carries a `magic | flags | LSN | CRC32` header, so recovery detects damage
//! without interpreting the payload — a torn frame is quarantined and
//! rebuilt from its committed redo image in the WAL, and damage the log
//! cannot cover is reported as corruption, never silently served.
//!
//! Every scenario runs against **both** [`PageBackend`] implementations
//! through the same harness: the deterministic in-memory image and the
//! real file backend (frames + WAL files in a temp dir). The corruption
//! itself is expressed once, as a [`DiskImage`] mutation — `corrupt()`
//! snapshots, mutates, and restores, so the identical byte damage lands
//! on whichever medium is under test.

use std::path::PathBuf;

use ceh_obs::MetricsHandle;
use ceh_storage::{BackendKind, DiskHandle, DurableConfig, DurableStore, PageBuf, FRAME_HEADER};
use ceh_types::{Error, PageId};

const PAGE: usize = 64;
const FRAME: usize = FRAME_HEADER + PAGE;

fn cfg() -> DurableConfig {
    DurableConfig {
        // Keep checkpoints manual: tests decide what the WAL covers.
        checkpoint_every: usize::MAX,
        ..DurableConfig::small(PAGE)
    }
}

fn filled(byte: u8) -> PageBuf {
    let mut b = PageBuf::zeroed(PAGE);
    b.fill(byte);
    b
}

/// RAII temp dir for the file-backend arm of each scenario.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        TempDir(std::env::temp_dir().join(format!("ceh-fc-{tag}-{}", std::process::id())))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One backend under test: a fresh empty disk plus whatever cleanup it
/// needs. The scenario body is backend-blind — it only sees the handle.
struct Medium {
    kind: BackendKind,
    disk: DiskHandle,
    _tmp: Option<TempDir>,
}

/// Both backends, fresh and empty, tagged so parallel tests do not
/// share file-backend directories.
fn media(tag: &str) -> Vec<Medium> {
    let tmp = TempDir::new(tag);
    let file = DiskHandle::create_file(&tmp.0, PAGE).expect("create file backend");
    vec![
        Medium {
            kind: BackendKind::Memory,
            disk: DiskHandle::new(PAGE),
            _tmp: None,
        },
        Medium {
            kind: BackendKind::File,
            disk: file,
            _tmp: Some(tmp),
        },
    ]
}

/// Run `scenario` once per backend, labelling failures with the kind.
fn on_both(tag: &str, scenario: impl Fn(&DiskHandle)) {
    for m in media(tag) {
        eprintln!("-- {tag} on {} backend", m.kind);
        scenario(&m.disk);
    }
}

/// Build a medium with one page at `0xA1`, checkpointed, then updated
/// to `0xA2` so the (untruncated) WAL covers the page. Returns the
/// page id; the state lands on the passed disk.
fn cover_page(disk: &DiskHandle) -> PageId {
    let metrics = MetricsHandle::new();
    let store = DurableStore::with_disk(disk.clone(), cfg(), &metrics).unwrap();
    let page = store.alloc().unwrap();
    store.write(page, &filled(0xA1)).unwrap();
    store.checkpoint().unwrap(); // frame on the medium, log truncated
    store.write(page, &filled(0xA2)).unwrap(); // redo in the log
    store.power_off();
    page
}

fn recover_and_read(disk: &DiskHandle, page: PageId) -> (Vec<u8>, ceh_storage::RecoveryReport) {
    let metrics = MetricsHandle::new();
    let (store, report) = DurableStore::recover(disk, cfg(), &metrics).unwrap();
    let mut buf = PageBuf::zeroed(PAGE);
    store.read(page, &mut buf).unwrap();
    (buf.to_vec(), report)
}

#[test]
fn scribbled_payload_fails_the_frame_crc_and_is_rebuilt_from_redo() {
    // The persistence suite's "corrupt page" shape: the payload bytes
    // rot but the header survives. Decode-based recovery needs the
    // *bucket* codec to notice; here the frame CRC catches it directly.
    on_both("scribble", |disk| {
        let page = cover_page(disk);
        disk.corrupt(|img| {
            let at = page.0 as usize * FRAME + FRAME_HEADER;
            img.frames[at..at + 8].copy_from_slice(&[0xDE; 8]);
        });
        let (bytes, report) = recover_and_read(disk, page);
        assert_eq!(report.torn, 1, "scribbled frame quarantined");
        assert!(
            bytes.iter().all(|&b| b == 0xA2),
            "rebuilt to committed image"
        );
    });
}

#[test]
fn bad_magic_frame_is_debris_and_is_rebuilt_from_redo() {
    // persistence.rs: "an appended page of pure garbage (bad magic)".
    on_both("badmagic", |disk| {
        let page = cover_page(disk);
        disk.corrupt(|img| {
            let at = page.0 as usize * FRAME;
            img.frames[at..at + 4].copy_from_slice(&[0xAA; 4]);
        });
        let (bytes, report) = recover_and_read(disk, page);
        assert_eq!(report.torn, 1);
        assert!(bytes.iter().all(|&b| b == 0xA2));
    });
}

#[test]
fn valid_magic_with_garbage_header_fields_is_still_caught() {
    // persistence.rs: "a subtler header tear — valid magic, garbage
    // fields". The CRC covers flags + LSN + payload, so a tear that
    // preserves the magic is still detected.
    on_both("hdrfields", |disk| {
        let page = cover_page(disk);
        disk.corrupt(|img| {
            let at = page.0 as usize * FRAME;
            img.frames[at + 4..at + 16].copy_from_slice(&[0xFF; 12]); // flags + LSN
        });
        let (bytes, report) = recover_and_read(disk, page);
        assert_eq!(report.torn, 1);
        assert!(bytes.iter().all(|&b| b == 0xA2));
    });
}

#[test]
fn trailing_partial_frame_region_is_one_torn_frame() {
    // persistence.rs: "a crash can interrupt file growth mid-write,
    // leaving a trailing partial page". Here: the frame array grew for
    // a freshly allocated page but the frame write never finished. The
    // alloc + write that forced the growth are committed in the WAL, so
    // recovery rebuilds the partial region instead of truncating it.
    on_both("partial", |disk| {
        let metrics = MetricsHandle::new();
        let store = DurableStore::with_disk(disk.clone(), cfg(), &metrics).unwrap();
        let page = store.alloc().unwrap();
        store.write(page, &filled(0xB7)).unwrap();
        store.power_off(); // no checkpoint: frames never written
        disk.corrupt(|img| {
            assert!(img.frames.is_empty(), "precondition: no frame flushed yet");
            img.frames.extend_from_slice(&[0xAA; FRAME / 2]); // partial growth
        });
        let (bytes, report) = recover_and_read(disk, page);
        assert_eq!(report.torn, 1, "partial trailing region is one torn frame");
        assert!(bytes.iter().all(|&b| b == 0xB7));
    });
}

#[test]
fn corruption_the_log_cannot_cover_is_an_error_not_silent_data() {
    // After a checkpoint the log is empty; damage to a frame now has no
    // redo image. Recovery must refuse loudly (the page's data is
    // gone), never hand back a zeroed or stale page as if committed.
    on_both("uncovered", |disk| {
        let metrics = MetricsHandle::new();
        let store = DurableStore::with_disk(disk.clone(), cfg(), &metrics).unwrap();
        let page = store.alloc().unwrap();
        store.write(page, &filled(0xC3)).unwrap();
        store.checkpoint().unwrap();
        store.power_off();
        disk.corrupt(|img| {
            let at = page.0 as usize * FRAME + FRAME_HEADER;
            img.frames[at] ^= 0xFF;
        });
        let err = DurableStore::recover(disk, cfg(), &MetricsHandle::new()).unwrap_err();
        match err {
            Error::Corrupt(msg) => assert!(
                msg.contains("no committed redo image"),
                "diagnostic names the uncovered frame: {msg}"
            ),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    });
}

#[test]
fn torn_wal_tail_ends_the_prefix_but_acked_history_survives() {
    // The log-side analog of the torn tail page: garbage appended where
    // the next record would have gone. The valid prefix replays, the
    // tail is discarded, and every previously acked write survives.
    on_both("waltail", |disk| {
        let metrics = MetricsHandle::new();
        let store = DurableStore::with_disk(disk.clone(), cfg(), &metrics).unwrap();
        let page = store.alloc().unwrap();
        store.write(page, &filled(0xD4)).unwrap();
        store.power_off();
        disk.corrupt(|img| img.wal.extend_from_slice(&[0x5A; 11]));
        let (bytes, report) = recover_and_read(disk, page);
        assert!(report.wal_torn_tail, "tail damage detected");
        assert!(bytes.iter().all(|&b| b == 0xD4), "acked write survived");
    });
}

#[test]
fn recovered_store_keeps_working_after_corruption_repair() {
    // persistence.rs ends its corrupt-header test by continuing to use
    // the cluster; same contract here — the repaired store is fully
    // operational, including fresh allocation over the repaired region.
    on_both("repair", |disk| {
        let page = cover_page(disk);
        disk.corrupt(|img| {
            let at = page.0 as usize * FRAME;
            img.frames[at..at + 4].copy_from_slice(&[0xAA; 4]);
        });
        let metrics = MetricsHandle::new();
        let (store, _) = DurableStore::recover(disk, cfg(), &metrics).unwrap();
        let p2 = store.alloc().unwrap();
        let mut b = PageBuf::zeroed(PAGE);
        b.fill(0xE5);
        store.write(p2, &b).unwrap();
        store.checkpoint().unwrap();
        store.power_off();
        let (store2, _) =
            DurableStore::recover(&store.disk(), cfg(), &MetricsHandle::new()).unwrap();
        let mut buf = PageBuf::zeroed(PAGE);
        store2.read(page, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xA2));
        store2.read(p2, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xE5));
    });
}

#[test]
fn frames_file_truncated_mid_frame_on_disk_recovers_through_the_wal() {
    // The one shape that only exists on a real filesystem: the OS (or a
    // crashed copy) truncates `frames.ceh` partway through a frame. No
    // DiskImage mutation here — the file itself is cut with `set_len`
    // behind the handle's back, then the directory is reopened cold,
    // exactly as a restarted bucket manager would find it.
    let tmp = TempDir::new("truncated");
    let disk = DiskHandle::create_file(&tmp.0, PAGE).expect("create file backend");
    let page = cover_page(&disk);
    assert_eq!(disk.kind(), BackendKind::File);
    drop(disk); // close the handles: the damage happens "offline"

    let frames_path = tmp.0.join("frames.ceh");
    let len = std::fs::metadata(&frames_path).unwrap().len();
    assert_eq!(len as usize, FRAME, "one frame on disk after checkpoint");
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&frames_path)
        .unwrap();
    f.set_len((FRAME / 2) as u64).unwrap(); // cut mid-frame
    f.sync_data().unwrap();
    drop(f);

    let disk = DiskHandle::open_file(&tmp.0, PAGE).expect("reopen survives truncation");
    let (bytes, report) = recover_and_read(&disk, page);
    assert_eq!(report.torn, 1, "the cut frame is quarantined");
    assert!(
        bytes.iter().all(|&b| b == 0xA2),
        "rebuilt from the WAL's redo image"
    );
}
