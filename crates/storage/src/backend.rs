//! Page backends: where the nonvolatile medium's bytes actually live.
//!
//! The durable layer ([`crate::durable`]) speaks to its medium through
//! the [`PageBackend`] trait — a frame array plus a write-ahead log,
//! with explicit sync points. Two implementations:
//!
//! * [`MemBackend`]: the original simulated medium, a [`DiskImage`] in
//!   memory. Deterministic and instantaneous; the chaos/crash fuzzers
//!   sweep durability points on it, and `sync` is a no-op (an in-memory
//!   append *is* the durable transition).
//! * [`FileBackend`]: real files — one frames file, one WAL file, and a
//!   tiny metadata file per medium, written with positioned
//!   `pread`/`pwrite` and made durable with `fsync`. The byte layout of
//!   frames and log records is **identical** to the in-memory image
//!   (same headers, same CRCs), so a medium written by one backend
//!   recovers on the other: [`PageBackend::snapshot`] returns a
//!   [`DiskImage`] either way, and that image is the interchange format.
//!
//! Torn writes are modeled the same way on both: a durability point
//! that tears writes only the prefix of the in-flight bytes. On the
//! file backend that is a real partial `pwrite` — exactly the state a
//! power cut can leave on disk inside one unsynced write.
//!
//! The fault-injection surface ([`DiskHandle::corrupt`]) also works on
//! both: snapshot the image, let the test mutate it arbitrarily, write
//! it back. On files that rewrites the medium wholesale — bit rot,
//! truncation, and header scribbles all round-trip.

use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ceh_types::{crc32, Error, Result};
use parking_lot::Mutex;

use crate::durable::FRAME_HEADER;

/// The nonvolatile medium's contents: what survives a power cut. Also
/// the cross-backend interchange format — both backends snapshot to and
/// restore from this exact byte layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskImage {
    /// Page payload size (frame size is [`FRAME_HEADER`] larger).
    pub page_size: usize,
    /// The frame array, one header-prefixed region per page id.
    pub frames: Vec<u8>,
    /// The write-ahead log bytes (see [`crate::wal`]).
    pub wal: Vec<u8>,
}

impl DiskImage {
    /// An empty medium for pages of `page_size` bytes.
    pub fn empty(page_size: usize) -> Self {
        DiskImage {
            page_size,
            frames: Vec::new(),
            wal: Vec::new(),
        }
    }

    /// Bytes per frame region (header + payload).
    pub fn frame_size(&self) -> usize {
        FRAME_HEADER + self.page_size
    }
}

/// Which [`PageBackend`] implementation a component should build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The deterministic in-memory image ([`MemBackend`]).
    #[default]
    Memory,
    /// Real files with `fsync` ([`FileBackend`]).
    File,
}

impl BackendKind {
    /// Parse a CLI/config spelling (`memory` | `file`).
    pub fn parse(s: &str) -> Result<BackendKind> {
        match s {
            "memory" | "mem" => Ok(BackendKind::Memory),
            "file" => Ok(BackendKind::File),
            other => Err(Error::Config(format!(
                "unknown storage backend '{other}' (want 'memory' or 'file')"
            ))),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Memory => "memory",
            BackendKind::File => "file",
        })
    }
}

/// The medium the durable store writes through: a frame array plus a
/// WAL byte stream, with explicit sync points.
///
/// # Contract
///
/// * Writes take effect immediately in the backend's *observable* state
///   (a [`PageBackend::snapshot`] sees them), but are only guaranteed
///   to survive a real process kill after the corresponding `sync_*`
///   call returns. The in-memory backend has no such distinction — its
///   writes are trivially "durable" — which is exactly why the crash
///   fuzzer models power cuts *at* the write, with a prefix tear.
/// * [`PageBackend::write_frame`] may be handed **fewer** bytes than a
///   full frame: that is a torn write, and the backend must persist
///   exactly the prefix (after any growth already performed).
/// * `grow_frames` zero-fills, like a file extended by `ftruncate`.
/// * Frame headers and WAL records have the same byte layout on every
///   backend; `snapshot` must return a [`DiskImage`] a different
///   backend can recover from.
pub trait PageBackend: Send {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;
    /// Page payload size of the medium.
    fn page_size(&self) -> usize;
    /// Current length of the frame array, in bytes.
    fn frames_len(&self) -> usize;
    /// Current length of the WAL, in bytes.
    fn wal_len(&self) -> usize;
    /// Append bytes to the WAL (possibly a torn prefix).
    fn append_wal(&mut self, bytes: &[u8]) -> Result<()>;
    /// Truncate the WAL to `keep` bytes (a checkpoint keeps 0; a torn
    /// in-place truncate keeps a prefix).
    fn truncate_wal(&mut self, keep: usize) -> Result<()>;
    /// Grow the frame array to at least `len` bytes, zero-filled.
    fn grow_frames(&mut self, len: usize) -> Result<()>;
    /// Write frame bytes at byte offset `at` (short `bytes` = torn).
    fn write_frame(&mut self, at: usize, bytes: &[u8]) -> Result<()>;
    /// Make every WAL write so far durable (fsync; no-op in memory).
    fn sync_wal(&mut self) -> Result<()>;
    /// Make every frame write so far durable (fsync; no-op in memory).
    fn sync_frames(&mut self) -> Result<()>;
    /// A point-in-time copy of the whole medium.
    fn snapshot(&self) -> Result<DiskImage>;
    /// Replace the whole medium with `image` (the corruption surface).
    fn restore_image(&mut self, image: &DiskImage) -> Result<()>;
    /// The directory holding the medium's files, if it has one.
    fn data_dir(&self) -> Option<&Path> {
        None
    }
}

/// The simulated nonvolatile medium: a [`DiskImage`] held in memory.
#[derive(Debug)]
pub struct MemBackend {
    img: DiskImage,
}

impl MemBackend {
    /// A blank in-memory medium.
    pub fn new(page_size: usize) -> Self {
        MemBackend {
            img: DiskImage::empty(page_size),
        }
    }

    /// A medium holding exactly `image` (the round-trip seam: feed a
    /// file backend's snapshot to an in-memory recovery).
    pub fn from_image(image: DiskImage) -> Self {
        MemBackend { img: image }
    }
}

impl PageBackend for MemBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }
    fn page_size(&self) -> usize {
        self.img.page_size
    }
    fn frames_len(&self) -> usize {
        self.img.frames.len()
    }
    fn wal_len(&self) -> usize {
        self.img.wal.len()
    }
    fn append_wal(&mut self, bytes: &[u8]) -> Result<()> {
        self.img.wal.extend_from_slice(bytes);
        Ok(())
    }
    fn truncate_wal(&mut self, keep: usize) -> Result<()> {
        self.img.wal.truncate(keep);
        Ok(())
    }
    fn grow_frames(&mut self, len: usize) -> Result<()> {
        if self.img.frames.len() < len {
            self.img.frames.resize(len, 0);
        }
        Ok(())
    }
    fn write_frame(&mut self, at: usize, bytes: &[u8]) -> Result<()> {
        self.img.frames[at..at + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }
    fn sync_wal(&mut self) -> Result<()> {
        Ok(())
    }
    fn sync_frames(&mut self) -> Result<()> {
        Ok(())
    }
    fn snapshot(&self) -> Result<DiskImage> {
        Ok(self.img.clone())
    }
    fn restore_image(&mut self, image: &DiskImage) -> Result<()> {
        self.img = image.clone();
        Ok(())
    }
}

/// Names of the three files a [`FileBackend`] keeps in its directory.
const FRAMES_FILE: &str = "frames.ceh";
const WAL_FILE: &str = "wal.ceh";
const META_FILE: &str = "meta.ceh";

const META_MAGIC: u32 = 0xCE11_0E7A; // stable arbitrary tag
/// The on-disk format version. 2: bucket pages hash each record to its
/// slot (`ceh_types::bucket`); version 1 held the slots in insertion
/// order, which this build would misread.
const META_VERSION: u32 = 2;

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{what}: {e}"))
}

/// A real on-disk medium: `frames.ceh` + `wal.ceh` (+ `meta.ceh`) in
/// one directory, positioned I/O via `std::os::unix::fs::FileExt`,
/// durability via `File::sync_data`. No dependencies beyond `std`.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    frames: std::fs::File,
    wal: std::fs::File,
    page_size: usize,
    frames_len: usize,
    wal_len: usize,
}

impl FileBackend {
    /// Create a fresh medium in `dir` (truncating any previous one).
    pub fn create(dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        Self::build(dir.into(), page_size, true)
    }

    /// Open the medium in `dir`, creating it if absent, preserving any
    /// existing contents (the restart path).
    pub fn open(dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        Self::build(dir.into(), page_size, false)
    }

    fn build(dir: PathBuf, page_size: usize, truncate: bool) -> Result<Self> {
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_err(&format!("creating {}", dir.display()), e))?;
        let meta_path = dir.join(META_FILE);
        if !truncate && meta_path.exists() {
            let stored = read_meta(&meta_path)?;
            if stored != page_size {
                return Err(Error::Config(format!(
                    "{} holds {stored}-byte pages, config wants {page_size}",
                    dir.display()
                )));
            }
        } else {
            write_meta(&meta_path, page_size)?;
        }
        let open = |name: &str| -> Result<std::fs::File> {
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(truncate)
                .open(dir.join(name))
                .map_err(|e| io_err(&format!("opening {name}"), e))
        };
        let frames = open(FRAMES_FILE)?;
        let wal = open(WAL_FILE)?;
        let len = |f: &std::fs::File, name: &str| -> Result<usize> {
            Ok(f.metadata()
                .map_err(|e| io_err(&format!("stat {name}"), e))?
                .len() as usize)
        };
        let frames_len = len(&frames, FRAMES_FILE)?;
        let wal_len = len(&wal, WAL_FILE)?;
        Ok(FileBackend {
            dir,
            frames,
            wal,
            page_size,
            frames_len,
            wal_len,
        })
    }
}

/// `meta.ceh`: magic(4) + version(4) + page_size(4) + CRC32(4) over the
/// first 12 bytes, all little-endian. Returns the stored page size.
fn read_meta(path: &Path) -> Result<usize> {
    let mut f = std::fs::File::open(path).map_err(|e| io_err("opening meta.ceh", e))?;
    let mut buf = [0u8; 16];
    f.read_exact(&mut buf)
        .map_err(|e| io_err("reading meta.ceh", e))?;
    let word = |i: usize| u32::from_le_bytes(buf[i..i + 4].try_into().expect("slice len"));
    if word(0) != META_MAGIC {
        return Err(Error::Corrupt("meta.ceh: bad magic".into()));
    }
    if crc32(&buf[..12]) != word(12) {
        return Err(Error::Corrupt("meta.ceh: checksum mismatch".into()));
    }
    if word(4) != META_VERSION {
        return Err(Error::Config(format!(
            "{}: on-disk format version {}, this build reads only version {META_VERSION}",
            path.display(),
            word(4)
        )));
    }
    Ok(word(8) as usize)
}

fn write_meta(path: &Path, page_size: usize) -> Result<()> {
    let mut buf = Vec::with_capacity(16);
    buf.extend_from_slice(&META_MAGIC.to_le_bytes());
    buf.extend_from_slice(&META_VERSION.to_le_bytes());
    buf.extend_from_slice(&(page_size as u32).to_le_bytes());
    let sum = crc32(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    let mut f = std::fs::File::create(path).map_err(|e| io_err("creating meta.ceh", e))?;
    f.write_all(&buf)
        .map_err(|e| io_err("writing meta.ceh", e))?;
    f.sync_data().map_err(|e| io_err("syncing meta.ceh", e))?;
    Ok(())
}

impl PageBackend for FileBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::File
    }
    fn page_size(&self) -> usize {
        self.page_size
    }
    fn frames_len(&self) -> usize {
        self.frames_len
    }
    fn wal_len(&self) -> usize {
        self.wal_len
    }
    fn append_wal(&mut self, bytes: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.wal
            .write_all_at(bytes, self.wal_len as u64)
            .map_err(|e| io_err("appending wal.ceh", e))?;
        self.wal_len += bytes.len();
        Ok(())
    }
    fn truncate_wal(&mut self, keep: usize) -> Result<()> {
        self.wal
            .set_len(keep as u64)
            .map_err(|e| io_err("truncating wal.ceh", e))?;
        self.wal_len = keep;
        Ok(())
    }
    fn grow_frames(&mut self, len: usize) -> Result<()> {
        if self.frames_len < len {
            // ftruncate zero-fills the extension, matching the
            // in-memory resize semantics.
            self.frames
                .set_len(len as u64)
                .map_err(|e| io_err("growing frames.ceh", e))?;
            self.frames_len = len;
        }
        Ok(())
    }
    fn write_frame(&mut self, at: usize, bytes: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.frames
            .write_all_at(bytes, at as u64)
            .map_err(|e| io_err("writing frames.ceh", e))?;
        Ok(())
    }
    fn sync_wal(&mut self) -> Result<()> {
        self.wal.sync_data().map_err(|e| io_err("fsync wal.ceh", e))
    }
    fn sync_frames(&mut self) -> Result<()> {
        self.frames
            .sync_data()
            .map_err(|e| io_err("fsync frames.ceh", e))
    }
    fn snapshot(&self) -> Result<DiskImage> {
        // Re-stat rather than trusting the cached lengths: corruption
        // tests may have changed the files out from under the handle.
        let read_all = |f: &std::fs::File, name: &str| -> Result<Vec<u8>> {
            let mut f = f;
            let len = f
                .metadata()
                .map_err(|e| io_err(&format!("stat {name}"), e))?
                .len() as usize;
            let mut out = vec![0u8; len];
            f.seek(std::io::SeekFrom::Start(0))
                .map_err(|e| io_err(&format!("seek {name}"), e))?;
            f.read_exact(&mut out)
                .map_err(|e| io_err(&format!("reading {name}"), e))?;
            Ok(out)
        };
        Ok(DiskImage {
            page_size: self.page_size,
            frames: read_all(&self.frames, FRAMES_FILE)?,
            wal: read_all(&self.wal, WAL_FILE)?,
        })
    }
    fn restore_image(&mut self, image: &DiskImage) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.page_size = image.page_size;
        self.frames
            .set_len(image.frames.len() as u64)
            .map_err(|e| io_err("resizing frames.ceh", e))?;
        self.frames
            .write_all_at(&image.frames, 0)
            .map_err(|e| io_err("rewriting frames.ceh", e))?;
        self.wal
            .set_len(image.wal.len() as u64)
            .map_err(|e| io_err("resizing wal.ceh", e))?;
        self.wal
            .write_all_at(&image.wal, 0)
            .map_err(|e| io_err("rewriting wal.ceh", e))?;
        self.frames_len = image.frames.len();
        self.wal_len = image.wal.len();
        write_meta(&self.dir.join(META_FILE), image.page_size)?;
        self.sync_frames()?;
        self.sync_wal()
    }
    fn data_dir(&self) -> Option<&Path> {
        Some(&self.dir)
    }
}

/// Shared handle to a medium. Clone it before dropping the store — the
/// clone *is* the surviving disk across a (simulated or real) power
/// cut, and [`crate::DurableStore::recover`] takes it to come back.
#[derive(Clone)]
pub struct DiskHandle {
    inner: Arc<Mutex<dyn PageBackend>>,
}

impl std::fmt::Debug for DiskHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let be = self.inner.lock();
        f.debug_struct("DiskHandle")
            .field("kind", &be.kind())
            .field("page_size", &be.page_size())
            .field("frames_len", &be.frames_len())
            .field("wal_len", &be.wal_len())
            .finish()
    }
}

impl DiskHandle {
    /// A blank in-memory medium for pages of `page_size` bytes.
    pub fn new(page_size: usize) -> Self {
        DiskHandle {
            inner: Arc::new(Mutex::new(MemBackend::new(page_size))),
        }
    }

    /// An in-memory medium holding exactly `image` (cross-backend
    /// round trips: recover a file backend's bytes in memory).
    pub fn from_image(image: DiskImage) -> Self {
        DiskHandle {
            inner: Arc::new(Mutex::new(MemBackend::from_image(image))),
        }
    }

    /// A fresh file-backed medium in `dir` (truncates a previous one).
    pub fn create_file(dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        Ok(DiskHandle {
            inner: Arc::new(Mutex::new(FileBackend::create(dir, page_size)?)),
        })
    }

    /// The file-backed medium in `dir`, created if absent, preserved if
    /// present (the restart-from-disk path).
    pub fn open_file(dir: impl Into<PathBuf>, page_size: usize) -> Result<Self> {
        Ok(DiskHandle {
            inner: Arc::new(Mutex::new(FileBackend::open(dir, page_size)?)),
        })
    }

    /// Which backend this medium lives on.
    pub fn kind(&self) -> BackendKind {
        self.inner.lock().kind()
    }

    /// The directory holding the medium's files (file backend only).
    pub fn data_dir(&self) -> Option<PathBuf> {
        self.inner.lock().data_dir().map(Path::to_path_buf)
    }

    /// Is the medium blank (no frames, no log)? Callers use this to
    /// decide between a fresh store and a recovery.
    pub fn is_empty(&self) -> bool {
        let be = self.inner.lock();
        be.frames_len() == 0 && be.wal_len() == 0
    }

    /// A point-in-time copy of the medium (tests and the fuzzer's
    /// oracle use this to diff disk states). Panics on backend I/O
    /// errors; the store's own paths use [`DiskHandle::try_snapshot`].
    pub fn snapshot(&self) -> DiskImage {
        self.try_snapshot().expect("backend snapshot")
    }

    /// [`DiskHandle::snapshot`] with I/O errors surfaced.
    pub fn try_snapshot(&self) -> Result<DiskImage> {
        self.inner.lock().snapshot()
    }

    /// The medium's page payload size.
    pub fn page_size(&self) -> usize {
        self.inner.lock().page_size()
    }

    /// Mutate the raw medium in place — the fault-injection surface for
    /// corruption tests (bit rot, torn frames, truncated logs). The
    /// image is snapshotted, handed to `f`, and written back wholesale,
    /// so the same test body corrupts either backend. Never used by the
    /// store itself.
    pub fn corrupt(&self, f: impl FnOnce(&mut DiskImage)) {
        let mut be = self.inner.lock();
        let mut img = be.snapshot().expect("backend snapshot");
        f(&mut img);
        be.restore_image(&img).expect("backend restore");
    }

    /// Lock the backend for a sequence of medium operations (the
    /// durable store's write paths).
    pub(crate) fn backend(&self) -> parking_lot::MutexGuard<'_, dyn PageBackend> {
        self.inner.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ceh-backend-{tag}-{}", std::process::id()))
    }

    #[test]
    fn file_backend_round_trips_bytes_identically() {
        let dir = tmp("rt");
        let disk = DiskHandle::create_file(&dir, 64).unwrap();
        {
            let mut be = disk.backend();
            be.append_wal(&[1, 2, 3]).unwrap();
            be.grow_frames(84).unwrap();
            be.write_frame(0, &[0xAB; 84]).unwrap();
            be.sync_wal().unwrap();
            be.sync_frames().unwrap();
        }
        let img = disk.snapshot();
        assert_eq!(img.wal, vec![1, 2, 3]);
        assert_eq!(img.frames, vec![0xAB; 84]);
        // A memory backend restored from the image is indistinguishable.
        let mem = DiskHandle::from_image(img.clone());
        assert_eq!(mem.snapshot(), img);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backend_reopen_preserves_and_create_truncates() {
        let dir = tmp("reopen");
        {
            let disk = DiskHandle::create_file(&dir, 32).unwrap();
            disk.backend().append_wal(&[7; 10]).unwrap();
        }
        let disk = DiskHandle::open_file(&dir, 32).unwrap();
        assert_eq!(disk.snapshot().wal, vec![7; 10]);
        assert!(!disk.is_empty());
        // Mismatched page size is refused by the metadata check.
        assert!(matches!(
            DiskHandle::open_file(&dir, 64),
            Err(Error::Config(_))
        ));
        let disk = DiskHandle::create_file(&dir, 32).unwrap();
        assert!(disk.is_empty(), "create truncates");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_older_format_version_is_refused() {
        let dir = tmp("v1");
        DiskHandle::create_file(&dir, 32).unwrap();
        // A version-1 meta.ceh, checksum intact.
        let mut meta = Vec::new();
        for w in [META_MAGIC, 1, 32] {
            meta.extend_from_slice(&w.to_le_bytes());
        }
        let sum = crc32(&meta);
        meta.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(dir.join(META_FILE), &meta).unwrap();
        match DiskHandle::open_file(&dir, 32) {
            Err(Error::Config(msg)) => assert!(
                msg.contains("format version 1") && msg.contains("only version 2"),
                "{msg}"
            ),
            other => panic!("a version-1 directory opened: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_append_and_truncate_keep_prefixes_on_files() {
        let dir = tmp("tear");
        let disk = DiskHandle::create_file(&dir, 32).unwrap();
        {
            let mut be = disk.backend();
            be.append_wal(&[9; 8]).unwrap(); // torn: only 8 of 20 bytes land
            be.truncate_wal(3).unwrap(); // torn in-place truncate
        }
        assert_eq!(disk.snapshot().wal, vec![9; 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_rewrites_the_files() {
        let dir = tmp("corrupt");
        let disk = DiskHandle::create_file(&dir, 32).unwrap();
        disk.backend().append_wal(&[1; 4]).unwrap();
        disk.corrupt(|img| {
            img.wal[0] = 0xFF;
            img.frames.extend_from_slice(&[0x55; 10]);
        });
        let img = disk.snapshot();
        assert_eq!(img.wal[0], 0xFF);
        assert_eq!(img.frames, vec![0x55; 10]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backend_kind_parses() {
        assert_eq!(BackendKind::parse("memory").unwrap(), BackendKind::Memory);
        assert_eq!(BackendKind::parse("file").unwrap(), BackendKind::File);
        assert!(BackendKind::parse("tape").is_err());
        assert_eq!(BackendKind::File.to_string(), "file");
    }
}
