//! Write-ahead wire log: per-shard durability for accepted client frames.
//!
//! Each shard worker owns one [`WalShard`]: an append-only log file
//! (`shard-<i>.wal`) of every *accepted* `Open`/`Event`/`EventBatch`/
//! `Close` frame, in processing order, plus a compaction snapshot file
//! (`shard-<i>.snap`) of [`SessionSnapshot`]s. Because the worker is the
//! exclusive owner of its sessions, the log needs no locking and is
//! trivially consistent with the pipelines it protects: a frame is
//! appended *before* it is fed (write-ahead), so a crash at any
//! instant loses at most frames that were never acknowledged.
//!
//! On-disk record format, identical for both files:
//!
//! ```text
//! ┌────────────┬───────────────────┬────────────────────┐
//! │ u32 LE len │ u32 LE crc32(payload) │ payload (len bytes) │
//! └────────────┴───────────────────┴────────────────────┘
//! ```
//!
//! A WAL payload is one wire-encoded client frame (the same bytes the
//! transport received, re-encoded by [`crate::wire::encode_client`]); a
//! snapshot payload is one [`SessionSnapshot::encode`]. Reading stops at
//! the first truncated or CRC-mismatched record — a torn tail from a
//! mid-write crash is silently dropped, never a panic, and everything
//! before it is intact by checksum.
//!
//! Compaction: once [`WalConfig::compact_bytes`] of log have accumulated,
//! the worker snapshots every live session into `shard-<i>.snap.tmp`,
//! fsyncs, renames over `shard-<i>.snap`, and truncates the log. Under
//! [`FsyncPolicy::Sync`] the directory is fsynced between the rename and
//! the truncate, so the truncate never outlives a lost rename. The
//! rename is atomic; a crash between rename and truncate merely leaves
//! pre-snapshot frames in the log, which replay skips via the snapshot's
//! `last_seq` watermark.
//!
//! Fsync policy ([`FsyncPolicy`]): `Sync` fsyncs after every append
//! (durable to the platter, slow); `Async` writes without fsync (durable
//! to the page cache — survives process crashes, not power loss). "Off"
//! is represented by not configuring a WAL at all
//! (`ServeConfig::wal: None`).

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::session::SessionSnapshot;
use crate::wire::{decode_client, ClientFrame};

/// Upper bound on one record's payload length. Wire frames are capped
/// far below this; snapshots grow with in-flight gesture size but a
/// megabyte of points is already pathological. A larger prefix is
/// treated as a torn/corrupt tail, never an allocation request.
pub const MAX_RECORD_LEN: usize = 1 << 20;

// A handed-off session is journaled as one WAL record holding the whole
// wire frame (4-byte length prefix + tag + snapshot); the wire cap must
// leave room for the prefix or a legal handoff would be unjournalable.
const _: () = assert!(crate::wire::MAX_HANDOFF_FRAME_LEN + 4 <= MAX_RECORD_LEN);

/// Bytes of a record header (`len` + `crc`).
const RECORD_HEADER_LEN: usize = 8;

/// When to force appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write without fsync: records survive a process crash (the page
    /// cache persists) but not a host crash.
    Async,
    /// fsync after every append: records survive power loss at the cost
    /// of one disk flush per accepted frame.
    Sync,
}

/// Write-ahead log configuration carried by `ServeConfig::wal`.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the per-shard log and snapshot files; created
    /// on first use.
    pub dir: PathBuf,
    /// Durability of each append.
    pub fsync: FsyncPolicy,
    /// Log bytes accumulated since the last snapshot that trigger
    /// compaction.
    pub compact_bytes: u64,
}

impl WalConfig {
    /// A config rooted at `dir` with the given fsync policy and the
    /// default 4 MiB compaction threshold.
    pub fn new(dir: impl Into<PathBuf>, fsync: FsyncPolicy) -> Self {
        Self {
            dir: dir.into(),
            fsync,
            compact_bytes: 4 << 20,
        }
    }

    /// The log path for `shard`.
    pub fn wal_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.wal"))
    }

    /// The snapshot path for `shard`.
    pub fn snap_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard}.snap"))
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — hand-rolled
/// because the workspace is dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn append_record(out: &mut Vec<u8>, payload: &[u8]) {
    crate::wire::put_u32(out, payload.len() as u32);
    crate::wire::put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// Splits `bytes` into verified record payloads. Stops (without error)
/// at the first truncated, oversized, or CRC-mismatched record; returns
/// the payload slices and whether a torn tail was dropped.
fn split_records(bytes: &[u8]) -> (Vec<&[u8]>, bool) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + RECORD_HEADER_LEN) else {
            return (out, true);
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        let Ok(len) = usize::try_from(len) else {
            return (out, true);
        };
        if len > MAX_RECORD_LEN {
            return (out, true);
        }
        let start = pos + RECORD_HEADER_LEN;
        let Some(payload) = bytes.get(start..start + len) else {
            return (out, true);
        };
        if crc32(payload) != crc {
            return (out, true);
        }
        out.push(payload);
        pos = start + len;
    }
    (out, false)
}

/// One shard's write-ahead log, owned exclusively by its shard worker.
pub struct WalShard {
    config: WalConfig,
    shard: usize,
    file: File,
    /// Log bytes appended since the last compaction (or open).
    bytes_since_snapshot: u64,
    /// Reusable record-assembly buffer.
    scratch: Vec<u8>,
}

impl WalShard {
    /// Opens (creating if needed) the log for `shard` under
    /// `config.dir`, appending to whatever tail already exists.
    pub fn open(config: WalConfig, shard: usize) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let path = config.wal_path(shard);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let existing = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Self {
            config,
            shard,
            file,
            bytes_since_snapshot: existing,
            scratch: Vec::new(),
        })
    }

    /// Appends one wire-encoded client frame (write-ahead: call before
    /// feeding the frame to the pipeline). Returns the record bytes
    /// written.
    pub fn append_frame(&mut self, frame_bytes: &[u8]) -> std::io::Result<u64> {
        // lint:reactor-loop start(wal-append) — runs inline on the shard
        // worker for every frame; the two I/O calls below are the write-ahead
        // contract itself and are individually attested.
        self.scratch.clear();
        append_record(&mut self.scratch, frame_bytes);
        // lint:allow(reactor-blocking-call): the write-ahead durability
        // contract — one buffered O_APPEND write per frame, bounded by the
        // record size; `--wal` is an explicit durability opt-in.
        self.file.write_all(&self.scratch)?;
        if self.config.fsync == FsyncPolicy::Sync {
            // lint:allow(reactor-blocking-call): fsync happens only under
            // `--wal sync`, the caller's explicit durability-over-latency
            // choice (DESIGN.md §10).
            self.file.sync_data()?;
        }
        let written = self.scratch.len() as u64;
        self.bytes_since_snapshot = self.bytes_since_snapshot.saturating_add(written);
        Ok(written)
        // lint:reactor-loop end
    }

    /// `true` once enough log has accumulated that the owner should
    /// [`WalShard::compact`].
    pub fn should_compact(&self) -> bool {
        self.bytes_since_snapshot >= self.config.compact_bytes
    }

    /// Replaces the snapshot file with `snapshots` (atomic tmp + rename)
    /// and truncates the log. A crash between rename and truncate leaves
    /// stale pre-snapshot frames in the log; replay skips them via each
    /// snapshot's `last_seq` watermark.
    pub fn compact(&mut self, snapshots: &[SessionSnapshot]) -> std::io::Result<()> {
        let snap_path = self.config.snap_path(self.shard);
        let tmp_path = self.config.dir.join(format!("shard-{}.snap.tmp", self.shard));
        let mut bytes = Vec::new();
        let mut payload = Vec::new();
        for snapshot in snapshots {
            payload.clear();
            snapshot.encode(&mut payload);
            append_record(&mut bytes, &payload);
        }
        {
            let mut tmp = File::create(&tmp_path)?;
            // lint:allow(reactor-blocking-call): compaction runs inline on
            // the shard worker by design (DESIGN.md §10) — one snapshot
            // write per compact interval, amortized across thousands of
            // appends; moving it off-thread would race the O_APPEND tail.
            tmp.write_all(&bytes)?;
            // lint:allow(reactor-blocking-call): the snapshot must be
            // durable before the rename publishes it; same amortization
            // argument as the write above.
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, &snap_path)?;
        if self.config.fsync == FsyncPolicy::Sync {
            // The rename must be durable before the truncate: otherwise a
            // power loss can keep the truncate and lose the rename, leaving
            // the old snapshot and an empty log. The fsync leaf is attested
            // in `sync_dir`.
            grandma_cluster::sync_dir(&self.config.dir)?;
        }
        // Truncate the log in place: with O_APPEND the next write lands
        // at the (new) end regardless of the handle's cursor.
        self.file.set_len(0)?;
        if self.config.fsync == FsyncPolicy::Sync {
            // lint:allow(reactor-blocking-call): only under `--wal sync`,
            // the caller's explicit durability-over-latency choice.
            self.file.sync_data()?;
        }
        self.bytes_since_snapshot = 0;
        Ok(())
    }
}

/// Pid-stamped exclusivity lock on a WAL directory.
///
/// Two serve processes appending to the same shard logs would interleave
/// records and corrupt both histories, so `serve run --wal` takes this
/// lock before touching the directory. The lock is a `wal.lock` file
/// created with `O_EXCL` holding the owner's pid: a second process finds
/// it, checks whether that pid is still alive (via `/proc`, this being a
/// dependency-free Linux-first build), and either refuses
/// ([`std::io::ErrorKind::WouldBlock`]) or reclaims the stale file a
/// dead owner left behind. Dropping the guard removes the file. Where
/// liveness cannot be probed (`/proc` absent) the holder is presumed
/// alive — never reclaim on doubt.
#[derive(Debug)]
pub struct WalDirLock {
    path: PathBuf,
}

/// Lock-file name inside the WAL directory.
pub const WAL_LOCK_FILE: &str = "wal.lock";

fn pid_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    if !proc_root.is_dir() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

impl WalDirLock {
    /// Takes the exclusive lock on `dir` (creating the directory if
    /// needed). Fails with [`std::io::ErrorKind::WouldBlock`] when a
    /// live process holds it; a stale lock from a dead pid (or with
    /// unreadable contents) is reclaimed.
    pub fn acquire(dir: &Path) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_LOCK_FILE);
        let mut reclaimed = false;
        loop {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    write!(file, "{}", std::process::id())?;
                    file.sync_data()?;
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let holder = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        Some(pid) if pid_alive(pid) => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::WouldBlock,
                                format!(
                                    "wal dir {} is locked by live pid {pid}",
                                    dir.display()
                                ),
                            ));
                        }
                        _ => {
                            // Dead owner or garbage: reclaim once, then
                            // retry the exclusive create. A second
                            // AlreadyExists means we lost a race to
                            // another reclaimer — give up to it.
                            if reclaimed {
                                return Err(e);
                            }
                            let _ = std::fs::remove_file(&path);
                            reclaimed = true;
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The lock file's path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WalDirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// What one shard's files replayed to.
#[derive(Debug, Default)]
pub struct ShardRecovery {
    /// The compaction snapshots, in file order.
    pub snapshots: Vec<SessionSnapshot>,
    /// The log tail's frames, in append (= processing) order.
    pub frames: Vec<ClientFrame>,
    /// Total verified payload bytes read from both files.
    pub bytes: u64,
    /// `true` when either file ended in a torn record that was dropped.
    pub torn: bool,
}

/// Reads and verifies `shard`'s snapshot + log tail from `dir`. Missing
/// files are empty recoveries, torn tails are dropped, CRC-verified
/// prefixes are kept — the only `Err` is a real I/O failure on an
/// existing file. Records that fail to decode as snapshots/frames end
/// the respective replay (treated like a torn tail).
pub fn read_shard(config: &WalConfig, shard: usize) -> std::io::Result<ShardRecovery> {
    let mut recovery = ShardRecovery::default();
    if let Some(bytes) = read_optional(&config.snap_path(shard))? {
        let (records, torn) = split_records(&bytes);
        recovery.torn |= torn;
        for payload in records {
            match SessionSnapshot::decode(payload) {
                Ok((snapshot, _)) => {
                    recovery.bytes += payload.len() as u64;
                    recovery.snapshots.push(snapshot);
                }
                Err(_) => {
                    recovery.torn = true;
                    break;
                }
            }
        }
    }
    if let Some(bytes) = read_optional(&config.wal_path(shard))? {
        let (records, torn) = split_records(&bytes);
        recovery.torn |= torn;
        'records: for payload in records {
            // One record holds one append, but one append may carry
            // several wire frames (a large batch splits into chunks) —
            // decode until the payload is exhausted.
            let mut pos = 0usize;
            while let Some(rest) = payload.get(pos..) {
                if rest.is_empty() {
                    break;
                }
                match decode_client(rest) {
                    Ok(Some((frame, consumed))) if consumed > 0 => {
                        pos += consumed;
                        recovery.frames.push(frame);
                    }
                    _ => {
                        recovery.torn = true;
                        break 'records;
                    }
                }
            }
            recovery.bytes += payload.len() as u64;
        }
    }
    Ok(recovery)
}

fn read_optional(path: &Path) -> std::io::Result<Option<Vec<u8>>> {
    match File::open(path) {
        Ok(mut file) => {
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            Ok(Some(bytes))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{PipelineConfig, SessionPipeline};
    use crate::wire::encode_client;
    use grandma_events::{EventKind, InputEvent};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "grandma-wal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn event_frame(seq: u32) -> ClientFrame {
        ClientFrame::Event {
            session: 7,
            seq,
            event: InputEvent::new(EventKind::MouseMove, seq as f64, 0.0, seq as f64),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn append_and_replay_round_trip() {
        let config = WalConfig::new(tmp_dir("roundtrip"), FsyncPolicy::Sync);
        let mut wal = WalShard::open(config.clone(), 0).expect("open");
        let frames: Vec<ClientFrame> = (1..=5).map(event_frame).collect();
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.clear();
            encode_client(frame, &mut bytes);
            wal.append_frame(&bytes).expect("append");
        }
        let recovery = read_shard(&config, 0).expect("read");
        assert_eq!(recovery.frames, frames);
        assert!(recovery.snapshots.is_empty());
        assert!(!recovery.torn);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let config = WalConfig::new(tmp_dir("torn"), FsyncPolicy::Async);
        let mut wal = WalShard::open(config.clone(), 0).expect("open");
        let mut bytes = Vec::new();
        for seq in 1..=3 {
            bytes.clear();
            encode_client(&event_frame(seq), &mut bytes);
            wal.append_frame(&bytes).expect("append");
        }
        drop(wal);
        // Simulate a crash mid-append: chop bytes off the tail record.
        let path = config.wal_path(0);
        let full = std::fs::read(&path).expect("read back");
        for cut in 1..12 {
            std::fs::write(&path, &full[..full.len() - cut]).expect("truncate");
            let recovery = read_shard(&config, 0).expect("read");
            assert_eq!(recovery.frames.len(), 2, "cut {cut}: tail dropped");
            assert!(recovery.torn, "cut {cut}: torn tail reported");
        }
        // A corrupted byte mid-record fails its CRC and ends the replay.
        let mut flipped = full.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        std::fs::write(&path, &flipped).expect("write corrupt");
        let recovery = read_shard(&config, 0).expect("read");
        assert!(recovery.frames.len() < 3);
        assert!(recovery.torn);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        compact_and_append("compact", FsyncPolicy::Async);
    }

    #[test]
    fn compaction_under_the_sync_policy_snapshots_and_truncates() {
        compact_and_append("compact-sync", FsyncPolicy::Sync);
    }

    fn compact_and_append(tag: &str, fsync: FsyncPolicy) {
        let mut config = WalConfig::new(tmp_dir(tag), fsync);
        config.compact_bytes = 64;
        let mut wal = WalShard::open(config.clone(), 2).expect("open");
        let mut bytes = Vec::new();
        for seq in 1..=4 {
            bytes.clear();
            encode_client(&event_frame(seq), &mut bytes);
            wal.append_frame(&bytes).expect("append");
        }
        assert!(wal.should_compact());
        let mut pipeline = SessionPipeline::new(7, PipelineConfig::default());
        pipeline.feed(
            &recognizer(),
            4,
            InputEvent::new(
                EventKind::MouseDown {
                    button: grandma_events::Button::Left,
                },
                0.0,
                0.0,
                0.0,
            ),
            &mut Vec::new(),
        );
        let snapshots = vec![pipeline.snapshot()];
        wal.compact(&snapshots).expect("compact");
        assert!(!wal.should_compact());
        let recovery = read_shard(&config, 2).expect("read");
        assert_eq!(recovery.snapshots, snapshots);
        assert!(recovery.frames.is_empty(), "log truncated after compact");
        // New appends land in the truncated log.
        bytes.clear();
        encode_client(&event_frame(9), &mut bytes);
        wal.append_frame(&bytes).expect("append");
        let recovery = read_shard(&config, 2).expect("read");
        assert_eq!(recovery.frames, vec![event_frame(9)]);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    fn recognizer() -> grandma_core::EagerRecognizer {
        let data = grandma_synth::datasets::eight_way(0x2b2b, 6, 0);
        let (rec, _) = grandma_core::EagerRecognizer::train(
            &data.training,
            &grandma_core::FeatureMask::all(),
            &grandma_core::EagerConfig::default(),
        )
        .expect("training succeeds");
        rec
    }

    #[test]
    fn wal_dir_lock_is_exclusive_while_held() {
        let dir = tmp_dir("lock-exclusive");
        let lock = WalDirLock::acquire(&dir).expect("first acquire");
        let again = WalDirLock::acquire(&dir);
        let err = again.expect_err("second acquire must fail while held");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        drop(lock);
        // Released on drop: a fresh acquire succeeds and the file is
        // re-stamped with our pid.
        let relock = WalDirLock::acquire(&dir).expect("acquire after drop");
        let stamped = std::fs::read_to_string(relock.path()).expect("read lock");
        assert_eq!(stamped.trim(), std::process::id().to_string());
        drop(relock);
        assert!(!dir.join(WAL_LOCK_FILE).exists(), "drop removes the file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_wal_dir_lock_from_dead_pid_is_reclaimed() {
        let dir = tmp_dir("lock-stale");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // No live process has pid u32::MAX (kernel pid_max is far
        // lower), so this lock is stale by construction; garbage
        // contents must be treated the same way.
        for stale in ["4294967295", "not-a-pid"] {
            std::fs::write(dir.join(WAL_LOCK_FILE), stale).expect("plant stale lock");
            let lock = WalDirLock::acquire(&dir).expect("reclaims stale lock");
            let stamped = std::fs::read_to_string(lock.path()).expect("read lock");
            assert_eq!(stamped.trim(), std::process::id().to_string());
            drop(lock);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_files_recover_empty() {
        let config = WalConfig::new(tmp_dir("missing"), FsyncPolicy::Async);
        let recovery = read_shard(&config, 0).expect("read");
        assert!(recovery.snapshots.is_empty());
        assert!(recovery.frames.is_empty());
        assert!(!recovery.torn);
    }
}
