//! Directory manager tying snapshots and the WAL into one recovery
//! story.
//!
//! Layout of a checkpoint directory:
//!
//! ```text
//! <dir>/snap-000001 ... snap-NNNNNN   snapshots, monotonic index
//! <dir>/wal.log                       the write-ahead log
//! ```
//!
//! Recovery policy, in order:
//!
//! 1. Try snapshots newest-first; the first one that validates wins.
//!    Each invalid one increments `corrupt_snapshots`.
//! 2. Replay WAL records with `seq > checkpoint.last_seq` — the
//!    sequence filter is what makes replay idempotent. The one
//!    validating pass over the log keeps only those records.
//! 3. If *no* snapshot validates, cold-start: the caller rebuilds
//!    genesis state and the **entire** valid WAL prefix is replayed
//!    onto it, so snapshot corruption alone loses nothing that was
//!    logged.

use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

use crate::snapshot::{BasestationCheckpoint, ServeCheckpoint};
use crate::wal::{self, WalRecord};
use crate::{io_err, Result};

const SNAP_PREFIX: &str = "snap-";
const WAL_FILE: &str = "wal.log";

/// Manages one checkpoint directory: snapshot writes, WAL appends, and
/// recovery.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    next_snap: u64,
    next_seq: u64,
    wal: Option<File>,
    /// The frame being appended, reused across appends.
    frame: Vec<u8>,
}

/// What [`CheckpointStore::recover`] (or, with `C` =
/// [`ServeCheckpoint`], [`CheckpointStore::recover_serve`]) found.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome<C = BasestationCheckpoint> {
    /// The newest snapshot that validated, if any.
    pub checkpoint: Option<C>,
    /// WAL records to apply on top, in order. With a checkpoint these
    /// are exactly the records with `seq > checkpoint.last_seq`; on a
    /// cold start they are the full valid prefix, to be applied onto
    /// genesis state.
    pub replayed: Vec<WalRecord>,
    /// Snapshot files present but failing validation.
    pub corrupt_snapshots: usize,
    /// Snapshot files examined (newest-first) before one validated or
    /// the candidates ran out. Flight-recorder introspection: lets the
    /// recovery trace distinguish "no snapshots at all" from "walked
    /// past N corrupt ones".
    pub snapshots_scanned: usize,
    /// True if the WAL ended in invalid bytes (normal after a crash
    /// mid-append; also set by corruption within the log).
    pub corrupt_wal_tail: bool,
    /// True if no snapshot validated and the caller must rebuild
    /// genesis state before replaying.
    pub cold_start: bool,
}

/// What [`CheckpointStore::recover_serve`] found — the serve-state
/// flavor of [`RecoveryOutcome`].
pub type ServeRecoveryOutcome = RecoveryOutcome<ServeCheckpoint>;

impl<C> RecoveryOutcome<C> {
    /// The outcome of a restart with nothing persisted: a cold start
    /// with nothing to replay.
    pub fn genesis() -> Self {
        RecoveryOutcome {
            checkpoint: None,
            replayed: Vec::new(),
            corrupt_snapshots: 0,
            snapshots_scanned: 0,
            corrupt_wal_tail: false,
            cold_start: true,
        }
    }
}

fn snap_index(name: &str) -> Option<u64> {
    name.strip_prefix(SNAP_PREFIX)?.parse().ok()
}

/// The snapshot files in `dir` (created if missing), newest first.
fn snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut snaps = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        if let Some(idx) = entry.file_name().to_str().and_then(snap_index) {
            snaps.push((idx, entry.path()));
        }
    }
    snaps.sort_by_key(|(idx, _)| std::cmp::Reverse(*idx));
    Ok(snaps)
}

/// Opens the WAL at `path` for appending, writing the header into a
/// fresh file.
fn open_wal(path: &Path) -> Result<File> {
    let fresh = !path.exists();
    let mut f =
        OpenOptions::new().create(true).append(true).open(path).map_err(|e| io_err(path, e))?;
    if fresh {
        wal::append_frame(&mut f, &wal::wal_header()).map_err(|e| io_err(path, e))?;
    }
    Ok(f)
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory and positions
    /// the snapshot index and WAL sequence counter after any existing
    /// artifacts, so appends never collide with prior runs.
    pub fn open(dir: &Path) -> Result<Self> {
        let snaps = snapshots(dir)?;
        // Validate the whole log but keep none of it: only the last
        // sequence number matters here.
        let scan = wal::scan_file_beyond(&dir.join(WAL_FILE), u64::MAX)?;
        Ok(Self::positioned(dir, &snaps, &scan))
    }

    /// A store positioned after the newest of `snaps` and the last
    /// valid record of `scan`.
    fn positioned(dir: &Path, snaps: &[(u64, PathBuf)], scan: &wal::WalScan) -> Self {
        CheckpointStore {
            dir: dir.to_path_buf(),
            next_snap: snaps.first().map_or(0, |(idx, _)| *idx) + 1,
            next_seq: scan.last_seq.unwrap_or(0) + 1,
            wal: None,
            frame: Vec::new(),
        }
    }

    /// Restarts on `dir` as a fresh process would: recovers the newest
    /// valid snapshot plus the WAL beyond it (see module docs), and
    /// returns a store positioned exactly as [`open`](Self::open)
    /// would leave it. The next sequence number comes from the same
    /// validating pass that collects the tail, so the log is read once.
    pub fn reopen(dir: &Path) -> Result<(Self, RecoveryOutcome)> {
        Self::reopen_with(dir, BasestationCheckpoint::read_from, |cp| cp.last_seq)
    }

    /// Serve-flavored [`reopen`](Self::reopen), reading
    /// [`ServeCheckpoint`] images.
    pub fn reopen_serve(dir: &Path) -> Result<(Self, ServeRecoveryOutcome)> {
        Self::reopen_with(dir, ServeCheckpoint::read_from, |cp| cp.last_seq)
    }

    /// [`reopen`](Self::reopen) over either snapshot flavor: walks the
    /// snapshots newest-first until `read` validates one, then replays
    /// the WAL beyond its `last_seq` (everything, on a cold start).
    fn reopen_with<C>(
        dir: &Path,
        read: impl Fn(&Path) -> Result<C>,
        last_seq: impl Fn(&C) -> u64,
    ) -> Result<(Self, RecoveryOutcome<C>)> {
        let snaps = snapshots(dir)?;
        let mut out = RecoveryOutcome::genesis();
        for (_, path) in &snaps {
            out.snapshots_scanned += 1;
            match read(path) {
                Ok(cp) => {
                    out.checkpoint = Some(cp);
                    break;
                }
                Err(_) => out.corrupt_snapshots += 1,
            }
        }
        let floor = out.checkpoint.as_ref().map_or(0, last_seq);
        let scan = wal::scan_file_beyond(&dir.join(WAL_FILE), floor)?;
        let store = Self::positioned(dir, &snaps, &scan);
        out.cold_start = out.checkpoint.is_none();
        out.corrupt_wal_tail = scan.torn_tail;
        out.replayed = scan.records.into_iter().map(|(_, r)| r).collect();
        Ok((store, out))
    }

    /// The directory this store manages.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next [`append`](Self::append) will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record to the WAL and returns the sequence number it
    /// was stamped with. The frame is encoded into a buffer the store
    /// reuses, and the WAL's path is built only to open the file or to
    /// report an error, so an append allocates nothing once the file
    /// is open.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let seq = self.next_seq;
        let file = match self.wal.as_mut() {
            Some(file) => file,
            None => self.wal.insert(open_wal(&self.dir.join(WAL_FILE))?),
        };
        record.frame_into(seq, &mut self.frame);
        wal::append_frame(file, &self.frame).map_err(|e| io_err(&self.dir.join(WAL_FILE), e))?;
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Writes a snapshot atomically. `checkpoint.last_seq` should be
    /// the sequence of the last WAL record folded into it (i.e.
    /// `next_seq() - 1` when the state is current); recovery replays
    /// only records beyond it. Returns the snapshot's file index.
    pub fn write_snapshot(&mut self, checkpoint: &BasestationCheckpoint) -> Result<u64> {
        let idx = self.next_snap;
        let path = self.dir.join(format!("{SNAP_PREFIX}{idx:06}"));
        checkpoint.write_to(&path)?;
        self.next_snap = idx + 1;
        Ok(idx)
    }

    /// Recovers the latest consistent state: newest valid snapshot plus
    /// the idempotent WAL replay beyond it (see module docs for the
    /// full policy).
    pub fn recover(&self) -> Result<RecoveryOutcome> {
        Ok(Self::reopen(&self.dir)?.1)
    }

    /// Writes a serve-state snapshot atomically (same naming and index
    /// sequence as [`write_snapshot`](Self::write_snapshot) — a
    /// directory holds one flavor or the other, distinguished by
    /// magic). Returns the snapshot's file index.
    pub fn write_serve_snapshot(&mut self, checkpoint: &ServeCheckpoint) -> Result<u64> {
        let idx = self.next_snap;
        let path = self.dir.join(format!("{SNAP_PREFIX}{idx:06}"));
        checkpoint.write_to(&path)?;
        self.next_snap = idx + 1;
        Ok(idx)
    }

    /// Serve-flavored [`recover`](Self::recover): same newest-valid
    /// snapshot walk and idempotent seq-filtered WAL replay, reading
    /// [`ServeCheckpoint`] images.
    pub fn recover_serve(&self) -> Result<ServeRecoveryOutcome> {
        Ok(Self::reopen_serve(&self.dir)?.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanRecord;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("acqp_persist_store_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn checkpoint(epoch: u64, last_seq: u64) -> BasestationCheckpoint {
        BasestationCheckpoint {
            epoch,
            last_seq,
            plan: PlanRecord {
                version: epoch,
                wire: vec![0x01],
                expected_cost: 1.0,
                objective: 1.0,
            },
            drift: None,
            window: None,
            mask_cache: None,
            ledgers: vec![],
        }
    }

    #[test]
    fn snapshot_plus_tail_replay() {
        let dir = tmp_dir("tail");
        let mut store = CheckpointStore::open(&dir).unwrap();
        for e in 1..=4 {
            store.append(&WalRecord::EpochEnd { epoch: e }).unwrap();
        }
        // Snapshot folds in seqs 1..=4.
        store.write_snapshot(&checkpoint(4, 4)).unwrap();
        store.append(&WalRecord::EpochEnd { epoch: 5 }).unwrap();
        store.append(&WalRecord::EpochEnd { epoch: 6 }).unwrap();

        let out = store.recover().unwrap();
        assert!(!out.cold_start);
        assert_eq!(out.corrupt_snapshots, 0);
        assert!(!out.corrupt_wal_tail);
        assert_eq!(out.checkpoint.as_ref().unwrap().epoch, 4);
        assert_eq!(
            out.replayed,
            vec![WalRecord::EpochEnd { epoch: 5 }, WalRecord::EpochEnd { epoch: 6 }]
        );
        // Idempotence: recovering again yields the identical outcome.
        assert_eq!(store.recover().unwrap(), out);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_older() {
        let dir = tmp_dir("fallback");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.append(&WalRecord::EpochEnd { epoch: 1 }).unwrap();
        store.write_snapshot(&checkpoint(1, 1)).unwrap();
        store.append(&WalRecord::EpochEnd { epoch: 2 }).unwrap();
        let idx = store.write_snapshot(&checkpoint(2, 2)).unwrap();
        // Mangle the newest snapshot.
        let newest = dir.join(format!("snap-{idx:06}"));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();

        let out = store.recover().unwrap();
        assert_eq!(out.corrupt_snapshots, 1);
        assert!(!out.cold_start);
        assert_eq!(out.checkpoint.as_ref().unwrap().epoch, 1);
        // Seq 2 is beyond the surviving snapshot, so it replays.
        assert_eq!(out.replayed, vec![WalRecord::EpochEnd { epoch: 2 }]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_snapshots_corrupt_cold_starts_with_full_wal() {
        let dir = tmp_dir("cold");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store.append(&WalRecord::EpochEnd { epoch: 1 }).unwrap();
        store.write_snapshot(&checkpoint(1, 1)).unwrap();
        store.append(&WalRecord::EpochEnd { epoch: 2 }).unwrap();
        std::fs::write(dir.join("snap-000001"), b"garbage").unwrap();

        let out = store.recover().unwrap();
        assert!(out.cold_start);
        assert_eq!(out.corrupt_snapshots, 1);
        // Full WAL replays from genesis: nothing logged was lost.
        assert_eq!(
            out.replayed,
            vec![WalRecord::EpochEnd { epoch: 1 }, WalRecord::EpochEnd { epoch: 2 }]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_snapshot_plus_tail_replay() {
        let dir = tmp_dir("serve_tail");
        let mut store = CheckpointStore::open(&dir).unwrap();
        store
            .append(&WalRecord::ServeAdmit { idx: 0, epoch: 0, sig: 7, cache_hit: false })
            .unwrap();
        store
            .write_serve_snapshot(&ServeCheckpoint {
                epoch: 3,
                last_seq: 1,
                stats_epoch: 1,
                plans: vec![],
                live: vec![],
            })
            .unwrap();
        store.append(&WalRecord::ServeComplete { idx: 0, epoch: 5, status: 0 }).unwrap();

        let out = store.recover_serve().unwrap();
        assert!(!out.cold_start);
        assert_eq!(out.checkpoint.as_ref().unwrap().stats_epoch, 1);
        assert_eq!(out.replayed, vec![WalRecord::ServeComplete { idx: 0, epoch: 5, status: 0 }]);
        // Idempotence holds for the serve flavor too.
        assert_eq!(store.recover_serve().unwrap(), out);
        // A serve directory never recovers as a basestation one: the
        // snapshot magic mismatches, so that flavor cold-starts.
        let cross = store.recover().unwrap();
        assert!(cross.cold_start);
        assert_eq!(cross.corrupt_snapshots, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_continues_sequences_and_indices() {
        let dir = tmp_dir("reopen");
        let mut store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.next_seq(), 1);
        store.append(&WalRecord::EpochEnd { epoch: 1 }).unwrap();
        store.write_snapshot(&checkpoint(1, 1)).unwrap();
        drop(store);

        let mut store = CheckpointStore::open(&dir).unwrap();
        assert_eq!(store.next_seq(), 2);
        store.append(&WalRecord::EpochEnd { epoch: 2 }).unwrap();
        let idx = store.write_snapshot(&checkpoint(2, 2)).unwrap();
        assert_eq!(idx, 2);
        let out = store.recover().unwrap();
        assert_eq!(out.checkpoint.unwrap().epoch, 2);
        assert!(out.replayed.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
