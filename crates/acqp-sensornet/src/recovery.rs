//! Crash-recovery support for the basestation: checkpoint/WAL
//! journaling during a run and state reconstruction after a seeded
//! crash (the `crash` option of `run_simulation`, and the service's).
//!
//! The division of labor: `acqp-persist` owns the file formats and the
//! recovery *policy* (newest valid snapshot + idempotent WAL replay);
//! this module owns the simulation-side *semantics* — which engine
//! events get journaled, what genesis state looks like on a cold start,
//! and how replayed records fold back into the drift monitor, window,
//! and plan version. Every recovery outcome is counted under the
//! `recovery.*` metric taxonomy.

use std::path::{Path, PathBuf};

use acqp_obs::{Counter, Recorder};
use acqp_persist::{
    BasestationCheckpoint, CheckpointStore, PersistError, RecoveryOutcome, ServeCheckpoint,
    ServeRecoveryOutcome, WalRecord,
};

/// Knobs for a crash-recovery simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrashConfig {
    /// Directory for snapshots and the WAL. `None` disables
    /// persistence entirely: every crash is then a cold start back to
    /// the genesis plan (the one recomputable from history).
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot cadence in epochs (`0` = never snapshot; the WAL alone
    /// still makes recovery lossless, just slower to replay).
    pub checkpoint_every: usize,
    /// Epochs at whose *start* the basestation crashes and restarts.
    /// Epoch 0 cannot crash: the initial dissemination defines genesis.
    pub crash_epochs: Vec<usize>,
    /// Additionally, an independent per-epoch crash probability drawn
    /// from the [`crate::fault::FaultStream::Crash`] stream of the
    /// run's [`crate::fault::FaultModel`]. `0.0` consumes no rolls.
    pub crash_rate: f64,
}

impl CrashConfig {
    /// Whether this configuration does anything at all: any journaling
    /// directory or any way a crash can fire. The default (inactive)
    /// config is what transparency pins rely on.
    pub fn is_active(&self) -> bool {
        self.checkpoint_dir.is_some()
            || !self.crash_epochs.is_empty()
            || self.crash_rate > 0.0
            || self.checkpoint_every > 0
    }
}

/// A [`crate::sim::FaultReport`] extended with crash-recovery
/// accounting.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// The underlying fault-path report.
    pub fault: crate::sim::FaultReport,
    /// Basestation crashes injected (each one triggered a recovery).
    pub crashes: usize,
    /// Recoveries that found no usable snapshot and rebuilt genesis
    /// state before replaying the WAL.
    pub cold_starts: usize,
    /// Snapshot files that failed validation across all recoveries.
    pub corrupt_snapshots: usize,
    /// WAL records replayed across all recoveries.
    pub wal_replayed: usize,
    /// Snapshots written during the run.
    pub checkpoints_written: usize,
    /// Radio energy (µJ, basestation tx + mote rx) spent on post-crash
    /// re-dissemination — the recovery tax the checkpoint cadence is
    /// trading against.
    pub recovery_rediss_uj: f64,
}

/// Pre-hoisted `recovery.*` instruments.
#[derive(Debug)]
pub(crate) struct CrashCounters {
    /// `recovery.attempted` — one per injected crash.
    pub attempted: Counter,
    /// `recovery.cold_start` — recoveries with no usable snapshot.
    pub cold_start: Counter,
    /// `recovery.corrupt` — snapshot files that failed validation.
    pub corrupt: Counter,
    /// `recovery.wal.replayed` — records folded back in.
    pub wal_replayed: Counter,
    /// `recovery.checkpoint.written` — snapshots persisted.
    pub checkpoints: Counter,
    /// `recovery.masks.seeded` — estimator mask caches restored from a
    /// checkpoint instead of re-paying the dataset pass.
    pub masks_seeded: Counter,
}

impl CrashCounters {
    pub(crate) fn new(rec: &Recorder) -> Self {
        CrashCounters {
            attempted: rec.counter("recovery.attempted"),
            cold_start: rec.counter("recovery.cold_start"),
            corrupt: rec.counter("recovery.corrupt"),
            wal_replayed: rec.counter("recovery.wal.replayed"),
            checkpoints: rec.counter("recovery.checkpoint.written"),
            masks_seeded: rec.counter("recovery.masks.seeded"),
        }
    }
}

/// The engine's journaling handle: a [`CheckpointStore`] plus sticky
/// error capture. Persistence failures must not unwind the epoch loop
/// mid-flight (the simulation's energy accounting would be torn), so
/// the first I/O error is latched and surfaced when the run returns.
#[derive(Debug)]
pub(crate) struct Journal {
    store: CheckpointStore,
    pub(crate) error: Option<PersistError>,
    pub(crate) appended: u64,
}

impl Journal {
    pub(crate) fn open(dir: &std::path::Path) -> Result<Self, PersistError> {
        Ok(Journal { store: CheckpointStore::open(dir)?, error: None, appended: 0 })
    }

    /// Appends one WAL record, latching (not propagating) failures.
    pub(crate) fn append(&mut self, record: &WalRecord) {
        if self.error.is_some() {
            return;
        }
        match self.store.append(record) {
            Ok(_) => self.appended += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Sequence number the snapshot being written should record as
    /// `last_seq` (everything appended so far is folded in).
    pub(crate) fn folded_seq(&self) -> u64 {
        self.store.next_seq() - 1
    }

    /// Writes a snapshot; true on success, latching failures.
    pub(crate) fn write_snapshot(&mut self, cp: &BasestationCheckpoint) -> bool {
        if self.error.is_some() {
            return false;
        }
        match self.store.write_snapshot(cp) {
            Ok(_) => true,
            Err(e) => {
                self.error = Some(e);
                false
            }
        }
    }

    /// Writes a serve-state snapshot; true on success, latching
    /// failures.
    pub(crate) fn write_serve_snapshot(&mut self, cp: &ServeCheckpoint) -> bool {
        if self.error.is_some() {
            return false;
        }
        match self.store.write_serve_snapshot(cp) {
            Ok(_) => true,
            Err(e) => {
                self.error = Some(e);
                false
            }
        }
    }

    /// Recovers as a freshly restarted process would: reopens the store
    /// (new handles, recomputed counters) and reads back the newest
    /// valid snapshot plus the WAL tail beyond it, in one pass over the
    /// log. Corruption is *absorbed* into the outcome, never an error;
    /// only I/O failures latch.
    pub(crate) fn recover(&mut self) -> RecoveryOutcome {
        self.recover_with(CheckpointStore::reopen)
    }

    /// Serve-flavored [`recover`](Self::recover), reading serve
    /// checkpoints.
    pub(crate) fn recover_serve(&mut self) -> ServeRecoveryOutcome {
        self.recover_with(CheckpointStore::reopen_serve)
    }

    fn recover_with<C>(
        &mut self,
        reopen: impl Fn(&Path) -> Result<(CheckpointStore, RecoveryOutcome<C>), PersistError>,
    ) -> RecoveryOutcome<C> {
        match reopen(self.store.dir()) {
            Ok((store, out)) => {
                self.store = store;
                out
            }
            Err(e) => {
                self.error = Some(e);
                RecoveryOutcome::genesis()
            }
        }
    }
}

/// Per-run crash bookkeeping threaded through the engine.
#[derive(Debug)]
pub(crate) struct CrashRuntime<'a> {
    pub(crate) cfg: &'a CrashConfig,
    pub(crate) journal: Option<Journal>,
    pub(crate) counters: CrashCounters,
    pub(crate) crashes: usize,
    pub(crate) cold_starts: usize,
    pub(crate) corrupt_snapshots: usize,
    pub(crate) wal_replayed: usize,
    pub(crate) checkpoints_written: usize,
    pub(crate) recovery_rediss_uj: f64,
}

impl<'a> CrashRuntime<'a> {
    pub(crate) fn new(cfg: &'a CrashConfig, rec: &Recorder) -> Result<Self, PersistError> {
        let journal = match &cfg.checkpoint_dir {
            Some(dir) => Some(Journal::open(dir)?),
            None => None,
        };
        Ok(CrashRuntime {
            cfg,
            journal,
            counters: CrashCounters::new(rec),
            crashes: 0,
            cold_starts: 0,
            corrupt_snapshots: 0,
            wal_replayed: 0,
            checkpoints_written: 0,
            recovery_rediss_uj: 0.0,
        })
    }

    /// The latched persistence error, if any append/snapshot/recover
    /// failed during the run.
    pub(crate) fn take_error(&mut self) -> Option<PersistError> {
        self.journal.as_mut().and_then(|j| j.error.take())
    }

    /// Counts one crash and what its recovery found on disk.
    pub(crate) fn count_recovery(&mut self, cold_start: bool, corrupt: usize, replayed: usize) {
        self.crashes += 1;
        self.counters.attempted.incr(1);
        if cold_start {
            self.cold_starts += 1;
            self.counters.cold_start.incr(1);
        }
        self.corrupt_snapshots += corrupt;
        self.counters.corrupt.incr(corrupt as u64);
        self.wal_replayed += replayed;
        self.counters.wal_replayed.incr(replayed as u64);
    }

    /// Closes the run: the latched persistence error if there is one,
    /// else `fault` extended with this run's crash accounting.
    pub(crate) fn into_report(
        mut self,
        fault: crate::sim::FaultReport,
    ) -> Result<CrashReport, PersistError> {
        if let Some(e) = self.take_error() {
            return Err(e);
        }
        Ok(CrashReport {
            fault,
            crashes: self.crashes,
            cold_starts: self.cold_starts,
            corrupt_snapshots: self.corrupt_snapshots,
            wal_replayed: self.wal_replayed,
            checkpoints_written: self.checkpoints_written,
            recovery_rediss_uj: self.recovery_rediss_uj,
        })
    }
}

/// Maps a persistence failure onto the workspace error type (only I/O
/// can surface — corruption is always absorbed by recovery).
pub(crate) fn core_err(e: PersistError) -> acqp_core::Error {
    match e {
        PersistError::Io { path, what } => acqp_core::Error::Io { path, what },
        PersistError::Corrupt { what } => acqp_core::Error::Parse { what },
    }
}
