//! Append-only write-ahead log of basestation state deltas.
//!
//! File layout:
//!
//! ```text
//! header:  magic b"ACQPWAL1" (8) + format version u16 (2)
//! record:  body length u32 (4)
//!          body = seq u64 + tag u8 + payload
//!          fnv1a64(body) (8)
//! ```
//!
//! Each record carries its own checksum and monotonic sequence number,
//! so the log validates record-by-record: [`scan_bytes`] returns the
//! longest valid prefix and flags whether the file ends in garbage. A
//! torn tail is the *expected* post-crash state — the last record was
//! being appended when the process died — and costs exactly the work of
//! that one record. Sequence numbers make replay idempotent: recovery
//! skips every record already folded into the snapshot
//! (`seq <= last_seq`). [`scan_beyond`] is the same pass keeping only
//! the records beyond such a floor, so recovery holds just the tail.

use std::io::Write as _;
use std::path::Path;

use crate::codec::{Reader, Writer};
use crate::{fnv1a64, io_err, PersistError, Result};

/// WAL file magic (version baked into the name; the u16 that follows
/// allows in-place minor revisions).
pub const WAL_MAGIC: &[u8; 8] = b"ACQPWAL1";
/// WAL format version this build writes and reads.
pub const WAL_VERSION: u16 = 1;

/// Cap on a single record body. A corrupt length prefix must not make
/// the scanner buffer gigabytes before its checksum can fail.
const MAX_RECORD: u32 = 1 << 26;

/// One logged state delta.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Predicate-evaluation counters observed at the basestation:
    /// `pred` was evaluated `evaluated` times and passed `passed` times
    /// since the last record for it.
    Observe {
        /// Predicate index within the running query.
        pred: u16,
        /// Evaluations in this delta.
        evaluated: u64,
        /// Passes in this delta.
        passed: u64,
    },
    /// A tuple entered the sliding window.
    WindowPush {
        /// The tuple, one code per schema attribute.
        row: Vec<u16>,
    },
    /// A new plan was adopted and disseminated.
    PlanAdopted {
        /// The adopted plan.
        plan: crate::PlanRecord,
        /// Estimator selectivities at adoption time, used to re-seed
        /// the drift monitor's expectations on recovery.
        est_selectivities: Vec<f64>,
    },
    /// An epoch finished cleanly.
    EpochEnd {
        /// The epoch that just completed.
        epoch: u64,
    },
    /// The multi-query service admitted (or drift-readmitted) a
    /// schedule entry.
    ServeAdmit {
        /// Index of the entry in the service schedule.
        idx: u64,
        /// Epoch the admission happened at.
        epoch: u64,
        /// The admitted query's signature.
        sig: u64,
        /// Whether the plan came from the policy's cache.
        cache_hit: bool,
    },
    /// A service query terminated.
    ServeComplete {
        /// Index of the entry in the service schedule.
        idx: u64,
        /// Epoch the query terminated at.
        epoch: u64,
        /// `QueryStatus::to_u8` of the terminal outcome.
        status: u8,
    },
}

impl WalRecord {
    fn tag(&self) -> u8 {
        match self {
            WalRecord::Observe { .. } => 1,
            WalRecord::WindowPush { .. } => 2,
            WalRecord::PlanAdopted { .. } => 3,
            WalRecord::EpochEnd { .. } => 4,
            WalRecord::ServeAdmit { .. } => 5,
            WalRecord::ServeComplete { .. } => 6,
        }
    }

    /// Encodes `seq` + tag + payload (the checksummed record body).
    pub fn encode_body(&self, seq: u64) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_body(seq, &mut w);
        w.into_bytes()
    }

    fn write_body(&self, seq: u64, w: &mut Writer) {
        w.u64(seq);
        w.u8(self.tag());
        match self {
            WalRecord::Observe { pred, evaluated, passed } => {
                w.u16(*pred);
                w.u64(*evaluated);
                w.u64(*passed);
            }
            WalRecord::WindowPush { row } => w.u16s(row),
            WalRecord::PlanAdopted { plan, est_selectivities } => {
                w.u64(plan.version);
                w.bytes(&plan.wire);
                w.f64(plan.expected_cost);
                w.f64(plan.objective);
                w.f64s(est_selectivities);
            }
            WalRecord::EpochEnd { epoch } => w.u64(*epoch),
            WalRecord::ServeAdmit { idx, epoch, sig, cache_hit } => {
                w.u64(*idx);
                w.u64(*epoch);
                w.u64(*sig);
                w.u8(*cache_hit as u8);
            }
            WalRecord::ServeComplete { idx, epoch, status } => {
                w.u64(*idx);
                w.u64(*epoch);
                w.u8(*status);
            }
        }
    }

    /// Decodes a record body back into `(seq, record)`.
    pub fn decode_body(body: &[u8]) -> Result<(u64, WalRecord)> {
        let mut r = Reader::new(body);
        let seq = r.u64()?;
        let rec = match r.u8()? {
            1 => WalRecord::Observe { pred: r.u16()?, evaluated: r.u64()?, passed: r.u64()? },
            2 => WalRecord::WindowPush { row: r.u16s()? },
            3 => WalRecord::PlanAdopted {
                plan: crate::PlanRecord {
                    version: r.u64()?,
                    wire: r.bytes()?,
                    expected_cost: r.f64()?,
                    objective: r.f64()?,
                },
                est_selectivities: r.f64s()?,
            },
            4 => WalRecord::EpochEnd { epoch: r.u64()? },
            5 => WalRecord::ServeAdmit {
                idx: r.u64()?,
                epoch: r.u64()?,
                sig: r.u64()?,
                cache_hit: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(PersistError::Corrupt { what: "serve-admit hit flag" }),
                },
            },
            6 => WalRecord::ServeComplete { idx: r.u64()?, epoch: r.u64()?, status: r.u8()? },
            _ => return Err(PersistError::Corrupt { what: "unknown WAL record tag" }),
        };
        r.finish()?;
        Ok((seq, rec))
    }

    /// Frames the record for appending: length + body + checksum.
    pub fn to_frame(&self, seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.frame_into(seq, &mut out);
        out
    }

    /// [`to_frame`](Self::to_frame) into `out`, replacing its contents
    /// and reusing its capacity, so a caller appending many records
    /// allocates once.
    pub fn frame_into(&self, seq: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&[0; 4]);
        let mut w = Writer::reuse(std::mem::take(out));
        self.write_body(seq, &mut w);
        *out = w.into_bytes();
        let body = &out[4..];
        let (len, sum) = ((body.len() as u32).to_le_bytes(), fnv1a64(body).to_le_bytes());
        out[..4].copy_from_slice(&len);
        out.extend_from_slice(&sum);
    }
}

/// The fresh-file WAL header bytes.
pub fn wal_header() -> Vec<u8> {
    let mut h = Vec::with_capacity(10);
    h.extend_from_slice(WAL_MAGIC);
    h.extend_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Result of scanning a WAL file: the valid prefix, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// The records of the valid prefix that the scan kept, as
    /// `(seq, record)` in file order: all of them for [`scan_bytes`],
    /// those beyond the floor for [`scan_beyond`].
    pub records: Vec<(u64, WalRecord)>,
    /// Sequence number of the last record of the valid prefix, kept or
    /// not; `None` when the prefix is empty.
    pub last_seq: Option<u64>,
    /// True if the file ended in bytes that failed to validate (torn
    /// tail after a crash, or corruption). Scanning stops there; the
    /// records before it are still good.
    pub torn_tail: bool,
}

/// Scans raw WAL file bytes, returning the longest valid prefix.
///
/// A missing or mangled header yields an empty scan with `torn_tail`
/// set — the file contributes nothing, but the caller keeps going.
pub fn scan_bytes(bytes: &[u8]) -> WalScan {
    scan(bytes, None)
}

/// [`scan_bytes`] keeping only the records with `seq > floor`: every
/// record is still validated (checksum, decode, sequence order), so the
/// valid prefix, `last_seq` and `torn_tail` are those of the full scan.
pub fn scan_beyond(bytes: &[u8], floor: u64) -> WalScan {
    scan(bytes, Some(floor))
}

/// The one validating pass behind [`scan_bytes`] and [`scan_beyond`].
fn scan(bytes: &[u8], floor: Option<u64>) -> WalScan {
    let mut out = WalScan { records: Vec::new(), last_seq: None, torn_tail: true };
    let header = wal_header();
    if bytes.len() < header.len() || bytes[..header.len()] != header[..] {
        return out;
    }
    let mut pos = header.len();
    while pos < bytes.len() {
        let Some(len) = bytes.get(pos..pos + 4).and_then(crate::codec::le_u32) else { break };
        if len > MAX_RECORD {
            return out;
        }
        let body_start = pos + 4;
        let body_end = body_start + len as usize;
        let sum_end = body_end + 8;
        if sum_end > bytes.len() {
            return out;
        }
        let body = &bytes[body_start..body_end];
        let stored = crate::codec::le_u64(&bytes[body_end..sum_end]);
        if stored != Some(fnv1a64(body)) {
            return out;
        }
        let Ok((seq, rec)) = WalRecord::decode_body(body) else {
            return out;
        };
        // Sequence numbers must strictly increase; a regression means
        // the file was stitched or overwritten — stop trusting it.
        if out.last_seq.is_some_and(|last| seq <= last) {
            return out;
        }
        out.last_seq = Some(seq);
        if floor.is_none_or(|f| seq > f) {
            out.records.push((seq, rec));
        }
        pos = sum_end;
    }
    out.torn_tail = pos != bytes.len();
    out
}

/// Reads a WAL file from disk and scans it with [`scan_beyond`]. A
/// missing file is an empty, clean scan (no log yet, nothing torn).
pub fn scan_file_beyond(path: &Path, floor: u64) -> Result<WalScan> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(scan_beyond(&bytes, floor)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Ok(WalScan { records: Vec::new(), last_seq: None, torn_tail: false })
        }
        Err(e) => Err(io_err(path, e)),
    }
}

/// Appends one framed record to an open WAL file and flushes it.
pub fn append_frame(file: &mut std::fs::File, frame: &[u8]) -> std::io::Result<()> {
    file.write_all(frame)?;
    file.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlanRecord;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Observe { pred: 1, evaluated: 10, passed: 4 },
            WalRecord::WindowPush { row: vec![3, 1, 4] },
            WalRecord::PlanAdopted {
                plan: PlanRecord {
                    version: 2,
                    wire: vec![0x02, 0x01],
                    expected_cost: 7.5,
                    objective: 7.5,
                },
                est_selectivities: vec![0.25, 0.75],
            },
            WalRecord::EpochEnd { epoch: 9 },
            WalRecord::ServeAdmit { idx: 4, epoch: 11, sig: 0xdead_beef, cache_hit: true },
            WalRecord::ServeComplete { idx: 4, epoch: 19, status: 1 },
        ]
    }

    fn file_bytes(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = wal_header();
        for (i, rec) in records.iter().enumerate() {
            bytes.extend_from_slice(&rec.to_frame(i as u64 + 1));
        }
        bytes
    }

    #[test]
    fn every_variant_round_trips() {
        for (i, rec) in samples().into_iter().enumerate() {
            let body = rec.encode_body(i as u64 + 100);
            let (seq, back) = WalRecord::decode_body(&body).unwrap();
            assert_eq!(seq, i as u64 + 100);
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn scan_reads_full_clean_file() {
        let recs = samples();
        let scan = scan_bytes(&file_bytes(&recs));
        assert!(!scan.torn_tail);
        assert_eq!(scan.records.len(), recs.len());
        for (i, (seq, rec)) in scan.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(rec, &recs[i]);
        }
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let recs = samples();
        let full = file_bytes(&recs);
        // Chop mid-way through the last record's frame.
        let cut = full.len() - 5;
        let scan = scan_bytes(&full[..cut]);
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), recs.len() - 1);
    }

    #[test]
    fn corrupt_record_stops_scan_at_prefix() {
        let recs = samples();
        let mut bytes = file_bytes(&recs);
        // Flip a byte inside the third record's body.
        let hdr = wal_header().len();
        let len0 = u32::from_le_bytes(bytes[hdr..hdr + 4].try_into().unwrap()) as usize;
        let r1 = hdr + 4 + len0 + 8;
        let len1 = u32::from_le_bytes(bytes[r1..r1 + 4].try_into().unwrap()) as usize;
        let r2 = r1 + 4 + len1 + 8;
        bytes[r2 + 10] ^= 0xff;
        let scan = scan_bytes(&bytes);
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 2);
    }

    #[test]
    fn bad_header_and_seq_regression_are_rejected() {
        let mut bytes = file_bytes(&samples());
        bytes[0] ^= 0x01;
        let scan = scan_bytes(&bytes);
        assert!(scan.torn_tail);
        assert!(scan.records.is_empty());

        // Stitch a record with a repeated sequence number.
        let mut bytes = wal_header();
        let rec = WalRecord::EpochEnd { epoch: 1 };
        bytes.extend_from_slice(&rec.to_frame(5));
        bytes.extend_from_slice(&rec.to_frame(5));
        let scan = scan_bytes(&bytes);
        assert!(scan.torn_tail);
        assert_eq!(scan.records.len(), 1);
    }

    #[test]
    fn missing_file_scans_clean_and_empty() {
        let scan = scan_file_beyond(Path::new("/nonexistent/acqp-wal-test"), 0).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.last_seq, None);
        assert!(!scan.torn_tail);
    }

    #[test]
    fn a_reused_frame_buffer_matches_a_fresh_frame() {
        let mut buf = Vec::new();
        for (i, rec) in samples().iter().enumerate().rev() {
            rec.frame_into(i as u64 + 7, &mut buf);
            assert_eq!(buf, rec.to_frame(i as u64 + 7));
        }
    }
}
