//! Fuzz-style robustness: no byte stream — random, truncated, or a
//! corrupted valid artifact — may panic the decoders, and nothing that
//! fails validation may silently decode.

use acqp_persist::snapshot::BasestationCheckpoint;
use acqp_persist::wal::{scan_beyond, scan_bytes, WalRecord};
use acqp_persist::{CheckpointStore, PlanRecord};
use proptest::prelude::*;

fn valid_snapshot() -> Vec<u8> {
    checkpoint_at(21).to_file_bytes()
}

/// A valid checkpoint that folds in every WAL record up to `last_seq`.
fn checkpoint_at(last_seq: u64) -> BasestationCheckpoint {
    BasestationCheckpoint {
        epoch: 7,
        last_seq,
        plan: PlanRecord {
            version: 2,
            wire: vec![0x02, 0x01, 0x00],
            expected_cost: 3.5,
            objective: 3.5,
        },
        drift: None,
        window: None,
        mask_cache: None,
        ledgers: vec![[1.0, 0.5, 0.25, 0.0]],
    }
}

fn valid_wal() -> Vec<u8> {
    let mut bytes = acqp_persist::wal::wal_header();
    for (i, rec) in [
        WalRecord::Observe { pred: 0, evaluated: 12, passed: 5 },
        WalRecord::WindowPush { row: vec![1, 2, 3] },
        WalRecord::EpochEnd { epoch: 1 },
    ]
    .iter()
    .enumerate()
    {
        bytes.extend_from_slice(&rec.to_frame(i as u64 + 1));
    }
    bytes
}

/// A record of any variant; `a`, `b` and `n` fill its fields.
fn any_record() -> impl Strategy<Value = WalRecord> {
    (0u8..6, any::<u64>(), any::<u64>(), 0usize..5).prop_map(|(tag, a, b, n)| match tag {
        0 => WalRecord::Observe { pred: a as u16, evaluated: a, passed: b },
        1 => WalRecord::WindowPush { row: vec![b as u16; n] },
        2 => WalRecord::PlanAdopted {
            plan: PlanRecord {
                version: a,
                wire: vec![b as u8; n],
                expected_cost: 1.5,
                objective: 1.5,
            },
            est_selectivities: vec![0.5; n],
        },
        3 => WalRecord::EpochEnd { epoch: a },
        4 => WalRecord::ServeAdmit { idx: a, epoch: b, sig: a ^ b, cache_hit: n % 2 == 1 },
        _ => WalRecord::ServeComplete { idx: a, epoch: b, status: n as u8 },
    })
}

/// A log of `records` whose sequence numbers start at `first` and
/// advance by the given gaps (at least 1, so the log is valid).
fn wal_of(records: &[(WalRecord, u64)], first: u64) -> Vec<u8> {
    let mut bytes = acqp_persist::wal::wal_header();
    let mut seq = first;
    for (rec, gap) in records {
        bytes.extend_from_slice(&rec.to_frame(seq));
        seq += gap;
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// The tail-only scan of a truncated or corrupted valid log is the
    /// full scan filtered by `seq > floor`, with the same torn flag; a
    /// store opened on the log stamps the record after the full scan's
    /// last one, and so does a store recovered from it, whose one pass
    /// over the log only keeps the tail.
    #[test]
    fn tail_scan_is_the_full_scan_beyond_the_floor(
        records in proptest::collection::vec((any_record(), 1u64..4), 0..10),
        first in 0u64..4,
        floor in 0u64..30,
        cut in any::<usize>(),
        flip in (any::<bool>(), any::<usize>(), 1u8..=255),
    ) {
        let mut bytes = wal_of(&records, first);
        bytes.truncate(cut % (bytes.len() + 1));
        if let ((true, pos, mask), false) = (flip, bytes.is_empty()) {
            let pos = pos % bytes.len();
            bytes[pos] ^= mask;
        }
        let full = scan_bytes(&bytes);
        let tail = scan_beyond(&bytes, floor);
        let beyond: Vec<(u64, WalRecord)> =
            full.records.iter().filter(|(seq, _)| *seq > floor).cloned().collect();
        prop_assert_eq!(&tail.records, &beyond);
        prop_assert_eq!(tail.torn_tail, full.torn_tail);
        prop_assert_eq!(tail.last_seq, full.records.last().map(|(seq, _)| *seq));

        let dir = std::env::temp_dir().join(format!("acqp_persist_tail_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        prop_assert_eq!(store.next_seq(), full.records.last().map_or(0, |(seq, _)| *seq) + 1);
        // No snapshot: recovery cold-starts and replays the whole prefix
        // with a sequence number above zero.
        let out = store.recover().unwrap();
        prop_assert!(out.cold_start);
        prop_assert_eq!(out.corrupt_wal_tail, full.torn_tail);
        let replayed: Vec<WalRecord> =
            full.records.iter().filter(|(seq, _)| *seq > 0).map(|(_, r)| r.clone()).collect();
        prop_assert_eq!(&out.replayed, &replayed);
        let (reopened, again) = CheckpointStore::reopen(&dir).unwrap();
        prop_assert_eq!(reopened.next_seq(), store.next_seq());
        prop_assert_eq!(again, out);

        // With a snapshot at the floor, recovery replays only the tail
        // yet still positions the store after the last valid record.
        checkpoint_at(floor).write_to(&dir.join("snap-000001")).unwrap();
        let (reopened, out) = CheckpointStore::reopen(&dir).unwrap();
        prop_assert!(!out.cold_start);
        prop_assert_eq!(out.corrupt_wal_tail, full.torn_tail);
        let tail: Vec<WalRecord> = beyond.iter().map(|(_, r)| r.clone()).collect();
        prop_assert_eq!(out.replayed, tail);
        prop_assert_eq!(reopened.next_seq(), CheckpointStore::open(&dir).unwrap().next_seq());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary bytes never panic the snapshot decoder, and (checksum
    /// aside) essentially never validate.
    #[test]
    fn random_bytes_never_panic_snapshot_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = BasestationCheckpoint::from_file_bytes(&bytes);
        let _ = BasestationCheckpoint::decode(&bytes);
    }

    /// Arbitrary bytes never panic the WAL scanner; it always returns a
    /// (possibly empty) valid prefix.
    #[test]
    fn random_bytes_never_panic_wal_scanner(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let scan = scan_bytes(&bytes);
        let _ = scan.records.len();
    }

    /// Flipping any single byte of a valid snapshot is detected.
    #[test]
    fn any_byte_flip_in_snapshot_is_detected(pos in 0usize..1024, mask in 1u8..=255) {
        let mut bytes = valid_snapshot();
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        prop_assert!(BasestationCheckpoint::from_file_bytes(&bytes).is_err());
    }

    /// Flipping a byte in a valid WAL never panics and never grows the
    /// record count; truncating it keeps a valid prefix.
    #[test]
    fn wal_corruption_shrinks_to_a_valid_prefix(pos in 0usize..1024, mask in 1u8..=255, cut in 0usize..1024) {
        let good = valid_wal();
        let full = scan_bytes(&good);
        prop_assert!(!full.torn_tail);

        let mut flipped = good.clone();
        let pos = pos % flipped.len();
        flipped[pos] ^= mask;
        let scan = scan_bytes(&flipped);
        prop_assert!(scan.records.len() <= full.records.len());
        // Whatever survives is a prefix of the original log.
        for (a, b) in scan.records.iter().zip(full.records.iter()) {
            prop_assert!(a == b);
        }

        let cut = cut % (good.len() + 1);
        let scan = scan_bytes(&good[..cut]);
        prop_assert!(scan.records.len() <= full.records.len());
        for (a, b) in scan.records.iter().zip(full.records.iter()) {
            prop_assert!(a == b);
        }
    }
}
