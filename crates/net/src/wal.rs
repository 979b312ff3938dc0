//! Durable base-station storage: a CRC-framed write-ahead log with
//! compacting snapshots.
//!
//! Each UDP worker shard owns one [`StateStore`] under the daemon's
//! `--state-dir`: a snapshot file (`shard-N.snap`) holding the last
//! [`wsn_core::persist::BsSnapshot`] compaction point, and an append-only
//! log (`shard-N.wal`) of the [`wsn_core::persist::StateMutation`]s
//! journaled since. Recovery loads the snapshot, then replays every log
//! record whose log sequence number (LSN) is strictly greater than the
//! snapshot's — so a crash *between* writing a snapshot and truncating
//! the old log never double-applies a mutation.
//!
//! ## On-disk framing
//!
//! Log records are length-prefixed and CRC-protected:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [lsn: u64 LE] [payload: len bytes]
//! ```
//!
//! where the CRC covers `lsn || payload`. The snapshot file is one
//! record with a magic prefix:
//!
//! ```text
//! [b"WSNSNAP1"] [len: u32 LE] [crc32: u32 LE] [lsn: u64 LE] [payload]
//! ```
//!
//! A torn tail — a record truncated mid-write by a crash, or corrupted on
//! disk — is detected by the length/CRC check and discarded along with
//! everything after it: recovery always yields the longest valid prefix
//! and never panics on any byte sequence (pinned by the `wal_recovery`
//! proptests).
//!
//! ## Durability model
//!
//! Appends go through a buffered writer flushed to the OS after every
//! batch ([`StateStore::append`]): a SIGKILL of the daemon loses nothing
//! because the page cache survives the process. `fsync` (surviving
//! *machine* crashes) is paid only at snapshot points, where the new
//! snapshot is written to a temp file, fsynced, then atomically renamed
//! over the old one before the log is truncated.

use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use wsn_core::persist::{BsSnapshot, StateMutation};

/// Magic prefix of a snapshot file (version baked into the last byte).
pub const SNAP_MAGIC: &[u8; 8] = b"WSNSNAP1";

/// Default log size that triggers a compacting snapshot, in bytes.
pub const DEFAULT_SNAPSHOT_EVERY_BYTES: u64 = 1 << 20;

const RECORD_HEADER: usize = 4 + 4 + 8;

// CRC-32 (IEEE 802.3, reflected), table generated at compile time — the
// framing must not depend on an external crate.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) over `data`, seeded per the standard.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn frame_record(out: &mut Vec<u8>, lsn: u64, payload: &[u8]) {
    let mut body = Vec::with_capacity(8 + payload.len());
    body.extend_from_slice(&lsn.to_le_bytes());
    body.extend_from_slice(payload);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Parses one framed record starting at `buf`; `Some((lsn, payload,
/// consumed))` on success, `None` on a torn or corrupt head.
fn parse_record(buf: &[u8]) -> Option<(u64, &[u8], usize)> {
    if buf.len() < RECORD_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    // An absurd length (from a corrupted prefix) must not wrap or
    // over-reserve; anything beyond the remaining bytes is torn.
    let total = RECORD_HEADER.checked_add(len)?;
    if buf.len() < total {
        return None;
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let body = &buf[8..total];
    if crc32(body) != crc {
        return None;
    }
    let lsn = u64::from_le_bytes(body[0..8].try_into().unwrap());
    Some((lsn, &body[8..], total))
}

/// Everything [`recover`] found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The snapshot, if a valid one exists.
    pub snapshot: Option<BsSnapshot>,
    /// Journal records past the snapshot, in LSN order.
    pub mutations: Vec<StateMutation>,
    /// Log records discarded as torn/corrupt (tail) or stale (LSN at or
    /// below the snapshot's).
    pub discarded: u64,
    /// Length of the log's longest valid prefix: where appends resume.
    pub wal_bytes: u64,
    /// LSN of the last valid record, the snapshot's included (0 if none).
    pub last_lsn: u64,
}

fn snap_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.snap"))
}

fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

/// Reads worker shard `shard`'s snapshot and log under `dir` without
/// changing anything on disk. A missing or unreadable file recovers as
/// empty.
pub fn recover(dir: &Path, shard: usize) -> Recovered {
    let mut recovered = Recovered::default();
    if let Ok(bytes) = fs::read(snap_path(dir, shard)) {
        match decode_snapshot_file(&bytes) {
            Some((lsn, snap)) => {
                recovered.last_lsn = lsn;
                recovered.snapshot = Some(snap);
            }
            None => recovered.discarded += !bytes.is_empty() as u64,
        }
    }
    let snap_lsn = recovered.last_lsn;
    if let Ok(bytes) = fs::read(wal_path(dir, shard)) {
        let (records, consumed) = read_wal(&bytes);
        recovered.discarded += (consumed < bytes.len()) as u64;
        for (lsn, m) in records {
            match m {
                Some(m) if lsn > snap_lsn => recovered.mutations.push(m),
                // Undecodable, or compacted before a crash but not yet
                // truncated: already inside the snapshot.
                _ => recovered.discarded += 1,
            }
            recovered.last_lsn = recovered.last_lsn.max(lsn);
        }
        recovered.wal_bytes = consumed as u64;
    }
    recovered
}

/// One worker shard's durable state: `shard-N.snap` + `shard-N.wal`.
pub struct StateStore {
    snap_path: PathBuf,
    wal_path: PathBuf,
    wal: BufWriter<File>,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Bytes appended to the log since the last snapshot.
    wal_bytes: u64,
    /// Log size that triggers a compacting snapshot.
    pub snapshot_every_bytes: u64,
    scratch: Vec<u8>,
}

impl StateStore {
    /// Opens (creating if absent) the store for worker shard `shard`
    /// under `dir`, recovering any existing state first.
    ///
    /// Returns the store positioned for appending plus what was
    /// recovered. The write cursor resumes after the last *valid* record;
    /// a torn tail is truncated away so it can never corrupt later
    /// appends.
    pub fn open(dir: &Path, shard: usize) -> io::Result<(StateStore, Recovered)> {
        fs::create_dir_all(dir)?;
        let recovered = recover(dir, shard);
        let wal_path = wal_path(dir, shard);
        // Truncate any torn tail so the append cursor lands on clean
        // framing.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&wal_path)?;
        file.set_len(recovered.wal_bytes)?;
        file.seek(SeekFrom::Start(recovered.wal_bytes))?;
        let store = StateStore {
            snap_path: snap_path(dir, shard),
            wal_path,
            wal: BufWriter::new(file),
            next_lsn: recovered.last_lsn + 1,
            wal_bytes: recovered.wal_bytes,
            snapshot_every_bytes: DEFAULT_SNAPSHOT_EVERY_BYTES,
            scratch: Vec::new(),
        };
        Ok((store, recovered))
    }

    /// Appends a batch of mutations and flushes to the OS. Returns the
    /// framed bytes written. Call **before** releasing any output the
    /// batch gates (WAL-before-ACK).
    pub fn append(&mut self, batch: &[StateMutation]) -> io::Result<u64> {
        if batch.is_empty() {
            return Ok(0);
        }
        self.scratch.clear();
        let mut payload = Vec::new();
        for m in batch {
            payload.clear();
            m.encode_into(&mut payload);
            let lsn = self.next_lsn;
            self.next_lsn += 1;
            frame_record(&mut self.scratch, lsn, &payload);
        }
        self.wal.write_all(&self.scratch)?;
        self.wal.flush()?;
        let n = self.scratch.len() as u64;
        self.wal_bytes += n;
        Ok(n)
    }

    /// Bytes in the log since the last snapshot.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Unconditionally writes a snapshot covering everything appended so
    /// far, then truncates the log. Crash-ordering: the snapshot reaches
    /// disk (write + fsync + atomic rename) *before* the log shrinks, and
    /// recovery skips log records the snapshot already covers, so a crash
    /// at any point in between loses nothing and double-applies nothing.
    pub fn write_snapshot(&mut self, snap: &BsSnapshot) -> io::Result<u64> {
        let lsn = self.next_lsn - 1;
        let payload = snap.encode();
        let mut out = Vec::with_capacity(SNAP_MAGIC.len() + RECORD_HEADER + payload.len());
        out.extend_from_slice(SNAP_MAGIC);
        frame_record(&mut out, lsn, &payload);

        let tmp = self.snap_path.with_extension("snap.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.snap_path)?;

        // Log truncation is safe now: every record is inside the
        // snapshot. Reopen at zero rather than seeking — simplest way to
        // keep the BufWriter honest.
        self.wal.flush()?;
        let file = OpenOptions::new().write(true).open(&self.wal_path)?;
        file.set_len(0)?;
        self.wal = BufWriter::new(file);
        self.wal_bytes = 0;
        Ok(payload.len() as u64)
    }
}

/// Where a base-station shard journals its key-state mutations
/// (`crate::shard`): a write-ahead log with compacting snapshots.
pub trait Store: Send {
    /// Appends one journal batch, flushed to the OS before returning.
    /// Returns the bytes written.
    fn append(&mut self, batch: &[StateMutation]) -> io::Result<u64>;
    /// Whether the log has outgrown its compaction threshold.
    fn snapshot_due(&self) -> bool;
    /// Writes a snapshot covering every append so far and truncates the
    /// log. Returns the encoded snapshot size.
    fn write_snapshot(&mut self, snap: &BsSnapshot) -> io::Result<u64>;
    /// LSN of the last record appended (0 if none yet).
    fn last_lsn(&self) -> u64;
}

impl Store for StateStore {
    fn append(&mut self, batch: &[StateMutation]) -> io::Result<u64> {
        StateStore::append(self, batch)
    }

    fn snapshot_due(&self) -> bool {
        self.wal_bytes >= self.snapshot_every_bytes
    }

    fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    fn write_snapshot(&mut self, snap: &BsSnapshot) -> io::Result<u64> {
        StateStore::write_snapshot(self, snap)
    }
}

/// Parses a whole log image: every decodable record in order, plus how
/// many prefix bytes were valid framing. Never panics; a torn or corrupt
/// record ends the scan (longest valid prefix). A record that frames
/// correctly but whose payload fails [`StateMutation::decode`] yields
/// `(lsn, None)` — the framing layer cannot vouch for the codec.
pub fn read_wal(bytes: &[u8]) -> (Vec<(u64, Option<StateMutation>)>, usize) {
    let mut out = Vec::new();
    let mut off = 0;
    while let Some((lsn, payload, consumed)) = parse_record(&bytes[off..]) {
        out.push((lsn, StateMutation::decode(payload).ok()));
        off += consumed;
    }
    (out, off)
}

/// Decodes a snapshot file image; `None` if the magic, framing, CRC or
/// payload codec fails anywhere.
pub fn decode_snapshot_file(bytes: &[u8]) -> Option<(u64, BsSnapshot)> {
    let rest = bytes.strip_prefix(SNAP_MAGIC.as_slice())?;
    let (lsn, payload, consumed) = parse_record(rest)?;
    if consumed != rest.len() {
        return None;
    }
    let snap = BsSnapshot::decode(payload).ok()?;
    Some((lsn, snap))
}

/// Reads the registry ids a state dir currently holds across every
/// shard — the crash-soak's "zero key-entry loss" oracle.
pub fn registry_ids(dir: &Path, shards: usize) -> io::Result<Vec<u32>> {
    let mut ids = BTreeSet::new();
    for shard in 0..shards {
        let recovered = recover(dir, shard);
        let mut present: BTreeSet<u32> = recovered
            .snapshot
            .iter()
            .flat_map(|snap| snap.registry.iter().map(|(id, _)| *id))
            .collect();
        for m in &recovered.mutations {
            match *m {
                StateMutation::Join { id, .. } => {
                    present.insert(id);
                }
                StateMutation::RehomeIn { node, .. } | StateMutation::FailoverIn { node, .. } => {
                    present.insert(node);
                }
                StateMutation::RehomeOut { node } => {
                    present.remove(&node);
                }
                _ => {}
            }
        }
        ids.extend(present);
    }
    Ok(ids.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_crypto::Key128;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wsn-wal-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn key(b: u8) -> Key128 {
        Key128::from_bytes([b; 16])
    }

    fn sample_batch() -> Vec<StateMutation> {
        vec![
            StateMutation::CounterAccept { src: 4, ctr: 9 },
            StateMutation::EpochRatchet,
            StateMutation::Join {
                id: 12,
                ki: key(1),
                kc: key(2),
            },
        ]
    }

    #[test]
    fn crc_known_vector() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_then_recover() {
        let dir = tmpdir("roundtrip");
        {
            let (mut store, rec) = StateStore::open(&dir, 0).unwrap();
            assert!(rec.snapshot.is_none());
            assert!(rec.mutations.is_empty());
            store.append(&sample_batch()).unwrap();
        }
        let (_store, rec) = StateStore::open(&dir, 0).unwrap();
        assert_eq!(rec.mutations, sample_batch());
        assert_eq!(rec.discarded, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_skips_stale_records() {
        let dir = tmpdir("compact");
        let snap = BsSnapshot {
            id: 0,
            epoch: 1,
            seq: 10,
            revoke_seq: 0,
            chain_next: 1,
            link_advertised: false,
            registry: vec![(5, key(7))],
            cluster_keys: vec![(0, key(8)), (5, key(9))],
            windows: vec![],
            evicted: vec![],
            pending_revocations: vec![],
            pending_reveals: vec![],
        };
        {
            let (mut store, _) = StateStore::open(&dir, 0).unwrap();
            store.append(&sample_batch()).unwrap();
            store.write_snapshot(&snap).unwrap();
            // Log truncated; new appends land past the snapshot LSN.
            assert_eq!(store.wal_bytes(), 0);
            store
                .append(&[StateMutation::CounterAccept { src: 5, ctr: 1 }])
                .unwrap();
        }
        let (_s, rec) = StateStore::open(&dir, 0).unwrap();
        assert_eq!(rec.snapshot.as_ref(), Some(&snap));
        assert_eq!(
            rec.mutations,
            vec![StateMutation::CounterAccept { src: 5, ctr: 1 }]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_after_snapshot_not_double_applied() {
        // Crash window: snapshot renamed into place but the log not yet
        // truncated. Recovery must skip records the snapshot covers.
        let dir = tmpdir("stale");
        {
            let (mut store, _) = StateStore::open(&dir, 0).unwrap();
            store.append(&sample_batch()).unwrap();
            // Write the snapshot file by hand *without* truncating the log,
            // simulating a crash between rename and set_len.
            let snap = BsSnapshot {
                id: 0,
                epoch: 0,
                seq: 0,
                revoke_seq: 0,
                chain_next: 1,
                link_advertised: false,
                registry: vec![],
                cluster_keys: vec![(0, key(1))],
                windows: vec![],
                evicted: vec![],
                pending_revocations: vec![],
                pending_reveals: vec![],
            };
            let lsn = store.last_lsn();
            let payload = snap.encode();
            let mut out = Vec::new();
            out.extend_from_slice(SNAP_MAGIC);
            frame_record(&mut out, lsn, &payload);
            fs::write(dir.join("shard-0.snap"), out).unwrap();
        }
        let (_s, rec) = StateStore::open(&dir, 0).unwrap();
        assert!(rec.snapshot.is_some());
        assert!(rec.mutations.is_empty(), "covered records must be skipped");
        assert_eq!(rec.discarded, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncated_and_appends_continue() {
        let dir = tmpdir("torn");
        {
            let (mut store, _) = StateStore::open(&dir, 0).unwrap();
            store.append(&sample_batch()).unwrap();
        }
        // Tear the last record mid-payload.
        let wal = dir.join("shard-0.wal");
        let bytes = fs::read(&wal).unwrap();
        fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        {
            let (mut store, rec) = StateStore::open(&dir, 0).unwrap();
            assert_eq!(rec.mutations.len(), 2, "torn third record discarded");
            store
                .append(&[StateMutation::CounterAccept { src: 9, ctr: 2 }])
                .unwrap();
        }
        let (_s, rec) = StateStore::open(&dir, 0).unwrap();
        assert_eq!(rec.mutations.len(), 3);
        assert_eq!(
            rec.mutations[2],
            StateMutation::CounterAccept { src: 9, ctr: 2 }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_ignored() {
        let dir = tmpdir("badsnap");
        {
            let (mut store, _) = StateStore::open(&dir, 0).unwrap();
            store.append(&sample_batch()).unwrap();
        }
        fs::write(dir.join("shard-0.snap"), b"WSNSNAP1garbage").unwrap();
        let (_s, rec) = StateStore::open(&dir, 0).unwrap();
        assert!(rec.snapshot.is_none());
        // The log still replays in full.
        assert_eq!(rec.mutations, sample_batch());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registry_ids_tracks_joins_and_rehomes() {
        let dir = tmpdir("reg");
        {
            let (mut store, _) = StateStore::open(&dir, 0).unwrap();
            store
                .append(&[
                    StateMutation::Join {
                        id: 3,
                        ki: key(1),
                        kc: key(2),
                    },
                    StateMutation::Join {
                        id: 4,
                        ki: key(3),
                        kc: key(4),
                    },
                    StateMutation::RehomeOut { node: 3 },
                    // A journaled takeover counts toward the registry;
                    // a bare intent does not change ownership.
                    StateMutation::FailoverIn {
                        node: 7,
                        ki: key(5),
                        from_sink: 2,
                    },
                    StateMutation::HandoffIntent {
                        node: 4,
                        to_sink: 1,
                    },
                ])
                .unwrap();
        }
        assert_eq!(registry_ids(&dir, 1).unwrap(), vec![4, 7]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
