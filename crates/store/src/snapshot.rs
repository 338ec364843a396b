//! Snapshots of the clausal state, written atomically.
//!
//! A snapshot file (`snap-<seq>.pwdb`, `seq` = the number of WAL records
//! it covers, zero-padded hex so lexicographic order is numeric order)
//! holds:
//!
//! ```text
//! ┌───────────────┬──────────────────────────────────────────┐
//! │ "PWDBSNP1"    │ one framed record (kind 'Z', see frame)  │
//! │ 8-byte magic  │ payload = JSON body                      │
//! └───────────────┴──────────────────────────────────────────┘
//! ```
//!
//! The JSON body (the PR 1 hand-written `pwdb_metrics::json` dialect —
//! unsigned integers only) is:
//!
//! ```json
//! { "pwdb_snapshot": 1,
//!   "wal_records": 42,
//!   "updates_run": 17,
//!   "clauses": [[0, 3], [5]] }
//! ```
//!
//! where each clause is an array of packed literal codes
//! (`atom_id * 2 + negated`, [`pwdb_logic::Literal::code`]). Atom *names*
//! are deliberately not stored: the WAL's `A` records are the single
//! source of truth for the name table, so any snapshot combines correctly
//! with any valid log prefix.
//!
//! Writes go to a temp file first, `fsync`, then atomic rename into
//! place, then directory `fsync` — a crash mid-checkpoint leaves either
//! the old snapshot set or the new one, never a half-written visible
//! file. Loading validates the magic, the frame checksum, and the body,
//! falling back to the next-newest snapshot on any failure.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use pwdb_logic::{AtomId, Clause, ClauseSet, Literal};
use pwdb_metrics::counter;
use pwdb_metrics::json::Json;

use crate::frame::{decode_record, encode_record, Decoded};

/// Magic prefix of every snapshot file.
pub const MAGIC: &[u8; 8] = b"PWDBSNP1";
/// Frame kind byte used for the snapshot body.
pub const KIND_SNAPSHOT: u8 = b'Z';

/// The logical content of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// How many WAL records this snapshot covers: recovery replays the
    /// log suffix starting at this index.
    pub wal_records: u64,
    /// The database's `updates_run` at checkpoint time.
    pub updates_run: u64,
    /// The interned clausal state.
    pub clauses: ClauseSet,
}

impl SnapshotData {
    fn to_json(&self) -> Json {
        let clauses = self
            .clauses
            .iter()
            .map(|c| {
                Json::Arr(
                    c.literals()
                        .iter()
                        .map(|l| Json::UInt(l.code() as u64))
                        .collect(),
                )
            })
            .collect();
        Json::obj([
            ("pwdb_snapshot".to_owned(), Json::UInt(1)),
            ("wal_records".to_owned(), Json::UInt(self.wal_records)),
            ("updates_run".to_owned(), Json::UInt(self.updates_run)),
            ("clauses".to_owned(), Json::Arr(clauses)),
        ])
    }

    fn from_json(doc: &Json) -> Result<SnapshotData, String> {
        if doc.get("pwdb_snapshot").and_then(Json::as_u64) != Some(1) {
            return Err("not a version-1 snapshot document".to_owned());
        }
        let field = |name: &str| {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric '{name}'"))
        };
        let Some(Json::Arr(clauses)) = doc.get("clauses") else {
            return Err("missing 'clauses' array".to_owned());
        };
        let mut set = ClauseSet::new();
        for c in clauses {
            let Json::Arr(lits) = c else {
                return Err("clause is not an array".to_owned());
            };
            let lits: Result<Vec<Literal>, String> = lits
                .iter()
                .map(|l| {
                    let code = l.as_u64().ok_or("literal is not a number")?;
                    let code = u32::try_from(code).map_err(|_| "literal code overflow")?;
                    Ok(Literal::new(AtomId(code >> 1), code & 1 == 0))
                })
                .collect();
            // `insert_raw`: the snapshot is a verbatim image of the state,
            // not something to re-normalize.
            set.insert_raw(Clause::new(lits?));
        }
        Ok(SnapshotData {
            wal_records: field("wal_records")?,
            updates_run: field("updates_run")?,
            clauses: set,
        })
    }

    /// The full file image (magic + framed JSON body).
    pub fn encode(&self) -> Vec<u8> {
        let body = self.to_json().render();
        let mut out = Vec::with_capacity(MAGIC.len() + body.len() + 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&encode_record(KIND_SNAPSHOT, body.as_bytes()));
        out
    }

    /// Decodes a full file image, validating magic, checksum, and body.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotData, String> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err("bad snapshot magic".to_owned());
        }
        match decode_record(bytes, MAGIC.len(), &[KIND_SNAPSHOT]) {
            Decoded::Record { payload, next, .. } if next == bytes.len() => {
                let text =
                    std::str::from_utf8(payload).map_err(|_| "body is not UTF-8".to_owned())?;
                let doc = Json::parse(text).map_err(|e| e.to_string())?;
                SnapshotData::from_json(&doc)
            }
            Decoded::Record { .. } => Err("trailing bytes after snapshot body".to_owned()),
            other => Err(format!("snapshot frame invalid: {other:?}")),
        }
    }
}

/// The file name of the snapshot covering `seq` WAL records.
pub fn snapshot_file_name(seq: u64) -> String {
    format!("snap-{seq:016x}.pwdb")
}

/// Writes a snapshot atomically into `dir`, returning its path and byte
/// size. Durable (file and directory both fsynced) when this returns.
pub fn write_snapshot(dir: &Path, data: &SnapshotData) -> std::io::Result<(PathBuf, u64)> {
    let _sp = pwdb_metrics::span!("store.snapshot.write");
    let bytes = data.encode();
    let final_path = dir.join(snapshot_file_name(data.wal_records));
    let tmp_path = dir.join(format!(".tmp-{}", snapshot_file_name(data.wal_records)));
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all(); // directory entry durability (best effort off-Linux)
    }
    counter!("store.snapshot.writes").inc();
    counter!("store.snapshot.bytes").add(bytes.len() as u64);
    Ok((final_path, bytes.len() as u64))
}

/// The newest loadable snapshot in `dir`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatestSnapshot {
    /// The snapshot, if any file validated.
    pub data: Option<SnapshotData>,
    /// Snapshot files that existed but failed validation (corrupt, torn,
    /// or unreadable) and were skipped in favor of an older one.
    pub skipped: u64,
}

/// Scans `dir` for `snap-*.pwdb` files and loads the newest one that
/// validates, skipping (but not deleting) corrupt ones. Leftover
/// `.tmp-*` files from a crashed checkpoint are ignored entirely.
pub fn load_latest(dir: &Path) -> std::io::Result<LatestSnapshot> {
    let _sp = pwdb_metrics::span!("store.recover.snapshot");
    let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(hex) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".pwdb"))
        else {
            continue;
        };
        if let Ok(seq) = u64::from_str_radix(hex, 16) {
            seqs.push((seq, entry.path()));
        }
    }
    seqs.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));

    let mut skipped = 0u64;
    for (_, path) in &seqs {
        match std::fs::read(path)
            .map_err(|e| e.to_string())
            .and_then(|b| SnapshotData::decode(&b))
        {
            Ok(data) => {
                counter!("store.snapshot.skipped").add(skipped);
                return Ok(LatestSnapshot {
                    data: Some(data),
                    skipped,
                });
            }
            Err(_) => skipped += 1,
        }
    }
    counter!("store.snapshot.skipped").add(skipped);
    Ok(LatestSnapshot {
        data: None,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;
    use pwdb_logic::{parse_clause_set, AtomTable};

    fn sample(wal_records: u64) -> SnapshotData {
        let mut t = AtomTable::with_indexed_atoms(4);
        SnapshotData {
            wal_records,
            updates_run: wal_records / 2,
            clauses: parse_clause_set("{A1 | !A2, A3, !A1 | A2 | !A4}", &mut t).unwrap(),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let data = sample(42);
        let decoded = SnapshotData::decode(&data.encode()).unwrap();
        assert_eq!(decoded, data);
    }

    #[test]
    fn empty_and_contradictory_states_roundtrip() {
        for clauses in [ClauseSet::new(), ClauseSet::contradiction()] {
            let data = SnapshotData {
                wal_records: 0,
                updates_run: 0,
                clauses,
            };
            assert_eq!(SnapshotData::decode(&data.encode()).unwrap(), data);
        }
    }

    #[test]
    fn write_then_load_latest() {
        let dir = TestDir::new("snap-load");
        write_snapshot(dir.path(), &sample(10)).unwrap();
        write_snapshot(dir.path(), &sample(25)).unwrap();
        let latest = load_latest(dir.path()).unwrap();
        assert_eq!(latest.skipped, 0);
        assert_eq!(latest.data.unwrap().wal_records, 25);
    }

    #[test]
    fn corrupt_latest_falls_back() {
        let dir = TestDir::new("snap-fallback");
        write_snapshot(dir.path(), &sample(10)).unwrap();
        let (newest, _) = write_snapshot(dir.path(), &sample(25)).unwrap();
        // Flip one byte in the newest file's body.
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&newest, &bytes).unwrap();

        let latest = load_latest(dir.path()).unwrap();
        assert_eq!(latest.skipped, 1);
        assert_eq!(latest.data.unwrap().wal_records, 10);
    }

    #[test]
    fn all_corrupt_means_no_snapshot() {
        let dir = TestDir::new("snap-none");
        let (p, _) = write_snapshot(dir.path(), &sample(10)).unwrap();
        std::fs::write(&p, b"PWDBSNP1 but then garbage").unwrap();
        let latest = load_latest(dir.path()).unwrap();
        assert_eq!(latest.skipped, 1);
        assert!(latest.data.is_none());
    }

    #[test]
    fn leftover_tmp_files_are_ignored() {
        let dir = TestDir::new("snap-tmp");
        write_snapshot(dir.path(), &sample(10)).unwrap();
        std::fs::write(
            dir.path().join(".tmp-snap-00000000000000ff.pwdb"),
            b"half-written garbage",
        )
        .unwrap();
        let latest = load_latest(dir.path()).unwrap();
        assert_eq!(latest.skipped, 0);
        assert_eq!(latest.data.unwrap().wal_records, 10);
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let data = sample(7);
        let bytes = data.encode();
        for cut in [0, 4, MAGIC.len(), bytes.len() - 1] {
            assert!(SnapshotData::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(SnapshotData::decode(&extended).is_err());
    }
}
