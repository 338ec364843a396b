//! The append-only write-ahead log of database statements.
//!
//! The log is a single file (`wal.log`) of framed records (see
//! [`crate::frame`]). Two record kinds exist:
//!
//! * `A` — *atom interning*: the payload is a UTF-8 atom name. Replaying
//!   `A` records in file order reassigns every atom the id it had when the
//!   log was written (ids are dense and allocated in intern order), which
//!   is what makes the textual statement encoding exact.
//! * `S` — *statement*: the payload is the canonical text of one HLU
//!   statement, parseable by `pwdb_hlu::parse_hlu` against the table the
//!   preceding `A` records rebuild.
//!
//! Appends are buffered; [`Wal::sync`] writes and `fsync`s — that is the
//! commit point. [`scan`] reads a log back, stopping at the first torn or
//! corrupt frame, and reports exactly how many bytes were valid so
//! recovery can truncate the tail.
//!
//! The buffer is an explicit `pending: Vec<u8>` (not a `BufWriter`), so
//! the log always knows the exact durable prefix (`synced_bytes`). A
//! failed or short write leaves the file *dirty* past that prefix; the
//! next sync attempt — or [`Wal::discard_pending`] when the caller gives
//! up — first truncates the file back to `synced_bytes`, which is what
//! keeps an I/O-faulted log readable: its on-disk content is always the
//! committed prefix plus at most one torn tail that [`scan`] cuts.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pwdb_metrics::counter;

use crate::fault::WriteFaultKind;
use crate::frame::{decode_record, encode_record, Decoded};

/// Record kind byte: an atom-interning event.
pub const KIND_ATOM: u8 = b'A';
/// Record kind byte: an applied HLU statement.
pub const KIND_STMT: u8 = b'S';

const KINDS: [u8; 2] = [KIND_ATOM, KIND_STMT];

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Intern this name as the next dense atom id.
    Atom(String),
    /// Apply this HLU statement (canonical text form).
    Stmt(String),
}

impl Record {
    /// The frame kind byte for this record.
    pub fn kind(&self) -> u8 {
        match self {
            Record::Atom(_) => KIND_ATOM,
            Record::Stmt(_) => KIND_STMT,
        }
    }

    /// The payload bytes for this record.
    pub fn payload(&self) -> &[u8] {
        match self {
            Record::Atom(s) | Record::Stmt(s) => s.as_bytes(),
        }
    }

    /// The framed on-disk encoding of this record.
    pub fn encode(&self) -> Vec<u8> {
        encode_record(self.kind(), self.payload())
    }
}

/// The result of scanning a WAL file from the start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every checksum-valid record of the longest valid prefix, in order.
    pub records: Vec<Record>,
    /// Byte length of that valid prefix.
    pub valid_bytes: u64,
    /// Total file length (≥ `valid_bytes`; a difference means a tail was
    /// torn or corrupted).
    pub total_bytes: u64,
}

impl WalScan {
    /// Whether the file carried bytes past the last valid record.
    pub fn has_invalid_tail(&self) -> bool {
        self.valid_bytes < self.total_bytes
    }
}

/// Reads `path` (missing file = empty log) and decodes its longest valid
/// record prefix. Non-UTF-8 payloads stop the scan like a checksum
/// failure would: everything from that record on counts as the tail.
pub fn scan(path: &Path) -> std::io::Result<WalScan> {
    let _sp = pwdb_metrics::span!("store.wal.scan");
    let buf = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Decoded::Record {
        kind,
        payload,
        next,
    } = decode_record(&buf, pos, &KINDS)
    {
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        records.push(match kind {
            KIND_ATOM => Record::Atom(text.to_owned()),
            _ => Record::Stmt(text.to_owned()),
        });
        pos = next;
    }
    Ok(WalScan {
        records,
        valid_bytes: pos as u64,
        total_bytes: buf.len() as u64,
    })
}

/// An open write-ahead log positioned for appending.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Encoded records appended since the last successful sync.
    pending: Vec<u8>,
    pending_records: u64,
    records: u64,
    /// Bytes known durable on disk — the committed prefix.
    synced_bytes: u64,
    synced_records: u64,
    /// A failed write may have left partial bytes past `synced_bytes`;
    /// the next sync (or discard) truncates back before doing anything.
    dirty_tail: bool,
}

impl Wal {
    /// Opens (creating if missing) the log at `path` for appending after
    /// `valid_bytes`, physically truncating any invalid tail beyond it.
    /// `records` is the record count of the valid prefix (from [`scan`]).
    pub fn open(path: &Path, valid_bytes: u64, records: u64) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let end = file.seek(SeekFrom::End(0))?;
        if end > valid_bytes {
            counter!("store.wal.truncated_tails").inc();
            file.set_len(valid_bytes)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_bytes))?;
        Ok(Wal {
            file,
            path: path.to_owned(),
            pending: Vec::new(),
            pending_records: 0,
            records,
            synced_bytes: valid_bytes,
            synced_records: records,
            dirty_tail: false,
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended so far (valid prefix + this session's appends).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Records made durable by the last [`Wal::sync`].
    pub fn synced_records(&self) -> u64 {
        self.synced_records
    }

    /// Bytes in the log, counting buffered appends.
    pub fn bytes(&self) -> u64 {
        self.synced_bytes + self.pending.len() as u64
    }

    /// Bytes known durable on disk.
    pub fn synced_bytes(&self) -> u64 {
        self.synced_bytes
    }

    /// Whether records are buffered but not yet durable.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Buffers one record. Not durable until [`Wal::sync`] returns.
    pub fn append(&mut self, record: &Record) -> std::io::Result<()> {
        let _sp = pwdb_metrics::span!("store.wal.append");
        let encoded = record.encode();
        self.pending.extend_from_slice(&encoded);
        self.pending_records += 1;
        self.records += 1;
        counter!("store.wal.records").inc();
        counter!("store.wal.bytes").add(encoded.len() as u64);
        Ok(())
    }

    /// Writes buffered records and `fsync`s the file — the durability
    /// point. Everything appended before this call survives a crash.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.sync_injected(None)
    }

    /// [`Wal::sync`] with an optional injected fault (the store's
    /// steady-state fault-tolerance tests drive this; `None` is the
    /// production path).
    ///
    /// On *any* failure — injected or real — the buffered records stay
    /// pending and the on-disk state is marked dirty, so the next attempt
    /// first self-heals by truncating back to the committed prefix. A
    /// short write deliberately leaves a torn prefix of the pending bytes
    /// on disk to exercise exactly that path.
    pub fn sync_injected(&mut self, fault: Option<WriteFaultKind>) -> std::io::Result<()> {
        let _sp = pwdb_metrics::span!("store.wal.fsync");
        self.heal_dirty_tail()?;
        match fault {
            Some(WriteFaultKind::ShortWrite) => {
                let half = self.pending.len() / 2;
                if half > 0 {
                    // Best effort, like a real torn write: some prefix
                    // lands, the rest never does.
                    if self.file.write_all(&self.pending[..half]).is_ok() {
                        let _ = self.file.sync_data();
                        self.dirty_tail = true;
                    }
                }
                return Err(WriteFaultKind::ShortWrite.to_error());
            }
            Some(kind) => return Err(kind.to_error()),
            None => {}
        }
        if let Err(e) = self
            .file
            .write_all(&self.pending)
            .and_then(|()| self.file.sync_data())
        {
            // Unknown how much reached the disk: treat the tail as dirty.
            self.dirty_tail = !self.pending.is_empty();
            return Err(e);
        }
        self.synced_bytes += self.pending.len() as u64;
        self.synced_records = self.records;
        self.pending.clear();
        self.pending_records = 0;
        counter!("store.wal.fsyncs").inc();
        Ok(())
    }

    /// Drops buffered (never-synced) records — the caller has rolled the
    /// statement back and the log must forget it ever happened. Also
    /// self-heals any dirty on-disk tail a failed write left, restoring
    /// the file to exactly the committed prefix.
    pub fn discard_pending(&mut self) -> std::io::Result<()> {
        self.records -= self.pending_records;
        self.pending.clear();
        self.pending_records = 0;
        self.heal_dirty_tail()
    }

    /// Truncates the file back to the committed prefix if a failed write
    /// left unacknowledged bytes past it.
    fn heal_dirty_tail(&mut self) -> std::io::Result<()> {
        if !self.dirty_tail {
            return Ok(());
        }
        counter!("store.wal.dirty_tails_healed").inc();
        self.file.set_len(self.synced_bytes)?;
        self.file.seek(SeekFrom::Start(self.synced_bytes))?;
        self.file.sync_data()?;
        self.dirty_tail = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdir::TestDir;

    fn stmt(i: usize) -> Record {
        Record::Stmt(format!("(insert {{A{}}})", i + 1))
    }

    #[test]
    fn append_sync_scan_roundtrip() {
        let dir = TestDir::new("wal-roundtrip");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::open(&path, 0, 0).unwrap();
        wal.append(&Record::Atom("rain".into())).unwrap();
        for i in 0..5 {
            wal.append(&stmt(i)).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.records(), 6);

        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 6);
        assert_eq!(s.records[0], Record::Atom("rain".into()));
        assert!(!s.has_invalid_tail());
        assert_eq!(s.valid_bytes, wal.bytes());
    }

    #[test]
    fn scan_of_missing_file_is_empty() {
        let dir = TestDir::new("wal-missing");
        let s = scan(&dir.path().join("nope.log")).unwrap();
        assert_eq!(s.records, Vec::new());
        assert_eq!((s.valid_bytes, s.total_bytes), (0, 0));
    }

    #[test]
    fn torn_tail_is_cut_at_reopen() {
        let dir = TestDir::new("wal-torn");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::open(&path, 0, 0).unwrap();
        for i in 0..3 {
            wal.append(&stmt(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Simulate a crash mid-append: half a record at the end.
        let mut partial = stmt(3).encode();
        partial.truncate(partial.len() / 2);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&partial).unwrap();
        f.sync_all().unwrap();
        drop(f);

        let s = scan(&path).unwrap();
        assert_eq!(s.records.len(), 3);
        assert!(s.has_invalid_tail());

        let wal = Wal::open(&path, s.valid_bytes, s.records.len() as u64).unwrap();
        assert_eq!(wal.records(), 3);
        let after = scan(&path).unwrap();
        assert_eq!(after.total_bytes, s.valid_bytes);
        assert!(!after.has_invalid_tail());
    }

    #[test]
    fn unsynced_appends_are_buffered() {
        let dir = TestDir::new("wal-buffered");
        let path = dir.path().join("wal.log");
        let mut wal = Wal::open(&path, 0, 0).unwrap();
        wal.append(&stmt(0)).unwrap();
        assert_eq!(wal.synced_records(), 0);
        wal.sync().unwrap();
        assert_eq!(wal.synced_records(), 1);
    }
}
