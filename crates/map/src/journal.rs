//! The crash-safe cache journal — the solve cache's one persistence
//! format.
//!
//! An append-only file of checksummed cache entries, written by a
//! background thread off the response path, so a crash (`kill -9`, a
//! panic, an OOM kill) loses at most the records still sitting in the
//! writer's queue. A graceful [`Journal::finish`] compacts the file to
//! the live cache, least-recently-used first, so the next boot replays
//! exactly the working set the exiting process held.
//!
//! ## File format
//!
//! ```text
//! "QXJOURNL"  [u32 version]                      — 12-byte header
//! [u32 len] [u64 checksum] [payload: len bytes]  — record, repeated
//! ```
//!
//! The payload is one cache entry — cache key, canonical-to-original
//! correspondence, report — in the record codec of `snapshot.rs`; the
//! checksum is FNV-1a over the payload. [`JOURNAL_VERSION`] is the one
//! version to bump on any change to that encoding.
//!
//! ## Replay semantics
//!
//! Replay is per-record: a record whose checksum or decode fails is
//! skipped and counted in [`JournalReplay::rejected`], and replay
//! continues at the next record. A record whose *length* runs past the
//! end of the file is the torn tail an interrupted append leaves behind
//! — replay stops there, flags [`JournalReplay::torn`], and
//! [`JournalReplay::bytes_consumed`] marks the last byte of intact
//! data. That offset is also the tail-following cursor: a warm-sharing
//! replica re-reads the file from its previous `bytes_consumed`, feeds
//! the new bytes to [`replay_records`], and admits whatever complete
//! records have landed since. Such a replica only reads: a journal has
//! exactly one writer, because [`Journal::attach`] truncates a torn
//! tail and compaction renames a new file over the path, either of
//! which would lose a second writer's records. [`Journal::attach`]
//! enforces this with an exclusive file lock, held until the writer
//! exits: a second attach on a live path fails before it touches the
//! file. Records carrying byte-identical reports (a proved solve's
//! base entry and its proved-tier entry) share one decoded report, as
//! they do in the live cache.
//!
//! ## Compaction
//!
//! An append-only file grows without bound while the cache it shadows is
//! a bounded LRU. After every `compact_after` appended records, and once
//! more at graceful shutdown, the writer thread rewrites the journal
//! from the cache's current contents (write-temp-then-rename, so a crash
//! mid-compaction leaves the old file intact) and resumes appending.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions, TryLockError};
use std::io::{self, Read as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

use crate::cache::{CacheKey, SolveCache};
use crate::report::MapReport;
use crate::snapshot::{self, Reader, SnapshotError, Writer};

/// The journal file's magic prefix.
pub const JOURNAL_MAGIC: &[u8; 8] = b"QXJOURNL";

/// Version of the journal format this build writes and replays.
pub const JOURNAL_VERSION: u32 = 1;

/// Header length in bytes: magic plus version word.
const HEADER_LEN: u64 = 12;

/// What a journal replay admitted, skipped and left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalReplay {
    /// Records decoded, validated and inserted into the cache.
    pub admitted: usize,
    /// Records individually rejected — checksum mismatch, decode error
    /// or invalid correspondence — and skipped without aborting replay.
    pub rejected: usize,
    /// The file ended mid-record (the torn tail of an interrupted
    /// append); everything before `bytes_consumed` was still replayed.
    pub torn: bool,
    /// Offset one past the last complete record — the cursor a
    /// tail-following replica resumes from, and the length
    /// [`Journal::attach`] truncates to before appending.
    pub bytes_consumed: u64,
    /// The existing file's header was unusable (bad magic or an
    /// unsupported version) and [`Journal::attach`] reinitialized it.
    pub reset: bool,
}

/// Live counters of an attached journal writer — what the daemon's
/// `metrics` response reports as journal health alongside the boot-time
/// [`JournalReplay`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended (and flushed) since attach.
    pub appended: u64,
    /// Compactions of the journal file since attach, counting the one
    /// at graceful shutdown.
    pub compactions: u64,
    /// Filesystem errors the writer hit; after the first, the journal
    /// stops writing (the error also surfaces via [`Journal::finish`]).
    pub write_errors: u64,
}

#[derive(Default)]
struct StatsCells {
    appended: AtomicU64,
    compactions: AtomicU64,
    write_errors: AtomicU64,
}

/// An event on the journal writer's queue.
pub(crate) enum Event {
    /// A freshly stored cache entry to append. The key is boxed so the
    /// queue's enum stays small next to the fieldless `Shutdown`.
    Entry {
        key: Box<CacheKey>,
        canon_to_original: Vec<usize>,
        report: Arc<MapReport>,
    },
    /// Drain what is queued, compact the file, then exit the writer
    /// thread.
    Shutdown,
}

/// A handle to the background journal writer attached to a
/// [`SolveCache`]. Dropping it (or calling [`Journal::finish`]) detaches
/// the cache, drains the queue and joins the thread.
pub struct Journal {
    cache: &'static SolveCache,
    tx: mpsc::Sender<Event>,
    thread: Option<thread::JoinHandle<io::Result<()>>>,
    stats: Arc<StatsCells>,
}

impl Journal {
    /// Replays `path` into `cache` (tolerantly — see [`replay_journal`]),
    /// truncates any torn tail, attaches a background writer so every
    /// subsequent [`SolveCache::insert`] is appended, and returns the
    /// handle plus what the replay admitted. A missing or empty file is
    /// created with a fresh header; an existing file with a bad header
    /// is reinitialized and reported via [`JournalReplay::reset`].
    ///
    /// The cache reference is `'static` because the writer thread (and
    /// the cache's own journal hook) outlive the caller's frame — the
    /// serving daemon passes [`SolveCache::shared`]; tests leak a
    /// private instance.
    ///
    /// # Errors
    ///
    /// Fails without touching the file when another live [`Journal`] —
    /// in this process or any other — holds its lock, and propagates
    /// filesystem errors opening, truncating or creating it.
    pub fn attach(
        cache: &'static SolveCache,
        path: &Path,
        compact_after: usize,
    ) -> io::Result<(Journal, JournalReplay)> {
        // One writer per file: locked before anything is read or written,
        // and held by the writer thread until it exits (or the process dies).
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        file.try_lock().map_err(|e| match e {
            TryLockError::WouldBlock => io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("journal {} is locked by another writer", path.display()),
            ),
            TryLockError::Error(e) => e,
        })?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let replay = match replay_journal(cache, &bytes) {
            Ok(replay) => replay,
            Err(_) => {
                // A fresh (empty) file, or one whose header is not ours:
                // start over. (A bad header means the file was never a
                // journal; per-record damage never lands here.)
                file.set_len(0)?;
                file.write_all(&header_bytes())?;
                JournalReplay {
                    bytes_consumed: HEADER_LEN,
                    reset: !bytes.is_empty(),
                    ..JournalReplay::default()
                }
            }
        };
        // Drop the torn tail (if any) so appended records extend intact
        // data instead of burying themselves behind a partial record.
        file.set_len(replay.bytes_consumed)?;

        let (tx, rx) = mpsc::channel::<Event>();
        let path = path.to_path_buf();
        let stats = Arc::new(StatsCells::default());
        let cells = Arc::clone(&stats);
        let thread = thread::Builder::new()
            .name("qxmap-journal".into())
            .spawn(move || writer_loop(cache, file, &path, compact_after, &rx, &cells))?;
        cache.set_journal(Some(tx.clone()));
        Ok((
            Journal {
                cache,
                tx,
                thread: Some(thread),
                stats,
            },
            replay,
        ))
    }

    /// The writer's live health counters (relaxed reads — one `metrics`
    /// response may straddle an append, never torn values).
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appended: self.stats.appended.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            write_errors: self.stats.write_errors.load(Ordering::Relaxed),
        }
    }

    /// Detaches the cache, drains every queued record to disk, compacts
    /// the file to the live cache (unless a write already failed), joins
    /// the writer thread and surfaces any write error it hit.
    ///
    /// # Errors
    ///
    /// The first filesystem error the writer thread encountered, if any.
    pub fn finish(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.cache.set_journal(None);
        let _ = self.tx.send(Event::Shutdown);
        thread
            .join()
            .map_err(|_| io::Error::other("journal writer panicked"))?
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("attached", &self.thread.is_some())
            .finish()
    }
}

/// The writer thread: [`write_events`] until shutdown, or until its
/// first filesystem error. The error ends the thread, so the journal
/// stops writing (later sends to the dropped queue fail silently), and
/// it is reported through [`Journal::finish`].
fn writer_loop(
    cache: &'static SolveCache,
    file: File,
    path: &Path,
    compact_after: usize,
    rx: &mpsc::Receiver<Event>,
    stats: &StatsCells,
) -> io::Result<()> {
    let written = write_events(cache, file, path, compact_after, rx, stats);
    if written.is_err() {
        stats.write_errors.fetch_add(1, Ordering::Relaxed);
    }
    written
}

/// Appends (and flushes) one record per entry event, compacts after
/// every `compact_after` appends, and compacts once more on shutdown.
fn write_events(
    cache: &SolveCache,
    mut file: File,
    path: &Path,
    compact_after: usize,
    rx: &mpsc::Receiver<Event>,
    stats: &StatsCells,
) -> io::Result<()> {
    let compact_after = compact_after.max(1);
    let mut since_compact = 0usize;
    while let Ok(event) = rx.recv() {
        let Event::Entry {
            key,
            canon_to_original,
            report,
        } = event
        else {
            // Graceful shutdown: the file becomes the live cache, LRU
            // first, so the next boot replays exactly this working set.
            compact(cache, path)?;
            stats.compactions.fetch_add(1, Ordering::Relaxed);
            break;
        };
        // write_all + flush per record: once the write returns, the
        // record is in the OS page cache and survives a `kill -9` of
        // this process. Nothing here fsyncs, so a machine crash can
        // still lose what the OS had not yet written back.
        file.write_all(&encode_record(&key, &canon_to_original, &report))?;
        file.flush()?;
        stats.appended.fetch_add(1, Ordering::Relaxed);
        since_compact += 1;
        if since_compact >= compact_after {
            file = compact(cache, path)?;
            since_compact = 0;
            stats.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }
    Ok(())
}

/// The compacted journal image of `cache`: a header plus one record per
/// *current* entry, least-recently-used first.
pub(crate) fn compacted(cache: &SolveCache) -> Vec<u8> {
    let mut buf = header_bytes();
    for (key, canon_to_original, report, _) in cache.export_entries() {
        buf.extend_from_slice(&encode_record(&key, &canon_to_original, &report));
    }
    buf
}

/// Rewrites the journal as its [`compacted`] image (temp-then-rename,
/// crash-safe), returning the new file's handle — locked before the
/// rename, so the file at `path` is always the writer's locked one.
fn compact(cache: &SolveCache, path: &Path) -> io::Result<File> {
    let tmp = path.with_extension(format!("compact.{}", std::process::id()));
    let mut file = File::create(&tmp)?;
    file.try_lock()?;
    file.write_all(&compacted(cache))?;
    fs::rename(&tmp, path)?;
    Ok(file)
}

fn header_bytes() -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN as usize);
    buf.extend_from_slice(JOURNAL_MAGIC);
    buf.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
    buf
}

/// One journal record: a length-prefixed entry payload sealed by a
/// per-record FNV-1a checksum.
fn encode_record(key: &CacheKey, canon_to_original: &[usize], report: &MapReport) -> Vec<u8> {
    let mut w = Writer::new();
    key.write(&mut w);
    w.usizes(canon_to_original);
    snapshot::write_report(&mut w, report);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(payload.len() + 12);
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("record < 4 GiB")
            .to_le_bytes(),
    );
    out.extend_from_slice(&snapshot::checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Replays a whole journal file (header included) into `cache`. Damaged
/// records are rejected individually; only a damaged *header* rejects
/// the file as a whole.
///
/// # Errors
///
/// [`SnapshotError::BadMagic`], [`SnapshotError::VersionMismatch`] or
/// [`SnapshotError::Truncated`] when the 12-byte header is not an intact
/// journal header. Everything after the header is handled tolerantly and
/// reported through the returned [`JournalReplay`].
pub fn replay_journal(cache: &SolveCache, bytes: &[u8]) -> Result<JournalReplay, SnapshotError> {
    if bytes.len() < HEADER_LEN as usize {
        let magic = &bytes[..bytes.len().min(JOURNAL_MAGIC.len())];
        return Err(if JOURNAL_MAGIC.starts_with(magic) {
            SnapshotError::Truncated
        } else {
            SnapshotError::BadMagic
        });
    }
    if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if found != JOURNAL_VERSION {
        return Err(SnapshotError::VersionMismatch {
            found,
            supported: JOURNAL_VERSION,
        });
    }
    let mut replay = replay_records(cache, &bytes[HEADER_LEN as usize..]);
    replay.bytes_consumed += HEADER_LEN;
    Ok(replay)
}

/// Replays a headerless run of journal records — the tail-following
/// entry point: a replica that already consumed a prefix of the file
/// feeds just the new bytes here and adds the returned
/// [`JournalReplay::bytes_consumed`] to its cursor.
pub fn replay_records(cache: &SolveCache, bytes: &[u8]) -> JournalReplay {
    let mut replay = JournalReplay::default();
    // Records that encode the same report bytes (a proved solve's base
    // entry and proved-tier entry share one `Arc` live) get one shared
    // `Arc` back, so a warm start costs the report heap the exiting
    // process paid — not double.
    let mut shared_reports: HashMap<&[u8], Arc<MapReport>> = HashMap::new();
    let mut at = 0usize;
    while at < bytes.len() {
        // A record is [u32 len][u64 checksum][payload]; anything that
        // runs past the end of the buffer — including a length field
        // damaged into a huge value — is indistinguishable from an
        // interrupted append, so it is the torn tail and replay stops.
        let Some(header) = bytes.get(at..at + 12) else {
            replay.torn = true;
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let declared = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
        let Some(payload) = bytes.get(at + 12..at + 12 + len) else {
            replay.torn = true;
            break;
        };
        at += 12 + len;
        replay.bytes_consumed = at as u64;
        if snapshot::checksum(payload) != declared {
            replay.rejected += 1;
            continue;
        }
        match decode_payload(payload, &mut shared_reports) {
            Ok((key, canon_to_original, report)) => {
                match cache.admit_decoded(key, canon_to_original, report) {
                    Ok(true) => replay.admitted += 1,
                    // The key is already live (a compacted record
                    // repeats an append, or a replica admitted it
                    // first): the live entry wins, and the record is
                    // neither new nor bad.
                    Ok(false) => {}
                    Err(_) => replay.rejected += 1,
                }
            }
            Err(_) => replay.rejected += 1,
        }
    }
    replay
}

/// Decodes one record payload: key, correspondence, report — rejecting
/// trailing bytes (a checksummed payload is exactly one entry). A report
/// whose bytes match one already in `shared_reports` reuses that `Arc`
/// without decoding again.
fn decode_payload<'a>(
    payload: &'a [u8],
    shared_reports: &mut HashMap<&'a [u8], Arc<MapReport>>,
) -> Result<(CacheKey, Vec<usize>, Arc<MapReport>), SnapshotError> {
    let mut r = Reader::new(payload);
    let key = CacheKey::read(&mut r)?;
    let canon_to_original = r.usizes()?;
    let report_bytes = &payload[r.position()..];
    if let Some(report) = shared_reports.get(report_bytes) {
        return Ok((key, canon_to_original, Arc::clone(report)));
    }
    let report = Arc::new(snapshot::read_report(&mut r)?);
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupted("trailing bytes after record"));
    }
    shared_reports.insert(report_bytes, Arc::clone(&report));
    Ok((key, canon_to_original, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, HeuristicEngine};
    use crate::request::MapRequest;
    use qxmap_arch::devices;
    use qxmap_circuit::paper_example;
    use std::path::PathBuf;

    fn leaked(capacity: usize) -> &'static SolveCache {
        Box::leak(Box::new(SolveCache::with_capacity(capacity)))
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("qxmap-journal-{}-{name}", std::process::id()))
    }

    /// Solves the paper example under `seed` and inserts it, giving each
    /// seed its own cache key (and so its own journal record).
    fn insert_seeded(cache: &SolveCache, seed: u64) {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4()).with_seed(seed);
        let engine = HeuristicEngine::naive();
        let report = engine.run(&request).expect("mappable");
        cache.insert(&engine.cache_signature(), &request, &report);
    }

    fn lookup_seeded(cache: &SolveCache, seed: u64) -> Option<MapReport> {
        let request = MapRequest::new(paper_example(), devices::ibm_qx4()).with_seed(seed);
        cache.lookup(&HeuristicEngine::naive().cache_signature(), &request)
    }

    /// Byte ranges of each record's (start, payload_len) in `bytes`.
    fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut at = HEADER_LEN as usize;
        while at + 12 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            if at + 12 + len > bytes.len() {
                break;
            }
            spans.push((at, len));
            at += 12 + len;
        }
        spans
    }

    #[test]
    fn appends_replay_into_a_fresh_cache() {
        let path = temp("round-trip");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (journal, replay) = Journal::attach(source, &path, 1024).unwrap();
        assert_eq!(
            replay,
            JournalReplay {
                bytes_consumed: HEADER_LEN,
                ..JournalReplay::default()
            }
        );
        for seed in 0..3 {
            insert_seeded(source, seed);
        }
        journal.finish().unwrap();

        let restored = leaked(8);
        let replay = replay_journal(restored, &fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (3, 0, false)
        );
        assert_eq!(replay.bytes_consumed, fs::metadata(&path).unwrap().len());
        for seed in 0..3 {
            let hit = lookup_seeded(restored, seed).expect("replayed entry hits");
            assert!(hit.served_from_cache);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_keeps_the_intact_prefix_and_reattach_truncates_it() {
        let path = temp("torn");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (journal, _) = Journal::attach(source, &path, 1024).unwrap();
        insert_seeded(source, 0);
        insert_seeded(source, 1);
        journal.finish().unwrap();

        // Chop into the second record: the first still replays, the torn
        // tail is flagged, and the cursor stops at the record boundary.
        let bytes = fs::read(&path).unwrap();
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 2);
        let boundary = spans[1].0;
        fs::write(&path, &bytes[..boundary + 7]).unwrap();
        let restored = leaked(8);
        let replay = replay_journal(restored, &fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (1, 0, true)
        );
        assert_eq!(replay.bytes_consumed, boundary as u64);
        assert!(lookup_seeded(restored, 0).is_some());
        assert!(lookup_seeded(restored, 1).is_none());

        // Re-attaching truncates the partial record, so new appends land
        // on intact data and the whole file replays cleanly again.
        let recovered = leaked(8);
        let (journal, replay) = Journal::attach(recovered, &path, 1024).unwrap();
        assert!(replay.torn);
        insert_seeded(recovered, 2);
        journal.finish().unwrap();
        let replay = replay_journal(leaked(8), &fs::read(&path).unwrap()).unwrap();
        assert_eq!((replay.admitted, replay.torn), (2, false));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_corrupt_record_is_rejected_alone() {
        let path = temp("corrupt");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (journal, _) = Journal::attach(source, &path, 1024).unwrap();
        for seed in 0..3 {
            insert_seeded(source, seed);
        }
        journal.finish().unwrap();

        // Flip one payload byte in the middle record: the damage stays
        // contained — records 1 and 3 admit.
        let mut bytes = fs::read(&path).unwrap();
        let spans = record_spans(&bytes);
        assert_eq!(spans.len(), 3);
        let (start, len) = spans[1];
        bytes[start + 12 + len / 2] ^= 0xff;
        let restored = leaked(8);
        let replay = replay_journal(restored, &bytes).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (2, 1, false)
        );
        assert_eq!(replay.bytes_consumed, bytes.len() as u64);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn compaction_bounds_the_file_to_the_live_working_set() {
        let path = temp("compact");
        let _ = fs::remove_file(&path);
        // Capacity 2, compact after every 2 appends: the file tracks the
        // LRU's survivors instead of the full append history.
        let source = leaked(2);
        let (journal, _) = Journal::attach(source, &path, 2).unwrap();
        for seed in 0..6 {
            insert_seeded(source, seed);
        }
        journal.finish().unwrap();
        assert_eq!(source.stats().entries, 2);

        let restored = leaked(8);
        let replay = replay_journal(restored, &fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (2, 0, false)
        );
        assert!(lookup_seeded(restored, 4).is_some());
        assert!(lookup_seeded(restored, 5).is_some());
        assert!(
            lookup_seeded(restored, 0).is_none(),
            "evicted, so compacted away"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn graceful_finish_compacts_to_the_live_entries() {
        let path = temp("finish-compacts");
        let _ = fs::remove_file(&path);
        // Capacity 2 and no periodic compaction: five appends land in
        // the file, three of them for entries the LRU has since evicted.
        let source = leaked(2);
        let (journal, _) = Journal::attach(source, &path, 1024).unwrap();
        for seed in 0..5 {
            insert_seeded(source, seed);
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while journal.stats().appended < 5 {
            assert!(std::time::Instant::now() < deadline, "appends never landed");
            thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(record_spans(&fs::read(&path).unwrap()).len(), 5);
        journal.finish().unwrap();

        // The graceful exit leaves exactly the live cache, LRU first.
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes, compacted(source));
        assert_eq!(record_spans(&bytes).len(), 2);
        let restored = leaked(8);
        let replay = replay_journal(restored, &bytes).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (2, 0, false)
        );
        assert!(lookup_seeded(restored, 3).is_some());
        assert!(lookup_seeded(restored, 4).is_some());
        assert!(lookup_seeded(restored, 2).is_none());
        let _ = fs::remove_file(&path);
    }

    /// Polls `done` until it holds (the writer thread is asynchronous).
    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(
                std::time::Instant::now() < deadline,
                "{what} never happened"
            );
            thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// A second attach on a held path fails with the lock named, leaves
    /// the file byte-for-byte as it was and replays nothing.
    fn assert_refused(path: &Path) {
        let before = fs::read(path).unwrap();
        let intruder = leaked(8);
        let error = Journal::attach(intruder, path, 1024).unwrap_err();
        assert!(error.to_string().contains("locked"), "{error}");
        assert_eq!(
            fs::read(path).unwrap(),
            before,
            "the held file is untouched"
        );
        assert_eq!(intruder.stats().entries, 0, "nothing was replayed");
    }

    #[test]
    fn a_second_writer_is_refused_while_the_first_is_live() {
        let path = temp("locked-live");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (journal, _) = Journal::attach(source, &path, 1024).unwrap();
        insert_seeded(source, 0);
        wait_for("the first append", || journal.stats().appended == 1);
        assert_refused(&path);
        // The first writer is unaffected: its next record still lands.
        insert_seeded(source, 1);
        journal.finish().unwrap();
        let replay = replay_journal(leaked(8), &fs::read(&path).unwrap()).unwrap();
        assert_eq!((replay.admitted, replay.rejected), (2, 0));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_second_writer_attaches_after_the_first_finishes() {
        let path = temp("locked-finished");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (journal, _) = Journal::attach(source, &path, 1024).unwrap();
        insert_seeded(source, 0);
        journal.finish().unwrap();
        let (second, replay) = Journal::attach(leaked(8), &path, 1024).unwrap();
        assert_eq!(replay.admitted, 1);
        second.finish().unwrap();
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_second_writer_is_refused_after_the_first_compacts() {
        let path = temp("locked-compacted");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        // Compact after every append: the file at the path is replaced.
        let (journal, _) = Journal::attach(source, &path, 1).unwrap();
        insert_seeded(source, 0);
        wait_for("a compaction", || journal.stats().compactions == 1);
        assert_refused(&path);
        journal.finish().unwrap();
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn a_failed_shutdown_compaction_is_reported_not_hung() {
        let dir = temp("vanishing-dir");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.qxjournal");
        let source = leaked(8);
        let (journal, _) = Journal::attach(source, &path, 1024).unwrap();
        insert_seeded(source, 0);
        // The compaction's temporary file cannot be created once the
        // directory is gone: finish must surface that, not hang.
        fs::remove_dir_all(&dir).unwrap();
        assert!(journal.finish().is_err());
    }

    #[test]
    fn a_sealed_record_with_a_hostile_length_is_rejected_alone() {
        let source = leaked(8);
        insert_seeded(source, 0);
        let intact = compacted(source);
        // A record whose checksum holds but whose skeleton declares
        // ~2^63 tokens: the length guard must reject it before any
        // allocation, and replay must go on to the intact record.
        let mut w = Writer::new();
        w.str("naive");
        w.usize(4);
        w.usize(0);
        w.u64(u64::MAX / 2);
        w.raw(&[0u8; 1024]);
        let payload = w.into_bytes();
        let mut bytes = header_bytes();
        bytes.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
        bytes.extend_from_slice(&snapshot::checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&intact[HEADER_LEN as usize..]);
        let restored = leaked(8);
        let replay = replay_journal(restored, &bytes).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (1, 1, false)
        );
        assert!(lookup_seeded(restored, 0).is_some());
    }

    #[test]
    fn a_foreign_file_is_reset_not_appended_to() {
        let path = temp("foreign");
        fs::write(&path, b"definitely not a journal").unwrap();
        let source = leaked(8);
        let (journal, replay) = Journal::attach(source, &path, 1024).unwrap();
        assert!(replay.reset);
        assert_eq!(replay.admitted, 0);
        insert_seeded(source, 0);
        journal.finish().unwrap();
        let replay = replay_journal(leaked(8), &fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (replay.admitted, replay.rejected, replay.torn),
            (1, 0, false)
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_records_resumes_from_a_cursor() {
        let path = temp("tail-follow");
        let _ = fs::remove_file(&path);
        let source = leaked(8);
        let (journal, _) = Journal::attach(source, &path, 1024).unwrap();
        insert_seeded(source, 0);
        // The append is asynchronous — wait for the writer to land it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while fs::metadata(&path).unwrap().len() <= HEADER_LEN {
            assert!(std::time::Instant::now() < deadline, "append never landed");
            thread::sleep(std::time::Duration::from_millis(2));
        }
        // A follower replays the file, remembers its cursor…
        let follower = leaked(8);
        let first = replay_journal(follower, &fs::read(&path).unwrap()).unwrap();
        assert_eq!(first.admitted, 1);
        // …the primary keeps appending…
        insert_seeded(source, 1);
        journal.finish().unwrap();
        // …and the follower admits just the new bytes.
        let bytes = fs::read(&path).unwrap();
        let tail = replay_records(follower, &bytes[first.bytes_consumed as usize..]);
        assert_eq!((tail.admitted, tail.torn), (1, false));
        assert_eq!(
            first.bytes_consumed + tail.bytes_consumed,
            bytes.len() as u64
        );
        assert!(lookup_seeded(follower, 1).is_some());
        let _ = fs::remove_file(&path);
    }
}
