//! The dataserver: chunked, append-only file storage (§3.3.2).
//!
//! On-disk layout, matching the paper:
//!
//! ```text
//! <root>/<file-uuid>/meta      # JSON-serialized FileMeta
//! <root>/<file-uuid>/1         # first chunk
//! <root>/<file-uuid>/2         # second chunk
//! ...
//! ```
//!
//! The chunk extents are the single source of truth for a replica's
//! size: the highest-numbered chunk's start plus that chunk file's
//! length, and never less than a coded replica's seal watermark (its
//! sealed chunks are dropped). `meta` holds the structural fields —
//! name, chunk size, replicas, redundancy, fragments, seal watermark —
//! and is rewritten only by create, [`Dataserver::update_meta`] and the
//! final stamp of [`Dataserver::pull_repair`]; its `size` field is the
//! size at that rewrite and is never read back. Appends only write
//! chunk bytes.
//!
//! A dataserver keeps each file it has touched in memory: the append
//! lock, the structural fields and the current size, built from disk on
//! first touch. Reads are served from that entry, so the read path
//! costs one chunk open and one positional read.
//!
//! Crash contract (DESIGN.md §8): an acknowledged byte is always served
//! at the offset its ack reported. An append writes positionally at the
//! in-memory size, which it publishes only after the bytes land; bytes
//! a crash left past the last ack join the size on restart, after every
//! acknowledged byte, and never take one's place.

use std::collections::HashMap;
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mayflower_net::HostId;
use mayflower_telemetry::trace::{self as trace, ActiveSpan, TraceHandle};
use mayflower_telemetry::{Counter, Histogram};
use parking_lot::Mutex;

use crate::chunk::split_range;
use crate::error::FsError;
use crate::types::{FileId, FileMeta};

/// Chunk-IO telemetry shared by every dataserver in a cluster (the
/// registry dedups by metric name, so each handle aggregates across
/// hosts).
#[derive(Debug)]
struct DsMetrics {
    appends: Arc<Counter>,
    append_bytes: Arc<Histogram>,
    reads: Arc<Counter>,
    read_bytes: Arc<Histogram>,
    refused: Arc<Counter>,
}

/// Fragment frame (DESIGN.md §14): 4-byte magic, 8-byte LE payload
/// length, 4-byte LE CRC32 of the shard bytes.
const FRAGMENT_MAGIC: &[u8; 4] = b"MFEC";
const FRAGMENT_HEADER: usize = 16;

/// One replica's in-memory state, built from disk on first touch.
#[derive(Debug)]
struct FileState {
    /// Fixed at creation; the read path needs nothing else structural.
    chunk_size: u64,
    /// The structural fields as last written to `meta` (`size` is
    /// tracked below). Its lock is the append lock ("the dataserver
    /// only services one append request at a time for each file");
    /// `None` once the replica is deleted, so an append queued behind
    /// the delete never writes into a re-created directory.
    meta: Mutex<Option<FileMeta>>,
    /// The replica's size. Appends publish it after the chunk write
    /// lands; reads never look past it.
    size: AtomicU64,
}

impl FileState {
    fn new(meta: FileMeta, size: u64) -> FileState {
        FileState {
            chunk_size: meta.chunk_size,
            meta: Mutex::new(Some(meta)),
            size: AtomicU64::new(size),
        }
    }
}

/// A single storage server: owns one directory tree of file-UUID
/// directories, services appends (one at a time per file) and
/// concurrent reads.
#[derive(Debug)]
pub struct Dataserver {
    host: HostId,
    root: PathBuf,
    /// Every file this dataserver has touched. The map lock also
    /// serializes the namespace steps — create, delete and the first
    /// load from disk — so a file has at most one entry.
    files: Mutex<HashMap<FileId, Arc<FileState>>>,
    /// Fault-injection switch: while false, every data operation
    /// returns [`FsError::Unavailable`], as a crashed process would
    /// refuse connections. State on disk is untouched, so a restart
    /// recovers everything — a fail-stop crash, not data loss.
    up: AtomicBool,
    /// Injected per-request service delay in microseconds: simulates
    /// the network round trip of a data-plane RPC so single-machine
    /// benchmarks can measure how much of it the parallel pipeline
    /// overlaps. Zero (the default) adds nothing; the fluid simulator
    /// and the model checker never set it, so modeled timing stays
    /// deterministic.
    rtt_us: AtomicU64,
    /// Chunk-IO telemetry, attached once by the cluster (absent in
    /// bare unit-test deployments).
    metrics: std::sync::OnceLock<DsMetrics>,
    /// Causal-tracing handle (DESIGN.md §17), attached once by the
    /// cluster. Chunk-IO spans only open under an ambient parent, so a
    /// bare dataserver call outside a traced operation records nothing.
    trace: std::sync::OnceLock<TraceHandle>,
}

impl Dataserver {
    /// Opens (creating if needed) a dataserver rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns an error if the root directory cannot be created.
    pub fn open(host: HostId, root: &Path) -> Result<Dataserver, FsError> {
        std::fs::create_dir_all(root)?;
        Ok(Dataserver {
            host,
            root: root.to_path_buf(),
            files: Mutex::new(HashMap::new()),
            up: AtomicBool::new(true),
            rtt_us: AtomicU64::new(0),
            metrics: std::sync::OnceLock::new(),
            trace: std::sync::OnceLock::new(),
        })
    }

    /// Sets the simulated per-request round-trip delay applied to
    /// data-plane operations (reads, appends, fragment IO). Benchmarks
    /// use this to stand in for network latency; zero disables it.
    pub fn set_simulated_rtt(&self, rtt: std::time::Duration) {
        self.rtt_us.store(
            rtt.as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
    }

    fn simulate_rtt(&self) {
        let us = self.rtt_us.load(Ordering::Relaxed);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }

    /// Attaches chunk-IO telemetry: `appends_total` / `reads_total`,
    /// `append_bytes` / `read_bytes` histograms, and `refused_total`
    /// (requests rejected while crashed). Idempotent; a second attach
    /// is ignored.
    pub fn attach_metrics(&self, scope: &mayflower_telemetry::Scope) {
        let _ = self.metrics.set(DsMetrics {
            appends: scope.counter("appends_total"),
            append_bytes: scope.histogram("append_bytes"),
            reads: scope.counter("reads_total"),
            read_bytes: scope.histogram("read_bytes"),
            refused: scope.counter("refused_total"),
        });
    }

    /// Attaches a causal-tracing handle. Idempotent; a second attach
    /// is ignored.
    pub fn attach_trace(&self, handle: TraceHandle) {
        // Idempotent: the first cluster to open this store wins.
        let _ = self.trace.set(handle);
    }

    /// Opens a chunk-IO span under the caller's ambient span, stamped
    /// with this host. `None` when tracing is off, unattached, or the
    /// call is not part of a traced operation.
    fn io_span(&self, name: &str) -> Option<ActiveSpan> {
        let mut span = self.trace.get()?.child(name)?;
        span.annotate("host", self.host.0.to_string());
        Some(span)
    }

    /// Simulates a fail-stop crash: subsequent operations return
    /// [`FsError::Unavailable`] until [`Dataserver::restart`].
    pub fn crash(&self) {
        self.up.store(false, Ordering::SeqCst);
    }

    /// Brings a crashed dataserver back; on-disk state is intact.
    pub fn restart(&self) {
        self.up.store(true, Ordering::SeqCst);
    }

    /// Whether the dataserver is accepting requests.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    fn ensure_up(&self) -> Result<(), FsError> {
        if self.is_up() {
            Ok(())
        } else {
            if let Some(m) = self.metrics.get() {
                m.refused.inc();
            }
            Err(FsError::Unavailable(format!(
                "dataserver on host {} is down",
                self.host.0
            )))
        }
    }

    /// The host this dataserver runs on.
    #[must_use]
    pub fn host(&self) -> HostId {
        self.host
    }

    /// The storage root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn file_dir(&self, id: FileId) -> PathBuf {
        self.root.join(id.as_hex())
    }

    fn chunk_path(&self, id: FileId, chunk: u64) -> PathBuf {
        // On-disk chunk names are 1-based (§3.3.2).
        self.file_dir(id).join(format!("{}", chunk + 1))
    }

    /// On-disk location of a sealed chunk's fragment (`f<chunk>.<j>`,
    /// chunk 1-based like chunk files). Public so tests and tooling can
    /// inject fragment corruption.
    #[must_use]
    pub fn fragment_path(&self, id: FileId, chunk: u64, index: usize) -> PathBuf {
        self.file_dir(id).join(format!("f{}.{index}", chunk + 1))
    }

    /// Creates the local directory and metadata for a new file replica.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::AlreadyExists`] if this replica already holds
    /// the file.
    pub fn create_file(&self, meta: &FileMeta) -> Result<(), FsError> {
        self.ensure_up()?;
        let mut files = self.files.lock();
        let dir = self.file_dir(meta.id);
        if dir.exists() {
            return Err(FsError::AlreadyExists(meta.name.clone()));
        }
        std::fs::create_dir_all(&dir)?;
        // No chunk file exists yet, so the extents give the watermark.
        let size = meta.sealed_bytes();
        self.write_meta(meta, size)?;
        files.insert(meta.id, Arc::new(FileState::new(meta.clone(), size)));
        Ok(())
    }

    /// Writes `meta` with its size stamped as `size`.
    fn write_meta(&self, meta: &FileMeta, size: u64) -> Result<(), FsError> {
        let stamped = FileMeta {
            size,
            ..meta.clone()
        };
        let body = serde_json::to_vec_pretty(&stamped)
            .map_err(|e| FsError::CorruptMetadata(e.to_string()))?;
        // Write-then-rename: a crash mid-rewrite must never leave a
        // truncated metadata file.
        let dir = self.file_dir(meta.id);
        let tmp = dir.join(format!("meta.tmp.{:?}", std::thread::current().id()));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, dir.join("meta"))?;
        Ok(())
    }

    /// The in-memory state of a replica, loaded from disk on first
    /// touch.
    fn file(&self, id: FileId) -> Result<Arc<FileState>, FsError> {
        self.ensure_up()?;
        let mut files = self.files.lock();
        if let Some(f) = files.get(&id) {
            return Ok(Arc::clone(f));
        }
        let body = match std::fs::read(self.file_dir(id).join("meta")) {
            Ok(body) => body,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(FsError::NotFound(id.to_string()))
            }
            Err(e) => return Err(e.into()),
        };
        let meta: FileMeta =
            serde_json::from_slice(&body).map_err(|e| FsError::CorruptMetadata(e.to_string()))?;
        let size = self.extent_size(&meta)?;
        let f = Arc::new(FileState::new(meta, size));
        files.insert(id, Arc::clone(&f));
        Ok(f)
    }

    /// The size the chunk files on disk imply: the highest-numbered
    /// chunk's start plus its length. A coded replica has dropped its
    /// sealed chunks, so the seal watermark is a floor.
    fn extent_size(&self, meta: &FileMeta) -> Result<u64, FsError> {
        let mut tail: Option<(u64, u64)> = None;
        for entry in std::fs::read_dir(self.file_dir(meta.id))? {
            let entry = entry?;
            // Chunk files are named by their 1-based number; skip
            // `meta`, fragments and temporaries.
            let Some(number) = entry
                .file_name()
                .to_str()
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            if number >= 1 && tail.is_none_or(|(chunk, _)| number - 1 > chunk) {
                tail = Some((number - 1, entry.metadata()?.len()));
            }
        }
        let extent = tail.map_or(0, |(chunk, len)| chunk * meta.chunk_size + len);
        Ok(extent.max(meta.sealed_bytes()))
    }

    /// Overwrites the structural metadata of a replica (rename, repair,
    /// seal, primary re-election), so a post-crash nameserver rebuild
    /// sees the current mapping. `meta.size` is ignored: the size comes
    /// from the chunk extents.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn update_meta(&self, meta: &FileMeta) -> Result<(), FsError> {
        let f = self.file(meta.id)?;
        let mut current = f.meta.lock();
        let Some(current) = current.as_mut() else {
            return Err(FsError::NotFound(meta.id.to_string()));
        };
        // A raised seal watermark is a size floor, as on a fresh load.
        let sealed = meta.sealed_bytes();
        let size = f.size.fetch_max(sealed, Ordering::AcqRel).max(sealed);
        self.write_meta(meta, size)?;
        *current = meta.clone();
        Ok(())
    }

    /// The locally stored metadata of a file replica, with its current
    /// size.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent, or
    /// [`FsError::CorruptMetadata`] if the metadata fails to parse.
    pub fn read_meta(&self, id: FileId) -> Result<FileMeta, FsError> {
        let f = self.file(id)?;
        let meta = f.meta.lock().clone();
        let mut meta = meta.ok_or_else(|| FsError::NotFound(id.to_string()))?;
        meta.size = f.size.load(Ordering::Acquire);
        Ok(meta)
    }

    /// Whether this dataserver holds a replica of the file. A downed
    /// dataserver answers no — callers probing for live copies (repair,
    /// primary election) must not count a crashed replica.
    #[must_use]
    pub fn has_file(&self, id: FileId) -> bool {
        self.is_up() && self.file_dir(id).join("meta").exists()
    }

    /// Bytes of chunk data the replica holds on disk. Equal to its size
    /// except for a coded replica, whose sealed chunks have been
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn local_size(&self, id: FileId) -> Result<u64, FsError> {
        let f = self.file(id)?;
        let chunks = f.size.load(Ordering::Acquire).div_ceil(f.chunk_size);
        // Dropped chunks leave holes below the seal watermark, so
        // absence must not end the walk early.
        Ok((0..chunks)
            .filter_map(|chunk| std::fs::metadata(self.chunk_path(id, chunk)).ok())
            .map(|md| md.len())
            .sum())
    }

    /// Appends `data` to the local replica, spilling across chunk
    /// boundaries as needed. Returns the file's new size.
    ///
    /// Only one append per file runs at a time; concurrent reads of
    /// non-last chunks proceed unblocked (§3.3.2).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent, or
    /// [`FsError::CorruptMetadata`] if a chunk file is shorter than the
    /// size says (its acknowledged bytes are gone).
    pub fn append_local(&self, id: FileId, data: &[u8]) -> Result<u64, FsError> {
        let mut span = self.io_span("chunk_append");
        trace::annotate(&mut span, "bytes", data.len());
        let out = self.append_local_inner(id, data);
        match &out {
            Ok(size) => trace::annotate(&mut span, "size", size),
            Err(_) => trace::mark_error(&mut span),
        }
        out
    }

    fn append_local_inner(&self, id: FileId, data: &[u8]) -> Result<u64, FsError> {
        self.simulate_rtt();
        let f = self.file(id)?;
        let guard = f.meta.lock();
        if guard.is_none() {
            return Err(FsError::NotFound(id.to_string()));
        }
        let chunk_size = f.chunk_size;
        let mut pos = f.size.load(Ordering::Acquire);
        let mut remaining = data;
        while !remaining.is_empty() {
            let chunk = pos / chunk_size;
            let offset_in_chunk = pos % chunk_size;
            let take = ((chunk_size - offset_in_chunk) as usize).min(remaining.len());
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(false)
                .open(self.chunk_path(id, chunk))?;
            // Bytes past the size are torn, never acknowledged: the
            // positional write replaces them. A chunk shorter than the
            // size has lost acknowledged bytes; never paper over that.
            let len = file.metadata()?.len();
            if len < offset_in_chunk {
                return Err(FsError::CorruptMetadata(format!(
                    "chunk {} of {id} holds {len} bytes, its size needs {offset_in_chunk}",
                    chunk + 1
                )));
            }
            file.write_all_at(&remaining[..take], offset_in_chunk)?;
            remaining = &remaining[take..];
            pos += take as u64;
        }
        f.size.store(pos, Ordering::Release);
        if let Some(m) = self.metrics.get() {
            m.appends.inc();
            m.append_bytes.record(data.len() as u64);
        }
        Ok(pos)
    }

    /// Reads `[offset, offset + len)` from the local replica. Returns
    /// the bytes read (shorter than `len` at end-of-file) together
    /// with the replica's current size — the paper's way of letting
    /// clients discover appended chunks ("the dataserver includes the
    /// file's size with each read result").
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn read_local(&self, id: FileId, offset: u64, len: u64) -> Result<(Vec<u8>, u64), FsError> {
        self.simulate_rtt();
        let f = self.file(id)?;
        let size = f.size.load(Ordering::Acquire);
        // Size the allocation from the replica's actual extent — `len`
        // may reach far past end-of-file.
        let want = (offset + len).min(size).saturating_sub(offset);
        let mut out = vec![0u8; want as usize];
        let filled = self.fill_from_chunks(id, f.chunk_size, size, offset, &mut out)?;
        debug_assert_eq!(filled, out.len());
        Ok((out, size))
    }

    /// Zero-copy variant of [`Dataserver::read_local`]: reads
    /// `[offset, offset + buf.len())` directly into `buf`, returning
    /// the byte count actually filled (shorter than the buffer at
    /// end-of-file) and the replica's current size. The parallel read
    /// pipeline hands each piece a disjoint slice of one preallocated
    /// output buffer, so assembly needs no per-piece `Vec` churn.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn read_local_into(
        &self,
        id: FileId,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(usize, u64), FsError> {
        let mut span = self.io_span("chunk_read");
        trace::annotate(&mut span, "offset", offset);
        let out = (|| {
            self.simulate_rtt();
            let f = self.file(id)?;
            let size = f.size.load(Ordering::Acquire);
            let filled = self.fill_from_chunks(id, f.chunk_size, size, offset, buf)?;
            Ok((filled, size))
        })();
        match &out {
            Ok((filled, _)) => trace::annotate(&mut span, "bytes", filled),
            Err(_) => trace::mark_error(&mut span),
        }
        out
    }

    /// The shared read core: fills `buf` from the chunk files starting
    /// at `offset`, truncating at `size`. Returns the bytes filled.
    fn fill_from_chunks(
        &self,
        id: FileId,
        chunk_size: u64,
        size: u64,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<usize, FsError> {
        let end = (offset + buf.len() as u64).min(size);
        let mut filled = 0usize;
        // Size probes (zero-length reads) are requests too.
        if offset < end {
            for slice in split_range(chunk_size, offset, end - offset) {
                let file = std::fs::File::open(self.chunk_path(id, slice.chunk))?;
                file.read_exact_at(
                    &mut buf[filled..filled + slice.len as usize],
                    slice.offset_in_chunk,
                )?;
                filled += slice.len as usize;
            }
        }
        if let Some(m) = self.metrics.get() {
            m.reads.inc();
            m.read_bytes.record(filled as u64);
        }
        Ok(filled)
    }

    /// Stores fragment `index` of sealed chunk `chunk` (DESIGN.md §14).
    /// The fragment is framed with a magic, the chunk's original
    /// payload length, and a CRC32 of the shard so silent corruption is
    /// detected at read time — Reed-Solomon itself cannot tell a
    /// corrupt shard from a valid one. Idempotent (write-then-rename).
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if this dataserver is down.
    pub fn put_fragment(
        &self,
        id: FileId,
        chunk: u64,
        index: usize,
        payload_len: u64,
        shard: &[u8],
    ) -> Result<(), FsError> {
        let mut span = self.io_span("fragment_put");
        trace::annotate(&mut span, "chunk", chunk);
        trace::annotate(&mut span, "fragment", index);
        let out = self.put_fragment_inner(id, chunk, index, payload_len, shard);
        if out.is_err() {
            trace::mark_error(&mut span);
        }
        out
    }

    fn put_fragment_inner(
        &self,
        id: FileId,
        chunk: u64,
        index: usize,
        payload_len: u64,
        shard: &[u8],
    ) -> Result<(), FsError> {
        self.simulate_rtt();
        self.ensure_up()?;
        let dir = self.file_dir(id);
        std::fs::create_dir_all(&dir)?;
        let mut body = Vec::with_capacity(FRAGMENT_HEADER + shard.len());
        body.extend_from_slice(FRAGMENT_MAGIC);
        body.extend_from_slice(&payload_len.to_le_bytes());
        body.extend_from_slice(&mayflower_kvstore::crc::crc32(shard).to_le_bytes());
        body.extend_from_slice(shard);
        let tmp = dir.join(format!(
            "f{}.{index}.tmp.{:?}",
            chunk + 1,
            std::thread::current().id()
        ));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, self.fragment_path(id, chunk, index))?;
        if let Some(m) = self.metrics.get() {
            m.appends.inc();
            m.append_bytes.record(shard.len() as u64);
        }
        Ok(())
    }

    /// Reads fragment `index` of sealed chunk `chunk`, verifying the
    /// checksum. Returns the shard bytes and the chunk's original
    /// payload length.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if down, [`FsError::NotFound`]
    /// if the fragment is absent, or [`FsError::CorruptMetadata`] when
    /// the frame or checksum fails — callers treat a corrupt fragment
    /// exactly like a lost one and fetch a different source.
    pub fn read_fragment(
        &self,
        id: FileId,
        chunk: u64,
        index: usize,
    ) -> Result<(Vec<u8>, u64), FsError> {
        let mut span = self.io_span("fragment_read");
        trace::annotate(&mut span, "chunk", chunk);
        trace::annotate(&mut span, "fragment", index);
        let out = self.read_fragment_inner(id, chunk, index);
        if out.is_err() {
            trace::mark_error(&mut span);
        }
        out
    }

    fn read_fragment_inner(
        &self,
        id: FileId,
        chunk: u64,
        index: usize,
    ) -> Result<(Vec<u8>, u64), FsError> {
        self.simulate_rtt();
        self.ensure_up()?;
        let path = self.fragment_path(id, chunk, index);
        if !path.exists() {
            return Err(FsError::NotFound(format!(
                "fragment {index} of chunk {chunk} of {id}"
            )));
        }
        let body = std::fs::read(&path)?;
        if body.len() < FRAGMENT_HEADER || &body[..4] != FRAGMENT_MAGIC {
            return Err(FsError::CorruptMetadata(format!(
                "fragment {index} of chunk {chunk} of {id}: bad frame"
            )));
        }
        let payload_len = u64::from_le_bytes(body[4..12].try_into().expect("8 bytes"));
        let want_crc = u32::from_le_bytes(body[12..16].try_into().expect("4 bytes"));
        let shard = &body[FRAGMENT_HEADER..];
        if mayflower_kvstore::crc::crc32(shard) != want_crc {
            return Err(FsError::CorruptMetadata(format!(
                "fragment {index} of chunk {chunk} of {id}: checksum mismatch"
            )));
        }
        if let Some(m) = self.metrics.get() {
            m.reads.inc();
            m.read_bytes.record(shard.len() as u64);
        }
        Ok((shard.to_vec(), payload_len))
    }

    /// Whether this dataserver holds the given fragment. A downed
    /// dataserver answers no, like [`Dataserver::has_file`].
    #[must_use]
    pub fn has_fragment(&self, id: FileId, chunk: u64, index: usize) -> bool {
        self.is_up() && self.fragment_path(id, chunk, index).exists()
    }

    /// Removes the replicated copy of a sealed chunk (the storage
    /// reclaim half of seal-and-encode). Missing chunk files are fine —
    /// the seal may be retried after a partial failure.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if this dataserver is down.
    pub fn drop_chunk(&self, id: FileId, chunk: u64) -> Result<(), FsError> {
        self.ensure_up()?;
        match std::fs::remove_file(self.chunk_path(id, chunk)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Deletes the local replica.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::NotFound`] if the replica is absent.
    pub fn delete_file(&self, id: FileId) -> Result<(), FsError> {
        self.ensure_up()?;
        let mut files = self.files.lock();
        let dir = self.file_dir(id);
        if !dir.exists() {
            return Err(FsError::NotFound(id.to_string()));
        }
        // Waits out an in-flight append and turns away queued ones.
        if let Some(f) = files.remove(&id) {
            *f.meta.lock() = None;
        }
        std::fs::remove_dir_all(dir)?;
        Ok(())
    }

    /// Lists the metadata of every replica stored here, each with its
    /// size derived from the chunk extents — the nameserver's rebuild
    /// source after an unclean restart (§3.3.1).
    ///
    /// # Errors
    ///
    /// Returns an error if the root directory cannot be read.
    pub fn list_files(&self) -> Result<Vec<FileMeta>, FsError> {
        self.ensure_up()?;
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some(id) = entry.file_name().to_str().and_then(FileId::from_hex) else {
                continue;
            };
            if let Ok(meta) = self.read_meta(id) {
                out.push(meta);
            }
        }
        out.sort_by_key(|a| a.id);
        Ok(out)
    }

    /// **Repair pull** (dataserver → dataserver): copies a replica
    /// from `source` onto this dataserver chunk-by-chunk, creating the
    /// local directory and stamping the authoritative metadata when
    /// the copy completes. This is the receiving half of the repair
    /// RPC — `source` is either a co-resident [`Dataserver`] or a
    /// remote stub speaking `dataserver.repair_read` over the RPC
    /// layer.
    ///
    /// Idempotent: if this dataserver already holds the file, nothing
    /// is copied and `Ok(0)` is returned. A mid-copy failure removes
    /// the partial replica so a retry starts clean.
    ///
    /// Returns the number of bytes copied.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if either side is down, or the
    /// source's read errors.
    pub fn pull_repair(&self, source: &dyn RepairSource, meta: &FileMeta) -> Result<u64, FsError> {
        let mut span = self.io_span("pull_repair");
        trace::annotate(&mut span, "file", &meta.name);
        let out = self.pull_repair_inner(source, meta);
        match &out {
            Ok(copied) => trace::annotate(&mut span, "bytes", copied),
            Err(_) => trace::mark_error(&mut span),
        }
        out
    }

    fn pull_repair_inner(
        &self,
        source: &dyn RepairSource,
        meta: &FileMeta,
    ) -> Result<u64, FsError> {
        self.ensure_up()?;
        if self.has_file(meta.id) {
            return Ok(0);
        }
        // A coded file's replicas hold only the chunks above the seal
        // watermark (the sealed region lives in fragments), so the copy
        // starts there. `sealed_bytes` is chunk-aligned, which keeps
        // `append_local`'s chunk numbering consistent with the source.
        let start = meta.sealed_bytes().min(meta.size);
        self.create_file(meta)?;
        let copy = || -> Result<u64, FsError> {
            let mut copied = 0u64;
            loop {
                let (data, total) = source.repair_read(meta.id, start + copied, meta.chunk_size)?;
                if !data.is_empty() {
                    copied += data.len() as u64;
                    self.append_local(meta.id, &data)?;
                }
                if start + copied >= total || data.is_empty() {
                    return Ok(copied);
                }
            }
        };
        match copy() {
            Ok(copied) => {
                // Stamp `meta` with the copied size, so the file on
                // disk reads as a complete replica.
                self.update_meta(meta)?;
                Ok(copied)
            }
            Err(e) => {
                let _ = self.delete_file(meta.id);
                Err(e)
            }
        }
    }
}

/// The source side of the dataserver-to-dataserver repair RPC: a
/// destination [`Dataserver::pull_repair`] streams chunks through this
/// trait, so the same pull loop works against a local dataserver
/// (in-process cluster) or a remote one (the
/// `dataserver.repair_read` RPC stub in [`crate::remote`]).
pub trait RepairSource {
    /// Reads `[offset, offset + len)` of the replica, returning the
    /// bytes and the replica's current total size.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::Unavailable`] if the source is down or
    /// [`FsError::NotFound`] if it does not hold the replica.
    fn repair_read(&self, id: FileId, offset: u64, len: u64) -> Result<(Vec<u8>, u64), FsError>;
}

impl RepairSource for Dataserver {
    fn repair_read(&self, id: FileId, offset: u64, len: u64) -> Result<(Vec<u8>, u64), FsError> {
        self.ensure_up()?;
        self.read_local(id, offset, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!(
                "mayflower-ds-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    fn meta(id: u128, chunk_size: u64) -> FileMeta {
        FileMeta {
            id: FileId(id),
            name: format!("file-{id}"),
            chunk_size,
            size: 0,
            replicas: vec![HostId(0)],
            redundancy: crate::types::Redundancy::default(),
            fragments: Vec::new(),
            sealed_chunks: 0,
        }
    }

    #[test]
    fn create_append_read_roundtrip() {
        let dir = TempDir::new("roundtrip");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(1, 8);
        ds.create_file(&m).unwrap();
        assert_eq!(ds.append_local(m.id, b"hello ").unwrap(), 6);
        assert_eq!(ds.append_local(m.id, b"world!").unwrap(), 12);
        let (data, size) = ds.read_local(m.id, 0, 100).unwrap();
        assert_eq!(data, b"hello world!");
        assert_eq!(size, 12);
    }

    #[test]
    fn appends_spill_across_chunks() {
        let dir = TempDir::new("spill");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(2, 4);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"abcdefghij").unwrap(); // 10 bytes, chunk 4
                                                       // Chunks 1..=3 exist with sizes 4, 4, 2 (1-based names).
        let d = dir.0.join(m.id.as_hex());
        assert_eq!(std::fs::metadata(d.join("1")).unwrap().len(), 4);
        assert_eq!(std::fs::metadata(d.join("2")).unwrap().len(), 4);
        assert_eq!(std::fs::metadata(d.join("3")).unwrap().len(), 2);
        // Ranged read across boundaries.
        let (data, _) = ds.read_local(m.id, 3, 5).unwrap();
        assert_eq!(data, b"defgh");
    }

    #[test]
    fn read_past_eof_truncates_and_reports_size() {
        let dir = TempDir::new("eof");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(3, 8);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"12345").unwrap();
        let (data, size) = ds.read_local(m.id, 3, 100).unwrap();
        assert_eq!(data, b"45");
        assert_eq!(size, 5);
        let (data, size) = ds.read_local(m.id, 99, 10).unwrap();
        assert!(data.is_empty());
        assert_eq!(size, 5);
    }

    #[test]
    fn double_create_rejected() {
        let dir = TempDir::new("dup");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(4, 8);
        ds.create_file(&m).unwrap();
        assert!(matches!(ds.create_file(&m), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn delete_removes_everything() {
        let dir = TempDir::new("delete");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(5, 8);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"data").unwrap();
        ds.delete_file(m.id).unwrap();
        assert!(!ds.has_file(m.id));
        assert!(matches!(
            ds.read_local(m.id, 0, 1),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(ds.delete_file(m.id), Err(FsError::NotFound(_))));
    }

    #[test]
    fn list_files_finds_all_replicas() {
        let dir = TempDir::new("list");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        for i in 0..5u128 {
            ds.create_file(&meta(i, 8)).unwrap();
        }
        let listed = ds.list_files().unwrap();
        assert_eq!(listed.len(), 5);
        assert!(listed.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn local_size_tracks_chunks() {
        let dir = TempDir::new("size");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(6, 4);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"123456789").unwrap();
        assert_eq!(ds.local_size(m.id).unwrap(), 9);
    }

    #[test]
    fn concurrent_appends_serialize() {
        let dir = TempDir::new("concurrent");
        let ds = Arc::new(Dataserver::open(HostId(0), &dir.0).unwrap());
        let m = meta(7, 1 << 20);
        ds.create_file(&m).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let ds = ds.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        ds.append_local(FileId(7), &[t as u8; 16]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let (data, size) = ds.read_local(m.id, 0, 1 << 20).unwrap();
        assert_eq!(size, 8 * 50 * 16);
        assert_eq!(data.len() as u64, size);
        // Atomicity: every 16-byte record is homogeneous.
        for rec in data.chunks(16) {
            assert!(rec.iter().all(|b| *b == rec[0]), "torn append: {rec:?}");
        }
    }

    #[test]
    fn crash_refuses_requests_and_restart_recovers_data() {
        let dir = TempDir::new("crash");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(9, 8);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"durable").unwrap();
        ds.crash();
        assert!(!ds.is_up());
        // Every data op refuses; the replica looks absent to probes.
        assert!(matches!(
            ds.read_local(m.id, 0, 7),
            Err(FsError::Unavailable(_))
        ));
        assert!(matches!(
            ds.append_local(m.id, b"x"),
            Err(FsError::Unavailable(_))
        ));
        assert!(matches!(ds.list_files(), Err(FsError::Unavailable(_))));
        assert!(!ds.has_file(m.id));
        // Fail-stop, not data loss: restart serves the old bytes.
        ds.restart();
        assert!(ds.has_file(m.id));
        let (data, size) = ds.read_local(m.id, 0, 100).unwrap();
        assert_eq!(data, b"durable");
        assert_eq!(size, 7);
    }

    #[test]
    fn pull_repair_copies_across_chunk_boundaries() {
        let src_dir = TempDir::new("pull-src");
        let dst_dir = TempDir::new("pull-dst");
        let src = Dataserver::open(HostId(0), &src_dir.0).unwrap();
        let dst = Dataserver::open(HostId(1), &dst_dir.0).unwrap();
        let mut m = meta(21, 8); // tiny chunks: the pull loops
        src.create_file(&m).unwrap();
        let payload = b"twenty-three byte body!";
        m.size = src.append_local(m.id, payload).unwrap();
        let copied = dst.pull_repair(&src, &m).unwrap();
        assert_eq!(copied, payload.len() as u64);
        let (data, size) = dst.read_local(m.id, 0, 100).unwrap();
        assert_eq!(data, payload);
        assert_eq!(size, payload.len() as u64);
        // Idempotent: a second pull is a no-op.
        assert_eq!(dst.pull_repair(&src, &m).unwrap(), 0);
    }

    #[test]
    fn pull_repair_of_empty_file_creates_shell() {
        let src_dir = TempDir::new("pull-empty-src");
        let dst_dir = TempDir::new("pull-empty-dst");
        let src = Dataserver::open(HostId(0), &src_dir.0).unwrap();
        let dst = Dataserver::open(HostId(1), &dst_dir.0).unwrap();
        let m = meta(22, 8);
        src.create_file(&m).unwrap();
        assert_eq!(dst.pull_repair(&src, &m).unwrap(), 0);
        assert!(dst.has_file(m.id));
    }

    #[test]
    fn pull_repair_from_downed_source_leaves_no_partial() {
        let src_dir = TempDir::new("pull-down-src");
        let dst_dir = TempDir::new("pull-down-dst");
        let src = Dataserver::open(HostId(0), &src_dir.0).unwrap();
        let dst = Dataserver::open(HostId(1), &dst_dir.0).unwrap();
        let mut m = meta(23, 8);
        src.create_file(&m).unwrap();
        m.size = src.append_local(m.id, b"payload").unwrap();
        src.crash();
        assert!(matches!(
            dst.pull_repair(&src, &m),
            Err(FsError::Unavailable(_))
        ));
        // The failed pull cleaned up after itself.
        assert!(!dst.has_file(m.id));
    }

    /// A fresh dataserver on the same root must see exactly what the
    /// live one's in-memory state serves: the file set, every replica's
    /// metadata and size, the bytes from `from` on, and the bytes held.
    fn assert_matches_fresh_open(ds: &Dataserver, ids: &[u128], from: u64) {
        let fresh = Dataserver::open(ds.host(), ds.root()).unwrap();
        assert_eq!(ds.list_files().unwrap(), fresh.list_files().unwrap());
        for id in ids.iter().copied().map(FileId) {
            assert_eq!(ds.has_file(id), fresh.has_file(id), "has_file {id}");
            let (live, reopened) = (
                ds.read_local(id, from, 1 << 20),
                fresh.read_local(id, from, 1 << 20),
            );
            match (&live, &reopened) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "read {id}"),
                (Err(FsError::NotFound(_)), Err(FsError::NotFound(_))) => {}
                _ => panic!("read {id}: live {live:?} vs reopened {reopened:?}"),
            }
            assert_eq!(
                ds.local_size(id).ok(),
                fresh.local_size(id).ok(),
                "local_size {id}"
            );
            assert_eq!(ds.read_meta(id).ok(), fresh.read_meta(id).ok(), "meta {id}");
        }
    }

    #[test]
    fn torn_tail_never_displaces_an_acknowledged_append() {
        // A crash between a chunk write and its acknowledgement leaves
        // unacknowledged bytes past the last acked size: inside the
        // tail chunk, or spilled into a new chunk file.
        for (tag, acked, torn_chunk) in [("torn-in-chunk", 4, "1"), ("torn-new-chunk", 8, "2")] {
            let dir = TempDir::new(tag);
            let m = meta(30, 8);
            {
                let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
                ds.create_file(&m).unwrap();
                for n in 1..=acked / 2 {
                    assert_eq!(ds.append_local(m.id, b"AA").unwrap(), 2 * n);
                }
            }
            let chunk = dir.0.join(m.id.as_hex()).join(torn_chunk);
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(chunk)
                .unwrap();
            std::io::Write::write_all(&mut f, b"TORN").unwrap();
            drop(f);

            let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
            let size = ds.append_local(m.id, b"BBBB").unwrap();
            let (tail, _) = ds.read_local(m.id, size - 4, 4).unwrap();
            assert_eq!(
                tail, b"BBBB",
                "{tag}: the ack's offset serves the acked bytes"
            );
            let (head, _) = ds.read_local(m.id, 0, acked).unwrap();
            assert!(
                head.len() as u64 == acked && head.iter().all(|b| *b == b'A'),
                "{tag}: earlier acked bytes unchanged"
            );
            assert_matches_fresh_open(&ds, &[30], 0);
        }
    }

    #[test]
    fn append_refuses_a_chunk_that_lost_acknowledged_bytes() {
        let dir = TempDir::new("short-chunk");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(31, 8);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"abcdef").unwrap();
        let chunk = dir.0.join(m.id.as_hex()).join("1");
        OpenOptions::new()
            .write(true)
            .open(chunk)
            .unwrap()
            .set_len(3)
            .unwrap();
        assert!(matches!(
            ds.append_local(m.id, b"x"),
            Err(FsError::CorruptMetadata(_))
        ));
    }

    #[test]
    fn state_matches_fresh_open_after_create_append_read() {
        let dir = TempDir::new("coherent-append");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let (a, b) = (meta(40, 4), meta(41, 4));
        ds.create_file(&a).unwrap();
        ds.create_file(&b).unwrap();
        assert_matches_fresh_open(&ds, &[40, 41, 42], 0);
        ds.append_local(a.id, b"0123456789").unwrap();
        ds.append_local(a.id, b"ab").unwrap();
        assert_eq!(ds.read_local(a.id, 2, 9).unwrap().0, b"23456789a");
        assert_matches_fresh_open(&ds, &[40, 41, 42], 0);
    }

    #[test]
    fn state_matches_fresh_open_after_update_meta() {
        let dir = TempDir::new("coherent-update");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let mut m = meta(43, 4);
        m.replicas = vec![HostId(0), HostId(1), HostId(2)];
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"payload").unwrap();
        // Rename, repair (a replaced replica) and primary re-election,
        // each carrying the nameserver's possibly stale size.
        m.name = "renamed".into();
        ds.update_meta(&m).unwrap();
        assert_matches_fresh_open(&ds, &[43], 0);
        m.replicas[2] = HostId(7);
        ds.update_meta(&m).unwrap();
        assert_matches_fresh_open(&ds, &[43], 0);
        m.replicas.swap(0, 1);
        ds.update_meta(&m).unwrap();
        let seen = ds.read_meta(m.id).unwrap();
        assert_eq!((seen.name.as_str(), seen.size), ("renamed", 7));
        assert_eq!(seen.replicas, [HostId(1), HostId(0), HostId(7)]);
        assert_matches_fresh_open(&ds, &[43], 0);
        assert!(matches!(
            ds.update_meta(&meta(44, 4)),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn state_matches_fresh_open_after_seal_and_drop() {
        let dir = TempDir::new("coherent-seal");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        // 10 bytes: two complete chunks and a 2-byte tail; 8 bytes: two
        // complete chunks and no tail once both are dropped.
        for (id, len) in [(45u128, 10usize), (46, 8)] {
            let mut m = meta(id, 4);
            m.redundancy = crate::types::Redundancy::Coded { k: 2, m: 1 };
            ds.create_file(&m).unwrap();
            ds.append_local(m.id, &vec![id as u8; len]).unwrap();
            m.sealed_chunks = 2;
            ds.update_meta(&m).unwrap();
            assert_matches_fresh_open(&ds, &[id], 8);
            ds.drop_chunk(m.id, 0).unwrap();
            assert_matches_fresh_open(&ds, &[id], 8);
            ds.drop_chunk(m.id, 1).unwrap();
            assert_matches_fresh_open(&ds, &[id], 8);
            assert_eq!(ds.read_meta(m.id).unwrap().size, len as u64);
            assert_eq!(ds.local_size(m.id).unwrap(), len as u64 - 8);
        }
        // The tail stays appendable above the watermark.
        assert_eq!(ds.append_local(FileId(46), b"xy").unwrap(), 10);
        assert_eq!(ds.read_local(FileId(46), 8, 4).unwrap().0, b"xy");
        assert_matches_fresh_open(&ds, &[45, 46], 8);
    }

    #[test]
    fn state_matches_fresh_open_after_delete_and_recreate() {
        let dir = TempDir::new("coherent-recreate");
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = meta(47, 4);
        ds.create_file(&m).unwrap();
        ds.append_local(m.id, b"first life").unwrap();
        ds.delete_file(m.id).unwrap();
        assert_matches_fresh_open(&ds, &[47], 0);
        ds.create_file(&m).unwrap();
        assert_eq!(ds.read_local(m.id, 0, 100).unwrap(), (Vec::new(), 0));
        assert_eq!(ds.append_local(m.id, b"second").unwrap(), 6);
        assert_eq!(ds.read_local(m.id, 0, 100).unwrap().0, b"second");
        assert_matches_fresh_open(&ds, &[47], 0);
    }

    /// Serves one chunk, then fails like a source that crashed mid-copy.
    struct FailsAfterFirstRead<'a>(&'a Dataserver, std::sync::atomic::AtomicBool);
    impl RepairSource for FailsAfterFirstRead<'_> {
        fn repair_read(
            &self,
            id: FileId,
            offset: u64,
            len: u64,
        ) -> Result<(Vec<u8>, u64), FsError> {
            if self.1.swap(true, Ordering::SeqCst) {
                return Err(FsError::Unavailable("source crashed".into()));
            }
            self.0.repair_read(id, offset, len)
        }
    }

    #[test]
    fn state_matches_fresh_open_after_failed_pull_repair() {
        let src_dir = TempDir::new("coherent-pull-src");
        let dst_dir = TempDir::new("coherent-pull-dst");
        let src = Dataserver::open(HostId(0), &src_dir.0).unwrap();
        let dst = Dataserver::open(HostId(1), &dst_dir.0).unwrap();
        let mut m = meta(48, 4);
        src.create_file(&m).unwrap();
        m.size = src.append_local(m.id, b"three chunks").unwrap();
        let source = FailsAfterFirstRead(&src, AtomicBool::new(false));
        assert!(matches!(
            dst.pull_repair(&source, &m),
            Err(FsError::Unavailable(_))
        ));
        assert!(!dst.has_file(m.id));
        assert_matches_fresh_open(&dst, &[48], 0);
        // The retry starts clean and converges.
        assert_eq!(dst.pull_repair(&src, &m).unwrap(), 12);
        assert_matches_fresh_open(&dst, &[48], 0);
        assert_eq!(dst.read_local(m.id, 0, 100).unwrap().0, b"three chunks");
    }

    #[test]
    fn concurrent_appends_racing_reads_see_acknowledged_prefixes() {
        const REC: usize = 6;
        let dir = TempDir::new("coherent-race");
        let ds = Arc::new(Dataserver::open(HostId(0), &dir.0).unwrap());
        let m = meta(49, 16); // records straddle chunk boundaries
        ds.create_file(&m).unwrap();
        let writers: Vec<_> = (0..3u8)
            .map(|t| {
                let ds = Arc::clone(&ds);
                std::thread::spawn(move || {
                    for _ in 0..40 {
                        ds.append_local(FileId(49), &[t + 1; REC]).unwrap();
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let ds = Arc::clone(&ds);
                std::thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..200 {
                        let (data, size) = ds.read_local(FileId(49), 0, 1 << 20).unwrap();
                        assert_eq!(data.len() as u64, size);
                        assert!(size >= last && size % REC as u64 == 0, "size {size}");
                        last = size;
                        for rec in data.chunks(REC) {
                            assert!(rec.iter().all(|b| *b == rec[0] && *b != 0), "{rec:?}");
                        }
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        assert_eq!(ds.read_meta(m.id).unwrap().size, 3 * 40 * REC as u64);
        assert_matches_fresh_open(&ds, &[49], 0);
    }

    #[test]
    fn meta_survives_reopen() {
        let dir = TempDir::new("reopen");
        {
            let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
            let m = meta(8, 8);
            ds.create_file(&m).unwrap();
            ds.append_local(m.id, b"persist").unwrap();
        }
        let ds = Dataserver::open(HostId(0), &dir.0).unwrap();
        let m = ds.read_meta(FileId(8)).unwrap();
        assert_eq!(m.size, 7);
        let (data, _) = ds.read_local(FileId(8), 0, 7).unwrap();
        assert_eq!(data, b"persist");
    }
}
