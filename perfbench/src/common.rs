//! Shared pieces of the workloads: sample statistics, the result
//! report, failure accounting, the byte model files are checked
//! against, the timed seams wrapped around the program's public
//! interfaces, and trace self-time accounting.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mayflower_fs::{
    FileMeta, FsError, MetadataService, Nameserver, ReadAssignment, ReplicaSelector,
};
use mayflower_net::HostId;
use mayflower_simcore::SimRng;
use mayflower_telemetry::metrics::HistogramSnapshot;
use mayflower_telemetry::trace::{SpanEvent, SpanId, TraceTree};
use mayflower_telemetry::Snapshot;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A run's fixed amount of work: `ops` operations, `--seconds` times
/// the workload's nominal rate on the reference machine (2 vCPUs), so
/// every run of a seed does the same work and counts, file sizes and
/// memory repeat. `cap` bounds the time when the machine is much
/// slower than the reference.
pub struct Budget {
    pub ops: usize,
    pub cap: Instant,
}

impl Budget {
    pub fn new(args: &Args, per_second: f64) -> Budget {
        Budget {
            ops: ((args.seconds * per_second).round() as usize).max(1),
            cap: Instant::now()
                + Duration::from_secs_f64((3.0 * args.seconds).clamp(args.seconds, 120.0)),
        }
    }

    /// Notes a run cut short by the time cap.
    pub fn note_cut(&self, done: usize, report: &mut Report) {
        if done < self.ops {
            report.note(format!(
                "time cap reached after {done} of {} operations",
                self.ops
            ));
        }
    }
}

/// Runs `total` operations through `run(n)` in blocks of `block` (a
/// whole number of decks, about a second), and returns how many ran and
/// the throughput of each full block in operations per second.
pub fn run_blocks(
    total: usize,
    block: usize,
    mut run: impl FnMut(usize) -> usize,
) -> (usize, Vec<f64>) {
    let mut done = 0;
    let mut rates = Vec::new();
    while done < total {
        let n = block.min(total - done);
        let start = Instant::now();
        let ran = run(n);
        if ran == n && n == block {
            rates.push(n as f64 / start.elapsed().as_secs_f64());
        }
        done += ran;
        if ran < n {
            break;
        }
    }
    (done, rates)
}

/// A p99 tail for the notes, with its sample count and how many
/// samples lie beyond it. Tails are reported, not gated: on a shared
/// 2-vCPU host they follow the hypervisor's scheduling stalls more than
/// the program.
pub fn tail(name: &str, samples: &[f64]) -> String {
    let p99 = percentile(samples, 99.0).unwrap_or(f64::NAN);
    let beyond = samples.iter().filter(|&&v| v > p99).count();
    format!("{name}={p99:.1}us (n={}, beyond={beyond})", samples.len())
}

/// Times `f`, returning its result and the elapsed microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Nearest-rank percentile of `samples` (need not be sorted); `None`
/// when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Geometric mean of the per-kind medians in `by_kind`: `op_p50_us`.
/// Every kind weighs the same whatever its share of the mix, so a
/// change to a rare operation still shows, and no kind's scale swamps
/// the others. `None` when a kind has no samples.
pub fn geomean_of_medians<K>(by_kind: &BTreeMap<K, Vec<f64>>) -> Option<f64> {
    let mut log_sum = 0.0;
    for samples in by_kind.values() {
        log_sum += median(samples)?.ln();
    }
    (!by_kind.is_empty()).then(|| (log_sum / by_kind.len() as f64).exp())
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Tracing overhead: the traced arm's latency over the untraced arm's,
/// minus one, with each operation kind's median weighted by its count
/// in the untraced arm, so a differing mix or one slow outlier does not
/// masquerade as overhead.
pub fn overhead<K: Ord>(
    traced: &BTreeMap<K, Vec<f64>>,
    plain: &BTreeMap<K, Vec<f64>>,
) -> Option<f64> {
    let (mut t, mut p) = (0.0, 0.0);
    for (kind, samples) in plain {
        let n = samples.len() as f64;
        t += n * median(traced.get(kind)?)?;
        p += n * median(samples)?;
    }
    (p > 0.0).then(|| t / p - 1.0)
}

/// What one run reports: operation accounting, correctness, metrics,
/// and human-readable notes printed ahead of the result line.
///
/// Metrics are the ones `BENCHMARK.json` lists, which every workload
/// prints. Details are figures only some workloads produce (their own
/// seams, per-kind latencies); they go to the notes as `detail:` lines.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failures: BTreeMap<String, u64>,
    mismatches: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    details: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one attempted operation and, when it failed, its cause.
    pub fn op<T>(&mut self, result: &Result<T, FsError>) {
        self.attempted += 1;
        if let Err(e) = result {
            *self.failures.entry(fs_error_label(e)).or_insert(0) += 1;
        }
    }

    /// Counts `n` attempted operations that cannot fail on their own
    /// (simulated jobs); only a failed check fails them.
    pub fn attempted(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a failed correctness check. It fails the run and counts
    /// as a failed operation; the first few are kept for the notes.
    pub fn mismatch(&mut self, what: String) {
        *self.failures.entry("check.mismatch".into()).or_insert(0) += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }

    /// Checks `ok`, recording `what` as a mismatch when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatch(what());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a metric computed from samples, failing the run when
    /// there were none to compute it from.
    pub fn metric_of(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.metric(name, v, unit),
            None => self.mismatch(format!("no samples for {name}")),
        }
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.to_string(), value, unit));
    }

    /// A detail computed from samples; skipped when there were none.
    pub fn detail_of(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.detail(name, v, unit);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Prints the notes, the failure breakdown and, last, the one-line
    /// JSON result.
    pub fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        for (name, value, unit) in &self.details {
            println!("detail: {name} = {value:.3} {unit}");
        }
        for m in &self.mismatches {
            println!("mismatch: {m}");
        }
        let breakdown: Vec<String> = self
            .failures
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!(
            "failures: attempted={} failed={} by_cause={{{}}}",
            self.attempted,
            self.failed(),
            breakdown.join(", ")
        );
        // Names and units are plain identifiers, so the JSON needs no
        // escaping; `{}` prints every digit of an f64 and never an
        // exponent.
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = self.mismatches.is_empty() && self.metrics.iter().all(|m| m.1.is_finite());
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        );
    }
}

/// Failure cause label: the `FsError` variant, or the `RpcError`
/// variant for RPC failures.
pub fn fs_error_label(e: &FsError) -> String {
    match e {
        FsError::Io(_) => "fs.io".into(),
        FsError::Kv(_) => "fs.kv".into(),
        FsError::Rpc(r) => format!("rpc.{}", r.variant_label()),
        FsError::NotFound(_) => "fs.not_found".into(),
        FsError::AlreadyExists(_) => "fs.already_exists".into(),
        FsError::InvalidArgument(_) => "fs.invalid_argument".into(),
        FsError::CorruptMetadata(_) => "fs.corrupt_metadata".into(),
        FsError::Consistency(_) => "fs.consistency".into(),
        FsError::Unavailable(_) => "fs.unavailable".into(),
    }
}

/// Per-run scratch directory for cluster state under `.bench_work` in
/// the working directory, removed on drop (with `.bench_work` itself
/// once no other run uses it).
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let path = PathBuf::from(".bench_work")
            .join(format!("mayflower-perfbench-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create benchmark work directory");
        settle();
        WorkDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The storage and flush policy, for the run's notes.
    pub fn policy(&self) -> String {
        format!(
            "storage: cluster directories under {}; kvstore fsync off (the paper's LevelDB \
             setting); dataservers write without fsync; {} cores",
            self.path.display(),
            std::thread::available_parallelism().map_or(1, usize::from)
        )
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
        // Fails harmlessly while another run still uses it.
        std::fs::remove_dir(".bench_work").ok();
        settle();
    }
}

/// Flushes the working directory's filesystem and waits for it
/// (`syncfs`). On a disk mounted with online discard, the blocks a
/// deleted cluster frees are trimmed when the journal commits, and the
/// first set-ups after a previous run's clean-up took several times as
/// long as later ones. Flushing after the clean-up makes the run that
/// deleted the files wait for that work, outside any timing; flushing
/// at the start drains what is left.
fn settle() {
    extern "C" {
        fn syncfs(fd: i32) -> i32;
    }
    if let Ok(dir) = std::fs::File::open(".") {
        use std::os::fd::AsRawFd;
        // SAFETY: the descriptor is open for the duration of the call.
        unsafe { syncfs(dir.as_raw_fd()) };
    }
}

/// The content every file in the fs workloads is made of: the 8-byte
/// word at index `w` of file `file` is an injective mix of `w` keyed
/// by `(seed, file)`, so every word of a file differs and a misplaced
/// or stale byte range cannot compare equal. Appends write these bytes
/// and reads are compared against them, so the check needs no stored
/// copy.
pub fn fill_content(seed: u64, file: u64, offset: u64, buf: &mut [u8]) {
    let key = splitmix(seed ^ splitmix(file));
    let word = |w: u64| {
        (key ^ w.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .to_le_bytes()
    };
    // Unaligned head byte by byte, then whole 8-byte words.
    let head = (((8 - offset % 8) % 8) as usize).min(buf.len());
    for (i, b) in buf[..head].iter_mut().enumerate() {
        let p = offset + i as u64;
        *b = word(p / 8)[(p % 8) as usize];
    }
    let mut w = (offset + head as u64) / 8;
    let mut chunks = buf[head..].chunks_exact_mut(8);
    for c in &mut chunks {
        c.copy_from_slice(&word(w));
        w += 1;
    }
    let tail = chunks.into_remainder();
    let bytes = word(w);
    tail.copy_from_slice(&bytes[..tail.len()]);
}

pub fn content(seed: u64, file: u64, offset: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    fill_content(seed, file, offset, &mut buf);
    buf
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A shuffled deck of operation kinds: every `counts.iter().sum()`
/// operations contain exactly `counts[i]` of kind `i`, so a run's mix
/// does not drift with the seed or the run length.
pub struct Deck {
    counts: Vec<usize>,
    cards: Vec<usize>,
}

impl Deck {
    pub fn new(counts: &[usize]) -> Deck {
        Deck {
            counts: counts.to_vec(),
            cards: Vec::new(),
        }
    }

    pub fn draw(&mut self, rng: &mut SimRng) -> usize {
        if self.cards.is_empty() {
            for (kind, &n) in self.counts.iter().enumerate() {
                self.cards.extend(std::iter::repeat_n(kind, n));
            }
            rng.shuffle(&mut self.cards);
        }
        self.cards.pop().expect("deck refilled above")
    }
}

/// Timings collected at the benchmark's seams, kept in memory and
/// summarized when the run ends.
#[derive(Debug, Default)]
pub struct Seams {
    samples: Mutex<BTreeMap<&'static str, Vec<f64>>>,
    /// Total time spent inside any seam, nanoseconds; read before and
    /// after an operation to split its time.
    inside_ns: AtomicU64,
}

impl Seams {
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let d = start.elapsed();
        self.inside_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        self.samples
            .lock()
            .expect("seam samples poisoned")
            .entry(name)
            .or_default()
            .push(d.as_secs_f64() * 1e6);
        out
    }

    pub fn inside(&self) -> Duration {
        Duration::from_nanos(self.inside_ns.load(Ordering::Relaxed))
    }

    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.samples
            .lock()
            .expect("seam samples poisoned")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    pub fn count(&self, name: &str) -> usize {
        self.samples
            .lock()
            .expect("seam samples poisoned")
            .get(name)
            .map_or(0, Vec::len)
    }
}

/// The nameserver behind a timed [`MetadataService`] seam.
pub struct TimedMeta {
    pub inner: Arc<Nameserver>,
    pub seams: Arc<Seams>,
}

impl MetadataService for TimedMeta {
    fn create_with(
        &self,
        name: &str,
        redundancy: mayflower_fs::Redundancy,
    ) -> Result<FileMeta, FsError> {
        self.seams.time("nameserver.create_us", || {
            self.inner.create_with(name, redundancy)
        })
    }

    fn lookup(&self, name: &str) -> Result<FileMeta, FsError> {
        self.seams
            .time("nameserver.lookup_us", || self.inner.lookup(name))
    }

    fn record_size(&self, name: &str, size: u64) -> Result<(), FsError> {
        self.seams.time("nameserver.record_size_us", || {
            self.inner.record_size(name, size)
        })
    }

    fn record_seal(&self, name: &str, sealed_chunks: u64) -> Result<(), FsError> {
        self.seams.time("nameserver.record_seal_us", || {
            self.inner.record_seal(name, sealed_chunks)
        })
    }

    fn rename(&self, old: &str, new: &str, overwrite: bool) -> Result<Option<FileMeta>, FsError> {
        self.seams.time("nameserver.rename_us", || {
            self.inner.rename(old, new, overwrite)
        })
    }

    fn delete(&self, name: &str) -> Result<FileMeta, FsError> {
        self.seams
            .time("nameserver.delete_us", || self.inner.delete(name))
    }
}

/// Nameserver seam names, for per-operation call counts.
pub const NAMESERVER_SEAMS: [&str; 6] = [
    "nameserver.create_us",
    "nameserver.lookup_us",
    "nameserver.record_size_us",
    "nameserver.record_seal_us",
    "nameserver.rename_us",
    "nameserver.delete_us",
];

/// A read selector behind a timed seam.
pub struct TimedSelector {
    pub inner: Box<dyn ReplicaSelector>,
    pub seams: Arc<Seams>,
}

impl ReplicaSelector for TimedSelector {
    fn select_read(
        &mut self,
        client: HostId,
        replicas: &[HostId],
        size_bytes: u64,
    ) -> Vec<ReadAssignment> {
        let seams = self.seams.clone();
        seams.time("selector.select_us", || {
            self.inner.select_read(client, replicas, size_bytes)
        })
    }

    fn select_fragments(
        &mut self,
        client: HostId,
        available: &[(usize, HostId)],
        k: usize,
    ) -> Vec<usize> {
        let seams = self.seams.clone();
        seams.time("selector.select_us", || {
            self.inner.select_fragments(client, available, k)
        })
    }
}

/// Adds to `totals` each component's self time in `events`: a span's
/// duration minus the part of it its children cover (children of a
/// fan-out may overlap, so their intervals are merged first).
pub fn add_self_time(events: Vec<SpanEvent>, totals: &mut BTreeMap<&'static str, f64>) {
    let tree = TraceTree::build(events);
    for e in tree.events() {
        let mut kids: Vec<(u64, u64)> = tree
            .children_of(SpanId(e.span.0))
            .iter()
            .map(|&i| {
                let c = &tree.events()[i];
                (c.start_us.max(e.start_us), c.end_us.min(e.end_us))
            })
            .filter(|(s, t)| t > s)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, t) in kids {
            match cur {
                Some((cs, ct)) if s <= ct => cur = Some((cs, ct.max(t))),
                _ => {
                    if let Some((cs, ct)) = cur {
                        covered += ct - cs;
                    }
                    cur = Some((s, t));
                }
            }
        }
        if let Some((cs, ct)) = cur {
            covered += ct - cs;
        }
        *totals.entry(e.component).or_insert(0.0) += e.duration_us().saturating_sub(covered) as f64;
    }
}

/// Counter value in a registry snapshot, 0 when absent.
pub fn counter(snap: &Snapshot, id: &str) -> f64 {
    snap.counter(id).unwrap_or(0) as f64
}

/// Difference `after - before` of a histogram, for the observations
/// made between two snapshots.
pub fn histogram_delta(before: &Snapshot, after: &Snapshot, id: &str) -> Option<HistogramSnapshot> {
    let b = before.histogram(id);
    let a = after.histogram(id)?;
    let mut out = a.clone();
    if let Some(b) = b {
        for (o, x) in out.buckets.iter_mut().zip(b.buckets.iter()) {
            *o -= x;
        }
        out.count -= b.count;
        out.sum -= b.sum;
    }
    (out.count > 0).then_some(out)
}
