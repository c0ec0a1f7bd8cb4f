//! The two in-process filesystem workloads. Both only read in their
//! timed sections: on the disk the benchmark's checkout lives on,
//! every dataserver append rewrites and renames a metadata file on
//! three replicas, and the kernel time that costs swung two-fold from
//! run to run (37 s to 53 s of system time for the same work), so
//! append and create latencies are reported by the layer probes, not
//! gated here.
//!
//! * `fs-small-read`: 4 KiB ranged reads over a Zipf(1.1) population
//!   larger than the client's metadata cache, no simulated RTT,
//!   data-plane pool width 1 — per-operation CPU and syscall cost of
//!   the read path.
//! * `fs-bulk-read`: 4 MiB split reads and degraded 4 MiB reads of
//!   `Coded{4,2}` files, 1 MiB chunks, 1 ms simulated RTT per
//!   dataserver request — datapath overlap and EC decoding.
//!
//! One client thread drives a closed loop: it issues the next
//! operation when the previous one returns.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mayflower_fs::{
    Client, Cluster, ClusterConfig, Consistency, FileMeta, FsError, NameserverConfig,
    NearestSelector, Redundancy, ReplicaSelector, SplitSelector,
};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::SimRng;
use mayflower_telemetry::{HistogramSnapshot, Snapshot};
use mayflower_workload::Zipf;

use crate::common::{
    add_self_time, content, counter, fill_content, geomean_of_medians, histogram_delta, median,
    overhead, ratio, run_blocks, tail, timed, Args, Budget, Deck, Report, Seams, TimedMeta,
    TimedSelector, WorkDir, NAMESERVER_SEAMS,
};
use crate::layers;

/// Blocks per arm in a traced run; the untraced and traced arms
/// alternate block by block so drift hits both alike.
const BLOCKS: usize = 20;

/// Nominal operations per second of measured time (see [`Budget`]).
const SMALL_RATE: f64 = 24_000.0;
const BULK_RATE: f64 = 150.0;

/// Files and the client's metadata cache capacity on fs-small-read:
/// the population is three times the cache, the ratio of several
/// thousand files to the default 1,024 entries, so nameserver lookups
/// stay on the read path, while set-up writes few enough files that
/// its time is not the disk's.
const SMALL_FILES: usize = 512;
const SMALL_CACHE: usize = 160;
const SMALL_IO: u64 = 4096;

const BULK_CHUNK: u64 = 1 << 20;
const BULK_FILE: u64 = 4 << 20;
const BULK_SPLIT_FILES: usize = 16;
const BULK_CODED_FILES: usize = 8;
const BULK_RTT: Duration = Duration::from_millis(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Read,
    CodedRead,
}

const KINDS: [Kind; 2] = [Kind::Read, Kind::CodedRead];

/// Which workload, with its population layout.
enum Layout {
    Small { zipf: Zipf },
    Bulk,
}

impl Layout {
    fn name(&self) -> &'static str {
        match self {
            Layout::Small { .. } => "fs-small-read",
            Layout::Bulk => "fs-bulk-read",
        }
    }

    /// Operations per block, about a second of work.
    fn block(&self) -> usize {
        match self {
            Layout::Small { .. } => 20_000,
            Layout::Bulk => 110,
        }
    }

    /// Cluster set-ups per process; `setup_s` is their median. One
    /// fs-bulk-read set-up writes 300 MB and one fs-small-read set-up
    /// 512 files on three replicas each, and a single set-up's time
    /// moved by a third between runs.
    fn setups(&self) -> usize {
        match self {
            Layout::Small { .. } => 2,
            Layout::Bulk => 3,
        }
    }

    fn rate(&self) -> f64 {
        match self {
            Layout::Small { .. } => SMALL_RATE,
            Layout::Bulk => BULK_RATE,
        }
    }

    /// Data-plane pool width. fs-small-read runs every piece inline
    /// (width 1, the same code path): its point is per-operation CPU
    /// and syscall cost, and spawning pool threads per 4 KiB operation
    /// made its latency follow the host's cross-CPU wake-up delays.
    /// fs-bulk-read overlaps round trips at the default width 4.
    fn width(&self) -> usize {
        match self {
            Layout::Small { .. } => 1,
            Layout::Bulk => 4,
        }
    }

    /// A client as the workload configures it.
    fn configure(&self, mut client: Client) -> Client {
        client.set_parallelism(self.width());
        if let Layout::Small { .. } = self {
            client.set_cache_capacity(SMALL_CACHE);
        }
        client
    }

    /// Operations per deck, by [`KINDS`] index: ranged reads only on
    /// fs-small-read; 10 split reads to 1 coded read on fs-bulk-read,
    /// where a coded read costs about as much as six split reads.
    fn deck(&self) -> [usize; 2] {
        match self {
            Layout::Small { .. } => [1, 0],
            Layout::Bulk => [10, 1],
        }
    }
}

/// The generator's model of every file: its name and size. Contents
/// follow from [`crate::common::content`].
struct Model {
    seed: u64,
    files: Vec<ModelFile>,
    /// Reused buffer for expected bytes: a fresh multi-MiB allocation
    /// per check costs more than the check.
    expected: Vec<u8>,
}

struct ModelFile {
    name: String,
    size: u64,
}

enum Op {
    ReadRange { file: usize, offset: u64, len: u64 },
    ReadWhole { file: usize, coded: bool },
}

impl Model {
    /// Whether `data` is what the model holds at `offset` of `file`.
    fn holds(&mut self, file: usize, offset: u64, data: &[u8]) -> bool {
        self.expected.resize(data.len(), 0);
        fill_content(self.seed, file as u64, offset, &mut self.expected);
        self.expected == data
    }

    fn next_op(&self, layout: &Layout, kind: Kind, rng: &mut SimRng) -> Op {
        match (layout, kind) {
            (Layout::Small { zipf }, _) => {
                let file = zipf.sample(rng);
                let size = self.files[file].size;
                let offset = rng.index((size - SMALL_IO + 1) as usize) as u64;
                Op::ReadRange {
                    file,
                    offset,
                    len: SMALL_IO,
                }
            }
            (Layout::Bulk, Kind::Read) => Op::ReadWhole {
                file: rng.index(BULK_SPLIT_FILES),
                coded: false,
            },
            (Layout::Bulk, Kind::CodedRead) => Op::ReadWhole {
                file: BULK_SPLIT_FILES + rng.index(BULK_CODED_FILES),
                coded: true,
            },
        }
    }

    /// Runs one operation on `client`, checks its result against the
    /// model, and returns its kind, latency and bytes read.
    fn run(
        &mut self,
        client: &mut Client,
        op: Op,
        report: &mut Report,
    ) -> Option<(Kind, f64, u64)> {
        match op {
            Op::ReadRange { file, offset, len } => {
                let (res, us) = timed(|| client.read_range(&self.files[file].name, offset, len));
                report.op(&res);
                let data = res.ok()?;
                let want = len.min(self.files[file].size - offset) as usize;
                let ok = data.len() == want && self.holds(file, offset, &data);
                report.check(ok, || {
                    format!(
                        "{} [{offset}, +{len}) differs from the model",
                        self.files[file].name
                    )
                });
                Some((Kind::Read, us, data.len() as u64))
            }
            Op::ReadWhole { file, coded } => {
                let (res, us) = timed(|| client.read(&self.files[file].name));
                report.op(&res);
                let data = res.ok()?;
                let ok = data.len() as u64 == self.files[file].size && self.holds(file, 0, &data);
                report.check(ok, || {
                    format!("{} read differs from the model", self.files[file].name)
                });
                let kind = if coded { Kind::CodedRead } else { Kind::Read };
                Some((kind, us, data.len() as u64))
            }
        }
    }
}

/// One closed-loop client with its own operation stream and samples.
struct Arm {
    client: Client,
    seams: Option<Arc<Seams>>,
    rng: SimRng,
    deck: Deck,
    /// Latency of every recorded operation, by kind.
    latency: BTreeMap<Kind, Vec<f64>>,
    /// MB/s per uncoded read: bytes over latency.
    read_mb_s: Vec<f64>,
    ops: u64,
    op_us: f64,
    /// Per-operation time outside the timed seams (traced arm only).
    other_us: Vec<f64>,
}

impl Arm {
    fn new(client: Client, seams: Option<Arc<Seams>>, rng: SimRng, layout: &Layout) -> Arm {
        Arm {
            client,
            seams,
            rng,
            deck: Deck::new(&layout.deck()),
            latency: BTreeMap::new(),
            read_mb_s: Vec::new(),
            ops: 0,
            op_us: 0.0,
            other_us: Vec::new(),
        }
    }

    /// Runs `n` operations, or fewer if `cap` passes first, recording
    /// them unless this is warm-up; returns how many ran.
    fn run(
        &mut self,
        n: usize,
        cap: Instant,
        layout: &Layout,
        model: &mut Model,
        report: &mut Report,
        record: bool,
    ) -> usize {
        for done in 0..n {
            if Instant::now() >= cap {
                return done;
            }
            let kind = KINDS[self.deck.draw(&mut self.rng)];
            let op = model.next_op(layout, kind, &mut self.rng);
            let seam_before = self.seams.as_ref().map(|s| s.inside());
            let Some((kind, us, bytes)) = model.run(&mut self.client, op, report) else {
                continue;
            };
            if !record {
                continue;
            }
            self.latency.entry(kind).or_default().push(us);
            if kind == Kind::Read {
                self.read_mb_s.push(bytes as f64 / us);
            }
            self.ops += 1;
            self.op_us += us;
            if let (Some(s), Some(before)) = (&self.seams, seam_before) {
                let seam_us = (s.inside() - before).as_secs_f64() * 1e6;
                self.other_us.push(us - seam_us);
            }
        }
        n
    }

    fn samples(&self, kind: Kind) -> &[f64] {
        self.latency.get(&kind).map_or(&[], Vec::as_slice)
    }
}

/// A built cluster with its populated files.
struct Built {
    cluster: Cluster,
    model: Model,
    client_host: HostId,
    /// The crashed fragment host (fs-bulk-read).
    crashed: Option<HostId>,
}

fn build(layout: &Layout, seed: u64, dir: &Path) -> Result<Built, FsError> {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let bulk = matches!(layout, Layout::Bulk);
    let cluster = Cluster::create(
        dir,
        topo.clone(),
        ClusterConfig {
            nameserver: NameserverConfig {
                replication: 3,
                chunk_size: if bulk {
                    BULK_CHUNK
                } else {
                    NameserverConfig::default().chunk_size
                },
                seed,
                ..NameserverConfig::default()
            },
            consistency: Consistency::Sequential,
        },
    )?;
    let mut rng = SimRng::seed_from(seed ^ 0x5e70);
    let hosts = topo.hosts();
    let client_host = hosts[rng.index(hosts.len())];
    let mut client = cluster.client(client_host);
    client.set_parallelism(layout.width());
    let mut model = Model {
        seed,
        files: Vec::new(),
        expected: Vec::new(),
    };
    // Appends a file's model content and enters it in the model.
    let fill = |client: &mut Client, model: &mut Model, name: String, bytes: u64| {
        let file = model.files.len() as u64;
        client.append(&name, &content(seed, file, 0, bytes as usize))?;
        model.files.push(ModelFile { name, size: bytes });
        Ok::<(), FsError>(())
    };
    let three = Redundancy::Replicated { n: 3 };
    let mut crashed = None;
    match layout {
        Layout::Small { .. } => {
            for i in 0..SMALL_FILES {
                let name = format!("small/{i:05}");
                client.create_with(&name, three)?;
                fill(&mut client, &mut model, name, SMALL_IO)?;
            }
        }
        Layout::Bulk => {
            let mut replica_hosts = std::collections::BTreeSet::new();
            for i in 0..BULK_SPLIT_FILES {
                let name = format!("split/{i:02}");
                replica_hosts.extend(client.create_with(&name, three)?.replicas);
                fill(&mut client, &mut model, name, BULK_FILE)?;
            }
            // The host to crash holds no replica of a replicated file.
            // Coded files are kept only when it holds one of their data
            // fragments (and no tail replica), so every sealed chunk of
            // every coded read has to be decoded: candidates are created
            // until some such host qualifies for enough of them.
            let free: Vec<HostId> = hosts
                .iter()
                .copied()
                .filter(|h| !replica_hosts.contains(h) && *h != client_host)
                .collect();
            let degrades = |meta: &FileMeta, h: HostId| {
                meta.fragments[..4].contains(&h) && !meta.replicas.contains(&h)
            };
            let coded = Redundancy::Coded { k: 4, m: 2 };
            let mut candidates = Vec::new();
            let mut victim = None;
            while victim.is_none() {
                if candidates.len() == 64 * BULK_CODED_FILES {
                    return Err(FsError::InvalidArgument("no fragment host to crash".into()));
                }
                let name = format!("coded/{:04}", candidates.len());
                candidates.push(client.create_with(&name, coded)?);
                victim = free.iter().copied().find(|&h| {
                    candidates.iter().filter(|m| degrades(m, h)).count() == BULK_CODED_FILES
                });
            }
            let victim = victim.expect("loop ends once a victim qualifies");
            for meta in candidates {
                if degrades(&meta, victim) {
                    fill(&mut client, &mut model, meta.name, BULK_FILE)?;
                } else {
                    client.delete(&meta.name)?;
                }
            }
            crashed = Some(victim);
        }
    }
    Ok(Built {
        cluster,
        model,
        client_host,
        crashed,
    })
}

/// Registry counters and histograms summed over the traced blocks.
#[derive(Default)]
struct Deltas {
    counters: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, HistogramSnapshot>,
}

const COUNTERS: [&str; 5] = [
    "fs_client_cache_hits_total",
    "fs_client_cache_misses_total",
    "fs_dataserver_reads_total",
    "ec_degraded_reads_total",
    "fs_client_retries_total",
];
const HISTOGRAMS: [&str; 2] = ["fs_datapath_fan_out_width", "fs_datapath_pipeline_stall_us"];

impl Deltas {
    fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for id in COUNTERS {
            *self.counters.entry(id).or_insert(0.0) += counter(after, id) - counter(before, id);
        }
        for id in HISTOGRAMS {
            let Some(d) = histogram_delta(before, after, id) else {
                continue;
            };
            match self.histograms.get_mut(id) {
                Some(sum) => {
                    for (s, x) in sum.buckets.iter_mut().zip(d.buckets.iter()) {
                        *s += x;
                    }
                    sum.count += d.count;
                    sum.sum += d.sum;
                }
                None => {
                    self.histograms.insert(id, d);
                }
            }
        }
    }

    fn counter(&self, id: &str) -> f64 {
        self.counters.get(id).copied().unwrap_or(0.0)
    }
}

pub fn run_small(args: &Args) -> Report {
    run(
        args,
        Layout::Small {
            zipf: Zipf::new(SMALL_FILES, 1.1),
        },
    )
}

pub fn run_bulk(args: &Args) -> Report {
    run(args, Layout::Bulk)
}

fn run(args: &Args, layout: Layout) -> Report {
    let mut report = Report::default();
    let work = WorkDir::new(layout.name());
    report.note(work.policy());
    let mut setup_s = Vec::new();
    let mut built: Option<Built> = None;
    for i in 0..layout.setups() {
        let dir = work.path().join(format!("setup-{i}"));
        let (res, us) = timed(|| build(&layout, args.seed, &dir));
        setup_s.push(us / 1e6);
        match res {
            Ok(b) => {
                // Only the last set-up is measured.
                drop(built.replace(b));
            }
            Err(e) => {
                report.mismatch(format!("set-up failed: {e}"));
                return report;
            }
        }
    }
    let Built {
        cluster,
        mut model,
        client_host,
        crashed,
    } = built.expect("at least one set-up ran");
    let bulk = matches!(layout, Layout::Bulk);
    if let Some(h) = crashed {
        cluster.dataserver(h).crash();
        cluster.set_simulated_rtt(BULK_RTT);
        report.note(format!(
            "fs-bulk-read: dataserver on host {} crashed, simulated rtt {BULK_RTT:?}",
            h.0
        ));
    }
    let selector = |cluster: &Cluster| -> Box<dyn ReplicaSelector> {
        if bulk {
            Box::new(SplitSelector::new(4))
        } else {
            Box::new(NearestSelector::new(cluster.topology().clone()))
        }
    };
    let mut rng = SimRng::seed_from(args.seed ^ 0x0b5);
    let plain_client =
        layout.configure(cluster.client_with_selector(client_host, selector(&cluster)));
    let mut plain = Arm::new(plain_client, None, rng.fork(), &layout);

    let budget = Budget::new(args, layout.rate());
    let warmup = budget.ops / 50;
    plain.run(warmup, budget.cap, &layout, &mut model, &mut report, false);
    if !args.trace {
        let start = Instant::now();
        let (done, rates) = run_blocks(budget.ops, layout.block(), |n| {
            plain.run(n, budget.cap, &layout, &mut model, &mut report, true)
        });
        let wall = start.elapsed().as_secs_f64();
        budget.note_cut(done, &mut report);
        report.metric_of("setup_s", median(&setup_s), "s");
        report.metric_of("ops_per_s", median(&rates), "1/s");
        report.metric_of("op_p50_us", geomean_of_medians(&plain.latency), "us");
        let p50 = |k| median(plain.samples(k));
        report.detail_of("read_p50_us", p50(Kind::Read), "us");
        report.detail_of("degraded_read_p50_us", p50(Kind::CodedRead), "us");
        if bulk {
            report.detail_of("read_mb_s", median(&plain.read_mb_s), "MB/s");
        }
        report.note(format!(
            "tails: {}",
            tail("read_p99_us", plain.samples(Kind::Read))
        ));
        let n = |k| plain.samples(k).len();
        report.note(format!(
            "samples: read={} coded_read={}; {:.2}s inside operations of {wall:.2}s",
            n(Kind::Read),
            n(Kind::CodedRead),
            plain.op_us / 1e6
        ));
        note_retries(&cluster, &mut report);
        return report;
    }

    // Traced run: the untraced client and a client whose nameserver
    // and selector calls pass through timed seams alternate in blocks;
    // during traced blocks the cluster's own tracer captures too. What
    // those seams see is printed as details; the per-layer metrics come
    // from the layer probes after the workload.
    let seams = Arc::new(Seams::default());
    let meta = Arc::new(TimedMeta {
        inner: cluster.nameserver().clone(),
        seams: seams.clone(),
    });
    let timed_selector = Box::new(TimedSelector {
        inner: selector(&cluster),
        seams: seams.clone(),
    });
    let traced_client =
        layout.configure(cluster.client_with_meta_and_selector(client_host, meta, timed_selector));
    let mut traced = Arm::new(traced_client, Some(seams.clone()), rng.fork(), &layout);
    traced.run(warmup, budget.cap, &layout, &mut model, &mut report, false);
    let tracer = cluster.tracer().clone();
    let mut deltas = Deltas::default();
    let mut self_time: BTreeMap<&'static str, f64> = BTreeMap::new();
    let per_arm = budget.ops / 2;
    let block = (per_arm / BLOCKS).max(1);
    let mut done = 0;
    while done < per_arm && Instant::now() < budget.cap {
        let n = block.min(per_arm - done);
        plain.run(n, budget.cap, &layout, &mut model, &mut report, true);
        let before = cluster.registry().snapshot();
        tracer.set_enabled(true);
        tracer.begin_capture();
        done += traced.run(n, budget.cap, &layout, &mut model, &mut report, true);
        tracer.set_enabled(false);
        add_self_time(tracer.take_capture(), &mut self_time);
        deltas.add(&before, &cluster.registry().snapshot());
    }
    budget.note_cut(2 * done, &mut report);
    report.metric_of(
        "trace.overhead_frac",
        overhead(&traced.latency, &plain.latency),
        "ratio",
    );

    let ops = traced.ops as f64;
    let sm = |name: &str| median(&seams.samples(name));
    let ds_calls = deltas.counter("fs_dataserver_reads_total");
    report.detail("dataserver.calls_per_op", ratio(ds_calls, ops), "count");
    for name in ["nameserver.lookup_us", "selector.select_us"] {
        report.detail_of(name, sm(name), "us");
    }
    let ns_calls: usize = NAMESERVER_SEAMS.iter().map(|s| seams.count(s)).sum();
    report.detail(
        "nameserver.calls_per_op",
        ratio(ns_calls as f64, ops),
        "count",
    );
    let hits = deltas.counter("fs_client_cache_hits_total");
    let lookups = hits + deltas.counter("fs_client_cache_misses_total");
    report.detail("client.cache_hit_ratio", ratio(hits, lookups), "ratio");
    report.detail("client.cache_lookups", lookups, "count");
    report.detail_of("client.other_us", median(&traced.other_us), "us");
    if bulk {
        let width = deltas.histograms.get("fs_datapath_fan_out_width");
        report.detail_of(
            "datapath.fanout_width_mean",
            width.map(HistogramSnapshot::mean),
            "count",
        );
        let stall = deltas.histograms.get("fs_datapath_pipeline_stall_us");
        report.detail_of(
            "datapath.stall_us_p50",
            stall.map(|h| h.percentile(50.0) as f64),
            "us",
        );
        let coded_reads = traced.samples(Kind::CodedRead).len() as f64;
        report.detail(
            "ec.decodes_per_read",
            ratio(deltas.counter("ec_degraded_reads_total"), coded_reads),
            "count",
        );
    }
    for (component, us) in &self_time {
        report.detail(&format!("tracer.self_us.{component}"), us / ops, "us");
    }
    report.note(format!(
        "traced ops={} untraced ops={}",
        traced.ops, plain.ops
    ));
    note_retries(&cluster, &mut report);
    layers::probe(args.seed, &work, &mut report);
    report
}

fn note_retries(cluster: &Cluster, report: &mut Report) {
    let retries = counter(&cluster.registry().snapshot(), "fs_client_retries_total");
    report.note(format!("client retries: {retries}"));
}
