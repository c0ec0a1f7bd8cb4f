//! `sim-paper64`: the flow-level replay of the paper's Fig. 5 baseline
//! under `MayflowerMultipath` — 64-host 3-tier tree at 8:1
//! oversubscription, 256 MB reads, Zipf(1.1) popularity, λ = 0.07 per
//! server, rack-heavy locality, 1 s stats polls — with the job count
//! raised so one replay lasts about a second. The same traffic matrix
//! is replayed back to back for the whole run; every replay must give
//! the same job records and flowserver counts.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mayflower_net::{Topology, TreeParams};
use mayflower_sim::engine::{JobHooks, NoHooks};
use mayflower_sim::{replay_with_telemetry, ReplayOptions, Strategy, Summary};
use mayflower_simcore::SimRng;
use mayflower_workload::{ReadJob, TrafficMatrix, WorkloadParams};

use crate::common::{median, percentile, ratio, timed, Args, Budget, Report, WorkDir};
use crate::layers;

const SETUPS: usize = 25;
/// Jobs per replay, split over `MATRICES` traffic matrices generated
/// from sub-seeds: one matrix's hot-file placement would otherwise
/// swing `jct_p95_s` by 10% from seed to seed.
const JOBS: usize = 20_000;
const MATRICES: usize = 8;
/// Nominal replays per second of measured time (see [`Budget`]).
const RATE: f64 = 0.8;

/// Times the gap between a job's arrival and its first replica
/// assignment: the flowserver's joint replica and path selection.
#[derive(Default)]
struct SelectTimer {
    pending: Option<(usize, Instant)>,
    gaps_us: Vec<f64>,
}

impl JobHooks for SelectTimer {
    fn on_arrival(&mut self, job: &ReadJob) {
        self.pending = Some((job.id, Instant::now()));
    }

    fn on_assignment(&mut self, job: &ReadJob, _replica: mayflower_net::HostId, _bytes: f64) {
        if let Some((id, at)) = self.pending {
            if id == job.id {
                self.gaps_us.push(at.elapsed().as_secs_f64() * 1e6);
                self.pending = None;
            }
        }
    }
}

/// What one replay produced that must not change between replays.
#[derive(Debug, PartialEq)]
struct Outcome {
    jct_mean_bits: u64,
    jct_p95_bits: u64,
    /// Every flowserver counter, summed over the matrices.
    flowserver_counters: BTreeMap<String, u64>,
}

struct Replay {
    wall_s: f64,
    /// Wall seconds per job of each matrix's replay.
    per_job_s: Vec<f64>,
    outcome: Outcome,
    summary: Summary,
}

/// Builds the topology and `matrices` traffic matrices of `jobs` jobs in
/// all; returns them with the time matrix generation took, in seconds.
fn setup(seed: u64, jobs: usize, matrices: usize) -> (Arc<Topology>, Vec<TrafficMatrix>, f64) {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let params = WorkloadParams {
        job_count: jobs / matrices,
        ..WorkloadParams::default()
    };
    let (matrices, us) = timed(|| {
        (0..matrices as u64)
            .map(|i| {
                TrafficMatrix::generate(&topo, &params, &mut SimRng::seed_from(seed ^ (i << 32)))
            })
            .collect()
    });
    (topo, matrices, us / 1e6)
}

/// Replays every matrix once, checking that each job has exactly one
/// record, in job order.
fn replay(
    topo: &Arc<Topology>,
    matrices: &[TrafficMatrix],
    seed: u64,
    hooks: &mut dyn JobHooks,
    report: &mut Report,
) -> Option<Replay> {
    let opts = ReplayOptions {
        poll_interval_secs: 1.0,
        ..ReplayOptions::default()
    };
    let mut durations = Vec::new();
    let mut per_job_s = Vec::new();
    let mut flowserver_counters = BTreeMap::new();
    let start = Instant::now();
    for (i, matrix) in matrices.iter().enumerate() {
        let mut rng = SimRng::seed_from(seed ^ 0x7e1a ^ ((i as u64) << 32));
        let matrix_start = Instant::now();
        let (jobs, _, registry) = replay_with_telemetry(
            topo,
            matrix,
            Strategy::MayflowerMultipath,
            &opts,
            &mut rng,
            hooks,
        );
        per_job_s.push(matrix_start.elapsed().as_secs_f64() / matrix.jobs.len().max(1) as f64);
        report.attempted(matrix.jobs.len() as u64);
        let ok = jobs.len() == matrix.jobs.len() && jobs.iter().enumerate().all(|(i, j)| j.id == i);
        report.check(ok, || {
            format!(
                "{} records for {} jobs, or out of order",
                jobs.len(),
                matrix.jobs.len()
            )
        });
        durations.extend(jobs.iter().filter(|j| !j.local).map(|j| j.duration_secs()));
        let snapshot = registry.snapshot();
        for e in snapshot
            .entries
            .iter()
            .filter(|e| e.id.name.starts_with("flowserver_"))
        {
            if let Some(v) = snapshot.counter(&e.id.render()) {
                *flowserver_counters.entry(e.id.render()).or_insert(0) += v;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if durations.is_empty() {
        report.mismatch("no remote jobs".into());
        return None;
    }
    let summary = Summary::of(&durations);
    Some(Replay {
        wall_s,
        per_job_s,
        outcome: Outcome {
            jct_mean_bits: summary.mean.to_bits(),
            jct_p95_bits: summary.p95.to_bits(),
            flowserver_counters,
        },
        summary,
    })
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    report.note(format!(
        "sim-paper64: {JOBS} jobs per replay, MayflowerMultipath, {} cores",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let ((topo, matrices, _), us) = timed(|| setup(args.seed, JOBS, MATRICES));
        setup_s.push(us / 1e6);
        built = Some((topo, matrices));
    }
    let (topo, matrices) = built.expect("at least one set-up ran");
    let budget = Budget::new(args, RATE);
    // At least two replays, so the determinism check always runs; a
    // traced run alternates untraced and traced replays.
    let replays = budget.ops.max(2);
    // The first replay is the reference every later one must match.
    let mut first: Option<Replay> = None;
    let mut record = |r: Replay, report: &mut Report| -> (f64, Vec<f64>) {
        let timing = (r.wall_s, r.per_job_s.clone());
        match &first {
            None => first = Some(r),
            Some(f) => report.check(f.outcome == r.outcome, || {
                "replays of one seed differ".into()
            }),
        }
        timing
    };
    let mut untraced_wall = Vec::new();
    let mut per_job_us = Vec::new();
    let mut traced_wall = Vec::new();
    while untraced_wall.len() + traced_wall.len() < replays
        && (Instant::now() < budget.cap || untraced_wall.len() < 2)
    {
        let Some(r) = replay(&topo, &matrices, args.seed, &mut NoHooks, &mut report) else {
            return report;
        };
        let (wall, per_job) = record(r, &mut report);
        untraced_wall.push(wall);
        per_job_us.extend(per_job.iter().map(|s| s * 1e6));
        if !args.trace {
            continue;
        }
        let mut timer = SelectTimer::default();
        let Some(r) = replay(&topo, &matrices, args.seed, &mut timer, &mut report) else {
            return report;
        };
        traced_wall.push(record(r, &mut report).0);
    }
    let first = first.expect("at least one replay ran");
    report.note(format!(
        "replays: untraced={} traced={}; remote jobs={}; jct_mean_s={} jct_p95_s={}",
        untraced_wall.len(),
        traced_wall.len(),
        first.summary.n,
        first.summary.mean,
        first.summary.p95
    ));
    if !args.trace {
        report.metric_of("setup_s", median(&setup_s), "s");
        let rates: Vec<f64> = untraced_wall.iter().map(|w| JOBS as f64 / w).collect();
        report.metric_of("ops_per_s", median(&rates), "1/s");
        report.metric_of("op_p50_us", median(&per_job_us), "us");
        return report;
    }
    let overhead = match (median(&traced_wall), median(&untraced_wall)) {
        (Some(t), Some(u)) => Some(t / u - 1.0),
        _ => None,
    };
    report.metric_of("trace.overhead_frac", overhead, "ratio");
    let work = WorkDir::new("sim-paper64");
    layers::probe(args.seed, &work, &mut report);
    report
}

/// The flowserver, sdn, engine and workload-generation metrics: one
/// replay of `jobs` jobs over `matrices` traffic matrices, with the
/// flowserver's selections timed from each job's arrival to its first
/// assignment.
pub fn probe_flowserver(seed: u64, jobs: usize, matrices: usize, report: &mut Report) {
    let (topo, matrices, generate_s) = setup(seed, jobs, matrices);
    let mut timer = SelectTimer::default();
    let Some(r) = replay(&topo, &matrices, seed, &mut timer, report) else {
        return;
    };
    let gaps = &timer.gaps_us;
    let selecting = gaps.iter().sum::<f64>() / 1e6;
    report.metric_of("flowserver.select_us_p50", percentile(gaps, 50.0), "us");
    report.metric_of("flowserver.select_us_p99", percentile(gaps, 99.0), "us");
    report.metric("flowserver.select_share", selecting / r.wall_s, "ratio");
    let counters = &r.outcome.flowserver_counters;
    let c = |id: &str| counters.get(id).copied().unwrap_or(0) as f64;
    let pruned = c("flowserver_selection_candidates_total{result=\"pruned\"}");
    let evaluated = c("flowserver_selection_candidates_total{result=\"evaluated\"}");
    report.metric(
        "flowserver.prune_ratio",
        ratio(pruned, pruned + evaluated),
        "ratio",
    );
    let hits = c("flowserver_path_cache_hits_total");
    report.metric(
        "flowserver.path_cache_hit_ratio",
        ratio(hits, hits + c("flowserver_path_cache_misses_total")),
        "ratio",
    );
    let accepted = c("flowserver_split_accepted_total");
    report.metric(
        "flowserver.split_accept_ratio",
        ratio(accepted, accepted + c("flowserver_split_rejected_total")),
        "ratio",
    );
    report.metric(
        "flowserver.update_freezes",
        c("flowserver_update_freezes_total"),
        "count",
    );
    report.metric("sdn.polls", c("flowserver_polls_total"), "count");
    report.metric("engine.self_s", r.wall_s - selecting, "s");
    report.metric("workload.generate_s", generate_s, "s");
}
