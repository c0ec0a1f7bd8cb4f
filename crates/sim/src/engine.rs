//! The discrete-event experiment engine: replays a traffic matrix
//! against a selection strategy over the fluid network.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use mayflower_baselines::hedera::{estimate_demands, Hedera, HederaFlow};
use mayflower_baselines::{nearest_replica, SinbadR};
use mayflower_flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig};
use mayflower_net::{ecmp_path, FlowKey, HostId, LinkId, Path, Topology};
use mayflower_sdn::{BlackoutCounters, CounterSource, FlowCookie};
use mayflower_simcore::{EventQueue, FaultSchedule, SimRng, SimTime};
use mayflower_simnet::{FlowCompletion, FlowId, FluidNet};
use mayflower_workload::TrafficMatrix;
use serde::{Deserialize, Serialize};

use crate::faults::{
    self, AppliedFault, DegradedDecision, FaultAction, FaultReport, FlowAbort, JobRetry, MissedPoll,
};
use crate::monitor::LinkLoadMonitor;
use crate::strategy::Strategy;

/// Outcome of one read job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// The job's id in the trace.
    pub id: usize,
    /// When the client issued the request.
    pub arrival: SimTime,
    /// When the last byte arrived.
    pub finish: SimTime,
    /// Whether the read was served from a co-located replica (no
    /// network transfer).
    pub local: bool,
    /// How many subflows carried the read (2 for a §4.3 split).
    pub subflows: usize,
    /// Finish time of each subflow, for split-skew analysis.
    pub subflow_finishes: Vec<SimTime>,
}

impl JobRecord {
    /// Job completion time in seconds.
    #[must_use]
    pub fn duration_secs(&self) -> f64 {
        self.finish.secs_since(self.arrival)
    }
}

/// Adapter exposing the fluid simulator's counters to the SDN control
/// plane under the controller's own flow identifiers.
struct FabricCounters<'a> {
    net: &'a FluidNet,
    cookie_to_flow: &'a HashMap<FlowCookie, FlowId>,
}

impl CounterSource for FabricCounters<'_> {
    fn port_bits(&self, link: LinkId) -> f64 {
        self.net.link_bits(link)
    }
    fn flow_bits(&self, cookie: FlowCookie) -> Option<f64> {
        self.cookie_to_flow
            .get(&cookie)
            .and_then(|f| self.net.flow_bits(*f))
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(usize),
    Poll,
    /// Apply the i-th compiled fault action.
    Fault(usize),
    /// A client retries an aborted or unassignable read.
    Retry(usize),
}

/// Callbacks letting a caller attach real work to the simulated jobs.
///
/// The Figure 8 prototype experiment implements these to drive the
/// **real** Mayflower filesystem: metadata lookups through the
/// nameserver on arrival, and real chunk reads from the chosen
/// replica's dataserver per assignment — while the engine keeps
/// charging transfer *time* through the fluid network model.
pub trait JobHooks {
    /// A job arrived (before replica selection).
    fn on_arrival(&mut self, job: &mayflower_workload::ReadJob) {
        let _ = job;
    }
    /// A replica was assigned `bytes` of the job's read.
    fn on_assignment(&mut self, job: &mayflower_workload::ReadJob, replica: HostId, bytes: f64) {
        let _ = (job, replica, bytes);
    }
}

/// The no-op hooks used by pure simulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl JobHooks for NoHooks {}

/// Engine options beyond the strategy itself.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Stats poll interval for both the Flowserver and Sinbad's
    /// monitor, seconds.
    pub poll_interval_secs: f64,
    /// Flowserver configuration (multipath, ablation switches). The
    /// `multipath` field is overridden from the strategy.
    pub flowserver: FlowserverConfig,
    /// Fault schedule to inject (empty = fault-free run; the engine
    /// then behaves bit-for-bit like the pre-fault code path).
    pub faults: FaultSchedule,
    /// Base client retry backoff after an aborted transfer or a failed
    /// selection, seconds; grows linearly with the attempt count.
    pub retry_backoff_secs: f64,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            poll_interval_secs: 1.0,
            flowserver: FlowserverConfig::default(),
            faults: FaultSchedule::default(),
            retry_backoff_secs: 0.25,
        }
    }
}

/// Marks a cause for `link` being down, severing it on the first
/// cause: the data plane zeroes its capacity and the Flowserver gets
/// the OpenFlow-style port-status notification.
fn sever_link(
    link: LinkId,
    causes: &mut BTreeMap<LinkId, u32>,
    down_links: &mut BTreeSet<LinkId>,
    net: &mut FluidNet,
    flowserver: &mut Option<Flowserver>,
) {
    let c = causes.entry(link).or_insert(0);
    *c += 1;
    if *c == 1 {
        down_links.insert(link);
        net.set_link_up(link, false);
        if let Some(fs) = flowserver.as_mut() {
            fs.set_link_state(link, false);
        }
    }
}

/// Removes one cause for `link` being down, healing it when no cause
/// remains (a link under both a cable cut and a dead switch stays down
/// until both recover).
fn heal_link(
    link: LinkId,
    causes: &mut BTreeMap<LinkId, u32>,
    down_links: &mut BTreeSet<LinkId>,
    net: &mut FluidNet,
    flowserver: &mut Option<Flowserver>,
) {
    let Some(c) = causes.get_mut(&link) else {
        return;
    };
    *c = c.saturating_sub(1);
    if *c == 0 {
        causes.remove(&link);
        down_links.remove(&link);
        net.set_link_up(link, true);
        if let Some(fs) = flowserver.as_mut() {
            fs.set_link_state(link, true);
        }
    }
}

/// Schedules the job's next retry with linear per-attempt backoff.
fn schedule_retry(
    job: usize,
    now: SimTime,
    retry_count: &mut [u32],
    backoff_secs: f64,
    queue: &mut EventQueue<Event>,
    report: &mut FaultReport,
) {
    retry_count[job] += 1;
    let attempt = retry_count[job];
    assert!(
        attempt <= 200,
        "job {job} exhausted its retry budget: the fault schedule leaves \
         no usable replica or path for it"
    );
    let fire = now + SimTime::from_secs(backoff_secs * f64::from(attempt));
    queue.schedule(fire, Event::Retry(job));
    report.retries.push(JobRetry {
        at: fire,
        job,
        attempt,
    });
}

/// Aborts every in-flight subflow of each hit job (client timeout
/// semantics: the read restarts as a unit), credits delivered bits,
/// and schedules the retries.
#[allow(clippy::too_many_arguments)]
fn abort_and_retry(
    jobs_hit: &BTreeSet<usize>,
    t: SimTime,
    net: &mut FluidNet,
    flowserver: &mut Option<Flowserver>,
    flow_to_job: &mut HashMap<FlowId, usize>,
    flow_to_cookie: &mut HashMap<FlowId, FlowCookie>,
    cookie_to_flow: &mut HashMap<FlowCookie, FlowId>,
    pending_subflows: &mut [usize],
    retry_bits: &mut [f64],
    retry_count: &mut [u32],
    retry_backoff_secs: f64,
    queue: &mut EventQueue<Event>,
    report: &mut FaultReport,
) {
    for &job in jobs_hit {
        let mut flows: Vec<FlowId> = flow_to_job
            .iter()
            .filter_map(|(f, j)| (*j == job).then_some(*f))
            .collect();
        flows.sort_unstable();
        let mut remaining = 0.0;
        for fid in flows {
            let state = net.remove_flow(fid).expect("aborted flow is active");
            remaining += state.remaining_bits;
            flow_to_job.remove(&fid);
            if let Some(cookie) = flow_to_cookie.remove(&fid) {
                cookie_to_flow.remove(&cookie);
                if let Some(fs) = flowserver.as_mut() {
                    fs.flow_completed(cookie);
                }
            }
        }
        pending_subflows[job] = 0;
        // Bits already delivered (by completed sibling subflows and
        // the aborted flows' own progress) stay delivered; only the
        // remainder is re-fetched.
        retry_bits[job] = remaining.max(1.0);
        report.aborts.push(FlowAbort {
            at: t,
            job,
            bits_refetched: remaining,
        });
        schedule_retry(job, t, retry_count, retry_backoff_secs, queue, report);
    }
}

/// Picks a shortest path from `replica` to `client` that avoids every
/// downed link, deterministically salted by the job id; `None` when
/// the faults sever all of them.
fn path_avoiding(
    topo: &Arc<Topology>,
    replica: HostId,
    client: HostId,
    salt: usize,
    down_links: &BTreeSet<LinkId>,
) -> Option<Path> {
    let paths = topo.shortest_paths(replica, client);
    let live: Vec<&Path> = paths
        .iter()
        .filter(|p| p.links().iter().all(|l| !down_links.contains(l)))
        .collect();
    if live.is_empty() {
        None
    } else {
        Some(live[salt % live.len()].clone())
    }
}

/// Replica + path selection for one job, fault-aware: filters out
/// crashed hosts and severed paths, falls back to nearest-replica when
/// the Flowserver is unreachable, and returns an empty vector (retry
/// later) when no usable assignment exists. On the fault-free path it
/// reproduces the original selection logic exactly.
#[allow(clippy::too_many_arguments)]
fn select_assignments(
    topo: &Arc<Topology>,
    strategy: Strategy,
    flowserver: &mut Option<Flowserver>,
    sinbad: &SinbadR,
    monitor: &LinkLoadMonitor,
    rng: &mut SimRng,
    job_id: usize,
    client: HostId,
    live_replicas: &[HostId],
    size: f64,
    t: SimTime,
    flowserver_up: bool,
    down_links: &BTreeSet<LinkId>,
    report: &mut FaultReport,
) -> Vec<(HostId, Path, f64, Option<FlowCookie>)> {
    if live_replicas.is_empty() {
        report.degraded.push(DegradedDecision {
            at: t,
            job: job_id,
            reason: "replicas-down".into(),
            replica: u32::MAX,
        });
        return Vec::new();
    }

    if strategy.uses_flowserver() && !flowserver_up {
        // Flowserver outage: degrade to the HDFS-style nearest-replica
        // policy with a severed-link-aware path — reads never block on
        // the control plane.
        let replica = nearest_replica(topo, client, live_replicas, rng);
        return match path_avoiding(topo, replica, client, job_id, down_links) {
            Some(path) => {
                report.degraded.push(DegradedDecision {
                    at: t,
                    job: job_id,
                    reason: "flowserver-outage-nearest-fallback".into(),
                    replica: replica.0,
                });
                vec![(replica, path, size, None)]
            }
            None => {
                report.degraded.push(DegradedDecision {
                    at: t,
                    job: job_id,
                    reason: "selection-unavailable".into(),
                    replica: u32::MAX,
                });
                Vec::new()
            }
        };
    }

    let assignments: Vec<(HostId, Path, f64, Option<FlowCookie>)> = match strategy {
        Strategy::Mayflower | Strategy::MayflowerMultipath => {
            let fs = flowserver.as_mut().expect("mayflower uses flowserver");
            let sel = fs.select(
                &FlowRequest::new(client, live_replicas, size, FlowPurpose::Read),
                t,
            );
            sel.assignments()
                .iter()
                .map(|a| (a.replica, a.path.clone(), a.size_bits, Some(a.cookie)))
                .collect()
        }
        Strategy::NearestMayflower | Strategy::SinbadRMayflower => {
            let replica = if strategy == Strategy::NearestMayflower {
                nearest_replica(topo, client, live_replicas, rng)
            } else {
                sinbad.select(topo, client, live_replicas, monitor, rng)
            };
            let fs = flowserver.as_mut().expect("scheduler uses flowserver");
            let sel = fs.select(
                &FlowRequest::new(client, &[replica], size, FlowPurpose::Path),
                t,
            );
            sel.assignments()
                .iter()
                .map(|a| (a.replica, a.path.clone(), a.size_bits, Some(a.cookie)))
                .collect()
        }
        Strategy::NearestEcmp
        | Strategy::SinbadREcmp
        | Strategy::NearestHedera
        | Strategy::SinbadRHedera => {
            let replica =
                if strategy == Strategy::NearestEcmp || strategy == Strategy::NearestHedera {
                    nearest_replica(topo, client, live_replicas, rng)
                } else {
                    sinbad.select(topo, client, live_replicas, monitor, rng)
                };
            let key = FlowKey::new(replica, client, job_id as u64);
            let hashed = ecmp_path(topo, key).expect("distinct hosts always have a path");
            if down_links.is_empty() || hashed.links().iter().all(|l| !down_links.contains(l)) {
                vec![(replica, hashed, size, None)]
            } else {
                // ECMP is fault-oblivious; the rerouted pick models the
                // fabric converging after the port-down notification.
                match path_avoiding(topo, replica, client, job_id, down_links) {
                    Some(path) => {
                        report.degraded.push(DegradedDecision {
                            at: t,
                            job: job_id,
                            reason: "ecmp-rerouted".into(),
                            replica: replica.0,
                        });
                        vec![(replica, path, size, None)]
                    }
                    None => Vec::new(),
                }
            }
        }
    };

    if assignments.is_empty() {
        // The Flowserver answered `Unavailable` (or every ECMP path is
        // severed): nothing installed, the client backs off.
        report.degraded.push(DegradedDecision {
            at: t,
            job: job_id,
            reason: "selection-unavailable".into(),
            replica: u32::MAX,
        });
    }
    assignments
}

/// Everything one replay produced.
#[derive(Debug)]
pub struct ReplayRun {
    /// The per-job records, in job order.
    pub jobs: Vec<JobRecord>,
    /// Cumulative bits carried per directed link — the raw material
    /// for hotspot/utilization analysis.
    pub usage: HashMap<LinkId, f64>,
    /// Every degraded-mode decision taken under `opts.faults`.
    pub faults: FaultReport,
    /// The run's telemetry registry. Every layer under the engine —
    /// the Flowserver, Sinbad's monitor, and the engine itself — homes
    /// its metrics there, and all recorded values are sim-time- or
    /// model-derived, so the registry's snapshot renders to identical
    /// bytes across runs with the same seed.
    pub registry: mayflower_telemetry::Registry,
}

/// Replays `matrix` on `topo` under `strategy`.
///
/// All strategies see identical arrivals, file placements and client
/// locations; stochastic tie-breaking draws from `rng`. The Flowserver
/// (when used) and Sinbad's monitor observe the network only through
/// counters polled every `opts.poll_interval_secs`. A non-empty
/// `opts.faults` injects the compiled faults and drives the
/// abort-and-retry recovery machinery. [`JobHooks`] attach real work
/// to the simulated jobs; pass [`NoHooks`] for a pure simulation. Same
/// seed + same options ⇒ byte-identical records, report and snapshot.
pub fn replay(
    topo: &Arc<Topology>,
    matrix: &TrafficMatrix,
    strategy: Strategy,
    opts: &ReplayOptions,
    rng: &mut SimRng,
    hooks: &mut dyn JobHooks,
) -> ReplayRun {
    let poll_interval_secs = opts.poll_interval_secs;
    assert!(poll_interval_secs > 0.0, "poll interval must be positive");
    let registry = mayflower_telemetry::Registry::new();
    let mut net = FluidNet::new(topo.clone());
    let mut flowserver = strategy.uses_flowserver().then(|| {
        let mut fs = Flowserver::new(
            topo.clone(),
            FlowserverConfig {
                multipath: strategy == Strategy::MayflowerMultipath,
                ..opts.flowserver.clone()
            },
        );
        fs.attach_metrics(&registry);
        fs
    });
    let sinbad = SinbadR::new();
    let hedera = strategy.uses_hedera().then(Hedera::new);
    let mut monitor = LinkLoadMonitor::new(topo);
    monitor.attach_metrics(&registry.scope("sim").scope("monitor"));

    let total_jobs = matrix.jobs.len();
    let mut queue: EventQueue<Event> = EventQueue::new();
    for job in &matrix.jobs {
        queue.schedule(job.arrival, Event::Arrival(job.id));
    }
    queue.schedule(SimTime::from_secs(poll_interval_secs), Event::Poll);

    // Fault-injection state. With an empty schedule every structure
    // stays empty and the engine follows the exact pre-fault paths.
    let actions = faults::compile(topo, &opts.faults);
    for (i, (at, _)) in actions.iter().enumerate() {
        queue.schedule(*at, Event::Fault(i));
    }
    let mut report = FaultReport::default();
    let mut link_down_causes: BTreeMap<LinkId, u32> = BTreeMap::new();
    let mut down_links: BTreeSet<LinkId> = BTreeSet::new();
    let mut down_hosts: BTreeSet<HostId> = BTreeSet::new();
    let mut flowserver_up = true;
    let mut pending_poll_losses: usize = 0;
    let mut retry_bits: Vec<f64> = vec![0.0; total_jobs];
    let mut retry_count: Vec<u32> = vec![0; total_jobs];

    let mut pending_subflows: Vec<usize> = vec![0; total_jobs];
    let mut records: Vec<Option<JobRecord>> = vec![None; total_jobs];
    let mut partial: Vec<Vec<SimTime>> = vec![Vec::new(); total_jobs];
    let mut flow_to_job: HashMap<FlowId, usize> = HashMap::new();
    let mut flow_to_cookie: HashMap<FlowId, FlowCookie> = HashMap::new();
    let mut cookie_to_flow: HashMap<FlowCookie, FlowId> = HashMap::new();
    let mut jobs_done = 0usize;

    let handle_completions = |comps: Vec<FlowCompletion>,
                              flowserver: &mut Option<Flowserver>,
                              flow_to_job: &mut HashMap<FlowId, usize>,
                              flow_to_cookie: &mut HashMap<FlowId, FlowCookie>,
                              cookie_to_flow: &mut HashMap<FlowCookie, FlowId>,
                              pending_subflows: &mut Vec<usize>,
                              partial: &mut Vec<Vec<SimTime>>,
                              records: &mut Vec<Option<JobRecord>>,
                              jobs_done: &mut usize,
                              matrix: &TrafficMatrix| {
        for c in comps {
            let job = flow_to_job
                .remove(&c.flow)
                .expect("completed flow belongs to a job");
            if let Some(cookie) = flow_to_cookie.remove(&c.flow) {
                cookie_to_flow.remove(&cookie);
                if let Some(fs) = flowserver.as_mut() {
                    fs.flow_completed(cookie);
                }
            }
            partial[job].push(c.at);
            pending_subflows[job] -= 1;
            if pending_subflows[job] == 0 {
                let arrival = matrix.jobs[job].arrival;
                records[job] = Some(JobRecord {
                    id: job,
                    arrival,
                    finish: c.at,
                    local: false,
                    subflows: partial[job].len(),
                    subflow_finishes: std::mem::take(&mut partial[job]),
                });
                *jobs_done += 1;
            }
        }
    };

    while jobs_done < total_jobs {
        let next_event = queue.peek_time().unwrap_or(SimTime::MAX);
        let next_completion = net.next_completion_time();

        if next_completion <= next_event {
            let t = next_completion;
            let comps = net.advance_to(t);
            handle_completions(
                comps,
                &mut flowserver,
                &mut flow_to_job,
                &mut flow_to_cookie,
                &mut cookie_to_flow,
                &mut pending_subflows,
                &mut partial,
                &mut records,
                &mut jobs_done,
                matrix,
            );
            continue;
        }

        let Some((t, ev)) = queue.pop() else {
            // No events, no completions, jobs outstanding: flows are
            // starved (cannot happen with positive capacities).
            unreachable!("simulation stalled with {jobs_done}/{total_jobs} jobs done");
        };
        let comps = net.advance_to(t);
        handle_completions(
            comps,
            &mut flowserver,
            &mut flow_to_job,
            &mut flow_to_cookie,
            &mut cookie_to_flow,
            &mut pending_subflows,
            &mut partial,
            &mut records,
            &mut jobs_done,
            matrix,
        );

        match ev {
            Event::Poll => {
                monitor.sample(&net, t);
                if let Some(fs) = flowserver.as_mut() {
                    if !flowserver_up || pending_poll_losses > 0 {
                        // The poll never reaches the Flowserver (outage
                        // or a lost stats reply): no UPDATEBW arrives,
                        // so expired update-freezes are cleared on the
                        // clock instead.
                        let reason = if flowserver_up {
                            pending_poll_losses -= 1;
                            "stats-poll-loss"
                        } else {
                            "flowserver-outage"
                        };
                        fs.note_poll_missed(t);
                        let freezes_expired = fs.expire_stale_freezes(t);
                        report.missed_polls.push(MissedPoll {
                            at: t,
                            reason: reason.into(),
                            freezes_expired,
                        });
                    } else {
                        let counters = FabricCounters {
                            net: &net,
                            cookie_to_flow: &cookie_to_flow,
                        };
                        if down_links.is_empty() {
                            let _ = fs.poll_stats(&counters, t);
                        } else {
                            // Stats requests to dead ports time out;
                            // their counters read as zero.
                            let dark = BlackoutCounters::new(&counters, &down_links);
                            let _ = fs.poll_stats(&dark, t);
                        }
                    }
                }
                if let Some(hedera) = &hedera {
                    // One Hedera round: estimate natural demands from
                    // flow endpoints, then globally first-fit reroute.
                    let snapshot: Vec<(FlowId, mayflower_net::Path)> = net
                        .active_flows()
                        .iter()
                        .map(|f| (f.id, f.path.clone()))
                        .collect();
                    let endpoints: Vec<(HostId, HostId)> =
                        snapshot.iter().map(|(_, p)| (p.src(), p.dst())).collect();
                    let demands = estimate_demands(topo, &endpoints);
                    let hflows: Vec<HederaFlow> = snapshot
                        .iter()
                        .zip(&demands)
                        .map(|((id, path), demand)| HederaFlow {
                            id: id.0,
                            path: path.clone(),
                            demand_bps: *demand,
                        })
                        .collect();
                    for (id, new_path) in hedera.reschedule(topo, &hflows) {
                        // Hedera is fault-oblivious: drop any reroute
                        // that would land a flow on a severed link.
                        if new_path.links().iter().all(|l| !down_links.contains(l)) {
                            net.reroute_flow(FlowId(id), new_path);
                        }
                    }
                }
                queue.schedule(t + SimTime::from_secs(poll_interval_secs), Event::Poll);
            }
            Event::Arrival(id) | Event::Retry(id) => {
                if records[id].is_some() {
                    // A retry raced a completion; nothing left to do.
                    continue;
                }
                let job = &matrix.jobs[id];
                let client = job.client;
                let replicas = matrix.replicas_of(job);
                let is_retry = matches!(ev, Event::Retry(_));
                let size = if is_retry {
                    // Only the un-delivered remainder is re-fetched.
                    retry_bits[id].max(1.0)
                } else {
                    matrix.size_of(job)
                };
                if !is_retry {
                    hooks.on_arrival(job);
                }

                if replicas.contains(&client) && !down_hosts.contains(&client) {
                    // Served locally: the paper excludes this from
                    // network analysis; completion is immediate. (A
                    // retry lands here when the co-located dataserver
                    // restarted in the meantime — the remainder is
                    // then a local read.)
                    let finishes = std::mem::take(&mut partial[id]);
                    records[id] = Some(JobRecord {
                        id,
                        arrival: job.arrival,
                        finish: t,
                        local: finishes.is_empty(),
                        subflows: finishes.len(),
                        subflow_finishes: finishes,
                    });
                    jobs_done += 1;
                    continue;
                }
                if replicas.contains(&client) {
                    // The co-located replica's dataserver is down: the
                    // read degrades to a remote transfer.
                    report.degraded.push(DegradedDecision {
                        at: t,
                        job: id,
                        reason: "local-replica-down".into(),
                        replica: u32::MAX,
                    });
                }

                let live: Vec<HostId> = replicas
                    .iter()
                    .copied()
                    .filter(|r| !down_hosts.contains(r))
                    .collect();
                let assignments = select_assignments(
                    topo,
                    strategy,
                    &mut flowserver,
                    &sinbad,
                    &monitor,
                    rng,
                    id,
                    client,
                    &live,
                    size,
                    t,
                    flowserver_up,
                    &down_links,
                    &mut report,
                );
                if assignments.is_empty() {
                    // No usable replica or path right now: back off and
                    // retry once the fault window passes.
                    retry_bits[id] = size;
                    schedule_retry(
                        id,
                        t,
                        &mut retry_count,
                        opts.retry_backoff_secs,
                        &mut queue,
                        &mut report,
                    );
                    continue;
                }
                pending_subflows[id] = assignments.len();
                for (replica, path, bits, cookie) in assignments {
                    hooks.on_assignment(job, replica, bits);
                    let fid = net.add_flow(path, bits, t);
                    flow_to_job.insert(fid, id);
                    if let Some(c) = cookie {
                        flow_to_cookie.insert(fid, c);
                        cookie_to_flow.insert(c, fid);
                    }
                }
            }
            Event::Fault(i) => {
                let (_, action) = &actions[i];
                let component = match action {
                    FaultAction::LinkDown(l) | FaultAction::LinkUp(l) => l.0,
                    FaultAction::DataserverCrash(h) | FaultAction::DataserverRestart(h) => h.0,
                    FaultAction::SwitchDown(links) | FaultAction::SwitchUp(links) => {
                        links.first().map_or(u32::MAX, |l| l.0)
                    }
                    _ => u32::MAX,
                };
                report.applied.push(AppliedFault {
                    at: t,
                    kind: action.label().into(),
                    component,
                });

                let mut jobs_hit: BTreeSet<usize> = BTreeSet::new();
                match action {
                    FaultAction::LinkDown(l) => {
                        for link in [*l, topo.reverse_link(*l)] {
                            sever_link(
                                link,
                                &mut link_down_causes,
                                &mut down_links,
                                &mut net,
                                &mut flowserver,
                            );
                        }
                    }
                    FaultAction::LinkUp(l) => {
                        for link in [*l, topo.reverse_link(*l)] {
                            heal_link(
                                link,
                                &mut link_down_causes,
                                &mut down_links,
                                &mut net,
                                &mut flowserver,
                            );
                        }
                    }
                    FaultAction::SwitchDown(links) => {
                        for link in links {
                            sever_link(
                                *link,
                                &mut link_down_causes,
                                &mut down_links,
                                &mut net,
                                &mut flowserver,
                            );
                        }
                    }
                    FaultAction::SwitchUp(links) => {
                        for link in links {
                            heal_link(
                                *link,
                                &mut link_down_causes,
                                &mut down_links,
                                &mut net,
                                &mut flowserver,
                            );
                        }
                    }
                    FaultAction::DataserverCrash(h) => {
                        down_hosts.insert(*h);
                        // Transfers sourced at the crashed dataserver
                        // die with it.
                        for f in net.active_flows() {
                            if f.path.src() == *h {
                                jobs_hit.insert(flow_to_job[&f.id]);
                            }
                        }
                    }
                    FaultAction::DataserverRestart(h) => {
                        down_hosts.remove(h);
                    }
                    FaultAction::FlowserverDown => flowserver_up = false,
                    FaultAction::FlowserverUp => flowserver_up = true,
                    FaultAction::StatsPollLoss => pending_poll_losses += 1,
                }
                // Severed links stall every flow crossing them; the
                // owning clients time out and retry.
                for f in net.stalled_flows() {
                    jobs_hit.insert(flow_to_job[&f]);
                }
                if !jobs_hit.is_empty() {
                    abort_and_retry(
                        &jobs_hit,
                        t,
                        &mut net,
                        &mut flowserver,
                        &mut flow_to_job,
                        &mut flow_to_cookie,
                        &mut cookie_to_flow,
                        &mut pending_subflows,
                        &mut retry_bits,
                        &mut retry_count,
                        opts.retry_backoff_secs,
                        &mut queue,
                        &mut report,
                    );
                }
            }
        }
    }

    let usage: HashMap<LinkId, f64> = topo
        .links()
        .iter()
        .map(|l| (l.id(), net.link_bits(l.id())))
        .collect();
    let records: Vec<JobRecord> = records
        .into_iter()
        .map(|r| r.expect("every job completed"))
        .collect();

    // Job-level metrics, fed from sim-time completion records (never
    // wall clock) so a fixed seed renders a byte-identical snapshot.
    let sim = registry.scope("sim");
    let jobs_total = sim.counter("jobs_total");
    let jobs_local = sim.counter("jobs_local_total");
    let jobs_split = sim.counter("jobs_split_total");
    let duration_us = sim.histogram("job_duration_us");
    for r in &records {
        jobs_total.inc();
        if r.local {
            jobs_local.inc();
        } else {
            duration_us.record_secs(r.duration_secs());
        }
        if r.subflows >= 2 {
            jobs_split.inc();
        }
    }
    sim.counter("job_retries_total")
        .add(report.retries.len() as u64);
    sim.counter("flow_aborts_total")
        .add(report.aborts.len() as u64);
    sim.counter("faults_applied_total")
        .add(report.applied.len() as u64);
    sim.counter("degraded_selections_total")
        .add(report.degraded.len() as u64);

    ReplayRun {
        jobs: records,
        usage,
        faults: report,
        registry,
    }
}

/// [`replay`]'s records, fault report and registry, as a tuple.
pub fn replay_with_telemetry(
    topo: &Arc<Topology>,
    matrix: &TrafficMatrix,
    strategy: Strategy,
    opts: &ReplayOptions,
    rng: &mut SimRng,
    hooks: &mut dyn JobHooks,
) -> (Vec<JobRecord>, FaultReport, mayflower_telemetry::Registry) {
    let run = replay(topo, matrix, strategy, opts, rng, hooks);
    (run.jobs, run.faults, run.registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mayflower_net::TreeParams;
    use mayflower_workload::{TrafficMatrix, WorkloadParams};

    fn small_run(strategy: Strategy, seed: u64, jobs: usize) -> Vec<JobRecord> {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut rng = SimRng::seed_from(seed);
        let params = WorkloadParams {
            job_count: jobs,
            file_count: 60,
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let opts = ReplayOptions::default();
        replay(&topo, &matrix, strategy, &opts, &mut rng, &mut NoHooks).jobs
    }

    #[test]
    fn every_job_completes_for_every_strategy() {
        for strategy in [
            Strategy::Mayflower,
            Strategy::MayflowerMultipath,
            Strategy::SinbadRMayflower,
            Strategy::SinbadREcmp,
            Strategy::NearestMayflower,
            Strategy::NearestEcmp,
            Strategy::NearestHedera,
            Strategy::SinbadRHedera,
        ] {
            let records = small_run(strategy, 11, 60);
            assert_eq!(records.len(), 60, "{strategy}");
            for r in &records {
                assert!(r.finish >= r.arrival, "{strategy} job {}", r.id);
                if !r.local {
                    assert!(r.duration_secs() > 0.0);
                    assert!(r.subflows >= 1);
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small_run(Strategy::Mayflower, 5, 40);
        let b = small_run(Strategy::Mayflower, 5, 40);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.finish, rb.finish);
            assert_eq!(ra.subflows, rb.subflows);
        }
    }

    #[test]
    fn uncontended_read_takes_transfer_time() {
        // One job far from everything: 256 MB at ≥0.5 Gbps (worst-case
        // core path) ≤ duration ≤ a few seconds.
        let records = small_run(Strategy::Mayflower, 3, 1);
        let r = &records[0];
        if !r.local {
            let d = r.duration_secs();
            // 256 MB = 2.048 Gbit: 2.05 s at 1 Gbps, 4.1 s at 0.5 Gbps.
            assert!((2.0..=4.2).contains(&d), "duration {d}");
        }
    }

    #[test]
    fn hedera_reroutes_and_still_completes_everything() {
        // Core-heavy workload: rerouting actually fires. Completion
        // must stay exact, and Hedera should beat plain ECMP.
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut rng = SimRng::seed_from(29);
        let params = WorkloadParams {
            job_count: 120,
            file_count: 60,
            locality: mayflower_workload::LocalityDist::core_heavy(),
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let opts = ReplayOptions::default();
        let mut r1 = rng.clone();
        let hedera = replay(
            &topo,
            &matrix,
            Strategy::NearestHedera,
            &opts,
            &mut r1,
            &mut NoHooks,
        )
        .jobs;
        let mut r2 = rng.clone();
        let ecmp = replay(
            &topo,
            &matrix,
            Strategy::NearestEcmp,
            &opts,
            &mut r2,
            &mut NoHooks,
        )
        .jobs;
        assert_eq!(hedera.len(), ecmp.len());
        let mean = |rs: &[JobRecord]| {
            let remote: Vec<f64> = rs
                .iter()
                .filter(|r| !r.local)
                .map(JobRecord::duration_secs)
                .collect();
            remote.iter().sum::<f64>() / remote.len() as f64
        };
        assert!(
            mean(&hedera) < mean(&ecmp) * 1.02,
            "Hedera {} vs ECMP {}",
            mean(&hedera),
            mean(&ecmp)
        );
    }

    #[test]
    fn telemetry_registry_spans_engine_flowserver_and_monitor() {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut rng = SimRng::seed_from(11);
        let params = WorkloadParams {
            job_count: 60,
            file_count: 60,
            ..WorkloadParams::default()
        };
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let opts = ReplayOptions::default();
        let ReplayRun { jobs, registry, .. } = replay(
            &topo,
            &matrix,
            Strategy::Mayflower,
            &opts,
            &mut rng,
            &mut NoHooks,
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim_jobs_total"), Some(jobs.len() as u64));
        let local = jobs.iter().filter(|j| j.local).count() as u64;
        assert_eq!(snap.counter("sim_jobs_local_total"), Some(local));
        let remote = snap.histogram("sim_job_duration_us").unwrap();
        assert_eq!(remote.count, jobs.len() as u64 - local);
        // Both observers run once per poll event on the fault-free path.
        assert_eq!(
            snap.counter("flowserver_polls_total"),
            snap.counter("sim_monitor_samples_total")
        );
        assert!(snap.counter("flowserver_polls_total").unwrap() > 0);
        assert!(
            snap.histogram("flowserver_selection_cost_us")
                .unwrap()
                .count
                > 0,
            "Eq. 2 selection costs must be distributed"
        );
    }

    #[test]
    fn multipath_records_subflow_finishes() {
        let records = small_run(Strategy::MayflowerMultipath, 17, 80);
        let split_jobs: Vec<_> = records.iter().filter(|r| r.subflows == 2).collect();
        for r in &split_jobs {
            assert_eq!(r.subflow_finishes.len(), 2);
            assert!(r.subflow_finishes.iter().all(|t| *t <= r.finish));
        }
    }
}
