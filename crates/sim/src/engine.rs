//! The discrete-event experiment engine.
//!
//! `Driver` is the simulator's one job-driven event loop over the
//! fluid network: the replay below, the §3.4 consistency experiment and
//! the write-placement experiment all run on it. [`replay`] replays a
//! traffic matrix against a selection strategy.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use mayflower_baselines::hedera::{estimate_demands, Hedera, HederaFlow};
use mayflower_baselines::{nearest_replica, SinbadR};
use mayflower_flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig};
use mayflower_net::{ecmp_path, FlowKey, HostId, LinkId, Path, Topology};
use mayflower_sdn::{BlackoutCounters, CounterSource, FlowCookie};
use mayflower_simcore::{EventQueue, FaultSchedule, SimRng, SimTime};
use mayflower_simnet::{FlowId, FluidNet};
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

/// The simulator's one job-driven event loop over the fluid fabric.
///
/// The driver owns the [`FluidNet`], the optional [`Flowserver`], the
/// experiment's event queue and every job's transfer bookkeeping: which
/// job (and Flowserver cookie) each in-flight flow belongs to, how many
/// subflows each job still waits for, and when each of them finished.
/// An experiment supplies its own event type and a handler that calls
/// [`Driver::admit`], [`Driver::finish_now`] and [`Driver::abort`]; the
/// driver interleaves those events with flow completions in time order
/// and retires a job when its last subflow drains.
pub(crate) struct Driver<E> {
    pub(crate) net: FluidNet,
    pub(crate) flowserver: Option<Flowserver>,
    queue: EventQueue<E>,
    /// Each in-flight flow's job and, when the Flowserver installed it,
    /// its rule cookie.
    flows: HashMap<FlowId, (usize, Option<FlowCookie>)>,
    cookie_to_flow: HashMap<FlowCookie, FlowId>,
    arrivals: Vec<SimTime>,
    pending: Vec<usize>,
    subflow_finishes: Vec<Vec<SimTime>>,
    finish: Vec<Option<SimTime>>,
    done: usize,
    /// How many faults currently hold each link down.
    down_causes: BTreeMap<LinkId, u32>,
    pub(crate) down_links: BTreeSet<LinkId>,
}

impl<E> Driver<E> {
    /// A driver for one job per entry of `arrivals`, with job `j`'s
    /// `arrive(j)` event scheduled at `arrivals[j]`.
    pub(crate) fn new(
        topo: &Arc<Topology>,
        flowserver: Option<Flowserver>,
        arrivals: Vec<SimTime>,
        arrive: impl Fn(usize) -> E,
    ) -> Driver<E> {
        let jobs = arrivals.len();
        let mut queue = EventQueue::new();
        for (j, at) in arrivals.iter().enumerate() {
            queue.schedule(*at, arrive(j));
        }
        Driver {
            net: FluidNet::new(topo.clone()),
            flowserver,
            queue,
            flows: HashMap::new(),
            cookie_to_flow: HashMap::new(),
            arrivals,
            pending: vec![0; jobs],
            subflow_finishes: vec![Vec::new(); jobs],
            finish: vec![None; jobs],
            done: 0,
            down_causes: BTreeMap::new(),
            down_links: BTreeSet::new(),
        }
    }

    /// The Flowserver of an experiment that always runs one.
    pub(crate) fn flowserver(&mut self) -> &mut Flowserver {
        self.flowserver
            .as_mut()
            .expect("experiment runs a Flowserver")
    }

    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    /// Starts one subflow of `job`: `bits` over `path` from `t`.
    pub(crate) fn admit(
        &mut self,
        job: usize,
        path: Path,
        bits: f64,
        cookie: Option<FlowCookie>,
        t: SimTime,
    ) {
        let fid = self.net.add_flow(path, bits, t);
        self.flows.insert(fid, (job, cookie));
        if let Some(c) = cookie {
            self.cookie_to_flow.insert(c, fid);
        }
        self.pending[job] += 1;
    }

    /// Retires `job` at `t` without (further) transfer.
    pub(crate) fn finish_now(&mut self, job: usize, t: SimTime) {
        self.finish[job] = Some(t);
        self.done += 1;
    }

    /// Tears down every in-flight subflow of `job` (client timeout: the
    /// read restarts as a unit) and returns the bits they had left.
    /// Bits already delivered stay delivered.
    pub(crate) fn abort(&mut self, job: usize) -> f64 {
        let mut flows: Vec<FlowId> = self
            .flows
            .iter()
            .filter_map(|(f, (j, _))| (*j == job).then_some(*f))
            .collect();
        flows.sort_unstable();
        let mut remaining = 0.0;
        for fid in flows {
            let state = self.net.remove_flow(fid).expect("aborted flow is active");
            remaining += state.remaining_bits;
            let (_, cookie) = self.flows.remove(&fid).expect("aborted flow has a job");
            self.release(cookie);
        }
        self.pending[job] = 0;
        remaining
    }

    /// Drops a finished or aborted flow's rule from the Flowserver.
    fn release(&mut self, cookie: Option<FlowCookie>) {
        if let Some(cookie) = cookie {
            self.cookie_to_flow.remove(&cookie);
            if let Some(fs) = self.flowserver.as_mut() {
                fs.flow_completed(cookie);
            }
        }
    }

    /// Marks a cause for `link` being down, severing it on the first
    /// cause: the data plane zeroes its capacity and the Flowserver gets
    /// the OpenFlow-style port-status notification.
    pub(crate) fn sever(&mut self, link: LinkId) {
        let c = self.down_causes.entry(link).or_insert(0);
        *c += 1;
        if *c == 1 {
            self.set_link_up(link, false);
        }
    }

    /// Removes one cause for `link` being down, healing it when no cause
    /// remains (a link under both a cable cut and a dead switch stays
    /// down until both recover).
    pub(crate) fn heal(&mut self, link: LinkId) {
        let Some(c) = self.down_causes.get_mut(&link) else {
            return;
        };
        *c = c.saturating_sub(1);
        if *c == 0 {
            self.down_causes.remove(&link);
            self.set_link_up(link, true);
        }
    }

    fn set_link_up(&mut self, link: LinkId, up: bool) {
        if up {
            self.down_links.remove(&link);
        } else {
            self.down_links.insert(link);
        }
        self.net.set_link_up(link, up);
        if let Some(fs) = self.flowserver.as_mut() {
            fs.set_link_state(link, up);
        }
    }

    /// Runs until every job has finished, handing each event to
    /// `on_event` after the fabric has been advanced to its instant.
    pub(crate) fn run(&mut self, mut on_event: impl FnMut(&mut Self, SimTime, E)) {
        while self.done < self.finish.len() {
            let next_event = self.queue.peek_time().unwrap_or(SimTime::MAX);
            let next_completion = self.net.next_completion_time();
            assert!(
                next_event < SimTime::MAX || next_completion < SimTime::MAX,
                "simulation stalled with {}/{} jobs done",
                self.done,
                self.finish.len()
            );
            if next_completion <= next_event {
                self.complete_until(next_completion);
                continue;
            }
            let (t, ev) = self.queue.pop().expect("an event is due");
            self.complete_until(t);
            on_event(self, t, ev);
        }
    }

    fn complete_until(&mut self, t: SimTime) {
        for c in self.net.advance_to(t) {
            let (job, cookie) = self
                .flows
                .remove(&c.flow)
                .expect("completed flow belongs to a job");
            self.release(cookie);
            self.subflow_finishes[job].push(c.at);
            self.pending[job] -= 1;
            if self.pending[job] == 0 {
                self.finish_now(job, c.at);
            }
        }
    }

    /// Every job's record, in job order. A job that finished without a
    /// completed transfer is local.
    pub(crate) fn records(self) -> Vec<JobRecord> {
        self.arrivals
            .into_iter()
            .zip(self.finish)
            .zip(self.subflow_finishes)
            .enumerate()
            .map(|(id, ((arrival, finish), subflow_finishes))| JobRecord {
                id,
                arrival,
                finish: finish.expect("every job completed"),
                local: subflow_finishes.is_empty(),
                subflows: subflow_finishes.len(),
                subflow_finishes,
            })
            .collect()
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

/// One subflow a selection assigned: the source replica, its path, its
/// bits and, when the Flowserver installed it, its rule cookie.
type Assignment = (HostId, Path, f64, Option<FlowCookie>);

/// A replay's strategy-side state: the selectors and stats observers,
/// the compiled fault schedule and the fault bookkeeping the [`Driver`]
/// does not own.
struct Replay<'a> {
    topo: &'a Arc<Topology>,
    matrix: &'a TrafficMatrix,
    strategy: Strategy,
    opts: &'a ReplayOptions,
    rng: &'a mut SimRng,
    hooks: &'a mut dyn JobHooks,
    sinbad: SinbadR,
    hedera: Option<Hedera>,
    monitor: LinkLoadMonitor,
    actions: Vec<(SimTime, FaultAction)>,
    report: FaultReport,
    down_hosts: BTreeSet<HostId>,
    flowserver_up: bool,
    pending_poll_losses: usize,
    retry_bits: Vec<f64>,
    retry_count: Vec<u32>,
}

impl Replay<'_> {
    fn poll(&mut self, d: &mut Driver<Event>, t: SimTime) {
        self.monitor.sample(&d.net, t);
        if let Some(fs) = d.flowserver.as_mut() {
            if !self.flowserver_up || self.pending_poll_losses > 0 {
                // The poll never reaches the Flowserver (outage or a
                // lost stats reply): no UPDATEBW arrives, so expired
                // update-freezes are cleared on the clock instead.
                let reason = if self.flowserver_up {
                    self.pending_poll_losses -= 1;
                    "stats-poll-loss"
                } else {
                    "flowserver-outage"
                };
                fs.note_poll_missed(t);
                let freezes_expired = fs.expire_stale_freezes(t);
                self.report.missed_polls.push(MissedPoll {
                    at: t,
                    reason: reason.into(),
                    freezes_expired,
                });
            } else {
                let counters = FabricCounters {
                    net: &d.net,
                    cookie_to_flow: &d.cookie_to_flow,
                };
                if d.down_links.is_empty() {
                    let _ = fs.poll_stats(&counters, t);
                } else {
                    // Stats requests to dead ports time out; their
                    // counters read as zero.
                    let dark = BlackoutCounters::new(&counters, &d.down_links);
                    let _ = fs.poll_stats(&dark, t);
                }
            }
        }
        if let Some(hedera) = &self.hedera {
            // One Hedera round: estimate natural demands from flow
            // endpoints, then globally first-fit reroute.
            let snapshot: Vec<(FlowId, Path)> = d
                .net
                .active_flows()
                .iter()
                .map(|f| (f.id, f.path.clone()))
                .collect();
            let endpoints: Vec<(HostId, HostId)> =
                snapshot.iter().map(|(_, p)| (p.src(), p.dst())).collect();
            let demands = estimate_demands(self.topo, &endpoints);
            let hflows: Vec<HederaFlow> = snapshot
                .iter()
                .zip(&demands)
                .map(|((id, path), demand)| HederaFlow {
                    id: id.0,
                    path: path.clone(),
                    demand_bps: *demand,
                })
                .collect();
            for (id, new_path) in hedera.reschedule(self.topo, &hflows) {
                // Hedera is fault-oblivious: drop any reroute that
                // would land a flow on a severed link.
                if new_path.links().iter().all(|l| !d.down_links.contains(l)) {
                    d.net.reroute_flow(FlowId(id), new_path);
                }
            }
        }
        d.schedule(
            t + SimTime::from_secs(self.opts.poll_interval_secs),
            Event::Poll,
        );
    }

    fn arrive(&mut self, d: &mut Driver<Event>, t: SimTime, id: usize, is_retry: bool) {
        if d.finish[id].is_some() {
            // A retry raced a completion; nothing left to do.
            return;
        }
        let matrix = self.matrix;
        let job = &matrix.jobs[id];
        let client = job.client;
        let replicas = matrix.replicas_of(job);
        let size = if is_retry {
            // Only the un-delivered remainder is re-fetched.
            self.retry_bits[id].max(1.0)
        } else {
            self.hooks.on_arrival(job);
            matrix.size_of(job)
        };

        if replicas.contains(&client) && !self.down_hosts.contains(&client) {
            // Served locally: the paper excludes this from network
            // analysis; completion is immediate. (A retry lands here
            // when the co-located dataserver restarted in the meantime
            // — the remainder is then a local read.)
            d.finish_now(id, t);
            return;
        }
        if replicas.contains(&client) {
            // The co-located replica's dataserver is down: the read
            // degrades to a remote transfer.
            self.degrade(t, id, "local-replica-down", u32::MAX);
        }

        let live: Vec<HostId> = replicas
            .iter()
            .copied()
            .filter(|r| !self.down_hosts.contains(r))
            .collect();
        let assignments = self.select(d, t, id, &live, size);
        if assignments.is_empty() {
            // No usable replica or path right now: back off and retry
            // once the fault window passes.
            self.retry_bits[id] = size;
            self.schedule_retry(d, t, id);
            return;
        }
        for (replica, path, bits, cookie) in assignments {
            self.hooks.on_assignment(job, replica, bits);
            d.admit(id, path, bits, cookie, t);
        }
    }

    fn degrade(&mut self, at: SimTime, job: usize, reason: &str, replica: u32) {
        self.report.degraded.push(DegradedDecision {
            at,
            job,
            reason: reason.into(),
            replica,
        });
    }

    /// Replica + path selection for one job, fault-aware: filters out
    /// crashed hosts and severed paths, falls back to nearest-replica
    /// when the Flowserver is unreachable, and returns an empty vector
    /// (retry later) when no usable assignment exists. On the
    /// fault-free path it reproduces the original selection logic
    /// exactly.
    fn select(
        &mut self,
        d: &mut Driver<Event>,
        t: SimTime,
        job_id: usize,
        live_replicas: &[HostId],
        size: f64,
    ) -> Vec<Assignment> {
        let topo = self.topo;
        let strategy = self.strategy;
        let client = self.matrix.jobs[job_id].client;
        if live_replicas.is_empty() {
            self.degrade(t, job_id, "replicas-down", u32::MAX);
            return Vec::new();
        }

        if strategy.uses_flowserver() && !self.flowserver_up {
            // Flowserver outage: degrade to the HDFS-style
            // nearest-replica policy with a severed-link-aware path —
            // reads never block on the control plane.
            let replica = nearest_replica(topo, client, live_replicas, self.rng);
            return match path_avoiding(topo, replica, client, job_id, &d.down_links) {
                Some(path) => {
                    self.degrade(t, job_id, "flowserver-outage-nearest-fallback", replica.0);
                    vec![(replica, path, size, None)]
                }
                None => {
                    self.degrade(t, job_id, "selection-unavailable", u32::MAX);
                    Vec::new()
                }
            };
        }

        let assignments: Vec<Assignment> = match strategy {
            Strategy::Mayflower
            | Strategy::MayflowerMultipath
            | Strategy::NearestMayflower
            | Strategy::SinbadRMayflower => {
                let picked;
                let (sources, purpose) = match strategy {
                    Strategy::NearestMayflower => {
                        picked = [nearest_replica(topo, client, live_replicas, self.rng)];
                        (&picked[..], FlowPurpose::Path)
                    }
                    Strategy::SinbadRMayflower => {
                        picked = [self.sinbad.select(
                            topo,
                            client,
                            live_replicas,
                            &self.monitor,
                            self.rng,
                        )];
                        (&picked[..], FlowPurpose::Path)
                    }
                    _ => (live_replicas, FlowPurpose::Read),
                };
                d.flowserver()
                    .select(&FlowRequest::new(client, sources, size, purpose), t)
                    .assignments()
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
                        nearest_replica(topo, client, live_replicas, self.rng)
                    } else {
                        self.sinbad
                            .select(topo, client, live_replicas, &self.monitor, self.rng)
                    };
                let key = FlowKey::new(replica, client, job_id as u64);
                let hashed = ecmp_path(topo, key).expect("distinct hosts always have a path");
                if hashed.links().iter().all(|l| !d.down_links.contains(l)) {
                    vec![(replica, hashed, size, None)]
                } else {
                    // ECMP is fault-oblivious; the rerouted pick models
                    // the fabric converging after the port-down
                    // notification.
                    match path_avoiding(topo, replica, client, job_id, &d.down_links) {
                        Some(path) => {
                            self.degrade(t, job_id, "ecmp-rerouted", replica.0);
                            vec![(replica, path, size, None)]
                        }
                        None => Vec::new(),
                    }
                }
            }
        };

        if assignments.is_empty() {
            // The Flowserver answered `Unavailable` (or every ECMP path
            // is severed): nothing installed, the client backs off.
            self.degrade(t, job_id, "selection-unavailable", u32::MAX);
        }
        assignments
    }

    /// Schedules the job's next retry with linear per-attempt backoff.
    fn schedule_retry(&mut self, d: &mut Driver<Event>, now: SimTime, job: usize) {
        self.retry_count[job] += 1;
        let attempt = self.retry_count[job];
        assert!(
            attempt <= 200,
            "job {job} exhausted its retry budget: the fault schedule leaves \
             no usable replica or path for it"
        );
        let fire = now + SimTime::from_secs(self.opts.retry_backoff_secs * f64::from(attempt));
        d.schedule(fire, Event::Retry(job));
        self.report.retries.push(JobRetry {
            at: fire,
            job,
            attempt,
        });
    }

    fn fault(&mut self, d: &mut Driver<Event>, t: SimTime, i: usize) {
        let (_, action) = &self.actions[i];
        let component = match action {
            FaultAction::LinkDown(l) | FaultAction::LinkUp(l) => l.0,
            FaultAction::DataserverCrash(h) | FaultAction::DataserverRestart(h) => h.0,
            FaultAction::SwitchDown(links) | FaultAction::SwitchUp(links) => {
                links.first().map_or(u32::MAX, |l| l.0)
            }
            _ => u32::MAX,
        };
        self.report.applied.push(AppliedFault {
            at: t,
            kind: action.label().into(),
            component,
        });

        let mut flows_hit: Vec<FlowId> = Vec::new();
        match action {
            FaultAction::LinkDown(l) => {
                for link in [*l, self.topo.reverse_link(*l)] {
                    d.sever(link);
                }
            }
            FaultAction::LinkUp(l) => {
                for link in [*l, self.topo.reverse_link(*l)] {
                    d.heal(link);
                }
            }
            FaultAction::SwitchDown(links) => links.iter().for_each(|l| d.sever(*l)),
            FaultAction::SwitchUp(links) => links.iter().for_each(|l| d.heal(*l)),
            FaultAction::DataserverCrash(h) => {
                self.down_hosts.insert(*h);
                // Transfers sourced at the crashed dataserver die with
                // it.
                for f in d.net.active_flows() {
                    if f.path.src() == *h {
                        flows_hit.push(f.id);
                    }
                }
            }
            FaultAction::DataserverRestart(h) => {
                self.down_hosts.remove(h);
            }
            FaultAction::FlowserverDown => self.flowserver_up = false,
            FaultAction::FlowserverUp => self.flowserver_up = true,
            FaultAction::StatsPollLoss => self.pending_poll_losses += 1,
        }
        // Severed links stall every flow crossing them; the owning
        // clients time out and retry.
        flows_hit.extend(d.net.stalled_flows());
        let jobs_hit: BTreeSet<usize> = flows_hit.into_iter().map(|f| d.flows[&f].0).collect();
        for job in jobs_hit {
            let remaining = d.abort(job);
            // Only the remainder is re-fetched.
            self.retry_bits[job] = remaining.max(1.0);
            self.report.aborts.push(FlowAbort {
                at: t,
                job,
                bits_refetched: remaining,
            });
            self.schedule_retry(d, t, job);
        }
    }
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
    assert!(
        opts.poll_interval_secs > 0.0,
        "poll interval must be positive"
    );
    let registry = mayflower_telemetry::Registry::new();
    let flowserver = strategy.uses_flowserver().then(|| {
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
    let mut monitor = LinkLoadMonitor::new(topo);
    monitor.attach_metrics(&registry.scope("sim").scope("monitor"));

    let arrivals = matrix.jobs.iter().map(|j| j.arrival).collect();
    let mut d = Driver::new(topo, flowserver, arrivals, Event::Arrival);
    d.schedule(SimTime::from_secs(opts.poll_interval_secs), Event::Poll);
    // With an empty schedule every fault structure stays empty and the
    // engine follows the exact fault-free paths.
    let actions = faults::compile(topo, &opts.faults);
    for (i, (at, _)) in actions.iter().enumerate() {
        d.schedule(*at, Event::Fault(i));
    }
    let total_jobs = matrix.jobs.len();
    let mut state = Replay {
        topo,
        matrix,
        strategy,
        opts,
        rng,
        hooks,
        sinbad: SinbadR::new(),
        hedera: strategy.uses_hedera().then(Hedera::new),
        monitor,
        actions,
        report: FaultReport::default(),
        down_hosts: BTreeSet::new(),
        flowserver_up: true,
        pending_poll_losses: 0,
        retry_bits: vec![0.0; total_jobs],
        retry_count: vec![0; total_jobs],
    };
    d.run(|d, t, ev| match ev {
        Event::Poll => state.poll(d, t),
        Event::Arrival(id) => state.arrive(d, t, id, false),
        Event::Retry(id) => state.arrive(d, t, id, true),
        Event::Fault(i) => state.fault(d, t, i),
    });
    let report = state.report;

    let usage: HashMap<LinkId, f64> = topo
        .links()
        .iter()
        .map(|l| (l.id(), d.net.link_bits(l.id())))
        .collect();
    let records = d.records();

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
