//! Traced operation timelines: one scheduled (Mayflower) and one ECMP
//! arm each for a split read and a relay-pipeline append, exported as
//! causal span trees (DESIGN.md §17).
//!
//! Unlike the throughput experiments, this module cares about *where
//! the time goes inside one operation*: every arm runs a single
//! operation under a manual-clock [`Tracer`], drives span start/end
//! times from a deterministic fluid estimate, and exports the
//! byte-deterministic JSON / Chrome trace-event renderings plus the
//! critical path. The scheduled arms use the real
//! [`Flowserver`] (with its decision-record spans: candidates
//! evaluated, Eq. 2 costs, chosen path), so the trace *explains* the
//! path choice; the ECMP arms hash onto shortest paths with
//! [`mayflower_net::ecmp_path`], oblivious to the same background
//! load.
//!
//! Both arms of an operation face the same scenario — same client,
//! same replicas, same background flow endpoints — but each arm routes
//! the background its own way (a fabric is ECMP end to end or
//! scheduled end to end). Flow bandwidth in both arms comes from one
//! shared count-based fair-share model, so completion times are
//! comparable.

use std::collections::BTreeMap;
use std::sync::Arc;

use mayflower_flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig, Selection};
use mayflower_net::{ecmp_path, FlowKey, HostId, Path, Topology, TreeParams};
use mayflower_simcore::{SimRng, SimTime};
use mayflower_telemetry::trace::{self, TraceHandle, TraceTree, Tracer};
use serde::{Deserialize, Serialize};

/// Bits moved by the traced operation (a 256 MB chunk read / append,
/// the paper's file size).
const OP_BITS: f64 = 256.0 * 8e6;

/// Bits claimed by each background flow.
const BG_BITS: f64 = 64.0 * 8e6;

/// How many background flows congest the fabric.
const BG_FLOWS: usize = 6;

/// One traced arm: an operation under one scheduler.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineArm {
    /// `"read"` or `"append"`.
    pub op: String,
    /// `"mayflower"` or `"ecmp"`.
    pub scheduler: String,
    /// Operation completion time in microseconds (root span length).
    pub completion_us: u64,
    /// `component/name` of the dominant hop — the critical path's
    /// largest exclusive-time span below the root.
    pub dominant: String,
    /// Rendered critical path (indented text, annotations inline).
    pub critical_path: String,
    /// Byte-deterministic span-tree JSON ([`TraceTree::render_json`]).
    pub trace_json: String,
    /// Chrome trace-event export ([`TraceTree::render_chrome`]).
    pub trace_chrome: String,
    /// Flowserver decision-record lines (empty for ECMP arms): one
    /// `key=value` summary per recorded annotation, in span order.
    pub decision: Vec<String>,
}

/// The four arms: read and append, each scheduled and ECMP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimelineReport {
    /// Arms in fixed order: read/mayflower, read/ecmp,
    /// append/mayflower, append/ecmp.
    pub arms: Vec<TimelineArm>,
}

/// The shared scenario both arms of an operation face.
struct Scenario {
    topo: Arc<Topology>,
    client: HostId,
    replicas: Vec<HostId>,
    /// Background flow endpoints, data flowing `src → dst`.
    background: Vec<(HostId, HostId)>,
}

impl Scenario {
    /// Deterministically picks distinct, non-colocated endpoints.
    fn generate(seed: u64) -> Scenario {
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let hosts = topo.hosts();
        let mut rng = SimRng::seed_from(seed);
        let client = *rng.choose(&hosts);
        let mut replicas = Vec::new();
        while replicas.len() < 3 {
            let h = *rng.choose(&hosts);
            if h != client && !replicas.contains(&h) {
                replicas.push(h);
            }
        }
        let mut background = Vec::new();
        while background.len() < BG_FLOWS {
            let src = *rng.choose(&hosts);
            let dst = *rng.choose(&hosts);
            if src != dst {
                background.push((src, dst));
            }
        }
        Scenario {
            topo,
            client,
            replicas,
            background,
        }
    }
}

/// Count-based fair share: each flow gets, on every link it crosses,
/// `capacity / flows_on_link`; its bandwidth is the minimum across its
/// links. A coarse (demand-oblivious) cut of max-min fairness, but
/// identical for both arms, which is what makes their completion
/// times comparable.
fn fair_bandwidths(topo: &Topology, flows: &[Path]) -> Vec<f64> {
    let mut load: BTreeMap<usize, f64> = BTreeMap::new();
    for p in flows {
        for l in p.links() {
            *load.entry(l.index()).or_insert(0.0) += 1.0;
        }
    }
    flows
        .iter()
        .map(|p| {
            p.links()
                .iter()
                .map(|l| topo.link(*l).capacity() / load[&l.index()])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Microseconds to move `bits` at `bw` bits/sec, rounded up so a
/// nonzero transfer never renders as a zero-length span.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn transfer_us(bits: f64, bw: f64) -> u64 {
    if bw <= 0.0 || !bw.is_finite() {
        return 1;
    }
    ((bits / bw) * 1e6).ceil().max(1.0) as u64
}

/// One planned child span of the operation: opened at t=0, closed at
/// `end_us` (manual clock), annotations applied up front.
struct PlannedSpan {
    span: Option<trace::ActiveSpan>,
    end_us: u64,
}

/// Closes planned spans in ascending end-time order, advancing the
/// manual clock before each drop, and returns the completion time.
fn close_in_order(tracer: &Arc<Tracer>, mut planned: Vec<PlannedSpan>) -> u64 {
    planned.sort_by_key(|p| (p.end_us, p.span.as_ref().map(|s| s.ctx().1)));
    let mut completion = 0;
    for p in planned {
        tracer.set_time_us(p.end_us);
        completion = completion.max(p.end_us);
        drop(p.span);
    }
    completion
}

/// Renders a path's link indices as `a->b->c`.
fn render_links(path: &Path) -> String {
    path.links()
        .iter()
        .map(|l| l.index().to_string())
        .collect::<Vec<_>>()
        .join("->")
}

/// Installs the background flows through the Flowserver (the scheduled
/// fabric routes everything) and returns their chosen paths.
fn scheduled_background(fs: &mut Flowserver, background: &[(HostId, HostId)]) -> Vec<Path> {
    background
        .iter()
        .filter_map(|&(src, dst)| {
            match fs.select(
                &FlowRequest::new(dst, &[src], BG_BITS, FlowPurpose::Path),
                SimTime::ZERO,
            ) {
                Selection::Single(a) => Some(a.path),
                _ => None,
            }
        })
        .collect()
}

/// Pins the background flows with ECMP hashing.
fn ecmp_background(topo: &Topology, background: &[(HostId, HostId)]) -> Vec<Path> {
    background
        .iter()
        .enumerate()
        .filter_map(|(i, &(src, dst))| ecmp_path(topo, FlowKey::new(src, dst, 1000 + i as u64)))
        .collect()
}

/// Extracts Flowserver decision-record lines from a finished tree.
fn decision_lines(tree: &TraceTree) -> Vec<String> {
    let mut out = Vec::new();
    for e in tree.events() {
        if e.component != "flowserver" {
            continue;
        }
        for (k, v) in &e.annotations {
            out.push(format!("{}: {k}={v}", e.name));
        }
    }
    out
}

/// Builds one finished arm from a capture.
fn finish_arm(op: &str, scheduler: &str, completion_us: u64, tree: &TraceTree) -> TimelineArm {
    tree.validate().expect("timeline trace is well-formed");
    let root = tree.roots()[0];
    let trace_id = tree.events()[root].trace;
    let hops = tree.critical_path(trace_id);
    // Dominant hop: below the root, the critical-path span with the
    // most exclusive time (the piece/relay where the operation's
    // clock actually went).
    let dominant = hops
        .iter()
        .skip(1)
        .max_by_key(|h| h.self_us)
        .or_else(|| hops.first())
        .map(|h| {
            let e = &tree.events()[h.index];
            format!("{}/{}", e.component, e.name)
        })
        .unwrap_or_default();
    TimelineArm {
        op: op.to_string(),
        scheduler: scheduler.to_string(),
        completion_us,
        dominant,
        critical_path: tree.render_critical_path(trace_id),
        trace_json: tree.render_json(),
        trace_chrome: tree.render_chrome(),
        decision: decision_lines(tree),
    }
}

/// Runs the scheduled read: `SELECTREPLICAANDPATH` with multipath on,
/// one `piece` span per subflow.
fn scheduled_read(tracer: &Arc<Tracer>, sc: &Scenario) -> TimelineArm {
    let mut fs = Flowserver::new(
        sc.topo.clone(),
        FlowserverConfig {
            multipath: true,
            ..FlowserverConfig::default()
        },
    );
    fs.attach_tracer(tracer.handle("flowserver"));
    let bg = scheduled_background(&mut fs, &sc.background);

    let client: TraceHandle = tracer.handle("client");
    let datapath: TraceHandle = tracer.handle("datapath");
    tracer.begin_capture();
    tracer.set_time_us(0);
    let mut root = client.root("read");
    trace::annotate(&mut root, "file", "timeline.dat");
    trace::annotate(&mut root, "scheduler", "mayflower");
    let completion = {
        let _g = root.as_ref().map(trace::ActiveSpan::enter);
        let sel = fs.select(
            &FlowRequest::new(sc.client, &sc.replicas, OP_BITS, FlowPurpose::Read),
            SimTime::ZERO,
        );
        let assignments = sel.assignments();
        assert!(
            !assignments.is_empty(),
            "scheduled read must select at least one subflow"
        );
        let mut flows = bg.clone();
        flows.extend(assignments.iter().map(|a| a.path.clone()));
        let bws = fair_bandwidths(&sc.topo, &flows);
        let planned = assignments
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mut span = datapath.child("piece");
                trace::annotate(&mut span, "index", i);
                trace::annotate(&mut span, "replica", a.replica.0);
                trace::annotate(&mut span, "links", render_links(&a.path));
                trace::annotate(&mut span, "est_bw", format!("{:.3e}", a.est_bw));
                trace::annotate(&mut span, "bits", format!("{:.3e}", a.size_bits));
                PlannedSpan {
                    span,
                    end_us: transfer_us(a.size_bits, bws[bg.len() + i]),
                }
            })
            .collect();
        close_in_order(tracer, planned)
    };
    drop(root);
    let tree = TraceTree::build(tracer.take_capture());
    finish_arm("read", "mayflower", completion, &tree)
}

/// Runs the ECMP read: whole chunk from the nearest replica over the
/// ECMP-hashed shortest path.
fn ecmp_read(tracer: &Arc<Tracer>, sc: &Scenario) -> TimelineArm {
    let bg = ecmp_background(&sc.topo, &sc.background);
    let replica = *sc
        .replicas
        .iter()
        .min_by_key(|r| (sc.topo.distance(sc.client, **r), r.0))
        .expect("scenario has replicas");

    let client: TraceHandle = tracer.handle("client");
    let datapath: TraceHandle = tracer.handle("datapath");
    tracer.begin_capture();
    tracer.set_time_us(0);
    let mut root = client.root("read");
    trace::annotate(&mut root, "file", "timeline.dat");
    trace::annotate(&mut root, "scheduler", "ecmp");
    let completion = {
        let _g = root.as_ref().map(trace::ActiveSpan::enter);
        let path = ecmp_path(&sc.topo, FlowKey::new(replica, sc.client, 1))
            .expect("distinct hosts have a path");
        let mut flows = bg.clone();
        flows.push(path.clone());
        let bws = fair_bandwidths(&sc.topo, &flows);
        let mut span = datapath.child("piece");
        trace::annotate(&mut span, "index", "0");
        trace::annotate(&mut span, "replica", replica.0);
        trace::annotate(&mut span, "links", render_links(&path));
        trace::annotate(&mut span, "bits", format!("{OP_BITS:.3e}"));
        let planned = vec![PlannedSpan {
            span,
            end_us: transfer_us(OP_BITS, bws[bg.len()]),
        }];
        close_in_order(tracer, planned)
    };
    drop(root);
    let tree = TraceTree::build(tracer.take_capture());
    finish_arm("read", "ecmp", completion, &tree)
}

/// The append's relay chain: writer → r1 → r2 → r3, cut-through, so
/// hops run concurrently and the append completes at the slowest hop.
fn relay_hops(sc: &Scenario) -> Vec<(HostId, HostId)> {
    let mut chain = vec![sc.client];
    chain.extend(&sc.replicas);
    chain.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Runs one append arm; `pick_path` chooses each hop's path.
fn append_arm(
    tracer: &Arc<Tracer>,
    sc: &Scenario,
    scheduler: &str,
    bg: &[Path],
    mut pick_path: impl FnMut(usize, HostId, HostId) -> Path,
) -> TimelineArm {
    let hops = relay_hops(sc);
    let client: TraceHandle = tracer.handle("client");
    let datapath: TraceHandle = tracer.handle("datapath");
    tracer.begin_capture();
    tracer.set_time_us(0);
    let mut root = client.root("append");
    trace::annotate(&mut root, "file", "timeline.dat");
    trace::annotate(&mut root, "scheduler", scheduler);
    trace::annotate(&mut root, "bits", format!("{OP_BITS:.3e}"));
    let completion = {
        let _g = root.as_ref().map(trace::ActiveSpan::enter);
        let paths: Vec<Path> = hops
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| pick_path(i, src, dst))
            .collect();
        let mut flows = bg.to_vec();
        flows.extend(paths.iter().cloned());
        let bws = fair_bandwidths(&sc.topo, &flows);
        let planned = paths
            .iter()
            .enumerate()
            .map(|(i, path)| {
                let mut span = datapath.child("relay");
                trace::annotate(&mut span, "stage", i);
                trace::annotate(&mut span, "src", hops[i].0 .0);
                trace::annotate(&mut span, "dst", hops[i].1 .0);
                trace::annotate(&mut span, "links", render_links(path));
                PlannedSpan {
                    span,
                    end_us: transfer_us(OP_BITS, bws[bg.len() + i]),
                }
            })
            .collect();
        close_in_order(tracer, planned)
    };
    drop(root);
    let tree = TraceTree::build(tracer.take_capture());
    finish_arm("append", scheduler, completion, &tree)
}

/// The full traced timeline comparison.
///
/// # Panics
///
/// Panics if a selection fails on the healthy testbed topology (it
/// cannot: all links are up).
#[must_use]
pub fn timeline(seed: u64) -> TimelineReport {
    let sc = Scenario::generate(seed);
    let tracer = Tracer::new_manual();
    tracer.set_enabled(true);

    let read_sched = scheduled_read(&tracer, &sc);
    let read_ecmp = ecmp_read(&tracer, &sc);

    // Scheduled append: a fresh Flowserver per arm, loaded with the
    // same background endpoints, schedules each relay hop.
    let mut fs = Flowserver::new(sc.topo.clone(), FlowserverConfig::default());
    fs.attach_tracer(tracer.handle("flowserver"));
    let sched_bg = scheduled_background(&mut fs, &sc.background);
    let append_sched = append_arm(&tracer, &sc, "mayflower", &sched_bg, |_, src, dst| match fs
        .select(
            &FlowRequest::new(dst, &[src], OP_BITS, FlowPurpose::Path),
            SimTime::ZERO,
        ) {
        Selection::Single(a) => a.path,
        other => panic!("hop selection on a healthy fabric returned {other:?}"),
    });

    let ecmp_bg = ecmp_background(&sc.topo, &sc.background);
    let append_ecmp = append_arm(&tracer, &sc, "ecmp", &ecmp_bg, |i, src, dst| {
        ecmp_path(&sc.topo, FlowKey::new(src, dst, 2 + i as u64))
            .expect("distinct hosts have a path")
    });

    TimelineReport {
        arms: vec![read_sched, read_ecmp, append_sched, append_ecmp],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_is_byte_deterministic() {
        let a = timeline(42);
        let b = timeline(42);
        assert_eq!(a.arms.len(), 4);
        for (x, y) in a.arms.iter().zip(&b.arms) {
            assert_eq!(x.trace_json, y.trace_json);
            assert_eq!(x.trace_chrome, y.trace_chrome);
            assert_eq!(x.critical_path, y.critical_path);
            assert_eq!(x.completion_us, y.completion_us);
        }
    }

    #[test]
    fn critical_paths_name_dominant_hops() {
        let r = timeline(7);
        for arm in &r.arms {
            let expect = match arm.op.as_str() {
                "read" => "datapath/piece",
                _ => "datapath/relay",
            };
            assert_eq!(arm.dominant, expect, "arm {}/{}", arm.op, arm.scheduler);
            assert!(arm.critical_path.contains(expect));
            assert!(arm.completion_us > 0);
        }
    }

    #[test]
    fn scheduled_arms_carry_decision_records() {
        let r = timeline(7);
        for arm in &r.arms {
            if arm.scheduler == "mayflower" {
                assert!(
                    arm.decision.iter().any(|l| l.contains("evaluated=")),
                    "{}/{} should record evaluated candidates",
                    arm.op,
                    arm.scheduler
                );
                assert!(arm.decision.iter().any(|l| l.contains("cand0=")));
            } else {
                assert!(arm.decision.is_empty());
            }
        }
    }

    #[test]
    fn arms_face_the_same_scenario() {
        // Different seeds give different scenarios; the same seed must
        // pin client/replicas across arms (the reads disagree on
        // routing, not on endpoints).
        let r = timeline(3);
        let read = &r.arms[0];
        let append = &r.arms[2];
        assert_eq!(read.scheduler, "mayflower");
        assert_eq!(append.op, "append");
    }
}
