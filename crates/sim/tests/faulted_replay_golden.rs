//! Golden fixed-seed faulted replay.
//!
//! The committed `results/` figures never inject faults, so they do not
//! pin the engine's fault path: link severing and healing, dataserver
//! crashes, abort-and-retry, Flowserver outages and lost stats polls.
//! This test replays one fault schedule that exercises every
//! [`FaultAction`] kind under five strategies and compares the
//! serialized job records, fault report and Prometheus snapshot with
//! `tests/golden/faulted_replay.txt` byte for byte.
//!
//! On a mismatch the fresh output is written next to the test binary's
//! scratch directory (the path is in the failure message); copy it over
//! the golden file only when the behaviour change is intended.

use std::fmt::Write as _;
use std::sync::Arc;

use mayflower_net::{Topology, TreeParams};
use mayflower_sim::engine::NoHooks;
use mayflower_sim::{replay, FaultAction, ReplayOptions, ReplayRun, Strategy};
use mayflower_simcore::{FaultEvent, FaultSchedule, SimRng, SimTime};
use mayflower_workload::{LocalityDist, TrafficMatrix, WorkloadParams};

const GOLDEN: &str = include_str!("golden/faulted_replay.txt");

/// One schedule with every fault kind, timed to land while reads are
/// in flight.
fn schedule() -> FaultSchedule {
    let mut s = FaultSchedule::new();
    let at = SimTime::from_secs;
    s.push(at(0.5), FaultEvent::StatsPollLoss)
        .push(at(2.0), FaultEvent::LinkDown(200))
        .push(at(3.0), FaultEvent::SwitchDown(11))
        .push(at(4.0), FaultEvent::DataserverCrash(7))
        .push(at(5.0), FaultEvent::FlowserverDown)
        .push(at(6.5), FaultEvent::LinkUp(200))
        .push(at(7.0), FaultEvent::SwitchUp(11))
        .push(at(8.0), FaultEvent::FlowserverUp)
        .push(at(9.0), FaultEvent::DataserverRestart(7))
        .push(at(10.2), FaultEvent::StatsPollLoss);
    s
}

fn render(strategy: Strategy, run: &ReplayRun) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {strategy}");
    let _ = writeln!(out, "-- jobs");
    let _ = writeln!(out, "{}", serde_json::to_string_pretty(&run.jobs).unwrap());
    let _ = writeln!(out, "-- fault_report");
    let _ = writeln!(
        out,
        "{}",
        serde_json::to_string_pretty(&run.faults).unwrap()
    );
    let _ = writeln!(out, "-- prometheus");
    out.push_str(&run.registry.snapshot().render_prometheus());
    out
}

#[test]
fn faulted_replay_matches_the_golden_file() {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let params = WorkloadParams {
        job_count: 80,
        file_count: 40,
        locality: LocalityDist::pod_heavy(),
        ..WorkloadParams::default()
    };
    let mut rng = SimRng::seed_from(0x00FA_0175);
    let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
    let opts = ReplayOptions {
        faults: schedule(),
        ..ReplayOptions::default()
    };

    let mut kinds = std::collections::BTreeSet::new();
    let (mut aborts, mut retries, mut degraded, mut missed) = (0, 0, 0, 0);
    let mut actual = String::new();
    for strategy in [
        Strategy::Mayflower,
        Strategy::MayflowerMultipath,
        Strategy::SinbadRMayflower,
        Strategy::NearestHedera,
        Strategy::NearestEcmp,
    ] {
        let mut run_rng = rng.clone();
        let run = replay(&topo, &matrix, strategy, &opts, &mut run_rng, &mut NoHooks);
        assert_eq!(run.jobs.len(), params.job_count, "{strategy}");
        kinds.extend(run.faults.applied.iter().map(|a| a.kind.clone()));
        aborts += run.faults.aborts.len();
        retries += run.faults.retries.len();
        degraded += run.faults.degraded.len();
        missed += run.faults.missed_polls.len();
        actual.push_str(&render(strategy, &run));
    }

    // The schedule must keep reaching the fault path it is meant to pin.
    let every_kind = [
        FaultAction::LinkDown(mayflower_net::LinkId(0)),
        FaultAction::LinkUp(mayflower_net::LinkId(0)),
        FaultAction::SwitchDown(Vec::new()),
        FaultAction::SwitchUp(Vec::new()),
        FaultAction::DataserverCrash(mayflower_net::HostId(0)),
        FaultAction::DataserverRestart(mayflower_net::HostId(0)),
        FaultAction::FlowserverDown,
        FaultAction::FlowserverUp,
        FaultAction::StatsPollLoss,
    ];
    for kind in every_kind {
        assert!(
            kinds.contains(kind.label()),
            "{} never applied",
            kind.label()
        );
    }
    assert!(aborts > 0 && retries > 0, "no abort-and-retry exercised");
    assert!(
        degraded > 0 && missed > 0,
        "no degraded decision or missed poll"
    );

    if actual != GOLDEN {
        let fresh = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("faulted_replay.txt");
        std::fs::write(&fresh, &actual).expect("write fresh output");
        let line = actual
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, g)| a != g)
            .map_or(actual.lines().count().min(GOLDEN.lines().count()), |i| i);
        panic!(
            "faulted replay drifted from tests/golden/faulted_replay.txt \
             (first difference at line {}); fresh output in {}",
            line + 1,
            fresh.display()
        );
    }
}
