//! Reading from multiple replicas in parallel (§4.3): on an
//! oversubscribed network a single cross-pod path caps at the core
//! tier, but two subflows through different cores can fill the
//! client's whole edge link. This example shows the Flowserver's
//! split decision and verifies the end-to-end speedup in the fluid
//! network simulator.
//!
//! ```text
//! cargo run --example multipath_read
//! ```

use std::sync::Arc;

use mayflower::flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig, Selection};
use mayflower::net::{HostId, Topology, TreeParams};
use mayflower::simcore::SimTime;
use mayflower::simnet::FluidNet;

const MB256: f64 = 256.0 * 8e6; // 256 MB in bits

fn main() {
    // 8:1 oversubscription: agg→core links are 0.5 Gbps while edge
    // links are 1 Gbps — exactly the regime where splitting pays.
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let client = HostId(0);
    let replicas = [HostId(20), HostId(36)]; // two different remote pods

    println!(
        "client {client}; replicas {} and {} in two other pods\n",
        replicas[0], replicas[1]
    );

    // --- Single-flow Mayflower -------------------------------------
    let mut single = Flowserver::new(topo.clone(), FlowserverConfig::default());
    let sel = single.select(
        &FlowRequest::new(client, &replicas, MB256, FlowPurpose::Read),
        SimTime::ZERO,
    );
    let Selection::Single(a) = &sel else {
        panic!("single-flow config must not split")
    };
    println!(
        "single flow:  replica {}, estimated share {:.2} Gbps",
        a.replica,
        a.est_bw / 1e9
    );
    let mut net = FluidNet::new(topo.clone());
    net.add_flow(a.path.clone(), a.size_bits, SimTime::ZERO);
    let done = net.advance_to(SimTime::from_secs(60.0));
    let t_single = done[0].at.as_secs();
    println!("              completes in {t_single:.2} s\n");

    // --- Multipath Mayflower ---------------------------------------
    let mut multi = Flowserver::new(
        topo.clone(),
        FlowserverConfig {
            multipath: true,
            ..FlowserverConfig::default()
        },
    );
    let sel = multi.select(
        &FlowRequest::new(client, &replicas, MB256, FlowPurpose::Read),
        SimTime::ZERO,
    );
    let Selection::Split(parts) = &sel else {
        panic!("multipath config should split this read")
    };
    println!("split read:");
    for p in parts {
        println!(
            "  subflow from {}: {:.0} MB at an estimated {:.2} Gbps",
            p.replica,
            p.size_bits / 8e6,
            p.est_bw / 1e9
        );
    }
    let mut net = FluidNet::new(topo.clone());
    for p in parts {
        net.add_flow(p.path.clone(), p.size_bits, SimTime::ZERO);
    }
    let done = net.advance_to(SimTime::from_secs(60.0));
    let t_multi = done.iter().map(|c| c.at.as_secs()).fold(0.0, f64::max);
    let skew = {
        let first = done.iter().map(|c| c.at.as_secs()).fold(f64::MAX, f64::min);
        t_multi - first
    };
    println!("              completes in {t_multi:.2} s (subflow finish skew {skew:.3} s)\n");

    println!(
        "speedup from reading both replicas: {:.2}x (paper §4.3: splits help\n\
         whenever the combined share beats the best single path; skew stays\n\
         well under a second for 256 MB blocks)",
        t_single / t_multi
    );
    assert!(t_multi < t_single, "split must win in this regime");
}
