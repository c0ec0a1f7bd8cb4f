//! Reactive flow rescheduling vs co-design (§1 of the paper).
//!
//! Two cross-pod elephant flows hash onto the same core path; a
//! Hedera-style scheduler detects the collision from demand estimates
//! and reroutes one of them — doubling both flows' rates. Then the
//! counter-case: when the bottleneck is the *replica's own edge link*,
//! no amount of rerouting helps, and only replica choice (the
//! co-design) does.
//!
//! ```text
//! cargo run --example flow_rescheduling
//! ```

use std::sync::Arc;

use mayflower::baselines::hedera::{estimate_demands, Hedera, HederaFlow};
use mayflower::flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig, Selection};
use mayflower::net::{HostId, Topology, TreeParams};
use mayflower::simcore::SimTime;
use mayflower::simnet::FluidNet;

fn main() {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let mut net = FluidNet::new(topo.clone());

    println!("== Case 1: a core-path collision Hedera CAN fix ==\n");
    // Flow A: host 0 → host 16; flow B: host 4 → host 20, forced onto
    // a path sharing a core link with A (what an unlucky ECMP hash
    // does).
    let path_a = topo.shortest_paths(HostId(0), HostId(16))[0].clone();
    let path_b = topo
        .shortest_paths(HostId(4), HostId(20))
        .into_iter()
        .find(|p| p.shares_link_with(&path_a))
        .expect("an overlapping path exists");
    let a = net.add_flow(path_a.clone(), 4e9, SimTime::ZERO);
    let b = net.add_flow(path_b.clone(), 4e9, SimTime::ZERO);
    println!(
        "before rescheduling: flow A at {:.2} Gbps, flow B at {:.2} Gbps (shared core link)",
        net.flow(a).unwrap().rate / 1e9,
        net.flow(b).unwrap().rate / 1e9
    );

    // One Hedera round: estimate natural demands, globally first-fit.
    let endpoints = [(HostId(0), HostId(16)), (HostId(4), HostId(20))];
    let demands = estimate_demands(&topo, &endpoints);
    let flows = vec![
        HederaFlow {
            id: a.0,
            path: path_a,
            demand_bps: demands[0],
        },
        HederaFlow {
            id: b.0,
            path: path_b,
            demand_bps: demands[1],
        },
    ];
    let moves = Hedera::new().reschedule(&topo, &flows);
    println!("Hedera moves {} flow(s)", moves.len());
    for (id, new_path) in moves {
        net.reroute_flow(mayflower::simnet::FlowId(id), new_path);
    }
    println!(
        "after rescheduling:  flow A at {:.2} Gbps, flow B at {:.2} Gbps\n",
        net.flow(a).unwrap().rate / 1e9,
        net.flow(b).unwrap().rate / 1e9
    );

    println!("== Case 2: an edge hotspot Hedera CANNOT fix ==\n");
    // Five clients all read from the replica on host 8: its 1 Gbps
    // uplink is the bottleneck, and every path from host 8 crosses it.
    let mut net = FluidNet::new(topo.clone());
    let mut flows = Vec::new();
    for client in [9u32, 10, 12, 16, 40] {
        let p = topo.shortest_paths(HostId(8), HostId(client))[0].clone();
        flows.push(net.add_flow(p, 2e9, SimTime::ZERO));
    }
    let rate = net.flow(flows[0]).unwrap().rate / 1e9;
    println!("five readers share host 8's uplink: {rate:.2} Gbps each");
    println!("every alternative path still starts at that uplink — rerouting is futile.\n");

    // The co-design's answer: ask the Flowserver, which knows the
    // file's OTHER replicas and steers the next reader elsewhere.
    let mut fs = Flowserver::new(topo, FlowserverConfig::default());
    // Tell the Flowserver about the existing load.
    for client in [9u32, 10, 12, 16, 40] {
        fs.select(
            &FlowRequest::new(HostId(client), &[HostId(8)], 2e9, FlowPurpose::Path),
            SimTime::ZERO,
        );
    }
    let sel = fs.select(
        &FlowRequest::new(
            HostId(44),
            &[HostId(8), HostId(26), HostId(57)], // three replicas
            2e9,
            FlowPurpose::Read,
        ),
        SimTime::ZERO,
    );
    let Selection::Single(pick) = sel else {
        panic!("expected a single assignment")
    };
    println!(
        "the Flowserver sends the sixth reader to replica {} instead (estimated {:.2} Gbps),",
        pick.replica,
        pick.est_bw / 1e9
    );
    println!("which no path scheduler could do: \"they are unable to take advantage of");
    println!("redundancies in the distributed filesystem\" (paper, §1).");
    assert_ne!(pick.replica, HostId(8));
}
