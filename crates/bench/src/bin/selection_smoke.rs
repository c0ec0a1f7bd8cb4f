//! Release-mode selection-latency smoke: measures a read through
//! `Flowserver::select` on the 64-host paper testbed at 10/100/1000
//! tracked flows, alongside the reconstructed naive evaluation loop,
//! and writes `BENCH_selection.json` to the repo root.
//!
//! This is the CI perf gate companion to the Criterion benches in
//! `benches/selection.rs`: criterion is a dev-dependency, so this
//! binary hand-rolls its timing with `std::time::Instant` and emits a
//! small JSON baseline the driver can diff across PRs.

use std::sync::Arc;
use std::time::Instant;

use mayflower_flowserver::cost::flow_cost_opts;
use mayflower_flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig};
use mayflower_net::{HostId, Topology, TreeParams};
use mayflower_simcore::{SimRng, SimTime};

const MB256: f64 = 256.0 * 8e6;

/// A Flowserver pre-loaded with `n` tracked flows (same seed and
/// traffic pattern as the Criterion benches).
fn loaded_flowserver(topo: &Arc<Topology>, n: usize) -> Flowserver {
    let mut fs = Flowserver::new(topo.clone(), FlowserverConfig::default());
    let mut rng = SimRng::seed_from(7);
    let hosts = topo.hosts();
    let mut added = 0;
    while added < n {
        let a = *rng.choose(&hosts);
        let b = *rng.choose(&hosts);
        if a == b {
            continue;
        }
        fs.select(
            &FlowRequest::new(b, &[a], MB256, FlowPurpose::Path),
            SimTime::ZERO,
        );
        added += 1;
    }
    fs
}

/// The pre-fast-path evaluation loop (every shortest path of every
/// replica, a fresh allocating `flow_cost_opts` per candidate).
fn naive_select(
    fs: &Flowserver,
    topo: &Topology,
    client: HostId,
    replicas: &[HostId],
    size_bits: f64,
) -> Option<(HostId, f64)> {
    let mut best: Option<(HostId, f64)> = None;
    for &replica in replicas {
        if replica == client {
            continue;
        }
        for path in topo.shortest_paths(replica, client) {
            let pc = flow_cost_opts(
                topo,
                fs.tracker(),
                path.links(),
                size_bits,
                SimTime::ZERO,
                true,
            );
            if best.as_ref().is_none_or(|(_, c)| pc.cost < *c) {
                best = Some((replica, pc.cost));
            }
        }
    }
    best
}

/// Median of `iters` timed runs of `f`, in nanoseconds per call.
fn median_ns<F: FnMut() -> u64>(iters: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    let mut sink = 0u64;
    for _ in 0..iters {
        let start = Instant::now();
        sink = sink.wrapping_add(f());
        samples.push(start.elapsed().as_nanos() as f64);
    }
    std::hint::black_box(sink);
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let replicas = [HostId(1), HostId(5), HostId(20)];
    let loads = [10usize, 100, 1000];
    let iters = 300;

    let mut entries = Vec::new();
    for &load in &loads {
        let mut fs = loaded_flowserver(&topo, load);
        // Warm the path cache and share memo before timing.
        for _ in 0..8 {
            let sel = fs.select(
                &FlowRequest::new(HostId(0), &replicas, MB256, FlowPurpose::Read),
                SimTime::ZERO,
            );
            for a in sel.assignments() {
                fs.flow_completed(a.cookie);
            }
        }
        let fast_ns = median_ns(iters, || {
            let sel = fs.select(
                &FlowRequest::new(HostId(0), &replicas, MB256, FlowPurpose::Read),
                SimTime::ZERO,
            );
            let n = sel.assignments().len() as u64;
            for a in sel.assignments() {
                fs.flow_completed(a.cookie);
            }
            n
        });
        let naive_fs = loaded_flowserver(&topo, load);
        let naive_ns = median_ns(iters, || {
            naive_select(&naive_fs, &topo, HostId(0), &replicas, MB256)
                .map_or(0, |(h, _)| u64::from(h.0))
        });
        let speedup = naive_ns / fast_ns;
        println!(
            "load={load:5}  fast={:>10.0} ns  naive={:>12.0} ns  speedup={speedup:.1}x",
            fast_ns, naive_ns
        );
        entries.push(format!(
            concat!(
                "    {{\n",
                "      \"tracked_flows\": {},\n",
                "      \"select_replica_path_ns\": {:.0},\n",
                "      \"naive_eval_ns\": {:.0},\n",
                "      \"speedup\": {:.2}\n",
                "    }}"
            ),
            load, fast_ns, naive_ns, speedup
        ));
    }

    let json = format!
        (
        "{{\n  \"bench\": \"selection_fast_path\",\n  \"topology\": \"paper_testbed_64_hosts\",\n  \"flow_size_bits\": {MB256:.0},\n  \"iters_per_point\": {iters},\n  \"unit\": \"ns_median\",\n  \"points\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_selection.json");
    std::fs::write(out, &json).expect("write BENCH_selection.json");
    println!("wrote {out}");
}
