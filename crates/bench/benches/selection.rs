//! Replica/path selection micro-benchmarks: the per-request control
//! plane cost of each scheme. The paper's Flowserver must answer one
//! RPC per read; these benches quantify that decision's CPU cost as a
//! function of network load.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use mayflower_baselines::{nearest_replica, SinbadR, StaticLoads};
use mayflower_flowserver::cost::flow_cost_opts;
use mayflower_flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig};
use mayflower_net::{ecmp_path, FlowKey, HostId, Topology, TreeParams};
use mayflower_simcore::{SimRng, SimTime};

const MB256: f64 = 256.0 * 8e6;

fn topo() -> Arc<Topology> {
    Arc::new(Topology::three_tier(&TreeParams::paper_testbed()))
}

/// A Flowserver pre-loaded with `n` tracked background flows.
fn loaded_flowserver(topo: &Arc<Topology>, n: usize, multipath: bool) -> Flowserver {
    let mut fs = Flowserver::new(
        topo.clone(),
        FlowserverConfig {
            multipath,
            ..FlowserverConfig::default()
        },
    );
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

fn bench_flowserver_selection(c: &mut Criterion) {
    let topo = topo();
    let mut group = c.benchmark_group("flowserver_select_replica_path");
    for load in [0usize, 10, 100, 1000] {
        group.bench_with_input(BenchmarkId::from_parameter(load), &load, |b, &load| {
            let mut fs = loaded_flowserver(&topo, load, false);
            let replicas = [HostId(1), HostId(5), HostId(20)];
            b.iter(|| {
                let sel = fs.select(
                    &FlowRequest::new(
                        black_box(HostId(0)),
                        black_box(&replicas),
                        MB256,
                        FlowPurpose::Read,
                    ),
                    SimTime::ZERO,
                );
                // Keep the tracker size constant.
                for a in sel.assignments() {
                    fs.flow_completed(a.cookie);
                }
                sel.assignments().len()
            });
        });
    }
    group.finish();
}

/// The pre-fast-path evaluation loop, reconstructed from the public
/// naive entry points: every shortest path of every replica, a fresh
/// `flow_cost_opts` per candidate (which scans every tracked flow per
/// link and allocates throughout). This is what `Flowserver::select`
/// cost before the cached/incremental/pruned fast path landed; the
/// `selection_eval` group quantifies the speedup side by side.
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

fn bench_naive_vs_fast(c: &mut Criterion) {
    let topo = topo();
    let mut group = c.benchmark_group("selection_eval");
    let replicas = [HostId(1), HostId(5), HostId(20)];
    for load in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("naive", load), &load, |b, &load| {
            let fs = loaded_flowserver(&topo, load, false);
            b.iter(|| {
                naive_select(
                    &fs,
                    &topo,
                    black_box(HostId(0)),
                    black_box(&replicas),
                    MB256,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("fast", load), &load, |b, &load| {
            let mut fs = loaded_flowserver(&topo, load, false);
            b.iter(|| {
                let sel = fs.select(
                    &FlowRequest::new(
                        black_box(HostId(0)),
                        black_box(&replicas),
                        MB256,
                        FlowPurpose::Read,
                    ),
                    SimTime::ZERO,
                );
                for a in sel.assignments() {
                    fs.flow_completed(a.cookie);
                }
                sel.assignments().len()
            });
        });
    }
    group.finish();
}

fn bench_multipath_selection(c: &mut Criterion) {
    let topo = topo();
    let mut group = c.benchmark_group("flowserver_multipath");
    for load in [0usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(load), &load, |b, &load| {
            let mut fs = loaded_flowserver(&topo, load, true);
            let replicas = [HostId(20), HostId(36), HostId(52)];
            b.iter(|| {
                let sel = fs.select(
                    &FlowRequest::new(
                        black_box(HostId(0)),
                        black_box(&replicas),
                        MB256,
                        FlowPurpose::Read,
                    ),
                    SimTime::ZERO,
                );
                for a in sel.assignments() {
                    fs.flow_completed(a.cookie);
                }
                sel.assignments().len()
            });
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let topo = topo();
    let replicas = [HostId(1), HostId(5), HostId(20)];

    c.bench_function("nearest_replica", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| nearest_replica(&topo, black_box(HostId(0)), black_box(&replicas), &mut rng));
    });

    c.bench_function("sinbad_r_select", |b| {
        let mut rng = SimRng::seed_from(2);
        let loads = StaticLoads::default();
        let sinbad = SinbadR::new();
        b.iter(|| {
            sinbad.select(
                &topo,
                black_box(HostId(0)),
                black_box(&replicas),
                &loads,
                &mut rng,
            )
        });
    });

    c.bench_function("ecmp_path", |b| {
        let mut disc = 0u64;
        b.iter(|| {
            disc += 1;
            ecmp_path(&topo, FlowKey::new(HostId(20), HostId(0), black_box(disc)))
        });
    });
}

fn bench_shortest_paths(c: &mut Criterion) {
    let topo = topo();
    let mut group = c.benchmark_group("shortest_paths");
    for (label, a, b_) in [
        ("same_rack", 0u32, 1u32),
        ("same_pod", 0, 5),
        ("cross_pod", 0, 40),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| topo.shortest_paths(black_box(HostId(a)), black_box(HostId(b_))));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flowserver_selection,
    bench_naive_vs_fast,
    bench_multipath_selection,
    bench_baselines,
    bench_shortest_paths
);
criterion_main!(benches);
