//! The per-layer metrics every traced run prints, whatever its
//! workload: direct calls into each layer's public functions with
//! fixed shapes, on a small cluster of their own, timed one call at a
//! time and summarized as medians.
//!
//! The workload's own seams (the calls its operations make, broken
//! down per operation) are printed next to them as `detail:` lines;
//! they exist only where the workload crosses the layer, so they cannot
//! be metrics every workload prints.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mayflower_ec::Codec;
use mayflower_fs::remote::{
    DataserverRepairService, NameserverService, RemoteNameserver, RemoteRepairSource,
};
use mayflower_fs::{
    Cluster, ClusterConfig, Consistency, FileId, FileMeta, FsError, NameserverConfig,
    NearestSelector, RepairSource, ReplicaSelector,
};
use mayflower_kvstore::{KvStore, Options as KvOptions};
use mayflower_net::{Topology, TreeParams};
use mayflower_rpc::{Response, RpcError, TcpServer, TcpTransport};
use mayflower_simcore::SimRng;

use crate::common::{content, median, Report, Seams, WorkDir};
use crate::sim;

/// Rounds of small direct calls (one of each per round).
const ROUNDS: usize = 1500;
/// Metadata-only files the nameserver calls address.
const FILES: usize = 256;
const IO: usize = 4096;
/// Rounds of 1 MiB `Coded{4,2}` encode and single-shard rebuild.
const EC_ROUNDS: usize = 24;
/// 1 MiB re-replications, from a remote source and from a local one.
const REPAIRS: usize = 4;
const REPAIR_BYTES: u64 = 1 << 20;
/// The flowserver probe: one short `sim-paper64` replay.
const SIM_JOBS: usize = 5000;
const SIM_MATRICES: usize = 2;

/// Runs every layer probe and adds its metrics to `report`.
pub fn probe(seed: u64, work: &WorkDir, report: &mut Report) {
    let start = Instant::now();
    if let Err(e) = probe_fs(seed, &work.path().join("layers"), report) {
        report.mismatch(format!("layer probe failed: {e}"));
    }
    probe_ec(seed, report);
    sim::probe_flowserver(seed, SIM_JOBS, SIM_MATRICES, report);
    report.note(format!(
        "layer probes: {:.2}s",
        start.elapsed().as_secs_f64()
    ));
}

/// Dataserver, nameserver, kvstore, selector and rpc calls.
fn probe_fs(seed: u64, dir: &Path, report: &mut Report) -> Result<(), FsError> {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let cluster = Cluster::create(
        dir,
        topo.clone(),
        ClusterConfig {
            nameserver: NameserverConfig {
                seed,
                ..NameserverConfig::default()
            },
            consistency: Consistency::Sequential,
        },
    )?;
    let hosts = topo.hosts();
    let mut rng = SimRng::seed_from(seed ^ 0x1a7e);
    let client_host = hosts[rng.index(hosts.len())];
    let ns = cluster.nameserver().clone();
    let names: Vec<String> = (0..FILES).map(|i| format!("meta/{i:04}")).collect();
    for name in &names {
        ns.create(name)?;
    }
    // `probe/0` takes the direct dataserver calls; `repair/0` is the
    // file re-replicated.
    let mut client = cluster.client(client_host);
    let mut files = Vec::new();
    for (i, name) in ["probe/0", "repair/0"].into_iter().enumerate() {
        client.create(name)?;
        client.append(name, &content(seed, i as u64, 0, REPAIR_BYTES as usize))?;
        files.push(ns.lookup(name)?);
    }
    let repair = files.pop().expect("two files");
    let probe = files.pop().expect("two files");

    let ns_server = TcpServer::bind("127.0.0.1:0", Arc::new(NameserverService::new(ns.clone())))?;
    let remote = RemoteNameserver::new(TcpTransport::connect(ns_server.local_addr())?);
    let mut kv =
        KvStore::open(&dir.join("kvprobe"), KvOptions::default()).map_err(FsError::from)?;
    let mut selector = NearestSelector::new(topo.clone());

    let seams = Seams::default();
    let ds = cluster.dataserver(probe.primary());
    let append = content(seed, u64::MAX, 0, IO);
    let mut buf = vec![0u8; IO];
    let mut sizes = vec![0u64; FILES];
    for round in 0..ROUNDS {
        let res = seams.time("dataserver.append_us", || {
            ds.append_local(probe.id, &append)
        });
        report.op(&res);
        // Reads stay within the file's first MiB, whose content the
        // model knows.
        let offset = rng.index(REPAIR_BYTES as usize - IO + 1) as u64;
        let res = seams.time("dataserver.read_us", || {
            ds.read_local_into(probe.id, offset, &mut buf)
        });
        report.op(&res);
        report.check(res.is_err() || buf == content(seed, 0, offset, IO), || {
            format!("dataserver read at {offset} differs from the model")
        });
        let res = seams.time("dataserver.read_meta_us", || ds.read_meta(probe.id));
        report.op(&res);
        let mut fresh = probe.clone();
        fresh.id = FileId(u128::from(rng.next_u64()) << 64 | round as u128);
        fresh.name = format!("fresh/{round}");
        let res = seams.time("dataserver.create_us", || ds.create_file(&fresh));
        report.op(&res);
        report.op(&ds.delete_file(fresh.id));

        let i = rng.index(FILES);
        let res = seams.time("nameserver.lookup_us", || ns.lookup(&names[i]));
        report.op(&res);
        let res = seams.time("rpc.lookup_round_trip_us", || remote.lookup(&names[i]));
        report.op(&res);
        if let Ok(meta) = &res {
            report.check(meta.name == names[i] && meta.size == sizes[i], || {
                format!("remote lookup of {} returned {meta:?}", names[i])
            });
        }
        sizes[i] += IO as u64;
        let res = seams.time("nameserver.record_size_us", || {
            ns.record_size(&names[i], sizes[i])
        });
        report.op(&res);
        let name = format!("new/{round}");
        let res = seams.time("nameserver.create_us", || ns.create(&name));
        report.op(&res);
        let Ok(meta) = res else { continue };

        let key = format!("n/{name}").into_bytes();
        let value = serde_json::to_vec(&meta).expect("FileMeta serializes");
        let res = seams.time("kvstore.put_us", || kv.put(&key, &value));
        report.op(&res.map_err(FsError::from));
        let got = seams.time("kvstore.get_us", || kv.get(&key));
        report.check(got.as_deref() == Some(&value[..]), || {
            "kvstore get differs from put".into()
        });

        let chosen = seams.time("selector.select_us", || {
            selector.select_read(client_host, &meta.replicas, REPAIR_BYTES)
        });
        report.check(
            chosen.iter().all(|a| meta.replicas.contains(&a.replica)),
            || "selector chose a host that holds no replica".into(),
        );
    }
    let sm = |name: &str| median(&seams.samples(name));
    for name in [
        "dataserver.append_us",
        "dataserver.read_us",
        "dataserver.read_meta_us",
        "dataserver.create_us",
        "nameserver.lookup_us",
        "nameserver.record_size_us",
        "nameserver.create_us",
        "kvstore.put_us",
        "kvstore.get_us",
        "selector.select_us",
        "rpc.lookup_round_trip_us",
    ] {
        report.metric_of(name, sm(name), "us");
    }
    let overhead = match (sm("rpc.lookup_round_trip_us"), sm("nameserver.lookup_us")) {
        (Some(r), Some(d)) => Some(r - d),
        _ => None,
    };
    report.metric_of("rpc.lookup_overhead_us", overhead, "us");

    // The same 1 MiB re-replication from a remote and a local source.
    let dest_host = hosts
        .iter()
        .copied()
        .find(|h| !repair.replicas.contains(h))
        .expect("the testbed has hosts without a replica");
    let source_ds = cluster.dataserver(repair.primary());
    let dest = cluster.dataserver(dest_host);
    let repair_server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::new(DataserverRepairService::new(source_ds.clone())),
    )?;
    let remote_source = RemoteRepairSource::new(TcpTransport::connect(repair_server.local_addr())?);
    let want = content(seed, 1, 0, REPAIR_BYTES as usize);
    let mut mb_s: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for _ in 0..REPAIRS {
        let sources: [(&str, &dyn RepairSource); 2] = [
            ("rpc.repair_mb_s", &remote_source),
            ("dataserver.pull_repair_local_mb_s", source_ds.as_ref()),
        ];
        for (name, source) in sources {
            let start = Instant::now();
            let res = dest.pull_repair(source, &repair);
            let us = start.elapsed().as_secs_f64() * 1e6;
            report.op(&res);
            if let Ok(copied) = res {
                mb_s.entry(name).or_default().push(copied as f64 / us);
                let got = dest.read_local(repair.id, 0, REPAIR_BYTES).map(|r| r.0);
                let ok = matches!(&got, Ok(g) if *g == want) && copied == REPAIR_BYTES;
                report.check(ok, || {
                    format!("replica repaired via {name} differs from its source")
                });
                report.op(&dest.delete_file(repair.id));
            }
        }
    }
    for name in ["rpc.repair_mb_s", "dataserver.pull_repair_local_mb_s"] {
        report.metric_of(name, mb_s.get(name).and_then(|v| median(v)), "MB/s");
    }
    let (meta_ratio, repair_ratio) = wire_ratios(&cluster, &names[0], &repair)?;
    report.metric(
        "rpc.wire_bytes_per_payload_byte.filemeta",
        meta_ratio,
        "ratio",
    );
    report.metric(
        "rpc.wire_bytes_per_payload_byte.repair",
        repair_ratio,
        "ratio",
    );
    Ok(())
}

/// Bytes on the wire per payload byte for a lookup reply (payload: the
/// `FileMeta` as the service serializes it) and for one chunk's repair
/// reply (payload: the chunk bytes). Wire size is the framed response
/// envelope exactly as the TCP transport writes it.
fn wire_ratios(cluster: &Cluster, name: &str, repair: &FileMeta) -> Result<(f64, f64), FsError> {
    let framed = |body: Vec<u8>| {
        Response {
            id: 1,
            result: Ok(body),
        }
        .encode()
        .len() as f64
            + 4.0
    };
    let meta = cluster.nameserver().lookup(name)?;
    let body = serde_json::to_vec(&meta).map_err(RpcError::from)?;
    let meta_ratio = framed(body.clone()) / body.len() as f64;
    let reply =
        cluster
            .dataserver(repair.primary())
            .repair_read(repair.id, 0, repair.chunk_size)?;
    let payload = reply.0.len() as f64;
    let body = serde_json::to_vec(&reply).map_err(RpcError::from)?;
    Ok((meta_ratio, framed(body) / payload))
}

/// `Coded{4,2}` encode of a 1 MiB chunk and the rebuild of one lost
/// data shard.
fn probe_ec(seed: u64, report: &mut Report) {
    let codec = Codec::new(4, 2);
    let payload = content(seed, 7, 0, 1 << 20);
    let seams = Seams::default();
    for _ in 0..EC_ROUNDS {
        let shards = seams.time("ec.encode_us", || codec.encode_payload(&payload));
        let mut lost: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        lost[0] = None;
        let res = seams.time("ec.reconstruct_us", || codec.reconstruct(&mut lost));
        let ok =
            res.is_ok() && lost[0].as_deref() == Some(&payload[..codec.shard_len(payload.len())]);
        report.check(ok, || {
            "ec reconstruct differs from the encoded shard".into()
        });
    }
    for name in ["ec.encode_us", "ec.reconstruct_us"] {
        report.metric_of(name, median(&seams.samples(name)), "us");
    }
}
