//! Chaos property tests for the experiment engine: arbitrary workloads
//! must complete under every strategy with consistent invariants.

use std::sync::Arc;

use mayflower_net::{Topology, TreeParams};
use mayflower_sim::engine::NoHooks;
use mayflower_sim::Strategy as Scheme;
use mayflower_sim::{replay, ReplayOptions};
use mayflower_simcore::testutil::SeedGuard;
use mayflower_simcore::SimRng;
use mayflower_workload::{FileSizeDist, LocalityDist, TrafficMatrix, WorkloadParams};
use proptest::prelude::*;

fn workload_strategy() -> impl proptest::strategy::Strategy<Value = WorkloadParams> {
    (
        5usize..60,    // jobs
        5usize..40,    // files
        0.02f64..0.15, // lambda
        0.0f64..2.0,   // zipf
        prop_oneof![
            Just(FileSizeDist::paper_default()),
            Just(FileSizeDist::Uniform { lo: 8e6, hi: 2e9 }),
            Just(FileSizeDist::LogUniform { lo: 8e6, hi: 8e9 }),
        ],
        prop_oneof![
            Just(LocalityDist::rack_heavy()),
            Just(LocalityDist::pod_heavy()),
            Just(LocalityDist::core_heavy()),
            Just(LocalityDist::uniform()),
        ],
    )
        .prop_map(
            |(jobs, files, lambda, zipf, sizes, locality)| WorkloadParams {
                job_count: jobs,
                file_count: files,
                lambda_per_server: lambda,
                zipf_exponent: zipf,
                file_sizes: Some(sizes),
                locality,
                ..WorkloadParams::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every strategy drains every randomly-shaped workload: all jobs
    /// complete, in causal order, with sane record structure.
    #[test]
    fn every_workload_drains(
        params in workload_strategy(),
        seed in any::<u64>(),
        strategy in prop_oneof![
            Just(Scheme::Mayflower),
            Just(Scheme::MayflowerMultipath),
            Just(Scheme::SinbadRMayflower),
            Just(Scheme::SinbadREcmp),
            Just(Scheme::NearestMayflower),
            Just(Scheme::NearestEcmp),
            Just(Scheme::NearestHedera),
            Just(Scheme::SinbadRHedera),
        ],
    ) {
        let _seed_guard = SeedGuard::new("engine_chaos::every_workload_drains", seed);
        let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
        let mut rng = SimRng::seed_from(seed);
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        let opts = ReplayOptions::default();
        let records = replay(&topo, &matrix, strategy, &opts, &mut rng, &mut NoHooks).jobs;
        prop_assert_eq!(records.len(), params.job_count);
        for (r, job) in records.iter().zip(&matrix.jobs) {
            prop_assert_eq!(r.arrival, job.arrival);
            prop_assert!(r.finish >= r.arrival);
            if r.local {
                prop_assert_eq!(r.subflows, 0);
            } else {
                prop_assert!(r.subflows >= 1);
                prop_assert!(r.duration_secs() > 0.0, "remote reads take time");
                // Physical floor: a read cannot beat its size over the
                // 1 Gbps edge line rate.
                let floor = matrix.size_of(job) / 1e9;
                prop_assert!(
                    r.duration_secs() >= floor * (1.0 - 1e-6),
                    "{:?} finished in {}s, below the line-rate floor {}s",
                    strategy, r.duration_secs(), floor
                );
            }
        }
    }
}
