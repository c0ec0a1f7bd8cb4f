//! The §3.4 consistency-cost experiment.
//!
//! The paper claims strong consistency is nearly free for large files:
//! "Mayflower leverages its append-only semantics to only require
//! sending last chunk read requests to the primary replica host. All
//! other chunk requests can be sent to any of the replica hosts ...
//! Therefore, for large multi-gigabyte files, the vast majority of
//! chunks can be serviced by any replica host while still maintaining
//! strong consistency."
//!
//! This experiment quantifies the claim: whole-file reads under
//! sequential versus strong consistency, sweeping the file size in
//! chunks. Under strong consistency the last chunk's bytes are pinned
//! to the primary (scheduled as a separate flow through the
//! Flowserver's path selection); everything else enjoys full
//! replica choice. With 1-chunk files, strong consistency removes
//! replica choice entirely — the worst case; at 16 chunks only 1/16 of
//! the bytes are pinned.

use std::sync::Arc;

use mayflower_flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig};
use mayflower_net::{Topology, TreeParams};
use mayflower_simcore::{SimRng, SimTime};
use mayflower_workload::{TrafficMatrix, WorkloadParams};
use serde::{Deserialize, Serialize};

use crate::engine::{Driver, JobRecord};
use crate::figures::Effort;
use crate::stats::Summary;

/// The consistency level being measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mode {
    /// Any replica serves any chunk (the default, §3.4).
    Sequential,
    /// The last chunk's bytes must come from the primary.
    Strong,
}

impl Mode {
    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Sequential => "sequential",
            Mode::Strong => "strong",
        }
    }
}

/// One (chunks-per-file, mode) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsistencyPoint {
    /// File size in 256 MB chunks.
    pub chunks: u64,
    /// Consistency level.
    pub mode: Mode,
    /// Read completion summary, seconds.
    pub summary: Summary,
}

/// The full sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConsistencyExperiment {
    /// All measurements.
    pub points: Vec<ConsistencyPoint>,
}

const CHUNK_BITS: f64 = 256.0 * 8e6;

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(usize),
    Tick,
}

/// Runs the sweep over 1-, 4- and 16-chunk files.
#[must_use]
pub fn consistency_experiment(effort: Effort, seed: u64) -> ConsistencyExperiment {
    let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
    let (jobs, files) = match effort {
        Effort::Quick => (100, 60),
        Effort::Full => (300, 150),
    };
    let mut points = Vec::new();
    for chunks in [1u64, 4, 16] {
        let params = WorkloadParams {
            job_count: jobs,
            file_count: files,
            file_size_bits: chunks as f64 * CHUNK_BITS,
            // Hold the *byte* arrival rate constant across sweeps so
            // congestion levels are comparable: bigger files, fewer
            // arrivals.
            lambda_per_server: 0.07 / chunks as f64,
            ..WorkloadParams::default()
        };
        let mut rng = SimRng::seed_from(seed);
        let matrix = TrafficMatrix::generate(&topo, &params, &mut rng);
        for mode in [Mode::Sequential, Mode::Strong] {
            let durations = run_mode(&topo, &matrix, mode);
            points.push(ConsistencyPoint {
                chunks,
                mode,
                summary: Summary::of(&durations),
            });
        }
    }
    ConsistencyExperiment { points }
}

fn run_mode(topo: &Arc<Topology>, matrix: &TrafficMatrix, mode: Mode) -> Vec<f64> {
    let fs = Flowserver::new(topo.clone(), FlowserverConfig::default());
    let arrivals = matrix.jobs.iter().map(|j| j.arrival).collect();
    let mut d = Driver::new(topo, Some(fs), arrivals, Event::Arrival);
    d.schedule(SimTime::from_secs(1.0), Event::Tick);
    d.run(|d, t, ev| {
        let Event::Arrival(id) = ev else {
            // The tick polls nothing. It stays because each firing ends
            // a fluid-model step at a whole second: without it the
            // float bits of every pinned result would change.
            d.schedule(t + SimTime::from_secs(1.0), Event::Tick);
            return;
        };
        let job = &matrix.jobs[id];
        let replicas = matrix.replicas_of(job);
        if replicas.contains(&job.client) {
            d.finish_now(id, t);
            return;
        }
        let size = matrix.size_of(job);
        let last_chunk_bits = CHUNK_BITS.min(size);
        let free_bits = size
            - if mode == Mode::Strong {
                last_chunk_bits
            } else {
                0.0
            };
        let mut assignments = Vec::new();
        if free_bits > 0.0 {
            let sel = d.flowserver().select(
                &FlowRequest::new(job.client, replicas, free_bits, FlowPurpose::Read),
                t,
            );
            assignments.extend(sel.assignments().iter().cloned());
        }
        if mode == Mode::Strong {
            let primary = replicas[0];
            let sel = d.flowserver().select(
                &FlowRequest::new(job.client, &[primary], last_chunk_bits, FlowPurpose::Path),
                t,
            );
            assignments.extend(sel.assignments().iter().cloned());
        }
        debug_assert!(!assignments.is_empty());
        for a in assignments {
            d.admit(id, a.path, a.size_bits, Some(a.cookie), t);
        }
    });
    d.records()
        .iter()
        .filter(|r| !r.local)
        .map(JobRecord::duration_secs)
        .collect()
}

/// Renders the sweep.
#[must_use]
pub fn render_consistency(exp: &ConsistencyExperiment) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "§3.4 — cost of strong consistency vs file size (constant byte load)"
    );
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:>9} {:>9}",
        "chunks", "consistency", "avg (s)", "p95 (s)"
    );
    for p in &exp.points {
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>9.3} {:>9.3}",
            p.chunks,
            p.mode.label(),
            p.summary.mean,
            p.summary.p95
        );
    }
    // Overhead summary per size.
    let mut sizes: Vec<u64> = exp.points.iter().map(|p| p.chunks).collect();
    sizes.dedup();
    for chunks in sizes {
        let at = |m: Mode| {
            exp.points
                .iter()
                .find(|p| p.chunks == chunks && p.mode == m)
                .map(|p| p.summary.mean)
                .unwrap_or(f64::NAN)
        };
        let overhead = at(Mode::Strong) / at(Mode::Sequential) - 1.0;
        let _ = writeln!(
            out,
            "{chunks}-chunk files: strong-consistency overhead {:+.1}%",
            overhead * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_shrinks_with_file_size() {
        let exp = consistency_experiment(Effort::Quick, 17);
        let mean = |chunks: u64, mode: Mode| {
            exp.points
                .iter()
                .find(|p| p.chunks == chunks && p.mode == mode)
                .map(|p| p.summary.mean)
                .expect("point present")
        };
        let overhead =
            |chunks: u64| mean(chunks, Mode::Strong) / mean(chunks, Mode::Sequential) - 1.0;
        // The paper's claim: multi-chunk files pay (almost) nothing.
        assert!(
            overhead(16) < overhead(1),
            "16-chunk overhead {} must be below 1-chunk overhead {}",
            overhead(16),
            overhead(1)
        );
        assert!(
            overhead(16) < 0.15,
            "large-file strong consistency should be cheap: {:+.1}%",
            overhead(16) * 100.0
        );
    }

    #[test]
    fn render_lists_all_rows() {
        let exp = consistency_experiment(Effort::Quick, 4);
        let text = render_consistency(&exp);
        assert!(text.contains("sequential"));
        assert!(text.contains("strong"));
        assert!(text.contains("16"));
    }
}
