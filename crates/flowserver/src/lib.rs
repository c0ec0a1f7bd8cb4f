#![warn(missing_docs)]

//! The Mayflower **Flowserver**: the paper's core contribution.
//!
//! The Flowserver runs inside the SDN controller and, for every read
//! request, jointly selects *which replica to read from* and *which
//! network path to use*, minimizing the increase in **total job
//! completion time** across the whole network (paper §4, Pseudocode 1
//! and 2, Equations 1–2):
//!
//! ```text
//! Cost(p) = d_j / b_j  +  Σ_{f ∈ F_p} ( r_f / b'_f  −  r_f / b_f )
//! ```
//!
//! where `d_j` is the request size, `b_j` the max-min fair share a new
//! flow would get on path `p`, and for each existing flow `f` on `p`,
//! `r_f` is its remaining bytes and `b_f → b'_f` its bandwidth change
//! caused by admitting the new flow.
//!
//! Module map:
//!
//! * [`bandwidth`] — the per-link max-min share estimator (§4.2's
//!   simplified, path-local waterfilling).
//! * [`cost`] — the Eq. 2 cost function, reproducing the paper's
//!   Figure 2 worked example exactly (see its tests).
//! * [`tracker`] — the Flowserver's model of in-flight flows,
//!   including the *update-freeze* state of Pseudocode 2.
//! * [`server`] — [`Flowserver`] itself: selection through one entry
//!   point, [`Flowserver::select`], for every [`FlowPurpose`] (reads,
//!   path-only scheduling, repair, migration, coded reads), stats
//!   ingestion, flow lifecycle, and the multi-replica split reads of
//!   §4.3.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mayflower_net::{HostId, Topology, TreeParams};
//! use mayflower_simcore::SimTime;
//! use mayflower_flowserver::{FlowPurpose, FlowRequest, Flowserver, FlowserverConfig, Selection};
//!
//! let topo = Arc::new(Topology::three_tier(&TreeParams::paper_testbed()));
//! let mut fs = Flowserver::new(topo, FlowserverConfig::default());
//! let replicas = [HostId(1), HostId(5), HostId(20)];
//! let read = FlowRequest {
//!     dest: HostId(0),
//!     sources: &replicas,
//!     size_bits: 256.0 * 8e6,
//!     purpose: FlowPurpose::Read,
//! };
//! let sel = fs.select(&read, SimTime::ZERO);
//! match sel {
//!     Selection::Single(a) => {
//!         // An idle network: the same-rack replica wins.
//!         assert_eq!(a.replica, HostId(1));
//!     }
//!     other => panic!("expected a single assignment, got {other:?}"),
//! }
//! ```

pub mod bandwidth;
pub mod cost;
pub mod placement;
pub mod remote;
pub mod scratch;
pub mod server;
pub mod tracker;

#[cfg(test)]
mod differential;

pub use placement::WritePlacement;
pub use scratch::SelectionScratch;
pub use server::{
    Assignment, FlowPriority, FlowPurpose, FlowRequest, Flowserver, FlowserverConfig, Selection,
};
pub use tracker::{FlowTracker, TrackedFlow};
