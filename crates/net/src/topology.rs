//! The topology graph: nodes, directed links, and shortest-path
//! enumeration.

use std::collections::VecDeque;
use std::sync::OnceLock;

use crate::ids::{HostId, LinkId, NodeId, NodeKind, PodId, RackId};
use crate::path::Path;
use crate::Bps;

/// A node in the network: a host or a switch.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    kind: NodeKind,
    rack: Option<RackId>,
    pod: Option<PodId>,
}

impl Node {
    /// The node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's role in the tree.
    #[must_use]
    pub fn kind(&self) -> NodeKind {
        self.kind
    }

    /// The rack this node belongs to (hosts and edge switches).
    #[must_use]
    pub fn rack(&self) -> Option<RackId> {
        self.rack
    }

    /// The pod this node belongs to (everything except core switches).
    #[must_use]
    pub fn pod(&self) -> Option<PodId> {
        self.pod
    }
}

/// A directed link with a fixed capacity in bits per second.
///
/// Physical cables are modelled as two directed links so that the two
/// directions can carry (and congest) independently.
#[derive(Debug, Clone)]
pub struct Link {
    id: LinkId,
    src: NodeId,
    dst: NodeId,
    capacity: Bps,
}

impl Link {
    /// The link's identifier.
    #[must_use]
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Transmitting endpoint.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// Receiving endpoint.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Capacity in bits per second.
    #[must_use]
    pub fn capacity(&self) -> Bps {
        self.capacity
    }
}

/// An immutable network topology: a directed graph of [`Node`]s and
/// [`Link`]s plus the rack/pod grouping metadata that replica placement
/// and locality classification need.
///
/// Build one with [`Topology::three_tier`] (the paper's tree networks)
/// or assemble an arbitrary graph with the builder-style
/// mutators ([`Topology::add_node`], [`Topology::add_duplex_link`])
/// before calling [`Topology::freeze`]. Most algorithms only need the
/// read API.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing links per node, indexed by `NodeId`.
    out_links: Vec<Vec<LinkId>>,
    /// Reverse direction of each link (same cable, opposite way).
    reverse: Vec<LinkId>,
    /// Dense host list; `HostId` indexes into this.
    host_nodes: Vec<NodeId>,
    /// Hosts grouped by rack.
    racks: Vec<Vec<HostId>>,
    /// Racks grouped by pod.
    pods: Vec<Vec<RackId>>,
    /// Edge switch serving each rack.
    rack_edge: Vec<NodeId>,
    /// Host-to-host hop counts behind [`Topology::distance`]:
    /// `hops[a][b]` is the hop count from host `a` to host `b`, or
    /// [`UNREACHABLE`]. Each row is filled by one BFS on first use;
    /// the mutators that can change a distance (`register_host`,
    /// `add_duplex_link`) reset the table.
    hops: OnceLock<Vec<OnceLock<Box<[u32]>>>>,
    frozen: bool,
}

const UNREACHABLE: u32 = u32::MAX;

impl Topology {
    /// Creates an empty, mutable topology.
    #[must_use]
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the topology has been frozen.
    pub fn add_node(&mut self, kind: NodeKind, rack: Option<RackId>, pod: Option<PodId>) -> NodeId {
        assert!(!self.frozen, "cannot mutate a frozen topology");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            rack,
            pod,
        });
        self.out_links.push(Vec::new());
        id
    }

    /// Registers `node` as a host in rack `rack` of pod `pod`, growing
    /// the rack/pod tables as needed, and returns its dense [`HostId`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a `Host` node or the topology is frozen.
    pub fn register_host(&mut self, node: NodeId, rack: RackId, pod: PodId) -> HostId {
        assert!(!self.frozen, "cannot mutate a frozen topology");
        self.hops = OnceLock::new();
        assert_eq!(
            self.nodes[node.index()].kind,
            NodeKind::Host,
            "register_host requires a Host node"
        );
        let host = HostId(self.host_nodes.len() as u32);
        self.host_nodes.push(node);
        if self.racks.len() <= rack.index() {
            self.racks.resize(rack.index() + 1, Vec::new());
        }
        self.racks[rack.index()].push(host);
        if self.pods.len() <= pod.index() {
            self.pods.resize(pod.index() + 1, Vec::new());
        }
        if !self.pods[pod.index()].contains(&rack) {
            self.pods[pod.index()].push(rack);
        }
        host
    }

    /// Records the edge switch serving `rack`.
    pub fn set_rack_edge(&mut self, rack: RackId, edge: NodeId) {
        assert!(!self.frozen, "cannot mutate a frozen topology");
        if self.rack_edge.len() <= rack.index() {
            self.rack_edge.resize(rack.index() + 1, NodeId(u32::MAX));
        }
        self.rack_edge[rack.index()] = edge;
    }

    /// Adds a full-duplex cable between `a` and `b` as two directed
    /// links of the given capacity; returns `(a→b, b→a)`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not finite-positive or the topology is
    /// frozen.
    pub fn add_duplex_link(&mut self, a: NodeId, b: NodeId, capacity: Bps) -> (LinkId, LinkId) {
        assert!(!self.frozen, "cannot mutate a frozen topology");
        self.hops = OnceLock::new();
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive and finite"
        );
        let fwd = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id: fwd,
            src: a,
            dst: b,
            capacity,
        });
        self.out_links[a.index()].push(fwd);
        let rev = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id: rev,
            src: b,
            dst: a,
            capacity,
        });
        self.out_links[b.index()].push(rev);
        self.reverse.push(rev);
        self.reverse.push(fwd);
        (fwd, rev)
    }

    /// Marks the topology immutable. Mutators panic afterwards.
    pub fn freeze(&mut self) {
        self.frozen = true;
    }

    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All directed links.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Looks up a node.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks up a link.
    #[must_use]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The opposite direction of the same cable.
    #[must_use]
    pub fn reverse_link(&self, id: LinkId) -> LinkId {
        self.reverse[id.index()]
    }

    /// Dense list of host ids (`HostId(0)..HostId(n)`).
    #[must_use]
    pub fn hosts(&self) -> Vec<HostId> {
        (0..self.host_nodes.len() as u32).map(HostId).collect()
    }

    /// Number of hosts.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.host_nodes.len()
    }

    /// The graph node backing a host.
    #[must_use]
    pub fn host_node(&self, host: HostId) -> NodeId {
        self.host_nodes[host.index()]
    }

    /// The rack a host lives in.
    ///
    /// # Panics
    ///
    /// Panics if the host was registered without a rack (impossible via
    /// [`Topology::register_host`]).
    #[must_use]
    pub fn rack_of(&self, host: HostId) -> RackId {
        self.node(self.host_node(host))
            .rack
            .expect("hosts always have a rack")
    }

    /// The pod a host lives in.
    #[must_use]
    pub fn pod_of(&self, host: HostId) -> PodId {
        self.node(self.host_node(host))
            .pod
            .expect("hosts always have a pod")
    }

    /// Hosts in a rack.
    #[must_use]
    pub fn hosts_in_rack(&self, rack: RackId) -> &[HostId] {
        &self.racks[rack.index()]
    }

    /// Racks in a pod.
    #[must_use]
    pub fn racks_in_pod(&self, pod: PodId) -> &[RackId] {
        &self.pods[pod.index()]
    }

    /// Number of racks.
    #[must_use]
    pub fn rack_count(&self) -> usize {
        self.racks.len()
    }

    /// Number of pods.
    #[must_use]
    pub fn pod_count(&self) -> usize {
        self.pods.len()
    }

    /// The edge switch serving a rack.
    #[must_use]
    pub fn edge_switch_of(&self, rack: RackId) -> NodeId {
        self.rack_edge[rack.index()]
    }

    /// Outgoing links of a node.
    #[must_use]
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.index()]
    }

    /// The host→edge-switch uplink of a host (its only outgoing link in
    /// a tree).
    ///
    /// # Panics
    ///
    /// Panics if the host has no outgoing link.
    #[must_use]
    pub fn host_uplink(&self, host: HostId) -> LinkId {
        let node = self.host_node(host);
        *self
            .out_links(node)
            .first()
            .expect("hosts have an uplink to their edge switch")
    }

    /// The edge-switch→host downlink of a host.
    #[must_use]
    pub fn host_downlink(&self, host: HostId) -> LinkId {
        self.reverse_link(self.host_uplink(host))
    }

    /// Core-facing uplinks of a rack's edge switch (edge→aggregation
    /// links). These are the links Sinbad-R estimates utilization for.
    #[must_use]
    pub fn edge_uplinks(&self, rack: RackId) -> Vec<LinkId> {
        let edge = self.edge_switch_of(rack);
        self.out_links(edge)
            .iter()
            .copied()
            .filter(|l| self.node(self.link(*l).dst()).kind() == NodeKind::AggSwitch)
            .collect()
    }

    /// Hop distance (number of links) between two hosts, or `None` if
    /// unreachable. Two hosts on the same machine have distance 0.
    #[must_use]
    pub fn distance(&self, a: HostId, b: HostId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        let rows = self
            .hops
            .get_or_init(|| (0..self.host_count()).map(|_| OnceLock::new()).collect());
        let row = rows[a.index()].get_or_init(|| self.host_hops(a));
        match row[b.index()] {
            UNREACHABLE => None,
            d => Some(d as usize),
        }
    }

    /// Distance-only BFS from host `src`: hop counts to every host.
    fn host_hops(&self, src: HostId) -> Box<[u32]> {
        let mut dist = vec![UNREACHABLE; self.nodes.len()];
        let start = self.host_node(src);
        dist[start.index()] = 0;
        let mut q = VecDeque::from([start]);
        while let Some(u) = q.pop_front() {
            for &l in self.out_links(u) {
                let v = self.link(l).dst().index();
                if dist[v] == UNREACHABLE {
                    dist[v] = dist[u.index()] + 1;
                    q.push_back(NodeId(v as u32));
                }
            }
        }
        self.host_nodes.iter().map(|n| dist[n.index()]).collect()
    }

    /// Enumerates **all** shortest paths from host `src` to host `dst`.
    ///
    /// In a 3-tier tree these have length 2 (same rack), 4 (same pod)
    /// or 6 (cross-pod), exactly the path-length restriction of §4.2.
    /// Returns an empty vector when `src == dst` (no network involved)
    /// or when no path exists.
    #[must_use]
    pub fn shortest_paths(&self, src: HostId, dst: HostId) -> Vec<Path> {
        if src == dst {
            return Vec::new();
        }
        let src_node = self.host_node(src);
        let dst_node = self.host_node(dst);
        let (dist, preds) = self.bfs(src_node);
        if dist[dst_node.index()] == usize::MAX {
            return Vec::new();
        }
        // Walk predecessor links backwards from dst, enumerating every
        // combination (all-shortest-paths DFS).
        let mut paths = Vec::new();
        let mut stack: Vec<LinkId> = Vec::new();
        let walk = PathWalk {
            src_node,
            preds: &preds,
            src,
            dst,
        };
        self.collect_paths(&walk, dst_node, &mut stack, &mut paths);
        paths.sort_by(|a, b| a.links().cmp(b.links()));
        paths
    }

    fn collect_paths(
        &self,
        walk: &PathWalk<'_>,
        cur: NodeId,
        stack: &mut Vec<LinkId>,
        out: &mut Vec<Path>,
    ) {
        if cur == walk.src_node {
            let links: Vec<LinkId> = stack.iter().rev().copied().collect();
            out.push(Path::new(walk.src, walk.dst, links));
            return;
        }
        for &l in &walk.preds[cur.index()] {
            stack.push(l);
            self.collect_paths(walk, self.link(l).src(), stack, out);
            stack.pop();
        }
    }

    /// BFS from `start`, returning per-node distance and the incoming
    /// links that realize each node's shortest distance.
    ///
    /// (`PathWalk` below carries the fixed context of the
    /// all-shortest-paths DFS so the recursion's signature stays
    /// small.)
    fn bfs(&self, start: NodeId) -> (Vec<usize>, Vec<Vec<LinkId>>) {
        let n = self.nodes.len();
        let mut dist = vec![usize::MAX; n];
        let mut preds: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        dist[start.index()] = 0;
        let mut q = VecDeque::new();
        q.push_back(start);
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()];
            for &l in self.out_links(u) {
                let v = self.link(l).dst();
                let dv = dist[v.index()];
                if dv == usize::MAX {
                    dist[v.index()] = du + 1;
                    preds[v.index()].push(l);
                    q.push_back(v);
                } else if dv == du + 1 {
                    preds[v.index()].push(l);
                }
            }
        }
        (dist, preds)
    }
}

/// Fixed context for the all-shortest-paths DFS.
struct PathWalk<'a> {
    src_node: NodeId,
    preds: &'a [Vec<LinkId>],
    src: HostId,
    dst: HostId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GBPS;

    /// Two hosts connected through one switch.
    fn tiny() -> (Topology, HostId, HostId) {
        let mut t = Topology::new();
        let sw = t.add_node(NodeKind::EdgeSwitch, Some(RackId(0)), Some(PodId(0)));
        let h0 = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let h1 = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let a = t.register_host(h0, RackId(0), PodId(0));
        let b = t.register_host(h1, RackId(0), PodId(0));
        t.set_rack_edge(RackId(0), sw);
        t.add_duplex_link(h0, sw, GBPS);
        t.add_duplex_link(h1, sw, GBPS);
        t.freeze();
        (t, a, b)
    }

    #[test]
    fn duplex_links_are_reversible() {
        let (t, a, _) = tiny();
        let up = t.host_uplink(a);
        let down = t.host_downlink(a);
        assert_eq!(t.reverse_link(up), down);
        assert_eq!(t.reverse_link(down), up);
        assert_eq!(t.link(up).src(), t.link(down).dst());
    }

    #[test]
    fn same_rack_distance_is_two() {
        let (t, a, b) = tiny();
        assert_eq!(t.distance(a, b), Some(2));
        assert_eq!(t.distance(a, a), Some(0));
    }

    #[test]
    fn shortest_paths_same_rack() {
        let (t, a, b) = tiny();
        let paths = t.shortest_paths(a, b);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].len(), 2);
        assert_eq!(paths[0].src(), a);
        assert_eq!(paths[0].dst(), b);
        // Path is connected host→switch→host.
        let l0 = t.link(paths[0].links()[0]);
        let l1 = t.link(paths[0].links()[1]);
        assert_eq!(l0.dst(), l1.src());
    }

    #[test]
    fn same_host_has_no_paths() {
        let (t, a, _) = tiny();
        assert!(t.shortest_paths(a, a).is_empty());
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn frozen_topology_rejects_mutation() {
        let (mut t, _, _) = tiny();
        t.add_node(NodeKind::Host, None, None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host, None, None);
        let b = t.add_node(NodeKind::Host, None, None);
        t.add_duplex_link(a, b, 0.0);
    }

    /// Test oracle: the path-enumeration BFS, run afresh per query.
    fn bfs_distance(t: &Topology, a: HostId, b: HostId) -> Option<usize> {
        let (dist, _) = t.bfs(t.host_node(a));
        Some(dist[t.host_node(b).index()]).filter(|d| *d != usize::MAX)
    }

    fn assert_distance_matches_oracle(t: &Topology) {
        for a in t.hosts() {
            for b in t.hosts() {
                assert_eq!(t.distance(a, b), bfs_distance(t, a, b), "{a:?} -> {b:?}");
            }
        }
    }

    #[test]
    fn distance_matches_bfs_on_tree_and_fat_tree() {
        assert_distance_matches_oracle(&Topology::three_tier(&crate::TreeParams::paper_testbed()));
        assert_distance_matches_oracle(&Topology::fat_tree(&crate::FatTreeParams {
            k: 4,
            link_capacity: GBPS,
        }));
    }

    /// A random graph of hosts and switches; some hosts may be cut off.
    fn random_graph(hosts: usize, switches: usize, links: &[(usize, usize)]) -> Topology {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..hosts + switches)
            .map(|i| {
                let kind = if i < hosts {
                    NodeKind::Host
                } else {
                    NodeKind::EdgeSwitch
                };
                t.add_node(kind, Some(RackId(0)), Some(PodId(0)))
            })
            .collect();
        for &node in &nodes[..hosts] {
            t.register_host(node, RackId(0), PodId(0));
        }
        for &(a, b) in links {
            let (a, b) = (nodes[a % nodes.len()], nodes[b % nodes.len()]);
            if a != b {
                t.add_duplex_link(a, b, GBPS);
            }
        }
        t
    }

    proptest::proptest! {
        #[test]
        fn distance_matches_bfs_on_random_graphs(
            hosts in 1usize..8,
            switches in 0usize..6,
            links in proptest::collection::vec((0usize..14, 0usize..14), 0..16),
        ) {
            let t = random_graph(hosts, switches, &links);
            assert_distance_matches_oracle(&t);
        }
    }

    #[test]
    fn mutators_invalidate_the_hop_table() {
        let mut t = random_graph(3, 1, &[(0, 3), (1, 3)]);
        assert_eq!(t.distance(HostId(0), HostId(2)), None);
        assert_eq!(t.distance(HostId(0), HostId(1)), Some(2));
        // A new cable reaches the cut-off host; a shortcut shortens a path.
        t.add_duplex_link(t.host_node(HostId(2)), NodeId(3), GBPS);
        t.add_duplex_link(t.host_node(HostId(0)), t.host_node(HostId(1)), GBPS);
        assert_distance_matches_oracle(&t);
        // A host registered after the table filled gets its own row.
        let late = t.add_node(NodeKind::Host, Some(RackId(0)), Some(PodId(0)));
        let h = t.register_host(late, RackId(0), PodId(0));
        t.add_duplex_link(late, NodeId(3), GBPS);
        assert_eq!(t.distance(h, HostId(0)), Some(2));
        assert_distance_matches_oracle(&t);
    }

    #[test]
    fn rack_and_pod_lookup() {
        let (t, a, b) = tiny();
        assert_eq!(t.rack_of(a), RackId(0));
        assert_eq!(t.pod_of(b), PodId(0));
        assert_eq!(t.hosts_in_rack(RackId(0)), &[a, b]);
        assert_eq!(t.racks_in_pod(PodId(0)), &[RackId(0)]);
    }
}
