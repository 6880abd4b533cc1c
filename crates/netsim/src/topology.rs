//! k-ary fat-tree topology and routing.
//!
//! The paper's fabric: "a common 54-server three-layered fat-tree topology,
//! with a full bisection-bandwidth fabric consisting of 45 6-port switches
//! organized in 6 pods" — the textbook k = 6 fat-tree:
//!
//! * k pods, each with k/2 edge switches and k/2 aggregation switches;
//! * each edge switch serves k/2 hosts → k³/4 = 54 hosts;
//! * (k/2)² = 9 core switches, core *group* j connecting to aggregation
//!   switch j of every pod;
//! * 45 switches total (36 pod + 9 core), every switch with 6 ports.
//!
//! Routing is the standard two-level scheme: *upward* hops have several
//! equal-cost candidates (ECMP chooses by flow hash; the replication scheme
//! uses a different candidate), *downward* hops are unique. [`FatTree`]
//! precomputes, for every (switch, destination host) pair, the egress
//! candidate set, so the inner simulation loop is just an array lookup.

/// Identifies a node (host or switch).
pub type NodeId = u32;
/// Identifies a unidirectional link (an egress port of its source node).
pub type LinkId = u32;

/// What a node is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// End host (index within the topology's host range).
    Host,
    /// Top-of-rack/edge switch.
    Edge,
    /// Aggregation switch.
    Agg,
    /// Core switch.
    Core,
}

/// One unidirectional link.
#[derive(Clone, Copy, Debug)]
pub struct LinkDef {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
}

/// A built fat-tree with routing tables.
#[derive(Clone, Debug)]
pub struct FatTree {
    k: usize,
    hosts: usize,
    nodes: Vec<NodeKind>,
    links: Vec<LinkDef>,
    /// For each node, the candidate egress links *toward* each destination
    /// host: `route[node][dst]` is a slice into `route_pool`.
    route_index: Vec<(u32, u8)>, // (offset into pool, count), indexed node*hosts + dst
    route_pool: Vec<LinkId>,
}

impl FatTree {
    /// Builds a k-ary fat-tree (`k` even, ≥ 2).
    pub fn new(k: usize) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree needs even k >= 2");
        let half = k / 2;
        let hosts = k * half * half; // k pods * k/2 edges * k/2 hosts
        let edges = k * half;
        let aggs = k * half;
        let cores = half * half;
        let n_nodes = hosts + edges + aggs + cores;

        // Node id layout: [hosts][edges][aggs][cores].
        let host_id = |p: usize, e: usize, h: usize| (p * half * half + e * half + h) as NodeId;
        let edge_id = |p: usize, e: usize| (hosts + p * half + e) as NodeId;
        let agg_id = |p: usize, a: usize| (hosts + edges + p * half + a) as NodeId;
        let core_id = |g: usize, m: usize| (hosts + edges + aggs + g * half + m) as NodeId;

        let mut nodes = vec![NodeKind::Host; hosts];
        nodes.extend(std::iter::repeat_n(NodeKind::Edge, edges));
        nodes.extend(std::iter::repeat_n(NodeKind::Agg, aggs));
        nodes.extend(std::iter::repeat_n(NodeKind::Core, cores));

        let mut links: Vec<LinkDef> = Vec::new();
        let mut link_of = std::collections::HashMap::<(NodeId, NodeId), LinkId>::new();
        let mut add_bidir = |a: NodeId, b: NodeId, links: &mut Vec<LinkDef>| {
            for (x, y) in [(a, b), (b, a)] {
                let id = links.len() as LinkId;
                links.push(LinkDef { from: x, to: y });
                link_of.insert((x, y), id);
            }
        };

        for p in 0..k {
            for e in 0..half {
                for h in 0..half {
                    add_bidir(host_id(p, e, h), edge_id(p, e), &mut links);
                }
                for a in 0..half {
                    add_bidir(edge_id(p, e), agg_id(p, a), &mut links);
                }
            }
            for a in 0..half {
                for m in 0..half {
                    add_bidir(agg_id(p, a), core_id(a, m), &mut links);
                }
            }
        }

        // Routing tables.
        let link = |from: NodeId, to: NodeId| -> LinkId { link_of[&(from, to)] };

        let pod_of_host = |d: usize| d / (half * half);
        let edge_of_host = |d: usize| (d / half) % half;

        let mut route_index = vec![(0u32, 0u8); n_nodes * hosts];
        let mut route_pool: Vec<LinkId> = Vec::new();
        let set_route = |node: NodeId,
                         dst: usize,
                         cands: Vec<LinkId>,
                         route_index: &mut Vec<(u32, u8)>,
                         route_pool: &mut Vec<LinkId>| {
            let off = route_pool.len() as u32;
            let cnt = cands.len() as u8;
            route_pool.extend(cands);
            route_index[node as usize * hosts + dst] = (off, cnt);
        };

        for dst in 0..hosts {
            let dp = pod_of_host(dst);
            let de = edge_of_host(dst);
            // Hosts: single uplink to their edge switch.
            for p in 0..k {
                for e in 0..half {
                    for h in 0..half {
                        let hid = host_id(p, e, h);
                        if hid as usize != dst {
                            set_route(
                                hid,
                                dst,
                                vec![link(hid, edge_id(p, e))],
                                &mut route_index,
                                &mut route_pool,
                            );
                        }
                    }
                }
            }
            // Edge switches.
            for p in 0..k {
                for e in 0..half {
                    let eid = edge_id(p, e);
                    let cands = if p == dp && e == de {
                        vec![link(eid, dst as NodeId)]
                    } else {
                        (0..half).map(|a| link(eid, agg_id(p, a))).collect()
                    };
                    set_route(eid, dst, cands, &mut route_index, &mut route_pool);
                }
            }
            // Aggregation switches.
            for p in 0..k {
                for a in 0..half {
                    let aid = agg_id(p, a);
                    let cands = if p == dp {
                        vec![link(aid, edge_id(p, de))]
                    } else {
                        (0..half).map(|m| link(aid, core_id(a, m))).collect()
                    };
                    set_route(aid, dst, cands, &mut route_index, &mut route_pool);
                }
            }
            // Core switches: unique downlink to the destination pod.
            for g in 0..half {
                for m in 0..half {
                    let cid = core_id(g, m);
                    set_route(
                        cid,
                        dst,
                        vec![link(cid, agg_id(dp, g))],
                        &mut route_index,
                        &mut route_pool,
                    );
                }
            }
        }

        FatTree {
            k,
            hosts,
            nodes,
            links,
            route_index,
            route_pool,
        }
    }

    /// The arity this tree was built with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of hosts (k³/4).
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Number of switches (5k²/4).
    pub fn switches(&self) -> usize {
        self.nodes.len() - self.hosts
    }

    /// Number of unidirectional links.
    pub fn links(&self) -> usize {
        self.links.len()
    }

    /// The kind of a node.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n as usize]
    }

    /// Link endpoints.
    pub fn link(&self, l: LinkId) -> LinkDef {
        self.links[l as usize]
    }

    /// Equal-cost egress candidates at `node` toward host `dst`.
    /// Upward hops return several links; downward hops exactly one; a
    /// host's own id returns the empty slice.
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[LinkId] {
        let (off, cnt) = self.route_index[node as usize * self.hosts + dst as usize];
        &self.route_pool[off as usize..off as usize + cnt as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topology_counts() {
        let t = FatTree::new(6);
        assert_eq!(t.hosts(), 54, "54 servers");
        assert_eq!(t.switches(), 45, "45 switches");
        // Every switch has exactly 6 ports (k). Count egress links per node.
        let mut egress = vec![0usize; t.hosts() + t.switches()];
        for l in 0..t.links() {
            egress[t.link(l as LinkId).from as usize] += 1;
        }
        for (n, &e) in egress.iter().enumerate().skip(t.hosts()) {
            assert_eq!(e, 6, "switch {n} has {e} ports");
        }
        for (n, &e) in egress.iter().enumerate().take(t.hosts()) {
            assert_eq!(e, 1, "host {n} must have exactly one uplink");
        }
    }

    #[test]
    fn routing_reaches_every_pair() {
        let t = FatTree::new(4);
        for src in 0..t.hosts() as NodeId {
            for dst in 0..t.hosts() as NodeId {
                if src == dst {
                    continue;
                }
                // Walk the first candidate at each hop; must reach dst
                // within 6 hops (host-edge-agg-core-agg-edge-host).
                let mut at = src;
                let mut hops = 0;
                while at != dst {
                    let cands = t.candidates(at, dst);
                    assert!(!cands.is_empty(), "no route {at}->{dst}");
                    at = t.link(cands[0]).to;
                    hops += 1;
                    assert!(hops <= 6, "path {src}->{dst} too long");
                }
            }
        }
    }

    #[test]
    fn path_lengths_match_fat_tree_structure() {
        let t = FatTree::new(6);
        let hops = |src: NodeId, dst: NodeId| -> usize {
            let mut at = src;
            let mut h = 0;
            while at != dst {
                at = t.link(t.candidates(at, dst)[0]).to;
                h += 1;
            }
            h
        };
        // Same edge switch: host-edge-host = 2 hops.
        assert_eq!(hops(0, 1), 2);
        // Same pod, different edge: 4 hops.
        assert_eq!(hops(0, 3), 4);
        // Different pod: 6 hops.
        assert_eq!(hops(0, 53), 6);
    }

    #[test]
    fn upward_hops_have_ecmp_choice() {
        let t = FatTree::new(6);
        // Host 0's edge switch, toward a different pod: 3 agg choices.
        let edge = t.link(t.candidates(0, 53)[0]).to;
        assert_eq!(t.kind(edge), NodeKind::Edge);
        assert_eq!(t.candidates(edge, 53).len(), 3);
        // The aggregation hop: 3 core choices.
        let agg = t.link(t.candidates(edge, 53)[0]).to;
        assert_eq!(t.kind(agg), NodeKind::Agg);
        assert_eq!(t.candidates(agg, 53).len(), 3);
        // Core: single downlink.
        let core = t.link(t.candidates(agg, 53)[0]).to;
        assert_eq!(t.kind(core), NodeKind::Core);
        assert_eq!(t.candidates(core, 53).len(), 1);
    }

    #[test]
    fn all_ecmp_paths_are_valid() {
        // Every candidate at every hop must still reach the destination.
        let t = FatTree::new(4);
        fn reaches(t: &FatTree, at: NodeId, dst: NodeId, depth: usize) -> bool {
            if at == dst {
                return true;
            }
            if depth == 0 {
                return false;
            }
            t.candidates(at, dst)
                .iter()
                .all(|&l| reaches(t, t.link(l).to, dst, depth - 1))
        }
        for src in [0u32, 1, 5] {
            for dst in 0..t.hosts() as NodeId {
                if src != dst {
                    assert!(reaches(&t, src, dst, 6), "{src}->{dst}");
                }
            }
        }
    }
}
