//! Seeded workload inputs. Everything a run sends is a pure function of
//! `--seed`: probe orders and the write streams, over a fixed pair of
//! seeded graphs.

use ned_graph::{generators, Graph, NodeId};
use rand::prelude::*;

/// Nodes of the indexed graph and of the probe graph (both BA, m = 3).
pub const NODES: usize = 20_000;
/// Edges each new BA node attaches with.
pub const BA_M: usize = 3;
/// Signature depth of the index.
pub const K: usize = 3;
/// Hits per knn request.
pub const TOP: usize = 10;
/// Load connections (the box has 2 cores).
pub const CONNS: usize = 2;

/// Derives an independent stream seed from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix(seed, stream))
}

/// Seed of the two graphs. They are a fixed corpus, like a benchmark
/// dataset: a BA graph's hub structure sets what a probe costs, so
/// re-drawing the graphs per run would swamp the run-to-run spread.
/// `--seed` draws everything that is sent: probe orders, the fleet's op
/// mix and the replayed edge flips.
pub const GRAPH_SEED: u64 = 0x0BA2_0000;

/// The indexed graph.
pub fn db_graph() -> Graph {
    generators::barabasi_albert(NODES, BA_M, &mut rng(GRAPH_SEED, 1))
}

/// The probe graph: an independent BA graph of the same size, so every
/// knn request is an inter-graph query.
pub fn probe_graph() -> Graph {
    generators::barabasi_albert(NODES, BA_M, &mut rng(GRAPH_SEED, 2))
}

/// Every probe node once, in a seeded order (the cold stream).
pub fn cold_order(seed: u64) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..NODES as NodeId).collect();
    order.shuffle(&mut rng(seed, 3));
    order
}

/// `len` seeded node pairs that are not edges of `g` (and not loops):
/// each is flipped on and straight back off, so the churn is net zero.
pub fn non_edges(g: &Graph, seed: u64, len: usize) -> Vec<(NodeId, NodeId)> {
    let mut r = rng(seed, 5);
    let n = g.num_nodes() as NodeId;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let a = r.gen_range(0..n);
        let b = r.gen_range(0..n);
        if a != b && !g.has_edge(a, b) {
            out.push((a, b));
        }
    }
    out
}

/// Whether op `i` of the `fleet-mixed` stream is a write pair (about
/// one op in ten).
pub fn fleet_op_is_write(seed: u64, i: usize) -> bool {
    mix(mix(seed, 6), i as u64).is_multiple_of(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(cold_order(7)[..50], cold_order(7)[..50]);
        assert_ne!(cold_order(7)[..50], cold_order(8)[..50]);
        let writes = (0..10_000).filter(|&i| fleet_op_is_write(7, i)).count();
        assert!((800..1200).contains(&writes));
    }
}
