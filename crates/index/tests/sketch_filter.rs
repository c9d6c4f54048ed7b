//! Property tests for the sketch filter tier.
//!
//! Two invariants keep the tier honest:
//!
//! 1. **Soundness of the bound** — the scalar sketch distance never
//!    exceeds NED, on every graph family the paper benchmarks (BA, ER,
//!    road grids) and every extraction depth `k ∈ 1..=5`. A violated
//!    bound would mean silent false drops in exact mode.
//! 2. **Bit-identical exact mode** — with [`SketchMode::Exact`] (the
//!    default), `query`/`range` return exactly what the uncut path
//!    ([`SketchMode::Off`]) and the full scan return — ids *and*
//!    distance bits — under arbitrary insert/replace/remove churn and
//!    across a save/load round trip of the sketch-carrying snapshot
//!    format. Since all three read the same bank rows, each is also
//!    checked against a naive scan of an independent `BTreeMap` model of
//!    the live set, so a lost or duplicated row cannot hide.

use ned_core::NodeSignature;
use ned_graph::{generators, Graph};
use ned_index::sketch::Sketch;
use ned_index::{ForestHit, SignatureIndex, SketchMode};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Hits as `(id, distance bits)`: what "bit-identical" compares.
fn bits(hits: &[ForestHit]) -> Vec<(u64, u64)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

/// The naive oracle: NED from `q` to every model entry within `radius`,
/// sorted by `(distance, id)` and cut to `top`.
fn model_scan(
    model: &BTreeMap<u64, NodeSignature>,
    q: &NodeSignature,
    top: usize,
    radius: u64,
) -> Vec<(u64, u64)> {
    let mut hits: Vec<(u64, u64)> = model
        .iter()
        .map(|(&id, sig)| (q.distance(sig), id))
        .filter(|&(d, _)| d <= radius)
        .collect();
    hits.sort_unstable();
    hits.truncate(top);
    hits.into_iter()
        .map(|(d, id)| (id, (d as f64).to_bits()))
        .collect()
}

/// One of the paper's three benchmark graph families, picked by `kind`.
fn sample_graph(kind: u8, rng: &mut SmallRng) -> Graph {
    match kind % 3 {
        0 => generators::barabasi_albert(60, 2, rng),
        1 => generators::erdos_renyi_gnm(50, 110, rng),
        _ => generators::road_network(8, 6, 0.4, 0.05, rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariant 1: `sketch_lower_bound(a, b) <= NED(a, b)` across
    /// BA/ER/road graphs and `k ∈ 1..=5`.
    #[test]
    fn sketch_l1_lower_bounds_ned(
        seed in any::<u64>(),
        kind_a in 0u8..3,
        kind_b in 0u8..3,
        k in 1usize..=5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ga = sample_graph(kind_a, &mut rng);
        let gb = sample_graph(kind_b, &mut rng);
        // A spread of nodes from both graphs, cross-compared.
        let mut sigs = Vec::new();
        for v in ga.nodes().step_by(7) {
            sigs.push(NodeSignature::extract(&ga, v, k));
        }
        for v in gb.nodes().step_by(9) {
            sigs.push(NodeSignature::extract(&gb, v, k));
        }
        let sketches: Vec<Sketch> = sigs.iter().map(Sketch::of).collect();
        for (i, a) in sigs.iter().enumerate() {
            for (j, b) in sigs.iter().enumerate().skip(i) {
                let d = a.distance(b);
                let lb = sketches[i].lower_bound(&sketches[j]);
                prop_assert!(
                    lb <= d,
                    "sketch bound {lb} exceeds NED {d} (k = {k}, pair {i}/{j})"
                );
                // The bound is a metric-style quantity: symmetric, and
                // zero on identical signatures.
                prop_assert_eq!(lb, sketches[j].lower_bound(&sketches[i]));
            }
        }
    }

    /// Invariant 2: exact-mode results are bit-identical to the uncut
    /// path, the full scan and a naive scan of an independent model of
    /// the live set, under churn and across a save/load round trip.
    #[test]
    fn exact_and_off_modes_match_a_model_scan(
        seed in any::<u64>(),
        threshold in 1..48usize,
        churn in 10..60usize,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g1 = generators::barabasi_albert(80, 2, &mut rng);
        let g2 = generators::road_network(7, 5, 0.4, 0.1, &mut rng);
        let mut index = SignatureIndex::new(3, threshold, seed);
        let mut model: BTreeMap<u64, NodeSignature> = BTreeMap::new();
        for g in [&g1, &g2] {
            let ids = index.insert_graph(g, &g.nodes().collect::<Vec<_>>());
            for (id, v) in ids.zip(g.nodes()) {
                model.insert(id, NodeSignature::extract(g, v, 3));
            }
        }
        prop_assert_eq!(index.sketch_mode(), SketchMode::Exact);

        // Interleaved removes, re-inserts and in-place replacements so
        // the bank tracks swaps and overwrites — not just the bulk build.
        let pool: Vec<NodeSignature> = g1
            .nodes()
            .map(|v| NodeSignature::extract(&g1, v, 3))
            .collect();
        for _ in 0..churn {
            let sig = pool[rng.gen_range(0..pool.len())].clone();
            match rng.gen_range(0..3u32) {
                0 => {
                    let id = rng.gen_range(0..115u64);
                    prop_assert_eq!(index.remove(id), model.remove(&id).is_some());
                }
                1 => {
                    let id = index.insert(sig.clone());
                    prop_assert!(model.insert(id, sig).is_none(), "id {} reused", id);
                }
                _ => {
                    let id = rng.gen_range(0..index.next_id() + 5);
                    prop_assert_eq!(index.insert_at(id, sig.clone()), !model.contains_key(&id));
                    model.insert(id, sig);
                }
            }
        }
        prop_assert_eq!(index.len(), model.len());
        let mut live: Vec<u64> = index.entries().map(|(id, _)| id).collect();
        live.sort_unstable();
        prop_assert_eq!(live, model.keys().copied().collect::<Vec<_>>());

        let mut off = index.clone();
        off.set_sketch_mode(SketchMode::Off);
        let reloaded = SignatureIndex::from_bytes(&index.to_bytes()).expect("round trip");
        prop_assert_eq!(reloaded.sketch_mode(), SketchMode::Exact);
        let mut reloaded_off = reloaded.clone();
        reloaded_off.set_sketch_mode(SketchMode::Off);
        let served = [&index, &off, &reloaded, &reloaded_off];

        for probe in [0u32, 39, 79] {
            let q = NodeSignature::extract(&g1, probe, 3);
            for k in [1usize, 5, 12] {
                let sketched = index.query(&q, k, 0);
                prop_assert_eq!(&sketched, &off.query(&q, k, 0), "knn k = {}", k);
                prop_assert_eq!(&sketched, &off.scan(&q, k), "scan k = {}", k);
                prop_assert_eq!(&sketched, &reloaded.query(&q, k, 0), "reload k = {}", k);
                let want = model_scan(&model, &q, k, u64::MAX);
                for (i, s) in served.iter().enumerate() {
                    prop_assert_eq!(&bits(&s.query(&q, k, 0)), &want, "model knn k = {}, #{}", k, i);
                    prop_assert_eq!(&bits(&s.scan(&q, k)), &want, "model scan k = {}, #{}", k, i);
                }
            }
            for radius in [0u64, 3, 10] {
                let sketched = index.range(&q, radius, 0);
                prop_assert_eq!(
                    &sketched,
                    &off.range(&q, radius, 0),
                    "range r = {}", radius
                );
                prop_assert_eq!(
                    &sketched,
                    &reloaded.range(&q, radius, 0),
                    "reload range r = {}", radius
                );
                let want = model_scan(&model, &q, usize::MAX, radius);
                for (i, s) in served.iter().enumerate() {
                    prop_assert_eq!(
                        &bits(&s.range(&q, radius, 0)),
                        &want,
                        "model range r = {}, #{}", radius, i
                    );
                }
            }
        }
    }
}

/// Approximate mode must stay a subset story, not a correctness story:
/// every hit it returns carries the true distance, even when it drops
/// neighbors. (Recall itself is measured in the benchmark harness.)
#[test]
fn approx_mode_returns_true_distances() {
    let mut rng = SmallRng::seed_from_u64(99);
    let g = generators::barabasi_albert(150, 3, &mut rng);
    let mut index = SignatureIndex::new(3, 64, 7);
    index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
    index.set_sketch_mode(SketchMode::Approx);
    for probe in [2u32, 50, 149] {
        let q = NodeSignature::extract(&g, probe, 3);
        for hit in index.query(&q, 8, 0) {
            let sig = index.get(hit.id).expect("hit is live");
            assert_eq!(hit.distance as u64, q.distance(sig), "id {}", hit.id);
        }
    }
}
