//! Building and loading a [`SignatureIndex`] computes no distance.
//!
//! The index's only store is its sketch bank, so a bulk build is one
//! sketch pass and a load adopts the persisted rows. Any TED\* call on
//! either path would be a candidate structure being built that no query
//! reads. Every TED\* call consults the process-wide [`TedMemo`], so its
//! hit + miss count is a call counter. This binary holds a single test
//! so no concurrently running test shares that counter.

use ned_core::{bulk_signatures, TedMemo};
use ned_graph::generators;
use ned_index::SignatureIndex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn ted_calls() -> u64 {
    let stats = TedMemo::global().stats();
    stats.hits + stats.misses
}

#[test]
fn build_and_load_compute_no_distance() {
    let mut rng = SmallRng::seed_from_u64(2000);
    let g = generators::barabasi_albert(2000, 3, &mut rng);
    let nodes: Vec<u32> = g.nodes().collect();
    let sigs = bulk_signatures(&g, &nodes, 3, 0);

    let before = ted_calls();
    let index = SignatureIndex::from_signatures(3, 1024, 42, sigs);
    assert_eq!(ted_calls() - before, 0, "TED* calls during from_signatures");

    let bytes = index.to_bytes();
    let before = ted_calls();
    let back = SignatureIndex::from_bytes(&bytes).expect("round trip");
    assert_eq!(ted_calls() - before, 0, "TED* calls during from_bytes");
    assert_eq!(back.len(), 2000);

    // The counter does see distances: one query moves it.
    let probe = back.get(7).expect("id 7 is live").clone();
    let before = ted_calls();
    assert_eq!(back.query(&probe, 3, 1)[0].distance, 0.0);
    assert!(ted_calls() > before, "a query's refines consult the memo");
}
