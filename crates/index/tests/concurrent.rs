//! Linearizability-style pinning of the concurrent serving layer:
//! N reader threads run knn/range queries while a single writer churns
//! the index with insert/remove/replace batches. Every reader result
//! must equal a linear scan over **some snapshot the writer actually
//! published** — same hits, same membership, no torn reads — which is
//! checked two ways:
//!
//! 1. on the spot: the query result is compared against a full linear
//!    scan of the *same* snapshot `Arc` (snapshot self-consistency), and
//! 2. after the fact: every snapshot pointer a reader observed is
//!    matched (by `Arc::ptr_eq`) against the writer's publication log,
//!    and the id set the reader saw must equal the id set the writer's
//!    master held at that publication (membership consistency).
//!
//! The writer is the only publisher, so logging `reader.snapshot()`
//! right after each `apply` returns captures exactly the published
//! `Arc` — that single-writer property is what the whole scheme rests
//! on, and what this test would break if publication ever tore.

use ned_core::NodeSignature;
use ned_graph::generators;
use ned_index::{ConcurrentNedIndex, SignatureIndex, WriteOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

fn sorted_ids(index: &SignatureIndex) -> Vec<u64> {
    let mut ids: Vec<u64> = index.entries().map(|(id, _)| id).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn readers_race_a_churning_writer_without_torn_reads() {
    let mut rng = SmallRng::seed_from_u64(0xC0C0);
    let g = generators::barabasi_albert(150, 2, &mut rng);
    let nodes: Vec<u32> = g.nodes().collect();
    // Small freeze threshold: the churn below repeatedly merges shards
    // and trips compactions, which is exactly where torn state would
    // hide.
    let mut index = SignatureIndex::new(2, 16, 3);
    index.insert_graph(&g, &nodes[..100]);
    let spare: Vec<NodeSignature> = ned_core::signatures(&g, &nodes[100..], 2);
    let probes: Vec<NodeSignature> = ned_core::signatures(&g, &[0, 31, 77, 140], 2);

    let (mut writer, reader) = ConcurrentNedIndex::split(index);
    // Publication log: (published snapshot, the master's live id set at
    // that point). Seeded with the initial epoch-0 state.
    let log: Mutex<Vec<(Arc<SignatureIndex>, Vec<u64>)>> =
        Mutex::new(vec![(reader.snapshot(), sorted_ids(&reader.snapshot()))]);

    const READERS: usize = 3;
    const READS_PER_THREAD: usize = 30;
    const BATCHES: usize = 40;

    // (snapshot ptr, ids the scan saw) observations, checked post-join.
    let observations: Mutex<Vec<(Arc<SignatureIndex>, Vec<u64>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for t in 0..READERS {
            let reader = reader.clone();
            let probes = &probes;
            let observations = &observations;
            scope.spawn(move || {
                for i in 0..READS_PER_THREAD {
                    let probe = &probes[(t + i) % probes.len()];
                    let snap = reader.snapshot();
                    // knn against the snapshot must equal a linear scan
                    // over that same snapshot, bit for bit.
                    let k = 1 + (i % 5);
                    let fast = snap.query(probe, k, 1);
                    let slow = snap.scan(probe, k);
                    assert_eq!(fast, slow, "reader {t} iter {i}: knn tore");
                    // range too (radius exercises the bounded kernel).
                    let fast_r = snap.range(probe, 3, 1);
                    let mut slow_r = snap.scan(probe, snap.len());
                    slow_r.retain(|h| h.distance <= 3.0);
                    assert_eq!(fast_r, slow_r, "reader {t} iter {i}: range tore");
                    observations
                        .lock()
                        .unwrap()
                        .push((Arc::clone(&snap), sorted_ids(&snap)));
                }
            });
        }

        // The single writer: batches of mixed churn; log each published
        // snapshot with the id set it must contain.
        let mut wrng = SmallRng::seed_from_u64(7);
        for b in 0..BATCHES {
            let mut batch = Vec::new();
            for _ in 0..3 {
                match wrng.gen_range(0..3u32) {
                    0 => batch.push(WriteOp::Insert(
                        spare[wrng.gen_range(0..spare.len())].clone(),
                    )),
                    1 => batch.push(WriteOp::Remove(wrng.gen_range(0..180u64))),
                    _ => batch.push(WriteOp::Replace(
                        wrng.gen_range(0..120u64),
                        spare[wrng.gen_range(0..spare.len())].clone(),
                    )),
                }
            }
            writer.apply(batch);
            let published = reader.snapshot();
            assert_eq!(
                reader.epoch(),
                b as u64 + 1,
                "single writer publishes exactly once per batch"
            );
            let ids = sorted_ids(writer.index());
            log.lock().unwrap().push((published, ids));
        }
    });

    // Post-join: every snapshot any reader saw must be one the writer
    // published, holding exactly the ids the writer gave it.
    let log = log.into_inner().unwrap();
    let observations = observations.into_inner().unwrap();
    assert_eq!(observations.len(), READERS * READS_PER_THREAD);
    for (snap, seen_ids) in &observations {
        let published = log
            .iter()
            .find(|(p, _)| Arc::ptr_eq(p, snap))
            .unwrap_or_else(|| panic!("reader saw a snapshot that was never published"));
        assert_eq!(
            &published.1, seen_ids,
            "snapshot membership diverged from the writer's state at publication"
        );
    }
    // The writer ended where the last published snapshot says it did.
    assert_eq!(sorted_ids(writer.index()), log.last().unwrap().1);
}

#[test]
fn long_reads_pin_old_snapshots_while_epochs_advance() {
    let mut rng = SmallRng::seed_from_u64(11);
    let g = generators::barabasi_albert(80, 2, &mut rng);
    let nodes: Vec<u32> = g.nodes().collect();
    let mut index = SignatureIndex::new(2, 8, 5);
    index.insert_graph(&g, &nodes);
    let probe = NodeSignature::extract(&g, 13, 2);

    let (mut writer, reader) = ConcurrentNedIndex::split(index);
    let old = reader.snapshot();
    let before = old.scan(&probe, 10);
    // Heavy churn: remove everything, then refill with different content.
    for id in 0..80u64 {
        writer.remove(id);
    }
    assert_eq!(reader.len(), 0, "new snapshots see the empty state");
    assert_eq!(reader.epoch(), 80);
    // The pinned snapshot still answers exactly as before the churn.
    assert_eq!(old.len(), 80);
    assert_eq!(old.scan(&probe, 10), before);
    assert_eq!(old.query(&probe, 10, 1), before);
}
