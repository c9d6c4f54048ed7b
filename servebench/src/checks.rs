//! Exact output checks. A mismatch aborts the run with an error; it is
//! never counted as a failed op.

use crate::inputs::{mix, K, TOP};
use crate::load::Captured;
use crate::procs::Res;
use ned_core::{NodeSignature, WireHit};
use ned_graph::Graph;
use ned_index::{ForestHit, SignatureIndex};
use std::collections::HashMap;

/// Replies checked per run (a seeded sample of those captured).
pub const CHECKS: usize = 16;

/// Picks up to [`CHECKS`] captured replies in a seeded order of their
/// probe nodes, so which replies are checked does not depend on timing.
pub fn sample(mut captured: Vec<Captured>, seed: u64) -> Vec<Captured> {
    captured.sort_by_key(|c| (mix(seed, u64::from(c.node)), c.node));
    captured.dedup_by_key(|c| c.node);
    captured.truncate(CHECKS);
    captured
}

fn key(hits: &[WireHit]) -> Vec<(u64, u64)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

fn forest_key(hits: &[ForestHit]) -> Vec<(u64, u64)> {
    hits.iter().map(|h| (h.id, h.distance.to_bits())).collect()
}

/// Every sampled reply must equal an in-process linear
/// [`SignatureIndex::scan`] of the same index hit for hit: ids and
/// distance bits. `extras` maps ids a concurrent writer inserted (and
/// removed again) to their signatures: a reply may rank one of them if
/// it was live when the query ran, so the expected answer is the scan
/// merged with exactly the extras the reply names. Returns how many
/// replies were checked.
pub fn knn_replies(
    index: &SignatureIndex,
    probe: &Graph,
    replies: &[Captured],
    extras: &HashMap<u64, NodeSignature>,
) -> Res<usize> {
    let chunks: Vec<&[Captured]> = replies.chunks(replies.len().div_ceil(2).max(1)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || -> Res<()> {
                    for c in chunk {
                        let sig = NodeSignature::extract(probe, c.node, K);
                        let mut expected = forest_key(&index.scan(&sig, TOP));
                        for h in c.hits.iter().filter(|h| !index_has(index, h.id)) {
                            let extra = extras.get(&h.id).ok_or_else(|| {
                                format!("probe {}: reply names unknown id {}", c.node, h.id)
                            })?;
                            let mut one = SignatureIndex::new(K, 1024, 0);
                            one.insert_at(h.id, extra.clone());
                            expected.extend(forest_key(&one.scan(&sig, 1)));
                        }
                        expected.sort_by(|a, b| {
                            f64::from_bits(a.1)
                                .total_cmp(&f64::from_bits(b.1))
                                .then(a.0.cmp(&b.0))
                        });
                        expected.truncate(TOP);
                        let got = key(&c.hits);
                        if got != expected {
                            return Err(format!(
                                "probe {}: reply {got:?} != linear scan {expected:?}",
                                c.node
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("check thread"))
    })?;
    Ok(replies.len())
}

fn index_has(index: &SignatureIndex, id: u64) -> bool {
    index.get(id).is_some()
}
