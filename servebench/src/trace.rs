//! The traced run: one fresh set-up, then the workload's exact request
//! streams replayed in this process through the public functions the
//! server calls, in the order it calls them, with one span per call.
//! Spans stay in memory until the run ends; the per-layer metrics are
//! summaries of them plus the layers' own counters.
//!
//! Every per-layer metric is reported on every workload. A layer the
//! workload's streams never enter reads 0: `knn-cold` neither writes
//! nor routes.

use crate::inputs::{self, K, TOP};
use crate::procs::{build_index, connect, Res, Server};
use crate::stats::{self, median, Span};
use crate::workloads::{Ctx, SETUPS};
use crate::{metric, Metric};
use ned_core::{KernelProfile, NodeSignature, PreparedTree, Request, Response, TedMemo};
use ned_graph::{GraphDelta, NodeId};
use ned_index::durable::encode_batch;
use ned_index::{
    DurableIndex, DurableOptions, GraphMaintainer, NedServer, RouterOptions, RouterServer,
    ShardMap, ShardRouter, SignatureIndex, SignatureMetric, WriteOp,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Wall-clock budgets of the write replay and the delta-maintenance
/// replay.
const WRITE_REPLAY_S: f64 = 4.0;
const MAINTAIN_REPLAY_S: f64 = 2.0;
/// Requests sampled over the wire (front end, round trip, router).
const WIRE_SAMPLE: usize = 60;
/// Replayed requests whose (probe, hit) pairs time the bare kernel.
const KERNEL_REQUESTS: usize = 8;

/// In-memory span recorder. `begin`/`end` nest; the request id is
/// whatever `request` holds when a span begins.
pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        let i = self.stack.pop().expect("end without begin");
        self.spans[i].end_ns = self.now();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Durations of every span called `name`, in the given unit (ns per
    /// unit).
    fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / unit_ns)
            .collect()
    }

    /// Writes every span, one tab-separated line each (`index name
    /// start_ns end_ns parent request`), to
    /// `.bench_work/spans/<workload>-seed<n>.tsv`.
    fn write_out(&self, ctx: &Ctx) -> Res<std::path::PathBuf> {
        use std::fmt::Write as _;
        let dir = std::path::Path::new(".bench_work").join("spans");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-seed{}.tsv", ctx.params.name, ctx.seed));
        let mut text = String::from("span\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    fn median_of(&self, name: &str, unit_ns: f64) -> f64 {
        median(&self.durations(name, unit_ns))
    }

    fn mean_of(&self, name: &str, unit_ns: f64) -> f64 {
        let d = self.durations(name, unit_ns);
        d.iter().sum::<f64>() / d.len().max(1) as f64
    }
}

const US: f64 = 1e3;
const MS: f64 = 1e6;
const S: f64 = 1e9;

/// The per-layer metrics, in `BENCHMARK.json` order, all starting at 0.
struct Layers(Vec<Metric>);

impl Layers {
    fn new() -> Layers {
        let names: [(&'static str, &'static str); 47] = [
            ("server.frontend_ms", "ms"),
            ("bfs.extract_us", "us"),
            ("tree.prepare_us", "us"),
            ("signatures.query_ms", "ms"),
            ("sketch.scanned_per_query", "count"),
            ("sketch.refined_per_query", "count"),
            ("sketch.refine_ratio", "ratio"),
            ("memo.hit_ratio", "ratio"),
            ("memo.misses_per_query", "count"),
            ("memo.evictions", "count"),
            ("kernel.sweep_us", "us"),
            ("kernel.phase.bound_us", "us"),
            ("kernel.phase.collect_us", "us"),
            ("kernel.phase.canonize_us", "us"),
            ("kernel.phase.group_us", "us"),
            ("kernel.phase.transport_us", "us"),
            ("kernel.phase.expand_us", "us"),
            ("maintain.materialize_ms", "ms"),
            ("delta.to_graph_ms", "ms"),
            ("maintain.dirty_candidates", "count"),
            ("maintain.replaced", "count"),
            ("forest.upkeep_us", "us"),
            ("sketch.upkeep_us", "us"),
            ("concurrent.publish_us", "us"),
            ("concurrent.apply_ms", "ms"),
            ("wal.append_ms", "ms"),
            ("wal.bytes_per_write", "bytes"),
            ("durable.checkpoint_ms", "ms"),
            ("durable.checkpoints", "count"),
            ("durable.checkpoint_bytes", "bytes"),
            ("setup.build_s", "s"),
            ("bulk.signatures_s", "s"),
            ("signatures.from_signatures_s", "s"),
            ("signatures.save_s", "s"),
            ("setup.boot_s", "s"),
            ("signatures.load_s", "s"),
            ("signatures.snapshot_bytes", "bytes"),
            ("router.knn_ms", "ms"),
            ("router.leg_ms", "ms"),
            ("router.merge_ms", "ms"),
            ("router.frontend_ms", "ms"),
            ("router.quorum_write_ms", "ms"),
            ("router.replica_write_ms", "ms"),
            ("router.retries", "count"),
            ("router.degraded", "count"),
            ("trace.attributed_ratio", "ratio"),
            ("trace.overhead_ratio", "ratio"),
        ];
        Layers(names.iter().map(|&(n, u)| metric(n, 0.0, u)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        m.value = value;
    }
}

/// The knn request stream of the workload, in the order the untraced
/// run sends it.
fn read_stream(ctx: &Ctx) -> Vec<NodeId> {
    match ctx.params.name {
        "fleet-mixed" => {
            let order = inputs::cold_order(ctx.seed);
            (0..order.len())
                .filter(|&i| !inputs::fleet_op_is_write(ctx.seed, i))
                .map(|i| order[i])
                .collect()
        }
        _ => inputs::cold_order(ctx.seed),
    }
}

/// One knn request as the server executes it: extract the probe's
/// k-adjacent tree, canonicalize it, query the snapshot.
fn replay_query(tr: &mut Tracer, index: &SignatureIndex, ctx: &Ctx, node: NodeId) -> NodeSignature {
    tr.begin("request");
    let tree = tr.span("bfs.extract", || {
        ned_graph::bfs::k_adjacent_tree(&ctx.probe, node, K)
    });
    let sig = tr.span("tree.prepare", || {
        NodeSignature::from_prepared(node, PreparedTree::new(&tree))
    });
    tr.span("signatures.query", || index.query(&sig, TOP, 1));
    tr.end();
    sig
}

pub fn run(ctx: &Ctx) -> Res<(usize, usize, Vec<Metric>)> {
    let mut out = Layers::new();
    let mut tr = Tracer::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;

    // Set-up, once: the CLI build and the server boot, then the same
    // snapshot loaded here.
    let last = SETUPS - 1;
    let idx = ctx.work.path(&format!("idx{last}.ned"));
    let build_s = build_index(&ctx.cli, &ctx.work.path("db.edges"), &idx, K)?;
    let (args, banner) = ctx.server_args(last, &idx.to_string_lossy());
    let server = Server::spawn(&ctx.cli, &args, banner)?;
    out.set("setup.build_s", build_s);
    out.set("setup.boot_s", server.boot_s);
    out.set(
        "signatures.snapshot_bytes",
        std::fs::metadata(&idx).map_err(|e| e.to_string())?.len() as f64,
    );
    let index = tr.span("signatures.load", || SignatureIndex::load(&idx));
    let index = index.map_err(|e| format!("{}: {e}", idx.display()))?;
    out.set("signatures.load_s", tr.median_of("signatures.load", S));

    // Read replay, from the cold memo the server starts with.
    let stream = read_stream(ctx);
    let memo0 = TedMemo::global().stats();
    let sketch0 = index.sketch_stats();
    let replay_t0 = Instant::now();
    let first_span = tr.spans.len();
    let mut replayed: Vec<(NodeId, NodeSignature)> = Vec::new();
    // One thread replays a prefix of what the run's connections send,
    // for as long as the run's window: on the cold stream that is enough
    // probes to outgrow the memo, as the untraced run does.
    for &node in &stream {
        if replay_t0.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        tr.request = replayed.len() as u64;
        let sig = replay_query(&mut tr, &index, ctx, node);
        replayed.push((node, sig));
    }
    let replay_ns = replay_t0.elapsed().as_nanos() as u64;
    let replay_spans = tr.spans.len() - first_span;
    let queries = replayed.len().max(1) as f64;
    let memo = TedMemo::global().stats().since(&memo0);
    let sketch = index.sketch_stats();
    let (scanned, refined) = (
        sketch.scanned - sketch0.scanned,
        sketch.refined - sketch0.refined,
    );
    out.set("bfs.extract_us", tr.median_of("bfs.extract", US));
    out.set("tree.prepare_us", tr.median_of("tree.prepare", US));
    out.set("signatures.query_ms", tr.median_of("signatures.query", MS));
    out.set("sketch.scanned_per_query", scanned as f64 / queries);
    out.set("sketch.refined_per_query", refined as f64 / queries);
    // Useful refines: those whose hit the query returned.
    out.set(
        "sketch.refine_ratio",
        (replayed.len() * TOP) as f64 / refined.max(1) as f64,
    );
    out.set("memo.hit_ratio", memo.hit_rate());
    out.set("memo.misses_per_query", memo.misses as f64 / queries);
    out.set("memo.evictions", memo.evictions as f64);
    out.set(
        "trace.overhead_ratio",
        replay_ns as f64 / (replay_ns as f64 - replay_spans as f64 * span_cost_ns()).max(1.0),
    );
    // What the top-level spans of each request cover: its duration
    // minus its self time.
    let self_ns = stats::self_times(&tr.spans);
    let tops: Vec<f64> = tr.spans[first_span..]
        .iter()
        .zip(&self_ns[first_span..])
        .filter(|(s, _)| s.name == "request")
        .map(|(s, own)| (s.duration_ns() - own) as f64 / MS)
        .collect();

    kernel(&index, &replayed, &mut out);

    // Over the wire: the requests after the replayed prefix (so both
    // sides see them cold first).
    let wire: Vec<NodeId> = stream
        .iter()
        .skip(replayed.len())
        .take(WIRE_SAMPLE)
        .copied()
        .collect();
    let fleet = ctx.params.shards > 0;
    let local = (!fleet).then(|| NedServer::new(index.clone(), 1, 1));
    let mut rtt_first = Vec::new();
    let mut frontend = Vec::new();
    let mut client = connect(&server.addr)?;
    for &node in &wire {
        let req = ctx.query(node);
        let first = timed(|| client.request(&req));
        let warm = timed(|| client.request(&req));
        attempted += 2;
        for (r, _) in [&first, &warm] {
            if !matches!(r, Ok(Response::Hits { .. })) {
                failed += 1;
            }
        }
        rtt_first.push(first.1);
        if let Some(local) = &local {
            local.execute(&req).map_err(|e| e.to_string())?;
            let (_, exec) = timed(|| local.execute(&req));
            frontend.push(warm.1 - exec);
        }
    }
    if !frontend.is_empty() {
        out.set("server.frontend_ms", median(&frontend));
    }
    out.set("trace.attributed_ratio", median(&tops) / median(&rtt_first));

    if fleet {
        let (a, f) = router(ctx, &server, &replayed, &mut tr, &mut out)?;
        attempted += a;
        failed += f;
        writes(ctx, &index, &mut tr, &mut out)?;
        maintain(ctx, &mut tr, &mut out);
    }
    drop(client);
    server.shutdown(Duration::from_secs(60))?;
    build_split(ctx, &mut tr, &mut out)?;
    let path = tr.write_out(ctx)?;
    eprintln!(
        "servebench: traced {} requests; {} spans written to {}",
        replayed.len(),
        tr.spans.len(),
        path.display()
    );
    Ok((attempted.max(1), failed, out.0))
}

/// Runs `f`, returning its result and wall time in ms.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// What recording one begin/end span pair costs, in ns.
fn span_cost_ns() -> f64 {
    let mut tr = Tracer::new();
    let n = 20_000;
    let t = Instant::now();
    for _ in 0..n {
        tr.begin("calibrate");
        tr.end();
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// The bare kernel on (probe, hit) pairs of replayed requests, with the
/// memo off so every call sweeps: `ted_star_prepared` for the sweep, and
/// `ted_star_prepared_profiled` for its phase split (means per pair).
fn kernel(index: &SignatureIndex, replayed: &[(NodeId, NodeSignature)], out: &mut Layers) {
    let by_id: HashMap<u64, &NodeSignature> = index.forest().entries().collect();
    let memo = TedMemo::global();
    let cap = memo.capacity();
    memo.set_capacity(0);
    let mut sweeps = Vec::new();
    let mut total = KernelProfile::default();
    let mut pairs = 0u64;
    for (_, sig) in replayed.iter().take(KERNEL_REQUESTS) {
        for hit in index.query(sig, TOP, 1) {
            let other = by_id[&hit.id].prepared();
            let (_, ms) = timed(|| ned_core::ted_star_prepared(sig.prepared(), other));
            sweeps.push(ms * 1e3);
            let (_, p) = ned_core::ted_star_prepared_profiled(sig.prepared(), other);
            total.bound_ns += p.bound_ns;
            total.collect_ns += p.collect_ns;
            total.canonize_ns += p.canonize_ns;
            total.group_ns += p.group_ns;
            total.transport_ns += p.transport_ns;
            total.expand_ns += p.expand_ns;
            pairs += 1;
        }
    }
    memo.set_capacity(cap);
    let per = |ns: u64| ns as f64 / pairs.max(1) as f64 / US;
    out.set(
        "kernel.sweep_us",
        sweeps.iter().sum::<f64>() / sweeps.len().max(1) as f64,
    );
    out.set("kernel.phase.bound_us", per(total.bound_ns));
    out.set("kernel.phase.collect_us", per(total.collect_ns));
    out.set("kernel.phase.canonize_us", per(total.canonize_ns));
    out.set("kernel.phase.group_us", per(total.group_ns));
    out.set("kernel.phase.transport_us", per(total.transport_ns));
    out.set("kernel.phase.expand_us", per(total.expand_ns));
}

/// Replays the fleet's write stream (net-zero `addsig`/`remove` pairs)
/// through the durable write path a shard runs (journal per batch with
/// fsync, checkpoint every 64 batches), splitting
/// `IndexWriter::try_apply` into the in-memory apply and the WAL append.
/// The forest and sketch upkeep and the publication clone are timed on
/// the side, on clones, with the same ops.
fn writes(ctx: &Ctx, index: &SignatureIndex, tr: &mut Tracer, out: &mut Layers) -> Res<()> {
    let snap = ctx.work.path("trace.ned");
    index.save(&snap).map_err(|e| e.to_string())?;
    // The defaults `ned-cli serve --wal` runs with.
    let opts = DurableOptions::default();
    let (durable, _) = DurableIndex::recover(&snap, &ctx.work.path("trace.wal"), opts)
        .map_err(|e| format!("recover: {e}"))?;
    let mut forest = index.forest().clone();
    let mut bank = index.sketch_bank().clone();
    let order = inputs::cold_order(ctx.seed);
    let (mut batches, mut bytes, mut checkpoints) = (0u64, 0u64, 0u64);
    let mut ckpt_bytes = Vec::new();
    let t0 = Instant::now();
    let mut i = 0usize;
    let mut inserted: Option<u64> = None;
    while t0.elapsed().as_secs_f64() < WRITE_REPLAY_S || inserted.is_some() {
        tr.request = 1 << 32 | i as u64;
        tr.begin("write");
        let ops: Vec<WriteOp> = match inserted.take() {
            Some(id) => vec![WriteOp::Remove(id)],
            None => {
                let node = order[i % order.len()];
                vec![WriteOp::Insert(NodeSignature::extract(&ctx.probe, node, K))]
            }
        };
        let mut w = durable.writer();
        let record = encode_batch(w.epoch() + 1, &ops);
        let wal = w.detach_wal().ok_or("durable index without a WAL")?;
        let outcomes = tr.span("concurrent.apply", || w.try_apply(ops.clone()));
        let outcomes = outcomes.map_err(|e| e.to_string())?;
        w.attach_wal(wal);
        let appended = tr.span("wal.append", || {
            w.wal_mut().expect("attached").append(&record)
        });
        appended.map_err(|e| e.to_string())?;
        drop(w);
        if let Some(ned_index::WriteOutcome::Inserted(id)) = outcomes.first() {
            inserted = Some(*id);
        }
        bytes += record.len() as u64;
        batches += 1;
        let ckpt = tr.span("durable.checkpoint_if_due", || durable.checkpoint_if_due());
        if ckpt.map_err(|e| e.to_string())?.is_some() {
            checkpoints += 1;
            let s = tr.spans.len() - 1;
            tr.spans[s].name = "durable.checkpoint";
            ckpt_bytes.push(std::fs::metadata(&snap).map_err(|e| e.to_string())?.len() as f64);
        }
        tr.end();
        // Side measurements, outside the request span.
        tr.begin("forest.upkeep");
        for op in &ops {
            match op {
                WriteOp::Insert(sig) => {
                    forest.insert(&SignatureMetric, inserted.unwrap_or(u64::MAX), sig.clone());
                }
                WriteOp::Replace(id, sig) => {
                    forest.insert(&SignatureMetric, *id, sig.clone());
                }
                WriteOp::Remove(id) => {
                    forest.remove(&SignatureMetric, *id);
                }
            }
        }
        tr.end();
        tr.begin("sketch.upkeep");
        for op in &ops {
            match op {
                WriteOp::Insert(sig) => bank.upsert(inserted.unwrap_or(u64::MAX), sig),
                WriteOp::Replace(id, sig) => bank.upsert(*id, sig),
                WriteOp::Remove(id) => {
                    bank.remove(*id);
                }
            }
        }
        tr.end();
        let w = durable.writer();
        let published = tr.span("concurrent.publish", || w.index().clone());
        drop(w);
        drop(published);
        i += 1;
    }
    let per_batch = batches.max(1) as f64;
    out.set("forest.upkeep_us", tr.median_of("forest.upkeep", US));
    out.set("sketch.upkeep_us", tr.median_of("sketch.upkeep", US));
    out.set(
        "concurrent.publish_us",
        tr.median_of("concurrent.publish", US),
    );
    out.set("concurrent.apply_ms", tr.median_of("concurrent.apply", MS));
    out.set("wal.append_ms", tr.median_of("wal.append", MS));
    out.set("wal.bytes_per_write", bytes as f64 / per_batch);
    out.set(
        "durable.checkpoint_ms",
        tr.mean_of("durable.checkpoint", MS),
    );
    out.set("durable.checkpoints", checkpoints as f64);
    out.set("durable.checkpoint_bytes", median(&ckpt_bytes));
    Ok(())
}

/// Graph-delta maintenance, the step a router's `apply_delta` (and a
/// tracked `serve --graph`) runs for `addedge`/`deledge`: seeded
/// net-zero non-edge flips through `GraphMaintainer::materialize`, with
/// the per-batch CSR snapshot (`DynamicGraph::to_graph`) timed on the
/// side. No workload sends graph deltas over the wire (a fsync-bound
/// delta stream proved too unsteady on a shared host to gate), so this
/// replay is what keeps the layer measured.
fn maintain(ctx: &Ctx, tr: &mut Tracer, out: &mut Layers) {
    let mut m = GraphMaintainer::attach(&ctx.db, K, 0, 1);
    let flips = inputs::non_edges(&ctx.db, ctx.seed, 1 << 14);
    let (mut batches, mut dirty, mut replaced) = (0u64, 0u64, 0u64);
    let t0 = Instant::now();
    for (i, &(a, b)) in flips.iter().enumerate() {
        if t0.elapsed().as_secs_f64() >= MAINTAIN_REPLAY_S {
            break;
        }
        tr.request = 3 << 32 | i as u64;
        for delta in [GraphDelta::AddEdge(a, b), GraphDelta::RemoveEdge(a, b)] {
            let batch = tr.span("maintain.materialize", || m.materialize(&[delta]));
            dirty += batch.report.candidates as u64;
            replaced += batch.report.replaced as u64;
            batches += 1;
            tr.span("delta.to_graph", || m.graph().to_graph());
        }
    }
    let per_batch = batches.max(1) as f64;
    out.set(
        "maintain.materialize_ms",
        tr.median_of("maintain.materialize", MS),
    );
    out.set("delta.to_graph_ms", tr.median_of("delta.to_graph", MS));
    out.set("maintain.dirty_candidates", dirty as f64 / per_batch);
    out.set("maintain.replaced", replaced as f64 / per_batch);
}

/// The router's layers, against the shard processes the `route` process
/// spawned: an in-process [`ShardRouter`] over the same replicas, each
/// shard's direct `sig` leg, the `route` front end, and quorum writes
/// against one direct single-replica write. Returns `(attempted,
/// failed)` wire ops.
fn router(
    ctx: &Ctx,
    server: &Server,
    replayed: &[(NodeId, NodeSignature)],
    tr: &mut Tracer,
    out: &mut Layers,
) -> Res<(usize, usize)> {
    let (shards, replicas) = (ctx.params.shards, ctx.params.replicas);
    if server.shard_addrs.len() != shards * replicas {
        return Err(format!(
            "router announced {} replicas",
            server.shard_addrs.len()
        ));
    }
    let index = ctx.served_index()?;
    let (map, _) = ned_index::split_index(&index, shards);
    let groups: Vec<Vec<String>> = server
        .shard_addrs
        .chunks(replicas)
        .map(|g| g.to_vec())
        .collect();
    // Before anything here writes, read the route process's own view.
    let mut route = connect(&server.addr)?;
    let stats = match route.request(&Request::Stats) {
        Ok(Response::Info { body }) => body,
        other => return Err(format!("router stats answered {other:?}")),
    };
    out.set("router.degraded", stats.matches("degraded").count() as f64);
    let opts = RouterOptions {
        k: K,
        next_id: index.next_id(),
        ..Default::default()
    };
    let local = RouterServer::new(
        ShardRouter::connect(ShardMap::new(map.starts().to_vec())?, groups.clone(), opts)
            .map_err(|e| e.to_string())?,
    );
    let mut legs: Vec<_> = groups.iter().map(|g| connect(&g[0])).collect::<Res<_>>()?;
    let (mut knn, mut slowest, mut merge) = (Vec::new(), Vec::new(), Vec::new());
    let (mut front, mut rtt) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut retries) = (0, 0, 0);
    let first_span = tr.spans.len();
    for (i, (node, _)) in replayed.iter().take(WIRE_SAMPLE).enumerate() {
        // The `route` process first (the first send warms the shards),
        // then the same request replayed here against warm shards.
        let req = ctx.query(*node);
        for _ in 0..2 {
            let (wire, wire_ms) = timed(|| route.request(&req));
            attempted += 1;
            if !matches!(wire, Ok(Response::Hits { .. })) {
                failed += 1;
            }
            rtt.push(wire_ms);
        }
        tr.request = 2 << 32 | i as u64;
        tr.begin("request");
        let tree = tr.span("bfs.extract", || {
            ned_graph::bfs::k_adjacent_tree(&ctx.probe, *node, K)
        });
        let sig = tr.span("tree.prepare", || {
            NodeSignature::from_prepared(*node, PreparedTree::new(&tree))
        });
        let shape = ned_tree::serialize::print(sig.tree());
        let r = tr.span("router.knn", || local.router().knn(&shape, TOP, None));
        tr.end();
        if let Err(e) = r {
            retries += usize::from(e.is_retryable());
            continue;
        }
        let ms = tr.spans[tr.spans.len() - 1].duration_ns() as f64 / MS;
        let mut leg_max = 0.0f64;
        for leg in legs.iter_mut() {
            let req = Request::Sig {
                shape: shape.clone(),
                top: TOP,
                within: None,
            };
            let (r, leg_ms) = timed(|| leg.request(&req));
            r.map_err(|e| e.to_string())?;
            leg_max = leg_max.max(leg_ms);
        }
        knn.push(ms);
        slowest.push(leg_max);
        merge.push(ms - leg_max);
        let (_, exec_ms) = timed(|| local.execute(&req));
        front.push(rtt[rtt.len() - 1] - exec_ms);
    }
    // The fleet's attribution: what the replayed request's top-level
    // spans cover of the warm round trip through `route`.
    let self_ns = stats::self_times(&tr.spans);
    let tops: Vec<f64> = tr.spans[first_span..]
        .iter()
        .zip(&self_ns[first_span..])
        .filter(|(s, _)| s.name == "request")
        .map(|(s, own)| (s.duration_ns() - own) as f64 / MS)
        .collect();
    let warm: Vec<f64> = rtt.iter().skip(1).step_by(2).copied().collect();
    out.set("trace.attributed_ratio", median(&tops) / median(&warm));
    out.set("router.knn_ms", median(&knn));
    out.set("router.leg_ms", median(&slowest));
    out.set("router.merge_ms", median(&merge));
    out.set("router.frontend_ms", median(&front));
    out.set("router.retries", retries as f64);

    // Quorum writes through the router against a direct write to one
    // replica of a standalone shard with the same WAL policy.
    let solo_idx = ctx.work.path("solo.ned");
    let (_, parts) = ned_index::split_index(&index, shards);
    parts[0].save(&solo_idx).map_err(|e| e.to_string())?;
    let solo = Server::spawn(
        &ctx.cli,
        &[
            "serve".into(),
            solo_idx.to_string_lossy().into_owned(),
            "--tcp".into(),
            "127.0.0.1:0".into(),
            "--wal".into(),
            ctx.work.arg("solo.wal"),
        ],
        "serving ",
    )?;
    let mut direct = connect(&solo.addr)?;
    let (mut quorum, mut single) = (Vec::new(), Vec::new());
    for (i, (_, sig)) in replayed.iter().take(WIRE_SAMPLE / 2).enumerate() {
        let shape = ned_tree::serialize::print(sig.tree());
        let (id, ms) = timed(|| local.router().insert_shape(&shape));
        let id = id.map_err(|e| e.to_string())?;
        quorum.push(ms);
        let (_, ms) = timed(|| local.router().remove(id));
        quorum.push(ms);
        let id = index.next_id() + 1_000_000 + i as u64;
        let (r, ms) = timed(|| direct.request(&Request::PutSig { id, shape }));
        r.map_err(|e| e.to_string())?;
        single.push(ms);
        let (r, ms) = timed(|| direct.request(&Request::Remove { id }));
        r.map_err(|e| e.to_string())?;
        single.push(ms);
    }
    out.set("router.quorum_write_ms", median(&quorum));
    out.set("router.replica_write_ms", median(&single));
    drop(direct);
    solo.shutdown(Duration::from_secs(30))?;
    Ok((attempted, failed))
}

/// `ned-cli index build` split into its parts, in process: bulk
/// signature extraction, the index build, the snapshot save (with the
/// CLI's defaults: all cores, threshold 1024, seed 42).
fn build_split(ctx: &Ctx, tr: &mut Tracer, out: &mut Layers) -> Res<()> {
    let nodes: Vec<NodeId> = ctx.db.nodes().collect();
    let sigs = tr.span("bulk.signatures", || {
        ned_core::bulk_signatures(&ctx.db, &nodes, K, 0)
    });
    let index = tr.span("signatures.from_signatures", || {
        SignatureIndex::from_signatures(K, 1024, 42, sigs)
    });
    let path = ctx.work.path("split.ned");
    tr.span("signatures.save", || index.save(&path))
        .map_err(|e| e.to_string())?;
    out.set("bulk.signatures_s", tr.median_of("bulk.signatures", S));
    out.set(
        "signatures.from_signatures_s",
        tr.median_of("signatures.from_signatures", S),
    );
    out.set("signatures.save_s", tr.median_of("signatures.save", S));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let per_layer = &json[json.find("\"per_layer\"").unwrap()..];
        let layers = Layers::new();
        for m in &layers.0 {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(per_layer.contains(&entry), "{entry} missing from per_layer");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), layers.0.len());
    }

    #[test]
    fn spans_nest_and_carry_their_request() {
        let mut tr = Tracer::new();
        tr.request = 7;
        tr.begin("request");
        tr.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        tr.end();
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!((tr.spans[0].request, tr.spans[1].request), (7, 7));
        let own = stats::self_times(&tr.spans);
        assert!(own[0] < tr.spans[0].duration_ns() - 1_000_000);
        assert!(tr.median_of("inner", MS) >= 2.0);
    }
}
