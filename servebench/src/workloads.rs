//! The two serving workloads, run against fresh `ned-cli` processes.
//! Each returns the end-to-end samples of its timed window plus what it
//! needs for the exact checks.

use crate::checks;
use crate::inputs::{self, mix, CONNS, K, TOP};
use crate::load::{Captured, Conn, Kind};
use crate::procs::{build_index, Res, Server, WorkDir};
use crate::stats::{median, Sample};
use ned_core::{NodeSignature, Request, Response};
use ned_graph::{Graph, NodeId};
use ned_index::SignatureIndex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fixed parameters of every workload; `BENCHMARK.json` states the same
/// values in each workload's `why` (checked at start-up).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub name: &'static str,
    /// How the workload's `why` in `BENCHMARK.json` ends: its fixed
    /// parameters.
    pub tag: &'static str,
    /// Shards × replicas (fleet-mixed).
    pub shards: usize,
    pub replicas: usize,
}

pub const WORKLOADS: [Params; 2] = [
    Params {
        name: "knn-cold",
        tag: "[BA-20000 k=3 top=10; 2 conns closed; distinct probes]",
        shards: 0,
        replicas: 0,
    },
    Params {
        name: "fleet-mixed",
        tag: "[route 2 shards x 2 replicas, majority quorum; 2 conns closed, 10% writes]",
        shards: 2,
        replicas: 2,
    },
];

/// Set-ups per run (index build + boot): `setup_s` is their median, and
/// the last one serves the load.
pub const SETUPS: usize = 2;

/// The shared state of one run.
pub struct Ctx {
    pub cli: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub params: Params,
    pub work: WorkDir,
    pub db: Graph,
    pub probe: Graph,
}

impl Ctx {
    pub fn new(cli: PathBuf, seed: u64, seconds: f64, params: Params) -> Res<Ctx> {
        let work = WorkDir::create(params.name)?;
        let db = inputs::db_graph();
        let probe = inputs::probe_graph();
        for (g, name) in [(&db, "db.edges"), (&probe, "probe.edges")] {
            ned_graph::io::write_edge_list(g, &work.path(name)).map_err(|e| e.to_string())?;
        }
        Ok(Ctx {
            cli,
            seed,
            seconds,
            params,
            work,
            db,
            probe,
        })
    }

    /// `query <probe.edges> <node> 10`.
    pub fn query(&self, node: NodeId) -> Request {
        Request::Query {
            path: self.work.arg("probe.edges"),
            node,
            top: TOP,
        }
    }

    /// Whether a reply to `node` is kept for the exact check.
    pub fn capture(&self, node: NodeId) -> bool {
        mix(self.seed ^ 0xC4EC, u64::from(node)).is_multiple_of(4)
    }

    /// The `serve`/`route` arguments of set-up `i` over index `idx`.
    pub fn server_args(&self, i: usize, idx: &str) -> (Vec<String>, &'static str) {
        let p = &self.params;
        let role = if p.shards > 0 { "route" } else { "serve" };
        let mut args: Vec<String> = vec![
            role.into(),
            idx.into(),
            "--tcp".into(),
            "127.0.0.1:0".into(),
        ];
        if p.shards > 0 {
            args.extend([
                "--shards".into(),
                p.shards.to_string(),
                "--replicas".into(),
                p.replicas.to_string(),
                "--shard-dir".into(),
                self.work.arg(&format!("fleet{i}")),
                "--wal-dir".into(),
                self.work.arg(&format!("wal{i}")),
            ]);
            return (args, "routing fleet on");
        }
        (args, "serving ")
    }

    /// Sets up [`SETUPS`] times: `ned-cli index build` from the edge
    /// list, then spawn until the first good `epoch` reply. All but the
    /// last server are shut down again. Returns the last server, the
    /// median set-up time, and the per-part medians `(build, boot)`.
    pub fn setup(&self) -> Res<(Server, f64, f64, f64)> {
        let (mut totals, mut builds, mut boots) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        for i in 0..SETUPS {
            let idx = self.work.arg(&format!("idx{i}.ned"));
            let build_s = build_index(&self.cli, &self.work.path("db.edges"), idx.as_ref(), K)?;
            let (args, banner) = self.server_args(i, &idx);
            let server = Server::spawn(&self.cli, &args, banner)?;
            totals.push(build_s + server.boot_s);
            builds.push(build_s);
            boots.push(server.boot_s);
            if let Some(prev) = last.replace(server) {
                Server::shutdown(prev, Duration::from_secs(30))?;
            }
        }
        let last = last.expect("every workload sets up at least once");
        Ok((last, median(&totals), median(&builds), median(&boots)))
    }

    /// The index the serving process loaded (for the exact checks).
    pub fn served_index(&self) -> Res<SignatureIndex> {
        let path = self.work.path(&format!("idx{}.ned", SETUPS - 1));
        SignatureIndex::load(&path).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// What the timed window of a run produced.
pub struct Measured {
    pub setup_s: f64,
    pub build_s: f64,
    pub boot_s: f64,
    pub window_s: f64,
    pub ops: Vec<(Kind, Sample)>,
    pub rss_mb: f64,
    pub checked: usize,
    /// Free-form facts for the info line (`name`, value).
    pub info: Vec<(String, String)>,
}

impl Measured {
    pub fn samples(&self, kind: Option<Kind>) -> Vec<Sample> {
        self.ops
            .iter()
            .filter(|(k, _)| kind.is_none_or(|want| *k == want))
            .map(|&(_, s)| s)
            .collect()
    }
}

fn merge_logs(conns: Vec<Conn>) -> (Vec<(Kind, Sample)>, Vec<Captured>) {
    let mut ops = Vec::new();
    let mut captured = Vec::new();
    for c in conns {
        ops.extend(c.log.ops);
        captured.extend(c.log.captured);
    }
    (ops, captured)
}

fn open_conns(addr: &str, n: usize) -> Res<Vec<Conn>> {
    (0..n).map(|_| Conn::open(addr)).collect()
}

/// Runs the named workload end to end.
pub fn run(ctx: &Ctx) -> Res<Measured> {
    let t0 = Instant::now();
    let (server, setup_s, build_s, boot_s) = ctx.setup()?;
    eprintln!(
        "servebench: set up {}x in {:.1} s",
        SETUPS,
        t0.elapsed().as_secs_f64()
    );
    let mut m = Measured {
        setup_s,
        build_s,
        boot_s,
        window_s: ctx.seconds,
        ops: Vec::new(),
        rss_mb: 0.0,
        checked: 0,
        info: Vec::new(),
    };
    let captured = match ctx.params.name {
        "knn-cold" => knn_cold(ctx, &server, &mut m)?,
        "fleet-mixed" => fleet_mixed(ctx, &server, &mut m)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    m.rss_mb = server.peak_rss_mb()?;
    server.shutdown(Duration::from_secs(60))?;
    eprintln!(
        "servebench: load and shutdown done at {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    let index = ctx.served_index()?;
    let sample = checks::sample(captured.replies, ctx.seed);
    m.checked = checks::knn_replies(&index, &ctx.probe, &sample, &captured.extras)?;
    eprintln!(
        "servebench: checks done at {:.1} s",
        t0.elapsed().as_secs_f64()
    );
    if m.checked == 0 {
        return Err("no knn reply was captured for the exact check".into());
    }
    Ok(m)
}

/// The knn replies a run kept for the exact check, and what they may
/// have seen besides the served index.
#[derive(Default)]
struct Checkable {
    replies: Vec<Captured>,
    /// Signatures a concurrent writer inserted (and removed again).
    extras: HashMap<u64, NodeSignature>,
}

/// A closed loop over 2 connections sweeping distinct probe nodes.
fn knn_cold(ctx: &Ctx, server: &Server, m: &mut Measured) -> Res<Checkable> {
    let order = inputs::cold_order(ctx.seed);
    let cursor = AtomicUsize::new(0);
    let mut conns = open_conns(&server.addr, CONNS)?;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (order, cursor) = (&order, &cursor);
                s.spawn(move || -> Res<()> {
                    while t0.elapsed().as_secs_f64() < ctx.seconds {
                        let node = order[cursor.fetch_add(1, Ordering::Relaxed) % order.len()];
                        conn.knn(&ctx.query(node), node, ctx.capture(node), t0)?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("load thread"))
    })?;
    m.window_s = t0.elapsed().as_secs_f64();
    let distinct = cursor.load(Ordering::Relaxed).min(order.len());
    m.info
        .push(("distinct_probes".into(), distinct.to_string()));
    let (ops, replies) = merge_logs(conns);
    m.ops = ops;
    Ok(Checkable {
        replies,
        ..Default::default()
    })
}

/// 90% cold-stream knn and 10% net-zero `addsig`/`remove` pairs through
/// the router, closed loop over 2 connections.
fn fleet_mixed(ctx: &Ctx, server: &Server, m: &mut Measured) -> Res<Checkable> {
    let order = inputs::cold_order(ctx.seed);
    let cursor = AtomicUsize::new(0);
    let extras: Mutex<HashMap<u64, NodeSignature>> = Mutex::new(HashMap::new());
    let mut conns = open_conns(&server.addr, CONNS)?;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let (order, cursor, extras) = (&order, &cursor, &extras);
                s.spawn(move || -> Res<()> {
                    while t0.elapsed().as_secs_f64() < ctx.seconds {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let node = order[i % order.len()];
                        if !inputs::fleet_op_is_write(ctx.seed, i) {
                            conn.knn(&ctx.query(node), node, ctx.capture(node), t0)?;
                            continue;
                        }
                        let sig = NodeSignature::extract(&ctx.probe, node, K);
                        let shape = ned_tree::serialize::print(sig.tree());
                        let Some(reply) = conn.write(&Request::AddSig { shape }, t0) else {
                            continue;
                        };
                        let Response::Added { id } = reply else {
                            return Err(format!("addsig answered {reply}"));
                        };
                        extras
                            .lock()
                            .expect("no load thread panics holding it")
                            .insert(id, sig);
                        match conn.write(&Request::Remove { id }, t0) {
                            Some(Response::Removed { existed: true, .. }) | None => {}
                            Some(other) => return Err(format!("remove {id} answered {other}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("load thread"))
    })?;
    m.window_s = t0.elapsed().as_secs_f64();
    let (ops, replies) = merge_logs(conns);
    m.ops = ops;
    Ok(Checkable {
        replies,
        extras: extras
            .into_inner()
            .expect("no load thread panics holding it"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    #[test]
    fn benchmark_json_states_every_workload_and_its_parameters() {
        let json = benchmark_json();
        for p in WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"", p.name);
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{} missing", p.name));
            let why = &json[at + entry.len()..];
            let why = &why[..why.find('"').unwrap()];
            assert!(
                why.ends_with(p.tag),
                "{}: why must end with {:?}",
                p.name,
                p.tag
            );
            assert!(why.len() <= 200);
        }
        assert_eq!(json.matches("\"why\"").count(), WORKLOADS.len());
    }
}
