//! Load loops: one client process, at most [`CONNS`](crate::inputs::CONNS)
//! connections, each a closed loop that sends the next op when the reply
//! arrives. Replies are shape-checked as they arrive; the sampled knn
//! replies are kept for the exact checks that follow the run.

use crate::inputs::TOP;
use crate::procs::{connect, Res};
use crate::stats::Sample;
use ned_core::{Request, Response, WireHit};
use ned_graph::NodeId;
use ned_index::WireClient;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Knn,
    Write,
}

/// A knn reply kept for the exact check.
#[derive(Debug, Clone)]
pub struct Captured {
    pub node: NodeId,
    pub hits: Vec<WireHit>,
}

/// Everything one connection saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub ops: Vec<(Kind, Sample)>,
    pub captured: Vec<Captured>,
}

/// One connection's client plus its log. A transport failure drops the
/// connection; the next op redials.
pub struct Conn {
    addr: String,
    client: Option<WireClient>,
    pub log: ConnLog,
}

/// How a request ended, as far as the load loop is concerned.
enum Outcome {
    Reply(Response),
    /// A transport error, timeout, or error reply: a failed op.
    Failed,
}

impl Conn {
    pub fn open(addr: &str) -> Res<Conn> {
        Ok(Conn {
            addr: addr.to_string(),
            client: Some(connect(addr)?),
            log: ConnLog::default(),
        })
    }

    /// Sends one request; any error (including an error reply) is a
    /// failed op.
    fn send(&mut self, req: &Request) -> Outcome {
        let client = match self.client.as_mut() {
            Some(c) => c,
            None => match connect(&self.addr) {
                Ok(c) => self.client.insert(c),
                Err(_) => return Outcome::Failed,
            },
        };
        match client.request(req) {
            Ok(Response::Error(_)) => Outcome::Failed,
            Ok(r) => Outcome::Reply(r),
            Err(_) => {
                self.client = None;
                Outcome::Failed
            }
        }
    }

    /// A knn request, timed from its send (`t0` starts the loop's
    /// clock). A reply that is not a well-formed top-[`TOP`] hit list
    /// aborts the run; `capture` keeps it for the exact check.
    pub fn knn(&mut self, req: &Request, node: NodeId, capture: bool, t0: Instant) -> Res<()> {
        let sent = t0.elapsed().as_secs_f64();
        let out = self.send(req);
        let done = t0.elapsed().as_secs_f64();
        let sample = match out {
            Outcome::Reply(Response::Hits { hits, .. }) => {
                check_hits(&hits)?;
                if capture {
                    self.log.captured.push(Captured { node, hits });
                }
                Sample::ok(sent, (done - sent) * 1e3)
            }
            Outcome::Reply(other) => return Err(format!("knn answered {other}")),
            Outcome::Failed => Sample::failed(sent),
        };
        self.log.ops.push((Kind::Knn, sample));
        Ok(())
    }

    /// A write, timed like [`Conn::knn`]; returns the reply (`None` if
    /// the op failed).
    pub fn write(&mut self, req: &Request, t0: Instant) -> Option<Response> {
        let sent = t0.elapsed().as_secs_f64();
        let out = self.send(req);
        let done = t0.elapsed().as_secs_f64();
        match out {
            Outcome::Reply(r) => {
                self.log
                    .ops
                    .push((Kind::Write, Sample::ok(sent, (done - sent) * 1e3)));
                Some(r)
            }
            Outcome::Failed => {
                self.log.ops.push((Kind::Write, Sample::failed(sent)));
                None
            }
        }
    }
}

/// A knn reply must hold exactly [`TOP`] hits (every index here is far
/// larger), sorted by `(distance, id)` with no repeated id.
fn check_hits(hits: &[WireHit]) -> Res<()> {
    if hits.len() != TOP {
        return Err(format!("knn reply has {} hits, expected {TOP}", hits.len()));
    }
    for w in hits.windows(2) {
        if (w[0].distance, w[0].id) >= (w[1].distance, w[1].id) {
            return Err(format!("knn reply out of order: {:?}", hits));
        }
    }
    Ok(())
}
