//! The **serving front end** shared by both serving roles: a shard
//! ([`NedServer`](crate::server::NedServer)) and the scatter-gather
//! router ([`RouterServer`](crate::router::RouterServer)). A role is a
//! [`Service`] — it executes typed [`Request`]s — and everything around
//! a request lives once, in [`FrontEnd`]: the TCP accept loop, the
//! connection handler, the stdin REPL, socket timeouts, connection
//! shedding, drain, panic isolation, batch fan-out and the serving
//! counters. Both roles therefore behave identically at the edge.
//!
//! # The batch protocol
//!
//! A TCP frame (see [`ned_core::wire`]) carries one *or more*
//! newline-separated commands; the reply frame carries the concatenated
//! replies in command order. Each line is parsed once into a
//! [`Request`] at this boundary. Batching amortizes round-trips, and a
//! frame of **read-only** commands ([`Request::is_write`] is the
//! eligibility test) additionally fans out across the front end's
//! persistent [`WorkerPool`]. Frames containing any write run
//! sequentially in frame order, so a client's `addsig` is visible to the
//! commands after it in the same frame.
//!
//! Connections are thread-per-connection `std::net` — no async runtime,
//! in keeping with the repo's no-external-dependencies rule. A frame that
//! fails checksum/magic/length validation gets a best-effort
//! `error: ...` reply and the connection is closed: once framing sync is
//! lost the stream cannot be trusted.
//!
//! # Fault tolerance
//!
//! The front end keeps serving through misbehaving clients and its
//! service's bugs ([`ServerConfig`] holds the knobs). Failures answer
//! with a structured [`ServerError`] whose variant tells the client what
//! to do — retry ([`ServerError::is_retryable`]) or give up:
//!
//! * every accepted socket gets **read/write timeouts**, so a wedged or
//!   malicious client cannot pin a connection thread forever;
//! * admissions are capped at [`ServerConfig::max_conns`]; excess
//!   connections get a clean [`ServerError::Overloaded`] frame and
//!   are closed — never silently dropped, never unbounded threads;
//! * command execution is wrapped in `catch_unwind` (per command *and*
//!   per connection), so a panicking handler poisons at most its own
//!   connection. A panic answers `error: internal panic ...`, which
//!   parses as a non-retryable error: a client never re-sends a command
//!   that panicked;
//! * `shutdown` drains: the acceptor stops, in-flight frames finish,
//!   idle connections are nudged closed, the service's drain hook runs
//!   ([`Service::finalize`] — a shard's final checkpoint), and
//!   [`FrontEnd::serve_tcp`] returns `Ok(())` so the process can exit 0.
//!
//! All of it is observable: `stats` ends with one `server:` line of
//! accepted/active/timeout/overload/panic counters.

use ned_core::proto::{Request, Response, ServerError};
use ned_core::{wire, WorkerPool};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A serving role: what runs behind a [`FrontEnd`].
pub trait Service: Send + Sync + 'static {
    /// Executes one request. Session control (`quit`, `shutdown`), the
    /// `__panic` hook and `stats` are answered by the front end and never
    /// reach this method through it.
    fn execute(&self, req: &Request) -> Result<Response, ServerError>;

    /// The role's part of the `stats` reply; the front end appends its
    /// `server:` counters line.
    fn stats_body(&self) -> String;

    /// The drain hook: runs once when serving ends (after a TCP drain, or
    /// when a REPL session closes). Returns the epoch of the final
    /// checkpoint, if one ran.
    fn finalize(&self) -> std::io::Result<Option<u64>> {
        Ok(None)
    }

    /// Threads in the front end's batch pool (`0` = all cores).
    fn pool_threads(&self) -> usize {
        0
    }
}

/// Serving limits and fault-tolerance knobs. `Default` suits tests, the
/// REPL and `ned-cli route`; `ned-cli serve` exposes the connection cap
/// as `--max-conns`.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Per-socket read timeout (`None` = block forever). A connection
    /// idle past this is closed with an `error: io: socket timeout`
    /// frame.
    pub read_timeout: Option<Duration>,
    /// Per-socket write timeout (`None` = block forever) — protects
    /// against clients that stop draining their receive buffer.
    pub write_timeout: Option<Duration>,
    /// Admission cap: connections accepted while this many are already
    /// active get an [`ServerError::Overloaded`] frame and are closed.
    pub max_conns: usize,
    /// How long `shutdown` waits for in-flight connections — applied
    /// twice: once politely, once after force-closing idle sockets.
    pub drain_grace: Duration,
    /// Enables the hidden `__panic` command that panics inside the
    /// front end's panic shield — the fault-injection hook for
    /// panic-isolation tests. Never enable outside tests.
    pub enable_test_panic: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_conns: 256,
            drain_grace: Duration::from_secs(2),
            enable_test_panic: false,
        }
    }
}

/// Consecutive accept failures tolerated before the accept loop gives
/// up. Each failure backs off twice as long as the last (20 ms up to
/// 1.28 s), so a transient fault such as file-descriptor exhaustion is
/// ridden out without spinning.
const ACCEPT_RETRIES: u32 = 7;

/// The reply to a command whose execution panicked. Untagged, so it
/// parses as a non-retryable [`ServerError::BadRequest`].
const PANIC_REPLY: &str =
    "error: internal panic while executing the command; the server is still serving";

/// Monotonic serving counters, reported by `stats`.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    timeouts: AtomicU64,
    overloaded: AtomicU64,
    panics: AtomicU64,
    active: AtomicUsize,
}

/// The one network and REPL front end, generic over the serving role.
/// Share it behind an [`Arc`]: every connection thread holds a clone.
pub struct FrontEnd<S: Service> {
    service: S,
    config: ServerConfig,
    /// Persistent pool reused by every read-only batch frame.
    pool: WorkerPool,
    /// Set by `shutdown`; the acceptor checks it per accepted connection
    /// and connection loops check it per frame.
    shutting_down: AtomicBool,
    /// Where the acceptor is listening — `initiate_shutdown` connects
    /// here once to wake a blocked `accept`.
    local_addr: Mutex<Option<SocketAddr>>,
    /// Clones of every live connection's stream, so drain can nudge
    /// idle keep-alive clients closed.
    conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
    counters: Counters,
}

/// The error a service gives for a request the front end answers itself
/// (session control, the `__panic` hook) when a caller hands it over
/// directly.
pub(crate) fn front_end_only(req: &Request) -> ServerError {
    ServerError::bad(format!("`{req}` is answered by the serving front end"))
}

/// Locks `m`, recovering the data from a poisoned lock (every critical
/// section that uses this leaves its map consistent).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl<S: Service> FrontEnd<S> {
    /// Wraps `service` with the serving limits in `config`; the batch
    /// pool gets [`Service::pool_threads`] workers.
    pub fn new(service: S, config: ServerConfig) -> Self {
        FrontEnd {
            pool: WorkerPool::new(service.pool_threads()),
            service,
            config,
            shutting_down: AtomicBool::new(false),
            local_addr: Mutex::new(None),
            conns: Mutex::new(HashMap::new()),
            conn_seq: AtomicU64::new(0),
            counters: Counters::default(),
        }
    }

    /// The served role.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// The `stats` reply body: the service's summary, then the serving
    /// counters.
    pub fn stats_line(&self) -> String {
        let c = &self.counters;
        format!(
            "{}\nserver: accepted {}, active {}, timeouts {}, overloaded {}, panics isolated {}",
            self.service.stats_body(),
            c.accepted.load(Ordering::Relaxed),
            c.active.load(Ordering::Relaxed),
            c.timeouts.load(Ordering::Relaxed),
            c.overloaded.load(Ordering::Relaxed),
            c.panics.load(Ordering::Relaxed),
        )
    }

    /// Executes one non-session request: the front end answers `stats`
    /// and the `__panic` hook, the service everything else.
    fn execute(&self, req: &Request) -> Result<Response, ServerError> {
        match req {
            Request::Stats => Ok(Response::Info {
                body: self.stats_line(),
            }),
            Request::TestPanic if self.config.enable_test_panic => {
                panic!("test-injected panic (`__panic` command)")
            }
            Request::TestPanic => Err(ServerError::bad(
                "unrecognized command \"__panic\"; try `help`",
            )),
            req => self.service.execute(req),
        }
    }

    /// The reply text for one parsed line, behind the panic shield: a
    /// handler that panics answers [`PANIC_REPLY`] instead of unwinding
    /// into (and killing) the serving thread.
    fn reply(&self, parsed: Result<Option<Request>, ServerError>) -> String {
        match parsed {
            Ok(None) => String::new(),
            Err(e) => Response::Error(e).to_string(),
            Ok(Some(req)) => match catch_unwind(AssertUnwindSafe(|| self.execute(&req))) {
                Ok(result) => result.unwrap_or_else(Response::Error).to_string(),
                Err(_) => {
                    self.counters.panics.fetch_add(1, Ordering::Relaxed);
                    PANIC_REPLY.to_string()
                }
            },
        }
    }

    /// Executes a whole payload: one or more newline-separated commands.
    /// Multi-command payloads of pure reads fan out on the worker pool
    /// (order-preserving); anything containing a write runs sequentially.
    /// Returns the concatenated reply and whether the session should end.
    fn handle_payload(self: &Arc<Self>, payload: &str) -> (String, bool) {
        let parsed: Vec<Result<Option<Request>, ServerError>> =
            payload.lines().map(Request::parse_line).collect();
        // Blank lines and parse errors count as reads: they answer
        // without touching anything. `quit` and `shutdown` are writes.
        let all_reads = parsed.len() > 1
            && parsed
                .iter()
                .all(|p| !matches!(p, Ok(Some(req)) if req.is_write()));
        if all_reads {
            let jobs: Vec<_> = parsed
                .into_iter()
                .map(|p| {
                    let front = Arc::clone(self);
                    // The panic shield matters doubly here: a panic that
                    // escaped a pool job would kill a pool worker.
                    move || front.reply(p)
                })
                .collect();
            return (self.pool.run_ordered(jobs).join("\n"), false);
        }
        let mut replies = Vec::with_capacity(parsed.len());
        for p in parsed {
            match p {
                Ok(Some(Request::Quit)) => {
                    replies.push("ok bye".to_string());
                    return (replies.join("\n"), true);
                }
                Ok(Some(Request::Shutdown)) => {
                    self.initiate_shutdown();
                    replies.push(
                        "ok draining: in-flight connections finish, then the server exits"
                            .to_string(),
                    );
                    return (replies.join("\n"), true);
                }
                p => replies.push(self.reply(p)),
            }
        }
        (replies.join("\n"), false)
    }

    /// The stdin REPL: one command per input line, replies written to
    /// `out`, until `quit`, `shutdown` or the end of input. Then the drain
    /// hook runs, so a clean exit never needs log replay on the next boot.
    pub fn serve_lines(
        self: &Arc<Self>,
        input: impl BufRead,
        mut out: impl Write,
    ) -> std::io::Result<()> {
        for line in input.lines() {
            let (reply, end) = self.handle_payload(&line?);
            if !reply.is_empty() {
                writeln!(out, "{reply}")?;
                out.flush()?;
            }
            if end {
                break;
            }
        }
        if let Some(epoch) = self.service.finalize()? {
            writeln!(out, "checkpointed at epoch {epoch}")?;
        }
        writeln!(out, "bye")
    }

    /// Flips the drain flag and wakes the acceptor with a throwaway
    /// loopback connection (an accept blocked in the kernel cannot see
    /// an atomic). Idempotent; the `shutdown` command lands here.
    pub fn initiate_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        let addr = *lock(&self.local_addr);
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    /// Whether `shutdown` has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Accept loop: one thread per connection, all sharing this front
    /// end. Runs until `shutdown` or a run of consecutive accept failures
    /// (each backing off longer than the last); either way it stops
    /// accepting, waits out in-flight frames (force-closing idle sockets
    /// after [`ServerConfig::drain_grace`]) and runs the drain hook.
    /// Returns `Ok(())` after a `shutdown`, the last accept error
    /// otherwise.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<()> {
        *lock(&self.local_addr) = listener.local_addr().ok();
        let mut result = Ok(());
        let mut failures = 0u32;
        for conn in listener.incoming() {
            if self.is_shutting_down() {
                break;
            }
            match conn {
                Ok(stream) => {
                    failures = 0;
                    self.admit(stream);
                }
                Err(e) => {
                    failures += 1;
                    if failures > ACCEPT_RETRIES {
                        result = Err(e);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(10 << failures));
                }
            }
        }
        self.drain();
        self.service.finalize()?;
        result
    }

    /// Admits one accepted connection onto its own thread, or sheds it
    /// with an overload frame when [`ServerConfig::max_conns`] are busy.
    fn admit(self: &Arc<Self>, stream: TcpStream) {
        self.counters.accepted.fetch_add(1, Ordering::Relaxed);
        // The accept loop is the only incrementer of `active`, so
        // check-then-increment cannot race past the cap.
        let active = self.counters.active.load(Ordering::Relaxed);
        if active >= self.config.max_conns {
            self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            let refusal = ServerError::Overloaded(format!(
                "{active}/{} connections; retry later",
                self.config.max_conns
            ));
            let _ = wire::write_text_frame(&mut &stream, &refusal.to_string());
            return; // drop closes the socket
        }
        self.counters.active.fetch_add(1, Ordering::Relaxed);
        let id = self.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock(&self.conns).insert(id, clone);
        }
        let front = Arc::clone(self);
        std::thread::spawn(move || {
            // Belt over the per-command suspenders: nothing a
            // connection does may unwind into the process.
            if catch_unwind(AssertUnwindSafe(|| front.handle_conn(&stream))).is_err() {
                front.counters.panics.fetch_add(1, Ordering::Relaxed);
            }
            front.counters.active.fetch_sub(1, Ordering::Relaxed);
            lock(&front.conns).remove(&id);
        });
    }

    /// Waits for in-flight connections, then force-closes stragglers and
    /// waits once more. Every wait is bounded by the drain grace.
    fn drain(&self) {
        let wait = |deadline: Instant| {
            while self.counters.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        wait(Instant::now() + self.config.drain_grace);
        for (_, conn) in lock(&self.conns).drain() {
            let _ = conn.shutdown(SocketShutdown::Both);
        }
        wait(Instant::now() + self.config.drain_grace);
    }

    /// Serves one connection: a reply frame per request frame until the
    /// client quits, the socket times out, framing breaks, or a drain
    /// begins.
    fn handle_conn(self: &Arc<Self>, stream: &TcpStream) {
        let _ = stream.set_read_timeout(self.config.read_timeout);
        let _ = stream.set_write_timeout(self.config.write_timeout);
        let (mut read_half, mut write_half) = (stream, stream);
        loop {
            let (reply, end) = match wire::read_frame(&mut read_half) {
                Ok(None) => return, // clean disconnect
                // UTF-8 decoding happens here rather than in
                // `read_text_frame`: a non-UTF-8 payload inside a
                // checksum-valid frame means framing sync is intact, so
                // it gets an in-band error and the connection survives.
                Ok(Some(payload)) => match String::from_utf8(payload) {
                    Ok(text) => self.handle_payload(&text),
                    Err(_) => (
                        ServerError::Corrupt("frame payload is not UTF-8".to_string()).to_string(),
                        false,
                    ),
                },
                // The socket timeout fired: the client is wedged (or just
                // idle past the limit). Say why, then hang up.
                Err(wire::WireError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    let timeout = ServerError::Io("socket timeout; closing connection".to_string());
                    (timeout.to_string(), true)
                }
                // Framing sync is gone (bad length, magic or checksum):
                // tell the client why — as the Corrupt it is — then hang
                // up.
                Err(e) => (ServerError::from(e).to_string(), true),
            };
            if wire::write_text_frame(&mut write_half, &reply).is_err()
                || end
                || self.is_shutting_down()
            {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stand-in role: fixed `epoch` and `stats` answers, and a drain
    /// hook that reports a checkpoint at epoch 7.
    struct Echo;

    impl Service for Echo {
        fn execute(&self, req: &Request) -> Result<Response, ServerError> {
            match req {
                Request::Epoch => Ok(Response::Epoch { epoch: 7, len: 1 }),
                other => Err(ServerError::bad(format!("echo cannot run {other}"))),
            }
        }

        fn stats_body(&self) -> String {
            "echo: ready".to_string()
        }

        fn finalize(&self) -> std::io::Result<Option<u64>> {
            Ok(Some(7))
        }

        fn pool_threads(&self) -> usize {
            1
        }
    }

    fn front() -> Arc<FrontEnd<Echo>> {
        Arc::new(FrontEnd::new(Echo, ServerConfig::default()))
    }

    #[test]
    fn repl_answers_each_line_and_runs_the_drain_hook_on_quit() {
        let front = front();
        let mut out = Vec::new();
        front
            .serve_lines(&b"epoch\n\nstats\nquit\nepoch\n"[..], &mut out)
            .expect("in-memory io");
        let out = String::from_utf8(out).expect("utf-8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ok epoch=7 len=1", "{out}");
        assert_eq!(lines[1], "echo: ready", "{out}");
        assert!(lines[2].starts_with("server: accepted 0"), "{out}");
        assert_eq!(
            &lines[lines.len() - 3..],
            ["ok bye", "checkpointed at epoch 7", "bye"],
            "quit ends the session before the trailing epoch: {out}"
        );
    }

    #[test]
    fn repl_shutdown_ends_the_session_and_flips_the_drain_flag() {
        let front = front();
        let mut out = Vec::new();
        front
            .serve_lines(&b"shutdown\nepoch\n"[..], &mut out)
            .expect("in-memory io");
        let out = String::from_utf8(out).expect("utf-8");
        assert!(out.starts_with("ok draining"), "{out}");
        assert!(!out.contains("ok epoch"), "{out}");
        assert!(front.is_shutting_down());
    }
}
