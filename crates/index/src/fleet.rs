//! **Fleet plumbing**: splitting one index into per-shard indexes and
//! managing `ned-cli serve` shard processes — the operational half of
//! the scatter-gather layer in [`crate::router`].

use crate::router::ShardMap;
use crate::signatures::SignatureIndex;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Splits `index` into a routed fleet layout: a validated [`ShardMap`]
/// plus one disjoint [`SignatureIndex`] per shard, in shard order. A
/// fleet serving these shards answers queries bit-identically to
/// `index` itself.
pub fn split_index(index: &SignatureIndex, shards: usize) -> (ShardMap, Vec<SignatureIndex>) {
    let (starts, indexes) = index.split_for_fleet(shards);
    let map = ShardMap::new(starts).expect("split_for_fleet yields a valid map");
    (map, indexes)
}

/// One spawned `ned-cli serve ... --tcp` shard process: the child handle
/// plus the address it actually bound (scraped from its stdout banner,
/// so `127.0.0.1:0` ephemeral binds work).
#[derive(Debug)]
pub struct ShardProcess {
    child: Child,
    addr: String,
    index_path: PathBuf,
}

impl ShardProcess {
    /// Spawns `binary serve <index_path> --tcp <addr> [--wal <wal>]
    /// [extra_args...]` and waits (up to ~10s) for the `serving ... on
    /// tcp://HOST:PORT` banner that proves the listener is up.
    ///
    /// `addr` may use port `0`; the scraped banner carries the real
    /// port. The child's stdout is consumed only up to the banner —
    /// after that the process writes into the inherited pipe buffer,
    /// which serve-mode servers keep quiet enough never to fill. Stderr
    /// is piped and drained into a small tail buffer, so when the child
    /// dies or wedges before announcing its address, the spawn error
    /// carries the child's own last words (a bad flag, a missing index
    /// file, a panic) instead of just "exited before announcing".
    pub fn spawn(
        binary: &Path,
        index_path: &Path,
        addr: &str,
        wal: Option<&Path>,
        extra_args: &[String],
    ) -> std::io::Result<ShardProcess> {
        let mut cmd = Command::new(binary);
        cmd.arg("serve")
            .arg(index_path)
            .arg("--tcp")
            .arg(addr)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(wal) = wal {
            cmd.arg("--wal").arg(wal);
        }
        cmd.args(extra_args);
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let stderr = child.stderr.take().expect("stderr was piped");
        let stderr_tail = drain_stderr(stderr);
        match scrape_banner(stdout) {
            Ok(bound) => Ok(ShardProcess {
                child,
                addr: bound,
                index_path: index_path.to_path_buf(),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                // The kill closed the pipe; give the drain thread a
                // beat to flush the final lines into the tail buffer.
                std::thread::sleep(Duration::from_millis(50));
                let tail = stderr_tail
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .join("\n");
                if tail.is_empty() {
                    Err(e)
                } else {
                    Err(std::io::Error::new(
                        e.kind(),
                        format!("{e}; shard stderr tail:\n{tail}"),
                    ))
                }
            }
        }
    }

    /// The `host:port` the shard actually bound.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The index file this shard serves (what a restart re-serves).
    pub fn index_path(&self) -> &Path {
        &self.index_path
    }

    /// The child's pid (for external `SIGKILL` fault injection).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Hard-kills the shard (the crash case; WAL-backed shards recover
    /// on respawn) and reaps it.
    pub fn kill(&mut self) -> std::io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }

    /// Waits for the shard to exit on its own (e.g. after a protocol
    /// `shutdown`), killing it if it is still running after `grace`.
    pub fn wait_or_kill(&mut self, grace: Duration) -> std::io::Result<()> {
        let deadline = Instant::now() + grace;
        loop {
            if self.child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return self.kill();
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for ShardProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None) | Err(_)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// How many trailing stderr lines [`ShardProcess::spawn`] keeps for its
/// failure message.
const STDERR_TAIL_LINES: usize = 8;

/// Drains the child's stderr on a detached thread — echoing each line to
/// this process's stderr (preserving the old inherit-stderr behavior for
/// operators watching the fleet) while keeping the last
/// [`STDERR_TAIL_LINES`] lines in a shared tail buffer for spawn-failure
/// diagnostics. The thread exits when the child closes its stderr.
fn drain_stderr(
    stderr: std::process::ChildStderr,
) -> std::sync::Arc<std::sync::Mutex<Vec<String>>> {
    let tail = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&tail);
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            eprintln!("{line}");
            let mut tail = sink.lock().unwrap_or_else(|p| p.into_inner());
            if tail.len() == STDERR_TAIL_LINES {
                tail.remove(0);
            }
            tail.push(line);
        }
    });
    tail
}

/// Reads the child's stdout until the `tcp://HOST:PORT` banner appears,
/// on a watchdog thread so a wedged child cannot hang the spawner.
fn scrape_banner(stdout: std::process::ChildStdout) -> std::io::Result<String> {
    let (tx, rx) = std::sync::mpsc::channel::<std::io::Result<String>>();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
            if let Some(at) = line.find("tcp://") {
                let _ = tx.send(Ok(line[at + "tcp://".len()..].trim().to_string()));
                // Keep draining so the child never blocks on a full pipe.
                for _ in reader.lines() {}
                return;
            }
        }
        let _ = tx.send(Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "shard exited before announcing its tcp address",
        )));
    });
    rx.recv_timeout(Duration::from_secs(10)).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "shard did not announce its tcp address within 10s",
        )
    })?
}

/// Picks `n` distinct free loopback ports by binding-and-dropping
/// ephemeral listeners. Racy in principle (another process could grab a
/// port between drop and reuse) but the standard technique for
/// kill-and-respawn-on-the-same-port fleet tests.
pub fn free_loopback_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.port()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn split_covers_every_entry_exactly_once() {
        let mut rng = SmallRng::seed_from_u64(11);
        let g = generators::barabasi_albert(60, 2, &mut rng);
        let mut index = SignatureIndex::new(3, 16, 5);
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
        let (map, parts) = split_index(&index, 4);
        assert_eq!(map.shards(), 4);
        let total: usize = parts.iter().map(SignatureIndex::len).sum();
        assert_eq!(total, index.len());
        for (s, part) in parts.iter().enumerate() {
            assert_eq!(part.k(), index.k());
            for (id, _) in part.entries() {
                assert_eq!(map.owner(id), s, "entry {id} lives on its owning shard");
            }
        }
    }

    #[test]
    fn split_with_more_shards_than_entries_keeps_the_map_valid() {
        let mut index = SignatureIndex::new(2, 8, 5);
        let g = {
            let mut rng = SmallRng::seed_from_u64(3);
            generators::barabasi_albert(3, 1, &mut rng)
        };
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
        let (map, parts) = split_index(&index, 8);
        assert_eq!(parts.iter().map(SignatureIndex::len).sum::<usize>(), 3);
        // Every id still has exactly one owner and lives there.
        for (s, part) in parts.iter().enumerate() {
            for (id, _) in part.entries() {
                assert_eq!(map.owner(id), s);
            }
        }
        // Fresh ids (>= next_id) all land on the last non-empty shard or
        // later — crucially, on a shard that exists.
        assert!(map.owner(index.next_id()) < map.shards());
    }
}
