//! The `ned-cli` processes a run drives: index builds, `serve` and
//! `route` servers. Every server is shut down through the protocol and
//! reaped; a server still running when its handle drops is killed,
//! together with every shard process it announced.

use ned_core::{Request, Response};
use ned_index::WireClient;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Client socket timeout: an op that takes longer has failed.
pub const OP_TIMEOUT: Duration = Duration::from_millis(crate::stats::FAILED_MS as u64);
/// How long a server may take from spawn to its first good `epoch`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

pub type Res<T> = Result<T, String>;

/// `ned-cli index build <out> <edges> --k <k>`; returns seconds taken.
pub fn build_index(cli: &Path, edges: &Path, out: &Path, k: usize) -> Res<f64> {
    let t0 = Instant::now();
    let out_put = Command::new(cli)
        .args(["index", "build"])
        .arg(out)
        .arg(edges)
        .args(["--k", &k.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("running {}: {e}", cli.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    if !out_put.status.success() {
        return Err(format!(
            "index build failed ({}): {}",
            out_put.status,
            String::from_utf8_lossy(&out_put.stderr)
        ));
    }
    Ok(secs)
}

/// A running `serve` or `route` process.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
    /// The server's pid, then every shard pid a router announced.
    pub pids: Vec<u32>,
    /// `host:port` of every shard replica a router announced, in
    /// announcement order (shard-major).
    pub shard_addrs: Vec<String>,
    /// Seconds from spawn to the first good `epoch` reply.
    pub boot_s: f64,
    /// Drains the child's stdout; ends when the child closes it.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns `cli args…`, reads stdout until the line starting with
    /// `banner` names the `tcp://` address, then polls `epoch` until the
    /// server answers it.
    pub fn spawn(cli: &Path, args: &[String], banner: &str) -> Res<Server> {
        let t0 = Instant::now();
        let mut child = Command::new(cli)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", cli.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Reads every line for the whole life of the child, so it can
        // never block on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
            pids: Vec::new(),
            shard_addrs: Vec::new(),
            boot_s: 0.0,
            drain: Some(drain),
        };
        server
            .pids
            .push(server.child.as_ref().expect("just spawned").id());
        loop {
            let left = BOOT_TIMEOUT.saturating_sub(t0.elapsed());
            let line = rx
                .recv_timeout(left)
                .map_err(|_| format!("{banner:?} banner never appeared"))?;
            // Routers announce each shard replica they spawned as
            // `shard S replica R: … pid P, tcp://ADDR`.
            if line.starts_with("shard ") {
                if let (Some(p), Some(a)) = (line.find("pid "), line.find("tcp://")) {
                    let pid = line[p + 4..].split(',').next().unwrap_or("");
                    server.pids.push(
                        pid.trim()
                            .parse()
                            .map_err(|_| format!("bad line {line:?}"))?,
                    );
                    server.shard_addrs.push(line[a + 6..].trim().to_string());
                }
            }
            if line.starts_with(banner) {
                let at = line.find("tcp://").ok_or("banner without address")?;
                server.addr = line[at + 6..].trim().to_string();
                break;
            }
        }
        epoch(&server.addr, BOOT_TIMEOUT.saturating_sub(t0.elapsed()))?;
        server.boot_s = t0.elapsed().as_secs_f64();
        Ok(server)
    }

    /// Peak resident set (`VmHWM`) summed over the server and every
    /// shard it announced, in MB.
    pub fn peak_rss_mb(&self) -> Res<f64> {
        let mut kb = 0u64;
        for pid in &self.pids {
            kb += vm_hwm_kb(*pid)?;
        }
        Ok(kb as f64 / 1024.0)
    }

    /// Sends `shutdown` and waits for the process to exit; errors unless
    /// it exits 0 within `grace`.
    pub fn shutdown(mut self, grace: Duration) -> Res<()> {
        let mut client = connect(&self.addr)?;
        match client.request(&Request::Shutdown) {
            Ok(Response::Ok { .. }) | Err(_) => {}
            Ok(other) => return Err(format!("shutdown answered {other}")),
        }
        drop(client);
        let mut child = self.child.take().expect("running");
        let deadline = Instant::now() + grace;
        loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                self.reap_shards();
                if let Some(drain) = self.drain.take() {
                    drain.join().map_err(|_| "stdout drain thread panicked")?;
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status} after shutdown"))
                };
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                self.reap_shards();
                return Err("server did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Waits (briefly) for announced shard processes to go, killing any
    /// left: a router drains its fleet on shutdown, but a crashed one
    /// would orphan it.
    fn reap_shards(&self) {
        let deadline = Instant::now() + Duration::from_secs(10);
        for pid in &self.pids[1..] {
            while Path::new(&format!("/proc/{pid}")).exists() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            for pid in &self.pids[1..] {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
    }
}

/// `VmHWM` of a live process in kB.
fn vm_hwm_kb(pid: u32) -> Res<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM for pid {pid}"))
}

/// A load or probe connection with the op timeout set.
pub fn connect(addr: &str) -> Res<WireClient> {
    WireClient::builder()
        .timeouts(Some(OP_TIMEOUT), Some(OP_TIMEOUT))
        .connect(addr)
        .map_err(|e| format!("connect {addr}: {e}"))
}

/// Polls `epoch` until it answers; returns `(epoch, len)`.
pub fn epoch(addr: &str, within: Duration) -> Res<(u64, u64)> {
    let deadline = Instant::now() + within;
    loop {
        if let Ok(mut c) = connect(addr) {
            if let Ok(Response::Epoch { epoch, len }) = c.request(&Request::Epoch) {
                return Ok((epoch, len));
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("{addr} never answered epoch"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(workload: &str) -> Res<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    /// The path as the server should see it (UTF-8, relative to the
    /// shared working directory).
    pub fn arg(&self, name: &str) -> String {
        self.path(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}
