//! `servebench`: the serving benchmark of this repository.
//!
//! ```text
//! servebench --cli <ned-cli> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against fresh `ned-cli` server processes, from one
//! client process with at most two connections, checks the outputs it
//! timed, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run replays the
//! workload's request stream in this process through the public
//! functions the server calls, and the metrics are the per-layer ones.
//! The line before it carries host and build metadata.

mod checks;
mod inputs;
mod load;
mod procs;
mod stats;
mod trace;
mod workloads;

use load::Kind;
use procs::Res;
use stats::{fail_ratio, summarize, Sample};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Ctx, Measured, WORKLOADS};

struct Args {
    cli: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Res<String> {
        raw.iter()
            .position(|a| a == name)
            .and_then(|i| raw.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {name}"))
    };
    Ok(Args {
        cli: PathBuf::from(get("--cli")?),
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace {other:?}")),
        },
    })
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Every metric value must be a finite JSON number.
fn render(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> Res<String> {
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and build metadata: CPU model, cores, a digest of the measured
/// sources (the checkout need not be a git repository; the commit is
/// added when it is), and the rustc version.
fn metadata() -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    vec![
        ("cpu".into(), cpu),
        ("nproc".into(), nproc.to_string()),
        ("commit".into(), cmd("git", &["rev-parse", "HEAD"])),
        ("source_digest".into(), source_digest()),
        ("rustc".into(), cmd("rustc", &["--version"])),
    ]
}

/// FNV-1a over every file under the measured sources, in path order.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for d in ["crates", "src", "vendor"] {
        walk(std::path::Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn print_kv(label: &str, kv: &[(String, String)]) {
    let body: Vec<String> = kv
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{label} {{{}}}", body.join(", "));
}

/// The workload's fixed parameters must read the same in
/// `BENCHMARK.json` as in this program.
fn check_benchmark_json(tag: &str) -> Res<()> {
    let json =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if json.contains(tag) {
        Ok(())
    } else {
        Err(format!(
            "BENCHMARK.json does not state this workload's parameters {tag:?}"
        ))
    }
}

/// The end-to-end metrics, and the facts for the info line: sample
/// counts, the latency of writes and of all ops, the p99 tails, set-up
/// parts.
///
/// Those facts are measured and printed but are not result metrics: on a
/// shared 2-core host the p99s spread by 0.35 to 0.8 of their median
/// from run to run, and the p50 over a mix of writes and reads by up to
/// 0.47, beyond any regression bound they could carry. The throughput of
/// all ops adds nothing a bound could hold: it equals `knn_qps` on the
/// knn workloads and follows it on the fleet.
fn end_to_end(m: &Measured) -> (usize, usize, Vec<Metric>, Vec<(String, String)>) {
    let knn = m.samples(Some(Kind::Knn));
    let writes = m.samples(Some(Kind::Write));
    let all = m.samples(None);
    let ks = summarize(&knn);
    let ws = summarize(&writes);
    let all_s = summarize(&all);
    let done = |s: &[Sample]| s.iter().filter(|s| s.ok).count() as f64 / m.window_s;
    let metrics = vec![
        metric("setup_s", m.setup_s, "s"),
        metric("knn_qps", done(&knn), "1/s"),
        metric("knn_p50_ms", ks.p50_ms, "ms"),
        metric(
            "ok_ratio",
            1.0 - fail_ratio(all_s.attempted, all_s.failed),
            "ratio",
        ),
        metric("server_rss_mb", m.rss_mb, "MB"),
    ];
    let mut info = m.info.clone();
    let mut fact = |k: &str, v: String| info.push((k.to_string(), v));
    fact("knn_samples", knn.len().to_string());
    fact("op_samples", all.len().to_string());
    fact("knn_p99_ms", format!("{:.3}", ks.p99_ms));
    fact("ops_qps", format!("{:.3}", done(&all)));
    fact("ops_p50_ms", format!("{:.3}", all_s.p50_ms));
    fact("ops_p99_ms", format!("{:.3}", all_s.p99_ms));
    if !writes.is_empty() {
        fact("write_qps", format!("{:.3}", done(&writes)));
        fact("write_p50_ms", format!("{:.3}", ws.p50_ms));
        fact("write_p99_ms", format!("{:.3}", ws.p99_ms));
    }
    fact(
        "p99_has_10_beyond",
        format!(
            "{} (needs {} samples)",
            ks.p99_resolved && all_s.p99_resolved,
            stats::min_samples(99.0, 10)
        ),
    );
    fact("checked_replies", m.checked.to_string());
    fact("build_s", format!("{:.3}", m.build_s));
    fact("boot_s", format!("{:.3}", m.boot_s));
    (all_s.attempted, all_s.failed, metrics, info)
}

fn run(args: &Args) -> Res<String> {
    let params = *WORKLOADS
        .iter()
        .find(|p| p.name == args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    check_benchmark_json(params.tag)?;
    if !args.cli.is_file() {
        return Err(format!("{}: ned-cli not built", args.cli.display()));
    }
    let ctx = Ctx::new(args.cli.clone(), args.seed, args.seconds, params)?;
    print_kv("servebench-meta", &metadata());
    let (attempted, failed, metrics) = if args.trace {
        trace::run(&ctx)?
    } else {
        let m = workloads::run(&ctx)?;
        let (attempted, failed, metrics, info) = end_to_end(&m);
        print_kv("servebench-info", &info);
        (attempted, failed, metrics)
    };
    render(true, attempted, failed, &metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let e2e = &json[json.find("\"end_to_end\"").unwrap()..json.find("\"per_layer\"").unwrap()];
        let m = Measured {
            setup_s: 1.0,
            build_s: 0.5,
            boot_s: 0.5,
            window_s: 2.0,
            ops: vec![
                (Kind::Knn, Sample::ok(0.0, 1.0)),
                (Kind::Write, Sample::ok(0.1, 3.0)),
                (Kind::Knn, Sample::failed(0.2)),
                (Kind::Knn, Sample::ok(0.3, 2.0)),
            ],
            rss_mb: 10.0,
            checked: 1,
            info: Vec::new(),
        };
        let (attempted, failed, metrics, info) = end_to_end(&m);
        assert!(info.contains(&("knn_p99_ms".to_string(), format!("{:.3}", stats::FAILED_MS))));
        assert_eq!((attempted, failed), (4, 1));
        for x in &metrics {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", x.name, x.unit);
            assert!(e2e.contains(&entry), "{entry} missing from end_to_end");
        }
        assert_eq!(e2e.matches("\"name\"").count(), metrics.len());
        let get = |n: &str| metrics.iter().find(|x| x.name == n).unwrap().value;
        // Two of three knn ops completed in a 2 s window.
        assert_eq!(get("knn_qps"), 1.0);
        assert_eq!(get("knn_p50_ms"), 2.0);
        assert!(info.contains(&("ops_qps".to_string(), "1.500".to_string())));
        assert_eq!(get("ok_ratio"), 0.75);
        let line = render(true, attempted, failed, &metrics).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": {")
        );
        assert!(render(true, 1, 0, &[metric("x", f64::NAN, "ms")]).is_err());
    }
}
