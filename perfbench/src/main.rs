//! irs-perfbench: the serving benchmark.
//!
//! For one workload and seed it generates the inputs, starts the
//! shipped server (`irs-cli serve --data <csv> --wal <log> …`) as its
//! own process, drives it over loopback with closed-loop connections,
//! checks every answer against its own copy of the data, kills the
//! server with `SIGKILL` and times its recovery. The last line of
//! standard output is one JSON object: the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics of a traced run.
//!
//! ```text
//! irs-perfbench --workload <read-wide|read-narrow|ingest> --seed <N>
//!               --seconds <S> --trace <0|1> --server <irs-cli>
//!               [--work <DIR>] [--rev <GIT-REV>]
//! ```
//!
//! See `README.md` beside this crate for the workloads and metrics.

mod layers;
mod server;
mod stats;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use irs_core::{splitmix64, Interval64};
use irs_datagen::{uniform_weights, QueryWorkload, TAXI};
use irs_engine::{Query, QueryOutput};
use irs_sampling::stats::{chi_square_critical, chi_square_statistic};

use server::Server;
use stats::{median_f64, quantile};
use trace::Tracer;
use traffic::{ConnOut, Pace, Truth};

/// One traffic mix against one served configuration.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Base intervals, Taxi profile.
    pub n: usize,
    pub kind: &'static str,
    pub shards: usize,
    pub weighted: bool,
    /// Reader connections.
    pub readers: usize,
    /// Read query length, % of the domain, and sample size.
    pub extent_pct: f64,
    pub s: usize,
    /// Sample requests per second of run length, over all readers. Zero
    /// means the reader runs beside the writer until it finishes.
    pub reads_per_sec: usize,
    /// Writer steps: a fixed count plus a count per second of run length.
    pub writes: usize,
    pub writes_per_sec: usize,
    /// Server launches per run; `setup_s` is their median. A small
    /// index launches in well under a second, so it takes more of them.
    pub setups: usize,
}

impl Workload {
    fn concurrent(&self) -> bool {
        self.reads_per_sec == 0
    }
}

// The read workloads run their read traffic first and a short write
// sequence after it, so every read figure covers reads alone; `ingest`
// runs one reader beside the writer to measure reads that wait on
// writes. Read counts are sized so the read traffic takes about the
// run length on a 2-CPU host.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read-wide",
        n: 1_000_000,
        kind: "ait",
        shards: 1,
        weighted: false,
        readers: 2,
        extent_pct: 8.0,
        s: 1000,
        reads_per_sec: 16000,
        writes: 32,
        writes_per_sec: 0,
        setups: 3,
    },
    Workload {
        name: "read-narrow",
        n: 1_000_000,
        kind: "ait",
        shards: 4,
        weighted: false,
        readers: 2,
        extent_pct: 0.01,
        s: 10,
        reads_per_sec: 48000,
        writes: 64,
        writes_per_sec: 0,
        setups: 3,
    },
    // The weighted path. Its applies cost microseconds, so the log
    // fsync decides their ack latency, and that drifts too much on a
    // shared disk to gate; see README.md.
    Workload {
        name: "read-narrow-weighted",
        n: 1_000_000,
        kind: "awit-dynamic",
        shards: 4,
        weighted: true,
        readers: 2,
        extent_pct: 0.01,
        s: 10,
        reads_per_sec: 32000,
        writes: 2048,
        writes_per_sec: 0,
        setups: 3,
    },
    Workload {
        name: "ingest",
        n: 200_000,
        kind: "ait",
        shards: 1,
        weighted: false,
        readers: 1,
        extent_pct: 0.01,
        s: 10,
        reads_per_sec: 0,
        writes: 0,
        writes_per_sec: 90,
        setups: 7,
    },
];

/// Rounds of traffic per run.
const ROUNDS: usize = 32;
/// Recoveries per run; `recover_s` is their median.
const RECOVERIES: usize = 3;
/// Queries whose `count` is checked against brute force.
const COUNT_CHECKS: usize = 16;
/// Pooled draws of the chi-square check: requests × s.
const CHI_REQUESTS: usize = 100;
const CHI_S: usize = 1000;
/// Standard-normal upper quantile of the chi-square test's significance,
/// 1e-6: a correct sampler fails it on about one seed in a million.
const CHI_Z: f64 = 4.753;
/// Fresh intervals start past the base domain, as newly recorded trips
/// do, so reads of the base domain never see them and one search over
/// the region past it lists exactly the live inserted ids.
const FRESH_SHIFT: i64 = 100_000_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    work: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("expected `--key value` pairs, got {pair:?}")),
        }
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} wants a whole number"))
    };
    let seconds = num("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace: num("trace")? != 0,
        server: PathBuf::from(get("server")?),
        work: kv
            .get("work")
            .map_or_else(|| PathBuf::from(".bench_runs"), PathBuf::from),
        rev: kv
            .get("rev")
            .cloned()
            .unwrap_or_else(|| "unknown".to_string()),
    })
}

/// Attempted and failed operations, by operation type.
#[derive(Default)]
struct OpCounts(BTreeMap<&'static str, (u64, u64)>);

impl OpCounts {
    fn add(&mut self, op: &'static str, attempted: u64, failed: u64) {
        let e = self.0.entry(op).or_default();
        e.0 += attempted;
        e.1 += failed;
    }
    fn totals(&self) -> (u64, u64) {
        self.0
            .values()
            .fold((0, 0), |(a, f), &(x, y)| (a + x, f + y))
    }
}

/// A fresh directory for one run's CSV, snapshot and log, removed when
/// the run ends on any path.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a run found.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    ops: OpCounts,
    problems: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("irs-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let code = match outcome {
        Ok(out) => {
            let (attempted, failed) = out.ops.totals();
            for p in out.problems.iter().take(20) {
                println!("CHECK FAILED: {p}");
            }
            let metrics: Vec<String> = out
                .metrics
                .iter()
                .map(|(name, v, unit)| {
                    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                out.problems.is_empty(),
                metrics.join(", ")
            );
            if out.problems.is_empty() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("irs-perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn p50_p99(v: &mut [u64]) -> (f64, f64) {
    (quantile(v, 0.5), quantile(v, 0.99))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let started = Instant::now();
    let mut timeline = Vec::new();
    let mut mark = |phase: &'static str| timeline.push((phase, started.elapsed().as_secs_f64()));
    let w = &args.workload;
    let seed = args.seed;
    let dir = args
        .work
        .join(format!("{}-{seed}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dir = RunDir(
        dir.canonicalize()
            .map_err(|e| format!("{}: {e}", dir.display()))?,
    );
    let dir = &dir.0;
    println!(
        "workload={} seed={seed} seconds={} trace={}",
        w.name, args.seconds, args.trace as u8
    );
    println!(
        "host: nproc={} cpu=\"{}\" rev={} profile={} data-fs={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        server::cpu_model(),
        args.rev,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        server::filesystem_of(dir),
    );

    // Inputs, all from the seed.
    let base = TAXI.generate(w.n, seed);
    let weights = uniform_weights(w.n, splitmix64(seed ^ 1));
    let csv = dir.join("data.csv");
    write_csv(&csv, &base, &weights)?;
    let read_count = w.reads_per_sec * args.seconds as usize;
    let write_count = w.writes + w.writes_per_sec * args.seconds as usize;
    let fresh: Vec<Interval64> = TAXI
        .generate(write_count, splitmix64(seed ^ 3))
        .into_iter()
        .map(|iv| Interval64::new(iv.lo + FRESH_SHIFT, iv.hi + FRESH_SHIFT))
        .collect();
    let fresh_w = uniform_weights(write_count, splitmix64(seed ^ 4));
    let writes = traffic::write_ops(&fresh, &fresh_w, write_count);
    let domain = QueryWorkload::from_data(&base);
    let queries: Vec<Query<i64>> = domain
        .generate(read_count.max(4096), w.extent_pct, splitmix64(seed ^ 2))
        .into_iter()
        .map(|q| {
            if w.weighted {
                Query::SampleWeighted { q, s: w.s }
            } else {
                Query::Sample { q, s: w.s }
            }
        })
        .collect();
    let mut truth = Truth {
        base,
        weights,
        inserted: BTreeMap::new(),
    };

    mark("inputs");
    let epoch = Instant::now();
    let mut tracer = args.trace.then(|| Tracer::new(epoch));
    let mut ops = OpCounts::default();
    let mut problems = Vec::new();
    let mut metrics = Vec::new();

    // Set-up: spawn → `health`, several times; the last one serves.
    let wal = dir.join("mutations.wal");
    let mut serve_args = vec![
        "--data".to_string(),
        csv.display().to_string(),
        "--wal".to_string(),
        wal.display().to_string(),
        "--kind".to_string(),
        w.kind.to_string(),
        "--shards".to_string(),
        w.shards.to_string(),
        "--seed".to_string(),
        seed.to_string(),
    ];
    if w.weighted {
        serve_args.push("--weighted".to_string());
    }
    let mut setups = Vec::new();
    let mut live_server = None;
    for i in 0..w.setups {
        let _ = std::fs::remove_file(&wal);
        let span = tracer
            .as_mut()
            .map(|t| t.begin("serve.setup", i as u64, None));
        let (srv, secs) = Server::start(&args.server, &serve_args)?;
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.end(s);
        }
        ops.add("setup", 1, 0);
        setups.push(secs);
        if i + 1 == w.setups {
            live_server = Some(srv);
        } else {
            srv.kill();
        }
    }
    mark("setup");
    let srv = live_server.expect("every workload launches at least once");
    let pid = srv.pid();
    let mut admin = srv.connect()?;

    let snapshot = dir.join("snapshot");
    traced(&mut tracer, "remote.save", || {
        admin.save(&snapshot.display().to_string())
    })
    .map_err(|e| format!("save: {e}"))?;
    let snapshot_mb = server::dir_bytes(&snapshot) as f64 / 1e6;
    // Write the snapshot back to disk now, untimed: left to background
    // writeback it would compete with the timed traffic's log fsyncs.
    server::sync_tree(&snapshot).map_err(|e| format!("sync {}: {e}", snapshot.display()))?;
    let wal_before = file_len(&wal)?;
    mark("save");

    // Traffic, in rounds. Each round runs a block of reads and then, on
    // the read workloads, a block of writes after it; on `ingest` the
    // writes run beside the reads. Spreading both over the run samples
    // the shared host's disk and CPU at several moments.
    let mut conns = Vec::new();
    for _ in 0..w.readers {
        conns.push(srv.connect()?);
    }
    let mut writer_conn = srv.connect()?;
    let new_tracer = || args.trace.then(|| Tracer::new(epoch));
    let mut readers: Vec<ConnOut> = (0..w.readers)
        .map(|_| ConnOut {
            spans: new_tracer(),
            ..ConnOut::default()
        })
        .collect();
    let mut writer = traffic::Writer::default();
    writer.conn.spans = new_tracer();
    let per_block = read_count / (w.readers * ROUNDS);
    let (mut read_s, mut write_s, mut cpu_read) = (0.0, 0.0, 0.0);
    // Each round's rate of the read connections (summed) and of the
    // writer; the reported rates are their medians over the rounds.
    let (mut read_rates, mut apply_rates) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let writes_now = write_count * (round + 1) / ROUNDS - write_count * round / ROUNDS;
        let (mut sent, mut beside) = match w.concurrent() {
            true => {
                let (sent, beside) = std::sync::mpsc::channel();
                (Some(sent), Some(beside))
            }
            false => (None, None),
        };
        let acked_before = writer.conn.lat_ns.len();
        let cpu0 = server::cpu_seconds(pid)?;
        let t0 = Instant::now();
        let (blocks, beside_s) = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(r, remote)| {
                    // A reader of a fixed count sends its own slice of the
                    // queries; a reader beside the writer cycles them all.
                    let (qs, pace) = if let Some(beside) = beside.take() {
                        (&queries[..], Pace::BesideWrites(beside))
                    } else {
                        let from = (round * w.readers + r) * per_block;
                        (&queries[from..from + per_block], Pace::Count(per_block))
                    };
                    let (base, tracer) = (&truth.base, new_tracer());
                    let req_base = ((r as u64) << 32) | ((round as u64) << 24);
                    scope
                        .spawn(move || traffic::read_loop(remote, base, qs, pace, req_base, tracer))
                })
                .collect();
            let beside_s = sent.take().map(|sent| {
                let t = Instant::now();
                writer.run(
                    &mut writer_conn,
                    &writes,
                    writes_now,
                    w.weighted,
                    Some(sent),
                );
                t.elapsed().as_secs_f64()
            });
            let blocks: Vec<ConnOut> = handles
                .into_iter()
                .map(|h| h.join().expect("reader thread panicked"))
                .collect();
            (blocks, beside_s)
        });
        let secs = t0.elapsed().as_secs_f64();
        cpu_read += server::cpu_seconds(pid)? - cpu0;
        read_s += secs;
        let rates: Vec<f64> = blocks
            .iter()
            .filter_map(|b| traffic::busy_rate(&b.lat_ns))
            .collect();
        if !rates.is_empty() {
            read_rates.push(rates.iter().sum::<f64>());
        }
        for (total, block) in readers.iter_mut().zip(blocks) {
            total.merge(block);
        }
        let wsecs = beside_s.unwrap_or_else(|| {
            let t = Instant::now();
            writer.run(&mut writer_conn, &writes, writes_now, w.weighted, None);
            t.elapsed().as_secs_f64()
        });
        write_s += wsecs;
        apply_rates.extend(traffic::busy_rate(&writer.conn.lat_ns[acked_before..]));
    }
    let read_rate = median_f64(&read_rates);
    let apply_rate = median_f64(&apply_rates);
    let rss_mb = server::peak_rss_mb(pid)?;

    let mut sample_ns = Vec::new();
    let (mut traced_ns, mut untraced_ns) = (Vec::new(), Vec::new());
    for mut r in readers {
        ops.add("sample", r.attempted, r.failed);
        sample_ns.append(&mut r.lat_ns);
        traced_ns.append(&mut r.traced_ns);
        untraced_ns.append(&mut r.untraced_ns);
        problems.append(&mut r.problems);
        if let (Some(t), Some(spans)) = (tracer.as_mut(), r.spans) {
            t.absorb(spans);
        }
    }
    let mut wconn = writer.conn;
    ops.add("apply", wconn.attempted, wconn.failed);
    problems.append(&mut wconn.problems);
    if let (Some(t), Some(spans)) = (tracer.as_mut(), wconn.spans.take()) {
        t.absorb(spans);
    }
    truth.inserted = writer.live;
    let acked = wconn.lat_ns.len();

    // Checks on the final state, apart from the timed traffic.
    mark("traffic");
    check_counts(
        &mut admin,
        &truth,
        &domain,
        w,
        seed,
        &mut ops,
        &mut problems,
        &mut tracer,
    );
    check_chi_square(
        &mut admin,
        &truth,
        w,
        seed,
        &mut ops,
        &mut problems,
        &mut tracer,
    );
    check_state(
        &mut admin,
        &truth,
        "before the kill",
        &mut ops,
        &mut problems,
        &mut tracer,
    );
    let log_growth = file_len(&wal)?.saturating_sub(wal_before);
    drop(admin);
    srv.kill();

    // Recovery: snapshot load plus replay of every record logged after it.
    mark("checks");
    let recover_args = vec![
        "--snapshot".to_string(),
        snapshot.display().to_string(),
        "--wal".to_string(),
        wal.display().to_string(),
    ];
    let mut recoveries = Vec::new();
    for i in 0..RECOVERIES {
        let span = tracer
            .as_mut()
            .map(|t| t.begin("serve.recover", i as u64, None));
        let (srv, secs) = Server::start(&args.server, &recover_args)?;
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.end(s);
        }
        recoveries.push(secs);
        let mut remote = srv.connect()?;
        check_state(
            &mut remote,
            &truth,
            "after recovery",
            &mut ops,
            &mut problems,
            &mut tracer,
        );
        ops.add("recovery", 1, 0);
        drop(remote);
        srv.kill();
    }

    mark("recovery");
    // Every operation of a run is expected to succeed: a failed one
    // fails the run, whichever check it belonged to.
    for (op, &(a, f)) in &ops.0 {
        if f > 0 {
            problems.push(format!("{f} of {a} {op} operations failed"));
        }
    }
    let (sample_p50, sample_p99) = p50_p99(&mut sample_ns);
    let mut apply_ns = wconn.lat_ns.clone();
    let (apply_p50, apply_p99) = p50_p99(&mut apply_ns);
    // A p99 is a tail only with ten samples or more beyond it.
    let tail = |n: usize| {
        if n >= 1000 {
            ""
        } else {
            ", too few samples for a tail"
        }
    };
    println!(
        "sample latency: p50 {:.1} us, p99 {:.1} us (n = {}{}); apply latency: p50 {:.1} us, p99 {:.1} us (n = {}{})",
        sample_p50 / 1e3,
        sample_p99 / 1e3,
        sample_ns.len(),
        tail(sample_ns.len()),
        apply_p50 / 1e3,
        apply_p99 / 1e3,
        apply_ns.len(),
        tail(apply_ns.len()),
    );
    let span = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0, f64::max);
        format!("{lo:.1}..{hi:.1} over {} rounds", v.len())
    };
    println!(
        "round rates: sample {} req/s, apply {} ops/s",
        span(&read_rates),
        span(&apply_rates)
    );
    println!(
        "setup runs {setups:.3?} s; recoveries {recoveries:.3?} s; read traffic {read_s:.2} s; write traffic {write_s:.2} s"
    );
    let line: Vec<String> = timeline
        .iter()
        .map(|(p, t)| format!("{p} {t:.1}"))
        .collect();
    println!(
        "timeline (s since start, at the end of each phase): {}",
        line.join(", ")
    );
    for (op, (a, f)) in &ops.0 {
        println!("ops {op}: attempted {a}, failed {f}");
    }

    if !args.trace {
        metrics = vec![
            ("setup_s", median_f64(&setups), "s"),
            ("sample_qps", read_rate, "req/s"),
            ("sample_p50_us", sample_p50 / 1e3, "us"),
            ("apply_ops_per_s", apply_rate, "ops/s"),
            ("apply_p50_us", apply_p50 / 1e3, "us"),
            ("recover_s", median_f64(&recoveries), "s"),
            ("server_rss_mb", rss_mb, "MB"),
            ("snapshot_mb", snapshot_mb, "MB"),
            (
                "log_bytes_per_apply",
                log_growth as f64 / acked.max(1) as f64,
                "B",
            ),
        ];
    } else {
        let mut t = tracer.take().expect("traced run has a tracer");
        let inputs = layers::Inputs {
            csv: &csv,
            snapshot: &snapshot,
            wal: &wal,
            dir,
            queries: &queries,
            writes: &writes[..writes.len().min(24)],
            seed,
        };
        let layer = layers::measure(w, &inputs, &mut t)?;
        let (traced_p50, _) = p50_p99(&mut traced_ns);
        let (untraced_p50, _) = p50_p99(&mut untraced_ns);
        println!(
            "tracing overhead: sample p50 {:.2} us traced vs {:.2} us untraced ({:+.2} us, n = {} / {})",
            traced_p50 / 1e3,
            untraced_p50 / 1e3,
            (traced_p50 - untraced_p50) / 1e3,
            traced_ns.len(),
            untraced_ns.len()
        );
        println!("span self times (name: count, median total us, median self us):");
        for (name, (n, total, own)) in t.self_times() {
            println!("  {name}: {n}, {:.2}, {:.2}", total / 1e3, own / 1e3);
        }
        let spans_path = args
            .work
            .join("spans")
            .join(format!("{}-seed{seed}.jsonl", w.name));
        t.write_jsonl(&spans_path)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        println!(
            "spans: {} written to {}",
            t.spans.len(),
            spans_path.display()
        );

        let codec = layer["wire.encode_us"] + layer["wire.decode_us"];
        let remote_p50_us = untraced_p50 / 1e3;
        let unit = |name: &str| match name.rsplit(['_', '.']).next() {
            Some("s") => "s",
            Some("us") => "us",
            Some("ns") => "ns",
            Some("mb") => "MB",
            Some("bytes") => "B",
            _ => "",
        };
        for (name, v) in &layer {
            metrics.push((*name, *v, unit(name)));
        }
        metrics.push((
            "server.overhead_us",
            remote_p50_us - layer["client.run_us"] - codec,
            "us",
        ));
        metrics.push((
            "server.cpu_us_per_sample",
            cpu_read * 1e6 / sample_ns.len().max(1) as f64,
            "us",
        ));
    }
    Ok(Outcome {
        metrics,
        ops,
        problems,
    })
}

/// Runs `f` inside a span when the run is traced.
fn traced<T>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, 0, None, f),
        None => f(),
    }
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn write_csv(path: &Path, data: &[Interval64], weights: &[f64]) -> Result<(), String> {
    use std::io::Write;
    let err = |e: std::io::Error| format!("write {}: {e}", path.display());
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    for (iv, w) in data.iter().zip(weights) {
        writeln!(out, "{},{},{}", iv.lo, iv.hi, w).map_err(err)?;
    }
    out.flush().map_err(err)?;
    out.get_ref().sync_all().map_err(err)
}

/// The region past the base domain where every fresh interval lies.
fn fresh_region() -> Interval64 {
    Interval64::new(FRESH_SHIFT, i64::MAX / 2)
}

/// `count` on seeded queries, plus the fresh region, against brute force.
#[allow(clippy::too_many_arguments)]
fn check_counts(
    remote: &mut irs_wire::RemoteClient<i64>,
    truth: &Truth,
    domain: &QueryWorkload,
    w: &Workload,
    seed: u64,
    ops: &mut OpCounts,
    problems: &mut Vec<String>,
    tracer: &mut Option<Tracer>,
) {
    let mut qs = domain.generate(COUNT_CHECKS - 1, w.extent_pct, splitmix64(seed ^ 5));
    qs.push(fresh_region());
    for q in qs {
        let got = traced(tracer, "remote.count", || remote.count(q));
        let want = truth.count(q);
        match got {
            Ok(n) if n == want => ops.add("count", 1, 0),
            Ok(n) => {
                ops.add("count", 1, 0);
                problems.push(format!("count {q:?} = {n}, brute force says {want}"));
            }
            Err(e) => {
                ops.add("count", 1, 1);
                eprintln!("count {q:?} failed: {e}");
            }
        }
    }
}

/// Pools draws over one small fixed result set and tests them for
/// uniformity, or for weight-proportionality on a weighted workload.
fn check_chi_square(
    remote: &mut irs_wire::RemoteClient<i64>,
    truth: &Truth,
    w: &Workload,
    seed: u64,
    ops: &mut OpCounts,
    problems: &mut Vec<String>,
    tracer: &mut Option<Tracer>,
) {
    // A stabbing query at a seeded point inside the domain: about a
    // hundred Taxi trips overlap any instant at n = 1M, a few dozen at 200k.
    let (lo, hi) = irs_core::domain_bounds(&truth.base).expect("non-empty data");
    let p = lo + (splitmix64(seed ^ 6) % (hi - lo) as u64) as i64;
    let q = Interval64::new(p, p);
    let members = truth.members(q);
    if members.len() < 2 {
        problems.push(format!(
            "chi-square query {q:?} has {} members",
            members.len()
        ));
        return;
    }
    let index: BTreeMap<u32, usize> = members.iter().enumerate().map(|(i, m)| (m.0, i)).collect();
    let mut observed = vec![0u64; members.len()];
    let mut failed = 0;
    for r in 0..CHI_REQUESTS {
        let query = if w.weighted {
            Query::SampleWeighted { q, s: CHI_S }
        } else {
            Query::Sample { q, s: CHI_S }
        };
        let got = traced(tracer, "remote.sample_seeded", || {
            remote.run_seeded(&[query], splitmix64(seed ^ (7 + r as u64)))
        });
        match got.map(|mut v| v.pop()) {
            Ok(Some(Ok(QueryOutput::Samples(ids)))) => {
                ops.add("chi-square", 1, 0);
                for id in ids {
                    match index.get(&id) {
                        Some(&i) => observed[i] += 1,
                        None => problems.push(format!("chi-square draw {id} misses {q:?}")),
                    }
                }
            }
            other => {
                ops.add("chi-square", 1, 1);
                failed += 1;
                eprintln!("chi-square request failed: {other:?}");
            }
        }
    }
    // The test speaks only of the full pool: a failed request or a
    // short answer leaves it unperformed, and that fails the run.
    let draws: u64 = observed.iter().sum();
    let want = (CHI_REQUESTS * CHI_S) as u64;
    if failed > 0 || draws != want {
        problems.push(format!(
            "chi-square not performed: {failed} of {CHI_REQUESTS} requests failed, {draws} of {want} draws pooled"
        ));
        return;
    }
    let total_w: f64 = members
        .iter()
        .map(|m| if w.weighted { m.1 } else { 1.0 })
        .sum();
    let expected: Vec<f64> = members
        .iter()
        .map(|m| if w.weighted { m.1 } else { 1.0 } / total_w)
        .collect();
    let stat = chi_square_statistic(&observed, &expected, draws);
    let critical = chi_square_critical(members.len() - 1, CHI_Z);
    println!(
        "chi-square: {} members, {draws} draws, statistic {stat:.1}, critical {critical:.1}",
        members.len(),
    );
    if stat > critical {
        problems.push(format!(
            "chi-square {stat:.1} > {critical:.1} over {} members of {q:?}",
            members.len()
        ));
    }
}

/// The served live count and the exact set of live fresh ids match the
/// benchmark's copy: every acked insert present, every acked delete gone.
fn check_state(
    remote: &mut irs_wire::RemoteClient<i64>,
    truth: &Truth,
    when: &str,
    ops: &mut OpCounts,
    problems: &mut Vec<String>,
    tracer: &mut Option<Tracer>,
) {
    match traced(tracer, "remote.stats", || remote.stats()) {
        Ok(s) if s.len == truth.live_len() => ops.add("state", 1, 0),
        Ok(s) => {
            ops.add("state", 1, 0);
            problems.push(format!(
                "{when}: stats.len = {}, expected {}",
                s.len,
                truth.live_len()
            ));
        }
        Err(e) => {
            ops.add("state", 1, 1);
            eprintln!("{when}: stats failed: {e}");
        }
    }
    match traced(tracer, "remote.search", || remote.search(fresh_region())) {
        Ok(mut ids) => {
            ops.add("state", 1, 0);
            ids.sort_unstable();
            let want: Vec<u32> = truth.inserted.keys().copied().collect();
            if ids != want {
                problems.push(format!(
                    "{when}: {} live fresh ids served, {} expected",
                    ids.len(),
                    want.len()
                ));
            }
        }
        Err(e) => {
            ops.add("state", 1, 1);
            eprintln!("{when}: search failed: {e}");
        }
    }
}
