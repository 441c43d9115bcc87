//! The server under test as a child process, and what the benchmark
//! reads about it and about the host from `/proc`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use irs_wire::RemoteClient;

/// A running `irs-cli serve` process. Dropping it kills the process
/// and waits for it, so no exit path of the benchmark leaves a server
/// behind.
pub struct Server {
    child: Child,
    addr: String,
    /// Reads the server's standard output to its end: a server whose
    /// stdout pipe is closed dies on its next `println!`.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin serve <args> --addr 127.0.0.1:0`, reads the
    /// OS-assigned address from its banner, and waits until it answers
    /// `health`. Returns the server and the seconds from spawn to the
    /// first good `health`.
    pub fn start(bin: &Path, args: &[String]) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // Wrap at once so a failure below still kills the child.
        let mut server = Server {
            child,
            addr: String::new(),
            drain: None,
        };
        let mut lines = BufReader::new(stdout).lines();
        server.addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        break rest.split_whitespace().next().unwrap_or("").to_string();
                    }
                }
                Some(Err(e)) => return Err(format!("reading the server banner: {e}")),
                None => return Err("the server exited before printing its banner".to_string()),
            }
        };
        server.drain = Some(std::thread::spawn(move || lines.for_each(drop)));
        let mut remote = server.connect()?;
        remote
            .health()
            .map_err(|e| format!("health on {}: {e}", server.addr))?;
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    pub fn connect(&self) -> Result<RemoteClient<i64>, String> {
        RemoteClient::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the process with `SIGKILL` (no drain, no flush) and waits
    /// until it is gone.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc status".to_string())
}

/// User + system CPU seconds a process has used so far. `/proc` counts
/// in clock ticks, which are 1/100 s on Linux.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // The command name may hold spaces; fields are counted after it.
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => Ok((u + s) / 100.0),
        _ => Err("malformed /proc stat line".to_string()),
    }
}

/// The filesystem type that holds `path`, from the longest matching
/// mount point in `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".to_string())
}

/// The CPU model line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// `fsync`s every regular file under `dir`, then `dir` itself.
pub fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            sync_tree(&entry.path())?;
        } else {
            std::fs::File::open(entry.path())?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}
