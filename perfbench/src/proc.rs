//! Child processes of the program under test: one-shot commands reaped
//! with their resource usage, and the long-running gateway.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished command did.
#[derive(Debug, Clone)]
pub struct Finished {
    pub exit_code: Option<i32>,
    pub stdout: Vec<u8>,
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
    /// User plus system CPU time, seconds.
    pub cpu_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.exit_code == Some(0)
    }
}

/// Run `cmd` to completion with stdout captured and stderr discarded,
/// reaping it with `wait4` so its own CPU time and peak RSS are known.
pub fn run(cmd: &mut Command) -> Result<Finished, String> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_end(&mut stdout);
    let pid = i32::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on it
        // after this point), and both out-pointers refer to live, properly
        // sized locals for the duration of the call.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4 {cmd:?}: {err}"));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    read.map_err(|e| format!("read stdout of {cmd:?}: {e}"))?;
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Finished {
        exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        stdout,
        wall_s,
        cpu_s: tv(&usage.utime) + tv(&usage.stime),
        peak_rss_mb: usage.maxrss as f64 / 1024.0,
    })
}

/// A running `autosens serve` bound to loopback port 0 with one worker
/// thread. Killed and reaped on drop.
pub struct Server {
    child: Child,
    pub ingest: String,
    pub http: String,
}

impl Server {
    /// Start a gateway whose files live under `dir`, and wait until
    /// it has written the addresses it bound.
    pub fn spawn(autosens: &Path, dir: &Path, checkpoints: bool) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let ready = dir.join("ready");
        let _ = std::fs::remove_file(&ready);
        let mut cmd = Command::new(autosens);
        cmd.args(["serve", "--threads", "1", "--listen", "127.0.0.1:0"])
            .args(["--http", "127.0.0.1:0", "--ready-file"])
            .arg(&ready);
        if checkpoints {
            let ckpt: PathBuf = dir.join("checkpoints");
            let _ = std::fs::remove_dir_all(&ckpt);
            cmd.arg("--checkpoint-dir").arg(ckpt);
        }
        let child = cmd
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", autosens.display()))?;
        let mut server = Server {
            child,
            ingest: String::new(),
            http: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            // The ready file is written in one call but not atomically, so
            // wait until both address lines are present.
            let text = std::fs::read_to_string(&ready).unwrap_or_default();
            let addr = |tag: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(tag))
                    .map(str::to_string)
            };
            if let (Some(ingest), Some(http)) = (addr("INGEST "), addr("HTTP ")) {
                if text.ends_with('\n') {
                    server.ingest = ingest;
                    server.http = http;
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("autosens serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("autosens serve did not become ready in 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn proc_file(&self, name: &str) -> Result<String, String> {
        let path = format!("/proc/{}/{name}", self.child.id());
        std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))
    }

    /// Peak resident set size so far (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.proc_file("status")?
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".into())
    }

    /// User plus system CPU time so far, seconds (Linux reports it in
    /// clock ticks of 1/100 s).
    pub fn cpu_s(&self) -> Result<f64, String> {
        let stat = self.proc_file("stat")?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let field = |i: usize| {
            rest.split_whitespace()
                .nth(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed /proc stat".to_string())
        };
        Ok((field(11)? + field(12)?) / 100.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
