//! Release `pubopt-serve` daemons run as child processes, with their CPU
//! time and peak RSS read from `/proc/<pid>`.

use crate::http::Conn;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, 100 on every Linux ABI the benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// How long a daemon may take to bind, or to exit after shutdown.
const START_STOP_BUDGET: Duration = Duration::from_secs(20);

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// Address the daemon bound.
    pub addr: SocketAddr,
    /// Command-line flags it was started with.
    pub flags: Vec<String>,
}

impl Daemon {
    /// Start `bin` on an OS-assigned port with `flags`, and wait for its
    /// `listening on` line.
    pub fn spawn(bin: &Path, flags: Vec<String>) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = read.ok().and_then(|_| {
            line.trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse().ok())
        });
        match addr {
            Some(addr) => Ok(Daemon { child, addr, flags }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "{} did not report its address (got {line:?})",
                    bin.display()
                )))
            }
        }
    }

    fn proc_file(&self, name: &str) -> io::Result<String> {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id()))
    }

    /// User + system CPU seconds the daemon has used so far.
    pub fn cpu_s(&self) -> io::Result<f64> {
        proc_cpu_s(&self.proc_file("stat")?)
    }

    /// Peak resident set size (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        vm_hwm_mb(&self.proc_file("status")?)
    }

    /// `GET /v1/stats`, parsed.
    pub fn stats(&self) -> io::Result<pubopt_obs::json::Value> {
        let (status, body) = Conn::new(self.addr).request("GET", "/v1/stats", "")?;
        let text = String::from_utf8_lossy(&body);
        if status != 200 {
            return Err(io::Error::other(format!("/v1/stats answered {status}")));
        }
        pubopt_obs::json::parse(&text).map_err(|e| io::Error::other(format!("/v1/stats: {e}")))
    }

    /// Ask the daemon to stop and wait for it; kill it if it does not
    /// exit within the budget.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = Conn::new(self.addr).request("POST", "/v1/shutdown", "");
        let deadline = Instant::now() + START_STOP_BUDGET;
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return asked.map(|_| ());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other(
            "daemon ignored /v1/shutdown and was killed",
        ))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only on error paths that skipped `shutdown`.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// User + system CPU seconds from a `/proc/<pid>/stat` line.
pub fn proc_cpu_s(stat: &str) -> io::Result<f64> {
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3, so utime (14) and stime (15) sit at
    // offsets 11 and 12.
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| io::Error::other("malformed /proc stat CPU field"))
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
}

/// `VmHWM` in MB from a `/proc/<pid>/status` file.
pub fn vm_hwm_mb(status: &str) -> io::Result<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// User + system CPU seconds of this benchmark process itself.
pub fn self_cpu_s() -> io::Result<f64> {
    proc_cpu_s(&std::fs::read_to_string("/proc/self/stat")?)
}

/// Peak RSS of this benchmark process, MB.
pub fn self_peak_rss_mb() -> io::Result<f64> {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_parsing() {
        let stat = "4242 (pubopt serve) S 1 2 3 4 5 6 7 8 9 10 250 150 0 0 20 0 9";
        assert!((proc_cpu_s(stat).unwrap() - 4.0).abs() < 1e-12);
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   2048 kB\n";
        assert_eq!(vm_hwm_mb(status).unwrap(), 2.0);
        assert!(self_cpu_s().unwrap() >= 0.0);
        assert!(self_peak_rss_mb().unwrap() > 0.0);
    }
}
