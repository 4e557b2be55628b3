//! `xqd serve` daemons: spawned on the READY handshake, drained at the end.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a daemon may take to exit after being asked to drain.
const DRAIN_WAIT: Duration = Duration::from_secs(15);

/// Pids of live daemons, for the watchdog to kill if the run wedges.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn forget(pid: u32) {
    LIVE.lock()
        .expect("daemon registry poisoned")
        .retain(|&p| p != pid);
}

/// Kills every daemon still registered (the watchdog's last resort).
pub fn kill_all() {
    let pids = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}

/// One `xqd serve` process hosting one peer.
pub struct Daemon {
    pub name: String,
    pub addr: String,
    child: Child,
    stdin: Option<ChildStdin>,
    // kept open so the daemon never writes into a closed pipe
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `xqd serve` for peer `name` with `docs` (document name, file)
    /// and returns once it printed `READY peer=<name> addr=<addr>`.
    /// The daemon's stderr goes to `log`.
    pub fn spawn(
        xqd: &Path,
        name: &str,
        docs: &[(&str, &Path)],
        log: &Path,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(xqd);
        cmd.args(["serve", "--name", name, "--listen", "127.0.0.1:0"]);
        for (doc, file) in docs {
            cmd.arg("--doc").arg(format!("{doc}={}", file.display()));
        }
        let log = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning {} serve: {e}", xqd.display()))?;
        LIVE.lock()
            .expect("daemon registry poisoned")
            .push(child.id());
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut ready = String::new();
        let read = stdout.read_line(&mut ready);
        let addr = ready
            .trim()
            .strip_prefix(&format!("READY peer={name} addr="))
            .map(str::to_string);
        let stdin = child.stdin.take();
        let mut daemon = Daemon {
            name: name.to_string(),
            addr: String::new(),
            child,
            stdin,
            _stdout: stdout,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            (read, _) => Err(format!(
                "daemon {name} did not report READY (read {read:?}, line {ready:?}, exit {:?})",
                daemon.child.try_wait()
            )),
        }
    }

    /// Resident set size from `/proc/<pid>/status`, in kB.
    pub fn rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Asks for a graceful drain and waits for the exit. `Ok` only when the
    /// daemon was still alive and exited with status 0 in time.
    pub fn drain(mut self) -> Result<(), String> {
        if let Ok(Some(status)) = self.child.try_wait() {
            return Err(format!(
                "daemon {} died before the drain ({status})",
                self.name
            ));
        }
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"drain\n").and_then(|_| stdin.flush());
        }
        let give_up = Instant::now() + DRAIN_WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => {
                    return Err(format!("daemon {} drained with {status}", self.name))
                }
                Ok(None) if Instant::now() < give_up => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err(format!("daemon {} did not drain in time", self.name)),
                Err(e) => return Err(format!("waiting for daemon {}: {e}", self.name)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        forget(self.child.id());
    }
}
