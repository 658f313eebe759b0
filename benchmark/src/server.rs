//! The server under test, run as a child process.
//!
//! The benchmark starts `seqavf-benchmark-server`, built next to its own
//! executable, which starts `seqavf_serve::server::spawn` with the
//! `seqavf serve` defaults and serves until its standard input closes.
//! Running the server in its own process keeps the load generator's
//! threads and allocations out of the server's CPU time and peak memory.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};

use seqavf_obs::Collector;
use seqavf_serve::server::{spawn, ServeConfig};

use crate::heap;

/// One-line rendering of the server configuration (`ServeConfig::default()`,
/// the `seqavf serve` defaults) for provenance.
pub fn describe_config() -> String {
    let c = ServeConfig::default();
    format!(
        "workers {} queue {} max_resident {} threads {}",
        c.workers, c.queue_cap, c.resident.max_resident, c.resident.threads
    )
}

/// The server binary's executable name.
const SERVER_EXE: &str = "seqavf-benchmark-server";

/// The child side: serve until standard input reaches end of file, then
/// shut down and report the live-heap peak as `peak_heap_mib <value>`.
pub fn child_main() -> Result<(), String> {
    let handle = spawn(ServeConfig::default(), Collector::disabled())?;
    let mut out = std::io::stdout();
    writeln!(out, "listening {}", handle.addr())
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot report the address: {e}"))?;
    // A closed pipe also ends the wait, so the server never outlives the
    // benchmark process.
    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
    handle.shutdown();
    handle.join();
    writeln!(out, "peak_heap_mib {}", heap::peak_mib())
        .map_err(|e| format!("cannot report memory: {e}"))
}

/// The parent side: a running server child.
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerChild {
    /// Starts the child and waits until it listens.
    pub fn start() -> Result<ServerChild, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate myself: {e}"))?
            .with_file_name(SERVER_EXE);
        let mut child = Command::new(&exe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| {
                format!(
                    "cannot start {} (build it with `cargo build --bins`): {e}",
                    exe.display()
                )
            })?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().strip_prefix("listening ")?.parse().ok());
        match addr {
            Some(addr) => Ok(ServerChild {
                child,
                stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not start: `{}`", line.trim()))
            }
        }
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts the server down and returns its live-heap peak, MiB.
    pub fn stop(mut self) -> Result<f64, String> {
        drop(self.child.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        rest.lines()
            .find_map(|l| l.strip_prefix("peak_heap_mib ")?.trim().parse().ok())
            .ok_or_else(|| format!("server reported no peak memory: `{}`", rest.trim()))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path:
        // `stop` has already reaped it otherwise.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
