//! End-to-end CLI tests of `serve`: a daemon must answer `query` with
//! rows that are byte-for-byte identical to what `sweep` writes for the
//! same design, mapping, configuration and workload suite, count its
//! cache misses and hits on `/metrics`, write a valid trace when it shuts
//! down, and stop cleanly on `SIGTERM`.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use seqavf_serve::client;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_seqavf"))
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join("seqavf-cli-serve-roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawning seqavf");
    assert!(
        out.status.success(),
        "seqavf failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Picks a free port by binding port 0 and dropping the listener.
fn free_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().port()
}

fn wait_healthy(addr: std::net::SocketAddr, server: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok((200, _)) = client::get(addr, "/healthz") {
            return;
        }
        if let Ok(Some(status)) = server.try_wait() {
            panic!("serve exited early with {status}");
        }
        assert!(Instant::now() < deadline, "serve never became healthy");
        std::thread::sleep(Duration::from_millis(100));
    }
}

#[test]
fn query_output_is_byte_identical_to_sweep_output() {
    let dir = scratch();
    let design = dir.join("design.exlif");
    let map = dir.join("design.map");
    let pavf = dir.join("pavf.json");
    run_ok(bin().args([
        "gen",
        "--out",
        path(&design),
        "--map",
        path(&map),
        "--seed",
        "42",
    ]));
    run_ok(bin().args([
        "ace",
        "--out",
        path(&pavf),
        "--workloads",
        "2",
        "--len",
        "600",
    ]));

    // Ground truth: the batch CLI.
    let sweep_out = dir.join("sweep.json");
    run_ok(bin().args([
        "sweep",
        "--design",
        path(&design),
        "--map",
        path(&map),
        "--pavf",
        path(&pavf),
        "--workloads",
        "3",
        "--len",
        "700",
        "--out",
        path(&sweep_out),
    ]));

    // The same answer through the service.
    let port = free_port();
    let addr: std::net::SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let trace = dir.join("serve.ndjson");
    let mut server = bin()
        .args(["serve", "--port", &port.to_string(), "--idle-secs", "120"])
        .args(["--trace-out", path(&trace), "--metrics"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning seqavf serve");
    wait_healthy(addr, &mut server);

    let query_out = dir.join("query-cold.json");
    let cold = run_ok(bin().args([
        "query",
        "--addr",
        &addr.to_string(),
        "--design",
        path(&design),
        "--map",
        path(&map),
        "--pavf",
        path(&pavf),
        "--workloads",
        "3",
        "--len",
        "700",
        "--out",
        path(&query_out),
    ]));
    assert!(cold.contains("compiled DAG miss"), "{cold}");

    let sweep_bytes = std::fs::read(&sweep_out).unwrap();
    let query_bytes = std::fs::read(&query_out).unwrap();
    assert_eq!(
        sweep_bytes, query_bytes,
        "service rows differ from the sweep CLI's"
    );

    // Warm repeat: both tiers hit, bytes still identical.
    let warm_out = dir.join("query-warm.json");
    let warm = run_ok(bin().args([
        "query",
        "--addr",
        &addr.to_string(),
        "--design",
        path(&design),
        "--map",
        path(&map),
        "--pavf",
        path(&pavf),
        "--workloads",
        "3",
        "--len",
        "700",
        "--out",
        path(&warm_out),
    ]));
    assert!(warm.contains("graph hit"), "{warm}");
    assert!(warm.contains("compiled DAG hit"), "{warm}");
    assert_eq!(std::fs::read(&warm_out).unwrap(), sweep_bytes);

    // One miss then one hit on each residency tier.
    let (status, metrics) = client::get(addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    for line in [
        "seqavf_serve_cache_miss 1",
        "seqavf_serve_cache_hit 1",
        "seqavf_serve_graph_miss 1",
        "seqavf_serve_graph_hit 1",
    ] {
        assert!(metrics.lines().any(|l| l == line), "{line}:\n{metrics}");
    }

    // Clean shutdown through the API; the process must exit by itself
    // and leave a valid trace.
    let (status, _) = client::post_json(addr, "/v1/shutdown", "{}").unwrap();
    assert_eq!(status, 200);
    let exit = wait_exit(&mut server, Duration::from_secs(10));
    assert!(exit.success(), "serve exited with {exit}");
    let text = std::fs::read_to_string(&trace).unwrap();
    let stats = seqavf_obs::ndjson::validate_trace(&text).unwrap();
    assert!(stats.spans > 0, "{stats:?}");
}

#[cfg(unix)]
#[test]
fn sigterm_stops_the_server() {
    let port = free_port();
    let addr: std::net::SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
    let mut server = bin()
        .args(["serve", "--port", &port.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning seqavf serve");
    wait_healthy(addr, &mut server);
    let killed = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("running kill");
    assert!(killed.success());
    // The handler only raises a flag; the accept thread must notice it
    // and the process must leave through its own clean-shutdown path.
    let exit = wait_exit(&mut server, Duration::from_secs(5));
    assert!(exit.success(), "serve exited with {exit}");
    let mut stdout = String::new();
    std::io::Read::read_to_string(&mut server.stdout.take().unwrap(), &mut stdout).unwrap();
    assert!(stdout.contains("shut down cleanly"), "{stdout}");
}

/// Waits for `child` to exit, killing it and failing past `limit`.
fn wait_exit(child: &mut Child, limit: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("serve did not exit within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}
