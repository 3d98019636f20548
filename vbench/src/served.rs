//! The served path: a daemon child process and the closed-loop TCP client.
//!
//! Client rule: plain blocking sockets, one `write` per request line, no
//! `TCP_NODELAY` and no quick-ack. A caller written the ordinary way sees
//! any server-side reply stall, so the benchmark must see it too.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use vstack_engine::json::Json;
use vstack_engine::server::{Bind, Daemon, DaemonConfig, ShardConfig};
use vstack_engine::SolveSummary;

/// How long a client waits for one reply before counting a hang.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Daemon child mode: serve on an ephemeral loopback port with the
/// `vstack-serve` defaults, print `listening <addr>`, and drain on a
/// `shutdown` op or when the parent closes our stdin.
pub fn serve_child(shards: usize, flight_dir: PathBuf) -> io::Result<()> {
    let daemon = Daemon::start(DaemonConfig {
        bind: Bind::Tcp("127.0.0.1:0".to_string()),
        shard: ShardConfig {
            shards,
            queue_capacity: 32,
            lru_capacity: 256,
            cache_dir: None,
            warm_start: true,
            flight_dir: Some(flight_dir),
            slo_us: 250_000,
            slo_target: 0.999,
        },
        default_deadline_ms: 30_000,
        max_deadline_ms: 300_000,
        telemetry_out: None,
        telemetry_interval_ms: 1_000,
    })?;
    let addr = daemon
        .tcp_addr()
        .ok_or_else(|| io::Error::other("daemon has no TCP address"))?;
    println!("listening {addr}");
    io::stdout().flush()?;
    // The parent holds our stdin; end of file means it is gone.
    let orphaned = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let flag = orphaned.clone();
    thread::spawn(move || {
        let mut sink = Vec::new();
        let _ = io::stdin().read_to_end(&mut sink);
        flag.store(true, Ordering::SeqCst);
    });
    while !daemon.wait_shutdown_requested(Duration::from_millis(100)) {
        if orphaned.load(Ordering::SeqCst) {
            break;
        }
    }
    daemon.shutdown(true);
    Ok(())
}

/// A running daemon child.
pub struct Served {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Served {
    /// Starts a daemon child of this binary and waits for its address.
    ///
    /// # Errors
    ///
    /// Spawn failures or a child that exits before listening.
    pub fn start(shards: usize, flight_dir: &std::path::Path) -> io::Result<Served> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("serve")
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--flight-dir")
            .arg(flight_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Served {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!("daemon did not start: {line:?}")))
            }
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits for the child to exit (killing it after
    /// ten seconds).
    pub fn stop(mut self) {
        if let Ok(mut conn) = Client::connect(self.addr) {
            let _ = conn.call("{\"op\":\"shutdown\"}\n");
        }
        drop(self.child.stdin.take());
        let until = Instant::now() + Duration::from_secs(10);
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One blocking connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with default socket options.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Writes `line` (newline included) in one call and reads one reply
    /// line.
    ///
    /// # Errors
    ///
    /// Socket failures, a timeout or a closed connection.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        Ok(reply)
    }
}

/// One request's result as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Stream index of the request.
    pub index: usize,
    /// Client-observed wall time, milliseconds.
    pub latency_ms: f64,
    /// The summary of an `ok` reply.
    pub summary: Option<SolveSummary>,
    /// Telemetry `queue_wait_us`, milliseconds.
    pub queue_wait_ms: f64,
    /// Telemetry `solve_us`, milliseconds.
    pub solve_ms: f64,
    /// Why the reply is not a usable answer, if it is not.
    pub error: Option<String>,
}

fn parse_reply(index: usize, latency_ms: f64, text: &str) -> Reply {
    let mut r = Reply {
        index,
        latency_ms,
        summary: None,
        queue_wait_ms: 0.0,
        solve_ms: 0.0,
        error: None,
    };
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => {
            r.error = Some(format!("unparsable reply: {e}"));
            return r;
        }
    };
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        r.error = Some(format!("error reply: {}", text.trim()));
        return r;
    }
    match doc.get("summary").map(SolveSummary::from_json) {
        Some(Ok(s)) => r.summary = Some(s),
        _ => r.error = Some("reply without a summary".to_string()),
    }
    let t = doc.get("telemetry");
    let field = |k: &str| t.and_then(|t| t.get(k)).and_then(Json::as_f64);
    match (field("queue_wait_us"), field("solve_us")) {
        (Some(q), Some(s)) => {
            r.queue_wait_ms = q / 1e3;
            r.solve_ms = s / 1e3;
        }
        _ => r.error = Some("reply without telemetry".to_string()),
    }
    r
}

/// Drives `lines` closed loop over `connections` connections until
/// `deadline`: each connection takes the next unsent line, waits for its
/// reply, and repeats. Returns the replies in completion order.
///
/// # Errors
///
/// A connection that cannot be opened.
pub fn drive(
    addr: SocketAddr,
    lines: &[String],
    connections: usize,
    deadline: Instant,
) -> io::Result<Vec<Reply>> {
    let next = AtomicUsize::new(0);
    let clients: Vec<Client> = (0..connections)
        .map(|_| Client::connect(addr))
        .collect::<io::Result<_>>()?;
    let replies = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = lines.get(i) else { break };
                        let started = Instant::now();
                        let reply = client.call(line);
                        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
                        match reply {
                            Ok(text) => out.push(parse_reply(i, latency_ms, &text)),
                            Err(e) => {
                                out.push(Reply {
                                    index: i,
                                    latency_ms,
                                    summary: None,
                                    queue_wait_ms: 0.0,
                                    solve_ms: 0.0,
                                    error: Some(format!("no reply: {e}")),
                                });
                                break;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    Ok(replies)
}
