//! Regression tests for reply framing on the TCP daemon.
//!
//! A reply that leaves in two small writes, or a second reply written
//! while the first is still unacknowledged, waits out Nagle's algorithm
//! plus the client's delayed ACK: at least 40 ms per stalled reply on
//! Linux. The client here keeps default socket options (no
//! `TCP_NODELAY`), and the ops are cheap (`stats` and a malformed line),
//! so a stall-free daemon answers each batch below in a few milliseconds
//! while a stalling one needs at least 800 ms.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use vstack_engine::json::Json;
use vstack_engine::server::{Daemon, DaemonConfig};

/// Total wall-time budget for 20 sequential round trips or 10 pipelined
/// pairs; half of what 20 stalled replies would cost.
const BUDGET: Duration = Duration::from_millis(400);

fn connect(daemon: &Daemon) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(daemon.tcp_addr().expect("tcp bind")).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    BufReader::new(stream)
}

fn read_reply(conn: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    conn.read_line(&mut line).expect("read reply");
    assert!(
        line.ends_with('\n'),
        "reply must be one full line: {line:?}"
    );
    Json::parse(&line).expect("reply is JSON")
}

fn ok(reply: &Json) -> Option<bool> {
    reply.get("ok").and_then(Json::as_bool)
}

#[test]
fn sequential_round_trips_do_not_stall() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("daemon start");
    let mut conn = connect(&daemon);
    // Warm the connection thread before timing.
    conn.get_mut()
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("send");
    read_reply(&mut conn);

    let start = Instant::now();
    for id in 0..20 {
        let request = format!("{{\"op\":\"stats\",\"id\":{id}}}\n");
        conn.get_mut().write_all(request.as_bytes()).expect("send");
        let reply = read_reply(&mut conn);
        assert_eq!(ok(&reply), Some(true));
        assert_eq!(reply.get("id").and_then(Json::as_usize), Some(id));
    }
    let took = start.elapsed();
    daemon.shutdown(true);
    assert!(
        took < BUDGET,
        "20 sequential round trips took {took:?}; replies are stalling"
    );
}

#[test]
fn pipelined_pairs_do_not_stall() {
    let daemon = Daemon::start(DaemonConfig::default()).expect("daemon start");
    let mut conn = connect(&daemon);
    conn.get_mut()
        .write_all(b"{\"op\":\"stats\"}\n")
        .expect("send");
    read_reply(&mut conn);

    let start = Instant::now();
    for id in 0..10 {
        // Both requests in one write: the daemon answers the first, then
        // the second while the first reply may still be unacknowledged.
        let pair = format!("{{\"op\":\"stats\",\"id\":{id}}}\n{{not json\n");
        conn.get_mut().write_all(pair.as_bytes()).expect("send");
        let first = read_reply(&mut conn);
        assert_eq!(first.get("id").and_then(Json::as_usize), Some(id));
        assert_eq!(ok(&first), Some(true));
        let second = read_reply(&mut conn);
        assert_eq!(ok(&second), Some(false));
        assert_eq!(
            second
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("parse_error")
        );
    }
    let took = start.elapsed();
    daemon.shutdown(true);
    assert!(
        took < BUDGET,
        "10 pipelined pairs took {took:?}; the second reply of a pair is stalling"
    );
}
