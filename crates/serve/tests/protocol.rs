//! Protocol-level integration tests: every case drives a real daemon
//! over real sockets, exactly as an untrusted client would.

use lubt_obs::json::{parse, Value};
use lubt_serve::{protocol::codes, ServeConfig, Server};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(line.ends_with('\n'), "framed response: {line:?}");
        line.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(doc: &'a Value, key: &str) -> &'a str {
    doc.get(key).and_then(Value::as_str).unwrap_or("")
}

fn square_instance(name: &str) -> String {
    format!(r#"{{"name":"{name}","source":[5,5],"sinks":[[0,0],[10,0],[0,10],[10,10]]}}"#)
}

/// A deterministic pseudo-random instance, sized to keep a debug-build
/// worker busy for a while when batched.
fn grid_instance(name: &str, sinks: usize) -> String {
    let pts: Vec<String> = (0..sinks)
        .map(|k| {
            let x = (k * 37 % 101) as f64 + 0.25 * (k % 4) as f64;
            let y = (k * 61 % 97) as f64 + 0.5 * (k % 2) as f64;
            format!("[{x},{y}]")
        })
        .collect();
    format!(r#"{{"name":"{name}","sinks":[{}]}}"#, pts.join(","))
}

fn solve_line(id: &str, inst: &str) -> String {
    format!(r#"{{"op":"solve","id":"{id}","upper":1.4,"instance":{inst}}}"#)
}

#[test]
fn malformed_frames_get_bad_request_and_the_connection_survives() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut c = Client::connect(&server);
    let cases = [
        ("this is not json", "invalid JSON"),
        (r#"{"op":"ping","op":"ping"}"#, "duplicate object key"),
        (r#"{"op":"ping","bogus":1}"#, "unknown field"),
        (r#"[1,2,3]"#, "must be a JSON object"),
        (r#"{"op":"solve","id":"e1","upper":1.0}"#, "instance"),
    ];
    for (line, needle) in cases {
        let resp = c.roundtrip(line);
        let doc = parse(&resp).expect("error responses are strict JSON");
        assert_eq!(field(&doc, "status"), "error", "{line}");
        assert_eq!(field(&doc, "code"), codes::BAD_REQUEST, "{line}");
        assert!(field(&doc, "message").contains(needle), "{line}: {resp}");
    }
    // The id is echoed when the frame at least parsed as an object.
    let resp = c.roundtrip(r#"{"op":"solve","id":"e1","upper":1.0}"#);
    assert_eq!(field(&parse(&resp).unwrap(), "id"), "e1");
    // Framing is intact: the same connection still answers pings.
    let resp = c.roundtrip(r#"{"op":"ping","id":"still-alive"}"#);
    let doc = parse(&resp).unwrap();
    assert_eq!(field(&doc, "status"), "ok");
    assert_eq!(field(&doc, "id"), "still-alive");
    server.shutdown();
}

#[test]
fn oversized_frames_are_rejected_and_the_connection_closes() {
    let config = ServeConfig {
        max_request_bytes: 256,
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap();
    let mut c = Client::connect(&server);
    let huge = format!(
        r#"{{"op":"solve","id":"big","upper":1.4,"instance":{}}}"#,
        grid_instance("big", 200)
    );
    assert!(huge.len() > 256);
    let resp = c.roundtrip(&huge);
    let doc = parse(&resp).unwrap();
    assert_eq!(field(&doc, "code"), codes::OVERSIZED);
    // The stream can no longer be framed, so the daemon closes it.
    let mut rest = String::new();
    c.reader.read_to_string(&mut rest).expect("EOF");
    assert!(
        rest.is_empty(),
        "no further frames after oversized: {rest:?}"
    );
    server.shutdown();
}

#[test]
fn a_zero_deadline_expires_before_solving() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut c = Client::connect(&server);
    let resp = c.roundtrip(&format!(
        r#"{{"op":"solve","id":"late","deadline_ms":0,"upper":1.4,"instance":{}}}"#,
        square_instance("sq")
    ));
    let doc = parse(&resp).unwrap();
    assert_eq!(field(&doc, "status"), "error");
    assert_eq!(field(&doc, "code"), codes::DEADLINE_EXPIRED);
    assert_eq!(field(&doc, "id"), "late");
    // Without the deadline the same request solves fine.
    let resp = c.roundtrip(&solve_line("ontime", &square_instance("sq")));
    assert_eq!(field(&parse(&resp).unwrap(), "status"), "ok");
    server.shutdown();
}

#[test]
fn a_full_queue_rejects_fast_instead_of_buffering() {
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        cache_entries: 0,
        session_entries: 0,
        ..ServeConfig::default()
    };
    let server = Server::start(config).unwrap();
    let addr = server.addr();
    // Occupy the single worker with a batch big enough to outlast the
    // probes below by a wide margin: debug builds solve these slowly,
    // release builds need four times as many.
    let batch = if cfg!(debug_assertions) { 12 } else { 48 };
    let occupier = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut c = Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        let instances: Vec<String> = (0..batch)
            .map(|k| grid_instance(&format!("occ{k}"), 110))
            .collect();
        let resp = c.roundtrip(&format!(
            r#"{{"op":"batch","id":"occupy","upper":1.5,"instances":[{}]}}"#,
            instances.join(",")
        ));
        assert_eq!(field(&parse(&resp).unwrap(), "status"), "ok");
    });
    // Give the worker time to pop the occupier off the queue.
    std::thread::sleep(Duration::from_millis(300));
    // This one parks in the queue (depth 1)...
    let mut waiter = Client::connect(&server);
    waiter.send(&solve_line("queued", &square_instance("sq")));
    std::thread::sleep(Duration::from_millis(100));
    // ...so the next admission must fail fast.
    let mut probe = Client::connect(&server);
    let resp = probe.roundtrip(&solve_line("overflow", &square_instance("sq")));
    let doc = parse(&resp).unwrap();
    assert_eq!(field(&doc, "status"), "error", "{resp}");
    assert_eq!(field(&doc, "code"), codes::QUEUE_FULL, "{resp}");
    // The queued request still completes once the worker frees up.
    let resp = waiter.recv();
    assert_eq!(field(&parse(&resp).unwrap(), "status"), "ok");
    occupier.join().unwrap();
    assert!(server
        .metrics_prometheus()
        .contains("lubt_serve_queue_full"));
    server.shutdown();
}

/// Runs `requests` against a fresh server with `workers` workers using
/// one thread per client connection; returns id → response.
fn run_fleet(workers: usize, requests: &[String]) -> BTreeMap<String, String> {
    let server = Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .unwrap();
    let handles: Vec<_> = requests
        .iter()
        .cloned()
        .map(|line| {
            let addr = server.addr();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut c = Client {
                    reader: BufReader::new(stream.try_clone().unwrap()),
                    writer: stream,
                };
                let resp = c.roundtrip(&line);
                let id = field(&parse(&resp).unwrap(), "id").to_string();
                (id, resp)
            })
        })
        .collect();
    let mut out = BTreeMap::new();
    for h in handles {
        let (id, resp) = h.join().unwrap();
        assert!(out.insert(id, resp).is_none(), "unique ids");
    }
    server.shutdown();
    out
}

#[test]
fn one_and_eight_workers_answer_byte_identically() {
    // 12 concurrent requests over 4 distinct instances: duplicates
    // exercise the cache and the warm pool under contention, different
    // backends exercise both LP paths.
    let mut requests = Vec::new();
    for k in 0..12 {
        let inst = grid_instance(&format!("net{}", k % 4), 8);
        let backend = if k % 2 == 0 { "revised" } else { "simplex" };
        requests.push(format!(
            r#"{{"op":"solve","id":"r{k}","upper":1.5,"backend":"{backend}","instance":{inst}}}"#
        ));
    }
    let solo = run_fleet(1, &requests);
    let fleet = run_fleet(8, &requests);
    assert_eq!(solo.len(), 12);
    for (id, resp) in &solo {
        assert_eq!(field(&parse(resp).unwrap(), "status"), "ok", "{id}: {resp}");
        assert_eq!(
            fleet.get(id),
            Some(resp),
            "{id} differs between 1 and 8 workers"
        );
    }
}

#[test]
fn cold_cached_and_warm_responses_are_byte_identical() {
    let line = solve_line("tiers", &grid_instance("tiered", 10));
    // Tier 1: cold, then result-cache hit on the same server.
    let cached_server = Server::start(ServeConfig::default()).unwrap();
    let mut c = Client::connect(&cached_server);
    let cold = c.roundtrip(&line);
    let cached = c.roundtrip(&line);
    assert_eq!(field(&parse(&cold).unwrap(), "status"), "ok", "{cold}");
    assert_eq!(cold, cached, "cached response differs from cold");
    let metrics = cached_server.metrics_prometheus();
    assert!(
        metrics.contains("lubt_serve_cache_hits_total 1"),
        "{metrics}"
    );
    cached_server.shutdown();
    // Tier 2: cache disabled, so the repeat replays the warm session.
    let warm_server = Server::start(ServeConfig {
        cache_entries: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut w = Client::connect(&warm_server);
    let cold2 = w.roundtrip(&line);
    let warm = w.roundtrip(&line);
    assert_eq!(cold, cold2, "cold responses differ across servers");
    assert_eq!(cold, warm, "warm replay differs from cold");
    let metrics = warm_server.metrics_prometheus();
    assert!(
        metrics.contains("lubt_serve_warm_hits_total 1"),
        "{metrics}"
    );
    assert!(
        !metrics.contains("lubt_serve_cache_hits_total 1"),
        "{metrics}"
    );
    warm_server.shutdown();
}

#[test]
fn healthz_reports_accepting_then_draining() {
    let server = Server::start(ServeConfig::default()).unwrap();
    // Accepting: 200 with the gauges as strict JSON.
    let mut http = TcpStream::connect(server.addr()).unwrap();
    write!(http, "GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    http.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.0 200 OK"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).expect("http body");
    let doc = parse(body.trim_end()).expect("healthz body is strict JSON");
    assert_eq!(field(&doc, "status"), "accepting");
    assert!(doc.get("uptime_seconds").and_then(Value::as_f64).is_some());
    assert!(doc.get("queue_depth").and_then(Value::as_f64).is_some());
    assert!(doc.get("cache_entries").and_then(Value::as_f64).is_some());
    // Start a probe *before* draining and finish it after: the request
    // line parks the connection thread in the header read, shutdown
    // flips the flag, and the completed request must answer 503 so load
    // balancers stop routing here.
    let mut open = TcpStream::connect(server.addr()).unwrap();
    write!(open, "GET /healthz HTTP/1.0\r\nHost: x\r\n").unwrap();
    open.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    server.signal_shutdown();
    write!(open, "\r\n").unwrap();
    let mut raw = String::new();
    open.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.0 503"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).expect("http body");
    assert_eq!(
        field(&parse(body.trim_end()).unwrap(), "status"),
        "draining"
    );
    server.wait();
}

#[test]
fn access_log_lines_are_structured_json() {
    let path = std::env::temp_dir().join(format!(
        "lubt-access-{}-{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&path);
    let server = Server::start(ServeConfig {
        access_log: Some(path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(&server);
    let line = solve_line("cold1", &grid_instance("logged", 8));
    assert_eq!(field(&parse(&c.roundtrip(&line)).unwrap(), "status"), "ok");
    // Same instance again: answered from the result cache.
    let line2 = solve_line("hit1", &grid_instance("logged", 8));
    assert_eq!(field(&parse(&c.roundtrip(&line2)).unwrap(), "status"), "ok");
    // An unsatisfiable window (upper below the source-sink distance):
    // the log line carries the wire error code, not "ok".
    let resp = c.roundtrip(&format!(
        r#"{{"op":"solve","id":"tight","upper":0.1,"instance":{}}}"#,
        square_instance("sq")
    ));
    let wire_code = field(&parse(&resp).unwrap(), "code").to_string();
    assert!(!wire_code.is_empty(), "{resp}");
    server.shutdown();
    let text = std::fs::read_to_string(&path).expect("access log exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "one line per queued request: {text}");
    for l in &lines {
        parse(l).expect("access log lines are strict JSON");
    }
    let first = parse(lines[0]).unwrap();
    assert_eq!(field(&first, "id"), "cold1");
    assert_eq!(field(&first, "op"), "solve");
    assert_eq!(field(&first, "backend"), "revised");
    assert_eq!(field(&first, "cache"), "cold");
    assert_eq!(field(&first, "status"), "ok");
    assert!(first.get("queue_depth").and_then(Value::as_f64).is_some());
    assert!(first.get("queue_wait_ns").and_then(Value::as_f64).is_some());
    assert!(first.get("solve_ns").and_then(Value::as_f64).is_some());
    assert!(first.get("bytes").and_then(Value::as_f64).unwrap_or(0.0) > 2.0);
    let second = parse(lines[1]).unwrap();
    assert_eq!(field(&second, "id"), "hit1");
    assert_eq!(field(&second, "cache"), "cached");
    let third = parse(lines[2]).unwrap();
    assert_eq!(field(&third, "id"), "tight");
    assert_eq!(field(&third, "status"), wire_code, "{}", lines[2]);
    let _ = std::fs::remove_file(&path);
}

/// Runs `requests` concurrently against a fresh server and returns the
/// merged span-tree shape (`"path hits"` lines).
fn fleet_span_shape(workers: usize, requests: &[String]) -> String {
    let server = Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .unwrap();
    let handles: Vec<_> = requests
        .iter()
        .cloned()
        .map(|line| {
            let addr = server.addr();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut c = Client {
                    reader: BufReader::new(stream.try_clone().unwrap()),
                    writer: stream,
                };
                let resp = c.roundtrip(&line);
                assert_eq!(field(&parse(&resp).unwrap(), "status"), "ok", "{resp}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let shape = server.span_shape();
    server.shutdown();
    shape
}

#[test]
fn span_tree_shape_is_identical_across_worker_counts() {
    // Distinct instances so every request cold-solves regardless of
    // worker scheduling; the merged span shape is then a pure function
    // of the request multiset (DESIGN.md §16).
    let requests: Vec<String> = (0..6)
        .map(|k| {
            let backend = if k % 2 == 0 { "revised" } else { "simplex" };
            format!(
                r#"{{"op":"solve","id":"s{k}","upper":1.5,"backend":"{backend}","instance":{}}}"#,
                grid_instance(&format!("shape{k}"), 8)
            )
        })
        .collect();
    let solo = fleet_span_shape(1, &requests);
    let fleet = fleet_span_shape(8, &requests);
    assert!(!solo.is_empty(), "serve requests produce spans");
    assert!(solo.starts_with("request 6\n"), "{solo}");
    assert!(solo.contains("request/parse 6"), "{solo}");
    assert!(solo.contains("request/queue_wait 6"), "{solo}");
    assert!(solo.contains("request/solve"), "{solo}");
    assert_eq!(solo, fleet, "span shape must not depend on worker count");
}

#[test]
fn graceful_shutdown_drains_every_admitted_request() {
    let server = Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let clients: Vec<_> = (0..6)
        .map(|k| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut c = Client {
                    reader: BufReader::new(stream.try_clone().unwrap()),
                    writer: stream,
                };
                c.roundtrip(&solve_line(
                    &format!("drain{k}"),
                    &grid_instance(&format!("d{k}"), 10),
                ))
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(120));
    server.shutdown(); // blocks until admitted requests are answered
    let mut ok = 0;
    for c in clients {
        let resp = c.join().unwrap();
        let doc = parse(&resp).expect("every client got a full frame");
        match field(&doc, "status") {
            "ok" => ok += 1,
            "error" => assert_eq!(
                field(&doc, "code"),
                codes::SHUTTING_DOWN,
                "admitted requests are never dropped: {resp}"
            ),
            other => panic!("unexpected status {other}: {resp}"),
        }
    }
    assert!(ok >= 1, "the in-flight requests were drained, not dropped");
}

#[test]
fn wire_shutdown_is_gated_and_metrics_speak_prometheus() {
    // Default: remote shutdown is forbidden.
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut c = Client::connect(&server);
    let resp = c.roundtrip(r#"{"op":"shutdown","id":"nope"}"#);
    assert_eq!(field(&parse(&resp).unwrap(), "code"), codes::FORBIDDEN);
    // Solve something so the scrape has solver families too.
    let resp = c.roundtrip(&solve_line("warmup", &square_instance("sq")));
    assert_eq!(field(&parse(&resp).unwrap(), "status"), "ok");
    // Scrape /metrics over plain HTTP on the same port.
    let mut http = TcpStream::connect(server.addr()).unwrap();
    write!(http, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    http.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.0 200 OK"), "{raw}");
    let body = raw.split("\r\n\r\n").nth(1).expect("http body");
    lubt_obs::prometheus::lint_exposition(body).expect("exposition-format clean");
    assert!(body.contains("lubt_serve_requests"), "{body}");
    assert!(body.contains("lubt_serve_cold_solves"), "{body}");
    // Unknown paths 404 instead of leaking the exposition.
    let mut http = TcpStream::connect(server.addr()).unwrap();
    write!(http, "GET /secrets HTTP/1.0\r\n\r\n").unwrap();
    let mut raw = String::new();
    http.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.0 404"), "{raw}");
    server.shutdown();
    // Opt-in: the wire op acknowledges and drains.
    let server = Server::start(ServeConfig {
        allow_shutdown: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(&server);
    c.send(r#"{"op":"shutdown","id":"bye"}"#);
    server.wait(); // returns because the wire op signaled shutdown
                   // The drain covers the ack itself: it is on the socket by the time
                   // `wait` returns, so a short read timeout finds it.
    c.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let doc = parse(&c.recv()).unwrap();
    assert_eq!(field(&doc, "status"), "ok");
    assert_eq!(field(&doc, "id"), "bye");
}
