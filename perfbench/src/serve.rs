//! `serve-mixed`: an open-loop, seeded request stream sent to a
//! `lubt_serve::Server` daemon running in a child process (this binary's
//! `daemon` mode) with `nproc` workers and the default queue, cache and
//! session sizes. All load comes from this process over at most `nproc`
//! loopback connections, one thread each (the main thread drives one).
//!
//! A run is: a warm-up probe pass, then four times a closed-loop probe
//! pass (`solve_s`, `nets_per_s`), a closed-loop pass that fills the
//! result cache with the hottest repeat requests, and an open-loop step at
//! the nominal rate (`serve_p50_ms`, `serve_tail_ms`: the fastest step's);
//! then a search of the rate ladder for the highest rate the daemon
//! sustains (`serve_max_rps`). Each request is timed from its due send time to the
//! last byte of its reply.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use lubt_core::{verify_raw, LubtProblem};
use lubt_geom::Point;
use lubt_obs::json::{self, json_escape, json_f64, Value};
use lubt_serve::{ServeConfig, Server};

use crate::inputs::{Net, SplitMix, SERVE_POOL};
use crate::stats::{self, PathTable, RateSearch, Step};
use crate::trace::{self, Counters, Layers, Spans};
use crate::{peak_rss_mb, Ctx, Outcome, Setup};

/// Closed-loop probe passes before each nominal step. With the first
/// pass, which warms the fresh daemon up (a long-lived daemon has paid its
/// first-touch costs long before) and is not counted, they make all the
/// probe passes: `solve_s` is the fastest of the counted ones, spread over
/// the run so that they meet more than one stretch of the machine's load.
const PROBES_PER_STEP: usize = 1;
const PROBE_PASSES: usize = 1 + PROBES_PER_STEP * NOMINAL_STEPS;
/// Unique solves per probe pass: two class cycles, so every pass holds
/// the same mix of net sizes, placements and windows.
const PROBE_NETS: usize = 72;
/// Distinct requests repeats are drawn from: about twice the daemon's
/// default result-cache size (128 entries), and a whole number of class
/// cycles of the pool's stratified order (7 × 36). Popularity is
/// Zipf-like (entry `k` in proportion to `1 / (k + 1)`): the hot half of
/// the pool takes about 89% of the repeats, so the cache size decides
/// the hits.
const REPEAT_POOL: usize = 252;
/// The nominal offered rate, requests per second: light load, about a
/// fifth of the closed-loop capacity of roughly 60 unique solves/s that
/// two clients reach on a 2-core machine. An idle worker lends its core
/// to the other's solve, so at higher rates a mid-sized solve often
/// shares the machine with a large one, and the median then follows how
/// requests happened to overlap more than how fast they are served.
const NOMINAL_RATE: f64 = 12.0;
/// The rate ladder `serve_max_rps` is searched on: every multiple of
/// `LADDER_RESOLUTION` req/s from `LADDER_START` to `LADDER_CAP`. The
/// search climbs it `LADDER_RUNG` at a time until a step misses, then
/// bisects between the highest pass and the lowest miss down to one rung
/// of the resolution (see [`stats::RateSearch`]).
const LADDER_START: f64 = 48.0;
const LADDER_RUNG: f64 = 16.0;
const LADDER_RESOLUTION: f64 = 2.0;
const LADDER_CAP: f64 = 400.0;
/// Most search steps a run makes; past it, the highest pass so far is
/// reported (and said to be a floor).
const MAX_SEARCH_STEPS: usize = 12;
/// Open-loop steps at the nominal rate, each offering the same mix.
/// `serve_p50_ms` and `serve_tail_ms` are each the lowest over these
/// steps: as with closed-loop passes, a slower step of the same work
/// measures interference from outside the program, which moves the
/// daemon's speed by a fifth within a run on a shared 2-vCPU VM.
const NOMINAL_STEPS: usize = 4;
/// Share of `--seconds` each nominal step lasts, and each search step
/// (both rounded to whole class cycles, see [`step_len`]): two cycles,
/// 96 requests, at 20 s. The median and tail are taken over a whole
/// step: the medians of shorter windows of it swing by a third from
/// window to window.
const NOMINAL_SHARE: f64 = 0.4;
const STEP_SHARE: f64 = 0.1;
/// Set-ups (input generation and a daemon boot) before the run; one more
/// follows each phase, on a daemon that is stopped at once.
const BOOTS: usize = 6;

/// What a request asks the daemon for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A solve of a net not sent before in this run.
    Unique,
    /// An exact repeat of an earlier request line.
    Repeat,
    /// An audited solve (always cold).
    Audit,
    /// A lint of a net.
    Lint,
}

/// The order in which net sizes (indices into the pool's sizes, 16 to 128
/// sinks) take turns within a class cycle: the largest next to the
/// smallest, so no two large solves arrive back to back.
const SIZE_TURNS: [usize; 6] = [5, 0, 3, 1, 4, 2];

/// One block of the request mix: 9 unique solves, 4 repeats, 2 audits
/// and 1 lint per 16 requests. Its 12 fresh nets divide a class cycle of
/// 36, and each fresh position meets the size [`SIZE_TURNS`] gives it:
/// the audits take both 96-sink turns, the lint one 64-sink turn, the
/// unique solves the rest (16 to 128 sinks). Two repeats follow each
/// audit, so an audit seldom shares the machine with a solve. At light
/// load the latencies then sort by kind and size: the repeats, lint and
/// 16-sink solves are 7 of 16, so the median falls mid-way through the 2
/// of 16 that are 32-sink solves, and the ten slowest of a step of two
/// or more cycles fall inside its slowest quarter, the audits and the
/// 128-sink solves. Neither figure sits where two classes meet, where it
/// would jump between them from run to run.
const MIX: [Kind; 16] = {
    use Kind::*;
    [
        Unique, Unique, Lint, Unique, Audit, Repeat, Repeat, Unique, Unique, Unique, Unique,
        Unique, Audit, Repeat, Repeat, Unique,
    ]
};

/// Requests per class cycle: the [`MIX`] blocks that hand out one net of
/// every pool class.
fn cycle_requests() -> usize {
    let fresh = MIX.iter().filter(|&&k| k != Kind::Repeat).count();
    SERVE_POOL.classes() / fresh * MIX.len()
}

#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    net: usize,
    id: String,
    line: String,
}

fn wire_instance(net: &Net) -> String {
    let point = |p: Point| format!("[{}, {}]", json_f64(p.x), json_f64(p.y));
    let sinks: Vec<String> = net.inst.sinks.iter().map(|&p| point(p)).collect();
    let source = net.inst.source.map_or("null".to_string(), point);
    format!(
        "{{\"name\": \"{}\", \"source\": {source}, \"sinks\": [{}]}}",
        json_escape(&net.inst.name),
        sinks.join(", ")
    )
}

fn request(kind: Kind, id: String, k: usize, net: &Net) -> Req {
    let op = match kind {
        Kind::Unique | Kind::Repeat => "solve",
        Kind::Audit => "audit",
        Kind::Lint => "lint",
    };
    let (lo, up) = net.window.fractions();
    let line = format!(
        "{{\"op\": \"{op}\", \"id\": \"{id}\", \"lower\": {}, \"upper\": {}, \"instance\": {}}}",
        json_f64(lo),
        json_f64(up),
        wire_instance(net)
    );
    Req {
        kind,
        net: k,
        id,
        line,
    }
}

/// The request schedule of a run, generated from the seed: the probe
/// passes, the cache fill and the nominal step up front, the search steps
/// on demand (which rates the search visits depends on what the daemon
/// does).
struct Plan {
    probe: Vec<Vec<Req>>,
    /// The hottest repeat requests, as many as the daemon's result cache
    /// holds, least popular first. Sent before each nominal step (after
    /// the probe's unique solves filled the cache with entries no one asks
    /// for again), so that every nominal step meets the same cache, the
    /// one the steady stream keeps, rather than a run of first-time
    /// repeats.
    warm: Vec<Req>,
    nominal: Vec<Vec<Req>>,
    stream: Stream,
}

/// The seeded open-loop request stream. Which nets it hands out is fixed:
/// the pool's own stratified order, the repeat pool first, in which every
/// run of 36 fresh nets (a class cycle) holds one net of each class. Within
/// a cycle the net sizes take turns in one fixed pattern, large and small
/// alternating ([`SIZE_TURNS`]), and so do the sizes of the repeat entries
/// down the popularity ranks; the workload seed decides which net of a
/// size fills which of that size's turns. The kinds follow [`MIX`], and
/// the rank each repeat asks for follows one fixed sequence. So every seed offers the
/// same work, differently interleaved: the load stays even down to a few
/// requests, and the result cache meets the same pattern of hits and
/// misses, so no step is decided by where the largest nets or the cache
/// misses happened to bunch up.
struct Stream {
    repeats: Vec<Req>,
    /// Cumulative Zipf-like popularity of the repeat entries.
    popularity: Vec<f64>,
    /// Pool indices of the nets that never come back as repeats; on runs
    /// long enough to use them up they come round again, long evicted
    /// from the cache.
    fresh: Vec<usize>,
    next_fresh: usize,
    /// Requests handed out so far, the position in [`MIX`].
    sent: usize,
    rng: SplitMix,
    /// Draws the popularity rank of each repeat; seeded alike for every
    /// workload seed.
    ranks: SplitMix,
    nets: HashMap<usize, Net>,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let order = SERVE_POOL.draw(0, SERVE_POOL.len);
        let mut stream = Stream {
            repeats: Vec::new(),
            popularity: (1..=REPEAT_POOL)
                .scan(0.0, |sum, k| {
                    *sum += 1.0 / k as f64;
                    Some(*sum)
                })
                .collect(),
            fresh: order[REPEAT_POOL..].to_vec(),
            next_fresh: 0,
            sent: 0,
            rng: SplitMix::new(seed),
            ranks: SplitMix::new(0),
            nets: HashMap::new(),
        };
        let mut ranked = order[..REPEAT_POOL].to_vec();
        stream.take_turns(&mut ranked);
        stream.repeats = ranked
            .into_iter()
            .enumerate()
            .map(|(rank, k)| stream.request(Kind::Repeat, format!("r{rank}"), k))
            .collect();
        let mut fresh = std::mem::take(&mut stream.fresh);
        for cycle in fresh.chunks_mut(SERVE_POOL.classes()) {
            stream.take_turns(cycle);
        }
        stream.fresh = fresh;
        stream
    }

    /// Reorders `nets` so that their sizes take turns as [`SIZE_TURNS`]
    /// says, each size's nets in a seeded order. `nets` holds every size
    /// equally often.
    fn take_turns(&mut self, nets: &mut [usize]) {
        let mut by_size: Vec<Vec<usize>> = vec![Vec::new(); SERVE_POOL.sizes.len()];
        for &k in nets.iter() {
            by_size[SERVE_POOL.size_index(k)].push(k);
        }
        for group in &mut by_size {
            self.rng.shuffle(group);
        }
        for (slot, &size) in nets.iter_mut().zip(SIZE_TURNS.iter().cycle()) {
            *slot = by_size[size]
                .pop()
                .expect("every size is equally common in a class cycle");
        }
    }

    fn request(&mut self, kind: Kind, id: String, k: usize) -> Req {
        let net = self.nets.entry(k).or_insert_with(|| SERVE_POOL.net(k));
        request(kind, id, k, net)
    }

    /// A request of `kind` on the next fresh net.
    fn fresh(&mut self, kind: Kind, id: String) -> Req {
        let k = self.fresh[self.next_fresh % self.fresh.len()];
        self.next_fresh += 1;
        self.request(kind, id, k)
    }

    /// The next `len` requests of the mix.
    fn mixed(&mut self, len: usize) -> Vec<Req> {
        (0..len)
            .map(|_| {
                let kind = MIX[self.sent % MIX.len()];
                self.sent += 1;
                let j = self.sent;
                match kind {
                    Kind::Repeat => {
                        let u = (self.ranks.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                        let top = self.popularity[REPEAT_POOL - 1];
                        let k = self.popularity.partition_point(|&c| c < u * top);
                        self.repeats[k].clone()
                    }
                    Kind::Audit => self.fresh(kind, format!("a{j}")),
                    Kind::Lint => self.fresh(kind, format!("l{j}")),
                    Kind::Unique => self.fresh(kind, format!("s{j}")),
                }
            })
            .collect()
    }

    fn net(&self, k: usize) -> &Net {
        &self.nets[&k]
    }
}

/// Requests in an open-loop step of about `seconds * share` at `rate`,
/// rounded to whole class cycles: every step starts at a cycle boundary
/// and offers the same mix, so no step is decided by which nets it drew.
fn step_len(rate: f64, share: f64, seconds: f64) -> usize {
    let cycle = cycle_requests();
    let cycles = (rate * share * seconds / cycle as f64).round() as usize;
    cycles.max(1) * cycle
}

fn plan(seed: u64, seconds: f64) -> Plan {
    let mut stream = Stream::new(seed);
    let mut probe: Vec<Vec<Req>> = (0..PROBE_PASSES)
        .map(|p| {
            let mut pass: Vec<Req> = (0..PROBE_NETS)
                .map(|i| stream.fresh(Kind::Unique, format!("p{p}.{i}")))
                .collect();
            stream.rng.shuffle(&mut pass);
            pass
        })
        .collect();
    // Closed-loop passes end when their slowest request does: largest
    // nets first keeps the pass wall a measure of throughput.
    for pass in &mut probe {
        pass.sort_by_key(|r| std::cmp::Reverse(stream.net(r.net).inst.sinks.len()));
    }
    let nominal = (0..NOMINAL_STEPS)
        .map(|_| stream.mixed(step_len(NOMINAL_RATE, NOMINAL_SHARE, seconds)))
        .collect();
    let cached = ServeConfig::default().cache_entries.min(REPEAT_POOL);
    let warm = stream.repeats[..cached].iter().rev().cloned().collect();
    Plan {
        probe,
        warm,
        nominal,
        stream,
    }
}

/// A child process running this binary's `daemon` mode.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn boot(
        workers: usize,
        access_log: Option<&Path>,
        spans_out: Option<&Path>,
    ) -> Result<Daemon, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("daemon").arg("--workers").arg(workers.to_string());
        if let Some(p) = access_log {
            cmd.arg("--access-log").arg(p);
        }
        if let Some(p) = spans_out {
            cmd.arg("--spans-out").arg(p);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start daemon: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .trim()
            .strip_prefix("addr ")
            .and_then(|a| a.parse().ok());
        let mut daemon = match (read, addr) {
            (Some(Ok(_)), Some(addr)) => Daemon { child, addr },
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not report its address (got {line:?})"));
            }
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if http_get(daemon.addr, "/healthz").is_ok_and(|(status, _)| status == 200) {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                daemon.kill();
                return Err("daemon never answered /healthz with 200".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Closes the daemon's stdin (its stop signal) and waits for it.
    fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let status = self.child.wait().map_err(|e| format!("daemon wait: {e}"))?;
        status
            .success()
            .then_some(())
            .ok_or_else(|| format!("daemon exited with {status}"))
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// One HTTP/1.0 GET against the daemon's port: `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n")?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, body))
}

/// `daemon --workers N [--access-log P] [--spans-out P]`: runs a
/// `lubt_serve::Server` with default sizes, prints `addr <addr>`, and
/// shuts down when its stdin closes, first writing the server's span
/// tree as `path hits total_ns` lines when asked to.
pub fn daemon_main(args: &[String]) -> ExitCode {
    let mut config = ServeConfig::default();
    let mut spans_out = None;
    let mut it = args.iter();
    while let (Some(flag), Some(value)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--workers" => match value.parse() {
                Ok(n) => config.workers = n,
                Err(e) => {
                    eprintln!("daemon: --workers {value}: {e}");
                    return ExitCode::from(2);
                }
            },
            "--access-log" => config.access_log = Some(value.clone()),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            other => {
                eprintln!("daemon: unknown argument {other}");
                return ExitCode::from(2);
            }
        }
    }
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("daemon: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("addr {}", server.addr());
    let _ = std::io::stdout().flush();
    let _ = std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink());
    let mut code = ExitCode::SUCCESS;
    if let Some(path) = spans_out {
        let rows: String = server
            .span_tree()
            .flatten()
            .into_iter()
            .map(|(p, hits, ns)| format!("{p} {hits} {ns}\n"))
            .collect();
        if let Err(e) = std::fs::write(&path, rows) {
            eprintln!("daemon: cannot write {}: {e}", path.display());
            code = ExitCode::FAILURE;
        }
    }
    server.shutdown();
    code
}

struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply.trim_end().to_string())
    }
}

/// What the client saw of one request.
struct Sample {
    idx: usize,
    due: Instant,
    picked: Instant,
    sent: Instant,
    recv: Instant,
    reply: Result<String, String>,
}

/// Sends `reqs` over `conns`, each connection taking the next request
/// when free: on schedule at `rate` (open loop), or back to back when
/// `rate` is `None` (closed loop). Returns the samples in request order
/// and the phase wall time.
fn run_phase(conns: &mut [Conn], reqs: &[Req], rate: Option<f64>) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let drive = |conn: &mut Conn| {
        let mut out = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(req) = reqs.get(idx) else { break };
            let picked = Instant::now();
            let due = rate.map_or(picked, |r| start + Duration::from_secs_f64(idx as f64 / r));
            if let Some(wait) = due.checked_duration_since(picked) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let reply = conn.roundtrip(&req.line).map_err(|e| e.to_string());
            let broken = reply.is_err();
            out.push(Sample {
                idx,
                due,
                picked,
                sent,
                recv: Instant::now(),
                reply,
            });
            if broken {
                break;
            }
        }
        out
    };
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let (first, rest) = conns.split_first_mut().expect("at least one connection");
        let handles: Vec<_> = rest.iter_mut().map(|c| scope.spawn(|| drive(c))).collect();
        let mut all = drive(first);
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
        all
    });
    samples.sort_by_key(|s| s.idx);
    (samples, start.elapsed().as_secs_f64())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Ladder bookkeeping of one open-loop step, from its samples.
fn step_of(rate: f64, reqs: &[Req], samples: &[Sample], bad: &[bool]) -> (Step, Vec<f64>) {
    let ok: Vec<&Sample> = samples.iter().filter(|s| !bad[s.idx]).collect();
    let latencies: Vec<f64> = ok.iter().map(|s| ms(s.recv - s.due)).collect();
    let late: Vec<f64> = samples
        .iter()
        .filter(|s| s.picked <= s.due)
        .map(|s| ms(s.sent - s.due))
        .collect();
    let last_due = samples.iter().map(|s| s.due).max();
    let backlog = last_due.map_or(0, |t| samples.iter().filter(|s| s.picked > t).count());
    // Requests due but not yet answered, at each due time (samples are
    // in due order): its growth over the whole step, not a snapshot.
    let mut answered: Vec<Instant> = samples.iter().map(|s| s.recv).collect();
    answered.sort_unstable();
    let first_due = samples.first().map(|s| s.due);
    let outstanding: Vec<(f64, f64)> = samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let done = answered.partition_point(|&r| r <= s.due);
            let at = first_due.map_or(0.0, |t0| (s.due - t0).as_secs_f64());
            (at, (i + 1 - done) as f64)
        })
        .collect();
    let step = Step {
        rate,
        sent: reqs.len(),
        ok: ok.len(),
        failed: reqs.len() - ok.len(),
        tail_ms: stats::tail(&latencies).map(|t| t.value),
        backlog,
        backlog_growth: stats::slope(&outstanding).unwrap_or(0.0),
        late_ms: stats::tail_or_max(&late).map(|t| t.value),
    };
    (step, latencies)
}

/// Checks replies across a run: the first reply of each request id (the
/// one a repeat must match byte for byte) and each net's problem, built
/// once and reused by every later reply for that net.
#[derive(Default)]
struct Checker {
    first_reply: HashMap<String, String>,
    problems: HashMap<usize, LubtProblem>,
}

impl Checker {
    /// Checks every reply of a phase; returns which requests failed.
    fn check(
        &mut self,
        ctx: &mut Ctx,
        stream: &Stream,
        reqs: &[Req],
        samples: &[Sample],
        mut spans: Option<&mut Spans>,
    ) -> Vec<bool> {
        let mut bad = vec![true; reqs.len()];
        ctx.ledger.attempted += reqs.len() as u64;
        for s in samples {
            let req = &reqs[s.idx];
            let reply = match &s.reply {
                Ok(r) => r,
                Err(e) => {
                    ctx.ledger.fail(format!("{}: no reply: {e}", req.id));
                    continue;
                }
            };
            if let Some(first) = self.first_reply.get(&req.id) {
                if first == reply {
                    bad[s.idx] = false;
                } else {
                    ctx.ledger.fail(format!(
                        "{}: repeat reply differs from the first reply",
                        req.id
                    ));
                }
                continue;
            }
            let net = stream.net(req.net);
            let checked = decode_reply(req, reply).and_then(|tree| {
                let Some((lengths, positions)) = tree else {
                    return Ok(None);
                };
                let problem = self
                    .problems
                    .entry(req.net)
                    .or_insert_with(|| net.problem());
                let verified = match spans.as_deref_mut() {
                    Some(sp) => sp.time("verify", &req.id, |_| {
                        verify_raw(problem, &lengths, &positions)
                    }),
                    None => verify_raw(problem, &lengths, &positions),
                };
                verified.map_err(|e| format!("verify rejected the tree: {e}"))?;
                Ok(Some(lengths.iter().skip(1).sum::<f64>()))
            });
            match checked {
                Ok(Some(cost)) => {
                    if ctx.ledger.check_cost(&ctx.refs, &net.key, cost) {
                        bad[s.idx] = false;
                    }
                }
                Ok(None) => bad[s.idx] = false,
                Err(e) => ctx.ledger.fail(format!("{}: {e}", req.id)),
            }
            self.first_reply.insert(req.id.clone(), reply.clone());
        }
        let unanswered = reqs.len() - samples.len();
        for _ in 0..unanswered {
            ctx.ledger
                .fail("request never sent or answered".to_string());
        }
        bad
    }
}

/// Edge lengths and node positions of a tree.
type Tree = (Vec<f64>, Vec<Point>);

/// Decodes one reply: the tree of a solve or audit, `None` for a clean
/// lint, an error for an error reply or a malformed one.
fn decode_reply(req: &Req, reply: &str) -> Result<Option<Tree>, String> {
    let doc = json::parse(reply).map_err(|e| format!("unparsable reply: {}", e.message))?;
    if doc.get("status").and_then(Value::as_str) != Some("ok") {
        let code = doc.get("code").and_then(Value::as_str).unwrap_or("?");
        return Err(format!("error reply {code}"));
    }
    if doc.get("id").and_then(Value::as_str) != Some(req.id.as_str()) {
        return Err("reply answers another request".to_string());
    }
    if req.kind == Kind::Lint {
        return match doc.get("deny") {
            Some(Value::Bool(false)) => Ok(None),
            _ => Err("lint denied a solvable net".to_string()),
        };
    }
    let sol = doc.get("solution").ok_or("reply has no solution")?;
    let num = |v: &Value, k: &str| {
        v.get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("node/edge lacks {k}"))
    };
    let nodes = sol
        .get("nodes")
        .and_then(Value::as_array)
        .ok_or("solution has no nodes")?;
    let positions = nodes
        .iter()
        .map(|n| Ok(Point::new(num(n, "x")?, num(n, "y")?)))
        .collect::<Result<Vec<_>, String>>()?;
    let mut lengths = vec![0.0; positions.len()];
    for e in sol
        .get("edges")
        .and_then(Value::as_array)
        .ok_or("solution has no edges")?
    {
        let child = num(e, "child")? as usize;
        *lengths.get_mut(child).ok_or("edge child out of range")? = num(e, "length")?;
    }
    Ok(Some((lengths, positions)))
}

/// One full pass over the plan against a fresh daemon.
struct Pass {
    probe_walls: Vec<f64>,
    /// The open-loop steps run, the nominal ones first, with their requests.
    schedule: Vec<(f64, Vec<Req>)>,
    steps: Vec<Step>,
    /// Latencies of each nominal step.
    nominal_latencies: Vec<Vec<f64>>,
    samples: Vec<(Phase, Sample)>,
    peak_rss_mb: f64,
}

/// Which phase of a pass a sample belongs to.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Probe(usize),
    Warm,
    Open(usize),
}

impl Pass {
    /// The requests of `phase`.
    fn reqs<'a>(&'a self, plan: &'a Plan, phase: Phase) -> &'a [Req] {
        match phase {
            Phase::Probe(i) => &plan.probe[i],
            Phase::Warm => &plan.warm,
            Phase::Open(i) => &self.schedule[i].1,
        }
    }
}

/// A pass in progress: its connections, reply checks and ladder search.
struct Client {
    conns: Vec<Conn>,
    checker: Checker,
    search: RateSearch,
    pass: Pass,
}

impl Client {
    /// Runs one closed-loop phase of the plan; returns its wall time.
    fn closed_phase(
        &mut self,
        ctx: &mut Ctx,
        plan: &Plan,
        spans: Option<&mut Spans>,
        phase: Phase,
    ) -> f64 {
        let reqs = self.pass.reqs(plan, phase);
        let (samples, wall) = run_phase(&mut self.conns, reqs, None);
        self.checker.check(ctx, &plan.stream, reqs, &samples, spans);
        self.pass
            .samples
            .extend(samples.into_iter().map(|s| (phase, s)));
        wall
    }

    /// Runs one open-loop step and records it.
    fn open_step(
        &mut self,
        ctx: &mut Ctx,
        stream: &Stream,
        spans: Option<&mut Spans>,
        (rate, reqs): (f64, Vec<Req>),
    ) {
        let pass = &mut self.pass;
        let i = pass.steps.len();
        let (samples, _) = run_phase(&mut self.conns, &reqs, Some(rate));
        let bad = self.checker.check(ctx, stream, &reqs, &samples, spans);
        let (step, latencies) = step_of(rate, &reqs, &samples, &bad);
        if i < NOMINAL_STEPS {
            pass.nominal_latencies.push(latencies);
        }
        self.search.record(&step, ctx.tail_limit_ms);
        pass.steps.push(step);
        pass.schedule.push((rate, reqs));
        pass.samples
            .extend(samples.into_iter().map(|s| (Phase::Open(i), s)));
    }
}

/// One set-up: the plan generated and a daemon booted until `/healthz`
/// answers 200.
fn set_up(seed: u64, seconds: f64, workers: usize) -> Result<(Plan, Daemon), String> {
    let plan = plan(seed, seconds);
    Daemon::boot(workers, None, None).map(|d| (plan, d))
}

/// Runs the probe, the cache fill and the open-loop steps against
/// `daemon`: the nominal steps, then the ladder search. With a
/// `replay`, exactly the open-loop steps of that earlier pass run instead.
/// With a `setup`, one more set-up is timed after each phase.
fn drive(
    ctx: &mut Ctx,
    plan: &mut Plan,
    daemon: &Daemon,
    replay: Option<&[(f64, Vec<Req>)]>,
    mut spans: Option<&mut Spans>,
    mut setup: Option<&mut Setup>,
) -> Result<Pass, String> {
    let (seed, seconds, workers) = (ctx.seed, ctx.seconds, ctx.threads);
    let mut set_up_again = |ctx: &Ctx| match setup.as_deref_mut() {
        Some(s) => s.sample(&ctx.cpus, 1, || set_up(seed, seconds, workers)).map(drop),
        None => Ok(()),
    };
    let conns = (0..ctx.threads)
        .map(|_| Conn::open(daemon.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    let mut d = Client {
        conns,
        checker: Checker::default(),
        search: RateSearch::new(LADDER_START, LADDER_RUNG, LADDER_RESOLUTION, LADDER_CAP),
        pass: Pass {
            probe_walls: Vec::new(),
            schedule: Vec::new(),
            steps: Vec::new(),
            nominal_latencies: Vec::new(),
            samples: Vec::new(),
            peak_rss_mb: f64::NAN,
        },
    };
    d.closed_phase(ctx, plan, spans.as_deref_mut(), Phase::Probe(0));
    set_up_again(ctx)?;
    let mut replayed = replay.unwrap_or_default().iter().cloned();
    loop {
        let i = d.pass.steps.len();
        if i < NOMINAL_STEPS {
            // Probe passes, then the cache fill the nominal step starts from.
            let probes = (1..=PROBES_PER_STEP).map(|k| Phase::Probe(i * PROBES_PER_STEP + k));
            for phase in probes.chain([Phase::Warm]) {
                let wall = d.closed_phase(ctx, plan, spans.as_deref_mut(), phase);
                if matches!(phase, Phase::Probe(_)) {
                    d.pass.probe_walls.push(wall);
                }
                set_up_again(ctx)?;
            }
        }
        let step = match replay {
            Some(_) => replayed.next(),
            None if i < NOMINAL_STEPS => Some((NOMINAL_RATE, plan.nominal[i].clone())),
            None => d
                .search
                .next_rate()
                .filter(|_| i < NOMINAL_STEPS + MAX_SEARCH_STEPS)
                .map(|rate| {
                    let len = step_len(rate, STEP_SHARE, ctx.seconds);
                    (rate, plan.stream.mixed(len))
                }),
        };
        let Some(step) = step else { break };
        d.open_step(ctx, &plan.stream, spans.as_deref_mut(), step);
        set_up_again(ctx)?;
    }
    d.pass.peak_rss_mb = daemon.peak_rss_mb().unwrap_or(f64::NAN);
    Ok(d.pass)
}

fn step_note(s: &Step, limit: f64) -> String {
    let verdict = if s.invalid() {
        "invalid (generator late)"
    } else if s.passes(limit) {
        "pass"
    } else {
        "miss"
    };
    format!(
        "rate {:>5.1}/s: sent {:>4} ok {:>4} failed {:>3} tail {:>9} ms late {:>7} ms backlog {:>3} growing {:>6.1}/s {verdict}",
        s.rate,
        s.sent,
        s.ok,
        s.failed,
        s.tail_ms.map_or("-".to_string(), |t| format!("{t:.1}")),
        s.late_ms.map_or("-".to_string(), |t| format!("{t:.2}")),
        s.backlog,
        s.backlog_growth
    )
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let (seed, seconds, threads) = (ctx.seed, ctx.seconds, ctx.threads);
    // Set-up: generate the plan and boot a daemon until /healthz is 200.
    let mut setup = Setup::default();
    let (mut plan, daemon) = setup.sample(&ctx.cpus, BOOTS, || set_up(seed, seconds, threads))?;
    let pass = drive(ctx, &mut plan, &daemon, None, None, Some(&mut setup))?;
    daemon.stop()?;
    let setup_s = setup.seconds(&ctx.cpus);

    let p50s: Vec<f64> = pass.nominal_latencies.iter().filter_map(|l| stats::median(l)).collect();
    let tails: Vec<stats::Tail> = pass.nominal_latencies.iter().filter_map(|l| stats::tail(l)).collect();
    let p50 = stats::min(p50s.iter().copied());
    let tail = tails.iter().copied().min_by(|a, b| a.value.total_cmp(&b.value));
    // The fastest probe pass, as on the closed-loop workloads: every pass
    // offers the same classes, so a slower one measures interference.
    let probe = stats::min(pass.probe_walls.iter().copied()).expect("probe passes ran");
    let max_rps = stats::max_rps(&pass.steps, ctx.tail_limit_ms);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "probe: 1 warm-up + {} closed-loop passes of {PROBE_NETS} unique solves over {threads} connections, fastest {probe:.4} s, walls {:.3?}", PROBE_PASSES - 1, pass.probe_walls
    ));
    for s in &pass.steps {
        out.notes.push(step_note(s, ctx.tail_limit_ms));
    }
    if pass.steps.len() >= NOMINAL_STEPS + MAX_SEARCH_STEPS {
        out.notes.push(format!(
            "ladder search stopped after {MAX_SEARCH_STEPS} steps: serve_max_rps is a floor"
        ));
    }
    if let Some(t) = tail {
        out.notes.push(format!(
            "nominal {NOMINAL_RATE:.1}/s, {NOMINAL_STEPS} steps: p50 {p50s:.2?} ms, tail {:.1?} ms at p{:.2} of {} requests; the lowest of each reported",
            tails.iter().map(|t| t.value).collect::<Vec<_>>(),
            t.percentile,
            t.samples
        ));
    }
    out.e2e = vec![
        ("setup_s", setup_s, "s"),
        ("solve_s", probe, "s"),
        ("nets_per_s", PROBE_NETS as f64 / probe, "nets/s"),
        ("serve_p50_ms", p50.unwrap_or(f64::NAN), "ms"),
        ("serve_tail_ms", tail.map_or(f64::NAN, |t| t.value), "ms"),
        // No passing step at all reads as 0 req/s: a regression to report,
        // not a broken run.
        ("serve_max_rps", max_rps.unwrap_or(0.0), "req/s"),
        ("peak_rss_mb", pass.peak_rss_mb, "MiB"),
    ];
    if !ctx.trace {
        return Ok(out);
    }

    // Traced replay: the same probe and steps against a fresh daemon with
    // its access log on; spans and /metrics are collected at the end.
    let tag = format!("serve-mixed-seed{seed}");
    let log_path = ctx.out_dir.join(format!("access-{tag}.jsonl"));
    let tree_path = ctx.out_dir.join(format!("daemon-spans-{tag}.txt"));
    let _ = std::fs::remove_file(&log_path);
    let daemon = Daemon::boot(threads, Some(&log_path), Some(&tree_path))?;
    let mut spans = Spans::new(ctx.origin);
    let traced = drive(
        ctx,
        &mut plan,
        &daemon,
        Some(&pass.schedule),
        Some(&mut spans),
        None,
    )?;
    let (status, exposition) =
        http_get(daemon.addr, "/metrics").map_err(|e| format!("cannot scrape /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    daemon.stop()?;
    for (phase, s) in &traced.samples {
        let req = &traced.reqs(&plan, *phase)[s.idx];
        spans.record("request", &req.id, s.sent, s.recv);
    }
    let access = std::fs::read_to_string(&log_path).map_err(|e| format!("access log: {e}"))?;
    let tree = std::fs::read_to_string(&tree_path).map_err(|e| format!("daemon spans: {e}"))?;
    let layers = serve_layers(
        ctx,
        &plan,
        &pass,
        &traced,
        &access,
        &tree,
        &exposition,
        &spans,
        &mut out,
    )?;
    out.layers = Some(layers);
    out.spans = Some(spans);
    Ok(out)
}

/// One access-log line.
struct Access {
    id: String,
    op: String,
    cache: String,
    status: String,
    queue_wait_ms: f64,
    service_ms: f64,
}

fn parse_access(text: &str) -> Result<Vec<Access>, String> {
    text.lines()
        .map(|line| {
            let v = json::parse(line)
                .map_err(|e| format!("access log line {line:?}: {}", e.message))?;
            let s = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            let ns = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN) * 1e-6;
            Ok(Access {
                id: s("id"),
                op: s("op"),
                cache: s("cache"),
                status: s("status"),
                queue_wait_ms: ns("queue_wait_ns"),
                service_ms: ns("solve_ns"),
            })
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn serve_layers(
    ctx: &Ctx,
    plan: &Plan,
    untraced: &Pass,
    traced: &Pass,
    access: &str,
    tree: &str,
    exposition: &str,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<Layers, String> {
    let log = parse_access(access)?;
    let requests = log.len() as f64;
    if log.is_empty() {
        return Err("the access log is empty".to_string());
    }
    let mut layers = Layers::default();
    let pick = |f: fn(&Access) -> f64| log.iter().map(f).collect::<Vec<_>>();
    let (queue, service) = (pick(|a| a.queue_wait_ms), pick(|a| a.service_ms));
    layers.set_or_missing(
        "serve.queue_wait_ms.p50",
        stats::median(&queue),
        "access log",
    );
    layers.set_or_missing(
        "serve.queue_wait_ms.tail",
        stats::tail(&queue).map(|t| t.value),
        "access log",
    );
    layers.set_or_missing(
        "serve.service_ms.p50",
        stats::median(&service),
        "access log",
    );
    layers.set_or_missing(
        "serve.service_ms.tail",
        stats::tail(&service).map(|t| t.value),
        "access log",
    );
    // Wire time: client round trip minus the daemon's queue wait and
    // service time, matching log lines to requests by id in order.
    let mut by_id: HashMap<&str, Vec<&Access>> = HashMap::new();
    for a in log.iter().rev() {
        by_id.entry(a.id.as_str()).or_default().push(a);
    }
    let mut wire = Vec::new();
    for (phase, s) in &traced.samples {
        let reqs = traced.reqs(plan, *phase);
        if let Some(a) = by_id.get_mut(reqs[s.idx].id.as_str()).and_then(Vec::pop) {
            wire.push(ms(s.recv - s.sent) - a.queue_wait_ms - a.service_ms);
        }
    }
    layers.set_or_missing(
        "serve.wire_ms.p50",
        stats::median(&wire),
        "matched access-log lines",
    );
    let solves = log.iter().filter(|a| a.op == "solve").count();
    let cached = log
        .iter()
        .filter(|a| a.op == "solve" && a.cache == "cached")
        .count();
    layers.set(
        "serve.cache_hit_ratio",
        cached as f64 / solves.max(1) as f64,
    );
    let mut errors: HashMap<&str, usize> = HashMap::new();
    for a in log.iter().filter(|a| a.status != "ok") {
        *errors.entry(a.status.as_str()).or_default() += 1;
    }
    layers.set("serve.errors", errors.values().sum::<usize>() as f64);
    if !errors.is_empty() {
        out.notes.push(format!("serve errors by code: {errors:?}"));
    }

    let counters = Counters::from_exposition(exposition);
    layers.counter_per("serve.cold_solves", &counters, "serve.cold_solves", 1.0);
    // The program counts audit failures only when there are some; that
    // its other audit.* counters are there shows the name is still live.
    layers.set_or_missing(
        "audit.failures",
        counters
            .has_namespace("audit")
            .then(|| counters.get("audit.failures").unwrap_or(0) as f64),
        "audit.* counters",
    );

    let table = PathTable::new(tree.lines().filter_map(|l| {
        let mut f = l.split_whitespace();
        Some((
            f.next()?.to_string(),
            f.next()?.parse().ok()?,
            f.next()?.parse().ok()?,
        ))
    }));
    layers.span_total("ebf.s", &table, "request/solve", requests);
    layers.span_total("embed.s", &table, "embed", requests);
    layers.span_total("serialize.s", &table, "serialize", requests);
    layers.span_total("audit.s", &table, "audit", requests);
    layers.bench_self("verify.s", spans, "verify", requests);
    trace::solver_layers(&mut layers, &table, &counters, requests);
    // Steiner rows over the sink pairs of every pipeline actually run.
    let reqs: HashMap<&str, &Req> = plan
        .probe
        .iter()
        .chain([&plan.warm])
        .chain(traced.schedule.iter().map(|(_, r)| r))
        .flatten()
        .map(|r| (r.id.as_str(), r))
        .collect();
    let pairs: usize = log
        .iter()
        .filter(|a| a.cache == "cold")
        .filter_map(|a| {
            let m = plan
                .stream
                .net(reqs.get(a.id.as_str())?.net)
                .inst
                .sinks
                .len();
            Some(m * (m - 1) / 2)
        })
        .sum();
    let rows = counters
        .get("ebf.seed_rows")
        .zip(counters.get("ebf.cuts_added"))
        .map(|(seed, cuts)| (seed + cuts) as usize);
    layers.set_or_missing(
        "steiner.row_ratio",
        rows.and_then(|rows| trace::row_ratio(rows, pairs)),
        "counters ebf.seed_rows, ebf.cuts_added over cold solves",
    );
    trace::par_layers(&mut layers, &counters, requests, ctx.threads, ctx.threads);

    let nominal = &untraced.steps[..NOMINAL_STEPS.min(untraced.steps.len())];
    layers.set_or_missing(
        "gen.late_ms.tail",
        stats::max(nominal.iter().filter_map(|s| s.late_ms)),
        "nominal-step send times",
    );
    layers.set(
        "gen.backlog",
        nominal.iter().map(|s| s.backlog).max().unwrap_or(0) as f64,
    );
    let ratio = stats::median(&traced.probe_walls).zip(stats::median(&untraced.probe_walls));
    layers.set_or_missing(
        "trace_overhead_ratio",
        ratio.map(|(t, u)| t / u),
        "probe passes",
    );
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(reqs: &[Req]) -> Vec<&str> {
        reqs.iter().map(|r| r.line.as_str()).collect()
    }

    #[test]
    fn steps_are_whole_class_cycles_with_sizes_taking_turns() {
        let mut plan = plan(7, 20.0);
        let search = plan.stream.mixed(step_len(64.0, STEP_SHARE, 20.0));
        let classes = SERVE_POOL.classes();
        for reqs in plan.nominal.iter().chain([&search]) {
            assert_eq!(reqs.len() % cycle_requests(), 0);
            let fresh: Vec<usize> = reqs
                .iter()
                .filter(|r| r.kind != Kind::Repeat)
                .map(|r| r.net)
                .collect();
            for cycle in fresh.chunks(classes) {
                let mut seen: Vec<usize> = cycle.iter().map(|k| k % classes).collect();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), classes, "one net of every class");
                let turns = SIZE_TURNS.iter().cycle();
                for (&k, &size) in cycle.iter().zip(turns) {
                    assert_eq!(SERVE_POOL.size_index(k), size);
                }
            }
        }
    }

    #[test]
    fn audits_take_the_96_sink_turns_and_median_and_tail_fall_inside_a_class() {
        let plan = plan(7, 20.0);
        let sinks = |r: &Req| plan.stream.net(r.net).inst.sinks.len();
        let step = &plan.nominal[0];
        let count = |f: &dyn Fn(&Req) -> bool| step.iter().filter(|r| f(r)).count();
        let n = step.len();
        for r in step {
            match r.kind {
                Kind::Audit => assert_eq!(sinks(r), 96),
                Kind::Lint => assert_eq!(sinks(r), 64),
                Kind::Unique => assert_ne!(sinks(r), 96),
                Kind::Repeat => {}
            }
        }
        // Repeats, the lint and 16-sink solves below the median; 32-sink
        // solves around it.
        let fast = count(&|r| r.kind != Kind::Unique && r.kind != Kind::Audit)
            + count(&|r| r.kind == Kind::Unique && sinks(r) == 16);
        let mid = count(&|r| r.kind == Kind::Unique && sinks(r) == 32);
        assert_eq!(16 * fast, 7 * n);
        assert!(fast < n / 2 && n / 2 < fast + mid);
        // The tail (ten samples beyond it) falls inside the slowest
        // quarter, audits and 128-sink solves, away from its lower edge.
        let slow = count(&|r| r.kind == Kind::Audit)
            + count(&|r| r.kind == Kind::Unique && sinks(r) == 128);
        assert_eq!(4 * slow, n);
        assert!(slow >= 2 * stats::MIN_BEYOND, "{slow} slow requests");
    }

    #[test]
    fn a_seed_fixes_the_stream_and_orders_the_same_work() {
        let (a, b, c) = (plan(7, 20.0), plan(7, 20.0), plan(8, 20.0));
        assert_eq!(lines(&a.nominal[0]), lines(&b.nominal[0]));
        assert_ne!(lines(&a.nominal[0]), lines(&c.nominal[0]));
        // Another seed reorders the fresh nets within their cycles.
        let fresh = |p: &Plan| {
            let mut v: Vec<usize> = p.nominal[0]
                .iter()
                .filter(|r| r.kind != Kind::Repeat)
                .map(|r| r.net)
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(fresh(&a), fresh(&c));
    }
}
