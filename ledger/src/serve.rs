//! The `serve_mix` workload: a `gpuflow serve` daemon on loopback TCP,
//! driven by a closed loop of keep-alive clients with a seeded Zipf mix.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

use gpuflow_graph::canonical_hash;
use gpuflow_minijson::Value;
use gpuflow_multi::Cluster;
use gpuflow_serve::{parse_request, serve_tcp, ServeConfig, Server, ServerHandle};
use gpuflow_sim::device::tesla_c870;

use crate::compile::compile_and_emit;
use crate::gen::{Class, Req, Requests, Tpl, CATALOGUE, CLIENTS};
use crate::report::{mb, median, percentile, sum_of_trimmed_means, Report};
use crate::ALLOC;

/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// In-process reference compiles of the catalogue, before and after the
/// loop: at least this many rounds on each side...
const REFERENCE_REPS: usize = 5;
/// ...and rounds until this much time has passed, so the typical times rest on
/// more than a moment of a machine whose speed drifts.
const REFERENCE_SECONDS: f64 = 4.0;
/// Analytic executions per reference compile (each takes microseconds).
const EXEC_REPS: usize = 10;

/// Plan-cache entries: small enough that never-seen sizes push the
/// catalogue past it and the LRU evicts (`gpuflow serve --cache-capacity 16`).
const CACHE_CAPACITY: usize = 16;
/// Requests one client may record; the loop stops early at this count.
const MAX_RECORDS: usize = 60_000;
/// Equal windows the timed loop is cut into; `peak_heap_mb` is the
/// median of their heap high-water marks.
const PEAK_WINDOWS: usize = 10;

/// The daemon configuration `gpuflow serve --cache-capacity 16` builds:
/// one Tesla C870, default margin, queue and guard settings.
fn config() -> ServeConfig {
    ServeConfig {
        cluster: Cluster::homogeneous(tesla_c870(), 1),
        cache_capacity: CACHE_CAPACITY,
        ..ServeConfig::default()
    }
}

/// One keep-alive connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one line in a single write; return the response line.
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut msg = Vec::with_capacity(line.len() + 1);
        msg.extend_from_slice(line.as_bytes());
        msg.push(b'\n');
        self.writer.write_all(&msg)?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(resp)
    }
}

/// Cache outcome reported by a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cache {
    Hit,
    Incremental,
    Miss,
    Absent,
}

/// The parts of a response the checks and counters need.
#[derive(Debug, Clone, Copy)]
struct Answer {
    ok: bool,
    cache: Cache,
    graph_hash: Option<u64>,
    sim_time_s: Option<f64>,
    certified: bool,
}

fn parse_answer(line: &str) -> Answer {
    let v = gpuflow_minijson::parse(line.trim_end()).unwrap_or(Value::Null);
    let cache = match v.get("cache").and_then(Value::as_str) {
        Some("hit") => Cache::Hit,
        Some("incremental") => Cache::Incremental,
        Some("miss") => Cache::Miss,
        _ => Cache::Absent,
    };
    Answer {
        ok: v.get("ok").and_then(Value::as_bool) == Some(true),
        cache,
        graph_hash: v
            .get("graph_hash")
            .and_then(Value::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok()),
        sim_time_s: v.get("sim_time_s").and_then(Value::as_f64),
        certified: v.get("certified").and_then(Value::as_bool) == Some(true),
    }
}

/// One timed request, as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Rec {
    ticket: u64,
    req: Req,
    lat_us: f64,
    /// Connect time for fresh-connection requests.
    connect_us: Option<f64>,
    answer: Answer,
}

struct Daemon {
    handle: ServerHandle,
    warmup: Vec<Answer>,
}

impl Daemon {
    /// Start a daemon and compile the catalogue through it.
    fn start() -> Result<Daemon, String> {
        let handle = serve_tcp("127.0.0.1:0", config()).map_err(|e| format!("serve_tcp: {e}"))?;
        let mut conn = Conn::connect(handle.addr).map_err(|e| format!("connect: {e}"))?;
        let mut warmup = Vec::new();
        for tpl in CATALOGUE {
            let line = warm_line(tpl);
            let resp = conn.request(&line).map_err(|e| format!("warm-up: {e}"))?;
            warmup.push(parse_answer(&resp));
        }
        Ok(Daemon { handle, warmup })
    }

    fn request(&self, line: &str) -> std::io::Result<String> {
        Conn::connect(self.handle.addr)?.request(line)
    }

    fn stop(self) {
        let _ = self.request(r#"{"op":"shutdown"}"#);
        self.handle.join();
    }
}

fn warm_line(tpl: Tpl) -> String {
    Req {
        tpl,
        run: false,
        fresh: false,
        class: Class::Warm,
    }
    .line()
}

/// A client's closed loop: send the next request only after the
/// previous response arrived, until `deadline`.
fn client_loop(
    addr: SocketAddr,
    mut reqs: Requests,
    mut recs: Vec<Rec>,
    deadline: Instant,
    ticket: &AtomicU64,
) -> std::io::Result<Vec<Rec>> {
    let mut conn = Conn::connect(addr)?;
    while recs.len() < MAX_RECORDS {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let req = reqs.next().expect("endless request stream");
        let line = req.line();
        let ticket = ticket.fetch_add(1, Relaxed);
        let (resp, lat_us, connect_us) = if req.fresh {
            let t = Instant::now();
            let mut fresh = Conn::connect(addr)?;
            let connect_us = t.elapsed().as_secs_f64() * 1e6;
            let t = Instant::now();
            let resp = fresh.request(&line)?;
            (resp, t.elapsed().as_secs_f64() * 1e6, Some(connect_us))
        } else {
            let t = Instant::now();
            let resp = conn.request(&line)?;
            (resp, t.elapsed().as_secs_f64() * 1e6, None)
        };
        recs.push(Rec {
            ticket,
            req,
            lat_us,
            connect_us,
            answer: parse_answer(&resp),
        });
    }
    Ok(recs)
}

/// What a correct response for a template carries.
#[derive(Debug, Clone, Copy)]
struct Expected {
    graph_hash: u64,
    sim_time_s: Option<f64>,
}

fn expected_for(tpl: Tpl, with_run: bool) -> Result<Expected, String> {
    let g = tpl.build();
    let sim_time_s = if with_run {
        let (c, _) = compile_and_emit(&g, &tesla_c870(), &tpl.spec())?;
        let out = c
            .run_analytic()
            .map_err(|e| format!("{}: analytic run: {e}", tpl.spec()))?;
        Some(out.total_time())
    } else {
        None
    };
    Ok(Expected {
        graph_hash: canonical_hash(&g),
        sim_time_s,
    })
}

/// In-process `compile_adaptive` + emit and analytic runs of the
/// catalogue: per-template timing samples and the expected answers.
#[derive(Default)]
struct Reference {
    build: Vec<Vec<f64>>,
    compile: Vec<Vec<f64>>,
    exec: Vec<Vec<f64>>,
    expected: HashMap<Tpl, Expected>,
    floats: u64,
    sim_s: f64,
}

impl Reference {
    fn sample(&mut self) -> Result<(), String> {
        for samples in [&mut self.build, &mut self.compile, &mut self.exec] {
            samples.resize(CATALOGUE.len(), Vec::new());
        }
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < REFERENCE_REPS || start.elapsed().as_secs_f64() < REFERENCE_SECONDS {
            rounds += 1;
            for (i, tpl) in CATALOGUE.iter().enumerate() {
                let t = Instant::now();
                let g = tpl.build();
                self.build[i].push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                let (c, _json) = compile_and_emit(&g, &tesla_c870(), &tpl.spec())?;
                self.compile[i].push(t.elapsed().as_secs_f64());
                let mut out = None;
                for _ in 0..EXEC_REPS {
                    let t = Instant::now();
                    out = Some(c.run_analytic());
                    self.exec[i].push(t.elapsed().as_secs_f64());
                }
                let out = out
                    .expect("EXEC_REPS > 0")
                    .map_err(|e| format!("{}: analytic run: {e}", tpl.spec()))?;
                if !self.expected.contains_key(tpl) {
                    self.floats += out.transfer_floats();
                    self.sim_s += out.total_time();
                    let want = Expected {
                        graph_hash: canonical_hash(&g),
                        sim_time_s: Some(out.total_time()),
                    };
                    self.expected.insert(*tpl, want);
                }
            }
        }
        Ok(())
    }
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn phase(stats: &Value, phase: &str, q: &str) -> f64 {
    stats
        .get("phases")
        .and_then(|p| p.get(phase))
        .and_then(|h| h.get(q))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut r = Report::default();
    match drive(seed, seconds, traced, &mut r) {
        Ok(()) => {}
        Err(e) => {
            r.op(false);
            r.fail(e);
        }
    }
    r
}

fn drive(seed: u64, seconds: f64, traced: bool, r: &mut Report) -> Result<(), String> {
    // Set-up: start the daemon and warm its catalogue over TCP.
    let mut setup = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let t = Instant::now();
        daemon = Some(Daemon::start()?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let daemon = daemon.expect("at least one set-up");
    r.set("setup_s", median(&setup));
    for (tpl, a) in CATALOGUE.iter().zip(&daemon.warmup) {
        r.check(a.ok, || format!("warm-up compile of {} failed", tpl.spec()));
    }

    // In-process reference compiles of the catalogue, half before and
    // half after the loop so their samples span the run: compile_s,
    // exec_s, the plan metrics and the expected answers.
    let mut reference = Reference::default();
    reference.sample()?;

    // The closed loop.
    let ticket = AtomicU64::new(0);
    let buffers: Vec<Vec<Rec>> = (0..CLIENTS)
        .map(|_| Vec::with_capacity(MAX_RECORDS))
        .collect();
    let addr = daemon.handle.addr;
    // The record buffers are reserved before the windows open and stay
    // live through them; they are the benchmark's memory, not the daemon's.
    let reserved = CLIENTS * MAX_RECORDS * std::mem::size_of::<Rec>();
    let mut window_peaks = Vec::with_capacity(PEAK_WINDOWS);
    let live_before = ALLOC.current();
    ALLOC.reset_window();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<std::io::Result<Vec<Rec>>> = std::thread::scope(|s| {
        let handles: Vec<_> = buffers
            .into_iter()
            .enumerate()
            .map(|(c, buf)| {
                let ticket = &ticket;
                s.spawn(move || client_loop(addr, Requests::new(seed, c), buf, deadline, ticket))
            })
            .collect();
        for w in 1..=PEAK_WINDOWS {
            let end = start + Duration::from_secs_f64(seconds * w as f64 / PEAK_WINDOWS as f64);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            window_peaks.push(mb(ALLOC.take_window().saturating_sub(reserved)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let live_after = ALLOC.current();
    let mut recs: Vec<Rec> = Vec::new();
    for res in results {
        recs.extend(res.map_err(|e| format!("client transport error: {e}"))?);
    }
    recs.sort_by_key(|x| x.ticket);

    // The whole loop's high-water mark depends on whether two transient
    // peaks happened to coincide; the median window does not.
    r.set("peak_heap_mb", median(&window_peaks));
    r.note(format!(
        "heap high-water mark per window, MB (benchmark record buffers excluded): {}",
        window_peaks
            .iter()
            .map(|p| format!("{p:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let lat: Vec<f64> = recs.iter().map(|x| x.lat_us).collect();
    r.set("req_per_s", recs.len() as f64 / wall);
    r.set("req_p50_us", percentile(&lat, 0.50));
    r.set("req_p99_us", percentile(&lat, 0.99));
    r.set(
        "serve.heap_growth_kb_per_kreq",
        (live_after as f64 - live_before as f64) / 1024.0 / (recs.len().max(1) as f64 / 1000.0),
    );
    r.set("serve.requests", recs.len() as f64);

    reference.sample()?;
    r.set("compile_s", sum_of_trimmed_means(&reference.compile));
    r.set("exec_s", sum_of_trimmed_means(&reference.exec));
    r.set(
        "graph_build.ms",
        sum_of_trimmed_means(&reference.build) * 1e3,
    );
    r.set("plan_transfer_floats", reference.floats as f64);
    r.set("plan_sim_s", reference.sim_s);
    let mut expected = reference.expected;

    // Correctness: every answer against in-process expectations.
    for x in &recs {
        if !expected.contains_key(&x.req.tpl)
            || (x.req.run && expected[&x.req.tpl].sim_time_s.is_none())
        {
            let e = expected_for(x.req.tpl, x.req.run)?;
            expected.insert(x.req.tpl, e);
        }
    }
    for x in &recs {
        let spec = x.req.tpl.spec();
        let want = expected[&x.req.tpl];
        let a = x.answer;
        let mut ok = r.check(a.ok, || format!("{} failed: {:?}", x.req.line(), a));
        ok &= r.check(a.graph_hash == Some(want.graph_hash), || {
            format!(
                "{spec}: graph_hash {:?} != canonical_hash {:016x}",
                a.graph_hash, want.graph_hash
            )
        });
        if x.req.run {
            ok &= r.check(a.certified, || format!("{spec}: run not certified"));
            ok &= r.check(a.sim_time_s == want.sim_time_s, || {
                format!(
                    "{spec}: sim_time_s {:?} != compile_adaptive + run_analytic {:?}",
                    a.sim_time_s, want.sim_time_s
                )
            });
        }
        r.op(ok);
    }

    // Reconciliation against the daemon's own counters.
    let stats_line = daemon
        .request(r#"{"op":"stats"}"#)
        .map_err(|e| format!("stats: {e}"))?;
    let stats = gpuflow_minijson::parse(stats_line.trim_end())
        .map_err(|e| format!("stats response: {e}"))?;
    let answers: Vec<&Answer> = daemon
        .warmup
        .iter()
        .chain(recs.iter().map(|x| &x.answer))
        .collect();
    let count = |c: Cache| answers.iter().filter(|a| a.cache == c).count() as u64;
    let runs_ok = recs.iter().filter(|x| x.req.run && x.answer.ok).count() as u64;
    for (name, ours) in [
        ("serve.requests", answers.len() as u64 + 1),
        ("serve.cache_hits", count(Cache::Hit)),
        ("serve.cache_incremental", count(Cache::Incremental)),
        ("serve.cache_misses", count(Cache::Miss)),
        ("serve.completed", runs_ok),
    ] {
        let theirs = counter(&stats, name);
        r.check(theirs == ours, || {
            format!("daemon counter {name} = {theirs}, client-side count = {ours}")
        });
    }
    let timed = |c: Cache| recs.iter().filter(|x| x.answer.cache == c).count() as f64;
    let planned = timed(Cache::Hit) + timed(Cache::Incremental) + timed(Cache::Miss);
    r.set("cache.hit_ratio", timed(Cache::Hit) / planned.max(1.0));
    r.set("cache.incremental", timed(Cache::Incremental));
    r.set(
        "cache.evictions",
        stats
            .get("cache_evictions")
            .and_then(Value::as_u64)
            .unwrap_or(0) as f64,
    );
    r.set(
        "admission.rejects",
        (counter(&stats, "serve.rejected_infeasible")
            + counter(&stats, "serve.rejected_backpressure")) as f64,
    );
    r.set(
        "admission.queue_wait_p99_us",
        phase(&stats, "queue-wait", "p99"),
    );
    for (metric, ph) in [
        ("serve.phase.cache-probe.p50_us", "cache-probe"),
        ("serve.phase.queue-wait.p50_us", "queue-wait"),
        ("serve.phase.compile.p50_us", "compile"),
        ("serve.phase.execute.p50_us", "execute"),
        ("serve.phase.total.p50_us", "total"),
    ] {
        r.set(metric, phase(&stats, ph, "p50"));
    }
    // The mix actually driven, as shares of the timed requests.
    let share = |f: &dyn Fn(&Rec) -> bool| {
        recs.iter().filter(|x| f(x)).count() as f64 / recs.len().max(1) as f64
    };
    let hit = share(&|x| x.answer.cache == Cache::Hit);
    let run = share(&|x| x.req.run);
    let novel = share(&|x| x.req.class == Class::Novel);
    let fresh = share(&|x| x.req.fresh);
    r.set("mix.hit_share", hit);
    r.set("mix.run_share", run);
    r.set("mix.novel_share", novel);
    r.set("mix.fresh_share", fresh);
    r.note(format!(
        "{} requests in {wall:.2} s from {CLIENTS} closed-loop clients; shares: cache hit {:.1}%, run {:.1}%, never-seen size {:.1}%, fresh connection {:.1}%",
        recs.len(),
        100.0 * hit,
        100.0 * run,
        100.0 * novel,
        100.0 * fresh
    ));
    daemon.stop();

    if traced {
        twin_replay(&recs, r);
        // No benchmark span wraps the timed loop in either mode: the
        // per-layer figures come from the twin replay after it and from
        // the daemon's stats. Tracing therefore adds nothing to the loop.
        r.set("trace.overhead_pct", 0.0);
        r.note("tracing overhead: none on the timed loop (it carries no spans)".to_string());
    }
    Ok(())
}

/// Replay the run's requests, in send order, on an in-process twin
/// server: its `handle_line` latency is the daemon's work without the
/// transport, so the client latency minus it is the transport's share.
fn twin_replay(recs: &[Rec], r: &mut Report) {
    let twin = Server::new(config());
    for tpl in CATALOGUE {
        twin.handle_line(&warm_line(tpl));
    }
    let (mut hit, mut miss, mut run, mut transport) = (vec![], vec![], vec![], vec![]);
    let mut parse = Vec::new();
    for x in recs {
        let line = x.req.line();
        let t = Instant::now();
        let parsed = parse_request(&line);
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        if parsed.is_err() {
            r.fail(format!("parse_request rejected {line}"));
        }
        let t = Instant::now();
        let resp = twin.handle_line(&line);
        let us = t.elapsed().as_secs_f64() * 1e6;
        transport.push(x.lat_us - us);
        match (parse_answer(&resp).cache, x.req.run) {
            (Cache::Hit, false) => hit.push(us),
            (Cache::Hit, true) => run.push(us),
            _ => miss.push(us),
        }
    }
    let connect: Vec<f64> = recs.iter().filter_map(|x| x.connect_us).collect();
    r.set("net.connect_us", median(&connect));
    r.set("net.transport_us", median(&transport));
    r.set("protocol.parse_us", median(&parse));
    r.set("handler.hit_us", median(&hit));
    r.set("handler.miss_us", median(&miss));
    r.set("handler.run_us", median(&run));
    r.note(format!(
        "transport share of req_p50_us: {:.1}%",
        100.0 * median(&transport) / r.get("req_p50_us").max(f64::MIN_POSITIVE)
    ));
}
