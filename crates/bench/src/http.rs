//! HTTP load benchmark: ≥ 128 concurrent simulated users against the
//! `rnnhm_serve` front end, with a JSON emitter for `BENCH_http.json`.
//!
//! The serving robustness scenario (ISSUE 6): a fleet of users with
//! jittered exponential retry/backoff replays warm pan traffic over
//! divergently-edited HTTP sessions, and the harness then turns each
//! robustness knob in isolation:
//!
//! * **load phase** — `users` connection-per-request threads, each
//!   pinned to one of `sessions + 1` server-side sessions, re-request
//!   a small pan script. `503` sheds back off (jittered exponential)
//!   and retry until served. Reported: sustained req/s, p50/p99
//!   service latency, shed/degraded/retry counts.
//! * **torn-frame audit** — every user keeps its last exact response
//!   (ETag + body); after the phase each sample is re-rendered
//!   one-shot from the snapshot matching its ETag fingerprint and
//!   compared bit-for-bit. The acceptance bar is zero torn frames.
//! * **warm-tile latency** — p50 of a keep-alive warm-tile fetch,
//!   compared against the in-process `BENCH_serve.json` frame figure
//!   (bar: within 2×).
//! * **shed latency** — a deliberately clogged one-worker server
//!   (every render delayed via `FaultPlan`) is probed until enough
//!   `503`s are observed; the bar is shed p50 < 1 ms.
//! * **chaos phase** — panics, dropped connections, and truncated
//!   writes are armed at mutually prime cadences under concurrent
//!   traffic; afterwards every injected panic must be accounted for
//!   (caught, worker survived) and a burst wider than the pool must
//!   come back all-200.

use std::collections::HashMap;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rnn_heatmap::prelude::*;
use rnn_heatmap::HeatMapBuilder;
use rnnhm_core::measure::CountMeasure;
use rnnhm_core::parallel::effective_parallelism;
use rnnhm_serve::{serve, Server, ServerConfig};

use crate::runner::{percentile, write_bench_json};
use crate::workload::{build_workload, DatasetKind};

// ---------------------------------------------------------------- client

/// A parsed HTTP reply (connection-per-request, read-to-EOF).
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The snapshot fingerprint carried by the ETag, if any.
    fn etag_fingerprint(&self) -> Option<u64> {
        let tag = self.header("etag")?.trim_matches('"');
        u64::from_str_radix(tag, 16).ok()
    }
}

/// Parses a reply buffer; `None` for torn or empty buffers (expected
/// under fault injection).
fn parse_reply(bytes: &[u8]) -> Option<Reply> {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&bytes[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let headers = lines
        .filter_map(|l| {
            let (k, v) = l.split_once(':')?;
            Some((k.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    Some(Reply { status, headers, body: bytes[head_end + 4..].to_vec() })
}

/// One connection-per-request exchange; `Ok(None)` means the reply
/// was torn or the connection was dropped server-side.
fn http(addr: SocketAddr, method: &str, target: &str) -> std::io::Result<Option<Reply>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let req = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
    stream.write_all(req.as_bytes())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) if !buf.is_empty() => break,
            Err(e) => return Err(e),
        }
    }
    Ok(parse_reply(&buf))
}

/// A keep-alive connection (reads exactly `Content-Length` body bytes
/// per reply) for the warm-tile latency series.
struct KeepAlive {
    stream: TcpStream,
}

impl KeepAlive {
    fn connect(addr: SocketAddr) -> std::io::Result<KeepAlive> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(KeepAlive { stream })
    }

    fn get(&mut self, target: &str) -> std::io::Result<u16> {
        let req = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream.write_all(req.as_bytes())?;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let reply = parse_reply(&buf[..head_end + 4])
            .ok_or_else(|| std::io::Error::other("malformed reply head"))?;
        let len: usize = reply
            .header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| std::io::Error::other("missing Content-Length"))?;
        let mut have = buf.len() - (head_end + 4);
        while have < len {
            let want = (len - have).min(chunk.len());
            let n = self.stream.read(&mut chunk[..want])?;
            if n == 0 {
                return Err(std::io::Error::other("connection closed mid-body"));
            }
            have += n;
        }
        Ok(reply.status)
    }
}

// --------------------------------------------------------------- backoff

/// Tiny deterministic generator for backoff jitter (no `rand` in the
/// hot client loop).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Jittered exponential backoff: 1 ms doubling to a 256 ms cap,
/// scaled by a uniform factor in [0.5, 1.5). The cap matters: it has
/// to be high enough that a whole fleet retrying at the cap offers
/// less load than the server can serve, or retries can never drain.
fn backoff(attempt: u32, lcg: &mut Lcg) -> Duration {
    let base_us = 1000u64 << attempt.min(8);
    Duration::from_micros(base_us / 2 + base_us * (lcg.next() % 1024) / 1024)
}

// ------------------------------------------------------------- the bench

/// A user's last exact response, kept for the torn-frame audit.
struct Sample {
    fingerprint: u64,
    rect: Rect,
    px: usize,
    body: Vec<u8>,
}

#[derive(Default)]
struct UserOutcome {
    latencies_ms: Vec<f64>,
    sample: Option<Sample>,
    exact: u64,
    degraded: u64,
    shed: u64,
    retries: u64,
    failed: u64,
}

fn viewport_target(session: u64, rect: Rect, px: usize) -> String {
    format!(
        "/session/{session}/viewport?x0={}&x1={}&y0={}&y1={}&w={px}&h={px}",
        rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi
    )
}

/// One simulated user: replays the pan script against its session,
/// backing off and retrying on `503` (or a connect/read hiccup) until
/// each request is served.
fn user_loop(
    addr: SocketAddr,
    session: u64,
    rects: &[Rect],
    px: usize,
    reqs: usize,
    seed: u64,
) -> UserOutcome {
    let mut out = UserOutcome::default();
    let mut lcg = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15) | 1);
    for i in 0..reqs {
        let rect = rects[i % rects.len()];
        let target = viewport_target(session, rect, px);
        let mut served = false;
        // Generous budget: under full overload every user is inside
        // the retry loop at once, and the cap (32 attempts x <= 256 ms
        // capped backoff) still bounds a request to a few seconds of
        // retrying while the fleet's retry rate settles below the
        // service rate.
        for attempt in 0..32u32 {
            let start = rnnhm_core::clock::now();
            let reply = match http(addr, "GET", &target) {
                Ok(Some(r)) => r,
                // Torn reply or transient connect failure: back off
                // and retry like a shed.
                Ok(None) | Err(_) => {
                    out.retries += 1;
                    std::thread::sleep(backoff(attempt, &mut lcg));
                    continue;
                }
            };
            match reply.status {
                200 => {
                    out.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    if reply.header("x-degraded").is_some() {
                        out.degraded += 1;
                    } else {
                        out.exact += 1;
                        if let Some(fp) = reply.etag_fingerprint() {
                            out.sample =
                                Some(Sample { fingerprint: fp, rect, px, body: reply.body });
                        }
                    }
                    served = true;
                }
                503 => {
                    out.shed += 1;
                    out.retries += 1;
                    std::thread::sleep(backoff(attempt, &mut lcg));
                    continue;
                }
                other => panic!("unexpected status {other} for {target}"),
            }
            break;
        }
        if !served {
            out.failed += 1;
        }
    }
    out
}

/// Results of one HTTP load run.
#[derive(Debug, Clone)]
pub struct HttpLoadResult {
    /// Clients (bisector sites) in the dataset.
    pub n_clients: usize,
    /// Divergently-edited HTTP sessions (plus the pristine root).
    pub sessions: usize,
    /// Concurrent simulated users.
    pub users: usize,
    /// Viewport requests per user in the load phase.
    pub requests_per_user: usize,
    /// Viewport pixels per axis.
    pub view_px: usize,
    /// Tile edge in pixels.
    pub tile_px: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Admission queue depth.
    pub queue_depth: usize,
    /// Worker threads the host reports (`effective_parallelism`).
    pub threads: usize,
    /// Load-phase wall clock, seconds.
    pub elapsed_s: f64,
    /// Served responses per second over the load phase.
    pub req_per_s: f64,
    /// Median served-request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile served-request latency, milliseconds.
    pub p99_ms: f64,
    /// Exact (fully resolved) responses in the load phase.
    pub exact: u64,
    /// Deadline-degraded responses in the load phase.
    pub degraded: u64,
    /// Deadline-degraded responses over the whole server lifetime
    /// (the chaos phase's injected render delays land here).
    pub degraded_total: u64,
    /// `503` sheds observed by clients in the load phase.
    pub shed: u64,
    /// Client retries (sheds + transient hiccups) in the load phase.
    pub retries: u64,
    /// Requests that exhausted their retry budget (must be 0).
    pub failed: u64,
    /// Exact responses audited against a one-shot snapshot render.
    pub sampled_frames: usize,
    /// Audited responses that were NOT bit-identical (must be 0).
    pub torn_frames: usize,
    /// Keep-alive warm-tile p50, milliseconds.
    pub warm_tile_p50_ms: f64,
    /// In-process reference figure from `BENCH_serve.json` (bar: 2×).
    pub warm_tile_reference_ms: f64,
    /// Median `503` latency from the clogged-server probe, ms (< 1).
    pub shed_p50_ms: f64,
    /// 99th-percentile `503` latency from the probe, milliseconds.
    pub shed_p99_ms: f64,
    /// `503`s observed by the shed probe.
    pub shed_observed: u64,
    /// Handler panics injected (and caught) in the chaos phase.
    pub chaos_panics: u64,
    /// Connections dropped by fault injection in the chaos phase.
    pub chaos_drops: u64,
    /// Replies truncated by fault injection in the chaos phase.
    pub chaos_truncations: u64,
    /// Whether a post-chaos burst wider than the pool was all-200.
    pub pool_alive_after_chaos: bool,
    /// Whether `panics_caught` matched the injected panic count (no
    /// worker died, no panic double-counted).
    pub panics_isolated: bool,
}

fn parse_session_id(body: &[u8]) -> u64 {
    let text = std::str::from_utf8(body).expect("session JSON is UTF-8");
    let rest = text.split("\"session\":").nth(1).expect("session id field");
    rest.bytes().take_while(u8::is_ascii_digit).fold(0u64, |acc, b| acc * 10 + u64::from(b - b'0'))
}

/// Measures shed latency on a deliberately clogged one-worker server:
/// every render is delayed far past the probe cadence, three cloggers
/// keep the queue full, and each probe that comes back `503` is timed.
fn measure_shed_latency(
    engine: &Arc<ExplorationEngine<CountMeasure>>,
    view_px: usize,
    probes: usize,
) -> (f64, f64, u64) {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 2,
        request_deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = serve(Arc::clone(engine), config).expect("bind shed server");
    let addr = server.addr();
    server.fault().delay_render_every(1, Duration::from_millis(250));

    let stop = AtomicBool::new(false);
    let mut shed_ms: Vec<f64> = Vec::new();
    let clog = viewport_target(0, Rect::new(0.2, 0.6, 0.2, 0.6), view_px);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let clog = clog.as_str();
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = http(addr, "GET", clog);
                }
            });
        }
        // Let the cloggers occupy the worker and fill the queue.
        std::thread::sleep(Duration::from_millis(50));
        let mut seen = 0usize;
        while seen < probes {
            let start = rnnhm_core::clock::now();
            if let Ok(Some(reply)) = http(addr, "GET", "/healthz") {
                if reply.status == 503 {
                    shed_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
            seen += 1;
        }
        stop.store(true, Ordering::Relaxed);
    });
    server.shutdown();
    shed_ms.sort_by(f64::total_cmp);
    (percentile(&shed_ms, 0.5), percentile(&shed_ms, 0.99), shed_ms.len() as u64)
}

/// Arms the full `FaultPlan` at mutually prime cadences under
/// concurrent traffic, then verifies no worker died.
fn chaos_phase(
    server: &Server<CountMeasure>,
    session_ids: &[u64],
    view_px: usize,
    storm_users: usize,
) -> (u64, u64, u64, bool, bool) {
    let addr = server.addr();
    let panics_before = server.stats().panics_caught;
    let fault = server.fault();
    fault.delay_render_every(6, Duration::from_millis(700));
    fault.panic_every(7);
    fault.drop_connection_every(11);
    fault.truncate_write_every(13, 24);

    std::thread::scope(|scope| {
        for u in 0..storm_users {
            let session = session_ids[u % session_ids.len()];
            scope.spawn(move || {
                let rect = Rect::new(0.15, 0.55, 0.15, 0.55);
                for i in 0..6 {
                    let target = match i % 3 {
                        0 => "/healthz".to_string(),
                        1 => format!("/session/{session}/tile/0/0/0"),
                        _ => viewport_target(session, rect, view_px),
                    };
                    // Every failure mode is expected mid-storm.
                    let _ = http(addr, "GET", &target);
                }
            });
        }
    });

    fault.disarm();
    let counts = fault.counts();
    let panics_isolated = server.stats().panics_caught - panics_before == counts.panics;

    // Zero worker deaths: a concurrent burst wider than the pool must
    // come back all-200.
    let pool_alive = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                scope.spawn(
                    move || matches!(http(addr, "GET", "/healthz"), Ok(Some(r)) if r.status == 200),
                )
            })
            .collect();
        handles.into_iter().all(|h| h.join().expect("probe thread"))
    });
    (counts.panics, counts.drops, counts.truncations, pool_alive, panics_isolated)
}

/// Runs the full HTTP load scenario on a Uniform workload under the
/// count measure and the L∞ metric. `ratio` is `|O|/|F|`.
#[allow(clippy::too_many_arguments)]
pub fn run_http_load(
    n_clients: usize,
    ratio: usize,
    view_px: usize,
    tile_px: usize,
    sessions: usize,
    users: usize,
    reqs_per_user: usize,
    shed_probes: usize,
    warm_tile_reference_ms: f64,
    seed: u64,
) -> HttpLoadResult {
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    let engine = Arc::new(
        HeatMapBuilder::bichromatic(w.clients.clone(), w.facilities.clone())
            .metric(Metric::Linf)
            .tile_px(tile_px)
            .tile_cache_bytes(512 << 20)
            .build_engine(CountMeasure)
            .expect("non-empty workload"),
    );
    let config = ServerConfig {
        workers: 4,
        queue_depth: 64,
        request_deadline: Duration::from_millis(500),
        session_idle: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let (workers, queue_depth) = (config.workers, config.queue_depth);
    let server = serve(Arc::clone(&engine), config).expect("bind bench server");
    let addr = server.addr();

    // Divergently-edited sessions over HTTP, plus the pristine root.
    let mut session_ids: Vec<u64> = vec![rnnhm_serve::ROOT_SESSION];
    for s in 0..sessions {
        let created = http(addr, "POST", "/session").expect("create").expect("reply");
        assert_eq!(created.status, 200, "session create failed");
        let id = parse_session_id(&created.body);
        let site = (0.30 + 0.12 * (s % 4) as f64, 0.42 + 0.05 * (s / 4) as f64);
        let edit = format!("/session/{id}/edit?op=add&x={}&y={}", site.0, site.1);
        let edited = http(addr, "POST", &edit).expect("edit").expect("reply");
        assert_eq!(edited.status, 200, "divergent edit failed");
        session_ids.push(id);
    }

    // Per-session pan script (4 rects), warmed once so the timed phase
    // measures serving, not first-touch rendering.
    let side = 0.35;
    let rect_script = |idx: usize| -> Vec<Rect> {
        let x0 = 0.05 + 0.01 * (idx % 8) as f64;
        (0..4)
            .map(|j| {
                let dx = 0.04 * j as f64;
                Rect::new(x0 + dx, x0 + dx + side, 0.1, 0.1 + side)
            })
            .collect()
    };
    for (idx, &sid) in session_ids.iter().enumerate() {
        for rect in rect_script(idx) {
            let reply = http(addr, "GET", &viewport_target(sid, rect, view_px))
                .expect("warm")
                .expect("reply");
            assert_eq!(reply.status, 200, "warm-up render failed");
        }
    }

    // Warm-tile latency over one keep-alive connection.
    let tile_target = format!("/session/{}/tile/0/0/0", rnnhm_serve::ROOT_SESSION);
    let mut ka = KeepAlive::connect(addr).expect("keep-alive connect");
    assert_eq!(ka.get(&tile_target).expect("tile warm"), 200);
    let mut tile_ms: Vec<f64> = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = rnnhm_core::clock::now();
        assert_eq!(ka.get(&tile_target).expect("warm tile"), 200);
        tile_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    drop(ka);
    tile_ms.sort_by(f64::total_cmp);
    let warm_tile_p50_ms = percentile(&tile_ms, 0.5);

    // Timed load phase.
    let load_start = rnnhm_core::clock::now();
    let outcomes: Vec<UserOutcome> = std::thread::scope(|scope| {
        let session_ids = &session_ids;
        let handles: Vec<_> = (0..users)
            .map(|u| {
                scope.spawn(move || {
                    let idx = u % session_ids.len();
                    let rects = rect_script(idx);
                    user_loop(addr, session_ids[idx], &rects, view_px, reqs_per_user, u as u64 + 1)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("user thread")).collect()
    });
    let elapsed_s = load_start.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::new();
    let (mut exact, mut degraded, mut shed, mut retries, mut failed) = (0, 0, 0, 0, 0);
    let mut samples: Vec<Sample> = Vec::new();
    for mut o in outcomes {
        latencies.append(&mut o.latencies_ms);
        exact += o.exact;
        degraded += o.degraded;
        shed += o.shed;
        retries += o.retries;
        failed += o.failed;
        samples.extend(o.sample.take());
    }
    latencies.sort_by(f64::total_cmp);

    // Torn-frame audit: each sampled exact response must be
    // bit-identical to a one-shot render of the snapshot its ETag
    // names. Run before the chaos phase touches the server.
    let by_fp: HashMap<u64, _> =
        engine.snapshots().into_iter().map(|s| (s.fingerprint(), s)).collect();
    let sampled_frames = samples.len();
    let mut torn_frames = 0usize;
    for s in &samples {
        let Some(snap) = by_fp.get(&s.fingerprint) else {
            torn_frames += 1;
            continue;
        };
        let direct = engine.session_at(Arc::clone(snap)).viewport(s.rect, s.px, s.px);
        let bytes: Vec<u8> = direct.values().iter().flat_map(|v| v.to_le_bytes()).collect();
        if bytes != s.body {
            torn_frames += 1;
        }
    }

    // Deadline degradation probe: with every render delayed past the
    // request budget, a cold viewport must come back as a coarse
    // preview (X-Degraded), not stall until the render finishes.
    server.fault().delay_render_every(1, Duration::from_millis(700));
    let cold = Rect::new(0.55, 0.95, 0.55, 0.95);
    let probe = http(addr, "GET", &viewport_target(rnnhm_serve::ROOT_SESSION, cold, view_px))
        .expect("degradation probe")
        .expect("reply");
    assert_eq!(probe.status, 200, "degraded viewports still serve");
    assert!(probe.header("x-degraded").is_some(), "an over-budget cold viewport must degrade");
    server.fault().disarm();

    let (chaos_panics, chaos_drops, chaos_truncations, pool_alive_after_chaos, panics_isolated) =
        chaos_phase(&server, &session_ids, view_px, (users / 4).max(8));
    let degraded_total = server.stats().degraded;
    server.shutdown();

    let (shed_p50_ms, shed_p99_ms, shed_observed) =
        measure_shed_latency(&engine, view_px, shed_probes);

    HttpLoadResult {
        n_clients,
        sessions,
        users,
        requests_per_user: reqs_per_user,
        view_px,
        tile_px,
        workers,
        queue_depth,
        threads: effective_parallelism(),
        elapsed_s,
        req_per_s: (exact + degraded) as f64 / elapsed_s,
        p50_ms: percentile(&latencies, 0.5),
        p99_ms: percentile(&latencies, 0.99),
        exact,
        degraded,
        degraded_total,
        shed,
        retries,
        failed,
        sampled_frames,
        torn_frames,
        warm_tile_p50_ms,
        warm_tile_reference_ms,
        shed_p50_ms,
        shed_p99_ms,
        shed_observed,
        chaos_panics,
        chaos_drops,
        chaos_truncations,
        pool_alive_after_chaos,
        panics_isolated,
    }
}

/// Writes HTTP load results as JSON (hand-rolled; the environment has
/// no serde) to `path`.
pub fn write_http_json(path: &str, runs: &[HttpLoadResult]) -> std::io::Result<()> {
    let header: &[&str] = &[
        "\"benchmark\": \"HTTP serving front end under concurrent users, faults, and overload\"",
        "\"measure\": \"count\"",
        "\"metric\": \"Linf\"",
        "\"dataset\": \"Uniform\"",
        "\"scenario\": \"warm pan script over divergently-edited sessions; jittered exponential retry on 503\"",
        "\"acceptance\": \"zero torn frames, zero failed requests, shed p50 < 1 ms, warm-tile p50 within 2x of BENCH_serve, workers survive chaos\"",
    ];
    write_bench_json(path, header, runs, |f, r| {
        writeln!(f, "      \"n_clients\": {},", r.n_clients)?;
        writeln!(f, "      \"sessions\": {},", r.sessions)?;
        writeln!(f, "      \"users\": {},", r.users)?;
        writeln!(f, "      \"requests_per_user\": {},", r.requests_per_user)?;
        writeln!(f, "      \"view_px\": {},", r.view_px)?;
        writeln!(f, "      \"tile_px\": {},", r.tile_px)?;
        writeln!(f, "      \"workers\": {},", r.workers)?;
        writeln!(f, "      \"queue_depth\": {},", r.queue_depth)?;
        writeln!(f, "      \"threads\": {},", r.threads)?;
        writeln!(f, "      \"elapsed_s\": {:.3},", r.elapsed_s)?;
        writeln!(f, "      \"req_per_s\": {:.1},", r.req_per_s)?;
        writeln!(f, "      \"latency_p50_ms\": {:.3},", r.p50_ms)?;
        writeln!(f, "      \"latency_p99_ms\": {:.3},", r.p99_ms)?;
        writeln!(f, "      \"exact\": {},", r.exact)?;
        writeln!(f, "      \"degraded\": {},", r.degraded)?;
        writeln!(f, "      \"degraded_total\": {},", r.degraded_total)?;
        writeln!(f, "      \"shed\": {},", r.shed)?;
        writeln!(f, "      \"retries\": {},", r.retries)?;
        writeln!(f, "      \"failed\": {},", r.failed)?;
        writeln!(f, "      \"sampled_frames\": {},", r.sampled_frames)?;
        writeln!(f, "      \"torn_frames\": {},", r.torn_frames)?;
        writeln!(f, "      \"warm_tile_p50_ms\": {:.3},", r.warm_tile_p50_ms)?;
        writeln!(f, "      \"warm_tile_reference_ms\": {:.3},", r.warm_tile_reference_ms)?;
        writeln!(f, "      \"shed_p50_ms\": {:.3},", r.shed_p50_ms)?;
        writeln!(f, "      \"shed_p99_ms\": {:.3},", r.shed_p99_ms)?;
        writeln!(f, "      \"shed_observed\": {},", r.shed_observed)?;
        writeln!(f, "      \"chaos_panics\": {},", r.chaos_panics)?;
        writeln!(f, "      \"chaos_drops\": {},", r.chaos_drops)?;
        writeln!(f, "      \"chaos_truncations\": {},", r.chaos_truncations)?;
        writeln!(f, "      \"pool_alive_after_chaos\": {},", r.pool_alive_after_chaos)?;
        writeln!(f, "      \"panics_isolated\": {}", r.panics_isolated)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_http_load_run_is_clean() {
        let r = run_http_load(512, 16, 64, 32, 2, 8, 3, 30, 10.0, 7);
        assert_eq!(r.torn_frames, 0, "an exact response diverged from its snapshot: {r:?}");
        assert_eq!(r.failed, 0, "a user exhausted its retry budget: {r:?}");
        assert!(r.pool_alive_after_chaos, "a worker died in the chaos phase: {r:?}");
        assert!(r.panics_isolated, "panic accounting diverged: {r:?}");
        assert!(r.sampled_frames > 0 && r.req_per_s > 0.0);
        assert!(r.shed_observed > 0, "the clogged server never shed: {r:?}");
    }

    #[test]
    fn http_json_emitter_produces_valid_shape() {
        let r = run_http_load(512, 16, 48, 16, 2, 4, 2, 20, 10.0, 9);
        let path = std::env::temp_dir().join("bench_http_test.json");
        let path = path.to_str().unwrap();
        write_http_json(path, &[r]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"torn_frames\": 0"));
        assert!(body.trim_start().starts_with('{') && body.trim_end().ends_with('}'));
        std::fs::remove_file(path).ok();
    }
}
