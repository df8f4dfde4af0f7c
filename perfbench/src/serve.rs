//! `serve`: the wire path, with a tile cache that fits.
//!
//! The `explore` city is served over loopback by `rnnhm_serve::serve`
//! with 2 workers. One keep-alive client connection (closed loop)
//! replays a seeded pan script over 4 hot areas that fit the tile cache
//! and are warmed during set-up: 1024² and 512² viewports, tile
//! requests, and one request in five sent conditionally with
//! `If-None-Match` (expecting `304`). A second concurrent connection
//! put four busy threads on the reference machine's two cores and
//! doubled the run-to-run spread of every latency.

use std::net::SocketAddr;
use std::sync::Arc;

use rnn_heatmap::core::measure::CountMeasure;
use rnn_heatmap::geom::Rect;
use rnn_heatmap::heatmap::tiles::TileScheme;
use rnn_heatmap::{ExplorationEngine, Session};
use rnnhm_serve::{serve, Response, Server, ServerConfig, ServerStats};

use crate::alloc;
use crate::http::Conn;
use crate::inputs::{self, px_rect};
use crate::report::Report;
use crate::setup::{Setups, SETUP_REPS};
use crate::stats::{hash_bytes, ms_since, Rng, Series};
use crate::trace::{Analysis, Tracer};

type Engine = ExplorationEngine<CountMeasure>;

const ZOOM: u8 = 9;
const CELL: i64 = 2048;
/// Hot areas and their edge in pixels (6 × 6 tiles each).
const AREAS: usize = 4;
const AREA: i64 = 1536;
const WORKERS: usize = 2;
const SCRIPT_LEN: usize = 600;
/// One exact viewport body in this many is kept for the check.
const CHECK_EVERY: usize = 23;
const CHECK_MAX: usize = 8;
/// Percentile reported as `lead_ms.tail` (1024² frames).
const LEAD_TAIL: f64 = 0.90;
/// Percentile reported as `follow_ms.tail` (512² frames).
const FOLLOW_TAIL: f64 = 0.90;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// 1024² viewport.
    Big,
    /// 512² viewport.
    Small,
    /// One 256² tile.
    Tile,
    /// A conditional viewport request (expects `304`).
    Cond,
}

struct Req {
    kind: Kind,
    target: String,
    rect: Rect,
    px: usize,
}

fn viewport_target(rect: Rect, px: usize) -> String {
    format!(
        "/session/0/viewport?x0={}&x1={}&y0={}&y1={}&w={px}&h={px}",
        rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi
    )
}

/// The hot areas: tile-aligned cells of the tour grid, seeded.
fn hot_areas(scheme: &TileScheme, seed: u64) -> Vec<(i64, i64)> {
    let mut cells = inputs::cells(scheme, ZOOM, CELL);
    Rng::new(seed ^ 0x4a7).shuffle(&mut cells);
    cells.truncate(AREAS);
    cells
}

/// The connection's pan script: 40% 1024² frames, 30% 512² frames,
/// 10% tiles, 20% conditional frames, all inside the hot areas.
fn script(scheme: &TileScheme, areas: &[(i64, i64)], seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x5c21);
    let t = scheme.tile_px() as i64;
    (0..SCRIPT_LEN)
        .map(|_| {
            let (ax, ay) = areas[rng.below(areas.len())];
            let roll = rng.below(100);
            let px = if roll < 40 || (roll >= 80 && roll.is_multiple_of(2)) { 1024 } else { 512 };
            let slots = ((AREA - 32 - px as i64) / 64 + 1) as usize;
            let x = ax + 16 + 64 * rng.below(slots) as i64;
            let y = ay + 16 + 64 * rng.below(slots) as i64;
            let rect = px_rect(scheme, ZOOM, x, y, px, px);
            match roll {
                0..=39 => Req { kind: Kind::Big, target: viewport_target(rect, px), rect, px },
                40..=69 => Req { kind: Kind::Small, target: viewport_target(rect, px), rect, px },
                70..=79 => {
                    let (tx, ty) = (x / t, y / t);
                    let target = format!("/session/0/tile/{ZOOM}/{tx}/{ty}");
                    Req { kind: Kind::Tile, target, rect, px: t as usize }
                }
                _ => Req { kind: Kind::Cond, target: viewport_target(rect, px), rect, px },
            }
        })
        .collect()
}

/// Starts the server on `engine` and warms the hot set over HTTP;
/// returns the server and the ETag its exact frames carry.
fn start(engine: Arc<Engine>, areas: &[(i64, i64)]) -> (Server<CountMeasure>, String) {
    let config = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
    let server = serve(engine.clone(), config).expect("bind a loopback port");
    let scheme = engine.tile_scheme();
    let mut conn = Conn::new(server.addr());
    let mut etag = String::new();
    for &(ax, ay) in areas {
        let target = viewport_target(
            px_rect(scheme, ZOOM, ax, ay, AREA as usize, AREA as usize),
            AREA as usize,
        );
        // A degraded reply (render deadline) keeps what it rendered;
        // repeating converges to the exact frame.
        for _ in 0..100 {
            match conn.get(&target, None) {
                Ok(r) if r.status == 200 && !r.degraded => {
                    etag = r.etag.unwrap_or_default();
                    break;
                }
                _ => continue,
            }
        }
    }
    (server, etag)
}

/// What the client connection measured.
#[derive(Default)]
struct Served {
    /// 1024² frames: untraced ones (every one in the untraced run).
    big: Series,
    /// 1024² frames of traced requests.
    traced_big: Series,
    small: Series,
    tile: Series,
    cond: Series,
    wire: Series,
    attempted: u64,
    completed: u64,
    failed: u64,
    kept: Vec<(usize, String, u64)>,
    big_ops: Vec<u64>,
}

/// Per-request tracing context of the traced stretch.
struct Traced<'a> {
    tracer: &'a Tracer,
    session: &'a Session<CountMeasure>,
}

/// Operation ids of traced requests start above this.
const OP_BASE: u64 = 1 << 32;

/// The closed-loop client: replays `script` on one keep-alive
/// connection until the loop time of `setups` runs out, making the
/// throwaway set-ups as they fall due. With `traced`, every other
/// request is traced (the parity flips on each pass over the script,
/// so both halves see every script entry).
fn client<F: FnMut() -> T, T>(
    addr: SocketAddr,
    script: &[Req],
    etag: &str,
    setups: &mut Setups<F>,
    traced: Option<Traced<'_>>,
) -> Served {
    let mut out = Served::default();
    let mut conn = Conn::new(addr);
    let mut i = 0usize;
    setups.start();
    while setups.running() {
        if setups.repeat_if_due() {
            // The server closes a connection idle past its read timeout;
            // a fresh one is opened outside the next request's timing.
            conn.reopen();
        }
        let idx = i % script.len();
        let req = &script[idx];
        let tr = traced.as_ref().filter(|_| (i + i / script.len()).is_multiple_of(2));
        i += 1;
        out.attempted += 1;
        let op = OP_BASE + i as u64;
        let cond = (req.kind == Kind::Cond).then_some(etag);
        let t = rnn_heatmap::core::clock::now();
        let reply = {
            let _s = tr.map(|t| t.tracer.span("http.request", op, None));
            conn.get(&req.target, cond)
        };
        let dt = ms_since(t);
        let Ok(reply) = reply else {
            out.failed += 1;
            continue;
        };
        let ok = match req.kind {
            Kind::Cond => reply.status == 304 && reply.etag.as_deref() == Some(etag),
            _ => reply.status == 200 && !reply.degraded,
        };
        if !ok {
            out.failed += 1;
            continue;
        }
        out.completed += 1;
        match req.kind {
            Kind::Big if tr.is_some() => out.traced_big.push(dt),
            Kind::Big => out.big.push(dt),
            Kind::Small => out.small.push(dt),
            Kind::Tile => out.tile.push(dt),
            Kind::Cond => out.cond.push(dt),
        }
        if matches!(req.kind, Kind::Big | Kind::Small) {
            out.wire.push(reply.wire_bytes as f64);
            if out.completed as usize % CHECK_EVERY == 1 && out.kept.len() < CHECK_MAX {
                let tag = reply.etag.clone().unwrap_or_default();
                out.kept.push((idx, tag, hash_bytes(&reply.body)));
            }
            if let Some(t) = tr {
                in_process(t, op, req, reply.etag.as_deref().unwrap_or_default());
                if req.kind == Kind::Big {
                    out.big_ops.push(op);
                }
            }
        }
    }
    out
}

/// The traced stretch's in-process counterpart of one served frame:
/// the same viewport through the engine, and the response serialized
/// as the server builds it.
fn in_process(t: &Traced<'_>, op: u64, req: &Req, etag: &str) {
    let raster = {
        let _s = t.tracer.span("engine.viewport", op, None);
        t.session.viewport(req.rect, req.px, req.px)
    };
    let mut body = Vec::with_capacity(raster.values().len() * 8);
    for v in raster.values() {
        body.extend_from_slice(&v.to_le_bytes());
    }
    let e = raster.spec.extent;
    let resp = Response::binary(body)
        .header("X-Grid", &format!("{} {}", raster.spec.width, raster.spec.height))
        .header("X-Extent", &format!("{} {} {} {}", e.x_lo, e.x_hi, e.y_lo, e.y_hi))
        .header("ETag", etag)
        .header("X-Resolved", "1");
    let _s = t.tracer.span("serve.to_bytes", op, None);
    std::hint::black_box(resp.to_bytes());
}

/// Checks kept bodies byte for byte against an in-process render of
/// the snapshot their ETag names.
fn check_bodies(engine: &Engine, script: &[Req], served: &Served, rep: &mut Report) {
    for (idx, tag, h) in &served.kept {
        let fp = u64::from_str_radix(tag.trim_matches('"'), 16).ok();
        let snap = engine.snapshots().into_iter().find(|s| Some(s.fingerprint()) == fp);
        let ok = snap.is_some_and(|snap| {
            let session = engine.session_at(snap);
            let req = &script[*idx];
            let spec = session.tile_scheme().viewport(req.rect, req.px, req.px).spec();
            let raster = session.raster(spec);
            let bytes: Vec<u8> = raster.values().iter().flat_map(|v| v.to_le_bytes()).collect();
            hash_bytes(&bytes) == *h
        });
        rep.check("serve: 200 body equals an in-process render of its ETag's snapshot", ok);
    }
}

fn counts(before: &ServerStats, after: &ServerStats) -> (u64, u64, u64) {
    (
        after.shed - before.shed,
        after.degraded - before.degraded,
        after.responses_5xx - before.responses_5xx,
    )
}

/// Builds the city's engine, starts the server on it and warms the
/// hot set (the set-up `setup_s` times).
fn set_up(city: &inputs::Instance, seed: u64) -> (Server<CountMeasure>, String) {
    let engine = Arc::new(inputs::build(city.clients.clone(), city.facilities.clone()));
    let areas = hot_areas(engine.tile_scheme(), seed);
    start(engine, &areas)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let city = inputs::city(seed);
    let (mut setups, (server, etag)) = Setups::new(seconds, SETUP_REPS, || set_up(&city, seed));
    let scheme = server.engine().tile_scheme().clone();
    let script = script(&scheme, &hot_areas(&scheme, seed), seed);
    let before = server.stats();
    let served = client(server.addr(), &script, &etag, &mut setups, None);
    let elapsed_s = setups.finish();
    let peak = alloc::peak_mb();
    let (shed, degraded, errors) = counts(&before, &server.stats());

    rep.attempted = served.attempted;
    rep.failed = served.failed;
    rep.check("serve: set-up warmed every hot area to an exact frame", !etag.is_empty());
    check_bodies(server.engine(), &script, &served, &mut rep);
    let completed = served.completed;
    let mut frames = served.big.clone();
    for v in served.small.values() {
        frames.push(*v);
    }
    Server::shutdown(server);

    rep.line(format!(
        "workload serve: {} clients, 1 connection, {WORKERS} workers, {completed} requests \
         in {elapsed_s:.2} s (set-ups excluded), {} bodies checked, shed {shed}, \
         degraded {degraded}, 5xx {errors}",
        inputs::CITY_CLIENTS,
        served.kept.len()
    ));
    rep.percentiles("http_frame_ms (all viewports)", &frames);
    rep.percentiles("http_frame_ms (1024²)", &served.big);
    rep.percentiles("http_frame_ms (512²)", &served.small);
    rep.note("http_tile_ms.p50", served.tile.p50(), "ms", served.tile.len());
    rep.note("http_304_ms.p50", served.cond.p50(), "ms", served.cond.len());
    rep.note("http_rps", completed as f64 / elapsed_s, "1/s", completed as usize);
    rep.metric("setup_s", setups.times().p50(), "s", setups.times().len());
    rep.metric("peak_heap_mb", peak, "MB", 1);
    rep.metric("ops_per_s", completed as f64 / elapsed_s, "1/s", completed as usize);
    let (big, small) = (&served.big, &served.small);
    rep.metric("lead_ms.p50", big.p50(), "ms", big.len());
    rep.metric("lead_ms.tail", big.quantile(LEAD_TAIL), "ms", big.len());
    rep.metric("follow_ms.p50", small.p50(), "ms", small.len());
    rep.metric("follow_ms.tail", small.quantile(FOLLOW_TAIL), "ms", small.len());
    rep
}

/// What the traced `serve` stretch measured besides its spans.
pub struct Layers {
    big_ops: Vec<u64>,
    wire: Series,
    shed: u64,
    degraded: u64,
    overhead_pct: f64,
    samples: usize,
}

/// The traced run's share of `serve`: one stretch of client traffic in
/// which traced and untraced requests alternate. A traced request is a
/// span, and each frame it serves is also rendered in process and
/// serialized.
pub fn traced(seed: u64, seconds: f64, tracer: &Tracer, rep: &mut Report) -> Layers {
    let city = inputs::city(seed);
    let (mut setups, (server, etag)) = Setups::new(seconds, 1, || {
        let engine = {
            let _s = tracer.span("snapshot.build", crate::BUILD_OP_SERVE, None);
            Arc::new(inputs::build(city.clients.clone(), city.facilities.clone()))
        };
        let areas = hot_areas(engine.tile_scheme(), seed);
        start(engine, &areas)
    });
    let scheme = server.engine().tile_scheme().clone();
    let script = script(&scheme, &hot_areas(&scheme, seed), seed);
    let session = server.engine().session();
    let before = server.stats();
    let served = client(
        server.addr(),
        &script,
        &etag,
        &mut setups,
        Some(Traced { tracer, session: &session }),
    );
    let (shed, degraded, _) = counts(&before, &server.stats());
    rep.attempted += served.attempted;
    rep.failed += served.failed;
    Server::shutdown(server);
    Layers {
        overhead_pct: 100.0 * (served.traced_big.p50() / served.big.p50() - 1.0),
        samples: served.big.len() + served.traced_big.len(),
        big_ops: served.big_ops,
        wire: served.wire,
        shed,
        degraded,
    }
}

impl Layers {
    /// Emits the `serve` per-layer metrics from the run's spans.
    pub fn emit(&self, a: &Analysis, rep: &mut Report) {
        let n = self.big_ops.len();
        let inproc = a.per_op("engine.viewport", &self.big_ops);
        rep.metric("engine.viewport_ms", inproc.p50(), "ms", n);
        let mut overhead = Series::default();
        for &op in &self.big_ops {
            let one = [op];
            overhead.push(
                a.per_op("http.request", &one).sum() - a.per_op("engine.viewport", &one).sum(),
            );
        }
        rep.metric("serve.overhead_ms", overhead.p50(), "ms", n);
        let to_bytes = a.per_op("serve.to_bytes", &self.big_ops);
        rep.metric("serve.to_bytes_ms", to_bytes.p50(), "ms", n);
        rep.metric("serve.bytes_per_frame", self.wire.mean(), "B", self.wire.len());
        rep.metric("serve.shed", self.shed as f64, "count", self.wire.len());
        rep.metric("serve.degraded", self.degraded as f64, "count", self.wire.len());
        rep.metric("trace.serve_overhead_pct", self.overhead_pct, "%", self.samples);
    }
}
