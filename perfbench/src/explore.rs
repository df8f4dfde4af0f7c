//! `explore`: the read path and tile pipeline, with a tile cache
//! smaller than the working set.
//!
//! One in-process session over the skewed city replays a seeded camera
//! tour of legs. Each leg jumps to a never-visited cell at a fine zoom
//! (a *cold* 1024² frame: every covering tile misses), then drags 8–12
//! steps of a quarter tile (*warm* frames: cache hits plus a column or
//! row of new tiles every fourth step). The tour touches far more
//! tiles than the 64 MiB cache holds, so eviction runs.

use rnn_heatmap::core::measure::CountMeasure;
use rnn_heatmap::heatmap::tiles::{TileCache, TileScheme};
use rnn_heatmap::Session;

use crate::alloc;
use crate::inputs::{self, px_rect};
use crate::replay;
use crate::report::Report;
use crate::setup::{Setups, SETUP_REPS};
use crate::stats::{hash_f64, ms_since, Rng, Series};
use crate::trace::{Analysis, Tracer};

/// Tour zoom: the city spans 32768 pixels per axis, 16 × 16 cells.
const ZOOM: u8 = 8;
/// Frame edge in pixels.
const FRAME: usize = 1024;
/// Drag step in pixels (a quarter tile).
const DRAG: i64 = 64;
/// Each leg stays inside its own cell of this many pixels.
const CELL: i64 = 2048;
/// Percentile reported as `lead_ms.tail` (cold frames).
const LEAD_TAIL: f64 = 0.90;
/// Percentile reported as `follow_ms.tail` (warm frames).
const FOLLOW_TAIL: f64 = 0.90;
/// One frame in this many is kept for the bit-identity check.
const CHECK_EVERY: usize = 41;
const CHECK_MAX: usize = 10;
/// Default tile-cache budget of the engine (replays use the same).
const CACHE_BYTES: usize = 64 << 20;

/// One leg: start pixel, drag direction, drag steps.
struct Leg {
    x0: i64,
    y0: i64,
    dx: i64,
    dy: i64,
    steps: usize,
}

impl Leg {
    /// South-west pixel of the leg's `step`-th frame (0 = the jump).
    fn at(&self, step: usize) -> (i64, i64) {
        (self.x0 + self.dx * DRAG * step as i64, self.y0 + self.dy * DRAG * step as i64)
    }
}

/// The seeded camera tour: cells in a seeded order, one leg per cell.
struct Tour {
    cells: Vec<(i64, i64)>,
    next: usize,
    rng: Rng,
}

impl Tour {
    fn new(scheme: &TileScheme, seed: u64) -> Tour {
        let mut rng = Rng::new(seed ^ 0x7041);
        let mut cells = inputs::cells(scheme, ZOOM, CELL);
        rng.shuffle(&mut cells);
        Tour { cells, next: 0, rng }
    }

    fn leg(&mut self) -> Leg {
        let (cx, cy) = self.cells[self.next % self.cells.len()];
        self.next += 1;
        let rng = &mut self.rng;
        let steps = 8 + rng.below(5);
        // Offsets of 16..=240 px keep every frame off the tile grid
        // (5 × 5 covering tiles) and the whole drag inside the cell.
        let mut off = || 16 + rng.below(225) as i64;
        let (along, across) = (off(), off());
        let far = CELL - FRAME as i64 - along;
        match self.rng.below(4) {
            0 => Leg { x0: cx + along, y0: cy + across, dx: 1, dy: 0, steps },
            1 => Leg { x0: cx + far, y0: cy + across, dx: -1, dy: 0, steps },
            2 => Leg { x0: cx + across, y0: cy + along, dx: 0, dy: 1, steps },
            _ => Leg { x0: cx + across, y0: cy + far, dx: 0, dy: -1, steps },
        }
    }
}

/// Frame timings of one stretch of the tour.
#[derive(Default)]
struct Frames {
    cold: Series,
    warm: Series,
    n: usize,
    not_cold: usize,
    kept: Vec<(rnn_heatmap::heatmap::raster::GridSpec, u64)>,
}

/// Runs one leg through `Session::viewport`.
fn facade_leg(session: &Session<CountMeasure>, leg: &Leg, out: &mut Frames) {
    let scheme = session.tile_scheme();
    for step in 0..=leg.steps {
        let (x, y) = leg.at(step);
        let rect = px_rect(scheme, ZOOM, x, y, FRAME, FRAME);
        let misses = if step == 0 { session.cache_stats().misses } else { 0 };
        let t = rnn_heatmap::core::clock::now();
        let frame = session.viewport(rect, FRAME, FRAME);
        let dt = ms_since(t);
        if step == 0 {
            let covering = scheme.viewport(rect, FRAME, FRAME).tiles().len() as u64;
            if session.cache_stats().misses - misses != covering {
                out.not_cold += 1;
            }
            out.cold.push(dt);
        } else {
            out.warm.push(dt);
        }
        out.n += 1;
        if out.n % CHECK_EVERY == 1 && out.kept.len() < CHECK_MAX {
            out.kept.push((frame.spec, hash_f64(frame.values())));
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let city = inputs::city(seed);
    let (mut setups, engine) = Setups::new(seconds, SETUP_REPS, || {
        inputs::build(city.clients.clone(), city.facilities.clone())
    });
    let session = engine.session();
    let mut tour = Tour::new(session.tile_scheme(), seed);
    let mut frames = Frames::default();
    setups.start();
    while setups.running() {
        setups.repeat_if_due();
        facade_leg(&session, &tour.leg(), &mut frames);
    }
    let elapsed_s = setups.finish();
    let peak = alloc::peak_mb();
    let cache = session.cache_stats();

    rep.attempted = frames.n as u64;
    rep.check("explore: every leg's first frame missed every covering tile", frames.not_cold == 0);
    for (spec, h) in &frames.kept {
        let one = session.raster(*spec);
        rep.check("explore: frame bit-identical to Session::raster", hash_f64(one.values()) == *h);
    }

    rep.line(format!(
        "workload explore: {} clients, {} facilities, {} legs, {} frames in {elapsed_s:.2} s \
         (set-ups excluded), {} frames checked",
        inputs::CITY_CLIENTS,
        inputs::CITY_CLIENTS / inputs::RATIO,
        frames.cold.len(),
        frames.n,
        frames.kept.len()
    ));
    rep.percentiles("cold_frame_ms", &frames.cold);
    rep.percentiles("warm_frame_ms", &frames.warm);
    rep.note("cache.hit_rate", cache.hit_rate(), "ratio", (cache.hits + cache.misses) as usize);
    rep.note("cache.evictions", cache.evictions as f64, "count", frames.n);
    rep.metric("setup_s", setups.times().p50(), "s", setups.times().len());
    rep.metric("peak_heap_mb", peak, "MB", 1);
    rep.metric("ops_per_s", frames.n as f64 / elapsed_s, "1/s", frames.n);
    rep.metric("lead_ms.p50", frames.cold.p50(), "ms", frames.cold.len());
    rep.metric("lead_ms.tail", frames.cold.quantile(LEAD_TAIL), "ms", frames.cold.len());
    rep.metric("follow_ms.p50", frames.warm.p50(), "ms", frames.warm.len());
    rep.metric("follow_ms.tail", frames.warm.quantile(FOLLOW_TAIL), "ms", frames.warm.len());
    rep
}

/// The traced run's share of `explore`: legs alternate between the
/// facade (untraced) and a layer-by-layer replay (traced) against a
/// cache of the same budget.
pub fn traced(seed: u64, seconds: f64, tracer: &Tracer, rep: &mut Report) -> Layers {
    let city = inputs::city(seed);
    let engine = {
        let _s = tracer.span("snapshot.build", crate::BUILD_OP_CITY, None);
        inputs::build(city.clients, city.facilities)
    };
    let session = engine.session();
    let scheme = session.tile_scheme();
    let mut tour = Tour::new(scheme, seed);

    let mut plain = Frames::default();
    let t0 = rnn_heatmap::core::clock::now();
    let cache = TileCache::new(CACHE_BYTES);
    let mut cold_ops = Vec::new();
    let mut all_ops = Vec::new();
    let mut traced_cold = Series::default();
    let (mut swept, mut cold_px, mut scanned, mut kept) = (0, 0, 0, 0);
    let (mut bytes, mut rendered_px) = (0, 0);
    let mut ok = true;
    let mut op = 1_000_000u64;
    while ms_since(t0) < seconds * 1e3 {
        let leg = tour.leg();
        if tour.next % 2 == 1 {
            facade_leg(&session, &leg, &mut plain);
            continue;
        }
        for step in 0..=leg.steps {
            op += 1;
            let (x, y) = leg.at(step);
            let rect = px_rect(scheme, ZOOM, x, y, FRAME, FRAME);
            let t = rnn_heatmap::core::clock::now();
            let (frame, counts) = replay::viewport(
                tracer,
                op,
                session.snapshot(),
                scheme,
                &cache,
                session.measure(),
                rect,
                FRAME,
                FRAME,
            );
            let dt = ms_since(t);
            all_ops.push(op);
            if step == 0 {
                traced_cold.push(dt);
                cold_ops.push(op);
                swept += counts.swept_px;
                cold_px += counts.frame_px;
                scanned += counts.scanned;
                kept += counts.kept;
            }
            bytes += counts.payload_bytes;
            rendered_px += counts.swept_px;
            if step == 0 && cold_ops.len() % 16 == 1 {
                let same = session.viewport(rect, FRAME, FRAME);
                ok &=
                    same.spec == frame.spec && hash_f64(same.values()) == hash_f64(frame.values());
            }
        }
    }
    rep.attempted += (plain.n + all_ops.len()) as u64;
    rep.check("explore (traced): replayed frames equal Session::viewport", ok);
    let stats = cache.stats();
    Layers {
        cold_ops,
        all_ops,
        overdraw: swept as f64 / cold_px.max(1) as f64,
        kept_ratio: kept as f64 / scanned.max(1) as f64,
        bytes_per_px: bytes as f64 / rendered_px.max(1) as f64,
        hit_rate: stats.hit_rate(),
        evictions: stats.evictions as f64,
        overhead_pct: 100.0 * (traced_cold.p50() / plain.cold.p50() - 1.0),
        plain_cold: plain.cold.len(),
        traced_cold: traced_cold.len(),
    }
}

/// What the traced `explore` stretch measured besides its spans.
pub struct Layers {
    cold_ops: Vec<u64>,
    all_ops: Vec<u64>,
    overdraw: f64,
    kept_ratio: f64,
    bytes_per_px: f64,
    hit_rate: f64,
    evictions: f64,
    overhead_pct: f64,
    plain_cold: usize,
    traced_cold: usize,
}

impl Layers {
    /// Emits the `explore` per-layer metrics from the run's spans.
    pub fn emit(&self, a: &Analysis, rep: &mut Report) {
        let per_cold = |name| a.per_op(name, &self.cold_ops);
        let per_frame = |name| a.per_op(name, &self.all_ops);
        let n_cold = self.cold_ops.len();
        let restrict = per_cold("snapshot.restrict");
        rep.metric("snapshot.restrict_ms", restrict.p50(), "ms", restrict.len());
        rep.metric("snapshot.restrict_kept_ratio", self.kept_ratio, "ratio", n_cold);
        let sweep = per_cold("scanline.sweep");
        rep.metric("scanline.sweep_ms", sweep.p50(), "ms", sweep.len());
        rep.metric("scanline.overdraw", self.overdraw, "ratio", n_cold);
        let encode = per_cold("quant.encode");
        rep.metric("quant.encode_ms", encode.p50(), "ms", encode.len());
        rep.metric("quant.bytes_per_px", self.bytes_per_px, "B/px", n_cold);
        let plan = per_frame("tiles.plan");
        rep.metric("tiles.plan_ms", plan.p50(), "ms", plan.len());
        let stitch = per_frame("tiles.stitch");
        rep.metric("tiles.stitch_ms", stitch.p50(), "ms", stitch.len());
        rep.metric("tiles.hit_rate", self.hit_rate, "ratio", self.all_ops.len());
        rep.metric("tiles.evictions", self.evictions, "count", self.all_ops.len());
        let fetch = per_cold("tiles.fetch");
        rep.note("tiles.fetch_self_ms (cold frames)", fetch.p50(), "ms", fetch.len());
        rep.metric(
            "trace.explore_overhead_pct",
            self.overhead_pct,
            "%",
            self.plain_cold + self.traced_cold,
        );
    }
}
