//! `whatif`: writes beside reads, plus the paper's region coloring.
//!
//! One in-process session on a district-sized uniform instance. Set-up
//! builds the engine and runs the first full CREST region coloring.
//! Each step makes one seeded facility edit (mostly short moves, some
//! cross-map moves, and add/remove pairs so |F| stays steady), then
//! refreshes the 512² viewport around the edit. Every 8th step asks
//! `top_k(10)`, every 16th `top_placements(1)`.

use rnn_heatmap::core::edit::{DirtyRegion, EditError};
use rnn_heatmap::core::measure::CountMeasure;
use rnn_heatmap::core::placement::{PlacementQuery, PlacementRegion};
use rnn_heatmap::core::postprocess::top_k;
use rnn_heatmap::core::sink::LabeledRegion;
use rnn_heatmap::core::snapshot::ArrangementSnapshot;
use rnn_heatmap::geom::{Point, Rect};
use rnn_heatmap::heatmap::raster::HeatRaster;
use rnn_heatmap::heatmap::tiles::TileCache;
use rnn_heatmap::Session;

use crate::alloc;
use crate::inputs::{self, px_of, px_rect};
use crate::replay;
use crate::report::Report;
use crate::setup::{Setups, SETUP_REPS};
use crate::stats::{ms_since, Rng, Series};
use crate::trace::{Analysis, Tracer};

/// Viewport zoom: the district spans 2048 pixels per axis (8 × 8
/// tiles), so the warmed pyramid level fits the cache.
const ZOOM: u8 = 4;
/// Refresh frame edge in pixels.
const FRAME: usize = 512;
const TOPK_EVERY: usize = 8;
const PLACE_EVERY: usize = 16;
/// One refreshed frame in this many is checked against a one-shot
/// render.
const CHECK_EVERY: usize = 4;
/// Percentile reported as `lead_ms.tail` (edits).
const LEAD_TAIL: f64 = 0.90;
/// Percentile reported as `follow_ms.tail` (refresh frames).
const FOLLOW_TAIL: f64 = 0.90;
/// Largest per-axis offset of a short move.
const SHORT_MOVE: f64 = 0.02;
const CACHE_BYTES: usize = 64 << 20;

/// One seeded facility edit.
#[derive(Clone, Copy)]
enum Edit {
    Move(u32, Point),
    Add(Point),
    Remove(u32),
}

/// Edit kinds in every run of 20 steps: 14 short moves, 3 cross-map
/// moves and 3 adds or removes (alternating), in a fixed order so every
/// run makes the same mix; targets and offsets are seeded.
const PATTERN: &[u8; 20] = b"ssxsssasssxsasssxsas";

/// The seeded edit stream.
struct Editor {
    rng: Rng,
    step: usize,
    add_next: bool,
}

impl Editor {
    fn new(seed: u64) -> Editor {
        Editor { rng: Rng::new(seed ^ 0xed17), step: 0, add_next: true }
    }

    /// The next edit and the point its viewport centres on.
    fn next(&mut self, session: &Session<CountMeasure>) -> (Edit, Point) {
        let facilities = session.facilities();
        let r = &mut self.rng;
        let (id, at) = facilities[r.below(facilities.len())];
        let anywhere = |r: &mut Rng| Point::new(r.unit(), r.unit());
        let kind = PATTERN[self.step % PATTERN.len()];
        self.step += 1;
        match kind {
            b's' => {
                let mut d = || (r.unit() * 2.0 - 1.0) * SHORT_MOVE;
                let to = Point::new((at.x + d()).clamp(0.0, 1.0), (at.y + d()).clamp(0.0, 1.0));
                (Edit::Move(id, to), to)
            }
            b'x' => {
                let to = anywhere(r);
                (Edit::Move(id, to), to)
            }
            _ => {
                self.add_next = !self.add_next;
                if !self.add_next {
                    let p = anywhere(r);
                    (Edit::Add(p), p)
                } else {
                    (Edit::Remove(id), at)
                }
            }
        }
    }
}

fn apply(session: &mut Session<CountMeasure>, edit: Edit) -> Result<DirtyRegion, EditError> {
    match edit {
        Edit::Move(id, to) => session.move_facility(id, to),
        Edit::Add(p) => session.add_facility(p).map(|(_, dirty)| dirty),
        Edit::Remove(id) => session.remove_facility(id),
    }
}

/// The same edit on a bare snapshot (the snapshot layer alone).
fn apply_snapshot(snap: &ArrangementSnapshot, edit: Edit) -> Result<(), EditError> {
    match edit {
        Edit::Move(id, to) => snap.move_facility(id, to).map(drop),
        Edit::Add(p) => snap.insert_facility(p).map(drop),
        Edit::Remove(id) => snap.remove_facility(id).map(drop),
    }
}

/// The 512² window around `at` on the zoom-4 grid.
fn window(session: &Session<CountMeasure>, at: Point) -> Rect {
    let scheme = session.tile_scheme();
    let (x, y) = px_of(scheme, ZOOM, at.x, at.y);
    let half = FRAME as i64 / 2;
    px_rect(scheme, ZOOM, x - half, y - half, FRAME, FRAME)
}

/// Builds the district's engine, opens the analyst's session and runs
/// the first full region coloring (the set-up the metric times).
fn set_up(inst: &inputs::Instance) -> Session<CountMeasure> {
    let session = inputs::build(inst.clients.clone(), inst.facilities.clone()).into_session();
    session.stats();
    session
}

/// Renders the whole district once at the refresh zoom, so refreshes
/// find the pyramid level warm outside the edits' dirty regions.
fn warm(session: &Session<CountMeasure>) {
    let scheme = session.tile_scheme();
    let (x0, y0) = px_of(scheme, ZOOM, 0.0, 0.0);
    let (x1, y1) = px_of(scheme, ZOOM, 1.0, 1.0);
    let (w, h) = ((x1 - x0 + 1) as usize, (y1 - y0 + 1) as usize);
    session.viewport(px_rect(scheme, ZOOM, x0, y0, w, h), w, h);
}

/// Timings of one stretch of steps.
#[derive(Default)]
struct Steps {
    edit: Series,
    refresh: Series,
    topk: Series,
    place: Series,
    n: usize,
    attempted: u64,
    failed: u64,
    checked: usize,
    mismatched: usize,
}

/// One step through the facade: an edit, the refresh around it, and
/// the periodic region queries. Returns the edit's dirty region, the
/// pre-edit fingerprint and the refreshed window, or `None` if the
/// edit failed.
fn facade_step(
    session: &mut Session<CountMeasure>,
    editor: &mut Editor,
    out: &mut Steps,
) -> Option<(DirtyRegion, u64, Rect)> {
    let now = rnn_heatmap::core::clock::now;
    let step = out.n;
    out.n += 1;
    let (edit, at) = editor.next(session);
    let old_fp = session.fingerprint();
    out.attempted += 2;
    let t = now();
    let res = apply(session, edit);
    out.edit.push(ms_since(t));
    let Ok(dirty) = res else {
        out.failed += 1;
        return None;
    };
    let rect = window(session, at);
    let t = now();
    let frame = session.viewport(rect, FRAME, FRAME);
    out.refresh.push(ms_since(t));
    if step.is_multiple_of(CHECK_EVERY) {
        out.checked += 1;
        if !same_bits(&session.raster(frame.spec), &frame) {
            out.mismatched += 1;
        }
    }
    if step % TOPK_EVERY == 3 {
        out.attempted += 1;
        let t = now();
        std::hint::black_box(session.top_k(10));
        out.topk.push(ms_since(t));
    }
    if step % PLACE_EVERY == 11 {
        out.attempted += 1;
        let t = now();
        std::hint::black_box(session.top_placements(1));
        out.place.push(ms_since(t));
    }
    Some((dirty, old_fp, rect))
}

fn same_bits(a: &HeatRaster, b: &HeatRaster) -> bool {
    a.spec == b.spec && a.values().iter().zip(b.values()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `top_k` lists agree up to the order of tied regions: the same
/// influences in order, and the same RNN sets above the cut-off
/// influence (ties at the cut-off may pick different regions).
fn same_top(a: &[LabeledRegion], b: &[LabeledRegion]) -> bool {
    let key = |r: &LabeledRegion| (r.influence.to_bits(), sorted(&r.rnn));
    let cut = a.last().map(|r| r.influence);
    let above = |l: &[LabeledRegion]| {
        let mut v: Vec<_> = l.iter().filter(|r| Some(r.influence) != cut).map(key).collect();
        v.sort();
        v
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.influence == y.influence)
        && above(a) == above(b)
}

fn sorted(v: &[u32]) -> Vec<u32> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// The best placement agrees with a fresh build's: same influence, and
/// the fresh snapshot gives the session's chosen point that influence.
fn same_placement(
    a: &[PlacementRegion],
    b: &[PlacementRegion],
    fresh: &Session<CountMeasure>,
) -> bool {
    match (a.first(), b.first()) {
        (Some(x), Some(y)) => {
            let q = PlacementQuery::new(fresh.snapshot(), fresh.measure());
            x.influence == y.influence && q.influence_of(x.point).1 == x.influence
        }
        _ => false,
    }
}

/// Checks the session's final region answers against a fresh build of
/// its final facility set.
fn check_final(session: &Session<CountMeasure>, inst: &inputs::Instance, rep: &mut Report) {
    let facilities: Vec<Point> = session.facilities().into_iter().map(|(_, p)| p).collect();
    let fresh = inputs::build(inst.clients.clone(), facilities).into_session();
    rep.check("whatif: final top_k(10) equals a fresh build's", {
        same_top(&session.top_k(10), &fresh.top_k(10))
    });
    rep.check("whatif: final top_placements(1) equals a fresh build's", {
        same_placement(&session.top_placements(1), &fresh.top_placements(1), &fresh)
    });
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Report {
    let mut rep = Report::default();
    let inst = inputs::district(seed);
    let (mut setups, mut session) = Setups::new(seconds, SETUP_REPS, || set_up(&inst));
    warm(&session);
    let mut editor = Editor::new(seed);
    let mut steps = Steps::default();
    setups.start();
    while setups.running() {
        setups.repeat_if_due();
        facade_step(&mut session, &mut editor, &mut steps);
    }
    let elapsed_s = setups.finish();
    let peak = alloc::peak_mb();

    rep.attempted = steps.attempted;
    rep.failed = steps.failed;
    for _ in 0..steps.mismatched {
        rep.check("whatif: refreshed frame bit-identical to Session::raster", false);
    }
    check_final(&session, &inst, &mut rep);

    rep.line(format!(
        "workload whatif: {} clients, {} facilities at the end, {} steps in {elapsed_s:.2} s \
         (set-ups excluded), {} refreshed frames checked",
        inputs::DISTRICT_CLIENTS,
        session.n_facilities(),
        steps.n,
        steps.checked
    ));
    rep.percentiles("edit_ms", &steps.edit);
    rep.percentiles("refresh_frame_ms", &steps.refresh);
    rep.note("topk_ms.p50", steps.topk.p50(), "ms", steps.topk.len());
    rep.note("placement_ms.p50", steps.place.p50(), "ms", steps.place.len());
    rep.note("regions.len (final)", session.with_regions(|l| l.len()) as f64, "count", 1);
    rep.metric("setup_s", setups.times().p50(), "s", setups.times().len());
    rep.metric("peak_heap_mb", peak, "MB", 1);
    rep.metric("ops_per_s", steps.n as f64 / elapsed_s, "1/s", steps.n);
    rep.metric("lead_ms.p50", steps.edit.p50(), "ms", steps.edit.len());
    rep.metric("lead_ms.tail", steps.edit.quantile(LEAD_TAIL), "ms", steps.edit.len());
    rep.metric("follow_ms.p50", steps.refresh.p50(), "ms", steps.refresh.len());
    rep.metric("follow_ms.tail", steps.refresh.quantile(FOLLOW_TAIL), "ms", steps.refresh.len());
    rep
}

/// What the traced `whatif` stretch measured besides its spans.
pub struct Layers {
    edit_ops: Vec<u64>,
    refresh_ops: Vec<u64>,
    invalidated: Series,
    rendered: Series,
    regions_len: Series,
    crest_regions: f64,
    evaluated: Series,
    pruned: Series,
    overhead_pct: f64,
    samples: usize,
}

/// The traced run's share of `whatif`: steps alternate between the
/// facade (untraced) and a traced step in which each layer is called on
/// its own: the snapshot edit is replayed on the pre-edit snapshot, the
/// session commits the same edit, a replay cache is invalidated over
/// its dirty region and the refresh frame is replayed layer by layer.
/// Region maintenance cannot be called alone; its share is the
/// session's edit minus the replayed snapshot edit. Both caches see
/// every edit and every refresh, so they stay alike.
pub fn traced(seed: u64, seconds: f64, tracer: &Tracer, rep: &mut Report) -> Layers {
    let now = rnn_heatmap::core::clock::now;
    let inst = inputs::district(seed);
    let mut session = {
        let _s = tracer.span("snapshot.build", crate::BUILD_OP_DISTRICT, None);
        inputs::build(inst.clients.clone(), inst.facilities.clone()).into_session()
    };
    let crest_regions = {
        let _s = tracer.span("crest.sweep", crate::BUILD_OP_DISTRICT, None);
        let arr = session.snapshot().square().expect("L-infinity arrangement");
        let mut sink = rnn_heatmap::core::sink::CollectSink::default();
        rnn_heatmap::core::crest::crest_sweep(arr, session.measure(), &mut sink);
        sink.regions.len() as f64
    };
    session.stats();
    warm(&session);
    let cache = TileCache::new(CACHE_BYTES);
    let scheme = session.tile_scheme().clone();
    // Untraced work (warm-up, keeping the replay cache in step with the
    // facade steps) is recorded under operation 0, which no metric reads.
    let replay_quiet = |session: &Session<CountMeasure>, rect: Rect, w, h| {
        replay::viewport(
            tracer,
            0,
            session.snapshot(),
            &scheme,
            &cache,
            session.measure(),
            rect,
            w,
            h,
        )
    };
    {
        let (x0, y0) = px_of(&scheme, ZOOM, 0.0, 0.0);
        let (x1, y1) = px_of(&scheme, ZOOM, 1.0, 1.0);
        let (w, h) = ((x1 - x0 + 1) as usize, (y1 - y0 + 1) as usize);
        replay_quiet(&session, px_rect(&scheme, ZOOM, x0, y0, w, h), w, h);
    }
    let mut layers = Layers {
        edit_ops: Vec::new(),
        refresh_ops: Vec::new(),
        invalidated: Series::default(),
        rendered: Series::default(),
        regions_len: Series::default(),
        crest_regions,
        evaluated: Series::default(),
        pruned: Series::default(),
        overhead_pct: 0.0,
        samples: 0,
    };
    let mut editor = Editor::new(seed);
    let mut plain = Steps::default();
    let mut traced_edit = Series::default();
    let mut op = 2_000_000u64;
    let mut step = 0usize;
    let mut ok = true;
    let t0 = now();
    while ms_since(t0) < seconds * 1e3 {
        if plain.n <= step {
            if let Some((dirty, old_fp, rect)) = facade_step(&mut session, &mut editor, &mut plain)
            {
                cache.invalidate_region(old_fp, session.fingerprint(), &scheme, &dirty);
                replay_quiet(&session, rect, FRAME, FRAME);
            }
            continue;
        }
        op += 1;
        step += 1;
        rep.attempted += 2;
        let (edit, at) = editor.next(&session);
        let old_fp = session.fingerprint();
        {
            let prev = session.snapshot().clone();
            let _s = tracer.span("snapshot.edit", op, None);
            std::hint::black_box(apply_snapshot(&prev, edit)).ok();
        }
        let t = now();
        let res = {
            let _s = tracer.span("edit", op, None);
            apply(&mut session, edit)
        };
        traced_edit.push(ms_since(t));
        let Ok(dirty) = res else {
            rep.failed += 1;
            continue;
        };
        layers.edit_ops.push(op);
        {
            let _s = tracer.span("tiles.invalidate", op, None);
            let (n, _) = cache.invalidate_region(old_fp, session.fingerprint(), &scheme, &dirty);
            layers.invalidated.push(n as f64);
        }
        let rect = window(&session, at);
        let refresh_op = op + 500_000;
        let (frame, counts) = replay::viewport(
            tracer,
            refresh_op,
            session.snapshot(),
            &scheme,
            &cache,
            session.measure(),
            rect,
            FRAME,
            FRAME,
        );
        layers.refresh_ops.push(refresh_op);
        layers.rendered.push(counts.rendered as f64);
        ok &= same_bits(&session.viewport(rect, FRAME, FRAME), &frame);
        if step % TOPK_EVERY == 3 {
            // Regions are read only where the facade reads them too, so
            // a list left stale by the edits is resolved (re-swept) at
            // the same steps as in the untraced run.
            rep.attempted += 1;
            let resolve = tracer.span("regions.resolve", op, None);
            let parent = Some(resolve.id());
            let (top, len) = session.with_regions(|list| {
                let _s = tracer.span("postprocess.topk", op, parent);
                (top_k(list, 10), list.len())
            });
            drop(resolve);
            std::hint::black_box(top);
            layers.regions_len.push(len as f64);
        }
        if step % PLACE_EVERY == 11 {
            rep.attempted += 1;
            let _s = tracer.span("placement.query", op, None);
            let (best, stats) =
                PlacementQuery::new(session.snapshot(), session.measure()).top_placements_stats(1);
            std::hint::black_box(best);
            layers.evaluated.push(stats.evaluated as f64);
            layers.pruned.push(stats.pruned as f64);
        }
    }
    rep.attempted += plain.attempted;
    rep.failed += plain.failed;
    rep.check("whatif (traced): replayed refresh equals Session::viewport", ok);
    for _ in 0..plain.mismatched {
        rep.check("whatif: refreshed frame bit-identical to Session::raster", false);
    }
    layers.overhead_pct = 100.0 * (traced_edit.p50() / plain.edit.p50() - 1.0);
    layers.samples = plain.edit.len() + traced_edit.len();
    layers
}

impl Layers {
    /// Emits the `whatif` per-layer metrics from the run's spans.
    pub fn emit(&self, a: &Analysis, rep: &mut Report) {
        let n = self.edit_ops.len();
        let snap_edit = a.per_op("snapshot.edit", &self.edit_ops);
        let edit = a.per_op("edit", &self.edit_ops);
        rep.metric("snapshot.edit_ms", snap_edit.p50(), "ms", n);
        let mut maintain = Series::default();
        for &op in &self.edit_ops {
            let one = [op];
            maintain.push(a.per_op("edit", &one).sum() - a.per_op("snapshot.edit", &one).sum());
        }
        rep.note("session edit (traced) ms.p50", edit.p50(), "ms", n);
        rep.metric("window.maintain_ms", maintain.p50(), "ms", n);
        let inv = a.per_op("tiles.invalidate", &self.edit_ops);
        rep.metric("tiles.invalidate_ms", inv.p50(), "ms", n);
        rep.metric("tiles.invalidated", self.invalidated.mean(), "count", n);
        rep.metric("tiles.rendered_per_frame", self.rendered.mean(), "count", self.rendered.len());
        let sweep = a.per_op("scanline.sweep", &self.refresh_ops);
        rep.note("scanline.sweep_ms per refresh frame (whatif)", sweep.p50(), "ms", sweep.len());
        let crest = a.per_op("crest.sweep", &[crate::BUILD_OP_DISTRICT]);
        rep.metric("crest.sweep_ms", crest.sum(), "ms", 1);
        rep.metric("crest.regions", self.crest_regions, "count", 1);
        rep.metric("regions.len", self.regions_len.p50(), "count", self.regions_len.len());
        let resolve = a.calls("regions.resolve");
        rep.note(
            "regions.resolve_ms (self: lazy re-sweep of a stale list)",
            resolve.p50(),
            "ms",
            resolve.len(),
        );
        let topk = a.calls("postprocess.topk");
        rep.metric("postprocess.topk_ms", topk.p50(), "ms", topk.len());
        let place = a.calls("placement.query");
        rep.metric("placement.query_ms", place.p50(), "ms", place.len());
        rep.metric("placement.evaluated", self.evaluated.mean(), "count", self.evaluated.len());
        rep.metric("placement.pruned", self.pruned.mean(), "count", self.pruned.len());
        rep.metric("trace.whatif_overhead_pct", self.overhead_pct, "%", self.samples);
    }
}
