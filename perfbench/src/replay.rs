//! The traced viewport: `Session::viewport` replayed step by step
//! through the layers' public functions, in the order the engine calls
//! them, with a span around each call.
//!
//! plan (`TileScheme::viewport`) → fetch through a tile cache
//! (`TileCache::fetch_restricted`): restrict the snapshot to the union
//! of the missing tiles (`ArrangementSnapshot::restrict_to`), then per
//! missing tile restrict again, sweep
//! (`rasterize_squares_scanline_bands`, one band) and encode
//! (`TilePayload::encode`) → stitch (`Viewport::stitch`).

use std::sync::atomic::{AtomicUsize, Ordering};

use rnn_heatmap::core::arrangement::SquareArrangement;
use rnn_heatmap::core::measure::IncrementalMeasure;
use rnn_heatmap::core::snapshot::{ArrangementSnapshot, RestrictedArrangement};
use rnn_heatmap::geom::Rect;
use rnn_heatmap::heatmap::quant::TilePayload;
use rnn_heatmap::heatmap::raster::HeatRaster;
use rnn_heatmap::heatmap::scanline::rasterize_squares_scanline_bands;
use rnn_heatmap::heatmap::tiles::{TileCache, TileScheme};

use crate::trace::Tracer;

/// Work counts of one replayed frame.
#[derive(Default, Clone, Copy)]
pub struct FrameCounts {
    /// Tiles rendered (cache misses).
    pub rendered: usize,
    /// Pixels swept by those renders.
    pub swept_px: usize,
    /// Pixels of the stitched frame.
    pub frame_px: usize,
    /// Circles scanned / kept by the restrictions.
    pub scanned: usize,
    pub kept: usize,
    /// Encoded payload bytes of the rendered tiles.
    pub payload_bytes: usize,
}

/// The workloads are L∞ maps, whose arrangements are squares.
fn squares(arr: &RestrictedArrangement) -> &SquareArrangement {
    match arr {
        RestrictedArrangement::Square(a) => a,
        RestrictedArrangement::Disk(_) => panic!("the benchmark builds L-infinity maps only"),
    }
}

/// Replays one viewport against `cache`, tracing it as operation `op`.
#[allow(clippy::too_many_arguments)]
pub fn viewport<M: IncrementalMeasure + Sync>(
    tracer: &Tracer,
    op: u64,
    snap: &ArrangementSnapshot,
    scheme: &TileScheme,
    cache: &TileCache,
    measure: &M,
    rect: Rect,
    w: usize,
    h: usize,
) -> (HeatRaster, FrameCounts) {
    let frame = tracer.span("frame", op, None);
    let view = {
        let _s = tracer.span("tiles.plan", op, Some(frame.id()));
        scheme.viewport(rect, w, h)
    };
    let [rendered, swept, scanned, kept, bytes]: [AtomicUsize; 5] = Default::default();
    let fetch = tracer.span("tiles.fetch", op, Some(frame.id()));
    let fetch_id = fetch.id();
    let tiles = cache.fetch_restricted(
        snap.fingerprint(),
        measure.cache_key(),
        scheme,
        view.tiles(),
        |extent| {
            let _s = tracer.span("snapshot.restrict", op, Some(fetch_id));
            let base = snap.restrict_to(extent);
            scanned.fetch_add(snap.n_circles(), Ordering::Relaxed);
            kept.fetch_add(squares(&base).len(), Ordering::Relaxed);
            base
        },
        |base, _id, spec| {
            let tile = tracer.span("tiles.render", op, Some(fetch_id));
            let arr = squares(base);
            let sub = {
                let _s = tracer.span("snapshot.restrict", op, Some(tile.id()));
                arr.restrict_to(spec.extent)
            };
            scanned.fetch_add(arr.len(), Ordering::Relaxed);
            kept.fetch_add(sub.len(), Ordering::Relaxed);
            let raster = {
                let _s = tracer.span("scanline.sweep", op, Some(tile.id()));
                rasterize_squares_scanline_bands(&sub, measure, spec, 1)
            };
            rendered.fetch_add(1, Ordering::Relaxed);
            swept.fetch_add(spec.width * spec.height, Ordering::Relaxed);
            let _s = tracer.span("quant.encode", op, Some(tile.id()));
            let payload = TilePayload::encode(raster, measure.integral_influence());
            bytes.fetch_add(payload.bytes(), Ordering::Relaxed);
            payload
        },
    );
    drop(fetch);
    let out = {
        let _s = tracer.span("tiles.stitch", op, Some(frame.id()));
        view.stitch(scheme, &tiles)
    };
    let counts = FrameCounts {
        rendered: rendered.into_inner(),
        swept_px: swept.into_inner(),
        frame_px: out.spec.width * out.spec.height,
        scanned: scanned.into_inner(),
        kept: kept.into_inner(),
        payload_bytes: bytes.into_inner(),
    };
    (out, counts)
}
