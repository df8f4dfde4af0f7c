//! Workload inputs, generated from the workload seed, and the shared
//! engine configuration (L∞, count measure, default tile size and
//! cache).

use rnn_heatmap::core::measure::CountMeasure;
use rnn_heatmap::data::{sample_clients_facilities, uniform, zipfian};
use rnn_heatmap::geom::{Metric, Point, Rect};
use rnn_heatmap::heatmap::tiles::TileScheme;
use rnn_heatmap::{ExplorationEngine, HeatMapBuilder};

/// Clients per facility (|O|/|F|) in every workload.
pub const RATIO: usize = 16;

/// The skewed city `explore` and `serve` run on: Zipfian (skew 0.2)
/// over the unit square.
pub const CITY_CLIENTS: usize = 500_000;

/// The district `whatif` runs on: uniform over the unit square.
pub const DISTRICT_CLIENTS: usize = 10_000;

/// A client set and a facility set.
pub struct Instance {
    pub clients: Vec<Point>,
    pub facilities: Vec<Point>,
}

fn unit_square() -> Rect {
    Rect::new(0.0, 1.0, 0.0, 1.0)
}

fn split(points: Vec<Point>, n_clients: usize, seed: u64) -> Instance {
    let (clients, facilities) =
        sample_clients_facilities(&points, n_clients, n_clients / RATIO, seed ^ 0x5eed);
    Instance { clients, facilities }
}

pub fn city(seed: u64) -> Instance {
    let n = CITY_CLIENTS + CITY_CLIENTS / RATIO;
    split(zipfian(n, 0.2, unit_square(), seed), CITY_CLIENTS, seed)
}

pub fn district(seed: u64) -> Instance {
    let n = DISTRICT_CLIENTS + DISTRICT_CLIENTS / RATIO;
    split(uniform(n, unit_square(), seed), DISTRICT_CLIENTS, seed)
}

/// Builds the engine the workloads run against.
pub fn build(clients: Vec<Point>, facilities: Vec<Point>) -> ExplorationEngine<CountMeasure> {
    HeatMapBuilder::bichromatic(clients, facilities)
        .metric(Metric::Linf)
        .build_engine(CountMeasure)
        .expect("non-empty generated instance")
}

/// The input-space rectangle of a `w × h` pixel window whose south-west
/// pixel is `(x0, y0)` on the global grid of `zoom`. Every coordinate
/// is a small multiple of a power of two, so the window resolves to
/// exactly that zoom and exactly that pixel window.
pub fn px_rect(scheme: &TileScheme, zoom: u8, x0: i64, y0: i64, w: usize, h: usize) -> Rect {
    let p = scheme.pixel_size(zoom);
    let o = scheme.world();
    Rect::new(
        o.x_lo + x0 as f64 * p,
        o.x_lo + (x0 + w as i64) as f64 * p,
        o.y_lo + y0 as f64 * p,
        o.y_lo + (y0 + h as i64) as f64 * p,
    )
}

/// The global pixel of `zoom` that contains input point `(x, y)`.
pub fn px_of(scheme: &TileScheme, zoom: u8, x: f64, y: f64) -> (i64, i64) {
    let p = scheme.pixel_size(zoom);
    let o = scheme.world();
    (((x - o.x_lo) / p).floor() as i64, ((y - o.y_lo) / p).floor() as i64)
}

/// Tile-aligned cells of `cell` pixels covering the unit square at
/// `zoom`: `(origin x, origin y)` of each, row-major.
pub fn cells(scheme: &TileScheme, zoom: u8, cell: i64) -> Vec<(i64, i64)> {
    let t = scheme.tile_px() as i64;
    let (lo_x, lo_y) = px_of(scheme, zoom, 0.0, 0.0);
    let (hi_x, hi_y) = px_of(scheme, zoom, 1.0, 1.0);
    let align = |v: i64| (v + t - 1).div_euclid(t) * t;
    let (bx, by) = (align(lo_x), align(lo_y));
    let (nx, ny) = ((hi_x - bx) / cell, (hi_y - by) / cell);
    let mut out = Vec::new();
    for j in 0..ny {
        for i in 0..nx {
            out.push((bx + i * cell, by + j * cell));
        }
    }
    out
}
