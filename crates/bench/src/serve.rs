//! Concurrent-serving benchmark: M snapshot-isolated sessions replay
//! mixed pan/zoom/edit/fork traffic against one [`ExplorationEngine`],
//! with a JSON emitter for `BENCH_serve.json`.
//!
//! The serving scenario (ISSUE 5): several analysts explore one city
//! dataset at once. Each session pans a viewport east, applies a
//! divergent what-if edit mid-script (after which its frames render
//! against its own snapshot fingerprint), zooms in, pans, and zooms
//! back out. Two measurements:
//!
//! * **throughput** — total frames per second with `sessions`
//!   interleaved sessions versus a sequential single-session baseline
//!   replaying the same script once. The acceptance bar is
//!   `engine_fps ≥ 0.9 × baseline_fps`: sharding + single-flight +
//!   snapshot bookkeeping must be near-free on one core (shared warm
//!   tiles usually push the ratio *above* 1).
//! * **cold-herd dedup** — `sessions` threads fork one session and
//!   simultaneously request the same cold viewport; single-flight must
//!   collapse the duplicate renders (`single_flight_dedups > 0`) and
//!   every thread's frame must be bit-identical.
//!
//! Every measured frame is checked bit-identical against a one-shot
//! render of its session's own snapshot at the end of the script —
//! session isolation never changes pixels.

use std::io::Write as _;
use std::sync::Barrier;

use rnn_heatmap::prelude::*;
use rnn_heatmap::{HeatMapBuilder, Session};
use rnnhm_core::measure::CountMeasure;
use rnnhm_core::parallel::effective_parallelism;

use crate::runner::{bit_identical, percentile, write_bench_json};
use crate::workload::{build_workload, DatasetKind};

/// One camera/edit step of the per-session traffic script.
enum Step {
    /// Render the current viewport.
    Frame,
    /// Shift the viewport by `(dx, dy)` world units, then render.
    Pan(f64, f64),
    /// Scale the viewport side by the factor about its center, then
    /// render.
    Zoom(f64),
    /// Apply this session's divergent what-if edit (add a facility at
    /// a session-specific site), then render.
    Edit,
}

/// The shared script: every session replays the same camera path, with
/// [`Step::Edit`] resolving to a *different* facility site per session
/// (divergent branches of the same dataset).
fn script(frames: usize) -> Vec<Step> {
    let mut steps = vec![Step::Frame];
    let pan = 0.4 / 16.0;
    for i in 1..frames {
        steps.push(match i {
            8 => Step::Edit,
            16 => Step::Zoom(0.5),
            20 => Step::Zoom(2.0),
            _ if i % 5 == 4 => Step::Pan(0.0, pan * 0.5),
            _ => Step::Pan(pan, 0.0),
        });
    }
    steps.truncate(frames);
    steps
}

/// Replays the script on one session, recording per-frame wall-clock
/// latencies. Returns the final viewport rect (for the bit-identity
/// checkpoint).
fn replay(
    session: &mut Session<CountMeasure>,
    steps: &[Step],
    edit_site: Point,
    view_px: usize,
    latencies: &mut Vec<f64>,
) -> Rect {
    let side = 0.4;
    let mut rect = Rect::new(0.05, 0.05 + side, 0.1, 0.1 + side);
    for step in steps {
        let start = rnnhm_core::clock::now();
        match step {
            Step::Frame => {}
            Step::Pan(dx, dy) => {
                rect = Rect::new(rect.x_lo + dx, rect.x_hi + dx, rect.y_lo + dy, rect.y_hi + dy);
            }
            Step::Zoom(f) => {
                let c = rect.center();
                let half = rect.width() * 0.5 * f;
                rect = Rect::new(c.x - half, c.x + half, c.y - half, c.y + half);
            }
            Step::Edit => {
                session.add_facility(edit_site).expect("bichromatic dataset accepts edits");
            }
        }
        let frame = session.viewport(rect, view_px, view_px);
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        drop(frame);
    }
    rect
}

/// Wall-clock results of one serve run.
#[derive(Debug, Clone)]
pub struct ServeComparison {
    /// Number of clients.
    pub n_clients: usize,
    /// Simulated sessions in the engine run.
    pub sessions: usize,
    /// Frames per session (script length).
    pub frames_per_session: usize,
    /// Requested viewport pixel budget per axis.
    pub view_px: usize,
    /// Tile edge in pixels.
    pub tile_px: usize,
    /// Worker threads available.
    pub threads: usize,
    /// Sequential single-session baseline throughput, frames/second.
    pub baseline_fps: f64,
    /// Engine throughput with all sessions interleaved, frames/second
    /// (total frames across sessions / wall-clock).
    pub engine_fps: f64,
    /// `engine_fps / baseline_fps` — the acceptance metric (≥ 0.9).
    pub throughput_ratio: f64,
    /// Median per-frame latency over the engine run, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-frame latency over the engine run.
    pub p99_ms: f64,
    /// Shared-cache hit rate over the engine run.
    pub hit_rate: f64,
    /// Single-flight waits observed during the engine run.
    pub single_flight_waits: u64,
    /// Cold-herd scenario: renders avoided by single-flight (> 0
    /// required).
    pub herd_dedups: u64,
    /// Cold-herd scenario: waits on other threads' renders.
    pub herd_waits: u64,
    /// Whether every checkpoint frame was bit-identical to a one-shot
    /// render of its session's snapshot (and all herd frames agreed).
    pub identical: bool,
}

/// Runs the serve scenario on a Uniform workload under the count
/// measure and the L∞ metric. `ratio` is `|O|/|F|`.
pub fn compare_serve_paths(
    n_clients: usize,
    ratio: usize,
    view_px: usize,
    tile_px: usize,
    sessions: usize,
    frames: usize,
    seed: u64,
) -> ServeComparison {
    assert!(sessions >= 2, "the scenario needs at least two sessions");
    let w = build_workload(DatasetKind::Uniform, n_clients, ratio, seed);
    let steps = script(frames);
    let edit_site =
        |s: usize| Point::new(0.30 + 0.12 * (s % 4) as f64, 0.42 + 0.05 * (s / 4) as f64);
    let build = || {
        HeatMapBuilder::bichromatic(w.clients.clone(), w.facilities.clone())
            .metric(Metric::Linf)
            .tile_px(tile_px)
            .tile_cache_bytes(512 << 20)
            .build_engine(CountMeasure)
            .expect("non-empty workload")
    };

    // Baseline: one session, the whole script, sequentially, on a
    // fresh engine (cold cache).
    let engine = build();
    let mut single = engine.session();
    let mut base_lat = Vec::with_capacity(frames);
    let base_start = rnnhm_core::clock::now();
    let final_rect = replay(&mut single, &steps, edit_site(0), view_px, &mut base_lat);
    let base_secs = base_start.elapsed().as_secs_f64();
    let baseline_fps = frames as f64 / base_secs;
    // Checkpoint: the baseline's last frame is exact.
    let frame = single.viewport(final_rect, view_px, view_px);
    let mut identical = bit_identical(&frame, &single.raster(frame.spec));
    drop((frame, single, engine));

    // Engine run: `sessions` sessions forked from the root, replayed
    // round-robin (frame f of session 0, 1, …, then frame f + 1).
    let engine = build();
    let mut crew: Vec<Session<CountMeasure>> = Vec::with_capacity(sessions);
    crew.push(engine.session());
    for _ in 1..sessions {
        let fork = crew[0].fork();
        crew.push(fork);
    }
    let mut rects: Vec<Rect> = Vec::with_capacity(sessions);
    let mut latencies: Vec<f64> = Vec::with_capacity(sessions * frames);
    let engine_start = rnnhm_core::clock::now();
    // Round-robin interleave, step by step, every session one frame.
    let side = 0.4;
    let mut session_rects = vec![Rect::new(0.05, 0.05 + side, 0.1, 0.1 + side); sessions];
    for step in &steps {
        for (s, session) in crew.iter_mut().enumerate() {
            let rect = &mut session_rects[s];
            let start = rnnhm_core::clock::now();
            match step {
                Step::Frame => {}
                Step::Pan(dx, dy) => {
                    *rect =
                        Rect::new(rect.x_lo + dx, rect.x_hi + dx, rect.y_lo + dy, rect.y_hi + dy);
                }
                Step::Zoom(f) => {
                    let c = rect.center();
                    let half = rect.width() * 0.5 * f;
                    *rect = Rect::new(c.x - half, c.x + half, c.y - half, c.y + half);
                }
                Step::Edit => {
                    session.add_facility(edit_site(s)).expect("bichromatic dataset");
                }
            }
            let frame = session.viewport(*rect, view_px, view_px);
            latencies.push(start.elapsed().as_secs_f64() * 1e3);
            drop(frame);
        }
    }
    let engine_secs = engine_start.elapsed().as_secs_f64();
    let engine_fps = (sessions * frames) as f64 / engine_secs;
    rects.extend(session_rects.iter().copied());

    // Checkpoint: every session's final frame is bit-identical to a
    // one-shot render of its own snapshot — divergent branches never
    // contaminate each other through the shared cache.
    for (s, session) in crew.iter().enumerate() {
        let frame = session.viewport(rects[s], view_px, view_px);
        identical &= bit_identical(&frame, &session.raster(frame.spec));
    }
    let stats = engine.cache_stats();

    // Cold-herd scenario: all sessions request the same cold viewport
    // simultaneously; single-flight must collapse the renders. The
    // herd's viewport is deliberately deep (many cold tiles) so the
    // leader's render outlives a scheduler timeslice and the other
    // threads provably overlap it; whether a given attempt overlaps
    // is still up to the scheduler, so the scenario retries on a
    // fresh engine until a dedup is observed (bounded).
    let herd_rect = Rect::new(0.2, 0.7, 0.2, 0.7);
    let herd_px = view_px.max(384);
    let mut herd_stats = rnnhm_heatmap::CacheStats::default();
    for _attempt in 0..6 {
        let herd_engine = build();
        let barrier = Barrier::new(sessions);
        let root = herd_engine.session();
        let frames_out: Vec<HeatRaster> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|_| {
                    let fork = root.fork();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        fork.viewport(herd_rect, herd_px, herd_px)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("herd thread")).collect()
        });
        for f in &frames_out {
            identical &= bit_identical(f, &frames_out[0]);
        }
        herd_stats = herd_engine.cache_stats();
        if herd_stats.single_flight_dedups > 0 {
            break;
        }
    }

    let mut sorted = latencies.clone();
    sorted.sort_by(f64::total_cmp);
    ServeComparison {
        n_clients,
        sessions,
        frames_per_session: frames,
        view_px,
        tile_px,
        threads: effective_parallelism(),
        baseline_fps,
        engine_fps,
        throughput_ratio: engine_fps / baseline_fps,
        p50_ms: percentile(&sorted, 0.5),
        p99_ms: percentile(&sorted, 0.99),
        hit_rate: stats.hit_rate(),
        single_flight_waits: stats.single_flight_waits,
        herd_dedups: herd_stats.single_flight_dedups,
        herd_waits: herd_stats.single_flight_waits,
        identical,
    }
}

/// Writes serve results as JSON (hand-rolled; the environment has no
/// serde) to `path`.
pub fn write_serve_json(path: &str, runs: &[ServeComparison]) -> std::io::Result<()> {
    let header: &[&str] = &[
        "\"benchmark\": \"concurrent serving: M snapshot-isolated sessions vs sequential single-session\"",
        "\"measure\": \"count\"",
        "\"metric\": \"Linf\"",
        "\"dataset\": \"Uniform\"",
        "\"script\": \"pan/zoom camera path + one divergent edit per session\"",
        "\"acceptance\": \"engine throughput >= 0.9x sequential baseline, herd dedups > 0, bit-identical frames\"",
    ];
    write_bench_json(path, header, runs, |f, r| {
        writeln!(f, "      \"n_clients\": {},", r.n_clients)?;
        writeln!(f, "      \"sessions\": {},", r.sessions)?;
        writeln!(f, "      \"frames_per_session\": {},", r.frames_per_session)?;
        writeln!(f, "      \"view_px\": {},", r.view_px)?;
        writeln!(f, "      \"tile_px\": {},", r.tile_px)?;
        writeln!(f, "      \"threads\": {},", r.threads)?;
        writeln!(f, "      \"baseline_fps\": {:.2},", r.baseline_fps)?;
        writeln!(f, "      \"engine_fps\": {:.2},", r.engine_fps)?;
        writeln!(f, "      \"throughput_ratio\": {:.3},", r.throughput_ratio)?;
        writeln!(f, "      \"frame_p50_ms\": {:.3},", r.p50_ms)?;
        writeln!(f, "      \"frame_p99_ms\": {:.3},", r.p99_ms)?;
        writeln!(f, "      \"cache_hit_rate\": {:.3},", r.hit_rate)?;
        writeln!(f, "      \"single_flight_waits\": {},", r.single_flight_waits)?;
        writeln!(f, "      \"herd_single_flight_waits\": {},", r.herd_waits)?;
        writeln!(f, "      \"herd_single_flight_dedups\": {},", r.herd_dedups)?;
        writeln!(f, "      \"bit_identical\": {}", r.identical)?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_serve_run_agrees_and_dedups() {
        let r = compare_serve_paths(512, 16, 96, 32, 3, 10, 7);
        assert!(r.identical, "every session frame must match its snapshot's one-shot render");
        assert!(r.herd_dedups > 0, "a cold herd must deduplicate renders: {r:?}");
        assert!(r.baseline_fps > 0.0 && r.engine_fps > 0.0);
        assert!(r.p50_ms > 0.0 && r.p99_ms >= r.p50_ms);
    }

    #[test]
    fn serve_json_emitter_produces_valid_shape() {
        let r = compare_serve_paths(128, 8, 48, 16, 2, 6, 9);
        let path = std::env::temp_dir().join("bench_serve_test.json");
        let path = path.to_str().unwrap();
        write_serve_json(path, &[r]).unwrap();
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"bit_identical\": true"));
        assert!(body.trim_start().starts_with('{') && body.trim_end().ends_with('}'));
        std::fs::remove_file(path).ok();
    }
}
