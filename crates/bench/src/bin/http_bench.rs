//! `http_bench` — HTTP serving load benchmark, emitting
//! `BENCH_http.json`.
//!
//! ```text
//! cargo run --release -p rnnhm_bench --bin http_bench [--quick] [out.json]
//! ```
//!
//! The full run measures the ISSUE 6 acceptance configuration: ≥ 128
//! concurrent simulated users with jittered exponential retry/backoff
//! replaying warm pan traffic over divergently-edited HTTP sessions,
//! plus a clogged-server shed-latency probe and a mixed-fault chaos
//! storm. Reported: sustained req/s, p50/p99 latency, shed/degraded/
//! retry counts, warm-tile p50, shed p50, and fault accounting.
//!
//! Acceptance bars (asserted here):
//!
//! * zero torn frames — every sampled exact response is bit-identical
//!   to a one-shot render of the snapshot its ETag names;
//! * zero failed requests — backoff always converges;
//! * zero worker deaths under the chaos `FaultPlan` (post-storm burst
//!   all-200, every injected panic caught exactly once);
//! * shed `503`s return in < 1 ms at p50;
//! * warm-tile p50 within 2× of the in-process `BENCH_serve.json`
//!   frame figure for the matching dataset size.
//!
//! `--quick` shrinks the fleet for CI-scale runs (the 128-user bar is
//! only meaningful at full scale).

use rnnhm_bench::http::{run_http_load, write_http_json, HttpLoadResult};
use rnnhm_bench::runner::cli;

fn main() {
    let (quick, out) = cli("BENCH_http.json");

    // (n_clients, view px, tile px, sessions, users, reqs/user, ref ms)
    // The reference figures are the in-process frame_p50_ms entries of
    // BENCH_serve.json for the matching n (quick: n=10k, full: n=100k).
    let configs: &[(usize, usize, usize, usize, usize, usize, f64)] = if quick {
        &[(10_000, 128, 64, 7, 32, 6, 0.475)]
    } else {
        &[(10_000, 128, 64, 7, 128, 10, 0.475), (100_000, 256, 64, 7, 160, 12, 2.097)]
    };

    let mut runs: Vec<HttpLoadResult> = Vec::new();
    for &(n, px, tile, sessions, users, reqs, reference) in configs {
        eprintln!("running n={n}, view={px}x{px}, {users} users x {reqs} requests ...");
        let r = run_http_load(n, 16, px, tile, sessions, users, reqs, 200, reference, 42);
        eprintln!(
            "  {:.0} req/s | p50 {:.2} ms, p99 {:.2} ms | exact {} / degraded {} / shed {} / \
             retries {} | warm tile p50 {:.3} ms (ref {:.3}) | shed p50 {:.3} ms ({} observed) | \
             torn {} | chaos: {} panics, {} drops, {} truncations, pool alive: {}",
            r.req_per_s,
            r.p50_ms,
            r.p99_ms,
            r.exact,
            r.degraded,
            r.shed,
            r.retries,
            r.warm_tile_p50_ms,
            r.warm_tile_reference_ms,
            r.shed_p50_ms,
            r.shed_observed,
            r.torn_frames,
            r.chaos_panics,
            r.chaos_drops,
            r.chaos_truncations,
            r.pool_alive_after_chaos,
        );
        assert_eq!(r.torn_frames, 0, "a served exact frame diverged from its snapshot at n={n}");
        assert_eq!(r.failed, 0, "a user exhausted its retry budget at n={n}");
        assert!(r.pool_alive_after_chaos, "a worker died under the chaos FaultPlan at n={n}");
        assert!(r.panics_isolated, "panic accounting diverged at n={n}");
        assert!(r.shed_observed > 0, "the clogged server never shed at n={n}");
        assert!(
            r.shed_p50_ms < 1.0,
            "shed 503s must return in < 1 ms at p50, got {:.3} ms",
            r.shed_p50_ms
        );
        assert!(
            r.warm_tile_p50_ms <= 2.0 * r.warm_tile_reference_ms,
            "warm-tile p50 {:.3} ms exceeds 2x the in-process figure {:.3} ms",
            r.warm_tile_p50_ms,
            r.warm_tile_reference_ms
        );
        if !quick {
            assert!(r.users >= 128, "the full run must simulate at least 128 users");
        }
        runs.push(r);
    }

    write_http_json(&out, &runs).expect("write json");
    eprintln!("wrote {out}");
}
