//! `scale_bench` — millions-of-points scale benchmark, emitting
//! `BENCH_scale.json`.
//!
//! ```text
//! cargo run --release -p rnnhm_bench --bin scale_bench [--quick] [out.json]
//! ```
//!
//! The full run measures the ISSUE 8 acceptance configuration: a
//! 4-shard build with the LoD pyramid at exact-zoom 2, Uniform clients
//! at n ∈ {100k, 500k, 2M}, ratio 16, count measure. The bar is a cold
//! whole-extent ("country") viewport in single-digit seconds at n = 2M
//! and warm coarse pans in the millisecond range. `--quick` shrinks to
//! n = 10k for CI smoke runs.

use rnnhm_bench::runner::cli;
use rnnhm_bench::scale::{run_scale, write_scale_json, ScaleRun};

fn main() {
    let (quick, out) = cli("BENCH_scale.json");

    let ns: &[usize] = if quick { &[10_000] } else { &[100_000, 500_000, 2_000_000] };

    let mut runs: Vec<ScaleRun> = Vec::new();
    for &n in ns {
        eprintln!("running n={n}, shards=4, lod_exact_zoom=2 ...");
        let r = run_scale(n, 16, 4, 42);
        eprintln!(
            "  build {:.0} ms | cold country {:.0} ms | warm pan {:.2} ms | drill-down {:.1} ms \
             | edit {:.1} ms | repatch {:.0} ms | error bound {:.2} | approx: {}",
            r.build_ms,
            r.cold_country_ms,
            r.warm_pan_ms,
            r.drill_down_ms,
            r.edit_ms,
            r.repatch_ms,
            r.error_bound,
            r.approx_served
        );
        assert!(r.approx_served, "country viewport must serve from the pyramid at n={n}");
        if !quick {
            assert!(
                r.cold_country_ms < 10_000.0,
                "cold country viewport must stay single-digit seconds at n={n}: {:.0} ms",
                r.cold_country_ms
            );
            assert!(
                r.warm_pan_ms < 1_000.0,
                "warm pans must stay in the millisecond range at n={n}: {:.1} ms",
                r.warm_pan_ms
            );
        }
        runs.push(r);
    }

    write_scale_json(&out, &runs).expect("write json");
    eprintln!("wrote {out}");
}
