//! `placement_bench` — MaxBRkNN placement benchmark, emitting
//! `BENCH_placement.json`.
//!
//! ```text
//! cargo run --release -p rnnhm_bench --bin placement_bench [--quick] [out.json]
//! ```
//!
//! The full run measures the ISSUE 7 acceptance configuration —
//! n = 100k Uniform clients (ratio 16), count measure, L∞: a batch of
//! candidate sites each scored by the incremental path (cached
//! point-enclosure stab + tentative snapshot insert, dropped as a
//! bitwise undo) against a rebuild-per-candidate baseline
//! (from-scratch NN-circle rebuild + the same stab), then a greedy
//! multi-facility loop with incremental commits against a
//! rebuild-per-step baseline (rebuild + full argmax sweep). Both
//! paths must agree bitwise on every influence value; the acceptance
//! bar is incremental candidate evaluation ≥ **5×** the rebuild path
//! at n = 100k. `--quick` shrinks the grid for CI-scale runs but
//! keeps a k > 1 configuration.

use rnnhm_bench::placement::{compare_placement_paths, write_placement_json, PlacementBench};
use rnnhm_bench::runner::cli;

fn main() {
    let (quick, out) = cli("BENCH_placement.json");

    // (n_clients, candidates, greedy steps, k)
    let configs: &[(usize, usize, usize, usize)] = if quick {
        &[(5_000, 8, 2, 1), (5_000, 8, 2, 4)]
    } else {
        &[(10_000, 24, 3, 1), (100_000, 24, 3, 1), (100_000, 24, 3, 4)]
    };

    let mut runs: Vec<PlacementBench> = Vec::new();
    for &(n, cands, steps, k) in configs {
        eprintln!("running n={n}, candidates={cands}, greedy_steps={steps}, k={k} ...");
        let r = compare_placement_paths(n, 16, cands, steps, 42, k);
        eprintln!(
            "  eval: incremental {:.1} ms total ({:.0}/s) vs rebuild {:.1} ms total ({:.1}/s) \
             => {:.1}x | greedy: {:.1} ms vs {:.1} ms => {:.1}x | identical: {}",
            r.incr_total_ms,
            r.incr_evals_per_sec,
            r.rebuild_total_ms,
            r.rebuild_evals_per_sec,
            r.speedup_eval,
            r.greedy_incr_ms,
            r.greedy_rebuild_ms,
            r.greedy_speedup,
            r.identical
        );
        assert!(r.identical, "influence values diverged between paths at n={n}, k={k}");
        // The acceptance bar is defined at the full n = 100k, k = 1
        // configuration; warm-up sizes and the k sweep are reported
        // but not gated.
        if !quick && n >= 100_000 && k == 1 {
            assert!(
                r.speedup_eval >= 5.0,
                "acceptance: incremental evaluation speedup {:.2}x below the 5x bar at n={n}",
                r.speedup_eval
            );
        }
        runs.push(r);
    }

    write_placement_json(&out, &runs).expect("write json");
    eprintln!("wrote {out}");
}
