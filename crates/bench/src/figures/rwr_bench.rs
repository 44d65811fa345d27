//! RWR kernel benchmark — the proof artifact for the batched block-SpMM
//! solver: per query count `Q`, wall-clock of the scalar per-source loop
//! ([`RwrEngine::solve_many_unbatched`]), the batched block kernel
//! (`threads = 1`), and the pooled thread-parallel block kernel, plus the
//! speedup of each batched variant over the scalar loop.
//!
//! The batched kernel's win is cache reuse: each CSR entry is loaded once
//! per iteration and folded into all `Q` columns, instead of `Q` separate
//! sweeps over the adjacency arrays. The parallel variant dispatches the
//! product through a persistent nnz-balanced worker pool
//! ([`ceps_pool::WorkerPool`]) — workers are spawned once per engine and
//! re-barriered per iteration — and falls back to the sequential kernel
//! whenever `nnz × Q` is below the pool's work threshold, so `par_speedup`
//! never drops below `block_speedup` on small presets.
//!
//! [`thread_scaling`] measures the pooled kernel itself: it forces the
//! parallel path (`min_work = 0`) at several worker counts, which is the
//! honest picture of dispatch overhead on the current machine.

use std::sync::Arc;
use std::time::Instant;

use ceps_graph::{normalize::Normalization, Precision, Transition};
use ceps_pool::PoolHandle;
use ceps_rwr::{RwrConfig, RwrEngine, ScratchPool};

use crate::report::Table;
use crate::workload::Workload;
use crate::{rss, Scale};

/// Parameters for the RWR kernel benchmark.
#[derive(Debug, Clone)]
pub struct RwrBenchParams {
    /// Query-set sizes to measure.
    pub query_counts: Vec<usize>,
    /// Timed repetitions per cell; the minimum is reported.
    pub trials: usize,
    /// Worker threads for the parallel column (`0` = auto).
    pub threads: usize,
    /// Worker counts swept by [`thread_scaling`].
    pub scaling_threads: Vec<usize>,
    /// Normalization exponent (degree penalization, Eq. 10).
    pub alpha: f64,
    /// Query-sampling seed.
    pub seed: u64,
}

impl Default for RwrBenchParams {
    fn default() -> Self {
        RwrBenchParams {
            query_counts: vec![2, 5, 10],
            trials: 3,
            threads: 0,
            scaling_threads: vec![1, 2, 4],
            alpha: 0.5,
            seed: 42,
        }
    }
}

fn time_ms(trials: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..trials.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Runs the benchmark over `workload`'s graph.
///
/// Columns: `Q`, the three wall-clock times in milliseconds (best of
/// `trials`), and the block/parallel speedups over the scalar loop.
///
/// # Panics
/// Panics if the three paths disagree on the solved scores — the benchmark
/// doubles as an end-to-end equivalence check.
pub fn run(workload: &Workload, params: &RwrBenchParams) -> Table {
    let transition = Transition::new(
        &workload.data.graph,
        Normalization::DegreePenalized {
            alpha: params.alpha,
        },
    );
    let mut table = Table::new(
        "BENCH rwr: batched block kernel vs scalar loop",
        vec![
            "Q".into(),
            "unbatched_ms".into(),
            "block_ms".into(),
            "par_block_ms".into(),
            "block_speedup".into(),
            "par_speedup".into(),
        ],
    );
    for (i, &q) in params.query_counts.iter().enumerate() {
        let queries = workload.repository.sample(q, params.seed ^ i as u64);
        let scalar = engine(&transition, 1);
        let block = engine(&transition, 1);
        let par = engine(&transition, params.threads);

        // Equivalence before timing: all three paths must produce the same R.
        let reference = scalar.solve_many_unbatched(&queries).unwrap();
        assert_eq!(reference, block.solve_many(&queries).unwrap());
        assert_eq!(reference, par.solve_many(&queries).unwrap());

        let t_scalar = time_ms(params.trials, || {
            scalar.solve_many_unbatched(&queries).unwrap();
        });
        let t_block = time_ms(params.trials, || {
            block.solve_many(&queries).unwrap();
        });
        let t_par = time_ms(params.trials, || {
            par.solve_many(&queries).unwrap();
        });
        table.push_row(vec![
            q as f64,
            t_scalar,
            t_block,
            t_par,
            t_scalar / t_block,
            t_scalar / t_par,
        ]);
    }
    table
}

/// Thread-scaling sweep over the **forced-parallel** pooled kernel.
///
/// For each worker count in `params.scaling_threads` and each query count,
/// solves through a pool with `min_work = 0` — no sequential fallback — so
/// the numbers isolate what the persistent pool itself costs and buys.
/// `speedup` columns are relative to the sweep's own 1-thread row (the
/// first entry of `scaling_threads` is forced to 1).
pub fn thread_scaling(workload: &Workload, params: &RwrBenchParams) -> Table {
    let transition = Transition::new(
        &workload.data.graph,
        Normalization::DegreePenalized {
            alpha: params.alpha,
        },
    );
    let mut threads_sweep = params.scaling_threads.clone();
    if threads_sweep.first() != Some(&1) {
        threads_sweep.insert(0, 1);
    }
    let mut columns = vec!["threads".to_string()];
    for &q in &params.query_counts {
        columns.push(format!("q{q}_ms"));
    }
    for &q in &params.query_counts {
        columns.push(format!("q{q}_speedup"));
    }
    let mut table = Table::new(
        "BENCH rwr: thread scaling (pooled kernel, forced parallel)",
        columns,
    );
    let mut base_ms: Vec<f64> = Vec::new();
    for &t in &threads_sweep {
        let pooled = pooled_engine(&transition, t, 0);
        let mut row = vec![t as f64];
        for (i, &q) in params.query_counts.iter().enumerate() {
            let queries = workload.repository.sample(q, params.seed ^ i as u64);
            // Pooled results must match the sequential kernel bitwise.
            let reference = engine(&transition, 1).solve_many(&queries).unwrap();
            assert_eq!(reference, pooled.solve_many(&queries).unwrap());
            row.push(time_ms(params.trials, || {
                pooled.solve_many(&queries).unwrap();
            }));
        }
        if t == 1 {
            base_ms = row[1..].to_vec();
        }
        for i in 0..params.query_counts.len() {
            row.push(base_ms[i] / row[1 + i]);
        }
        table.push_row(row);
    }
    table
}

/// Query count used by [`node_thread_scaling`]: the middle of the paper's
/// sweep, big enough to keep every worker busy, small enough to run at the
/// paper scale in CI-adjacent time.
pub const SCALING_QUERY_COUNT: usize = 5;

/// Nodes × threads scaling sweep — the paper-scale story in one table.
///
/// For every scale in `scales`, generates a fresh workload, normalizes it
/// with `f64` coefficients and times the **forced-parallel** pooled kernel
/// (`min_work = 0`) at [`SCALING_QUERY_COUNT`] queries for each worker
/// count. Speedups are relative to the same scale's 1-thread row
/// (prepended if absent).
///
/// Alongside the timings each row records the memory story:
/// `op_f64_mb` / `op_f32_mb` are the normalized operator's footprint at
/// both storage precisions (offsets + targets + coefficients), and
/// `peak_rss_mb` is the process's peak resident set ([`rss::peak_rss_kb`],
/// `0` where procfs is unavailable), reset at the start of each scale when
/// the platform allows it.
///
/// # Panics
/// Panics if the pooled kernel disagrees with the sequential reference on
/// any scale (checked once per scale before timing).
pub fn node_thread_scaling(scales: &[Scale], params: &RwrBenchParams) -> Table {
    let mut threads_sweep = params.scaling_threads.clone();
    if threads_sweep.first() != Some(&1) {
        threads_sweep.insert(0, 1);
    }
    let q = SCALING_QUERY_COUNT;
    let mut table = Table::new(
        "BENCH rwr: nodes x threads scaling (pooled kernel, forced parallel)",
        vec![
            "nodes".into(),
            "threads".into(),
            format!("q{q}_ms"),
            format!("q{q}_speedup"),
            "op_f64_mb".into(),
            "op_f32_mb".into(),
            "peak_rss_mb".into(),
        ],
    );
    for &scale in scales {
        rss::reset_peak_rss();
        let workload = Workload::build(scale, params.seed);
        let norm = Normalization::DegreePenalized {
            alpha: params.alpha,
        };
        let transition = Transition::new(&workload.data.graph, norm);
        let op_f64_mb = transition.memory_bytes() as f64 / (1 << 20) as f64;
        // The f32 operator is built only for its footprint, then dropped
        // before anything is timed.
        let op_f32_mb = {
            let t32 = Transition::with_precision(&workload.data.graph, norm, Precision::F32);
            t32.memory_bytes() as f64 / (1 << 20) as f64
        };
        let queries = workload.repository.sample(q, params.seed);
        let reference = engine(&transition, 1).solve_many(&queries).unwrap();

        let nodes = workload.node_count() as f64;
        let mut base_ms = f64::NAN;
        for &t in &threads_sweep {
            let pooled = pooled_engine(&transition, t, 0);
            assert_eq!(
                reference,
                pooled.solve_many(&queries).unwrap(),
                "pooled kernel diverged at scale {scale}, {t} threads"
            );
            let ms = time_ms(params.trials, || {
                pooled.solve_many(&queries).unwrap();
            });
            if t == 1 {
                base_ms = ms;
            }
            let peak_mb = rss::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
            table.push_row(vec![
                nodes,
                t as f64,
                ms,
                base_ms / ms,
                op_f64_mb,
                op_f32_mb,
                peak_mb,
            ]);
        }
    }
    table
}

fn engine(transition: &Transition, threads: usize) -> RwrEngine<'_> {
    let cfg = RwrConfig {
        threads,
        ..Default::default()
    };
    RwrEngine::new(transition, cfg).unwrap()
}

/// An engine dispatching through a pool with an explicit work threshold
/// (`min_work = 0` forces the parallel path regardless of problem size).
fn pooled_engine(transition: &Transition, threads: usize, min_work: usize) -> RwrEngine<'_> {
    let cfg = RwrConfig {
        threads,
        ..Default::default()
    };
    RwrEngine::with_pool(
        transition,
        cfg,
        PoolHandle::with_min_work(threads, min_work),
        Arc::new(ScratchPool::new()),
    )
    .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn thread_scaling_sweeps_worker_counts() {
        let w = Workload::build(Scale::Tiny, 7);
        let params = RwrBenchParams {
            query_counts: vec![2],
            trials: 1,
            scaling_threads: vec![1, 2],
            ..Default::default()
        };
        let t = thread_scaling(&w, &params);
        assert_eq!(t.columns, vec!["threads", "q2_ms", "q2_speedup"]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], 1.0);
        assert_eq!(t.rows[1][0], 2.0);
        assert_eq!(t.rows[0][2], 1.0, "base row speedup is 1 by definition");
        for row in &t.rows {
            assert!(row[1] > 0.0);
            assert!(row[2].is_finite() && row[2] > 0.0);
        }
    }

    #[test]
    fn node_thread_scaling_covers_scales_and_threads() {
        let params = RwrBenchParams {
            trials: 1,
            scaling_threads: vec![1, 2],
            seed: 7,
            ..Default::default()
        };
        let t = node_thread_scaling(&[Scale::Tiny], &params);
        assert_eq!(
            t.columns,
            vec![
                "nodes",
                "threads",
                "q5_ms",
                "q5_speedup",
                "op_f64_mb",
                "op_f32_mb",
                "peak_rss_mb"
            ]
        );
        assert_eq!(t.rows.len(), 2, "one row per thread count");
        for row in &t.rows {
            assert_eq!(row[0], 100.0, "tiny preset is 100 nodes");
            assert!(row[2] > 0.0);
            assert!(row[3].is_finite() && row[3] > 0.0);
            // f32 operator must be strictly smaller, by less than half
            // (offsets/targets stay u32 either way).
            assert!(row[5] < row[4]);
            assert!(row[5] > row[4] / 2.0);
        }
        assert_eq!(t.rows[0][1], 1.0);
        assert_eq!(t.rows[0][3], 1.0, "base row speedup is 1 by definition");
    }

    #[test]
    fn produces_one_row_per_query_count() {
        let w = Workload::build(Scale::Tiny, 7);
        let params = RwrBenchParams {
            query_counts: vec![2, 3],
            trials: 1,
            threads: 2,
            ..Default::default()
        };
        let t = run(&w, &params);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[0][0], 2.0);
        assert_eq!(t.rows[1][0], 3.0);
        // Times are positive and speedups finite.
        for row in &t.rows {
            assert!(row[1..4].iter().all(|&ms| ms > 0.0));
            assert!(row[4..].iter().all(|&s| s.is_finite() && s > 0.0));
        }
    }
}
