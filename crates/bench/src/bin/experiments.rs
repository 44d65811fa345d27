//! Experiment driver: regenerates every figure of the paper's evaluation.
//!
//! ```text
//! experiments [fig4] [fig5] [fig6] [cases] [all] [check]
//!             [--scale tiny|small|medium|large|paper]
//!             [--sweep-scale tiny|small|medium|large|paper]
//!             [--trials N] [--seed S] [--out DIR] [--quick]
//!             [--baseline DIR] [--current DIR] [--tolerance F]
//! ```
//!
//! Prints each figure as an aligned table and writes CSV + JSON into the
//! output directory (default `results/`). `--quick` shrinks the sweeps for
//! smoke runs. `--profile` installs the `ceps-obs` recorder and writes the
//! aggregated span/counter snapshot to `OBS_profile.json` in the output
//! directory. Progress lines go to stderr via the `ceps-obs` logger
//! (`CEPS_LOG=warn` silences them); stdout carries only tables and result
//! paths.
//!
//! `loadgen` (opt-in, like `scaling`) boots a wire server over the
//! in-process transport and runs the `ceps-load` SLO capacity search
//! against it, writing the throughput-latency curve and the knee into
//! `BENCH_loadgen.json`.
//!
//! `check` runs the perf regression gate instead of any benchmark: it
//! compares `BENCH_rwr.json` / `BENCH_serve.json` / `BENCH_loadgen.json`
//! under `--current` (default: the `--out` directory) against the committed
//! baselines under `--baseline` (default `results/`), prints a pass/fail
//! table and exits non-zero on any failure. `--tolerance F` scales every
//! perf band by `F`.
//!
//! The `rwr` benchmark additionally emits a nodes × threads scaling table:
//! every preset from `small` up to `--sweep-scale` (default: `--scale`) is
//! generated and timed at each worker count, with operator-footprint and
//! peak-RSS columns. Pass `--sweep-scale paper` for the full ~315K-node
//! story. Last comes a per-width table of one `Transition::apply_block`
//! product against the plain CSR sweep it replaced (`sliced_speedup`).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ceps_bench::figures::{
    ablation, baselines, case_studies, fig4, fig5, fig6, injection, loadgen, rwr_bench, scaling,
    serve,
};
use ceps_bench::report::{write_json, Table};
use ceps_bench::workload::Workload;
use ceps_bench::Scale;

struct Options {
    figures: Vec<String>,
    scale: Scale,
    sweep_scale: Option<Scale>,
    trials: Option<usize>,
    seed: u64,
    out: PathBuf,
    quick: bool,
    threads: usize,
    repeat: Option<f64>,
    profile: bool,
    baseline: PathBuf,
    current: Option<PathBuf>,
    tolerance: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        figures: Vec::new(),
        scale: Scale::Small,
        sweep_scale: None,
        trials: None,
        seed: 42,
        out: PathBuf::from("results"),
        quick: false,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        repeat: None,
        profile: false,
        baseline: PathBuf::from("results"),
        current: None,
        tolerance: 1.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "fig4" | "fig5" | "fig6" | "cases" | "inject" | "ablation" | "baselines"
            | "scaling" | "rwr" | "serve" | "loadgen" | "check" | "all" => opts.figures.push(arg),
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                opts.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale {v:?}"))?;
            }
            "--sweep-scale" => {
                let v = args.next().ok_or("--sweep-scale needs a value")?;
                opts.sweep_scale =
                    Some(Scale::parse(&v).ok_or_else(|| format!("unknown scale {v:?}"))?);
            }
            "--trials" => {
                let v = args.next().ok_or("--trials needs a value")?;
                opts.trials = Some(v.parse().map_err(|_| format!("bad trial count {v:?}"))?);
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--out" => {
                opts.out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--quick" => opts.quick = true,
            "--profile" => opts.profile = true,
            "--repeat" => {
                let v = args.next().ok_or("--repeat needs a value")?;
                let r: f64 = v.parse().map_err(|_| format!("bad repeat rate {v:?}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("repeat rate {r} must lie in [0, 1]"));
                }
                opts.repeat = Some(r);
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--baseline" => {
                opts.baseline = PathBuf::from(args.next().ok_or("--baseline needs a value")?);
            }
            "--current" => {
                opts.current = Some(PathBuf::from(args.next().ok_or("--current needs a value")?));
            }
            "--tolerance" => {
                let v = args.next().ok_or("--tolerance needs a value")?;
                let t: f64 = v.parse().map_err(|_| format!("bad tolerance {v:?}"))?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(format!("tolerance {t} must be a positive multiplier"));
                }
                opts.tolerance = t;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.figures.is_empty() {
        opts.figures.push("all".into());
    }
    Ok(opts)
}

/// Run metadata (git SHA, thread count, preset, timestamp) embedded in
/// every emitted JSON artifact so results are attributable and diffable.
fn run_meta(opts: &Options) -> serde_json::Value {
    let m = ceps_obs::RunMeta::collect(&opts.scale.to_string(), "experiments");
    serde_json::json!({
        "git_sha": m.git_sha,
        "threads": opts.threads,
        "preset": m.preset,
        "timestamp": m.timestamp,
    })
}

fn main() -> ExitCode {
    // Progress narration defaults to Info for this chatty binary; CEPS_LOG
    // still overrides (e.g. CEPS_LOG=warn for quiet CI logs).
    ceps_obs::init_log_default(ceps_obs::Level::Info);
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            ceps_obs::error!("error: {e}");
            eprintln!(
                "usage: experiments [fig4|fig5|fig6|cases|inject|ablation|baselines|scaling|rwr|serve|loadgen|check|all]... \
                 [--scale tiny|small|medium|large|paper] \
                 [--sweep-scale tiny|small|medium|large|paper] \
                 [--trials N] [--seed S] \
                 [--out DIR] [--quick] [--threads N] [--repeat R] [--profile] \
                 [--baseline DIR] [--current DIR] [--tolerance F]"
            );
            return ExitCode::FAILURE;
        }
    };
    if opts.profile {
        ceps_obs::install_recorder();
        ceps_obs::reset();
    }

    // The gate runs before (and instead of) any benchmark and only diffs
    // already emitted artifacts. Like `scaling`, `check` is opt-in and not
    // part of `all`.
    if opts.figures.iter().any(|x| x == "check") {
        let current = opts.current.clone().unwrap_or_else(|| opts.out.clone());
        let report = ceps_bench::regression::check(
            &opts.baseline,
            &current,
            &ceps_bench::regression::default_gates(),
            opts.tolerance,
        );
        print!("{}", report.render());
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let wants =
        |f: &str| opts.figures.iter().any(|x| x == f) || opts.figures.iter().any(|x| x == "all");

    ceps_obs::info!(
        "experiment run: scale = {}, seed = {}, output = {}",
        opts.scale,
        opts.seed,
        opts.out.display()
    );
    let t0 = Instant::now();
    let workload = Workload::build(opts.scale, opts.seed);
    ceps_obs::info!(
        "graph: {} nodes, {} edges (generated in {:.2?})",
        workload.node_count(),
        workload.edge_count(),
        t0.elapsed()
    );

    let mut tables: Vec<Table> = Vec::new();

    if wants("cases") {
        let c2 = case_studies::fig2_connection_study(&workload, opts.seed);
        print!("{}", c2.report);
        println!();
        let c1 = case_studies::fig1_softand_study(&workload, opts.seed);
        print!("{}", c1.report);
        println!();
        let c3 = case_studies::fig3_and_study(&workload, opts.seed);
        print!("{}", c3.report);
        println!();
    }

    if wants("fig4") {
        let mut params = fig4::Fig4Params {
            seed: opts.seed,
            ..Default::default()
        };
        if let Some(t) = opts.trials {
            params.trials = t;
        }
        if opts.quick {
            params.budgets = vec![10, 30, 60];
            params.trials = params.trials.min(3);
        }
        let t = Instant::now();
        let (a, b) = fig4::run(&workload, &params);
        println!("{}", a.render());
        println!("{}", b.render());
        // Supplement: the same sweep without degree penalization, to
        // separate the normalization's effect from EXTRACT's (the ERatio
        // magnitudes depend strongly on alpha — see EXPERIMENTS.md).
        let params0 = fig4::Fig4Params {
            alpha: 0.0,
            ..params
        };
        let (a0, b0) = fig4::run(&workload, &params0);
        println!("{}", a0.render());
        println!("{}", b0.render());
        ceps_obs::info!("fig4 took {:.2?}", t.elapsed());
        tables.push(a);
        tables.push(b);
        tables.push(a0);
        tables.push(b0);
    }

    if wants("fig5") {
        let mut params = fig5::Fig5Params {
            seed: opts.seed,
            ..Default::default()
        };
        if let Some(t) = opts.trials {
            params.trials = t;
        }
        if opts.quick {
            params.alphas = vec![0.0, 0.5, 1.0];
            params.trials = params.trials.min(3);
        }
        let t = Instant::now();
        let out = fig5::run(&workload, &params);
        println!("{}", out.nratio_self.render());
        println!("{}", out.eratio_self.render());
        println!("{}", out.nratio_cross.render());
        println!("{}", out.eratio_cross.render());
        ceps_obs::info!("fig5 took {:.2?}", t.elapsed());
        tables.push(out.nratio_self);
        tables.push(out.eratio_self);
        tables.push(out.nratio_cross);
        tables.push(out.eratio_cross);
    }

    if wants("fig6") {
        let mut params = fig6::Fig6Params {
            seed: opts.seed,
            ..Default::default()
        };
        if let Some(t) = opts.trials {
            params.trials = t;
        }
        if opts.quick {
            params.partition_counts = vec![1, 4, 16];
            params.trials = params.trials.min(2);
        }
        let t = Instant::now();
        let out = fig6::run(&workload, &params);
        println!("{}", out.quality_vs_time.render());
        println!("{}", out.time_vs_partitions.render());
        println!("{}", out.headline.render());
        println!("{}", out.offline.render());
        ceps_obs::info!("fig6 took {:.2?}", t.elapsed());
        tables.push(out.quality_vs_time);
        tables.push(out.time_vs_partitions);
        tables.push(out.headline);
        tables.push(out.offline);
    }

    if wants("inject") {
        let mut params = injection::InjectionParams {
            seed: opts.seed,
            ..Default::default()
        };
        if let Some(t) = opts.trials {
            params.trials = t;
        }
        if opts.quick {
            params.strengths = vec![1.0, 4.0];
            params.trials = params.trials.min(3);
        }
        let t = Instant::now();
        let out = injection::run(&workload, &params);
        println!("{}", out.recall.render());
        println!("{}", out.top1.render());
        ceps_obs::info!("inject took {:.2?}", t.elapsed());
        tables.push(out.recall);
        tables.push(out.top1);
    }

    if wants("baselines") {
        let mut params = baselines::BaselineParams {
            seed: opts.seed,
            ..Default::default()
        };
        if let Some(t) = opts.trials {
            params.trials = t;
        }
        if opts.quick {
            params.query_counts = vec![2];
            params.trials = params.trials.min(3);
        }
        let t = Instant::now();
        let table = baselines::run(&workload, &params);
        println!("{}", table.render());
        ceps_obs::info!("baselines took {:.2?}", t.elapsed());
        tables.push(table);
    }

    if wants("ablation") {
        let mut params = ablation::AblationParams {
            seed: opts.seed,
            ..Default::default()
        };
        if let Some(t) = opts.trials {
            params.trials = t;
        }
        if opts.quick {
            params.budgets = vec![10, 40];
            params.trials = params.trials.min(3);
        }
        let t = Instant::now();
        let table = ablation::run(&workload, &params);
        println!("{}", table.render());
        ceps_obs::info!("ablation took {:.2?}", t.elapsed());
        tables.push(table);
    }

    if wants("rwr") {
        let mut params = rwr_bench::RwrBenchParams {
            seed: opts.seed,
            threads: opts.threads,
            ..Default::default()
        };
        if let Some(t) = opts.trials {
            params.trials = t;
        }
        if opts.quick {
            params.query_counts = vec![2, 5];
            params.trials = params.trials.min(2);
        }
        let t = Instant::now();
        let table = rwr_bench::run(&workload, &params);
        println!("{}", table.render());
        let scaling = rwr_bench::thread_scaling(&workload, &params);
        println!("{}", scaling.render());
        let sliced = rwr_bench::sliced_vs_csr(&workload, &params);
        println!("{}", sliced.render());
        // Nodes × threads sweep: every preset from small up to
        // `--sweep-scale` (default: `--scale`); quick mode caps it at
        // small. The sweep generates its own graphs per scale.
        let max_sweep = opts.sweep_scale.unwrap_or(opts.scale);
        let max_sweep = if opts.quick {
            max_sweep.min(Scale::Small)
        } else {
            max_sweep
        };
        let mut sweep_scales: Vec<Scale> =
            [Scale::Small, Scale::Medium, Scale::Large, Scale::Paper]
                .into_iter()
                .filter(|s| *s <= max_sweep)
                .collect();
        if sweep_scales.is_empty() {
            sweep_scales.push(max_sweep);
        }
        let nodes_scaling = rwr_bench::node_thread_scaling(&sweep_scales, &params);
        println!("{}", nodes_scaling.render());
        ceps_obs::info!("rwr took {:.2?}", t.elapsed());
        // The kernel benchmark gets its own JSON artifact (CI uploads it),
        // in addition to riding along in the combined experiments.json.
        // The headline table goes first: the regression gate resolves its
        // columns from the first table that has them.
        let meta = serde_json::json!({
            "scale": opts.scale.to_string(),
            "seed": opts.seed,
            "threads": params.threads,
            "scaling_threads": params.scaling_threads,
            "sweep_scales": sweep_scales.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            "trials": params.trials,
            "nodes": workload.node_count(),
            "edges": workload.edge_count(),
            "run": run_meta(&opts),
        });
        let artifact = [
            table.clone(),
            scaling.clone(),
            nodes_scaling.clone(),
            sliced.clone(),
        ];
        match write_json(&opts.out, "BENCH_rwr", &meta, &artifact) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => {
                ceps_obs::error!("error writing JSON: {e}");
                return ExitCode::FAILURE;
            }
        }
        tables.push(table);
        tables.push(scaling);
        tables.push(nodes_scaling);
        tables.push(sliced);
    }

    if wants("serve") {
        let mut params = serve::ServeParams {
            seed: opts.seed,
            workers: opts.threads,
            ..Default::default()
        };
        if let Some(r) = opts.repeat {
            params.repeats = vec![r];
        }
        if opts.quick {
            params.requests = 24;
            if opts.repeat.is_none() {
                // Keep a repeat ≥ 0.9 row even in quick mode: the
                // `coalesced_speedup` gate only binds there.
                params.repeats = vec![0.0, 0.8, 0.95];
            }
        }
        let t = Instant::now();
        let (table, stage_table) = serve::run(&workload, &params);
        println!("{}", table.render());
        println!("{}", stage_table.render());
        ceps_obs::info!("serve took {:.2?}", t.elapsed());
        // The serving benchmark gets its own JSON artifact (CI uploads it),
        // like the RWR kernel benchmark.
        let meta = serde_json::json!({
            "scale": opts.scale.to_string(),
            "seed": opts.seed,
            "workers": params.workers,
            "requests": params.requests,
            "queries_per": params.queries_per,
            "cache_bytes": params.cache_bytes,
            "nodes": workload.node_count(),
            "edges": workload.edge_count(),
            "run": run_meta(&opts),
        });
        let serve_tables = [table.clone(), stage_table.clone()];
        match write_json(&opts.out, "BENCH_serve", &meta, &serve_tables) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => {
                ceps_obs::error!("error writing JSON: {e}");
                return ExitCode::FAILURE;
            }
        }
        tables.push(table);
        tables.push(stage_table);
    }

    if opts.figures.iter().any(|x| x == "loadgen") {
        // Loadgen is opt-in (not part of "all"): each capacity probe is a
        // multi-second wall-clock run, which dwarfs the other runners.
        let mut params = loadgen::LoadgenParams {
            seed: opts.seed,
            workers: opts.threads,
            ..Default::default()
        };
        if let Some(r) = opts.repeat {
            params.repeat = r;
        }
        if opts.quick {
            params.duration_s = 1.5;
            params.warmup_s = 0.5;
            params.refine_steps = 1;
            params.max_rps = 2_000.0;
        }
        let t = Instant::now();
        let out = loadgen::run(&workload, &params);
        println!("{}", out.headline.render());
        println!("{}", out.curve_table.render());
        println!("{}", out.coalesced_curve_table.render());
        match out.curve.knee_rps {
            Some(knee) => println!("knee: {knee:.1} rps (SLO p99 <= {} ms)", params.slo.p99_ms),
            None => println!("knee: none — the starting rate already violated the SLO"),
        }
        match out.coalesced_curve.knee_rps {
            Some(knee) => println!("coalesced knee: {knee:.1} rps"),
            None => println!("coalesced knee: none"),
        }
        ceps_obs::info!("loadgen took {:.2?}", t.elapsed());
        // The headline table comes first on purpose: the regression gate
        // resolves its columns from the first table that has them.
        let meta = serde_json::json!({
            "scale": opts.scale.to_string(),
            "seed": opts.seed,
            "workers": params.workers,
            "duration_s": params.duration_s,
            "connections": params.connections,
            "mix": params.mix.name(),
            "pool_size": params.pool_size,
            "repeat": params.repeat,
            "coalesce_us": params.coalesce_us,
            "warm_frac": params.warm_frac,
            "slo_p99_ms": params.slo.p99_ms,
            "slo_max_error_rate": params.slo.max_error_rate,
            "knee_rps": out.curve.knee_rps,
            "knee_rps_coalesced": out.coalesced_curve.knee_rps,
            "nodes": workload.node_count(),
            "edges": workload.edge_count(),
            "run": run_meta(&opts),
        });
        let loadgen_tables = [
            out.headline.clone(),
            out.curve_table.clone(),
            out.coalesced_curve_table.clone(),
        ];
        match write_json(&opts.out, "BENCH_loadgen", &meta, &loadgen_tables) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => {
                ceps_obs::error!("error writing JSON: {e}");
                return ExitCode::FAILURE;
            }
        }
        tables.push(out.headline);
        tables.push(out.curve_table);
        tables.push(out.coalesced_curve_table);
    }

    if opts.figures.iter().any(|x| x == "scaling") {
        // Scaling is opt-in (not part of "all"): it generates several
        // graphs of its own, which dwarfs the other runners.
        let mut params = scaling::ScalingParams {
            seed: opts.seed,
            ..Default::default()
        };
        params.scales = vec![
            ceps_bench::Scale::Tiny,
            ceps_bench::Scale::Small,
            ceps_bench::Scale::Medium,
            ceps_bench::Scale::Large,
        ];
        if opts.scale == ceps_bench::Scale::Paper {
            params.scales.push(ceps_bench::Scale::Paper);
        }
        if opts.quick {
            params.scales = vec![ceps_bench::Scale::Tiny, ceps_bench::Scale::Small];
            params.trials = 1;
        }
        let t = Instant::now();
        let table = scaling::run(&params);
        println!("{}", table.render());
        ceps_obs::info!("scaling took {:.2?}", t.elapsed());
        tables.push(table);
    }

    // Persist machine-readable outputs.
    for t in &tables {
        match t.write_csv(&opts.out) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => {
                ceps_obs::error!("error writing CSV: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !tables.is_empty() {
        let meta = serde_json::json!({
            "scale": opts.scale.to_string(),
            "seed": opts.seed,
            "nodes": workload.node_count(),
            "edges": workload.edge_count(),
            "quick": opts.quick,
            "run": run_meta(&opts),
        });
        match write_json(&opts.out, "experiments", &meta, &tables) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => {
                ceps_obs::error!("error writing JSON: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.profile {
        let mut meta = ceps_obs::RunMeta::collect(&opts.scale.to_string(), "experiments");
        meta.threads = opts.threads;
        let path = opts.out.join("OBS_profile.json");
        let write = std::fs::create_dir_all(&opts.out)
            .and_then(|()| std::fs::write(&path, ceps_obs::snapshot().to_json(&meta)));
        match write {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                ceps_obs::error!("error writing profile: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ceps_obs::info!("total {:.2?}", t0.elapsed());
    ExitCode::SUCCESS
}
