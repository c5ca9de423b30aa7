//! Regenerates the paper's tables and figures — and, on request, Table 2
//! and the ablations — as sections of one pooled sweep grid.
//!
//! ```text
//! usage: reproduce_all [--only ID]... plus the shared harness flags
//!        (`--quick`, `--bench NAME`, `--jobs N`, `--json PATH`, ...)
//! ```
//!
//! Without `--only` it renders the paper's sections in paper order and
//! writes the snapshot to `--json PATH` (default `BENCH_rev.json`); each
//! `--only ID` selects one section of `rev_bench::sections::SECTIONS`
//! instead, and the snapshot is written only with `--json`. The selected
//! sections' configurations merge into one grid — per profile one shared
//! baseline plus each distinct configuration once — that fans out across
//! `--jobs` workers over one warm pool. A `--shard i/N` run seals its
//! share of the grid into `--shard-dir` and prints nothing; the
//! `--resume` merge run renders output byte-identical to a monolithic
//! one. An unknown id or malformed flag exits with status 2.

use rev_bench::sections::{parse_args, select, sweep_sections, usage, Grid};
use rev_bench::{usage_exit, write_snapshot, Narrator, SweepOutcome, WarmPool};
use rev_trace::Snapshot;
use std::time::Instant;

fn main() {
    let (opts, only) =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e, &usage()));
    let sections = select(&only);
    let narrator = Narrator::new(opts.quiet);
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    let t_start = Instant::now();

    let (configs, outcome) = sweep_sections(&opts, &sections, &pool);
    let t_sweep = t_start.elapsed();
    let runs = match outcome {
        SweepOutcome::Complete(runs) if opts.shard.is_none() => runs,
        // A shard run simulates and seals only its own work items and
        // keeps stdout empty — only the merge run (`--resume` without
        // `--shard`) renders sections, so exactly one output ever exists.
        SweepOutcome::Partial { computed, resumed, skipped } => {
            narrator.note(&format!(
                "[shard] sealed {computed} item(s), {resumed} already sealed, \
                 {skipped} left to other shards in {t_sweep:.2?}"
            ));
            return;
        }
        SweepOutcome::Complete(_) => {
            narrator
                .note(&format!("[shard] every item computed or already sealed in {t_sweep:.2?}"));
            return;
        }
    };

    let t_render = Instant::now();
    let grid = Grid { opts: &opts, pool: &pool, narrator: &narrator, configs, runs };
    let mut snap = Snapshot::new();
    grid.render(&sections, &mut snap, |text| print!("{text}"));
    let t_render = t_render.elapsed();

    let default_json = only.is_empty().then(|| "BENCH_rev.json".to_string());
    if let Some(path) = opts.json.clone().or(default_json) {
        write_snapshot(&snap, &path, &narrator);
    }

    // Timing narration goes to stderr: stdout (and the snapshot) stay
    // byte-identical across hosts and `--jobs` counts; wall-clock is the
    // "modulo timing" part.
    narrator.note("=== Timing ===");
    narrator.note(&format!("jobs:                {}", opts.jobs));
    narrator.note(&format!(
        "sweep phase:         {:>9.2?}  ({} profiles x (base + {} configs))",
        t_sweep,
        grid.runs.len(),
        grid.configs.len()
    ));
    narrator.note(&format!("sections phase:      {t_render:>9.2?}  ({} sections)", sections.len()));
    narrator.note(&format!("total wall clock:    {:>9.2?}", t_start.elapsed()));
}
