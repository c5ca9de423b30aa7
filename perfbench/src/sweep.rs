//! `sweep-quick`: the paper's full figure grid at quick scale.
//!
//! Untraced, each pass is a child process that does what
//! `reproduce_all --quick --jobs 2` does for its snapshot: the Table-1
//! attack mounts, `sweep_configs_pooled` over 18 profiles x (base + five
//! REV configurations), then `snapshot_from_runs` + `Snapshot::render`.
//! The rendered snapshot must equal `baselines/quick.json` byte for
//! byte. The child narrates each work item on stderr as it starts (the
//! harness's own progress lines); the parent timestamps those lines to
//! get per-item latencies without touching the sweep.
//!
//! Traced, the same grid is re-driven in this process through the same
//! public pieces (`WarmPool::program`/`cold_sim`/`warm_fork`,
//! `audit_program`, `run_baseline_with_warmup`, `RevSimulator::run`,
//! `Snapshot::render`) under `parallel_map(2)`, with one span per call.

use crate::report::Outcome;
use crate::stats::{peak_rss_mb, Counters};
use crate::trace::{secs, self_times, total_times, Tracer};
use rev_bench::{
    parallel_map, record_attacks, snapshot_from_runs, sweep_configs_pooled, BenchOptions,
    ProfileRun, SweepConfig, SweepOutcome, WarmPool,
};
use rev_core::{BaselineReport, RevConfig, RevReport, ValidationMode};
use rev_prog::CfgStats;
use rev_sigtable::TableStats;
use rev_trace::{Json, MetricRegistry, Snapshot};
use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Worker threads of the fan-out.
const JOBS: usize = 2;
/// The committed reference snapshot of the quick grid.
const BASELINE: &str = "baselines/quick.json";
/// Extra children started per run that stop at the timed section, so
/// `setup_s` is a median of several set-ups.
const SETUP_PROBES: usize = 7;
/// The line a child writes to stderr as its timed section starts.
const TIMED_MARK: &str = "[perfbench] timed section starts";

fn quick_options(quiet: bool) -> BenchOptions {
    let mut args = vec!["--quick", "--jobs", "2"];
    if quiet {
        args.push("--quiet");
    }
    BenchOptions::parse(args).expect("fixed quick options parse")
}

/// The five REV configurations of `reproduce_all`, in its order.
fn configs() -> Vec<SweepConfig> {
    vec![
        SweepConfig::new("REV-32K", RevConfig::paper_default()),
        SweepConfig::new("REV-64K", RevConfig::paper_64k()),
        SweepConfig::new(
            "aggr-32K",
            RevConfig::paper_default().with_mode(ValidationMode::Aggressive),
        ),
        SweepConfig::new("aggr-64K", RevConfig::paper_64k().with_mode(ValidationMode::Aggressive)),
        SweepConfig::new("cfi-only", RevConfig::paper_default().with_mode(ValidationMode::CfiOnly)),
    ]
}

/// Simulated instructions committed in the measured windows of a grid.
fn committed(runs: &[ProfileRun]) -> u64 {
    runs.iter()
        .map(|r| {
            r.base.cpu.committed_instrs + r.revs.iter().map(|v| v.cpu.committed_instrs).sum::<u64>()
        })
        .sum()
}

/// The child side of one untraced pass; prints one JSON line on stdout.
/// With `setup_only` it stops where the timed section would start.
pub fn grid_pass_child(setup_only: bool) {
    let opts = quick_options(false);
    let configs = configs();
    let pool = WarmPool::new(opts.ckpt_pool.as_deref());
    eprintln!("{TIMED_MARK}");
    if setup_only {
        return;
    }
    let t = Instant::now();
    let mut snap = Snapshot::new();
    let attacks = record_attacks(&mut snap);
    let runs = match sweep_configs_pooled(&opts, &configs, &pool) {
        SweepOutcome::Complete(runs) => runs,
        SweepOutcome::Partial { .. } => unreachable!("no --shard was given"),
    };
    eprintln!("[perfbench] sweep done");
    snapshot_from_runs(&mut snap, &opts, &configs, &runs);
    let rendered = snap.render();
    let wall_s = t.elapsed().as_secs_f64();
    let baseline = std::fs::read_to_string(BASELINE).unwrap_or_default();
    let out = Json::obj(vec![
        ("wall_s", Json::Float(wall_s)),
        ("peak_rss_mb", Json::Float(peak_rss_mb())),
        ("committed", Json::Int(committed(&runs) as i64)),
        ("items", Json::Int((runs.len() * (configs.len() + 1) + attacks.len()) as i64)),
        ("snapshot_matches", Json::Bool(!baseline.is_empty() && rendered == baseline)),
        ("snapshot_fnv", Json::Str(format!("{:016x}", rev_trace::fnv1a64(rendered.as_bytes())))),
    ]);
    println!("{}", out.render());
}

/// What the parent learns from one child pass.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
    committed: u64,
    items: u64,
    snapshot_matches: bool,
    snapshot_fnv: String,
    /// Per-item latencies from the narration timestamps.
    item_s: Vec<f64>,
}

/// A finished child process: its stderr lines with the instant each
/// arrived, its stdout, and the time from spawning it to its timed
/// section.
struct Child {
    lines: Vec<(Instant, String)>,
    stdout: String,
    setup_s: f64,
}

fn run_child(setup_only: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--grid-pass");
    if setup_only {
        cmd.arg("--setup-only");
    }
    let spawned = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the grid pass: {e}"))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let (lines, out) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                lines.push((Instant::now(), line));
            }
            lines
        });
        let mut out = String::new();
        let _ = stdout.read_to_string(&mut out);
        (reader.join().expect("stderr reader"), out)
    });
    let status = child.wait().map_err(|e| format!("waiting for the grid pass: {e}"))?;
    if !status.success() {
        let tail: Vec<&str> = lines.iter().rev().take(5).map(|(_, l)| l.as_str()).collect();
        return Err(format!("grid pass exited with {status}: {tail:?}"));
    }
    let setup_s = lines
        .iter()
        .find(|(_, l)| l == TIMED_MARK)
        .map(|(at, _)| (*at - spawned).as_secs_f64())
        .ok_or("grid pass never reached its timed section")?;
    Ok(Child { lines, stdout: out, setup_s })
}

/// Runs one untraced pass in a child process and times its work items
/// from the narration lines it prints as each item starts.
fn run_pass() -> Result<Pass, String> {
    let Child { lines, stdout: out, setup_s } = run_child(false)?;
    let v = rev_trace::json::parse(out.lines().last().unwrap_or(""))
        .map_err(|e| format!("grid pass printed no result: {e}"))?;
    let f = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    // Items start in narration order per worker; an item lasts until the
    // same worker announces its next one. Each worker's last item has
    // no observed end and is left out.
    let mut by_worker: std::collections::BTreeMap<usize, Vec<Instant>> = Default::default();
    for (at, line) in &lines {
        if let Some(rest) = line.strip_prefix("[sweep w") {
            if let Ok(w) = rest[..rest.find(']').unwrap_or(0)].parse::<usize>() {
                by_worker.entry(w).or_default().push(*at);
            }
        }
    }
    let item_s = by_worker
        .values()
        .flat_map(|ts| ts.windows(2).map(|p| (p[1] - p[0]).as_secs_f64()))
        .collect();
    Ok(Pass {
        setup_s,
        wall_s: f("wall_s"),
        rss_mb: f("peak_rss_mb"),
        committed: v.get("committed").and_then(Json::as_u64).unwrap_or(0),
        items: v.get("items").and_then(Json::as_u64).unwrap_or(0),
        snapshot_matches: v.get("snapshot_matches").and_then(Json::as_bool).unwrap_or(false),
        snapshot_fnv: v.get("snapshot_fnv").and_then(Json::as_str).unwrap_or("").to_string(),
        item_s,
    })
}

/// As many untraced passes as best fill `seconds` (at least one), after
/// `SETUP_PROBES` children that only set up.
pub fn run(seconds: f64, out: &mut Outcome) {
    for _ in 0..SETUP_PROBES {
        match run_child(true) {
            Ok(c) => out.sample("setup_s", [c.setup_s]),
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return;
            }
        }
    }
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        match run_pass() {
            Ok(p) => passes.push(p),
            Err(e) => {
                out.attempted += 1;
                out.fail(e);
                return;
            }
        }
        let per_pass = start.elapsed().as_secs_f64() / passes.len() as f64;
        if start.elapsed().as_secs_f64() + per_pass / 2.0 > seconds {
            break;
        }
    }
    for p in &passes {
        out.attempted += p.items;
        if !p.snapshot_matches {
            out.fail(format!("rendered snapshot {} differs from {BASELINE}", p.snapshot_fnv));
        }
        out.sample("wall_s", [p.wall_s]);
        out.sample("setup_s", [p.setup_s]);
        out.sample("sim_minstr_per_s", [p.committed as f64 / p.wall_s / 1e6]);
        out.sample("peak_rss_mb", [p.rss_mb]);
    }
    let items: Vec<f64> = passes.iter().flat_map(|p| p.item_s.iter().copied()).collect();
    out.sample("latency_p50_s", [crate::stats::quantile(&items, 0.5)]);
    out.sample("latency_p90_s", [crate::stats::quantile(&items, 0.9)]);
    out.note("passes", Json::Int(passes.len() as i64));
    out.note("latency_samples", Json::Int(items.len() as i64));
    out.note("snapshot_fnv", Json::Str(passes[0].snapshot_fnv.clone()));
}

/// One re-driven work item's result.
enum ItemOut {
    Base(Box<(BaselineReport, CfgStats, TableStats, MetricRegistry)>),
    Rev(Box<RevReport>, rev_bench::PoolFetch, f64),
}

/// The traced re-drive: one untraced pass for reference, then the grid
/// again in this process with a span around every call.
pub fn run_traced(spans_path: &std::path::Path, out: &mut Outcome) {
    let untraced = match run_pass() {
        Ok(p) => p,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return;
        }
    };
    let tracer = Tracer::new(true);
    let opts = quick_options(true);
    let configs = configs();
    let pool = WarmPool::new(None);
    let profiles = opts.profiles();
    let slots = configs.len() + 1;
    let work: Vec<(usize, usize)> =
        (0..profiles.len()).flat_map(|p| (0..slots).map(move |s| (p, s))).collect();
    let t = Instant::now();
    let mut snap = Snapshot::new();
    let (rendered, outs, items_s) = tracer.span("grid", 0, || {
        tracer.span("attacks.mount", 0, || record_attacks(&mut snap));
        let root = tracer.current();
        let t_items = Instant::now();
        let outs = parallel_map(JOBS, &work, |w, &(p, s)| {
            tracer.span_under(root, "bench.item", w, || {
                let profile = &profiles[p];
                if s == 0 {
                    let bundle = tracer.span("bench.pool.program", w, || pool.program(profile));
                    let audit = tracer.span("lint.audit", w, || {
                        rev_lint::audit_program(&bundle.0, &configs[0].config).metrics()
                    });
                    let sim = tracer.span("bench.pool.cold_sim", w, || {
                        pool.cold_sim(profile, &configs[0].config)
                    });
                    let base = tracer.span("cpu.baseline", w, || {
                        sim.run_baseline_with_warmup(opts.warmup, opts.instructions)
                    });
                    ItemOut::Base(Box::new((base, bundle.1, sim.table_stats()[0], audit)))
                } else {
                    let config = configs[s - 1].config.with_superblocks(opts.superblocks);
                    let t = Instant::now();
                    let (mut sim, fetch) = tracer.span("bench.pool.warm_fork", w, || {
                        pool.warm_fork(profile, &config, opts.warmup)
                    });
                    let fetch_s = t.elapsed().as_secs_f64();
                    let rev = tracer.span("core.run", w, || sim.run(opts.instructions));
                    ItemOut::Rev(Box::new(rev), fetch, fetch_s)
                }
            })
        });
        let items_s = t_items.elapsed().as_secs_f64();
        let mut it = outs.iter();
        let runs: Vec<ProfileRun> = profiles
            .iter()
            .map(|profile| {
                let Some(ItemOut::Base(b)) = it.next() else { unreachable!("slot 0 is the base") };
                let (base, cfg, table, audit) = (**b).clone();
                let revs = (0..configs.len())
                    .map(|_| match it.next() {
                        Some(ItemOut::Rev(r, _, _)) => (**r).clone(),
                        _ => unreachable!("slots 1.. are REV runs"),
                    })
                    .collect();
                ProfileRun { name: profile.name.to_string(), base, revs, table, cfg, audit }
            })
            .collect();
        let rendered = tracer.span("trace.snapshot_render", 0, || {
            snapshot_from_runs(&mut snap, &opts, &configs, &runs);
            snap.render()
        });
        (rendered, outs, items_s)
    });
    let wall_s = t.elapsed().as_secs_f64();
    out.attempted += (work.len() + rev_attacks::AttackKind::ALL.len()) as u64;
    let baseline = std::fs::read_to_string(BASELINE).unwrap_or_default();
    if rendered != baseline {
        out.fail(format!("traced re-drive snapshot differs from {BASELINE}"));
    }
    if !untraced.snapshot_matches {
        out.fail(format!("untraced snapshot {} differs from {BASELINE}", untraced.snapshot_fnv));
    }

    let spans = tracer.spans();
    crate::trace::write_spans(&spans, spans_path);
    let own = self_times(&spans);
    let total = total_times(&spans);
    let mut counters = Counters::default();
    let (mut gen, mut table, mut warm, mut fork) = (0.0, 0.0, 0.0, 0.0);
    let (mut rev_committed, mut base_instrs) = (0u64, 0u64);
    for o in &outs {
        match o {
            ItemOut::Rev(r, f, fetch_s) => {
                counters.add(r);
                rev_committed += r.cpu.committed_instrs;
                let (g, tb, wm) =
                    (f.gen_ns as f64 / 1e9, f.table_ns as f64 / 1e9, f.warm_ns as f64 / 1e9);
                gen += g;
                table += tb;
                warm += wm;
                fork += (fetch_s - g - tb - wm).max(0.0);
            }
            ItemOut::Base(b) => base_instrs += opts.warmup + b.0.cpu.committed_instrs,
        }
    }
    let stats = pool.stats();
    let busy: f64 = secs(&total, "bench.item");
    let rev_ns = secs(&total, "core.run") * 1e9 / rev_committed.max(1) as f64;
    let base_ns = secs(&total, "cpu.baseline") * 1e9 / base_instrs.max(1) as f64;
    // Generation, table builds and warmups run inside the pool here and
    // are reported as `bench.pool.*`, not under their own layers.
    out.layer("core.run_s", secs(&total, "core.run"));
    out.layer("core.rev_ns_per_instr", rev_ns);
    out.layer("cpu.base_ns_per_instr", base_ns);
    out.layer("core.monitor_ns_per_instr", rev_ns - base_ns);
    out.layer("core.fork_s", fork);
    out.layer("bench.pool.program_s", gen + secs(&own, "bench.pool.program"));
    out.layer("bench.pool.table_s", table + secs(&own, "bench.pool.cold_sim"));
    out.layer("bench.pool.warm_s", warm);
    out.layer(
        "bench.pool.warm_hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    out.layer(
        "bench.worker_idle_frac",
        (JOBS as f64 * items_s - busy).max(0.0) / (JOBS as f64 * items_s),
    );
    out.layer("lint.audit_s", secs(&own, "lint.audit"));
    out.layer("attacks.mount_s", secs(&own, "attacks.mount"));
    out.layer("trace.snapshot_render_s", secs(&own, "trace.snapshot_render"));
    out.layer("trace.overhead_s", wall_s - untraced.wall_s);
    out.counter_layers(&counters);
    out.note("traced_wall_s", Json::Float(wall_s));
    out.note("untraced_wall_s", Json::Float(untraced.wall_s));
    out.note("counters_digest", Json::Str(counters.digest()));
    out.note("spans", Json::Int(spans.len() as i64));
}
