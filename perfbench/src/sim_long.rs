//! `sim-long`: steady-state simulator throughput at full paper scale.
//!
//! Four profiles — mcf (memory-bound), gcc (large recurring branch
//! working set), gamess (compute-bound), astar (pointer chasing) — each
//! with its `seed` field derived from the benchmark seed. Set-up builds
//! and warms one simulator per profile (400k instructions under
//! REV-32K); the timed section then runs 2M measured instructions on a
//! fork of each warmed simulator, serially, in 100k-instruction session
//! slices. Windows repeat round-robin over the profiles while the time
//! budget allows; a pass is one window per profile, each at its median
//! time, and every repeated window must reproduce its profile's first
//! exact counters.

use crate::report::Outcome;
use crate::stats::{median, quantile, Counters, Rng};
use crate::trace::{build_traced, secs, self_times, total_times, Tracer};
use rev_core::{RevConfig, RevReport, RevSimulator, RunOutcome, Session, SessionStatus};
use rev_trace::Json;
use rev_workloads::SpecProfile;
use std::time::Instant;

const PROFILES: [&str; 4] = ["mcf", "gcc", "gamess", "astar"];
const WARMUP: u64 = 400_000;
const INSTRUCTIONS: u64 = 2_000_000;
/// Committed instructions per timed slice (one latency sample).
const SLICE: u64 = 100_000;
/// Counter digests recorded on unchanged code, by benchmark seed.
const DIGESTS: &str = include_str!("../data/sim_long_digests.json");

/// The profile with its generation seed derived from the benchmark seed
/// (seed 0 keeps the paper's programs).
pub fn derived_profile(name: &str, seed: u64) -> SpecProfile {
    let mut p = SpecProfile::by_name(name).expect("built-in profile").clone();
    if seed != 0 {
        p.seed ^= Rng(seed).next();
    }
    p
}

fn recorded_digest(seed: u64) -> Option<String> {
    let v = rev_trace::json::parse(DIGESTS).ok()?;
    v.get(&seed.to_string()).and_then(Json::as_str).map(str::to_string)
}

/// Runs one measured window on `sim` in `SLICE`-sized session slices,
/// timing each slice (inside a `core.run` span when tracing).
fn window(sim: RevSimulator, tracer: &Tracer, slices: &mut Vec<f64>) -> RevReport {
    let mut session = Session::new(sim, INSTRUCTIONS);
    loop {
        let t = Instant::now();
        let status = tracer.span("core.run", 0, || session.run(SLICE));
        slices.push(t.elapsed().as_secs_f64());
        if let SessionStatus::Done(report) = status {
            return *report;
        }
    }
}

fn check_window(name: &str, r: &RevReport, out: &mut Outcome) {
    if !matches!(r.outcome, RunOutcome::BudgetReached) || r.rev.violation.is_some() {
        out.fail(format!("{name}: run ended with {:?}", r.outcome));
    } else if r.cpu.committed_instrs < INSTRUCTIONS {
        out.fail(format!("{name}: committed only {}", r.cpu.committed_instrs));
    }
}

fn check_digest(seed: u64, counters: &Counters, out: &mut Outcome) {
    let digest = counters.digest();
    match recorded_digest(seed) {
        Some(want) if want != digest => {
            out.fail(format!("counter digest {digest} differs from the recorded {want}"));
            out.note("digest_check", Json::Str("mismatch".into()));
        }
        Some(_) => out.note("digest_check", Json::Str("match".into())),
        None => out.note("digest_check", Json::Str("no digest recorded for this seed".into())),
    }
    out.note("counters_digest", Json::Str(digest));
}

/// The untraced workload.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let config = RevConfig::paper_default();
    let off = Tracer::new(false);
    let mut warmed = Vec::new();
    let mut setup_s = 0.0;
    for name in PROFILES {
        let profile = derived_profile(name, seed);
        let t = Instant::now();
        let mut sim = RevSimulator::new(rev_workloads::generate(&profile), config)
            .expect("generated programs build");
        sim.warmup(WARMUP);
        setup_s += t.elapsed().as_secs_f64();
        warmed.push((name, sim));
    }
    out.sample("setup_s", [setup_s]);

    // Windows run round-robin over the profiles, as many as best fill the
    // budget; a pass is one window per profile at its median time.
    let start = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); warmed.len()];
    let mut first: Vec<Option<RevReport>> = vec![None; warmed.len()];
    let mut slices = Vec::new();
    let mut windows = 0usize;
    'run: loop {
        for (i, (name, sim)) in warmed.iter().enumerate() {
            let fork = sim.fork().expect("warmed simulators fork");
            let t = Instant::now();
            let report = window(fork, &off, &mut slices);
            times[i].push(t.elapsed().as_secs_f64());
            windows += 1;
            out.attempted += 1;
            check_window(name, &report, out);
            match &first[i] {
                None => first[i] = Some(report),
                Some(f) if counters_of(f) != counters_of(&report) => {
                    out.fail(format!("{name}: a repeated window changed the exact counters"));
                }
                Some(_) => {}
            }
            let elapsed = start.elapsed().as_secs_f64();
            let full_round = first.iter().all(Option::is_some);
            if full_round && elapsed + elapsed / windows as f64 / 2.0 > seconds {
                break 'run;
            }
        }
    }
    let mut counters = Counters::default();
    for report in first.iter().flatten() {
        counters.add(report);
    }
    check_digest(seed, &counters, out);
    let pass_s: f64 = times.iter().map(|t| median(t)).sum();
    out.sample("wall_s", [pass_s]);
    out.sample("sim_minstr_per_s", [counters.committed as f64 / pass_s / 1e6]);
    out.sample("peak_rss_mb", [crate::stats::peak_rss_mb()]);
    out.sample("latency_p50_s", [quantile(&slices, 0.5)]);
    out.sample("latency_p90_s", [quantile(&slices, 0.9)]);
    out.note("windows", Json::Int(windows as i64));
    out.note("latency_samples", Json::Int(slices.len() as i64));
    let ints: Vec<(&str, Json)> =
        counters.integers().into_iter().map(|(k, v)| (k, Json::Int(v as i64))).collect();
    out.note("counters", Json::obj(ints));
}

fn counters_of(report: &RevReport) -> Counters {
    let mut c = Counters::default();
    c.add(report);
    c
}

/// The traced workload: set-up split into its layers, one untraced and
/// one traced window per profile (their difference is the tracing
/// overhead, their counters must agree), and a REV-off baseline over
/// the same window for the monitor's host cost.
pub fn run_traced(seed: u64, spans_path: &std::path::Path, out: &mut Outcome) {
    let config = RevConfig::paper_default();
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let mut untraced = Counters::default();
    let mut traced = Counters::default();
    let (mut untraced_s, mut traced_s, mut base_s) = (0.0, 0.0, 0.0);
    let (mut base_instrs, mut image_bytes) = (0u64, 0u64);
    for name in PROFILES {
        let (mut sim, bytes) = build_traced(&derived_profile(name, seed), config, &tracer, 0);
        image_bytes += bytes;
        tracer.span("core.warmup", 0, || sim.warmup(WARMUP));

        let fork = tracer.span("core.fork", 0, || sim.fork()).expect("warmed simulators fork");
        let t = Instant::now();
        let plain = window(fork, &off, &mut Vec::new());
        untraced_s += t.elapsed().as_secs_f64();
        let fork = tracer.span("core.fork", 0, || sim.fork()).expect("warmed simulators fork");
        let t = Instant::now();
        let report = window(fork, &tracer, &mut Vec::new());
        traced_s += t.elapsed().as_secs_f64();
        out.attempted += 2;
        check_window(name, &plain, out);
        check_window(name, &report, out);
        untraced.add(&plain);
        traced.add(&report);

        let t = Instant::now();
        let base =
            tracer.span("cpu.baseline", 0, || sim.run_baseline_with_warmup(WARMUP, INSTRUCTIONS));
        let full = t.elapsed().as_secs_f64();
        let t = Instant::now();
        tracer.span("cpu.baseline_warmup", 0, || sim.run_baseline(WARMUP));
        base_s += full - t.elapsed().as_secs_f64();
        base_instrs += base.cpu.committed_instrs;
    }
    if untraced != traced {
        out.fail("the traced window's counters differ from the untraced window's");
    }
    check_digest(seed, &traced, out);

    let spans = tracer.spans();
    crate::trace::write_spans(&spans, spans_path);
    let own = self_times(&spans);
    let total = total_times(&spans);
    let rev_ns = secs(&total, "core.run") * 1e9 / traced.committed.max(1) as f64;
    let base_ns = base_s * 1e9 / base_instrs.max(1) as f64;
    out.build_layers(&own);
    out.layer_int("sigtable.image_bytes", image_bytes);
    out.layer("core.run_s", secs(&total, "core.run"));
    out.layer("core.fork_s", secs(&own, "core.fork"));
    out.layer("core.rev_ns_per_instr", rev_ns);
    out.layer("cpu.base_ns_per_instr", base_ns);
    out.layer("core.monitor_ns_per_instr", rev_ns - base_ns);
    out.layer("trace.overhead_s", traced_s - untraced_s);
    out.counter_layers(&traced);
    out.note("traced_window_s", Json::Float(traced_s));
    out.note("untraced_window_s", Json::Float(untraced_s));
    out.note("spans", Json::Int(spans.len() as i64));
}
