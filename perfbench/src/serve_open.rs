//! `serve-open`: `rev-serve/2` traffic, driven in-process through
//! `rev_serve::server::serve` with 2 workers, the default slice and a
//! checkpoint every slice.
//!
//! The run has two timed parts. The open-loop part sends `RATE` jobs per
//! second, one arrival uniform within each `1/RATE`-second slot, in the
//! fewest whole blocks of 54 jobs that fill `--seconds`. Every block
//! holds each pair of the 18 profiles and the measured lengths (100k,
//! 250k, 500k) once, as 18 triples of one job per length, so long jobs
//! never bunch up; the seed fixes the order within and across triples
//! and a balanced draw of the configurations (std-32K, std-64K,
//! aggressive, cfi-only) per block, at scale 0.05 with 50k warmup. A
//! generator thread sends each `submit` at its due time; every response
//! line is timestamped as the gateway writes it, and a job's latency
//! runs from its due time to its verdict line. The closed part then
//! submits `BURSTS` bursts of one 250k job per profile at once (seeded
//! configurations) and times each from gateway start to its last
//! verdict: the drain time and throughput the gateway itself sets,
//! where the open-loop part's span is set by the schedule.
//!
//! Outside the timed parts each verdict is checked byte for byte
//! against `verdict_snapshot` of a batch run of the same spec (untraced)
//! or of a client-side session re-drive that checkpoints every slice and
//! resumes once from a restored checkpoint (traced).

use crate::report::Outcome;
use crate::stats::{median, quantile, Counters, Rng};
use crate::trace::{build_traced, secs, self_times, total_times, Tracer};
use rev_bench::{parallel_map, run_rev_only, BenchOptions};
use rev_core::{RevReport, Session, SessionStatus};
use rev_serve::proto::VerdictOutcome;
use rev_serve::{verdict_snapshot, JobConfig, JobSpec, Request, Response, ServeOptions};
use rev_sigtable::ValidationMode;
use rev_trace::Json;
use rev_workloads::{SpecProfile, ALL_PROFILES};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, Read, Write};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// Offered load in jobs per second: about half of what the 2-worker
/// gateway sustains on a 2-vCPU Intel Xeon host for this job mix.
const RATE: f64 = 4.0;
const WORKERS: usize = 2;
const SCALE: f64 = 0.05;
const WARMUP: u64 = 50_000;
const LENGTHS: [u64; 3] = [100_000, 250_000, 500_000];
/// Closed bursts timed for `wall_s` and `sim_minstr_per_s`.
const BURSTS: usize = 8;
/// Measured instructions of every burst job.
const BURST_LENGTH: u64 = 250_000;
/// Lead time between the handshake and the first due time.
const LEAD: Duration = Duration::from_millis(100);
/// A run whose generator sent any job a whole arrival slot late no
/// longer offered the planned traffic: it is marked invalid.
const MAX_GEN_LAG_S: f64 = 1.0 / RATE;
/// Cold gateway starts timed for `setup_s`.
const SETUP_REPS: usize = 9;

fn configs() -> [(&'static str, JobConfig); 4] {
    let cfg = |mode, sc_kib| JobConfig { mode, sc_kib, superblocks: true };
    [
        ("std-32K", cfg(ValidationMode::Standard, 32)),
        ("std-64K", cfg(ValidationMode::Standard, 64)),
        ("aggressive", cfg(ValidationMode::Aggressive, 32)),
        ("cfi-only", cfg(ValidationMode::CfiOnly, 32)),
    ]
}

/// `n` items cycling through `choices`, shuffled.
fn balanced<T: Clone>(rng: &mut Rng, choices: &[T], n: usize) -> Vec<T> {
    let mut v: Vec<T> = choices.iter().cycle().take(n).cloned().collect();
    rng.shuffle(&mut v);
    v
}

fn spec(id: String, profile: &str, length: u64, config: &(&str, JobConfig)) -> JobSpec {
    let mut spec = JobSpec::new(id, profile, length);
    spec.scale = SCALE;
    spec.warmup = WARMUP;
    spec.label = config.0.to_string();
    spec.config = config.1.clone();
    spec
}

/// One scheduled job: its due offset from the schedule start and spec.
struct Planned {
    due_s: f64,
    spec: JobSpec,
}

/// The open-loop schedule: whole blocks of 18 triples, each triple one
/// job of every length, each block every (profile, length) pair once.
fn schedule(rng: &mut Rng, seconds: f64) -> Vec<Planned> {
    let per_block = ALL_PROFILES.len() * LENGTHS.len();
    let blocks = ((RATE * seconds / per_block as f64).ceil() as usize).max(1);
    let mut plan = Vec::with_capacity(blocks * per_block);
    for _ in 0..blocks {
        let profiles: Vec<Vec<&str>> = LENGTHS
            .iter()
            .map(|_| {
                let mut names: Vec<&str> = ALL_PROFILES.iter().map(|p| p.name).collect();
                rng.shuffle(&mut names);
                names
            })
            .collect();
        let cfgs = balanced(rng, &configs(), per_block);
        for t in 0..ALL_PROFILES.len() {
            let mut order = [0, 1, 2];
            rng.shuffle(&mut order);
            for l in order {
                let i = plan.len();
                let due_s = (i as f64 + rng.unit()) / RATE;
                let id = format!("j{i:04}");
                plan.push(Planned {
                    due_s,
                    spec: spec(id, profiles[l][t], LENGTHS[l], &cfgs[i % per_block]),
                });
            }
        }
    }
    plan
}

/// The closed bursts: one job per profile each, seeded configurations.
fn bursts(rng: &mut Rng) -> Vec<Vec<JobSpec>> {
    (0..BURSTS)
        .map(|b| {
            let cfgs = balanced(rng, &configs(), ALL_PROFILES.len());
            ALL_PROFILES
                .iter()
                .zip(&cfgs)
                .map(|(p, c)| spec(format!("b{b}-{}", p.name), p.name, BURST_LENGTH, c))
                .collect()
        })
        .collect()
}

/// Request lines arriving over a channel: the gateway's input stream.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            // A closed channel is end of input.
            self.buf = self.rx.recv().unwrap_or_default();
            self.pos = 0;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.buf.len());
    }
}

/// The gateway's output stream: every complete line with the instant
/// its newline was written.
#[derive(Default)]
struct Capture {
    partial: Vec<u8>,
    lines: Vec<(Instant, Vec<u8>)>,
}

impl Write for Capture {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        for chunk in bytes.split_inclusive(|&b| b == b'\n') {
            self.partial.extend_from_slice(chunk);
            if chunk.ends_with(b"\n") {
                self.lines.push((now, std::mem::take(&mut self.partial)));
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn line(req: &Request) -> Vec<u8> {
    let mut l = req.to_json().render().into_bytes();
    l.push(b'\n');
    l
}

fn hello() -> Request {
    Request::Hello { proto: rev_serve::PROTOCOL.to_string() }
}

fn serve_options() -> ServeOptions {
    ServeOptions { workers: WORKERS, ckpt_every: 1, ..ServeOptions::default() }
}

fn parse(raw: &[u8]) -> Option<Response> {
    let text = std::str::from_utf8(raw).ok()?;
    Response::from_json(&rev_trace::json::parse(text.trim_end()).ok()?).ok()
}

/// A whole gateway session fed at once: hello, every job, shutdown.
fn closed_input(jobs: &[JobSpec]) -> Vec<u8> {
    let mut input = line(&hello());
    for job in jobs {
        input.extend(line(&Request::Submit(Box::new(job.clone()))));
    }
    input.extend(line(&Request::Shutdown { suspend: false }));
    input
}

/// Median time from a cold gateway start to the verdict of one small
/// probe job (mcf, 20k instructions): the set-up a client waits through
/// before the gateway serves anything.
fn setup_seconds() -> f64 {
    let mut probe = JobSpec::new("probe", "mcf", 20_000);
    probe.scale = SCALE;
    let input = closed_input(&[probe]);
    let samples: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let mut cap = Capture::default();
            let t = Instant::now();
            rev_serve::serve(input.as_slice(), &mut cap, &serve_options());
            cap.lines
                .iter()
                .find(|(_, l)| matches!(parse(l), Some(Response::Verdict { .. })))
                .map_or_else(|| t.elapsed(), |(at, _)| *at - t)
                .as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Everything one job went through, as seen by the client.
#[derive(Default)]
struct JobTrace {
    due: Option<Instant>,
    accepted: Option<Instant>,
    progress: Vec<Instant>,
    verdict: Option<(Instant, VerdictOutcome, String)>,
    error: Option<String>,
}

/// Files every response line of one gateway session under its job;
/// returns the gateway's closing metrics.
fn collect(cap: &Capture, jobs: &mut HashMap<String, JobTrace>, out: &mut Outcome) -> Json {
    let mut gateway = Json::Null;
    for (at, raw) in &cap.lines {
        match parse(raw) {
            Some(Response::Accepted { id, .. }) => jobs.entry(id).or_default().accepted = Some(*at),
            Some(Response::Progress { id, .. }) => jobs.entry(id).or_default().progress.push(*at),
            Some(Response::Verdict { id, outcome, snapshot }) => {
                jobs.entry(id).or_default().verdict = Some((*at, outcome, snapshot.render()));
            }
            Some(Response::Error { id, code, message, .. }) => {
                let why = format!("{}: {message}", code.as_str());
                match id {
                    Some(id) => jobs.entry(id).or_default().error = Some(why),
                    None => out.fail(format!("gateway error: {why}")),
                }
            }
            Some(Response::Metrics { metrics }) => gateway = metrics,
            Some(_) => {}
            None => out.fail(format!("unparseable gateway line: {}", String::from_utf8_lossy(raw))),
        }
    }
    gateway
}

fn committed(gateway: &Json) -> u64 {
    gateway.get("serve.instructions_committed").and_then(Json::as_u64).unwrap_or(0)
}

/// Counts every job of `specs` as attempted and fails those without a
/// `budget` verdict; returns the instant of the last verdict.
fn check_outcomes(
    specs: &[&JobSpec],
    jobs: &HashMap<String, JobTrace>,
    out: &mut Outcome,
) -> Option<Instant> {
    out.attempted += specs.len() as u64;
    let mut last = None;
    for spec in specs {
        let j = jobs.get(&spec.id);
        match (j.and_then(|j| j.verdict.as_ref()), j.and_then(|j| j.error.as_ref())) {
            (_, Some(e)) => out.fail(format!("{}: {e}", spec.id)),
            (None, None) => out.fail(format!("{}: no verdict", spec.id)),
            (Some((at, outcome, _)), None) => {
                if *outcome != VerdictOutcome::Budget {
                    out.fail(format!("{}: outcome {}", spec.id, outcome.as_str()));
                }
                last = last.max(Some(*at));
            }
        }
    }
    last
}

/// The distinct simulation a job asks for (jobs differ only in id).
type Key = (String, String, u64);

fn key(spec: &JobSpec) -> Key {
    (spec.profile.clone(), spec.label.clone(), spec.instructions)
}

fn profile_of(spec: &JobSpec) -> SpecProfile {
    SpecProfile::by_name(&spec.profile).expect("scheduled profiles exist").scaled(spec.scale)
}

/// A reference run of one spec, with what the traced re-drive learned
/// on the way (zeros for a batch run).
struct Reference {
    report: RevReport,
    image_bytes: u64,
    ckpt_bytes: u64,
    ckpts: u64,
}

/// The untraced reference: a batch-harness run of the spec.
fn batch_reference(spec: &JobSpec) -> Reference {
    let opts = BenchOptions {
        instructions: spec.instructions,
        warmup: spec.warmup,
        scale: spec.scale,
        quiet: true,
        superblocks: spec.config.superblocks,
        ..BenchOptions::default()
    };
    let report = run_rev_only(&profile_of(spec), &opts, spec.config.to_rev_config());
    Reference { report, image_bytes: 0, ckpt_bytes: 0, ckpts: 0 }
}

/// The traced reference: the gateway's job path rebuilt from public
/// pieces — build, warm, slice, checkpoint every slice — resuming from a
/// restored checkpoint after the first slice.
fn session_redrive(spec: &JobSpec, tracer: &Tracer, w: usize, slice: u64) -> Reference {
    let (mut sim, image_bytes) =
        build_traced(&profile_of(spec), spec.config.to_rev_config(), tracer, w);
    // A cold copy for the restore (a checkpoint restores onto a simulator
    // of the same structure that has not run).
    let spare = sim.fork().expect("cold simulators fork");
    tracer.span("core.warmup", w, || sim.warmup(spec.warmup));
    let recipe = format!("{:?}", key(spec)).into_bytes();
    let mut session = Session::new(sim, spec.instructions);
    let mut spare = Some(spare);
    let (mut ckpt_bytes, mut ckpts) = (0u64, 0u64);
    loop {
        match tracer.span("core.run", w, || session.run(slice)) {
            SessionStatus::Yielded { .. } => {
                let env = tracer
                    .span("core.ckpt_encode", w, || session.checkpoint(&recipe))
                    .expect("live sessions checkpoint");
                ckpt_bytes += env.len() as u64;
                ckpts += 1;
                if let Some(cold) = spare.take() {
                    session = tracer
                        .span("core.ckpt_restore", w, || Session::restore(cold, &env))
                        .expect("a fresh checkpoint restores");
                }
            }
            SessionStatus::Done(report) => {
                return Reference { report: *report, image_bytes, ckpt_bytes, ckpts };
            }
        }
    }
}

/// The open-loop part: sends `plan` on schedule to one gateway session.
/// Returns the capture and, per job, its due time and when it was sent.
fn open_loop(plan: &[Planned]) -> (Capture, Vec<(Instant, Instant)>) {
    let (tx, rx) = channel::<Vec<u8>>();
    let mut cap = Capture::default();
    let mut sent = Vec::new();
    std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let _ = tx.send(line(&hello()));
            let start = Instant::now() + LEAD;
            let mut sent = Vec::with_capacity(plan.len());
            for job in plan {
                let due = start + Duration::from_secs_f64(job.due_s);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let _ = tx.send(line(&Request::Submit(Box::new(job.spec.clone()))));
                sent.push((due, Instant::now()));
            }
            let _ = tx.send(line(&Request::Shutdown { suspend: false }));
            drop(tx);
            sent
        });
        let reader = ChannelReader { rx, buf: Vec::new(), pos: 0 };
        rev_serve::serve(reader, &mut cap, &serve_options());
        sent = generator.join().expect("generator thread");
    });
    (cap, sent)
}

/// Runs the workload; `trace` selects the traced reference and the
/// per-layer metrics.
pub fn run(seed: u64, seconds: f64, trace: bool, spans_path: &std::path::Path, out: &mut Outcome) {
    let tracer = &Tracer::new(trace);
    let setup_s = setup_seconds();
    let mut rng = Rng(seed ^ 0x5e7e_0be7);
    let plan = schedule(&mut rng, seconds);
    let bursts = bursts(&mut rng);
    let (cap, sent) = open_loop(&plan);
    let mut jobs: HashMap<String, JobTrace> = HashMap::new();
    for (p, &(due, _)) in plan.iter().zip(&sent) {
        jobs.entry(p.spec.id.clone()).or_default().due = Some(due);
    }
    let gateway = collect(&cap, &mut jobs, out);
    let mut drains = Vec::new();
    let mut burst_rates = Vec::new();
    for burst in &bursts {
        let input = closed_input(burst);
        let mut cap = Capture::default();
        let t = Instant::now();
        rev_serve::serve(input.as_slice(), &mut cap, &serve_options());
        let metrics = collect(&cap, &mut jobs, out);
        let specs: Vec<&JobSpec> = burst.iter().collect();
        let drain_s =
            (check_outcomes(&specs, &jobs, out).unwrap_or_else(Instant::now) - t).as_secs_f64();
        drains.push(drain_s);
        burst_rates.push(committed(&metrics) as f64 / drain_s / 1e6);
    }
    let rss = crate::stats::peak_rss_mb();

    // End-to-end: latency from due time to verdict, per open-loop job.
    let open_specs: Vec<&JobSpec> = plan.iter().map(|p| &p.spec).collect();
    check_outcomes(&open_specs, &jobs, out);
    let latencies: Vec<f64> = plan
        .iter()
        .filter_map(|p| {
            let j = &jobs[&p.spec.id];
            Some((j.verdict.as_ref()?.0 - j.due?).as_secs_f64())
        })
        .collect();
    let max_lag = sent.iter().map(|&(due, at)| (at - due).as_secs_f64()).fold(0.0, f64::max);
    out.sample("setup_s", [setup_s]);
    out.sample("wall_s", drains.iter().copied());
    out.sample("sim_minstr_per_s", burst_rates);
    out.sample("peak_rss_mb", [rss]);
    if max_lag > MAX_GEN_LAG_S {
        out.invalid = Some(format!(
            "the generator sent a job {max_lag:.3} s after its due time (limit {MAX_GEN_LAG_S} s)"
        ));
    } else {
        out.sample("latency_p50_s", [quantile(&latencies, 0.5)]);
        out.sample("latency_p90_s", [quantile(&latencies, 0.9)]);
    }
    let mut edges: Vec<(Instant, i64)> = Vec::new();
    for p in &plan {
        let j = &jobs[&p.spec.id];
        if let (Some(a), Some((v, _, _))) = (j.accepted, &j.verdict) {
            edges.push((a, 1));
            edges.push((*v, -1));
        }
    }
    edges.sort();
    let max_in_flight = edges
        .iter()
        .scan(0i64, |n, e| {
            *n += e.1;
            Some(*n)
        })
        .max()
        .unwrap_or(0);
    out.note("max_in_flight", Json::Int(max_in_flight));
    out.note("jobs", Json::Int(plan.len() as i64));
    out.note("burst_jobs", Json::Int((BURSTS * ALL_PROFILES.len()) as i64));
    out.note("offered_jobs_per_s", Json::Float(RATE));
    out.note("max_gen_lag_s", Json::Float(max_lag));
    out.note("gateway", gateway.clone());

    // Reference verdicts, outside the timed parts: one simulation per
    // distinct spec, rendered under each job's own id.
    let every: Vec<&JobSpec> = open_specs.iter().copied().chain(bursts.iter().flatten()).collect();
    let mut distinct: BTreeMap<Key, JobSpec> = BTreeMap::new();
    for spec in &every {
        distinct.entry(key(spec)).or_insert_with(|| (*spec).clone());
    }
    let specs: Vec<JobSpec> = distinct.into_values().collect();
    let slice = serve_options().slice;
    let root = tracer.current();
    let refs: Vec<Reference> = parallel_map(WORKERS, &specs, |w, spec| {
        if trace {
            tracer.span_under(root, "serve.redrive", w, || session_redrive(spec, tracer, w, slice))
        } else {
            batch_reference(spec)
        }
    });
    let by_key: HashMap<Key, &RevReport> =
        specs.iter().zip(&refs).map(|(s, r)| (key(s), &r.report)).collect();
    let mut mismatched = 0;
    for spec in &every {
        if let Some((_, _, got)) = &jobs[&spec.id].verdict {
            let want = verdict_snapshot(spec, by_key[&key(spec)]).to_json().render();
            if *got != want {
                mismatched += 1;
                out.fail(format!("{}: verdict differs from its reference run", spec.id));
            }
        }
    }
    out.note("reference_runs", Json::Int(specs.len() as i64));
    out.note("verdict_mismatches", Json::Int(mismatched));

    if !trace {
        return;
    }
    // Per-layer: gateway phases from the open-loop event log, the job
    // path from the re-drive's spans.
    let mut admit = Vec::new();
    let mut first = Vec::new();
    let mut interval = Vec::new();
    let mut tail = Vec::new();
    for p in &plan {
        let j = &jobs[&p.spec.id];
        let (Some(due), Some(acc)) = (j.due, j.accepted) else { continue };
        admit.push((acc - due).as_secs_f64());
        if let Some(&f) = j.progress.first() {
            first.push((f - acc).as_secs_f64());
        }
        interval.extend(j.progress.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()));
        if let Some((at, _, _)) = &j.verdict {
            tail.push((*at - *j.progress.last().unwrap_or(&acc)).as_secs_f64());
        }
    }
    out.layer("serve.admit_s", median(&admit));
    out.layer("serve.first_progress_s", median(&first));
    out.layer("serve.slice_interval_s", median(&interval));
    out.layer("serve.verdict_tail_s", median(&tail));
    out.layer("serve.gen_lag_s", max_lag);
    out.layer_int(
        "unreached.ckpt.restored",
        gateway.get("ckpt.restored").and_then(Json::as_u64).unwrap_or(0),
    );
    // The gateway parts are the same code in both modes (responses are
    // timestamped either way), so tracing adds nothing to their timing.
    out.layer("trace.overhead_s", 0.0);

    let spans = tracer.spans();
    crate::trace::write_spans(&spans, spans_path);
    let own = self_times(&spans);
    let total = total_times(&spans);
    let mut counters = Counters::default();
    let (mut image_bytes, mut ckpt_bytes, mut ckpts) = (0u64, 0u64, 0u64);
    for r in &refs {
        counters.add(&r.report);
        image_bytes += r.image_bytes;
        ckpt_bytes += r.ckpt_bytes;
        ckpts += r.ckpts;
    }
    out.build_layers(&own);
    out.layer_int("sigtable.image_bytes", image_bytes);
    out.layer("core.run_s", secs(&total, "core.run"));
    out.layer(
        "core.rev_ns_per_instr",
        secs(&total, "core.run") * 1e9 / counters.committed.max(1) as f64,
    );
    out.layer("core.ckpt_encode_s", secs(&own, "core.ckpt_encode"));
    out.layer_int("core.ckpt_bytes", ckpt_bytes);
    out.layer_int("core.ckpt_count", ckpts);
    out.layer("core.ckpt_restore_s", secs(&own, "core.ckpt_restore"));
    out.counter_layers(&counters);
    out.note("counters_digest", Json::Str(counters.digest()));
    out.note("spans", Json::Int(spans.len() as i64));
}
