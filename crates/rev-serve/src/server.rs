//! The gateway itself: a reader loop feeding a supervised worker pool of
//! suspendable [`Session`]s.
//!
//! One [`serve`] call handles one connection (stdio or one TCP client).
//! The calling thread parses requests; `workers` pool threads pop jobs
//! from a shared round-robin queue and advance each by one
//! committed-instruction *slice* at a time. A job that yields goes to
//! the back of the queue, so N workers interleave M jobs fairly even
//! when M > N — the enabling property is that a [`Session`] is `Send`
//! and slicing is exact (see `DESIGN.md` §12). Every event is one JSON
//! line on the shared writer, flushed atomically under a mutex.
//!
//! # Fault tolerance
//!
//! Workers are *supervised*: a panic while advancing a job is caught,
//! and the job is re-dispatched from its last `rev-ckpt/1` checkpoint
//! (sealed every [`ServeOptions::ckpt_every`] slices) with bounded
//! retry and linear backoff. Because checkpoint/restore is byte-exact
//! (see `docs/CHECKPOINT.md`), a crashed-and-restored job produces a
//! verdict payload byte-identical to an undisturbed run. A checkpoint
//! that fails its integrity checksum is *never* restored — the job is
//! retired fail-closed with a `ckpt-corrupt` error. Per-job wall-clock
//! deadlines kill stuck jobs at their next scheduling point, the
//! bounded admission queue sheds overload with `overloaded` +
//! `retry_after_ms`, request lines are length-capped, and a client that
//! disconnects mid-stream never wedges a worker: output is discarded
//! and the drain completes. The [`ChaosPlan`] hooks let tests and the
//! `rev-chaos --serve` campaign inject exactly these faults.

use crate::proto::{
    mode_label, ErrorCode, JobSpec, ProtoError, Request, Response, VerdictOutcome, MAX_LINE_BYTES,
    PROTOCOL, RESULT_SCHEMA,
};
use rev_core::{RevReport, RevSimulator, RunOutcome, Session, SessionStatus};
use rev_trace::{lock_unpoisoned, Json, MetricRegistry, MetricSink, Snapshot};
use rev_workloads::SpecProfile;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, PoisonError};
use std::time::{Duration, Instant};

/// Injected service-layer faults, used by tests and the `rev-chaos
/// --serve` campaign. All hooks are inert by default; none of them can
/// change a verdict payload byte (the recovery machinery they exercise
/// is byte-exact).
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// `(job id, slice index)`: the worker panics once, at the entry of
    /// that scheduling slice of that job (first attempt only — the
    /// retried attempt proceeds).
    pub panics: Vec<(String, u64)>,
    /// Job ids whose stored checkpoint gets one byte flipped before a
    /// crash-restore — the envelope checksum must catch it.
    pub corrupt_ckpt: Vec<String>,
    /// `(job id, milliseconds)`: the worker sleeps that long at the
    /// entry of every slice of that job (a slow/stuck worker).
    pub stall_ms: Vec<(String, u64)>,
}

/// Gateway tuning knobs (the `rev-serve` command line maps onto this).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads advancing sessions (0 = host parallelism).
    pub workers: usize,
    /// Committed-instruction budget per scheduling slice.
    pub slice: u64,
    /// Suppress the stderr narration (job lifecycle notes).
    pub quiet: bool,
    /// Bounded admission queue: maximum live jobs before submits are
    /// shed with `overloaded` (0 = unbounded).
    pub queue_cap: usize,
    /// Crash retries per job before it is retired with `crashed`.
    pub max_retries: u32,
    /// Base backoff before a crash re-dispatch, scaled linearly by the
    /// attempt number.
    pub retry_backoff_ms: u64,
    /// Checkpoint cadence: seal a `rev-ckpt/1` envelope every N yielded
    /// slices (0 = never checkpoint; crashes then retry from scratch).
    pub ckpt_every: u64,
    /// Injected faults (inert by default).
    pub chaos: ChaosPlan,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: default_workers(),
            slice: 50_000,
            quiet: true,
            queue_cap: 256,
            max_retries: 2,
            retry_backoff_ms: 25,
            ckpt_every: 1,
            chaos: ChaosPlan::default(),
        }
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Every `serve.*`/`ckpt.*` metric the gateway exports, in documentation
/// order — the doc-coverage test checks each against `docs/SERVE.md`.
pub const SERVE_METRICS: &[&str] = &[
    "serve.jobs.submitted",
    "serve.jobs.completed",
    "serve.jobs.cancelled",
    "serve.jobs.rejected",
    "serve.jobs.quota_exceeded",
    "serve.jobs.failed",
    "serve.jobs.deadline",
    "serve.jobs.shed",
    "serve.jobs.crashed",
    "serve.jobs.suspended",
    "serve.retries",
    "serve.slices",
    "serve.progress_events",
    "serve.instructions_committed",
    "ckpt.taken",
    "ckpt.restored",
    "ckpt.corrupt",
];

/// Gateway lifecycle counters, exported as the `serve.*` registry.
#[derive(Debug, Default, Clone)]
struct Counters {
    submitted: u64,
    completed: u64,
    cancelled: u64,
    rejected: u64,
    quota_exceeded: u64,
    failed: u64,
    deadline: u64,
    shed: u64,
    crashed: u64,
    suspended: u64,
    retries: u64,
    slices: u64,
    progress_events: u64,
    instructions_committed: u64,
    ckpt_taken: u64,
    ckpt_restored: u64,
    ckpt_corrupt: u64,
}

impl Counters {
    fn registry(&self) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        reg.counter("serve.jobs.submitted", self.submitted);
        reg.counter("serve.jobs.completed", self.completed);
        reg.counter("serve.jobs.cancelled", self.cancelled);
        reg.counter("serve.jobs.rejected", self.rejected);
        reg.counter("serve.jobs.quota_exceeded", self.quota_exceeded);
        reg.counter("serve.jobs.failed", self.failed);
        reg.counter("serve.jobs.deadline", self.deadline);
        reg.counter("serve.jobs.shed", self.shed);
        reg.counter("serve.jobs.crashed", self.crashed);
        reg.counter("serve.jobs.suspended", self.suspended);
        reg.counter("serve.retries", self.retries);
        reg.counter("serve.slices", self.slices);
        reg.counter("serve.progress_events", self.progress_events);
        reg.counter("serve.instructions_committed", self.instructions_committed);
        reg.counter("ckpt.taken", self.ckpt_taken);
        reg.counter("ckpt.restored", self.ckpt_restored);
        reg.counter("ckpt.corrupt", self.ckpt_corrupt);
        reg
    }
}

/// One queued or in-flight job. The simulator is assembled lazily on the
/// job's first slice, on a worker thread — `submit` stays cheap and
/// build errors surface as job-scoped `build-failed` events.
struct Job {
    spec: JobSpec,
    session: Option<Session>,
    cancel: Arc<AtomicBool>,
    /// Last sealed `rev-ckpt/1` envelope — the crash-recovery point.
    ckpt: Option<Vec<u8>>,
    /// Crash retries consumed so far.
    attempts: u32,
    /// Scheduling slices completed (drives the checkpoint cadence and
    /// the chaos panic trigger).
    slices_run: u64,
    /// Wall-clock deadline, fixed at acceptance.
    deadline: Option<Instant>,
}

struct State {
    queue: VecDeque<Job>,
    /// Live job ids → cancel flags (queued and mid-slice jobs alike).
    live: HashMap<String, Arc<AtomicBool>>,
    accepting: bool,
    /// A suspending shutdown was requested: drain jobs to checkpoints.
    suspending: bool,
    counters: Counters,
}

struct Shared<W: Write> {
    state: Mutex<State>,
    work_ready: Condvar,
    writer: Mutex<W>,
    opts: ServeOptions,
    /// Set once a write to the client fails; all further output is
    /// discarded so workers drain instead of wedging on a dead socket.
    client_gone: AtomicBool,
}

impl<W: Write> Shared<W> {
    fn new(output: W, opts: &ServeOptions) -> Self {
        let mut opts = opts.clone();
        opts.slice = opts.slice.max(1);
        Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                live: HashMap::new(),
                accepting: true,
                suspending: false,
                counters: Counters::default(),
            }),
            work_ready: Condvar::new(),
            writer: Mutex::new(output),
            opts,
            client_gone: AtomicBool::new(false),
        }
    }

    /// Emits one response line, atomically, flushed. A write failure
    /// (client disconnected mid-stream) marks the client gone and turns
    /// every later emit into a no-op — never a panic, never a wedge.
    fn emit(&self, resp: &Response) {
        if self.client_gone.load(Ordering::Relaxed) {
            return;
        }
        let mut w = lock_unpoisoned(&self.writer);
        let wrote = writeln!(w, "{}", resp.render_line()).and_then(|()| w.flush());
        if wrote.is_err() {
            self.client_gone.store(true, Ordering::Relaxed);
            self.narrate("client disconnected mid-stream; discarding further output");
        }
    }

    fn narrate(&self, msg: &str) {
        if !self.opts.quiet {
            eprintln!("rev-serve: {msg}");
        }
    }
}

/// Builds the `rev-trace/1` result payload for a finished job.
///
/// The registry is assembled exactly as the batch harness does it in
/// `snapshot_from_runs` — cpu, then rev, then mem `export_metrics` into
/// one sorted registry under `profiles.<profile>.<label>` — so a verdict
/// payload is *byte-identical* to the corresponding entry of a
/// `BENCH_rev.json` produced at the same profile, instruction budget,
/// warmup, scale and config (the daemon equivalence test pins this).
/// `meta` carries the job parameters and, like every `rev-trace/1`
/// snapshot, is informative only: no wall clock, fully deterministic.
pub fn verdict_snapshot(spec: &JobSpec, report: &RevReport) -> Snapshot {
    let mut snap = Snapshot::new();
    snap.meta_entry("id", Json::Str(spec.id.clone()));
    snap.meta_entry("profile", Json::Str(spec.profile.clone()));
    snap.meta_entry("instructions", Json::Int(spec.instructions as i64));
    snap.meta_entry("warmup", Json::Int(spec.warmup as i64));
    snap.meta_entry("scale", Json::Float(spec.scale));
    snap.meta_entry("mode", Json::Str(mode_label(spec.config.mode).to_string()));
    snap.meta_entry("configs", Json::Arr(vec![Json::Str(spec.label.clone())]));
    let mut reg = MetricRegistry::new();
    report.cpu.export_metrics(&mut reg);
    report.rev.export_metrics(&mut reg);
    report.mem.export_metrics(&mut reg);
    snap.add_metrics(&spec.profile, &spec.label, reg);
    snap
}

/// The scale rule of the batch harness (`BenchOptions::profiles`),
/// applied to one profile: exact 1.0 keeps the static footprints,
/// anything else scales them.
fn resolve_profile(name: &str, scale: f64) -> Option<SpecProfile> {
    let p = SpecProfile::by_name(name)?;
    Some(if (scale - 1.0).abs() < 1e-9 { p.clone() } else { p.scaled(scale) })
}

/// How a retiring job leaves the system (drives the `serve.*` counter).
enum Retire {
    Completed,
    Cancelled,
    QuotaExceeded,
    BuildFailed,
    Deadline,
    Crashed,
    /// The crash-recovery checkpoint failed its checksum; the job is
    /// retired fail-closed (counted under both `serve.jobs.crashed` and
    /// `ckpt.corrupt`).
    CkptCorrupt,
    Suspended,
}

/// What one scheduling slice did to a job.
enum SliceOutcome {
    /// Budget exhausted; the job goes to the back of the queue.
    Yielded { committed: u64 },
    /// The run ended; emit the response and drop the job.
    Finished(Box<Response>, Retire),
}

/// Advances `job` by one scheduling slice (assembling the simulator
/// first when this is the job's first). Returns the outcome plus the
/// committed-instruction delta of the slice.
fn run_one_slice(job: &mut Job, slice: u64, chaos: &ChaosPlan) -> (SliceOutcome, u64) {
    // Cancellation is observed at slice granularity: the flag is checked
    // here, between slices, and the response carries the instruction
    // count at which the cancel landed.
    if job.cancel.load(Ordering::SeqCst) {
        let committed = job.session.as_ref().map_or(0, Session::committed);
        let resp = Response::Cancelled { id: job.spec.id.clone(), committed };
        return (SliceOutcome::Finished(Box::new(resp), Retire::Cancelled), 0);
    }
    if let Some(&(_, ms)) = chaos.stall_ms.iter().find(|(id, _)| id == &job.spec.id) {
        std::thread::sleep(Duration::from_millis(ms));
    }
    if job.session.is_none() {
        match build_session(&job.spec) {
            Ok(session) => job.session = Some(session),
            Err(message) => {
                let resp = Response::Error {
                    id: Some(job.spec.id.clone()),
                    code: ErrorCode::BuildFailed,
                    message,
                    retry_after_ms: None,
                };
                return (SliceOutcome::Finished(Box::new(resp), Retire::BuildFailed), 0);
            }
        }
    }
    if job.attempts == 0
        && chaos.panics.iter().any(|(id, at)| id == &job.spec.id && *at == job.slices_run)
    {
        panic!("chaos: injected worker panic on job {} at slice {}", job.spec.id, job.slices_run);
    }
    let session = job.session.as_mut().expect("session built above");
    // A quota shrinks the slice so the session can never run far past it
    // (the commit stage may overshoot by at most one commit width).
    let budget = match job.spec.quota {
        Some(quota) => {
            let remaining = quota.saturating_sub(session.committed());
            if remaining == 0 {
                let resp = quota_error(&job.spec, session.committed());
                return (SliceOutcome::Finished(Box::new(resp), Retire::QuotaExceeded), 0);
            }
            slice.min(remaining)
        }
        None => slice,
    };
    let before = session.committed();
    let status = session.run(budget);
    job.slices_run += 1;
    match status {
        SessionStatus::Yielded { committed } => {
            let delta = committed - before;
            if job.spec.quota.is_some_and(|q| committed >= q) {
                let resp = quota_error(&job.spec, committed);
                (SliceOutcome::Finished(Box::new(resp), Retire::QuotaExceeded), delta)
            } else {
                (SliceOutcome::Yielded { committed }, delta)
            }
        }
        SessionStatus::Done(report) => {
            let delta = report.cpu.committed_instrs.saturating_sub(before);
            let outcome = match &report.outcome {
                RunOutcome::BudgetReached => VerdictOutcome::Budget,
                RunOutcome::Halted => VerdictOutcome::Halted,
                RunOutcome::Violation(v) => VerdictOutcome::Violation(v.kind.to_string()),
                RunOutcome::OracleFault { .. } => VerdictOutcome::OracleFault,
            };
            let resp = Response::Verdict {
                id: job.spec.id.clone(),
                outcome,
                snapshot: verdict_snapshot(&job.spec, &report).to_json(),
            };
            (SliceOutcome::Finished(Box::new(resp), Retire::Completed), delta)
        }
    }
}

fn quota_error(spec: &JobSpec, committed: u64) -> Response {
    Response::Error {
        id: Some(spec.id.clone()),
        code: ErrorCode::QuotaExceeded,
        message: format!(
            "quota of {} instructions exhausted at {} committed (target {})",
            spec.quota.unwrap_or(0),
            committed,
            spec.instructions
        ),
        retry_after_ms: None,
    }
}

/// Assembles the simulator for a job: profile → program → REV machine →
/// warmup → session. Any failure becomes the `build-failed` message.
fn build_session(spec: &JobSpec) -> Result<Session, String> {
    let mut sim = build_cold_sim(spec)?;
    // Warmup runs unsliced: it is bounded by the spec and its statistics
    // are discarded, so fairness only starts at the measurement window.
    sim.warmup(spec.warmup);
    Ok(Session::new(sim, spec.instructions))
}

/// Assembles a *cold* simulator for a job — no warmup. Restores rebuild
/// the machine this way: the warmed state travels inside the checkpoint
/// envelope, so re-running warmup would double it.
fn build_cold_sim(spec: &JobSpec) -> Result<RevSimulator, String> {
    let profile = resolve_profile(&spec.profile, spec.scale).ok_or_else(|| {
        format!("profile {:?} disappeared between submit and build", spec.profile)
    })?;
    let program = rev_workloads::generate(&profile);
    RevSimulator::cached(program, spec.config.to_rev_config()).map_err(|e| e.to_string())
}

/// The recipe stamped into a job's checkpoint envelope: the canonical
/// JSON of its `submit` request, so an envelope is self-describing.
fn ckpt_recipe(spec: &JobSpec) -> Vec<u8> {
    Request::Submit(Box::new(spec.clone())).to_json().render().into_bytes()
}

/// Restores a session from a sealed envelope into a cold rebuild of the
/// job's simulator. Any integrity failure is reported as a message —
/// the caller retires the job fail-closed, never resumes corrupt state.
fn restore_session(spec: &JobSpec, envelope: &[u8]) -> Result<Session, String> {
    let sim = build_cold_sim(spec)?;
    Session::restore(sim, envelope).map_err(|e| e.to_string())
}

/// Books a retiring job out of the system and emits its final event.
fn retire_job<W: Write>(shared: &Shared<W>, job: &Job, resp: &Response, how: &Retire, delta: u64) {
    shared.narrate(&format!("job {} retired: {}", job.spec.id, resp.type_tag()));
    {
        let mut st = lock_unpoisoned(&shared.state);
        if delta > 0 {
            st.counters.slices += 1;
            st.counters.instructions_committed += delta;
        }
        match how {
            Retire::Completed => st.counters.completed += 1,
            Retire::Cancelled => st.counters.cancelled += 1,
            Retire::QuotaExceeded => st.counters.quota_exceeded += 1,
            Retire::BuildFailed => st.counters.failed += 1,
            Retire::Deadline => st.counters.deadline += 1,
            Retire::Crashed => st.counters.crashed += 1,
            Retire::CkptCorrupt => {
                st.counters.crashed += 1;
                st.counters.ckpt_corrupt += 1;
            }
            Retire::Suspended => st.counters.suspended += 1,
        }
        st.live.remove(&job.spec.id);
    }
    shared.emit(resp);
    // A drained queue with accepting=false is the exit condition; wake
    // siblings so they can observe it.
    shared.work_ready.notify_all();
}

/// Seals the job's current session state every `ckpt_every` yielded
/// slices; the envelope becomes the crash-recovery point.
fn maybe_checkpoint<W: Write>(shared: &Shared<W>, job: &mut Job) {
    let every = shared.opts.ckpt_every;
    if every == 0 || !job.slices_run.is_multiple_of(every) {
        return;
    }
    let Some(session) = job.session.as_ref() else { return };
    match session.checkpoint(&ckpt_recipe(&job.spec)) {
        Ok(env) => {
            job.ckpt = Some(env);
            lock_unpoisoned(&shared.state).counters.ckpt_taken += 1;
        }
        Err(e) => shared.narrate(&format!("job {}: checkpoint failed: {e}", job.spec.id)),
    }
}

/// Crash supervision: re-dispatch the job from its last checkpoint with
/// bounded retry + linear backoff, or retire it with `crashed` when the
/// budget is exhausted. A checkpoint that fails its checksum retires the
/// job with `ckpt-corrupt` — corrupt state is never resumed.
fn handle_crash<W: Write>(shared: &Shared<W>, mut job: Job, why: &str) {
    job.attempts += 1;
    job.session = None;
    shared
        .narrate(&format!("job {} worker crashed (attempt {}): {why}", job.spec.id, job.attempts));
    if job.attempts > shared.opts.max_retries {
        let resp = Response::Error {
            id: Some(job.spec.id.clone()),
            code: ErrorCode::Crashed,
            message: format!(
                "worker crashed and the retry budget ({}) is exhausted: {why}",
                shared.opts.max_retries
            ),
            retry_after_ms: None,
        };
        retire_job(shared, &job, &resp, &Retire::Crashed, 0);
        return;
    }
    let backoff = shared.opts.retry_backoff_ms.saturating_mul(u64::from(job.attempts));
    if backoff > 0 {
        std::thread::sleep(Duration::from_millis(backoff));
    }
    let mut restored = false;
    if let Some(env) = job.ckpt.as_mut() {
        if shared.opts.chaos.corrupt_ckpt.iter().any(|id| id == &job.spec.id) {
            let mid = env.len() / 2;
            env[mid] ^= 0x01;
        }
        match restore_session(&job.spec, env) {
            Ok(session) => {
                job.session = Some(session);
                restored = true;
            }
            Err(e) => {
                let resp = Response::Error {
                    id: Some(job.spec.id.clone()),
                    code: ErrorCode::CkptCorrupt,
                    message: format!("refusing to resume from the last checkpoint: {e}"),
                    retry_after_ms: None,
                };
                retire_job(shared, &job, &resp, &Retire::CkptCorrupt, 0);
                return;
            }
        }
    }
    // No checkpoint yet: the session stays unbuilt and the next slice
    // rebuilds it from scratch (warmup included) — same verdict bytes.
    {
        let mut st = lock_unpoisoned(&shared.state);
        st.counters.retries += 1;
        if restored {
            st.counters.ckpt_restored += 1;
        }
        st.queue.push_back(job);
    }
    shared.work_ready.notify_one();
}

/// Drains one job to a checkpoint under a suspending shutdown: seal,
/// report `suspended`, retire without a verdict.
fn suspend_job<W: Write>(shared: &Shared<W>, job: &mut Job) {
    let committed = job.session.as_ref().map_or(0, Session::committed);
    let mut ckpt_bytes = 0u64;
    if let Some(session) = job.session.as_ref() {
        match session.checkpoint(&ckpt_recipe(&job.spec)) {
            Ok(env) => {
                ckpt_bytes = env.len() as u64;
                job.ckpt = Some(env);
                lock_unpoisoned(&shared.state).counters.ckpt_taken += 1;
            }
            Err(e) => {
                shared.narrate(&format!("job {}: suspend checkpoint failed: {e}", job.spec.id))
            }
        }
    }
    let resp = Response::Suspended {
        id: job.spec.id.clone(),
        committed,
        target: job.spec.instructions,
        ckpt_bytes,
    };
    retire_job(shared, job, &resp, &Retire::Suspended, 0);
}

fn deadline_error(spec: &JobSpec, committed: u64) -> Response {
    Response::Error {
        id: Some(spec.id.clone()),
        code: ErrorCode::Deadline,
        message: format!(
            "deadline of {} ms expired at {} committed (target {})",
            spec.deadline_ms.unwrap_or(0),
            committed,
            spec.instructions
        ),
        retry_after_ms: None,
    }
}

/// Worker loop: pop a job, advance it one supervised slice, re-enqueue
/// or retire. Panics inside the slice are caught here and routed through
/// [`handle_crash`].
fn worker<W: Write>(shared: &Shared<W>) {
    loop {
        let (mut job, suspending) = {
            let mut st = lock_unpoisoned(&shared.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break (job, st.suspending);
                }
                if !st.accepting {
                    return;
                }
                st = shared.work_ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if suspending {
            suspend_job(shared, &mut job);
            continue;
        }
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            let committed = job.session.as_ref().map_or(0, Session::committed);
            let resp = deadline_error(&job.spec, committed);
            retire_job(shared, &job, &resp, &Retire::Deadline, 0);
            continue;
        }
        let sliced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_one_slice(&mut job, shared.opts.slice, &shared.opts.chaos)
        }));
        match sliced {
            Err(payload) => handle_crash(shared, job, &panic_message(payload.as_ref())),
            Ok((SliceOutcome::Yielded { committed }, delta)) => {
                maybe_checkpoint(shared, &mut job);
                shared.emit(&Response::Progress {
                    id: job.spec.id.clone(),
                    committed,
                    target: job.spec.instructions,
                });
                let mut st = lock_unpoisoned(&shared.state);
                st.counters.slices += 1;
                st.counters.progress_events += 1;
                st.counters.instructions_committed += delta;
                st.queue.push_back(job);
                drop(st);
                shared.work_ready.notify_one();
            }
            Ok((SliceOutcome::Finished(resp, how), delta)) => {
                retire_job(shared, &job, &resp, &how, delta);
            }
        }
    }
}

/// Renders a caught panic payload for the `crashed` error message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Handles one request line, mutating state and emitting the reply.
/// Returns `false` when the connection should wind down (`shutdown`).
fn handle_request<W: Write>(shared: &Shared<W>, workers: usize, line: &str) -> bool {
    let request = match Request::parse_line(line) {
        Ok(r) => r,
        Err(ProtoError { code, message }) => {
            lock_unpoisoned(&shared.state).counters.rejected += 1;
            shared.emit(&Response::Error { id: None, code, message, retry_after_ms: None });
            return true;
        }
    };
    match request {
        Request::Hello { proto } => {
            if proto == PROTOCOL {
                shared.emit(&Response::Hello {
                    proto: PROTOCOL.to_string(),
                    schema: RESULT_SCHEMA.to_string(),
                    workers: workers as u64,
                    slice: shared.opts.slice,
                });
            } else {
                shared.emit(&Response::Error {
                    id: None,
                    code: ErrorCode::UnsupportedProto,
                    message: format!("this daemon speaks {PROTOCOL}, not {proto:?}"),
                    retry_after_ms: None,
                });
            }
        }
        Request::Submit(spec) => {
            if let Some(resp) = reject_submit(shared, &spec) {
                {
                    let mut st = lock_unpoisoned(&shared.state);
                    if matches!(&resp, Response::Error { code: ErrorCode::Overloaded, .. }) {
                        st.counters.shed += 1;
                    } else {
                        st.counters.rejected += 1;
                    }
                }
                shared.emit(&resp);
                return true;
            }
            let cancel = Arc::new(AtomicBool::new(false));
            let accepted = Response::Accepted {
                id: spec.id.clone(),
                profile: spec.profile.clone(),
                target: spec.instructions,
            };
            let deadline = spec.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
            {
                let mut st = lock_unpoisoned(&shared.state);
                st.counters.submitted += 1;
                st.live.insert(spec.id.clone(), Arc::clone(&cancel));
                st.queue.push_back(Job {
                    spec: *spec,
                    session: None,
                    cancel,
                    ckpt: None,
                    attempts: 0,
                    slices_run: 0,
                    deadline,
                });
            }
            shared.emit(&accepted);
            shared.work_ready.notify_one();
        }
        Request::Cancel { id } => {
            let flag = lock_unpoisoned(&shared.state).live.get(&id).cloned();
            match flag {
                // The `cancelled` event is emitted by the worker that
                // observes the flag, carrying the committed count.
                Some(cancel) => cancel.store(true, Ordering::SeqCst),
                None => shared.emit(&Response::Error {
                    id: Some(id.clone()),
                    code: ErrorCode::UnknownJob,
                    message: format!("no live job {id:?}"),
                    retry_after_ms: None,
                }),
            }
        }
        Request::Status => {
            let reg = lock_unpoisoned(&shared.state).counters.registry();
            shared.emit(&Response::Metrics { metrics: reg.to_json() });
        }
        Request::Shutdown { suspend } => {
            if suspend {
                lock_unpoisoned(&shared.state).suspending = true;
            }
            return false;
        }
    }
    true
}

/// Pre-queue validation of a `submit`: every rejection the daemon can
/// detect synchronously (the asynchronous one is `build-failed`).
fn reject_submit<W: Write>(shared: &Shared<W>, spec: &JobSpec) -> Option<Response> {
    let cap = shared.opts.queue_cap;
    {
        let st = lock_unpoisoned(&shared.state);
        if st.live.contains_key(&spec.id) {
            return Some(Response::Error {
                id: Some(spec.id.clone()),
                code: ErrorCode::DuplicateId,
                message: format!("job {:?} is still live", spec.id),
                retry_after_ms: None,
            });
        }
        if cap > 0 && st.live.len() >= cap {
            return Some(Response::Error {
                id: Some(spec.id.clone()),
                code: ErrorCode::Overloaded,
                message: format!("admission queue is full ({cap} live jobs); resubmit later"),
                retry_after_ms: Some(RETRY_AFTER_MS),
            });
        }
    }
    if SpecProfile::by_name(&spec.profile).is_none() {
        return Some(Response::Error {
            id: Some(spec.id.clone()),
            code: ErrorCode::UnknownProfile,
            message: format!("unknown profile {:?} (see docs/SERVE.md)", spec.profile),
            retry_after_ms: None,
        });
    }
    if let Err(e) = spec.config.to_rev_config().validate() {
        return Some(Response::Error {
            id: Some(spec.id.clone()),
            code: ErrorCode::BadConfig,
            message: e.to_string(),
            retry_after_ms: None,
        });
    }
    None
}

/// The resubmission hint carried by `overloaded` rejections.
const RETRY_AFTER_MS: u64 = 250;

/// The thread name of pool workers — the panic-hook silencer keys on it
/// so supervised (caught) panics do not spew backtraces on stderr.
const WORKER_THREAD: &str = "rev-serve-worker";

static PANIC_SILENCER: Once = Once::new();

/// Worker panics are caught by the supervisor and surface as structured
/// `crashed` errors; the default hook's stderr spew would only be noise.
/// Installed once, keyed on the worker thread name — panics on any other
/// thread still reach the previous hook untouched.
fn install_worker_panic_silencer() {
    PANIC_SILENCER.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if std::thread::current().name() != Some(WORKER_THREAD) {
                previous(info);
            }
        }));
    });
}

/// One bounded read of a request line.
enum ReadLine {
    /// A complete line (or the trailing unterminated line before EOF).
    Line(String),
    /// The line exceeded [`MAX_LINE_BYTES`]; the reader resynchronized
    /// at the next newline without buffering the excess.
    TooLong,
    /// Clean end of input.
    Eof,
    /// The stream died (or an idle read timeout fired) — EOF semantics.
    Failed,
}

/// Reads one request line without ever buffering more than
/// [`MAX_LINE_BYTES`] + 1 bytes of it; an oversized line is discarded
/// chunk-by-chunk through the reader's own buffer.
fn read_request_line<R: BufRead>(input: &mut R) -> ReadLine {
    let mut buf = Vec::new();
    let n = match input.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf) {
        Ok(n) => n,
        Err(_) => return ReadLine::Failed,
    };
    if n == 0 {
        return ReadLine::Eof;
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        loop {
            let available = match input.fill_buf() {
                Ok(a) => a,
                Err(_) => return ReadLine::Failed,
            };
            if available.is_empty() {
                break; // EOF inside the oversized line
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    input.consume(i + 1);
                    break;
                }
                None => {
                    let len = available.len();
                    input.consume(len);
                }
            }
        }
        return ReadLine::TooLong;
    }
    // An unterminated trailing line (mid-line EOF) is still processed.
    ReadLine::Line(String::from_utf8_lossy(&buf).into_owned())
}

/// Serves one connection: reads requests from `input` until `shutdown`
/// or EOF, runs jobs on `opts.workers` supervised pool threads, writes
/// every response line to `output`. In-flight and queued jobs are
/// drained (to their natural end, or to checkpoints under a suspending
/// shutdown) before the final `metrics` + `bye` pair; the function
/// returns once every worker has exited. Read errors (a dead socket, an
/// idle timeout) behave like EOF; write errors mark the client gone and
/// the drain completes silently — a disconnected client never panics
/// the daemon or wedges a worker.
pub fn serve<R: BufRead, W: Write + Send>(input: R, output: W, opts: &ServeOptions) {
    install_worker_panic_silencer();
    let workers = if opts.workers == 0 { default_workers() } else { opts.workers };
    run_gateway(&Shared::new(output, opts), input, workers);
}

/// The body of [`serve`] over already-assembled shared state: the reader
/// loop, the worker pool, the drain and the final `metrics` + `bye`.
fn run_gateway<R: BufRead, W: Write + Send>(shared: &Shared<W>, mut input: R, workers: usize) {
    std::thread::scope(|scope| {
        for _ in 0..workers {
            std::thread::Builder::new()
                .name(WORKER_THREAD.to_string())
                .spawn_scoped(scope, move || worker(shared))
                .expect("spawn worker");
        }
        loop {
            match read_request_line(&mut input) {
                ReadLine::Eof | ReadLine::Failed => break,
                ReadLine::TooLong => {
                    lock_unpoisoned(&shared.state).counters.rejected += 1;
                    shared.emit(&Response::Error {
                        id: None,
                        code: ErrorCode::BadRequest,
                        message: format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                        retry_after_ms: None,
                    });
                }
                ReadLine::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    if !handle_request(shared, workers, &line) {
                        break; // shutdown: stop reading, drain below
                    }
                }
            }
        }
        lock_unpoisoned(&shared.state).accepting = false;
        shared.work_ready.notify_all();
    });
    let reg = lock_unpoisoned(&shared.state).counters.registry();
    shared.emit(&Response::Metrics { metrics: reg.to_json() });
    shared.emit(&Response::Bye);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every gateway lock is taken poison-tolerantly: a panic while one
    /// is held (a supervised job, a build inside the shared cache) must
    /// not turn every later request into a panic.
    #[test]
    fn poisoned_locks_do_not_wedge_the_gateway() {
        let opts = ServeOptions { workers: 1, slice: 2_000, ..ServeOptions::default() };
        let shared = Shared::new(Vec::new(), &opts);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _state = shared.state.lock().unwrap();
            let _writer = shared.writer.lock().unwrap();
            panic!("a job dies holding the gateway's locks");
        }));
        assert!(crashed.is_err() && shared.state.is_poisoned() && shared.writer.is_poisoned());
        let mut spec = JobSpec::new("j", "mcf", 5_000);
        spec.scale = 0.05;
        spec.warmup = 2_000;
        let input = format!("{}\n", Request::Submit(Box::new(spec)).to_json().render());
        run_gateway(&shared, input.as_bytes(), 1);
        let out = shared.writer.into_inner().unwrap_or_else(PoisonError::into_inner);
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("\"type\":\"verdict\""), "{out}");
        assert!(out.lines().last().is_some_and(|l| l.contains("\"type\":\"bye\"")), "{out}");
    }
}
