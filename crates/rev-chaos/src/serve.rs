//! Service-layer chaos: deterministic fault campaigns against the
//! `rev-serve` gateway itself (`rev-chaos --serve`).
//!
//! Where the classic campaign flips bits inside the validator's
//! microarchitecture, this one attacks the *service* around it: worker
//! panics mid-job, corrupted crash-recovery checkpoints, stalled
//! workers racing per-job deadlines, and clients that disconnect while
//! the daemon streams verdicts. Every scenario is one full in-process
//! protocol conversation, adjudicated with the same four-way vocabulary
//! as the injection campaign ([`Outcome`]):
//!
//! * **detected** — the fault fired and surfaced as the matching
//!   structured job error (`crashed`, `ckpt-corrupt`, `deadline`): the
//!   gateway failed closed;
//! * **contained** — the fault was absorbed: the job's verdict payload
//!   is *byte-identical* to the fault-free reference (crash recovery
//!   from a checkpoint is invisible in the measurement), or the daemon
//!   drained cleanly through a dead client;
//! * **silent_corruption** — a verdict payload diverged from the
//!   reference, a corrupt checkpoint was silently restored, a response
//!   line stopped parsing, or a panic escaped the supervisor;
//! * **false_positive** — a job error with no fault injected (or fired).
//!
//! The campaign contract — the hard gate in `scripts/check.sh` — is
//! zero silent corruptions and zero false positives, with the report
//! JSON byte-identical for any `--jobs` value.

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;

use rev_bench::{parallel_map, BenchOptions, Narrator};
use rev_core::{RevConfig, RevReport};
use rev_serve::proto::{ErrorCode, JobSpec, Request, Response};
use rev_serve::server::{serve, ServeOptions};
use rev_serve::verdict_snapshot;
use rev_trace::Json;

use crate::{Outcome, Rng};

/// Schema tag stamped into every service-layer campaign report.
pub const SERVE_SCHEMA: &str = "rev-chaos-serve/1";

/// One injected service-layer fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeFault {
    /// Control scenario: no fault — any job error is a false positive.
    None,
    /// The worker panics at the entry of the given scheduling slice;
    /// supervision must resume the job from its last checkpoint.
    WorkerPanic {
        /// Slice index of the (single) panic.
        at_slice: u64,
    },
    /// A worker panic *plus* one flipped byte in the stored checkpoint:
    /// the envelope checksum must catch it, fail-closed.
    CkptCorrupt {
        /// Slice index of the panic that triggers the restore.
        at_slice: u64,
    },
    /// The worker stalls every slice while the job carries a wall-clock
    /// deadline; the gateway must kill it with a `deadline` error.
    StallDeadline {
        /// Injected per-slice stall.
        stall_ms: u64,
        /// The job's `deadline_ms`.
        deadline_ms: u64,
    },
    /// The client's write side dies after this many bytes; the daemon
    /// must drain without panicking or wedging.
    Disconnect {
        /// Output bytes accepted before the pipe breaks.
        after_bytes: usize,
    },
}

impl ServeFault {
    /// Every fault kind label, in plan round-robin order.
    pub const KINDS: [&'static str; 5] =
        ["none", "worker_panic", "ckpt_corrupt", "stall_deadline", "disconnect"];

    /// Lowercase kind label used in report JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeFault::None => "none",
            ServeFault::WorkerPanic { .. } => "worker_panic",
            ServeFault::CkptCorrupt { .. } => "ckpt_corrupt",
            ServeFault::StallDeadline { .. } => "stall_deadline",
            ServeFault::Disconnect { .. } => "disconnect",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("kind", Json::Str(self.kind().into()))];
        match self {
            ServeFault::None => {}
            ServeFault::WorkerPanic { at_slice } | ServeFault::CkptCorrupt { at_slice } => {
                fields.push(("at_slice", Json::Int(*at_slice as i64)));
            }
            ServeFault::StallDeadline { stall_ms, deadline_ms } => {
                fields.push(("stall_ms", Json::Int(*stall_ms as i64)));
                fields.push(("deadline_ms", Json::Int(*deadline_ms as i64)));
            }
            ServeFault::Disconnect { after_bytes } => {
                fields.push(("after_bytes", Json::Int(*after_bytes as i64)));
            }
        }
        Json::obj(fields)
    }
}

/// One planned scenario: a single job under a single fault.
#[derive(Debug, Clone)]
pub struct ServeScenario {
    /// Job id (`sv00`, `sv01`, …, also the chaos-plan key).
    pub id: String,
    /// Workload profile under validation.
    pub profile: String,
    /// The injected fault.
    pub fault: ServeFault,
}

/// Parameters of one service-layer campaign.
#[derive(Debug, Clone)]
pub struct ServeCampaignConfig {
    /// Seed for the scenario plan (fault parameters).
    pub seed: u64,
    /// Number of scenarios (round-robin over [`ServeFault::KINDS`]).
    pub scenarios: usize,
    /// Committed-instruction target per job.
    pub instructions: u64,
    /// Gateway scheduling slice.
    pub slice: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// Warmup window per job.
    pub warmup: u64,
    /// Worker threads for the scenario fan-out. Purely a wall-clock
    /// knob: reports are byte-identical for every value.
    pub jobs: usize,
}

impl ServeCampaignConfig {
    /// The quick campaign wired into `scripts/check.sh` (a few seconds).
    pub fn quick(seed: u64) -> Self {
        ServeCampaignConfig {
            seed,
            scenarios: 10,
            instructions: 10_000,
            slice: 2_000,
            scale: 0.05,
            warmup: 2_000,
            jobs: 1,
        }
    }

    /// The thorough campaign (default without `--quick`).
    pub fn full(seed: u64) -> Self {
        ServeCampaignConfig { scenarios: 25, ..ServeCampaignConfig::quick(seed) }
    }
}

/// Computes the full scenario plan up front — ids, profiles and fault
/// parameters are fixed before any worker runs, so the fan-out order
/// can never influence the report.
pub fn plan_serve_campaign(cfg: &ServeCampaignConfig) -> Vec<ServeScenario> {
    let profiles = ["mcf", "gobmk", "bzip2"];
    let mut rng = Rng::new(cfg.seed, 0x5e72_e1a7);
    let slices = (cfg.instructions / cfg.slice.max(1)).max(2);
    (0..cfg.scenarios)
        .map(|i| {
            // Panic inside the window but never on the last slice, so a
            // checkpoint always exists and recovery is always exercised.
            let mut panic_slice = || 1 + rng.next() % (slices - 1).min(3);
            let fault = match i % ServeFault::KINDS.len() {
                0 => ServeFault::None,
                1 => ServeFault::WorkerPanic { at_slice: panic_slice() },
                2 => ServeFault::CkptCorrupt { at_slice: panic_slice() },
                3 => ServeFault::StallDeadline { stall_ms: 10 + rng.next() % 15, deadline_ms: 1 },
                _ => ServeFault::Disconnect { after_bytes: 60 + (rng.next() % 200) as usize },
            };
            ServeScenario {
                id: format!("sv{i:02}"),
                profile: profiles[i % profiles.len()].to_string(),
                fault,
            }
        })
        .collect()
}

/// The adjudicated result of one scenario. Every field is a pure
/// function of the plan and the gateway's deterministic behaviour — no
/// wall-clock quantities — so reports are byte-stable across `--jobs`
/// and repeat runs.
#[derive(Debug, Clone)]
pub struct ServeRecord {
    /// Job id.
    pub id: String,
    /// Workload profile.
    pub profile: String,
    /// The injected fault.
    pub fault: ServeFault,
    /// Adjudicated outcome.
    pub outcome: Outcome,
    /// Whether the fault observably fired (retry/corrupt/deadline
    /// counters, or the broken pipe by construction).
    pub fired: bool,
    /// Whether the job's verdict payload matched the fault-free
    /// reference byte-for-byte (`None` when no verdict can exist —
    /// detected faults and disconnects).
    pub verdict_matched: Option<bool>,
    /// The structured job error code, when the job was retired with one.
    pub error: Option<String>,
}

/// A finished service-layer campaign.
#[derive(Debug, Clone)]
pub struct ServeCampaignReport {
    /// The campaign parameters.
    pub config: ServeCampaignConfig,
    /// Adjudicated scenarios, in deterministic plan order.
    pub records: Vec<ServeRecord>,
}

impl ServeCampaignReport {
    /// Number of scenarios with the given outcome.
    pub fn count(&self, outcome: Outcome) -> u64 {
        self.records.iter().filter(|r| r.outcome == outcome).count() as u64
    }

    /// Whether the campaign is clean: zero silent-corruption and zero
    /// false-positive outcomes (the `scripts/check.sh` gate).
    pub fn clean(&self) -> bool {
        self.count(Outcome::SilentCorruption) == 0 && self.count(Outcome::FalsePositive) == 0
    }

    /// Renders the canonical campaign report. Byte-identical for a given
    /// `(seed, scenarios, instructions, slice, scale, warmup)` regardless
    /// of `jobs` or repeat runs.
    pub fn to_json(&self) -> Json {
        let meta = Json::obj(vec![
            ("seed", Json::Int(self.config.seed as i64)),
            ("scenarios", Json::Int(self.config.scenarios as i64)),
            ("instructions", Json::Int(self.config.instructions as i64)),
            ("slice", Json::Int(self.config.slice as i64)),
            ("scale", Json::Float(self.config.scale)),
            ("warmup", Json::Int(self.config.warmup as i64)),
        ]);
        let mut summary = vec![("scenarios", Json::Int(self.records.len() as i64))];
        for o in Outcome::ALL {
            summary.push((o.label(), Json::Int(self.count(o) as i64)));
        }
        for kind in ServeFault::KINDS {
            let n = self.records.iter().filter(|r| r.fault.kind() == kind).count();
            summary.push((kind, Json::Int(n as i64)));
        }
        let scenarios = self
            .records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("id", Json::Str(r.id.clone())),
                    ("profile", Json::Str(r.profile.clone())),
                    ("fault", r.fault.to_json()),
                    ("outcome", Json::Str(r.outcome.label().into())),
                    ("fired", Json::Bool(r.fired)),
                    ("verdict_matched", r.verdict_matched.map_or(Json::Null, Json::Bool)),
                    ("error", r.error.clone().map_or(Json::Null, Json::Str)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str(SERVE_SCHEMA.into())),
            ("meta", meta),
            ("summary", Json::obj(summary)),
            ("scenarios", Json::Arr(scenarios)),
        ])
    }
}

/// A client whose write side dies after a fixed byte budget.
struct DyingWriter {
    budget: usize,
}

impl std::io::Write for DyingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "client gone"));
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The fault-free reference verdicts, one simulator run per distinct
/// profile (computed up front, shared by every scenario).
fn reference_reports(
    cfg: &ServeCampaignConfig,
    plan: &[ServeScenario],
) -> BTreeMap<String, RevReport> {
    let mut refs = BTreeMap::new();
    for s in plan {
        if refs.contains_key(&s.profile) {
            continue;
        }
        let bench = BenchOptions {
            instructions: cfg.instructions,
            warmup: cfg.warmup,
            scale: cfg.scale,
            quiet: true,
            benches: vec![s.profile.clone()],
            ..BenchOptions::default()
        };
        let profile = bench.profiles().remove(0);
        let report = rev_bench::run_rev_only(&profile, &bench, RevConfig::paper_default());
        refs.insert(s.profile.clone(), report);
    }
    refs
}

/// Pulls one counter out of the conversation's final `metrics` event.
fn counter(responses: &[Response], name: &str) -> u64 {
    responses
        .iter()
        .rev()
        .find_map(|r| match r {
            Response::Metrics { metrics } => metrics.get(name).and_then(rev_trace::Json::as_u64),
            _ => None,
        })
        .unwrap_or(0)
}

/// Runs and adjudicates one scenario: one full in-process `serve`
/// conversation under the scenario's [`ChaosPlan`] entry.
///
/// [`ChaosPlan`]: rev_serve::server::ChaosPlan
fn run_scenario(
    cfg: &ServeCampaignConfig,
    scenario: &ServeScenario,
    refs: &BTreeMap<String, RevReport>,
) -> ServeRecord {
    let mut spec = JobSpec::new(&scenario.id, &scenario.profile, cfg.instructions);
    spec.scale = cfg.scale;
    spec.warmup = cfg.warmup;
    let mut opts = ServeOptions {
        workers: 1,
        slice: cfg.slice,
        quiet: true,
        retry_backoff_ms: 0,
        ..ServeOptions::default()
    };
    match &scenario.fault {
        ServeFault::None | ServeFault::Disconnect { .. } => {}
        ServeFault::WorkerPanic { at_slice } => {
            opts.chaos.panics.push((scenario.id.clone(), *at_slice));
        }
        ServeFault::CkptCorrupt { at_slice } => {
            opts.chaos.panics.push((scenario.id.clone(), *at_slice));
            opts.chaos.corrupt_ckpt.push(scenario.id.clone());
        }
        ServeFault::StallDeadline { stall_ms, deadline_ms } => {
            opts.chaos.stall_ms.push((scenario.id.clone(), *stall_ms));
            spec.deadline_ms = Some(*deadline_ms);
        }
    }
    let mut input = String::new();
    input.push_str(&Request::Submit(Box::new(spec.clone())).to_json().render());
    input.push('\n');
    input.push_str(&Request::Shutdown { suspend: false }.to_json().render());
    input.push('\n');

    let record = |outcome, fired, verdict_matched, error: Option<String>| ServeRecord {
        id: scenario.id.clone(),
        profile: scenario.profile.clone(),
        fault: scenario.fault.clone(),
        outcome,
        fired,
        verdict_matched,
        error,
    };

    // A dead client is adjudicated on survival alone: the daemon must
    // drain and return; its (truncated) output stream proves nothing.
    if let ServeFault::Disconnect { after_bytes } = scenario.fault {
        let survived = std::panic::catch_unwind(AssertUnwindSafe(|| {
            serve(input.as_bytes(), DyingWriter { budget: after_bytes }, &opts);
        }))
        .is_ok();
        let outcome = if survived { Outcome::Contained } else { Outcome::SilentCorruption };
        return record(outcome, true, None, None);
    }

    let mut out = Vec::new();
    let survived = std::panic::catch_unwind(AssertUnwindSafe(|| {
        serve(input.as_bytes(), &mut out, &opts);
    }))
    .is_ok();
    if !survived {
        // A panic escaping the supervisor is the worst failure class.
        return record(Outcome::SilentCorruption, true, None, None);
    }
    let text = String::from_utf8_lossy(&out);
    let mut responses = Vec::new();
    for line in text.lines() {
        match rev_trace::json::parse(line).ok().and_then(|v| Response::from_json(&v).ok()) {
            Some(r) => responses.push(r),
            // A response line the typed parser rejects is protocol
            // corruption on the wire.
            None => return record(Outcome::SilentCorruption, true, None, None),
        }
    }

    let verdict = responses.iter().find_map(|r| match r {
        Response::Verdict { id, snapshot, .. } if *id == scenario.id => Some(snapshot.render()),
        _ => None,
    });
    let error = responses.iter().find_map(|r| match r {
        Response::Error { id: Some(id), code, .. } if *id == scenario.id => {
            Some(code.as_str().to_string())
        }
        _ => None,
    });
    let fired = match &scenario.fault {
        ServeFault::None => false,
        ServeFault::WorkerPanic { .. } => {
            counter(&responses, "serve.retries") > 0
                || counter(&responses, "serve.jobs.crashed") > 0
        }
        ServeFault::CkptCorrupt { .. } => {
            counter(&responses, "ckpt.corrupt") > 0 || counter(&responses, "serve.retries") > 0
        }
        ServeFault::StallDeadline { .. } => counter(&responses, "serve.jobs.deadline") > 0,
        ServeFault::Disconnect { .. } => unreachable!("handled above"),
    };
    let expected = verdict_snapshot(&spec, &refs[&scenario.profile]).to_json().render();
    let verdict_matched = verdict.as_ref().map(|bytes| *bytes == expected);

    let outcome = if !fired {
        // Control semantics (also a planned fault that never struck):
        // the job must finish with the reference verdict, untouched.
        match (&error, verdict_matched) {
            (Some(_), _) => Outcome::FalsePositive,
            (None, Some(true)) => Outcome::Contained,
            _ => Outcome::SilentCorruption,
        }
    } else {
        match &scenario.fault {
            ServeFault::WorkerPanic { .. } => match (&error, verdict_matched) {
                // Retry budget exhausted: surfaced fail-closed.
                (Some(code), None) if code == ErrorCode::Crashed.as_str() => Outcome::Detected,
                // Recovered from the checkpoint without moving a byte.
                (None, Some(true)) => Outcome::Contained,
                _ => Outcome::SilentCorruption,
            },
            ServeFault::CkptCorrupt { .. } => {
                // The only acceptable outcome is the checksum rejection;
                // any verdict means corrupt state was silently resumed.
                if verdict.is_none()
                    && error.as_deref() == Some(ErrorCode::CkptCorrupt.as_str())
                    && counter(&responses, "ckpt.restored") == 0
                {
                    Outcome::Detected
                } else {
                    Outcome::SilentCorruption
                }
            }
            ServeFault::StallDeadline { .. } => {
                if verdict.is_none() && error.as_deref() == Some(ErrorCode::Deadline.as_str()) {
                    Outcome::Detected
                } else {
                    Outcome::SilentCorruption
                }
            }
            ServeFault::None | ServeFault::Disconnect { .. } => unreachable!("fired is false"),
        }
    };
    record(outcome, fired, verdict_matched, error)
}

/// Runs a full service-layer campaign: plan, compute the fault-free
/// references, fan the scenarios out over `cfg.jobs` workers
/// (input-order results), adjudicate.
pub fn run_serve_campaign(cfg: &ServeCampaignConfig, narrator: &Narrator) -> ServeCampaignReport {
    let plan = plan_serve_campaign(cfg);
    let refs = reference_reports(cfg, &plan);
    narrator.note(&format!(
        "serve campaign: {} scenario(s) over {} profile(s), seed {}",
        plan.len(),
        refs.len(),
        cfg.seed
    ));
    let records = parallel_map(cfg.jobs, &plan, |_, scenario| {
        let rec = run_scenario(cfg, scenario, &refs);
        narrator.note(&format!(
            "  {} {:<14} {:<8} -> {}",
            rec.id,
            rec.fault.kind(),
            rec.profile,
            rec.outcome.label()
        ));
        rec
    });
    ServeCampaignReport { config: cfg.clone(), records }
}
