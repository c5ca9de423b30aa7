//! The `rev-serve/2` wire protocol: typed request/response messages and
//! their JSON serde.
//!
//! `docs/SERVE.md` is the **normative** reference for this module; the
//! doc-coverage test (`tests/doc.rs`) enforces that every message type,
//! error code and `serve.*` metric defined here is documented there, and
//! that every JSON example in the document round-trips through these
//! types. Framing is line-delimited JSON: one complete JSON object per
//! `\n`-terminated line, no intra-message newlines, at most
//! [`MAX_LINE_BYTES`] bytes per request line.
//!
//! Parsing is **strict**: an object carrying a key outside its message
//! type's field table is rejected with `bad-request`. That is the
//! versioning policy made mechanical — fields are never silently added
//! to `rev-serve/2`; an incompatible change bumps the protocol string
//! (`rev-serve/1` → `rev-serve/2` added `submit.deadline_ms`,
//! `shutdown.mode`, `error.retry_after_ms`, the `suspended` event and
//! the fault-tolerance error codes).

use rev_core::ValidationMode;
use rev_trace::{json, Json};
use std::fmt;

/// The protocol identifier, sent in both `hello` messages and checked on
/// the client's. Incompatible revisions bump the suffix.
pub const PROTOCOL: &str = "rev-serve/2";

/// Upper bound on one request line, in bytes (newline excluded). The
/// daemon rejects longer lines with `bad-request` instead of buffering
/// them unboundedly, then resynchronizes at the next newline.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// The schema identifier of verdict result payloads (`snapshot` fields):
/// the deterministic `rev-trace/1` measurement snapshot.
pub const RESULT_SCHEMA: &str = rev_trace::SCHEMA;

/// Every request `type` tag a client can send, in documentation order.
pub const REQUEST_TYPES: &[&str] = &["hello", "submit", "cancel", "status", "shutdown"];

/// Every response/event `type` tag the daemon can emit, in documentation
/// order.
pub const RESPONSE_TYPES: &[&str] = &[
    "hello",
    "accepted",
    "progress",
    "verdict",
    "cancelled",
    "suspended",
    "error",
    "metrics",
    "bye",
];

/// A protocol-level failure: what an `error` response carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not a complete JSON object.
    BadJson,
    /// The object was valid JSON but not a valid message (missing or
    /// mistyped fields, an unknown field, an unknown `type`).
    BadRequest,
    /// The client's `hello` named a protocol this daemon does not speak.
    UnsupportedProto,
    /// `submit.profile` names none of the built-in workload profiles.
    UnknownProfile,
    /// `submit.config` was rejected by the REV configuration validator.
    BadConfig,
    /// `submit.id` is already in use by a live job.
    DuplicateId,
    /// `cancel.id` names no live job.
    UnknownJob,
    /// The job's committed-instruction quota ran out before its target.
    QuotaExceeded,
    /// Workload generation or simulator assembly failed for the job.
    BuildFailed,
    /// The job's wall-clock deadline (`submit.deadline_ms`) expired
    /// before it finished.
    Deadline,
    /// The bounded admission queue is full; the submit was shed. The
    /// error carries `retry_after_ms` as a resubmission hint.
    Overloaded,
    /// A worker crashed on the job and the bounded retry budget is
    /// exhausted (or the panic message itself, on the final attempt).
    Crashed,
    /// The job's checkpoint failed its integrity checksum on restore;
    /// the daemon refuses to resume from corrupt state (fail closed).
    CkptCorrupt,
}

impl ErrorCode {
    /// Every error code, in documentation order.
    pub const ALL: &'static [ErrorCode] = &[
        ErrorCode::BadJson,
        ErrorCode::BadRequest,
        ErrorCode::UnsupportedProto,
        ErrorCode::UnknownProfile,
        ErrorCode::BadConfig,
        ErrorCode::DuplicateId,
        ErrorCode::UnknownJob,
        ErrorCode::QuotaExceeded,
        ErrorCode::BuildFailed,
        ErrorCode::Deadline,
        ErrorCode::Overloaded,
        ErrorCode::Crashed,
        ErrorCode::CkptCorrupt,
    ];

    /// The wire label (`error.code` value).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadJson => "bad-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnsupportedProto => "unsupported-proto",
            ErrorCode::UnknownProfile => "unknown-profile",
            ErrorCode::BadConfig => "bad-config",
            ErrorCode::DuplicateId => "duplicate-id",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::QuotaExceeded => "quota-exceeded",
            ErrorCode::BuildFailed => "build-failed",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Crashed => "crashed",
            ErrorCode::CkptCorrupt => "ckpt-corrupt",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<ErrorCode> {
        ErrorCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A message that failed to parse or validate, carrying the error-code
/// classification the daemon reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Classification (`error.code`).
    pub code: ErrorCode,
    /// Human-readable detail (`error.message`).
    pub message: String,
}

impl ProtoError {
    fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtoError { code, message: message.into() }
    }

    fn bad(message: impl Into<String>) -> Self {
        Self::new(ErrorCode::BadRequest, message)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ProtoError {}

/// The REV configuration a job runs under — the protocol's projection of
/// [`rev_core::RevConfig`] (everything else stays at the paper default).
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Validation mode: `standard`, `aggressive` or `cfi-only`.
    pub mode: ValidationMode,
    /// Signature-cache capacity in KiB (paper design points: 32, 64).
    pub sc_kib: u64,
    /// Superblock memo replay (default on; a pure simulator fast path).
    pub superblocks: bool,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig { mode: ValidationMode::Standard, sc_kib: 32, superblocks: true }
    }
}

/// The wire label of a validation mode.
pub fn mode_label(mode: ValidationMode) -> &'static str {
    match mode {
        ValidationMode::Standard => "standard",
        ValidationMode::Aggressive => "aggressive",
        ValidationMode::CfiOnly => "cfi-only",
    }
}

fn parse_mode(s: &str) -> Option<ValidationMode> {
    match s {
        "standard" => Some(ValidationMode::Standard),
        "aggressive" => Some(ValidationMode::Aggressive),
        "cfi-only" => Some(ValidationMode::CfiOnly),
        _ => None,
    }
}

impl JobConfig {
    /// Lowers the wire config onto a full [`rev_core::RevConfig`].
    pub fn to_rev_config(&self) -> rev_core::RevConfig {
        rev_core::RevConfig::paper_default()
            .with_mode(self.mode)
            .with_sc_capacity((self.sc_kib as usize) << 10)
            .with_superblocks(self.superblocks)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mode", Json::Str(mode_label(self.mode).to_string())),
            ("sc_kib", Json::Int(self.sc_kib as i64)),
            ("superblocks", Json::Bool(self.superblocks)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ProtoError> {
        check_fields(v, "submit.config", &["mode", "sc_kib", "superblocks"])?;
        let mut cfg = JobConfig::default();
        if let Some(m) = v.get("mode") {
            let label =
                m.as_str().ok_or_else(|| ProtoError::bad("config.mode must be a string"))?;
            cfg.mode = parse_mode(label).ok_or_else(|| {
                ProtoError::new(
                    ErrorCode::BadConfig,
                    format!("unknown mode {label:?} (standard, aggressive, cfi-only)"),
                )
            })?;
        }
        if let Some(k) = v.get("sc_kib") {
            cfg.sc_kib =
                k.as_u64().ok_or_else(|| ProtoError::bad("config.sc_kib must be an integer"))?;
        }
        if let Some(s) = v.get("superblocks") {
            cfg.superblocks =
                s.as_bool().ok_or_else(|| ProtoError::bad("config.superblocks must be a bool"))?;
        }
        Ok(cfg)
    }
}

/// One validation job, as described by a `submit` request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen job identifier; unique among live jobs.
    pub id: String,
    /// Workload profile name (one of the 18 built-in SPEC profiles).
    pub profile: String,
    /// Committed-instruction target of the measurement window.
    pub instructions: u64,
    /// Warmup instructions simulated (and statistically discarded)
    /// before the measurement window.
    pub warmup: u64,
    /// Workload scale factor (1.0 = the paper's static footprints).
    pub scale: f64,
    /// Configuration label used in the result snapshot (default `rev`).
    pub label: String,
    /// REV configuration.
    pub config: JobConfig,
    /// Optional committed-instruction quota for the measurement window;
    /// a job that reaches it before its target is aborted with a
    /// `quota-exceeded` error.
    pub quota: Option<u64>,
    /// Optional wall-clock deadline in milliseconds, measured from
    /// acceptance; a job still live past it is killed with a `deadline`
    /// error at its next scheduling point.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A spec with protocol defaults (warmup 0, scale 1.0, label `rev`,
    /// paper-default config, no quota).
    pub fn new(id: impl Into<String>, profile: impl Into<String>, instructions: u64) -> Self {
        JobSpec {
            id: id.into(),
            profile: profile.into(),
            instructions,
            warmup: 0,
            scale: 1.0,
            label: "rev".to_string(),
            config: JobConfig::default(),
            quota: None,
            deadline_ms: None,
        }
    }
}

/// A client → daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Protocol handshake; the daemon answers with its own `hello`.
    Hello {
        /// The protocol the client speaks; must equal [`PROTOCOL`].
        proto: String,
    },
    /// Submit a validation job.
    Submit(Box<JobSpec>),
    /// Cancel a live job.
    Cancel {
        /// The job to cancel.
        id: String,
    },
    /// Ask for a `metrics` event (the `serve.*` registry).
    Status,
    /// Stop accepting jobs and wind the connection down with a final
    /// `metrics` + `bye` pair.
    Shutdown {
        /// `false` (the default, wire value `"drain"`): run queued and
        /// in-flight jobs to their natural end. `true` (`"suspend"`):
        /// seal each live job into a `CKPT_SCHEMA` checkpoint and retire
        /// it with a `suspended` event instead of a verdict.
        suspend: bool,
    },
}

impl Request {
    /// The message's `type` tag.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "hello",
            Request::Submit(_) => "submit",
            Request::Cancel { .. } => "cancel",
            Request::Status => "status",
            Request::Shutdown { .. } => "shutdown",
        }
    }

    /// Serializes in canonical field order.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Hello { proto } => Json::obj(vec![
                ("type", Json::Str("hello".to_string())),
                ("proto", Json::Str(proto.clone())),
            ]),
            Request::Submit(spec) => {
                let mut pairs = vec![
                    ("type", Json::Str("submit".to_string())),
                    ("id", Json::Str(spec.id.clone())),
                    ("profile", Json::Str(spec.profile.clone())),
                    ("instructions", Json::Int(spec.instructions as i64)),
                    ("warmup", Json::Int(spec.warmup as i64)),
                    ("scale", Json::Float(spec.scale)),
                    ("label", Json::Str(spec.label.clone())),
                    ("config", spec.config.to_json()),
                ];
                if let Some(q) = spec.quota {
                    pairs.push(("quota", Json::Int(q as i64)));
                }
                if let Some(d) = spec.deadline_ms {
                    pairs.push(("deadline_ms", Json::Int(d as i64)));
                }
                Json::obj(pairs)
            }
            Request::Cancel { id } => Json::obj(vec![
                ("type", Json::Str("cancel".to_string())),
                ("id", Json::Str(id.clone())),
            ]),
            Request::Status => Json::obj(vec![("type", Json::Str("status".to_string()))]),
            Request::Shutdown { suspend } => {
                let mut pairs = vec![("type", Json::Str("shutdown".to_string()))];
                if *suspend {
                    pairs.push(("mode", Json::Str("suspend".to_string())));
                }
                Json::obj(pairs)
            }
        }
    }

    /// Parses a typed request from a JSON value, strictly (unknown
    /// fields are `bad-request`).
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] classifying the failure.
    pub fn from_json(v: &Json) -> Result<Self, ProtoError> {
        match type_tag_of(v)? {
            "hello" => {
                check_fields(v, "hello", &["proto"])?;
                Ok(Request::Hello { proto: req_str(v, "hello", "proto")? })
            }
            "submit" => {
                check_fields(
                    v,
                    "submit",
                    &[
                        "id",
                        "profile",
                        "instructions",
                        "warmup",
                        "scale",
                        "label",
                        "config",
                        "quota",
                        "deadline_ms",
                    ],
                )?;
                let mut spec = JobSpec::new(
                    req_str(v, "submit", "id")?,
                    req_str(v, "submit", "profile")?,
                    req_u64(v, "submit", "instructions")?,
                );
                if spec.instructions == 0 {
                    return Err(ProtoError::bad("submit.instructions must be at least 1"));
                }
                if let Some(w) = v.get("warmup") {
                    spec.warmup =
                        w.as_u64().ok_or_else(|| ProtoError::bad("submit.warmup must be >= 0"))?;
                }
                if let Some(s) = v.get("scale") {
                    spec.scale = s
                        .as_f64()
                        .ok_or_else(|| ProtoError::bad("submit.scale must be a number"))?;
                    if !(spec.scale > 0.0 && spec.scale.is_finite()) {
                        return Err(ProtoError::bad("submit.scale must be a positive number"));
                    }
                }
                if let Some(l) = v.get("label") {
                    spec.label = l
                        .as_str()
                        .ok_or_else(|| ProtoError::bad("submit.label must be a string"))?
                        .to_string();
                }
                if let Some(c) = v.get("config") {
                    spec.config = JobConfig::from_json(c)?;
                }
                if let Some(q) = v.get("quota") {
                    let quota =
                        q.as_u64().ok_or_else(|| ProtoError::bad("submit.quota must be >= 1"))?;
                    if quota == 0 {
                        return Err(ProtoError::bad("submit.quota must be at least 1"));
                    }
                    spec.quota = Some(quota);
                }
                if let Some(d) = v.get("deadline_ms") {
                    let deadline = d
                        .as_u64()
                        .ok_or_else(|| ProtoError::bad("submit.deadline_ms must be >= 1"))?;
                    if deadline == 0 {
                        return Err(ProtoError::bad("submit.deadline_ms must be at least 1"));
                    }
                    spec.deadline_ms = Some(deadline);
                }
                Ok(Request::Submit(Box::new(spec)))
            }
            "cancel" => {
                check_fields(v, "cancel", &["id"])?;
                Ok(Request::Cancel { id: req_str(v, "cancel", "id")? })
            }
            "status" => {
                check_fields(v, "status", &[])?;
                Ok(Request::Status)
            }
            "shutdown" => {
                check_fields(v, "shutdown", &["mode"])?;
                let suspend = match v.get("mode") {
                    None => false,
                    Some(m) => match m.as_str() {
                        Some("drain") => false,
                        Some("suspend") => true,
                        _ => {
                            return Err(ProtoError::bad(
                                "shutdown.mode must be \"drain\" or \"suspend\"",
                            ))
                        }
                    },
                };
                Ok(Request::Shutdown { suspend })
            }
            other => Err(ProtoError::bad(format!("unknown request type {other:?}"))),
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// `bad-json` on malformed JSON, otherwise as [`Request::from_json`].
    pub fn parse_line(line: &str) -> Result<Self, ProtoError> {
        let v = json::parse(line.trim())
            .map_err(|e| ProtoError::new(ErrorCode::BadJson, e.to_string()))?;
        Self::from_json(&v)
    }
}

/// Why a job's run ended, as reported in a `verdict`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictOutcome {
    /// The committed-instruction target was reached.
    Budget,
    /// The workload executed `halt` before the target.
    Halted,
    /// REV raised a validation violation (the payload is the violation
    /// class, e.g. `basic-block hash mismatch`).
    Violation(String),
    /// Control flow escaped into undecodable bytes before any
    /// validation boundary fired.
    OracleFault,
}

impl VerdictOutcome {
    /// The wire label (`verdict.outcome` value).
    pub fn as_str(&self) -> &'static str {
        match self {
            VerdictOutcome::Budget => "budget",
            VerdictOutcome::Halted => "halted",
            VerdictOutcome::Violation(_) => "violation",
            VerdictOutcome::OracleFault => "oracle-fault",
        }
    }
}

/// A daemon → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake answer: protocol + result schema + pool shape.
    Hello {
        /// The protocol the daemon speaks ([`PROTOCOL`]).
        proto: String,
        /// Schema of verdict result payloads ([`RESULT_SCHEMA`]).
        schema: String,
        /// Worker threads in the session pool.
        workers: u64,
        /// Committed-instruction budget granted per scheduling slice.
        slice: u64,
    },
    /// A `submit` passed validation and was enqueued.
    Accepted {
        /// Job id.
        id: String,
        /// Profile it will simulate.
        profile: String,
        /// Committed-instruction target.
        target: u64,
    },
    /// A scheduling slice completed without finishing the job.
    Progress {
        /// Job id.
        id: String,
        /// Correct-path instructions committed so far.
        committed: u64,
        /// Committed-instruction target.
        target: u64,
    },
    /// A job ran to its end; carries the `rev-trace/1` result payload.
    Verdict {
        /// Job id.
        id: String,
        /// Why the run ended.
        outcome: VerdictOutcome,
        /// The `rev-trace/1` measurement snapshot.
        snapshot: Json,
    },
    /// A `cancel` took effect.
    Cancelled {
        /// Job id.
        id: String,
        /// Instructions committed before the cancel landed.
        committed: u64,
    },
    /// A suspending shutdown sealed this live job into a checkpoint and
    /// retired it without a verdict.
    Suspended {
        /// Job id.
        id: String,
        /// Instructions committed when the suspension landed.
        committed: u64,
        /// Committed-instruction target the job was working toward.
        target: u64,
        /// Size of the sealed `CKPT_SCHEMA` envelope in bytes (0 when
        /// the job had not yet started and there is no warmed state).
        ckpt_bytes: u64,
    },
    /// A request or job failed.
    Error {
        /// The affected job, when the failure is job-scoped.
        id: Option<String>,
        /// Failure classification.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// Resubmission hint in milliseconds, present on `overloaded`
        /// rejections from the bounded admission queue.
        retry_after_ms: Option<u64>,
    },
    /// The daemon's `serve.*` metric registry (answer to `status`; also
    /// emitted before `bye`).
    Metrics {
        /// `serve.*` registry in `MetricRegistry` JSON form.
        metrics: Json,
    },
    /// The daemon is done with this connection; no further output.
    Bye,
}

impl Response {
    /// The message's `type` tag.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Response::Hello { .. } => "hello",
            Response::Accepted { .. } => "accepted",
            Response::Progress { .. } => "progress",
            Response::Verdict { .. } => "verdict",
            Response::Cancelled { .. } => "cancelled",
            Response::Suspended { .. } => "suspended",
            Response::Error { .. } => "error",
            Response::Metrics { .. } => "metrics",
            Response::Bye => "bye",
        }
    }

    /// Serializes in canonical field order.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Hello { proto, schema, workers, slice } => Json::obj(vec![
                ("type", Json::Str("hello".to_string())),
                ("proto", Json::Str(proto.clone())),
                ("schema", Json::Str(schema.clone())),
                ("workers", Json::Int(*workers as i64)),
                ("slice", Json::Int(*slice as i64)),
            ]),
            Response::Accepted { id, profile, target } => Json::obj(vec![
                ("type", Json::Str("accepted".to_string())),
                ("id", Json::Str(id.clone())),
                ("profile", Json::Str(profile.clone())),
                ("target", Json::Int(*target as i64)),
            ]),
            Response::Progress { id, committed, target } => Json::obj(vec![
                ("type", Json::Str("progress".to_string())),
                ("id", Json::Str(id.clone())),
                ("committed", Json::Int(*committed as i64)),
                ("target", Json::Int(*target as i64)),
            ]),
            Response::Verdict { id, outcome, snapshot } => {
                let mut pairs = vec![
                    ("type", Json::Str("verdict".to_string())),
                    ("id", Json::Str(id.clone())),
                    ("outcome", Json::Str(outcome.as_str().to_string())),
                ];
                if let VerdictOutcome::Violation(kind) = outcome {
                    pairs.push(("violation", Json::Str(kind.clone())));
                }
                pairs.push(("snapshot", snapshot.clone()));
                Json::obj(pairs)
            }
            Response::Cancelled { id, committed } => Json::obj(vec![
                ("type", Json::Str("cancelled".to_string())),
                ("id", Json::Str(id.clone())),
                ("committed", Json::Int(*committed as i64)),
            ]),
            Response::Suspended { id, committed, target, ckpt_bytes } => Json::obj(vec![
                ("type", Json::Str("suspended".to_string())),
                ("id", Json::Str(id.clone())),
                ("committed", Json::Int(*committed as i64)),
                ("target", Json::Int(*target as i64)),
                ("ckpt_bytes", Json::Int(*ckpt_bytes as i64)),
            ]),
            Response::Error { id, code, message, retry_after_ms } => {
                let mut pairs = vec![("type", Json::Str("error".to_string()))];
                if let Some(id) = id {
                    pairs.push(("id", Json::Str(id.clone())));
                }
                pairs.push(("code", Json::Str(code.as_str().to_string())));
                pairs.push(("message", Json::Str(message.clone())));
                if let Some(ms) = retry_after_ms {
                    pairs.push(("retry_after_ms", Json::Int(*ms as i64)));
                }
                Json::obj(pairs)
            }
            Response::Metrics { metrics } => Json::obj(vec![
                ("type", Json::Str("metrics".to_string())),
                ("metrics", metrics.clone()),
            ]),
            Response::Bye => Json::obj(vec![("type", Json::Str("bye".to_string()))]),
        }
    }

    /// Parses a typed response from a JSON value, strictly — the client
    /// half of the protocol, used by tests and the doc-coverage suite.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] classifying the failure.
    pub fn from_json(v: &Json) -> Result<Self, ProtoError> {
        match type_tag_of(v)? {
            "hello" => {
                check_fields(v, "hello", &["proto", "schema", "workers", "slice"])?;
                Ok(Response::Hello {
                    proto: req_str(v, "hello", "proto")?,
                    schema: req_str(v, "hello", "schema")?,
                    workers: req_u64(v, "hello", "workers")?,
                    slice: req_u64(v, "hello", "slice")?,
                })
            }
            "accepted" => {
                check_fields(v, "accepted", &["id", "profile", "target"])?;
                Ok(Response::Accepted {
                    id: req_str(v, "accepted", "id")?,
                    profile: req_str(v, "accepted", "profile")?,
                    target: req_u64(v, "accepted", "target")?,
                })
            }
            "progress" => {
                check_fields(v, "progress", &["id", "committed", "target"])?;
                Ok(Response::Progress {
                    id: req_str(v, "progress", "id")?,
                    committed: req_u64(v, "progress", "committed")?,
                    target: req_u64(v, "progress", "target")?,
                })
            }
            "verdict" => {
                check_fields(v, "verdict", &["id", "outcome", "violation", "snapshot"])?;
                let outcome = match req_str(v, "verdict", "outcome")?.as_str() {
                    "budget" => VerdictOutcome::Budget,
                    "halted" => VerdictOutcome::Halted,
                    "oracle-fault" => VerdictOutcome::OracleFault,
                    "violation" => VerdictOutcome::Violation(req_str(v, "verdict", "violation")?),
                    other => {
                        return Err(ProtoError::bad(format!("unknown verdict outcome {other:?}")))
                    }
                };
                let snapshot =
                    v.get("snapshot").ok_or_else(|| ProtoError::bad("verdict needs snapshot"))?;
                Ok(Response::Verdict {
                    id: req_str(v, "verdict", "id")?,
                    outcome,
                    snapshot: snapshot.clone(),
                })
            }
            "cancelled" => {
                check_fields(v, "cancelled", &["id", "committed"])?;
                Ok(Response::Cancelled {
                    id: req_str(v, "cancelled", "id")?,
                    committed: req_u64(v, "cancelled", "committed")?,
                })
            }
            "suspended" => {
                check_fields(v, "suspended", &["id", "committed", "target", "ckpt_bytes"])?;
                Ok(Response::Suspended {
                    id: req_str(v, "suspended", "id")?,
                    committed: req_u64(v, "suspended", "committed")?,
                    target: req_u64(v, "suspended", "target")?,
                    ckpt_bytes: req_u64(v, "suspended", "ckpt_bytes")?,
                })
            }
            "error" => {
                check_fields(v, "error", &["id", "code", "message", "retry_after_ms"])?;
                let code_label = req_str(v, "error", "code")?;
                let code = ErrorCode::parse(&code_label)
                    .ok_or_else(|| ProtoError::bad(format!("unknown error code {code_label:?}")))?;
                let retry_after_ms = match v.get("retry_after_ms") {
                    None => None,
                    Some(ms) => Some(ms.as_u64().ok_or_else(|| {
                        ProtoError::bad("error.retry_after_ms must be a non-negative integer")
                    })?),
                };
                Ok(Response::Error {
                    id: v.get("id").and_then(Json::as_str).map(str::to_string),
                    code,
                    message: req_str(v, "error", "message")?,
                    retry_after_ms,
                })
            }
            "metrics" => {
                check_fields(v, "metrics", &["metrics"])?;
                let metrics =
                    v.get("metrics").ok_or_else(|| ProtoError::bad("metrics needs metrics"))?;
                Ok(Response::Metrics { metrics: metrics.clone() })
            }
            "bye" => {
                check_fields(v, "bye", &[])?;
                Ok(Response::Bye)
            }
            other => Err(ProtoError::bad(format!("unknown response type {other:?}"))),
        }
    }

    /// Renders the one-line wire form (no trailing newline).
    pub fn render_line(&self) -> String {
        self.to_json().render()
    }
}

fn type_tag_of(v: &Json) -> Result<&str, ProtoError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(ProtoError::bad("a message must be a JSON object"));
    }
    v.get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::bad("a message needs a string \"type\" field"))
}

/// Strictness: every key must be `type` or in the message's field table.
fn check_fields(v: &Json, what: &str, allowed: &[&str]) -> Result<(), ProtoError> {
    let Json::Obj(pairs) = v else {
        return Err(ProtoError::bad(format!("{what} must be a JSON object")));
    };
    for (k, _) in pairs {
        if k != "type" && !allowed.contains(&k.as_str()) {
            return Err(ProtoError::bad(format!("unknown field {k:?} in {what}")));
        }
    }
    Ok(())
}

fn req_str(v: &Json, what: &str, field: &str) -> Result<String, ProtoError> {
    v.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::bad(format!("{what} needs a string {field:?} field")))
}

fn req_u64(v: &Json, what: &str, field: &str) -> Result<u64, ProtoError> {
    v.get(field)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::bad(format!("{what} needs a non-negative integer {field:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(r: &Request) {
        let parsed = Request::from_json(&r.to_json()).expect("canonical form parses");
        assert_eq!(&parsed, r);
    }

    fn round_trip_response(r: &Response) {
        let parsed = Response::from_json(&r.to_json()).expect("canonical form parses");
        assert_eq!(&parsed, r);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(&Request::Hello { proto: PROTOCOL.to_string() });
        let mut spec = JobSpec::new("j1", "mcf", 200_000);
        spec.warmup = 50_000;
        spec.scale = 0.05;
        spec.label = "REV-32K".to_string();
        spec.config =
            JobConfig { mode: ValidationMode::Aggressive, sc_kib: 64, superblocks: false };
        spec.quota = Some(1_000_000);
        spec.deadline_ms = Some(30_000);
        round_trip_request(&Request::Submit(Box::new(spec)));
        round_trip_request(&Request::Submit(Box::new(JobSpec::new("j2", "gcc", 1))));
        round_trip_request(&Request::Cancel { id: "j1".to_string() });
        round_trip_request(&Request::Status);
        round_trip_request(&Request::Shutdown { suspend: false });
        round_trip_request(&Request::Shutdown { suspend: true });
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(&Response::Hello {
            proto: PROTOCOL.to_string(),
            schema: RESULT_SCHEMA.to_string(),
            workers: 4,
            slice: 50_000,
        });
        round_trip_response(&Response::Accepted {
            id: "j1".to_string(),
            profile: "mcf".to_string(),
            target: 200_000,
        });
        round_trip_response(&Response::Progress {
            id: "j1".to_string(),
            committed: 50_001,
            target: 200_000,
        });
        round_trip_response(&Response::Verdict {
            id: "j1".to_string(),
            outcome: VerdictOutcome::Budget,
            snapshot: Json::obj(vec![("schema", Json::Str(RESULT_SCHEMA.to_string()))]),
        });
        round_trip_response(&Response::Verdict {
            id: "j2".to_string(),
            outcome: VerdictOutcome::Violation("basic-block hash mismatch".to_string()),
            snapshot: Json::obj(vec![]),
        });
        round_trip_response(&Response::Cancelled { id: "j1".to_string(), committed: 123 });
        round_trip_response(&Response::Suspended {
            id: "j1".to_string(),
            committed: 150_003,
            target: 200_000,
            ckpt_bytes: 2_412_820,
        });
        round_trip_response(&Response::Error {
            id: Some("j9".to_string()),
            code: ErrorCode::QuotaExceeded,
            message: "quota of 5000 instructions exhausted".to_string(),
            retry_after_ms: None,
        });
        round_trip_response(&Response::Error {
            id: Some("j10".to_string()),
            code: ErrorCode::Overloaded,
            message: "admission queue is full".to_string(),
            retry_after_ms: Some(250),
        });
        round_trip_response(&Response::Error {
            id: None,
            code: ErrorCode::BadJson,
            message: "JSON parse error at byte 0: expected a value".to_string(),
            retry_after_ms: None,
        });
        round_trip_response(&Response::Metrics {
            metrics: Json::obj(vec![("serve.jobs.submitted", Json::Int(2))]),
        });
        round_trip_response(&Response::Bye);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let v = json::parse(r#"{"type":"cancel","id":"x","extra":1}"#).unwrap();
        let err = Request::from_json(&v).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("extra"), "{err}");
    }

    #[test]
    fn bad_json_is_classified() {
        let err = Request::parse_line("{\"type\":").unwrap_err();
        assert_eq!(err.code, ErrorCode::BadJson);
    }

    #[test]
    fn submit_validation() {
        let zero = r#"{"type":"submit","id":"a","profile":"mcf","instructions":0}"#;
        assert!(Request::parse_line(zero).is_err());
        let bad_mode =
            r#"{"type":"submit","id":"a","profile":"mcf","instructions":1,"config":{"mode":"x"}}"#;
        assert_eq!(Request::parse_line(bad_mode).unwrap_err().code, ErrorCode::BadConfig);
        let minimal = r#"{"type":"submit","id":"a","profile":"mcf","instructions":100}"#;
        let Request::Submit(spec) = Request::parse_line(minimal).unwrap() else {
            panic!("submit expected");
        };
        assert_eq!(spec.warmup, 0);
        assert_eq!(spec.label, "rev");
        assert_eq!(spec.config, JobConfig::default());
    }

    #[test]
    fn error_codes_parse_their_own_labels() {
        for &c in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(c.as_str()), Some(c));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
    }

    #[test]
    fn type_tags_match_the_documented_lists() {
        let reqs = [
            Request::Hello { proto: String::new() }.type_tag(),
            Request::Submit(Box::new(JobSpec::new("a", "b", 1))).type_tag(),
            Request::Cancel { id: String::new() }.type_tag(),
            Request::Status.type_tag(),
            Request::Shutdown { suspend: false }.type_tag(),
        ];
        assert_eq!(reqs.as_slice(), REQUEST_TYPES);
        let resps = [
            Response::Hello { proto: String::new(), schema: String::new(), workers: 0, slice: 0 }
                .type_tag(),
            Response::Accepted { id: String::new(), profile: String::new(), target: 0 }.type_tag(),
            Response::Progress { id: String::new(), committed: 0, target: 0 }.type_tag(),
            Response::Verdict {
                id: String::new(),
                outcome: VerdictOutcome::Budget,
                snapshot: Json::Null,
            }
            .type_tag(),
            Response::Cancelled { id: String::new(), committed: 0 }.type_tag(),
            Response::Suspended { id: String::new(), committed: 0, target: 0, ckpt_bytes: 0 }
                .type_tag(),
            Response::Error {
                id: None,
                code: ErrorCode::BadJson,
                message: String::new(),
                retry_after_ms: None,
            }
            .type_tag(),
            Response::Metrics { metrics: Json::Null }.type_tag(),
            Response::Bye.type_tag(),
        ];
        assert_eq!(resps.as_slice(), RESPONSE_TYPES);
    }
}
