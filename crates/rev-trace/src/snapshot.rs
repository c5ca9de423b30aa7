//! Schema-versioned baseline snapshots (`BENCH_rev.json`).
//!
//! A [`Snapshot`] is the machine-readable output of one benchmark run:
//! a `meta` object (run parameters), an `attacks` array (detection
//! results for the tampering demos), and a `profiles` map of
//! `profile → config → MetricRegistry`. Because the simulator is fully
//! deterministic, two runs of the same binary with the same parameters
//! produce byte-identical snapshots, so plain `diff` is the regression
//! check: any moved byte is a behaviour change.

use crate::json::{self, Json, ParseError};
use crate::metrics::MetricRegistry;
use std::collections::BTreeMap;

/// The snapshot schema identifier. Bump the suffix when the layout
/// changes incompatibly; [`Snapshot::parse`] refuses other schemas.
pub const SCHEMA: &str = "rev-trace/1";

/// Outcome of one tampering demo run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackRecord {
    /// Attack kind (e.g. `patch-branch`, `flip-bit`).
    pub kind: String,
    /// Whether the monitor flagged a violation.
    pub detected: bool,
    /// The violation class reported, if any.
    pub violation: Option<String>,
}

/// One benchmark run's complete machine-readable output.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Run parameters, in producer insertion order.
    pub meta: Vec<(String, Json)>,
    /// Tampering-demo outcomes.
    pub attacks: Vec<AttackRecord>,
    /// `profile name → config name → metrics`.
    pub profiles: BTreeMap<String, BTreeMap<String, MetricRegistry>>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Appends a meta entry (order preserved in the rendering).
    pub fn meta_entry(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    /// Inserts one config's metrics under a profile.
    pub fn add_metrics(&mut self, profile: &str, config: &str, metrics: MetricRegistry) {
        self.profiles.entry(profile.to_string()).or_default().insert(config.to_string(), metrics);
    }

    /// Serializes to the `rev-trace/1` JSON layout.
    pub fn to_json(&self) -> Json {
        let attacks = Json::Arr(
            self.attacks
                .iter()
                .map(|a| {
                    Json::obj(vec![
                        ("kind", Json::Str(a.kind.clone())),
                        ("detected", Json::Bool(a.detected)),
                        ("violation", a.violation.clone().map(Json::Str).unwrap_or(Json::Null)),
                    ])
                })
                .collect(),
        );
        let profiles = Json::Obj(
            self.profiles
                .iter()
                .map(|(name, configs)| {
                    let cfgs = Json::Obj(
                        configs.iter().map(|(cfg, reg)| (cfg.clone(), reg.to_json())).collect(),
                    );
                    (name.clone(), cfgs)
                })
                .collect(),
        );
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("meta", Json::Obj(self.meta.iter().map(|(k, v)| (k.clone(), v.clone())).collect())),
            ("attacks", attacks),
            ("profiles", profiles),
        ])
    }

    /// Renders the snapshot as pretty-printed JSON (2-space indent) —
    /// the on-disk `BENCH_rev.json` format.
    pub fn render(&self) -> String {
        self.to_json().render_pretty(2)
    }

    /// Reconstructs a snapshot from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message if the schema tag is missing/unknown or a
    /// section is malformed.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let schema = v.get("schema").and_then(Json::as_str).ok_or("missing \"schema\" tag")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (expected {SCHEMA:?})"));
        }
        let mut snap = Snapshot::new();
        if let Some(Json::Obj(pairs)) = v.get("meta") {
            snap.meta = pairs.clone();
        }
        if let Some(Json::Arr(items)) = v.get("attacks") {
            for a in items {
                snap.attacks.push(AttackRecord {
                    kind: a
                        .get("kind")
                        .and_then(Json::as_str)
                        .ok_or("attack without \"kind\"")?
                        .to_string(),
                    detected: a
                        .get("detected")
                        .and_then(Json::as_bool)
                        .ok_or("attack without \"detected\"")?,
                    violation: a.get("violation").and_then(Json::as_str).map(str::to_string),
                });
            }
        }
        if let Some(Json::Obj(profiles)) = v.get("profiles") {
            for (name, configs) in profiles {
                let Json::Obj(cfgs) = configs else {
                    return Err(format!("profile {name:?} is not an object"));
                };
                for (cfg, reg) in cfgs {
                    let reg = MetricRegistry::from_json(reg)
                        .ok_or_else(|| format!("bad metrics in {name:?}/{cfg:?}"))?;
                    snap.add_metrics(name, cfg, reg);
                }
            }
        }
        Ok(snap)
    }

    /// Parses a snapshot from JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or an unsupported layout.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e: ParseError| e.to_string())?;
        Snapshot::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.meta_entry("instructions", Json::Int(100_000));
        s.meta_entry("wall_clock_ms", Json::Float(12.5));
        s.attacks.push(AttackRecord {
            kind: "patch-branch".into(),
            detected: true,
            violation: Some("HashMismatch".into()),
        });
        let mut reg = MetricRegistry::new();
        reg.counter("cpu.cycles", 50_000);
        reg.gauge("cpu.ipc", 2.0);
        let mut h = Histogram::new();
        h.record(3);
        h.record(9);
        reg.histogram("rev.defer.occupancy", h);
        s.add_metrics("qsort", "REV-32K", reg);
        s
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample();
        let text = s.render();
        assert!(text.starts_with("{\n  \"schema\": \"rev-trace/1\""));
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(back, s);
        // Deterministic: re-render is byte-identical.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn rejects_unknown_schema() {
        let err = Snapshot::parse(r#"{"schema":"rev-trace/999"}"#).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }
}
