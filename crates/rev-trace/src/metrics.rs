//! The typed metrics registry: counters, gauges, and log2-bucket
//! histograms behind one [`MetricSink`] export trait.
//!
//! Each component accumulates its counters in plain fields (the cheapest
//! hot path) and exports them through [`MetricSink::export_metrics`]
//! into one [`MetricRegistry`] under the names of `docs/METRICS.md`. A
//! stats struct declared with [`stats!`](crate::stats) names each
//! counter once, on its field. The registry is what baseline snapshots
//! serialize.
//!
//! Naming convention: dot-separated lowercase path, `<layer>.<unit>` or
//! `<layer>.<component>.<counter>` (e.g. `cpu.ipc`, `rev.sc.hits`,
//! `mem.dram.accesses.sigfetch`). Registry iteration order is the sorted
//! name order (`BTreeMap`), which makes JSON export deterministic.

use crate::json::Json;
use std::collections::BTreeMap;

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds zeros,
/// bucket `i` (1 ≤ i < 33) holds values in `[2^(i-1), 2^i)`, and the last
/// bucket also absorbs everything ≥ 2^31.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A fixed-geometry log2 histogram (plus count/sum/max), cheap enough to
/// update from a simulator hot path: one shift-class computation and two
/// adds per `record`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts (see [`HISTOGRAM_BUCKETS`] for the geometry).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The half-open value range `[lo, hi)` of bucket `i` (the last bucket
    /// is unbounded above and reports `hi == u64::MAX`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            _ if i == HISTOGRAM_BUCKETS - 1 => (1 << (i - 1), u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Arithmetic mean of recorded values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn to_json(&self) -> Json {
        // Trailing empty buckets are trimmed; the geometry is fixed, so
        // the reader re-derives indices.
        let last = self.buckets.iter().rposition(|&b| b != 0).map(|i| i + 1).unwrap_or(0);
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            ("max", Json::Int(self.max as i64)),
            (
                "buckets",
                Json::Arr(self.buckets[..last].iter().map(|&b| Json::Int(b as i64)).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        let mut h = Histogram::new();
        h.count = v.get("count")?.as_u64()?;
        h.sum = v.get("sum")?.as_u64()?;
        h.max = v.get("max")?.as_u64()?;
        if let Some(Json::Arr(items)) = v.get("buckets") {
            for (i, b) in items.iter().enumerate() {
                if i >= HISTOGRAM_BUCKETS {
                    return None;
                }
                h.buckets[i] = b.as_u64()?;
            }
        }
        Some(h)
    }
}

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone event count (renders as a JSON integer).
    Counter(u64),
    /// A point-in-time or derived measurement (renders as a JSON float).
    Gauge(f64),
    /// A log2-bucket distribution (boxed: a `Histogram` is ~280 bytes,
    /// far larger than the scalar variants).
    Histogram(Box<Histogram>),
}

/// A sorted name → value map of everything one run measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.insert(name, MetricValue::Counter(value));
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.insert(name, MetricValue::Gauge(value));
    }

    /// Registers a histogram.
    pub fn histogram(&mut self, name: &str, value: Histogram) {
        self.insert(name, MetricValue::Histogram(Box::new(value)));
    }

    fn insert(&mut self, name: &str, value: MetricValue) {
        debug_assert!(
            !self.metrics.contains_key(name),
            "metric '{name}' registered twice — two sinks collide"
        );
        self.metrics.insert(name.to_string(), value);
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// All metrics in sorted name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// All metric names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Serializes to a JSON object (sorted key order — deterministic).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(k, v)| {
                    let jv = match v {
                        MetricValue::Counter(c) => Json::Int(*c as i64),
                        MetricValue::Gauge(g) => Json::Float(*g),
                        MetricValue::Histogram(h) => h.to_json(),
                    };
                    (k.clone(), jv)
                })
                .collect(),
        )
    }

    /// Reconstructs a registry from [`MetricRegistry::to_json`] output.
    /// Integer values become counters, floats gauges, objects histograms.
    pub fn from_json(v: &Json) -> Option<Self> {
        let Json::Obj(pairs) = v else { return None };
        let mut reg = MetricRegistry::new();
        for (k, v) in pairs {
            let mv = match v {
                Json::Int(i) => MetricValue::Counter((*i).max(0) as u64),
                Json::Float(f) => MetricValue::Gauge(*f),
                Json::Obj(_) => MetricValue::Histogram(Box::new(Histogram::from_json(v)?)),
                _ => return None,
            };
            reg.metrics.insert(k.clone(), mv);
        }
        Some(reg)
    }
}

/// Anything that can export its counters into a registry under the
/// documented schema. [`stats!`](crate::stats) derives it for every
/// stats struct it declares (`CpuStats` with `InstrMix`, `RevStats` with
/// `ScStats` and `ShadowStats`, `TableStats`, `CfgStats`, rev-serve's
/// gateway counters); `MemStats`, whose names come from one loop over
/// the requesters, implements it by hand.
pub trait MetricSink {
    /// Exports this component's metrics into `reg`. Implementations must
    /// use names listed in `docs/METRICS.md`.
    fn export_metrics(&self, reg: &mut MetricRegistry);
}

/// A stats field that exports as one metric: integers as counters,
/// `f64` as a gauge, a [`Histogram`] as itself.
pub trait Metric {
    /// Registers the value under `name`.
    fn export(&self, name: &str, reg: &mut MetricRegistry);
}

macro_rules! metric {
    ($t:ty, $v:ident => $value:expr) => {
        impl Metric for $t {
            fn export(&self, name: &str, reg: &mut MetricRegistry) {
                let $v = self;
                reg.insert(name, $value);
            }
        }
    };
}

metric!(u64, v => MetricValue::Counter(*v));
metric!(usize, v => MetricValue::Counter(*v as u64));
metric!(f64, v => MetricValue::Gauge(*v));
metric!(Histogram, v => MetricValue::Histogram(Box::new(v.clone())));

/// The host-work counters of a stats struct: counts of the simulator's
/// own shortcuts (memo hits, multi-lane hashes), deterministic but not
/// modeled hardware, so no snapshot carries them. `rev-bench`'s
/// `tests/host_work.rs` pins them instead.
pub trait HostWork {
    /// Each host-work counter as (name, value), in declaration order.
    fn host_work(&self) -> impl Iterator<Item = (&'static str, u64)>;
}

/// Declares a stats struct and derives everything else from its one
/// field list: the [`Ckpt`](crate::Ckpt) encoding (fields travel in
/// declaration order), the [`MetricSink`] export and the [`HostWork`]
/// iterator. Each field ends in its role:
///
/// * `=> "layer.name"` exports the field under that name ([`Metric`]);
/// * `=> nested` names a struct this macro declared, exported and
///   iterated through its own list (its names are complete, so export
///   builds no prefix);
/// * `=> host "name"` is a host-work counter: checkpointed, never
///   exported, yielded by [`HostWork::host_work`] under that name;
/// * `=> ckpt` is checkpointed only (state a derived metric reads);
/// * `=> skip` is neither, and loads as `Default::default()`.
///
/// `then |s, reg| EXPR` after the struct evaluates `EXPR` at the end of
/// the export, with `s` the struct and `reg` the registry: the place for
/// the metrics derived from several fields.
#[macro_export]
macro_rules! stats {
    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fattr:meta])* $fvis:vis $f:ident: $t:ty => $role:tt $($host:literal)?),+ $(,)?
        }
        $(then |$s:ident, $reg:ident| $derived:expr)?
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $($(#[$fattr])* $fvis $f: $t,)+
        }

        impl $crate::Ckpt for $name {
            const MIN_BYTES: usize = 0 $(+ $crate::stats!(@min $t, $role))+;
            fn save(&self, w: &mut $crate::CkptWriter) {
                $($crate::stats!(@save self, w, $f, $role);)+
            }
            fn load(r: &mut $crate::CkptReader<'_>) -> Result<Self, $crate::CkptError> {
                Ok(Self { $($f: $crate::stats!(@load r, $role),)+ })
            }
        }

        impl $crate::MetricSink for $name {
            fn export_metrics(&self, reg: &mut $crate::MetricRegistry) {
                $($crate::stats!(@export self, reg, $f, $role);)+
                $(let ($s, $reg) = (self, reg); $derived;)?
            }
        }

        impl $crate::HostWork for $name {
            fn host_work(&self) -> impl Iterator<Item = (&'static str, u64)> {
                ::std::iter::empty::<(&'static str, u64)>()
                    $(.chain($crate::stats!(@host self, $f, $role $($host)?)))+
            }
        }
    };
    (@min $t:ty, skip) => { 0 };
    (@min $t:ty, $role:tt) => { <$t as $crate::Ckpt>::MIN_BYTES };
    (@save $s:ident, $w:ident, $f:ident, skip) => {};
    (@save $s:ident, $w:ident, $f:ident, $role:tt) => { $crate::Ckpt::save(&$s.$f, $w) };
    (@load $r:ident, skip) => { ::std::default::Default::default() };
    (@load $r:ident, $role:tt) => { $crate::Ckpt::load($r)? };
    (@export $s:ident, $reg:ident, $f:ident, nested) => {
        $crate::MetricSink::export_metrics(&$s.$f, $reg)
    };
    (@export $s:ident, $reg:ident, $f:ident, $metric:literal) => {
        $crate::Metric::export(&$s.$f, $metric, $reg)
    };
    (@export $s:ident, $reg:ident, $f:ident, $role:ident) => {};
    (@host $s:ident, $f:ident, host $host:literal) => { [($host, $s.$f)] };
    (@host $s:ident, $f:ident, nested) => { $crate::HostWork::host_work(&$s.$f) };
    (@host $s:ident, $f:ident, $role:tt) => { [] };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The log2 bucket boundaries, exactly: 0 is its own bucket; each
    /// power of two starts a new bucket; the top bucket absorbs the tail.
    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(7), 3);
        assert_eq!(Histogram::bucket_of(8), 4);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let (lo, hi) = Histogram::bucket_range(i);
            assert_eq!(Histogram::bucket_of(lo), i, "low edge of bucket {i}");
            assert_eq!(Histogram::bucket_of(hi - 1), i, "high edge of bucket {i}");
            assert_eq!(Histogram::bucket_of(hi), i + 1, "first value of bucket {}", i + 1);
        }
        // The top bucket is open above.
        let (top_lo, _) = Histogram::bucket_range(HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(top_lo), HISTOGRAM_BUCKETS - 1);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_accumulates() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 105);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[Histogram::bucket_of(100)], 1);
        assert!((h.mean() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn registry_round_trips_through_json() {
        let mut reg = MetricRegistry::new();
        reg.counter("cpu.cycles", 1234);
        reg.gauge("cpu.ipc", 1.5);
        let mut h = Histogram::new();
        h.record(7);
        h.record(0);
        reg.histogram("rev.defer.occupancy", h);
        let j = reg.to_json();
        let back = MetricRegistry::from_json(&j).unwrap();
        assert_eq!(back, reg);
        // Sorted key order in the rendering.
        let text = j.render();
        let ci = text.find("cpu.cycles").unwrap();
        let ip = text.find("cpu.ipc").unwrap();
        let de = text.find("rev.defer.occupancy").unwrap();
        assert!(ci < ip && ip < de, "sorted metric order: {text}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_is_a_bug() {
        let mut reg = MetricRegistry::new();
        reg.counter("x", 1);
        reg.counter("x", 2);
    }
}
