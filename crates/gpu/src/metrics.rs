//! One metrics registry for every instrumented layer.
//!
//! A component declares a fixed table of named entries and counts into a
//! [`Metrics`] built from it: one `AtomicU64` per entry, updated by index
//! with one relaxed atomic op, no lock and no name lookup. A [`Snapshot`]
//! reads entries by name, isolates an interval and writes itself as JSON.
//! Names carry their nesting and unit: `kernel_time.sort_ns` is written as
//! `"kernel_time": {"sort_ms": …}`, a [`Kind::Nanos`] bucket in milliseconds.

use std::sync::atomic::{AtomicU64, Ordering};

/// How an entry is updated and how it reads across an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count; a delta subtracts.
    Counter,
    /// A level that goes up and down; a delta keeps the later value.
    Gauge,
    /// A high-water mark; a delta keeps the later value.
    Peak,
    /// Nanoseconds summed into a bucket named in `_ns`; a delta subtracts,
    /// and JSON writes the bucket in milliseconds, named in `_ms`.
    Nanos,
}

/// A registry: one atomic per entry of a component's table, which lists
/// each entry's name and kind in the order the component's index constants
/// count them. An `entry` argument is such an index.
#[derive(Debug)]
pub struct Metrics {
    entries: &'static [(&'static str, Kind)],
    values: Box<[AtomicU64]>,
}

impl Metrics {
    /// A registry over `entries`, every value zero.
    pub fn new(entries: &'static [(&'static str, Kind)]) -> Self {
        let values = entries.iter().map(|_| AtomicU64::new(0)).collect();
        Metrics { entries, values }
    }

    /// Adds `n` to a counter, a bucket or a gauge; returns the value before.
    pub fn add(&self, entry: usize, n: u64) -> u64 {
        self.values[entry].fetch_add(n, Ordering::Relaxed)
    }

    /// Takes `n` off a gauge.
    pub fn sub(&self, entry: usize, n: u64) {
        self.values[entry].fetch_sub(n, Ordering::Relaxed);
    }

    /// Sets a gauge.
    pub fn set(&self, entry: usize, value: u64) {
        self.values[entry].store(value, Ordering::Relaxed);
    }

    /// Raises a high-water mark to `value` if it is higher.
    pub fn max(&self, entry: usize, value: u64) {
        self.values[entry].fetch_max(value, Ordering::Relaxed);
    }

    /// The current value of one entry.
    pub fn get(&self, entry: usize) -> u64 {
        self.values[entry].load(Ordering::Relaxed)
    }

    /// Every entry's current value, each read on its own.
    pub fn snapshot(&self) -> Snapshot {
        let values = self.values.iter().map(|v| v.load(Ordering::Relaxed));
        let entries = self.entries.iter().zip(values);
        let entries = entries.map(|(&(name, kind), value)| (name.to_string(), kind, value));
        Snapshot {
            entries: entries.collect(),
        }
    }
}

/// The values of one or more registries at one moment, by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    entries: Vec<(String, Kind, u64)>,
}

impl Snapshot {
    /// The value of the entry called `name` (nanoseconds for a bucket).
    pub fn get(&self, name: &str) -> Option<u64> {
        let entry = self.entries.iter().find(|(entry, ..)| entry == name);
        entry.map(|&(_, _, value)| value)
    }

    /// What happened since `earlier`, an older snapshot of the same
    /// registries: counters and buckets subtract, gauges and peaks keep
    /// `self`'s value.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let delta = |(name, kind, value): &(String, Kind, u64)| {
            let value = match kind {
                Kind::Counter | Kind::Nanos => value.saturating_sub(earlier.get(name).unwrap_or(0)),
                Kind::Gauge | Kind::Peak => *value,
            };
            (name.clone(), *kind, value)
        };
        Snapshot {
            entries: self.entries.iter().map(delta).collect(),
        }
    }

    /// `self` followed by `inner`'s entries, each `name` as `section.name`.
    pub fn nest(mut self, section: &str, inner: Snapshot) -> Snapshot {
        let nested = inner.entries.into_iter();
        let nested = nested.map(|(name, kind, value)| (format!("{section}.{name}"), kind, value));
        self.entries.extend(nested);
        self
    }

    /// Writes the snapshot as one JSON object, each dotted name nested.
    pub fn write_json(&self, out: &mut String) {
        write_object(&self.entries, 0, out);
    }
}

/// Writes `entries`, whose names share their first `skip` bytes, as one
/// object keyed by the rest of each name. Entries of one section are
/// adjacent, as every table and [`Snapshot::nest`] keep them.
fn write_object(entries: &[(String, Kind, u64)], skip: usize, out: &mut String) {
    out.push('{');
    let mut rest = entries;
    while let Some((name, kind, value)) = rest.first() {
        if rest.len() < entries.len() {
            out.push_str(", ");
        }
        let key = &name[skip..];
        let written = match key.split_once('.') {
            Some((section, _)) => {
                let prefix = &name[..skip + section.len() + 1];
                let len = rest
                    .iter()
                    .take_while(|(n, ..)| n.starts_with(prefix))
                    .count();
                out.push_str(&format!("\"{section}\": "));
                write_object(&rest[..len], prefix.len(), out);
                len
            }
            None if *kind == Kind::Nanos => {
                let key = key.strip_suffix("_ns").unwrap_or(key);
                out.push_str(&format!("\"{key}_ms\": {}", *value as f64 / 1e6));
                1
            }
            None => {
                out.push_str(&format!("\"{key}\": {value}"));
                1
            }
        };
        rest = &rest[written..];
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRIES: &[(&str, Kind)] = &[
        ("launches", Kind::Counter),
        ("time.sort_ns", Kind::Nanos),
        ("time.join_ns", Kind::Nanos),
        ("live", Kind::Gauge),
        ("peak", Kind::Peak),
    ];
    const LAUNCHES: usize = 0;
    const SORT: usize = 1;
    const JOIN: usize = 2;
    const LIVE: usize = 3;
    const PEAK: usize = 4;

    #[test]
    fn delta_since_subtracts_counters_and_keeps_gauges_and_peaks() {
        let metrics = Metrics::new(ENTRIES);
        metrics.add(LAUNCHES, 1);
        metrics.add(SORT, 500);
        metrics.add(LIVE, 100);
        metrics.max(PEAK, 100);
        let earlier = metrics.snapshot();
        metrics.add(LAUNCHES, 2);
        metrics.add(SORT, 250);
        metrics.sub(LIVE, 60);
        metrics.max(PEAK, 70);
        let delta = metrics.snapshot().delta_since(&earlier);
        assert_eq!(delta.get("launches"), Some(2));
        assert_eq!(delta.get("time.sort_ns"), Some(250));
        assert_eq!(delta.get("time.join_ns"), Some(0));
        assert_eq!(delta.get("live"), Some(40));
        assert_eq!(delta.get("peak"), Some(100));
        assert_eq!(delta.get("missing"), None);
    }

    #[test]
    fn json_nests_dotted_names_and_writes_nanoseconds_in_milliseconds() {
        let metrics = Metrics::new(ENTRIES);
        metrics.add(LAUNCHES, 3);
        metrics.add(SORT, 1_500_000);
        metrics.add(JOIN, 2_000_000);
        metrics.set(LIVE, 8);
        let inner = Metrics::new(&[("fresh", Kind::Counter)]);
        inner.add(0, 1);
        let snapshot = metrics.snapshot().nest("arena", inner.snapshot());
        assert_eq!(snapshot.get("arena.fresh"), Some(1));
        let mut out = String::new();
        snapshot.write_json(&mut out);
        assert_eq!(
            out,
            "{\"launches\": 3, \"time\": {\"sort_ms\": 1.5, \"join_ms\": 2}, \
             \"live\": 8, \"peak\": 0, \"arena\": {\"fresh\": 1}}"
        );
        let mut empty = String::new();
        Snapshot::default().write_json(&mut empty);
        assert_eq!(empty, "{}");
    }
}
