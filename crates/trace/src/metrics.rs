//! The unified stats registry: named atomic counters and duration
//! accumulators, one registry per synthesis run.
//!
//! Historically each layer of the stack kept its own stats struct
//! (`SolveStats` in `pins-core`, `SessionStats` in `pins-smt`,
//! `PinsStats` on the engine) and counters were hand-copied between them
//! at layer boundaries — three chances per counter to drift. A
//! [`MetricsRegistry`] replaces that: every layer binds cheap [`Counter`]
//! handles to the same registry and bumps them *at event time*. Those
//! structs still exist, but as typed views reconstructed from the registry,
//! so they agree with it by construction.
//!
//! Durations are stored as nanoseconds in ordinary counters under the same
//! namespace (`phase.symexec`, `phase.sat`, ...); [`MetricsRegistry::add_duration`]
//! and [`MetricsRegistry::duration`] do the conversion.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::hist::{HistSnapshot, Histogram};

/// A handle to one named cell of a [`MetricsRegistry`]. Cloning shares the
/// cell; increments are relaxed atomic adds, safe from any thread.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not in any registry) — useful as a default.
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (for high-water marks).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Overwrites the value (for gauges).
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Adds a duration, in nanoseconds.
    #[inline]
    pub fn add_duration(&self, d: Duration) {
        self.add(d.as_nanos() as u64);
    }

    /// Reads the value as a duration in nanoseconds.
    #[inline]
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.get())
    }
}

#[derive(Debug, Default)]
struct Inner {
    cells: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Named log-scaled latency histograms, same sharing discipline as the
    /// counters: a handle is an `Arc` of the buckets, so every clone
    /// records into the same cells the registry reads.
    hists: Mutex<BTreeMap<String, Histogram>>,
}

/// A thread-safe registry of named counters. Cloning shares the registry
/// (it is an `Arc` handle): the engine, its SMT sessions, and the benchmark
/// harness all observe the same cells.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Whether two handles share the same underlying registry.
    pub fn same_registry(&self, other: &MetricsRegistry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// The counter named `name`, created at 0 on first use. The returned
    /// handle is cheap to clone and bump; hot paths should hold a handle
    /// rather than calling this (it takes the registry lock).
    pub fn counter(&self, name: &str) -> Counter {
        let mut cells = self.inner.cells.lock().unwrap();
        let cell = cells
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Arc::clone(cell),
        }
    }

    /// One-shot add (prefer holding a [`Counter`] on hot paths).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// One-shot duration add.
    pub fn add_duration(&self, name: &str, d: Duration) {
        self.counter(name).add_duration(d);
    }

    /// One-shot max-record.
    pub fn record_max(&self, name: &str, v: u64) {
        self.counter(name).record_max(v);
    }

    /// Current value of `name` (0 if absent; the cell is not created).
    pub fn get(&self, name: &str) -> u64 {
        let cells = self.inner.cells.lock().unwrap();
        cells.get(name).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Value of `name` read as nanoseconds.
    pub fn duration(&self, name: &str) -> Duration {
        Duration::from_nanos(self.get(name))
    }

    /// A point-in-time copy of every cell, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let cells = self.inner.cells.lock().unwrap();
        cells
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// The histogram named `name`, created empty on first use. The returned
    /// handle is cheap to clone and record into; hot paths should hold a
    /// handle rather than calling this (it takes the registry lock).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut hists = self.inner.hists.lock().unwrap();
        hists.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of the named histogram's buckets (empty if the
    /// histogram was never created).
    pub fn histogram_snapshot(&self, name: &str) -> HistSnapshot {
        let hists = self.inner.hists.lock().unwrap();
        hists
            .get(name)
            .map(Histogram::snapshot)
            .unwrap_or_else(HistSnapshot::empty)
    }

    /// Point-in-time snapshots of every histogram, sorted by name.
    pub fn histograms(&self) -> BTreeMap<String, HistSnapshot> {
        let hists = self.inner.hists.lock().unwrap();
        hists
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }

    /// Snapshot restricted to names starting with `prefix`, with the prefix
    /// stripped.
    pub fn snapshot_prefixed(&self, prefix: &str) -> BTreeMap<String, u64> {
        let cells = self.inner.cells.lock().unwrap();
        cells
            .iter()
            .filter_map(|(k, v)| {
                k.strip_prefix(prefix)
                    .map(|rest| (rest.to_string(), v.load(Ordering::Relaxed)))
            })
            .collect()
    }
}
