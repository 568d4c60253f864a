//! Peak-memory accounting for paper-scale runs.
//!
//! The `experiments -- scale` driver commits wall time *and* memory for
//! million-tuple solves, so regressions in the columnar layout show up in
//! `perf-check` like wall-time regressions do. Two complementary numbers:
//!
//! - [`Relation::heap_bytes`](crate::Relation::heap_bytes), summed over the
//!   distinct column buffers of the relations a caller hands to
//!   [`MemStats::capture`] — the engine's own accounting of its column
//!   buffers, platform-independent. Buffers are shared copy-on-write, so a
//!   buffer two relations hold counts once.
//! - [`peak_rss_bytes`] — the process high-water mark (`VmHWM` from
//!   `/proc/self/status`), which also sees transient allocations (conflict
//!   CSR buffers, ILP tableaus). Linux-only; `None` elsewhere.

use crate::relation::Relation;
use std::collections::HashSet;
use std::sync::Arc;

/// A point-in-time memory snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Heap bytes of the captured relations' column buffers, each distinct
    /// buffer counted once.
    pub relation_heap_bytes: usize,
    /// Process peak RSS in bytes, when the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
}

impl MemStats {
    /// Captures the column-buffer footprint of `rels` plus the process
    /// peak RSS. A buffer that several of `rels` share counts once.
    pub fn capture<'a>(rels: impl IntoIterator<Item = &'a Relation>) -> MemStats {
        let mut seen = HashSet::new();
        let relation_heap_bytes = rels
            .into_iter()
            .flat_map(|r| (0..r.schema().len()).map(|c| r.column_buffer(c)))
            .filter(|buffer| seen.insert(Arc::as_ptr(buffer)))
            .map(|buffer| buffer.heap_bytes())
            .sum();
        MemStats {
            relation_heap_bytes,
            peak_rss_bytes: peak_rss_bytes(),
        }
    }
}

/// The process's peak resident set size in bytes (`VmHWM`), or `None` when
/// the platform doesn't expose it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm(&status)
}

/// Resets the kernel's peak-RSS high-water mark down to the *current* RSS
/// by writing `5` to `/proc/self/clear_refs` (see `proc(5)`). Without the
/// reset `VmHWM` is monotone over the process lifetime, so a multi-scenario
/// driver would attribute the heaviest scenario's peak to every later one.
/// Returns `true` when the reset took effect (Linux with a writable
/// `clear_refs`); callers on other platforms keep the monotone semantics.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` document (kB units).
fn parse_vmhwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{Dtype, Value};

    #[test]
    fn parse_vmhwm_reads_kb() {
        let doc = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  1234 kB\nThreads:\t1\n";
        assert_eq!(parse_vmhwm(doc), Some(1234 * 1024));
        assert_eq!(parse_vmhwm("Name:\tx\n"), None);
    }

    #[test]
    fn reset_drops_the_high_water_mark() {
        // Push the high-water mark up with a transient buffer big enough
        // to dominate the test process (mmap'd, so freeing returns it).
        let buf = vec![1u8; 64 << 20];
        std::hint::black_box(&buf[..]);
        drop(buf);
        let peak = peak_rss_bytes();
        if !reset_peak_rss() {
            return; // no writable clear_refs: monotone semantics kept
        }
        let after = peak_rss_bytes();
        if let (Some(peak), Some(after)) = (peak, after) {
            // Never above the old mark, and a real value (the reset
            // re-seeds the mark with the *current* RSS, not zero).
            assert!(after <= peak, "reset raised the mark: {peak} -> {after}");
            assert!(after > 0);
        }
    }

    #[test]
    fn capture_sums_relation_buffers() {
        let schema = Schema::new(vec![ColumnDef::attr("x", Dtype::Int)]).unwrap();
        let mut r = Relation::new("t", schema);
        for i in 0..100 {
            r.push_full_row(&[Value::Int(i)]).unwrap();
        }
        let stats = MemStats::capture([&r]);
        assert_eq!(stats.relation_heap_bytes, r.heap_bytes());
        assert!(stats.relation_heap_bytes >= 800);
        // A clone shares the buffer, which counts once; a written clone
        // holds its own copy, which counts too.
        let mut copy = r.clone();
        let shared = MemStats::capture([&r, &copy]).relation_heap_bytes;
        assert_eq!(shared, stats.relation_heap_bytes);
        copy.set(0, 0, Some(Value::Int(-1))).unwrap();
        let both = MemStats::capture([&r, &copy]).relation_heap_bytes;
        assert_eq!(both, r.heap_bytes() + copy.heap_bytes());
        // On Linux (the CI and dev platform) the high-water mark is present
        // and at least as large as one small relation.
        if let Some(rss) = stats.peak_rss_bytes {
            assert!(rss as usize > stats.relation_heap_bytes);
        }
    }
}
