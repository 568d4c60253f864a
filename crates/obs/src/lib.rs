//! # cextend-obs — structured observability for the C-Extension solver
//!
//! A zero-external-dependency tracing layer with two tiers:
//!
//! 1. **Stage frames** (always on): a thread-local stack of frames, each
//!    accumulating `(stage name, duration)` totals. The solver opens a
//!    [`frame`] per solve, wraps every pipeline stage in a [`stage`] guard
//!    (or folds worker-measured durations in with [`stage_add`]), and
//!    re-derives its `StageTimings` from [`Frame::totals`] — sub-stage
//!    timings stop being hand-threaded fields. Cost per stage is the same
//!    pair of `Instant` reads the old `stats.timings.x += t.elapsed()`
//!    pattern already paid.
//! 2. **Span + counter recording** (off by default, a branch on an
//!    [`AtomicBool`]): when enabled via [`set_recording`], stage guards,
//!    [`span`]/[`span_dyn`] guards, and [`timed`] closures additionally
//!    emit complete-span events (nanosecond wall offset from a process
//!    epoch + small-integer thread id), and [`counter_add`] accumulates
//!    named counters. Events are buffered in thread-local vectors and
//!    flushed to a global collector when the buffer grows, when a worker
//!    closure finishes ([`flush_thread`] — pools call it as the closure's
//!    last action), and at [`take_trace`] — collection is lock-cheap on
//!    the hot path.
//!
//! The collected [`Trace`] validates itself (balanced nesting, monotone
//! timestamps), aggregates per-stage self-times, and exports the Chrome
//! Trace Event Format (`trace.json`, loadable in Perfetto or
//! `chrome://tracing`).
//!
//! The human sink lives here too: [`trace_level`] caches the
//! `CEXTEND_TRACE` env var once (`0`/unset = silent, `2` = per-solve stage
//! tree, any other non-empty value = progress lines, preserving the old
//! "set means on" behaviour), [`tracef!`] prints gated `[trace]` lines to
//! stderr, and [`narrate!`] routes harness progress narration to stderr so
//! machine-readable stdout stays parseable.

#![warn(missing_docs)]

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// CEXTEND_TRACE levels + human sink
// ---------------------------------------------------------------------------

/// Cached `CEXTEND_TRACE` level; `u8::MAX` means "not read yet".
static LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

fn parse_level(raw: Option<&str>) -> u8 {
    match raw.map(str::trim) {
        None | Some("") | Some("0") => 0,
        Some("2") => 2,
        Some(_) => 1,
    }
}

/// The effective `CEXTEND_TRACE` level: `0` silent, `1` progress lines,
/// `2` progress lines plus a per-solve stage tree. Unset or empty means
/// `0`; any other unrecognized value means `1` (the historical "set means
/// on" contract). Read from the environment once, then cached.
pub fn trace_level() -> u8 {
    let cached = LEVEL.load(Ordering::Relaxed);
    if cached != u8::MAX {
        return cached;
    }
    let level = parse_level(std::env::var("CEXTEND_TRACE").ok().as_deref());
    LEVEL.store(level, Ordering::Relaxed);
    level
}

/// `true` when trace output is on at all (level ≥ 1). The single check that
/// replaces the scattered `env::var_os("CEXTEND_TRACE")` probes.
#[inline]
pub fn trace_enabled() -> bool {
    trace_level() >= 1
}

/// Prints a `[trace]`-prefixed line to stderr when [`trace_enabled`].
#[macro_export]
macro_rules! tracef {
    ($($arg:tt)*) => {
        if $crate::trace_enabled() {
            eprintln!("[trace] {}", format_args!($($arg)*));
        }
    };
}

/// Routes harness progress narration to stderr (the human sink), keeping
/// machine-readable stdout clean. Always prints.
#[macro_export]
macro_rules! narrate {
    ($($arg:tt)*) => {
        eprintln!("{}", format_args!($($arg)*));
    };
}

/// Renders an indented `(depth, name, duration)` tree for the human sink,
/// one `[trace]` line per entry.
pub fn render_tree(entries: &[(usize, &str, Duration)]) -> String {
    let mut out = String::new();
    for &(depth, name, dur) in entries {
        out.push_str("[trace] ");
        for _ in 0..depth {
            out.push_str("  ");
        }
        let pad = 24usize.saturating_sub(name.len() + 2 * depth);
        out.push_str(name);
        for _ in 0..pad {
            out.push(' ');
        }
        out.push_str(&format!(" {dur:?}\n"));
    }
    out
}

// ---------------------------------------------------------------------------
// Tier A: stage frames (always on)
// ---------------------------------------------------------------------------

thread_local! {
    /// Stack of open stage frames on this thread; the innermost frame
    /// receives stage durations.
    static FRAMES: RefCell<Vec<Vec<(&'static str, Duration)>>> = const { RefCell::new(Vec::new()) };
}

/// Accumulates `dur` under `name` in this thread's innermost open frame.
/// No-op when no frame is open. Use for durations measured on worker
/// threads and absorbed coordinator-side (workers already emitted the
/// spans, so this adds no span).
pub fn stage_add(name: &'static str, dur: Duration) {
    FRAMES.with(|frames| {
        if let Some(frame) = frames.borrow_mut().last_mut() {
            frame_accumulate(frame, name, dur);
        }
    });
}

fn frame_accumulate(frame: &mut Vec<(&'static str, Duration)>, name: &'static str, dur: Duration) {
    for entry in frame.iter_mut() {
        if entry.0 == name {
            entry.1 += dur;
            return;
        }
    }
    frame.push((name, dur));
}

/// An open stage frame; see [`frame`].
#[must_use = "dropping a Frame immediately closes it"]
pub struct Frame {
    closed: bool,
}

/// Opens a stage frame on this thread. Stage durations recorded while it is
/// innermost accumulate into it; [`Frame::totals`] closes it and returns
/// them. Frames nest: closing (or dropping, e.g. during unwinding) folds
/// the totals into the parent frame, so an outer frame sees everything its
/// inner solves measured.
pub fn frame() -> Frame {
    FRAMES.with(|frames| frames.borrow_mut().push(Vec::new()));
    Frame { closed: false }
}

impl Frame {
    /// Closes the frame and returns its accumulated `(stage, total)` pairs
    /// in first-recorded order (also folded into the parent frame, if any).
    pub fn totals(mut self) -> Vec<(&'static str, Duration)> {
        self.closed = true;
        pop_frame()
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        if !self.closed {
            pop_frame();
        }
    }
}

fn pop_frame() -> Vec<(&'static str, Duration)> {
    FRAMES.with(|frames| {
        let mut stack = frames.borrow_mut();
        let top = stack.pop().unwrap_or_default();
        if let Some(parent) = stack.last_mut() {
            for &(name, dur) in &top {
                frame_accumulate(parent, name, dur);
            }
        }
        top
    })
}

/// RAII guard for one timed pipeline stage; see [`stage`].
#[must_use = "dropping a Stage guard immediately ends the stage"]
pub struct Stage {
    name: &'static str,
    start: Instant,
    ts_ns: u64,
    recorded: bool,
}

/// Starts timing a pipeline stage. On drop the elapsed time accumulates
/// into the innermost frame, and — when recording — a span event with the
/// same duration is emitted, so trace aggregates and `StageTimings` agree
/// exactly.
pub fn stage(name: &'static str) -> Stage {
    let recorded = recording();
    let ts_ns = if recorded { now_ns() } else { 0 };
    Stage {
        name,
        start: Instant::now(),
        ts_ns,
        recorded,
    }
}

impl Drop for Stage {
    fn drop(&mut self) {
        // When recording, both endpoints come from `now_ns` so the span's
        // computed end is exact: per-thread end times stay monotone and
        // children never outlast parents by clock-read jitter. The frame
        // receives that same duration, keeping the two tiers identical.
        let dur = if self.recorded {
            let dur = Duration::from_nanos(now_ns().saturating_sub(self.ts_ns));
            push_span(Cow::Borrowed(self.name), self.ts_ns, dur);
            dur
        } else {
            self.start.elapsed()
        };
        stage_add(self.name, dur);
    }
}

/// Runs `f`, returning its result and the elapsed wall time. When
/// recording, also emits a span with exactly that duration — the returned
/// duration and the span interval come from the same pair of instants, so
/// a caller that `stage_add`s the return value keeps trace aggregates and
/// stage totals identical. Does *not* touch the stage frame itself.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    if !recording() {
        let start = Instant::now();
        let out = f();
        return (out, start.elapsed());
    }
    let ts_ns = now_ns();
    let out = f();
    let dur = Duration::from_nanos(now_ns().saturating_sub(ts_ns));
    push_span(Cow::Borrowed(name), ts_ns, dur);
    (out, dur)
}

// ---------------------------------------------------------------------------
// Tier B: span + counter recording (AtomicBool-gated)
// ---------------------------------------------------------------------------

/// Whether span/counter recording is on. All hot-path recording calls
/// branch on this and return immediately when it is `false`.
static RECORDING: AtomicBool = AtomicBool::new(false);

/// `true` when span/counter recording is enabled.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Turns span/counter recording on or off.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
}

/// Process-wide epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
fn now_ns() -> u64 {
    let e = epoch();
    Instant::now().duration_since(e).as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// Flush the thread-local span buffer to the collector at this size.
const FLUSH_AT: usize = 256;

struct ThreadBuf {
    tid: u64,
    spans: Vec<SpanEvent>,
    counters: Vec<(&'static str, u64)>,
}

impl ThreadBuf {
    fn new() -> Self {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.spans.is_empty() && self.counters.is_empty() {
            return;
        }
        let mut collector = collector().lock().unwrap();
        collector.spans.append(&mut self.spans);
        for (name, n) in self.counters.drain(..) {
            *collector.counters.entry(name).or_insert(0) += n;
        }
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Backstop only: scoped-thread joins can unblock *before* the
        // worker's TLS destructors run, so pools must call [`flush_thread`]
        // at the end of each worker closure — this drop merely catches
        // panicking workers and long-lived threads.
        self.flush();
    }
}

/// Flushes the calling thread's buffered spans and counters to the global
/// collector. Worker-pool closures call this as their last action: scoped
/// joins can unblock before TLS destructors run, so an explicit flush is
/// what guarantees the coordinator's [`take_trace`] sees worker events.
pub fn flush_thread() {
    THREAD_BUF.with(|buf| buf.borrow_mut().flush());
}

#[derive(Default)]
struct Collector {
    spans: Vec<SpanEvent>,
    counters: BTreeMap<&'static str, u64>,
    threads: BTreeMap<u64, String>,
}

fn collector() -> &'static Mutex<Collector> {
    static COLLECTOR: OnceLock<Mutex<Collector>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Collector::default()))
}

fn push_span(name: Cow<'static, str>, ts_ns: u64, dur: Duration) {
    THREAD_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        let tid = buf.tid;
        buf.spans.push(SpanEvent {
            name,
            tid,
            ts_ns,
            dur_ns: dur.as_nanos() as u64,
        });
        if buf.spans.len() >= FLUSH_AT {
            buf.flush();
        }
    });
}

/// Adds `n` to the named counter (thread-locally buffered; merged at
/// flush). No-op unless recording. Counter values must be deterministic
/// per unit of sharded work so that totals are bit-identical across worker
/// widths — sums are commutative, schedules are not.
pub fn counter_add(name: &'static str, n: u64) {
    if !recording() || n == 0 {
        return;
    }
    THREAD_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        for entry in buf.counters.iter_mut() {
            if entry.0 == name {
                entry.1 += n;
                return;
            }
        }
        buf.counters.push((name, n));
    });
}

/// Registers a human-readable label for the current thread (emitted as a
/// Chrome-trace `thread_name` metadata event). No-op unless recording.
pub fn label_thread(label: &str) {
    if !recording() {
        return;
    }
    let tid = THREAD_BUF.with(|buf| buf.borrow().tid);
    collector()
        .lock()
        .unwrap()
        .threads
        .insert(tid, label.to_owned());
}

/// RAII span guard; see [`span`] and [`span_dyn`].
#[must_use = "dropping a Span guard immediately closes the span"]
pub struct Span {
    inner: Option<(Cow<'static, str>, u64)>,
}

/// Opens a named span. Records a complete event (start offset + duration +
/// thread id) when dropped; free when recording is off.
pub fn span(name: &'static str) -> Span {
    if !recording() {
        return Span { inner: None };
    }
    Span {
        inner: Some((Cow::Borrowed(name), now_ns())),
    }
}

/// Opens a span with a lazily-built dynamic name (e.g. `step:{label}`);
/// the closure only runs when recording.
pub fn span_dyn(make_name: impl FnOnce() -> String) -> Span {
    if !recording() {
        return Span { inner: None };
    }
    Span {
        inner: Some((Cow::Owned(make_name()), now_ns())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, ts_ns)) = self.inner.take() {
            let dur = Duration::from_nanos(now_ns().saturating_sub(ts_ns));
            push_span(name, ts_ns, dur);
        }
    }
}

/// Flushes the calling thread's buffers and drains the global collector
/// into a [`Trace`]. Worker closures flushed via [`flush_thread`] before
/// their pools joined; call this from the coordinating thread after the
/// traced region.
pub fn take_trace() -> Trace {
    THREAD_BUF.with(|buf| buf.borrow_mut().flush());
    let mut collector = collector().lock().unwrap();
    let spans = std::mem::take(&mut collector.spans);
    let counters = std::mem::take(&mut collector.counters)
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    let threads = std::mem::take(&mut collector.threads);
    Trace {
        spans,
        counters,
        threads,
    }
}

// ---------------------------------------------------------------------------
// Trace: validation, aggregation, Chrome export
// ---------------------------------------------------------------------------

/// One recorded complete span.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Span name (a stage name, `step:<label>`, `task:<i>`, …).
    pub name: Cow<'static, str>,
    /// Small-integer thread id (stable within the process).
    pub tid: u64,
    /// Start offset from the process epoch, nanoseconds.
    pub ts_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

impl SpanEvent {
    fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }
}

/// Everything one recording session collected: spans (per-thread record
/// order preserved), merged counters, and thread labels.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Complete-span events.
    pub spans: Vec<SpanEvent>,
    /// Named counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Thread id → human label.
    pub threads: BTreeMap<u64, String>,
}

impl Trace {
    /// Checks structural sanity: per thread, spans recorded later (RAII
    /// drop order) must end no earlier than ones recorded before —
    /// timestamps are monotone — and when ordered by start time, spans
    /// must nest properly (contain or follow, never partially overlap).
    /// Both properties hold by construction for balanced guards; a
    /// violation means a span leaked or clocks misbehaved.
    pub fn validate(&self) -> Result<(), String> {
        let mut per_tid: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
        for span in &self.spans {
            per_tid.entry(span.tid).or_default().push(span);
        }
        for (tid, spans) in &per_tid {
            // Record order = guard drop order: end times never go backwards.
            let mut last_end = 0u64;
            for span in spans {
                if span.end_ns() < last_end {
                    return Err(format!(
                        "tid {tid}: span `{}` ends at {} ns, before an earlier-recorded \
                         span's end {} ns (unbalanced guards?)",
                        span.name,
                        span.end_ns(),
                        last_end
                    ));
                }
                last_end = span.end_ns();
            }
            // Start order: proper nesting, no partial overlap.
            let mut by_start: Vec<&SpanEvent> = spans.clone();
            by_start.sort_by_key(|s| (s.ts_ns, std::cmp::Reverse(s.dur_ns)));
            let mut stack: Vec<&SpanEvent> = Vec::new();
            for span in by_start {
                while let Some(top) = stack.last() {
                    if top.end_ns() <= span.ts_ns {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(top) = stack.last() {
                    if span.end_ns() > top.end_ns() {
                        return Err(format!(
                            "tid {tid}: span `{}` [{}, {}] partially overlaps `{}` [{}, {}]",
                            span.name,
                            span.ts_ns,
                            span.end_ns(),
                            top.name,
                            top.ts_ns,
                            top.end_ns()
                        ));
                    }
                }
                stack.push(span);
            }
        }
        Ok(())
    }

    /// Sums span durations by name across all threads.
    pub fn self_times(&self) -> BTreeMap<String, Duration> {
        let mut totals: BTreeMap<String, Duration> = BTreeMap::new();
        for span in &self.spans {
            *totals.entry(span.name.to_string()).or_default() += Duration::from_nanos(span.dur_ns);
        }
        totals
    }

    /// Serializes to the Chrome Trace Event Format (JSON): one `"X"`
    /// complete event per span (`ts`/`dur` in microseconds), `"M"`
    /// `thread_name` metadata events for labeled threads, counter totals
    /// under `"counters"`, and `meta` key/value pairs under `"otherData"`.
    /// Loads in Perfetto / `chrome://tracing`.
    pub fn to_chrome_json(&self, meta: &[(String, String)]) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {");
        for (i, (key, value)) in meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_string(key), json_string(value)));
        }
        out.push_str("},\n\"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {value}", json_string(name)));
        }
        out.push_str("},\n\"traceEvents\": [\n");
        let mut first = true;
        for (tid, label) in &self.threads {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": {}}}}}",
                json_string(label)
            ));
        }
        for span in &self.spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": {}, \"cat\": \"cextend\", \
                 \"ts\": {:.3}, \"dur\": {:.3}}}",
                span.tid,
                json_string(&span.name),
                span.ts_ns as f64 / 1000.0,
                span.dur_ns as f64 / 1000.0
            ));
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Recording state and the collector are global; serialize the tests
    /// that touch them.
    fn recording_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn level_parsing_matches_contract() {
        assert_eq!(parse_level(None), 0);
        assert_eq!(parse_level(Some("")), 0);
        assert_eq!(parse_level(Some("0")), 0);
        assert_eq!(parse_level(Some("2")), 2);
        assert_eq!(parse_level(Some("1")), 1);
        assert_eq!(parse_level(Some("yes")), 1);
        assert_eq!(parse_level(Some(" 2 ")), 2);
    }

    #[test]
    fn frames_accumulate_stages_and_propagate_to_parent() {
        let outer = frame();
        stage_add("hasse", Duration::from_millis(3));
        {
            let inner = frame();
            stage_add("hasse", Duration::from_millis(2));
            stage_add("fill", Duration::from_millis(1));
            let totals = inner.totals();
            assert_eq!(
                totals,
                vec![
                    ("hasse", Duration::from_millis(2)),
                    ("fill", Duration::from_millis(1)),
                ]
            );
        }
        let totals = outer.totals();
        assert_eq!(
            totals,
            vec![
                ("hasse", Duration::from_millis(5)),
                ("fill", Duration::from_millis(1)),
            ]
        );
    }

    #[test]
    fn dropped_frame_still_pops_and_propagates() {
        let outer = frame();
        {
            let _inner = frame();
            stage_add("repair", Duration::from_millis(7));
            // dropped without totals()
        }
        stage_add("repair", Duration::from_millis(1));
        assert_eq!(outer.totals(), vec![("repair", Duration::from_millis(8))]);
    }

    #[test]
    fn stage_guard_times_into_frame() {
        // A stage also opens a span, which lands in a sibling test's trace
        // if that test has recording on.
        let _lock = recording_lock();
        let f = frame();
        {
            let _g = stage("coloring");
            std::thread::sleep(Duration::from_millis(2));
        }
        let totals = f.totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].0, "coloring");
        assert!(totals[0].1 >= Duration::from_millis(1));
    }

    #[test]
    fn spans_balance_counters_merge_and_chrome_roundtrips() {
        let _lock = recording_lock();
        let _ = take_trace();
        set_recording(true);
        label_thread("test-main");
        {
            let _outer = span("solve");
            {
                let _inner = span_dyn(|| "step:r2".to_owned());
                counter_add("probes", 3);
            }
            counter_add("probes", 2);
            counter_add("shards", 1);
        }
        // Worker-thread events stitch in when the scoped thread exits.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                label_thread("worker-0");
                let (_, dur) = timed("conflict_build", || {
                    std::thread::sleep(Duration::from_millis(1))
                });
                assert!(dur >= Duration::from_millis(1));
                counter_add("probes", 5);
                flush_thread();
            });
        });
        set_recording(false);
        let trace = take_trace();
        trace.validate().expect("balanced trace");
        let names: Vec<_> = trace.spans.iter().map(|s| s.name.clone()).collect();
        assert_eq!(
            trace.spans.len(),
            3,
            "spans: {names:?} counters: {:?} threads: {:?}",
            trace.counters,
            trace.threads
        );
        assert_eq!(trace.counters.get("probes"), Some(&10));
        assert_eq!(trace.counters.get("shards"), Some(&1));
        assert_eq!(trace.threads.len(), 2);
        let self_times = trace.self_times();
        assert!(self_times.contains_key("solve"));
        assert!(self_times["conflict_build"] >= Duration::from_millis(1));

        let json = trace.to_chrome_json(&[("commit".to_owned(), "abc123".to_owned())]);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"step:r2\""));
        assert!(json.contains("\"commit\": \"abc123\""));
        assert!(json.contains("\"probes\": 10"));
    }

    #[test]
    fn spans_balance_under_panic() {
        let _lock = recording_lock();
        let _ = take_trace();
        set_recording(true);
        let result = std::panic::catch_unwind(|| {
            let _outer = span("solve");
            let _inner = span("hasse");
            panic!("boom");
        });
        assert!(result.is_err());
        set_recording(false);
        let trace = take_trace();
        assert_eq!(trace.spans.len(), 2);
        trace.validate().expect("guards unwound cleanly");
    }

    #[test]
    fn disabled_recording_records_nothing() {
        let _lock = recording_lock();
        let _ = take_trace();
        set_recording(false);
        {
            let _s = span("solve");
            counter_add("probes", 9);
            let _g = stage("fill");
        }
        let trace = take_trace();
        assert!(trace.spans.is_empty());
        assert!(trace.counters.is_empty());
    }

    #[test]
    fn validate_rejects_partial_overlap() {
        let trace = Trace {
            spans: vec![
                SpanEvent {
                    name: Cow::Borrowed("b"),
                    tid: 1,
                    ts_ns: 50,
                    dur_ns: 100,
                },
                SpanEvent {
                    name: Cow::Borrowed("a"),
                    tid: 1,
                    ts_ns: 0,
                    dur_ns: 100,
                },
            ],
            ..Trace::default()
        };
        assert!(trace.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_monotone_record_order() {
        let trace = Trace {
            spans: vec![
                SpanEvent {
                    name: Cow::Borrowed("late"),
                    tid: 1,
                    ts_ns: 100,
                    dur_ns: 100,
                },
                SpanEvent {
                    name: Cow::Borrowed("early"),
                    tid: 1,
                    ts_ns: 0,
                    dur_ns: 10,
                },
            ],
            ..Trace::default()
        };
        assert!(trace.validate().is_err());
    }

    #[test]
    fn chrome_json_escapes_names() {
        let trace = Trace {
            spans: vec![SpanEvent {
                name: Cow::Borrowed("we\"ird\\name"),
                tid: 1,
                ts_ns: 0,
                dur_ns: 1,
            }],
            ..Trace::default()
        };
        let json = trace.to_chrome_json(&[]);
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn render_tree_indents_and_pads() {
        let txt = render_tree(&[
            (0, "phase1", Duration::from_secs(1)),
            (1, "hasse", Duration::from_millis(250)),
        ]);
        assert!(txt.contains("[trace] phase1"));
        assert!(txt.contains("[trace]   hasse"));
    }
}
