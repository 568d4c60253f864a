//! Integration tests for the `cextend-obs` tracing layer on real solves:
//! counter determinism across worker widths, trace well-formedness, and a
//! Chrome-trace JSON round-trip through the vendored `serde_json`.

use cextend::census::{generate, generate_ccs, s_all_dc, CcFamily, CensusConfig};
use cextend::obs;
use cextend::{solve, CExtensionInstance, SolverConfig};
use std::sync::{Mutex, MutexGuard};

/// The obs recorder is process-global, so tests that arm it must not
/// overlap (the test harness runs them on threads).
fn recording_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn build() -> CExtensionInstance {
    let data = generate(&CensusConfig {
        scale: 0.02,
        n_areas: 4,
        seed: 23,
        ..CensusConfig::default()
    });
    let ccs = generate_ccs(CcFamily::Good, 40, &data, 23);
    CExtensionInstance::new(data.persons, data.housing, ccs, s_all_dc()).unwrap()
}

/// A small dcdense instance: six `(Room, Shift)` partitions of about 130
/// events, large enough that the ternary `nae-track` DC enumerates through
/// hash indexes (census pair DCs are all bulk-emitted).
fn build_dcdense() -> CExtensionInstance {
    use cextend::workloads::{workload_by_name, DcSet, WorkloadParams};
    let w = workload_by_name("dcdense").expect("registered");
    let data = w.generate(&WorkloadParams::new(0.05, 23));
    let ccs = w.ccs(cextend::workloads::CcFamily::Good, 12, &data, 23);
    data.to_instance(ccs, w.dcs(DcSet::All)).unwrap()
}

/// Solves once with the recorder armed and both parallel paths on,
/// returning the collected trace.
fn traced_solve(instance: &CExtensionInstance) -> obs::Trace {
    let config = SolverConfig::hybrid()
        .with_parallel_phase1(true)
        .with_parallel_coloring(true);
    let _ = obs::take_trace();
    obs::set_recording(true);
    let solution = solve(instance, &config).unwrap();
    obs::set_recording(false);
    assert!(solution.r1_hat.n_rows() > 0);
    obs::take_trace()
}

#[test]
fn counters_are_bit_identical_across_worker_widths() {
    let _guard = recording_lock();
    for (input, instance) in [("census", build()), ("dcdense", build_dcdense())] {
        let mut baseline = None;
        for width in ["1", "2", "4"] {
            std::env::set_var("CEXTEND_SCHED_WORKERS", width);
            let trace = traced_solve(&instance);
            std::env::remove_var("CEXTEND_SCHED_WORKERS");
            trace.validate().unwrap_or_else(|e| {
                panic!("{input}: trace invalid at CEXTEND_SCHED_WORKERS={width}: {e}");
            });
            assert!(
                !trace.counters.is_empty(),
                "a parallel hybrid solve must record counters"
            );
            // Plan decisions are made once per solve, on the coordinator:
            // one per DC at every width, not one per worker.
            let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
            assert_eq!(
                counter("phase2.plans_cost") + counter("phase2.plans_static_fallback"),
                instance.dcs.len() as u64,
                "{input}: plan decisions at CEXTEND_SCHED_WORKERS={width}"
            );
            if input == "dcdense" {
                assert!(
                    trace.counters.contains_key("phase2.index_hash"),
                    "dcdense: no hash-index depth at CEXTEND_SCHED_WORKERS={width}"
                );
            }
            // Counters are commutative sums of deterministic per-shard and
            // per-partition values, so the totals cannot depend on how the
            // work was striped across workers.
            match &baseline {
                None => baseline = Some(trace.counters),
                Some(expected) => assert_eq!(
                    expected, &trace.counters,
                    "{input}: counters diverged at CEXTEND_SCHED_WORKERS={width}"
                ),
            }
        }
        let counters = baseline.unwrap();
        for name in ["phase1.rng_draws", "phase1.shards", "phase2.partitions"] {
            assert!(
                counters.contains_key(name),
                "{input}: missing counter `{name}`"
            );
        }
    }
}

#[test]
fn chrome_trace_round_trips_through_serde_json() {
    let _guard = recording_lock();
    let instance = build();
    std::env::set_var("CEXTEND_SCHED_WORKERS", "2");
    let trace = traced_solve(&instance);
    std::env::remove_var("CEXTEND_SCHED_WORKERS");
    trace.validate().unwrap();
    assert!(trace.spans.iter().any(|s| s.name == "solve"));
    assert!(trace.spans.iter().any(|s| s.name == "leftovers"));

    let meta = [("workload".to_owned(), "census".to_owned())];
    let json = trace.to_chrome_json(&meta);
    let doc: serde::Value = serde_json::from_str(&json).expect("trace.json parses");
    let serde::Value::Object(top) = doc else {
        panic!("trace.json is not a JSON object");
    };
    let field = |name: &str| {
        top.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("trace.json has no `{name}` field"))
    };
    let serde::Value::Object(other) = field("otherData") else {
        panic!("otherData is not an object");
    };
    assert!(other
        .iter()
        .any(|(k, v)| k == "workload" && *v == serde::Value::Str("census".to_owned())));
    let serde::Value::Object(counters) = field("counters") else {
        panic!("counters is not an object");
    };
    assert_eq!(counters.len(), trace.counters.len());
    let serde::Value::Array(events) = field("traceEvents") else {
        panic!("traceEvents is not an array");
    };
    // One "X" complete event per span, one "M" metadata event per labeled
    // thread — nothing dropped, nothing invented.
    let phase = |ev: &serde::Value| -> String {
        let serde::Value::Object(ev) = ev else {
            panic!("non-object trace event");
        };
        match ev.iter().find(|(k, _)| k == "ph") {
            Some((_, serde::Value::Str(s))) => s.clone(),
            other => panic!("trace event `ph` is {other:?}"),
        }
    };
    let n_x = events.iter().filter(|e| phase(e) == "X").count();
    let n_m = events.iter().filter(|e| phase(e) == "M").count();
    assert_eq!(n_x, trace.spans.len());
    assert_eq!(n_m, trace.threads.len());
}
