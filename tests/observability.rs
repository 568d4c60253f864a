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

/// Solves once at `workers` with the recorder armed, returning the
/// collected trace.
fn traced_solve(instance: &CExtensionInstance, workers: usize) -> obs::Trace {
    let config = SolverConfig::hybrid().with_workers(workers);
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
        for workers in [1, 2, 4] {
            let trace = traced_solve(&instance, workers);
            trace.validate().unwrap_or_else(|e| {
                panic!("{input}: trace invalid at {workers} workers: {e}");
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
                "{input}: plan decisions at {workers} workers"
            );
            if input == "dcdense" {
                assert!(
                    trace.counters.contains_key("phase2.index_hash"),
                    "dcdense: no hash-index depth at {workers} workers"
                );
            }
            // Counters are commutative sums of deterministic per-shard and
            // per-partition values, so the totals cannot depend on how the
            // work was striped across workers.
            match &baseline {
                None => baseline = Some(trace.counters),
                Some(expected) => assert_eq!(
                    expected, &trace.counters,
                    "{input}: counters diverged at {workers} workers"
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
    let trace = traced_solve(&instance, 2);
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

/// The in-step evaluation runs under an `evaluate` span: exactly one inside
/// every `step:*` span of a traced snowflake solve, on the step's thread,
/// whether the steps run inline or concurrently.
#[test]
fn every_step_span_holds_exactly_one_evaluate_span() {
    use cextend::core::snowflake::{solve_snowflake, SnowflakeStep};
    use cextend::workloads::{workload_by_name, CcFamily, DcSet, WorkloadParams};
    let _guard = recording_lock();
    let w = workload_by_name("logistics").expect("registered");
    let data = w.generate(&WorkloadParams::new(0.01, 5));
    let steps: Vec<SnowflakeStep> = (0..data.n_steps())
        .map(|i| SnowflakeStep {
            edge: data.steps[i].clone(),
            ccs: w.step_ccs(i, CcFamily::Good, 10, &data, 5),
            dcs: w.step_dcs(i, DcSet::All),
        })
        .collect();
    assert!(steps.len() >= 2, "a multi-step chain");
    for workers in [1, 2] {
        let config = SolverConfig::hybrid().with_workers(workers);
        let _ = obs::take_trace();
        obs::set_recording(true);
        solve_snowflake(data.relations.clone(), &steps, &config).unwrap();
        obs::set_recording(false);
        let trace = obs::take_trace();
        trace.validate().unwrap();
        let end = |s: &obs::SpanEvent| s.ts_ns + s.dur_ns;
        let step_spans: Vec<&obs::SpanEvent> = trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("step:"))
            .collect();
        assert_eq!(step_spans.len(), steps.len(), "{workers} workers");
        for step in step_spans {
            let inside = trace
                .spans
                .iter()
                .filter(|s| s.name == "evaluate" && s.tid == step.tid)
                .filter(|s| s.ts_ns >= step.ts_ns && end(s) <= end(step))
                .count();
            assert_eq!(
                inside, 1,
                "{workers} workers: `evaluate` spans in {}",
                step.name
            );
        }
        let evaluations = trace.spans.iter().filter(|s| s.name == "evaluate").count();
        assert_eq!(evaluations, steps.len(), "{workers} workers");
    }
}
