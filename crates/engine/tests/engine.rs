//! Integration tests for the query engine: codec round-trips, fingerprint
//! stability, cache-tier behaviour, dedup accounting and the warm-start
//! bit-identity guarantee.

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use vstack_engine::engine::solve_scenario;
use vstack_engine::json::Json;
use vstack_engine::{Engine, EngineConfig, Outcome, ScenarioRequest};

/// A fresh per-test scratch directory under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vstack-engine-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Strategy pieces: a scenario request from integer draws (the vendored
/// proptest has no enum strategies, so enums are picked by index).
fn request_from(
    kind: usize,
    layers: usize,
    tsv: usize,
    power_c4: f64,
    converters: usize,
    imbalance: f64,
    flags: usize,
) -> ScenarioRequest {
    use vstack::pdn::TsvTopology;
    let mut req = if kind == 0 {
        ScenarioRequest::regular(layers)
    } else {
        ScenarioRequest::voltage_stacked(layers, imbalance)
    };
    req = req
        .tsv([TsvTopology::Dense, TsvTopology::Sparse, TsvTopology::Few][tsv % 3])
        .power_c4(power_c4)
        .converters(converters)
        .closed_loop(flags & 1 != 0);
    if flags & 2 != 0 {
        req = req.quick();
    }
    req
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// JSON codec round-trip: emit → parse → from_json reproduces the
    /// canonical request and its fingerprint exactly.
    #[test]
    fn request_json_round_trip(
        kind in 0usize..2,
        layers in 1usize..17,
        tsv in 0usize..3,
        power_c4 in 0.05..1.0f64,
        converters in 1usize..17,
        imbalance in 0.0..1.0f64,
        flags in 0usize..4,
    ) {
        let req = request_from(kind, layers, tsv, power_c4, converters, imbalance, flags);
        prop_assert!(req.validate().is_ok());
        let wire = req.to_json().emit();
        let back = ScenarioRequest::from_json(&Json::parse(&wire).unwrap()).unwrap();
        prop_assert_eq!(&back, &req.canonical());
        prop_assert_eq!(back.fingerprint(), req.fingerprint());
    }

    /// Fingerprints are stable under JSON field permutation: rotating the
    /// emitted object's fields changes nothing.
    #[test]
    fn fingerprint_stable_under_field_order(
        kind in 0usize..2,
        layers in 1usize..17,
        tsv in 0usize..3,
        power_c4 in 0.05..1.0f64,
        converters in 1usize..17,
        imbalance in 0.0..1.0f64,
        rotation in 0usize..8,
    ) {
        let req = request_from(kind, layers, tsv, power_c4, converters, imbalance, 0);
        let Json::Obj(mut pairs) = req.to_json() else { unreachable!() };
        let n = pairs.len().max(1);
        pairs.rotate_left(rotation % n);
        let permuted = ScenarioRequest::from_json(&Json::Obj(pairs)).unwrap();
        prop_assert_eq!(permuted.fingerprint(), req.fingerprint());
    }

    /// Two requests share a fingerprint iff they share a canonical form.
    #[test]
    fn fingerprint_matches_canonical_equality(
        a in (0usize..2, 1usize..5, 0usize..3, 0usize..4),
        b in (0usize..2, 1usize..5, 0usize..3, 0usize..4),
    ) {
        let mk = |(kind, layers, tsv, flags): (usize, usize, usize, usize)| {
            request_from(kind, layers, tsv, 0.25, 4, 0.5, flags)
        };
        let (ra, rb) = (mk(a), mk(b));
        prop_assert_eq!(
            ra.fingerprint() == rb.fingerprint(),
            ra.canonical() == rb.canonical()
        );
    }
}

/// A cheap scenario the solver finishes in milliseconds.
fn quick_vs(imbalance: f64) -> ScenarioRequest {
    ScenarioRequest::voltage_stacked(2, imbalance).quick()
}

#[test]
fn duplicate_batch_solves_exactly_once() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let batch = vec![quick_vs(0.4); 5];
    let results = engine.query_batch(&batch);
    assert_eq!(results.len(), 5);
    let outcomes: Vec<Outcome> = results
        .iter()
        .map(|r| r.as_ref().unwrap().outcome)
        .collect();
    assert_eq!(outcomes[0], Outcome::Cold);
    assert!(outcomes[1..].iter().all(|o| *o == Outcome::Deduped));
    let stats = engine.stats();
    assert_eq!(stats.solves(), 1, "N duplicates must perform one solve");
    assert_eq!(stats.cold_solves, 1);
    assert_eq!(stats.deduped, 4);
    assert_eq!(stats.requests, 5);
    // Every duplicate got the identical summary.
    let first = &results[0].as_ref().unwrap().summary;
    for r in &results[1..] {
        assert_eq!(&r.as_ref().unwrap().summary, first);
    }
}

#[test]
fn warm_started_resolve_is_bit_identical_to_cold() {
    let req = quick_vs(0.5);
    let (cold_summary, cold_voltages) = solve_scenario(&req, None).unwrap();
    let (warm_summary, warm_voltages) = solve_scenario(&req, Some(&cold_voltages)).unwrap();
    assert_eq!(
        warm_voltages, cold_voltages,
        "a converged guess must be returned unchanged"
    );
    assert_eq!(warm_summary.solver_iterations, 0);
    assert_eq!(
        warm_summary.max_ir_drop_frac.to_bits(),
        cold_summary.max_ir_drop_frac.to_bits()
    );
    assert_eq!(
        warm_summary.efficiency.to_bits(),
        cold_summary.efficiency.to_bits()
    );
}

#[test]
fn fill_gate_picks_the_first_rung_per_system_class() {
    // Quick 2-layer stacks and the quick 4-layer regular stack factor in
    // one iteration; the quick 8-layer regular stack and the 2,704-unknown
    // paper-fidelity 2-layer stack keep CG + Jacobi with no fallback, so
    // the paper figures keep their numerics.
    let cases = [
        (quick_vs(0.5), "cg+chol ("),
        (ScenarioRequest::regular(4).quick(), "cg+chol ("),
        (ScenarioRequest::regular(8).quick(), "cg+jacobi ("),
        (ScenarioRequest::voltage_stacked(2, 0.5), "cg+jacobi ("),
    ];
    for (req, first_rung) in cases {
        let (summary, voltages) = solve_scenario(&req, None).unwrap();
        assert!(
            summary.solver_trail.starts_with(first_rung),
            "{} layers, {} unknowns: {}",
            req.layers,
            voltages.len(),
            summary.solver_trail
        );
        if first_rung.starts_with("cg+chol") {
            assert_eq!(summary.solver_iterations, 1);
        }
    }
}

#[test]
fn neighbour_queries_warm_start_and_agree_with_cold() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    engine.query(&quick_vs(0.40)).unwrap();
    let warm = engine.query(&quick_vs(0.45)).unwrap();
    assert_eq!(warm.outcome, Outcome::Warm);
    assert_eq!(engine.stats().warm_solves, 1);
    // The warm-started answer matches a from-scratch solve to solver
    // tolerance.
    let (cold, _) = solve_scenario(&quick_vs(0.45), None).unwrap();
    let rel =
        (warm.summary.max_ir_drop_frac - cold.max_ir_drop_frac).abs() / cold.max_ir_drop_frac.abs();
    assert!(rel < 1e-6, "warm vs cold relative difference {rel}");
}

#[test]
fn warm_start_requires_matching_structure() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    engine.query(&quick_vs(0.4)).unwrap();
    // Different layer count: no compatible donor, must go cold.
    let other = engine
        .query(&ScenarioRequest::voltage_stacked(4, 0.4).quick())
        .unwrap();
    assert_eq!(other.outcome, Outcome::Cold);
}

#[test]
fn lru_bound_forces_resolve_after_eviction() {
    let mut engine = Engine::new(EngineConfig {
        lru_capacity: 1,
        cache_dir: None,
        warm_start: false,
    })
    .unwrap();
    let (a, b) = (quick_vs(0.3), quick_vs(0.6));
    engine.query(&a).unwrap();
    engine.query(&b).unwrap(); // evicts a
    let again = engine.query(&a).unwrap();
    assert_eq!(again.outcome, Outcome::Cold, "evicted entry must re-solve");
    assert_eq!(engine.stats().cold_solves, 3);
    assert_eq!(engine.stats().memory_hits, 0);
}

#[test]
fn invalid_requests_are_rejected_without_solving() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let bad = ScenarioRequest::voltage_stacked(0, 0.4);
    assert!(engine.query(&bad).is_err());
    assert_eq!(engine.stats().solves(), 0);
    assert_eq!(engine.stats().invalid, 1);
}

#[test]
fn disk_tier_round_trip_and_schema_rejection() {
    let dir = scratch_dir("disk");
    let req = quick_vs(0.5);
    let fp = req.fingerprint();

    // First engine: cold solve, flushed to disk on demand.
    let config = EngineConfig {
        lru_capacity: 8,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let mut first = Engine::new(config.clone()).unwrap();
    let cold = first.query(&req).unwrap();
    assert_eq!(cold.outcome, Outcome::Cold);
    assert_eq!(first.flush().unwrap(), 1);

    // Second engine, same dir: a disk hit, no solve.
    let mut second = Engine::new(config.clone()).unwrap();
    let hit = second.query(&req).unwrap();
    assert_eq!(hit.outcome, Outcome::HitDisk);
    assert_eq!(hit.summary, cold.summary);
    assert_eq!(second.stats().solves(), 0);

    // Tamper the schema stamp: the entry must be rejected and re-solved.
    let path = dir.join(format!("{}.json", ScenarioRequest::format_fingerprint(fp)));
    let text = fs::read_to_string(&path).unwrap();
    let stamp = format!("\"schema\":{}", vstack_engine::SCHEMA_VERSION);
    assert!(text.contains(&stamp));
    fs::write(&path, text.replace(&stamp, "\"schema\":999")).unwrap();
    let mut third = Engine::new(config).unwrap();
    let resolved = third.query(&req).unwrap();
    assert_eq!(resolved.outcome, Outcome::Cold);
    assert_eq!(third.stats().schema_rejects, 1);

    let _ = fs::remove_dir_all(&dir);
}

/// A solve the LRU evicts before the flush is still persisted: six
/// distinct requests through a two-entry LRU all reach the disk tier.
#[test]
fn flush_writes_solves_evicted_before_it() {
    let dir = scratch_dir("evicted-flush");
    let config = EngineConfig {
        lru_capacity: 2,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let requests: Vec<ScenarioRequest> = (0..6).map(|i| quick_vs(0.1 * f64::from(i))).collect();
    let mut first = Engine::new(config.clone()).unwrap();
    let solved: Vec<_> = requests.iter().map(|r| first.query(r).unwrap()).collect();
    assert_eq!(first.flush().unwrap(), 6);
    assert_eq!(first.flush().unwrap(), 0, "nothing left to write");

    let mut second = Engine::new(config).unwrap();
    for (request, cold) in requests.iter().zip(&solved) {
        let hit = second.query(request).unwrap();
        assert_eq!(hit.outcome, Outcome::HitDisk, "{request:?}");
        assert_eq!(hit.summary, cold.summary);
    }
    assert_eq!(second.stats().solves(), 0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_disk_entries_are_rejected() {
    let dir = scratch_dir("corrupt");
    let req = quick_vs(0.25);
    let config = EngineConfig {
        lru_capacity: 8,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let mut first = Engine::new(config.clone()).unwrap();
    first.query(&req).unwrap();
    first.flush().unwrap();
    let path = dir.join(format!(
        "{}.json",
        ScenarioRequest::format_fingerprint(req.fingerprint())
    ));
    fs::write(&path, "{ not json").unwrap();
    let mut second = Engine::new(config).unwrap();
    let resolved = second.query(&req).unwrap();
    assert_eq!(resolved.outcome, Outcome::Cold);
    assert_eq!(second.stats().corrupt_rejects, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn thermal_axis_serves_caches_and_differs_from_uncoupled() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let plain = ScenarioRequest::regular(2).quick();
    let coupled = plain.clone().thermal_coupling(true);

    let base = engine.query(&plain).unwrap();
    assert_eq!(base.outcome, Outcome::Cold);
    assert_eq!(base.summary.coupling_iterations, 0);

    // A coupled request is a distinct scenario, solved via the fixed
    // point: it reports its iterations and a physical peak temperature,
    // and its EM lifetime moves off the fixed-80 °C baseline.
    let cold = engine.query(&coupled).unwrap();
    assert!(matches!(cold.outcome, Outcome::Cold | Outcome::Warm));
    assert_ne!(cold.fingerprint, base.fingerprint);
    assert!(cold.summary.coupling_iterations >= 2);
    assert!(cold.summary.coupling_converged);
    assert!(cold.summary.peak_temperature_c > 30.0);
    assert_ne!(cold.summary.em_c4_hours, base.summary.em_c4_hours);

    // ... and it is cacheable like any other scenario.
    let hit = engine.query(&coupled).unwrap();
    assert_eq!(hit.outcome, Outcome::HitMemory);
    assert_eq!(hit.summary, cold.summary);

    // Ambient temperature is part of the key: hotter ambient, new solve,
    // hotter stack.
    let hotter = engine.query(&coupled.clone().ambient_c(75.0)).unwrap();
    assert_ne!(hotter.outcome, Outcome::HitMemory);
    assert!(hotter.summary.peak_temperature_c > hit.summary.peak_temperature_c);
}

#[test]
fn thermal_summary_survives_the_disk_tier() {
    let dir = scratch_dir("thermal");
    let req = ScenarioRequest::regular(2).quick().thermal_coupling(true);
    let config = EngineConfig {
        lru_capacity: 8,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let mut first = Engine::new(config.clone()).unwrap();
    let cold = first.query(&req).unwrap();
    first.flush().unwrap();

    let mut second = Engine::new(config).unwrap();
    let hit = second.query(&req).unwrap();
    assert_eq!(hit.outcome, Outcome::HitDisk);
    assert_eq!(hit.summary, cold.summary);
    assert!(hit.summary.coupling_iterations >= 2);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn fault_axis_serves_through_the_sketch_and_caches_by_fault_set() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let intact = ScenarioRequest::regular(2).quick();
    let faulted = intact.clone().fail_vdd_pad(0).fail_vdd_pad(3);

    let base = engine.query(&intact).unwrap();
    let cold = engine.query(&faulted).unwrap();
    assert_ne!(cold.fingerprint, base.fingerprint);
    // A one-shot faulted query becomes the sketch's baseline build — an
    // exact solve at cost parity (SMW updates pay off on the persistent
    // scratches of the study sweeps). The sketch owns its own warm start,
    // so the engine never labels a faulted solve Warm.
    assert_eq!(cold.outcome, Outcome::Cold);
    // Opening supply pads can only worsen the worst-case drop.
    assert!(cold.summary.max_ir_drop_frac >= base.summary.max_ir_drop_frac);

    // Any spelling of the same fault set shares the cache slot.
    let respelled = intact
        .clone()
        .fail_vdd_pad(3)
        .fail_vdd_pad(0)
        .fail_vdd_pad(3);
    let hit = engine.query(&respelled).unwrap();
    assert_eq!(hit.outcome, Outcome::HitMemory);
    assert_eq!(hit.summary, cold.summary);

    // A different fault set is a different scenario.
    let other = engine.query(&intact.clone().fail_gnd_pad(0)).unwrap();
    assert_ne!(other.fingerprint, cold.fingerprint);
    assert_ne!(other.outcome, Outcome::HitMemory);
}

#[test]
fn faulted_summary_survives_the_disk_tier() {
    let dir = scratch_dir("faulted");
    let req = ScenarioRequest::regular(2).quick().fail_tsvs(0, 1, 2);
    let config = EngineConfig {
        lru_capacity: 8,
        cache_dir: Some(dir.clone()),
        warm_start: true,
    };
    let mut first = Engine::new(config.clone()).unwrap();
    let cold = first.query(&req).unwrap();
    first.flush().unwrap();

    let mut second = Engine::new(config).unwrap();
    let hit = second.query(&req).unwrap();
    assert_eq!(hit.outcome, Outcome::HitDisk);
    assert_eq!(hit.summary, cold.summary);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn regular_and_vs_requests_both_serve() {
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    let reg = engine.query(&ScenarioRequest::regular(2).quick()).unwrap();
    let vs = engine.query(&quick_vs(0.5)).unwrap();
    assert!(reg.summary.max_ir_drop_frac > 0.0);
    assert!(vs.summary.max_ir_drop_frac > 0.0);
    assert!(reg.summary.em_c4_hours > 0.0);
    assert!(vs.summary.efficiency > 0.5 && vs.summary.efficiency < 1.0);
    assert_ne!(reg.fingerprint, vs.fingerprint);
}
