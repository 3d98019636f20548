//! Properties of the seeded request generators.
//!
//! ```text
//! cargo test --release --offline --manifest-path vbench/Cargo.toml
//! ```

use std::collections::HashSet;
use std::fs;
use std::path::Path;

use vbench::gen::{
    golden_prefix, mix, Role, Stream, Workload, SWEEP_DEDUPS, SWEEP_NEW, SWEEP_REVISITS,
};
use vstack_engine::engine::{Engine, EngineConfig, Outcome};
use vstack_engine::json::Json;
use vstack_engine::request::ScenarioRequest;

fn fingerprints(s: &Stream) -> Vec<u64> {
    s.items().map(|it| it.request.fingerprint()).collect()
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    for w in Workload::ALL {
        let a = Stream::generate(w, 7).to_ndjson();
        let b = Stream::generate(w, 7).to_ndjson();
        assert!(!a.is_empty());
        assert!(a == b, "{} stream differs between two draws", w.name());
    }
}

#[test]
fn another_seed_gives_other_fingerprints_with_the_same_mix() {
    for w in Workload::ALL {
        let a = Stream::generate(w, 1);
        let b = Stream::generate(w, 2);
        let new = |s: &Stream| -> HashSet<u64> {
            s.items()
                .filter(|it| it.role == Role::Solve)
                .map(|it| it.request.fingerprint())
                .collect()
        };
        let (na, nb) = (new(&a), new(&b));
        let shared = na.intersection(&nb).count();
        assert!(
            shared * 20 < na.len(),
            "{}: {shared} of {} new points shared between seeds",
            w.name(),
            na.len()
        );
        let solves = |s: &Stream| mix(s.items().filter(|it| it.role == Role::Solve));
        let mut ma = solves(&a);
        let mut mb = solves(&b);
        ma.sort();
        mb.sort();
        assert_eq!(ma, mb, "{}: new-point mix differs between seeds", w.name());
        let roles = |s: &Stream| {
            [Role::Solve, Role::Revisit, Role::Dedup]
                .map(|r| s.items().filter(|it| it.role == r).count())
        };
        assert_eq!(roles(&a), roles(&b), "{}: role shares differ", w.name());
    }
}

#[test]
fn served_quick_never_repeats_a_fingerprint() {
    let s = Stream::generate(Workload::ServedQuick, 1);
    let fps = fingerprints(&s);
    let unique: HashSet<u64> = fps.iter().copied().collect();
    assert_eq!(unique.len(), fps.len());
    assert!(!unique.contains(&Workload::ServedQuick.warmup().fingerprint()));
    // Seven in ten are loadgen's 2-layer V-S request.
    for block in &s.units {
        assert_eq!(block.len(), 10);
        assert_eq!(block.iter().filter(|it| it.class == "vs2").count(), 7);
    }
}

#[test]
fn deep_stack_rounds_hold_every_configuration_once() {
    let s = Stream::generate(Workload::DeepStack, 3);
    for round in &s.units {
        let classes: HashSet<&str> = round.iter().map(|it| it.class).collect();
        assert_eq!(round.len(), 9);
        assert_eq!(classes.len(), 9);
    }
    let fps = fingerprints(&s);
    assert_eq!(fps.iter().copied().collect::<HashSet<_>>().len(), fps.len());
}

#[test]
fn sweep_axes_batches_have_the_stated_shape() {
    let s = Stream::generate(Workload::SweepAxes, 5);
    for batch in &s.units {
        let count = |r: Role| batch.iter().filter(|it| it.role == r).count();
        assert_eq!(count(Role::Solve), SWEEP_NEW);
        assert_eq!(count(Role::Revisit), SWEEP_REVISITS);
        assert_eq!(count(Role::Dedup), SWEEP_DEDUPS);
        let axes = |suffix: &str| {
            batch
                .iter()
                .filter(|it| it.role == Role::Solve && it.class.ends_with(suffix))
                .count()
        };
        assert_eq!(axes("/fault"), 1);
        assert_eq!(axes("/thermal"), 1);
    }
}

#[test]
fn sweep_axes_hits_its_stated_hit_and_dedup_shares_in_the_engine() {
    let w = Workload::SweepAxes;
    let s = Stream::generate(w, 11);
    let mut engine = Engine::new(EngineConfig::default()).unwrap();
    engine.query(&w.warmup()).unwrap();
    let before = *engine.stats();
    let batches = 6;
    for batch in &s.units[..batches] {
        let requests: Vec<_> = batch.iter().map(|it| it.request.clone()).collect();
        for (it, r) in batch.iter().zip(engine.query_batch(&requests)) {
            let outcome = r.expect("every generated request solves").outcome;
            let expected = match it.role {
                Role::Solve => matches!(outcome, Outcome::Warm | Outcome::Cold),
                Role::Revisit => outcome == Outcome::HitMemory,
                Role::Dedup => outcome == Outcome::Deduped,
            };
            assert!(expected, "{:?} item answered {:?}", it.role, outcome);
        }
    }
    let after = engine.stats();
    assert_eq!(
        after.memory_hits - before.memory_hits,
        (batches * SWEEP_REVISITS) as u64
    );
    assert_eq!(
        after.deduped - before.deduped,
        (batches * SWEEP_DEDUPS) as u64
    );
    assert_eq!(
        after.solves() - before.solves(),
        (batches * SWEEP_NEW) as u64
    );
}

#[test]
fn golden_files_cover_the_seed_one_stream_prefix() {
    for w in Workload::ALL {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{}.ndjson", w.name()));
        let golden: Vec<u64> = fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|l| {
                let doc = Json::parse(l).unwrap();
                ScenarioRequest::parse_fingerprint(doc.get("fp").unwrap().as_str().unwrap())
                    .unwrap()
            })
            .collect();
        let stream = Stream::generate(w, 1);
        let prefix: Vec<u64> = golden_prefix(&stream, w)
            .iter()
            .map(|r| r.fingerprint())
            .collect();
        assert!(
            prefix == golden,
            "{}: golden file is not the seed-1 prefix",
            w.name()
        );
    }
}
