//! A deliberately corrupted result must fail the correctness checks,
//! and a wrong answer must fail the run.

use fiting_perfbench::check::{contents_mismatches, mismatches};
use fiting_perfbench::layers::build;
use fiting_perfbench::rng::Rng;
use fiting_perfbench::{pairs_of, read_large, report, value_of, write_mixed, RunResult};
use fiting_telemetry::Histogram;

#[test]
fn read_large_check_catches_corrupted_answers() {
    let keys: Vec<u64> = (0..20_000u64).map(|i| i * 7 + 3).collect();
    let index = build(16, 2, pairs_of(&keys));
    let ops = read_large::pass_ops(&keys, &mut Rng::new(5, 1), 4_000);
    let mut got = vec![0; ops.len()];
    read_large::plain_pass(&index, &ops, &mut got, &Histogram::new(), &Histogram::new());
    let expected = read_large::expected(&keys, &ops);
    assert_eq!(mismatches(&expected, &got), 0);

    let get = ops
        .iter()
        .position(|op| matches!(op, read_large::Op::Get(_)))
        .expect("a pass has gets");
    let range = ops
        .iter()
        .position(|op| matches!(op, read_large::Op::Range { .. }))
        .expect("a pass has ranges");
    got[get] ^= 1;
    assert_eq!(mismatches(&expected, &got), 1);
    got[range] = got[range].wrapping_add(1);
    assert_eq!(mismatches(&expected, &got), 2);
    got.pop();
    assert_eq!(mismatches(&expected, &got), 3, "a missing answer counts");
}

#[test]
fn write_mixed_check_catches_a_corrupted_index() {
    let keys = fiting_datasets::iot(20_000, 3);
    let ops = write_mixed::round_ops(&keys, &mut Rng::new(3, 2), 10_000);
    let oracle = write_mixed::oracle(&keys, &ops);
    let index = build(16, 2, pairs_of(&keys));
    let mut got = vec![0; ops.len()];
    write_mixed::plain_round(&index, &ops, &mut got, &Histogram::new(), &Histogram::new());
    assert_eq!(mismatches(&write_mixed::expected(&ops), &got), 0);
    assert_eq!(
        contents_mismatches(write_mixed::contents(&index), &oracle),
        0
    );

    // A value overwritten behind the oracle's back.
    let victim = keys[keys.len() / 2];
    index.insert(victim, value_of(victim) ^ 1);
    assert_eq!(
        contents_mismatches(write_mixed::contents(&index), &oracle),
        1
    );
    // A key the workload never inserted.
    let extra = keys[keys.len() - 1] * 4;
    index.insert(extra, value_of(extra));
    assert!(contents_mismatches(write_mixed::contents(&index), &oracle) >= 2);
}

#[test]
fn a_wrong_answer_fails_the_run() {
    let mut result = RunResult::default();
    for metric in fiting_perfbench::catalog::metrics_for(false) {
        if metric.name != "success_frac" {
            result.put(metric.name, 1.0);
        }
    }
    result.attempted = 100;
    let ok = report::render(false, &[], &result).expect("catalog metrics");
    assert!(ok.correct);
    assert!(ok
        .json
        .starts_with("{\"correct\": true, \"attempted\": 100, \"failed\": 0,"));

    result.wrong = 1;
    let bad = report::render(false, &[], &result).expect("catalog metrics");
    assert!(!bad.correct);
    assert!(bad
        .json
        .starts_with("{\"correct\": false, \"attempted\": 100, \"failed\": 1,"));
    assert!(bad
        .json
        .contains("\"success_frac\": {\"value\": 0.99, \"unit\": \"frac\"}"));
}
