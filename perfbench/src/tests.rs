//! The benchmark's own tests, at tiny sizes.

use crate::families::{self, interleave, Answer, PairRun, QueryRun, VcRun};
use crate::inputs::{Inputs, Scale, Workload, CLIENTS};
use crate::oracle::{self, Oracle};
use crate::report::{END_TO_END, PER_LAYER};
use crate::workloads::{run, RunConfig};

fn tiny(workload: Workload, traced: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        traced,
        scale: Scale::tiny(),
    }
}

/// The JSON line names every declared metric with its unit.
fn assert_emits(line: &str, declared: &[(&str, &str)]) {
    for (name, unit) in declared {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at..];
        let unit_field = format!("\"unit\": \"{unit}\"}}");
        assert!(
            rest.find(&unit_field)
                .is_some_and(|u| u < rest.find('}').unwrap() + 1),
            "{name} lacks unit {unit}"
        );
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let (report, oracle) = run(&tiny(workload, false));
        assert!(
            report.missing(false).is_empty(),
            "{}: {:?}",
            workload.name(),
            report.missing(false)
        );
        assert_eq!(oracle.failed, 0, "{}: {:?}", workload.name(), oracle.notes);
        let out = report.render(&oracle, false);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
        assert_emits(last, &END_TO_END);
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for workload in Workload::ALL {
        let (report, oracle) = run(&tiny(workload, true));
        assert!(
            report.missing(true).is_empty(),
            "{}: {:?}",
            workload.name(),
            report.missing(true)
        );
        assert_eq!(oracle.failed, 0, "{}: {:?}", workload.name(), oracle.notes);
        let out = report.render(&oracle, true);
        assert!(
            out.contains("# span bench.index.build"),
            "span table missing"
        );
        assert_emits(out.lines().last().unwrap(), &PER_LAYER);
    }
}

#[test]
fn same_seed_same_op_streams() {
    let scale = Scale::tiny();
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, &scale, 11);
        let b = Inputs::generate(workload, &scale, 11);
        let c = Inputs::generate(workload, &scale, 12);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.mutations, b.mutations);
        assert_ne!(a.digest(), c.digest());
    }
}

#[test]
fn oracle_counts_planted_wrong_answers() {
    let scale = Scale::tiny();
    let inputs = Inputs::generate(Workload::MotifServe, &scale, 3);
    assert_eq!(inputs.queries.len(), CLIENTS);

    // A flipped verdict and a corrupted witness.
    let cs = families::cold_start(&inputs.main.text);
    let mut run = QueryRun::new(&cs.loaded, &inputs.queries, 0.0);
    interleave(&mut [&mut run]);
    let mut clean = Oracle::default();
    oracle::check_queries(&mut clean, "queries", &run, &inputs.main);
    assert_eq!(clean.failed, 0);
    let d = run
        .records
        .iter()
        .position(|r| matches!(r.answer, Answer::Decide(_)))
        .unwrap();
    if let Answer::Decide(yes) = run.records[d].answer {
        run.records[d].answer = Answer::Decide(!yes);
    }
    let f = run
        .records
        .iter()
        .position(|r| matches!(r.answer, Answer::Find(Some(_))))
        .unwrap();
    if let Answer::Find(Some(w)) = &mut run.records[f].answer {
        w[0] = w[1];
    }
    let mut planted = Oracle::default();
    oracle::check_queries(&mut planted, "queries", &run, &inputs.main);
    assert_eq!(planted.failed, 2);
    assert!(planted.fail_ratio() > 0.0);

    // A wrong s–t answer.
    let g = psi_graph::parse_graph(&inputs.side_stacked.text).unwrap();
    let mut run = PairRun::new(&g, &inputs.pairs, 0.0);
    interleave(&mut [&mut run]);
    let mut pairs = run.records;
    pairs[0].answer = 7;
    let mut planted = Oracle::default();
    oracle::check_pairs(
        &mut planted,
        "pairs",
        &pairs,
        &inputs.side_stacked.graph,
        &[],
    );
    assert_eq!(planted.failed, 1);

    // A wrong whole-graph connectivity.
    let mut run = VcRun::new(&scale.vc_cases, 1, 1);
    interleave(&mut [&mut run]);
    let mut results: Vec<_> = run.results.into_iter().map(|mut r| r.remove(0)).collect();
    if let Ok(r) = &mut results[0].0 {
        r.connectivity += 1;
    }
    let mut planted = Oracle::default();
    oracle::check_vc(&mut planted, &scale.vc_cases, &results);
    assert_eq!(planted.failed, 1);
}
