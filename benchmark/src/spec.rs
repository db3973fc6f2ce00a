//! What the benchmark promises: workload names, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the repository root states
//! the same and a self-test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [&str; 6] = [
    "serve_read",
    "serve_write",
    "serve_mixed",
    "eval_positive",
    "eval_negation",
    "maintain_churn",
];

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// Every workload reports every one of these (the contract wants one
/// metric set for all workloads); the README says what each means where,
/// and how the bounds were sized from the run-to-run spread measured on
/// the two-core host.
pub const END_TO_END: [MetricSpec; 6] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("ops_s", "1/s", Better::Higher, 0.25),
    gated("p50_us", "us", Better::Lower, 0.25),
    gated("tail_us", "us", Better::Lower, 0.25),
    gated("alt_p50_us", "us", Better::Lower, 0.25),
    gated("peak_rss_mb", "MiB", Better::Lower, 0.20),
];

const fn layer(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn layer_up(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Per-layer metrics of the traced run. A workload that bypasses a layer
/// reports 0 for it.
pub const PER_LAYER: [MetricSpec; 83] = [
    layer("syntax.parse_program_us", "us"),
    layer("eval.compile_us", "us"),
    layer("eval.context_us", "us"),
    layer("eval.run_ms.tc_path", "ms"),
    layer("eval.run_ms.tc_gnp", "ms"),
    layer("eval.run_ms.infl_distance", "ms"),
    layer("eval.run_ms.strat_distance", "ms"),
    layer("eval.run_ms.wf_win_reach", "ms"),
    layer("eval.apply_full_ms.tc_path", "ms"),
    layer("eval.apply_full_ms.tc_gnp", "ms"),
    layer("eval.apply_full_ms.infl_distance", "ms"),
    layer("eval.apply_full_ms.strat_distance", "ms"),
    layer("eval.apply_full_ms.wf_win_reach", "ms"),
    layer("eval.rounds.tc_path", "count"),
    layer("eval.rounds.tc_gnp", "count"),
    layer("eval.rounds.infl_distance", "count"),
    layer("eval.rounds.strat_distance", "count"),
    layer("eval.rounds.wf_win_reach", "count"),
    layer("eval.model_tuples.tc_path", "count"),
    layer("eval.model_tuples.tc_gnp", "count"),
    layer("eval.model_tuples.infl_distance", "count"),
    layer("eval.model_tuples.strat_distance", "count"),
    layer("eval.model_tuples.wf_win_reach", "count"),
    layer("materialize.new_ms", "ms"),
    layer("materialize.insert_us", "us"),
    layer("materialize.retract_us", "us"),
    layer("materialize.retract_over_recompute", "ratio"),
    layer("materialize.restart_update_us", "us"),
    layer("materialize.restart_recompute_us", "us"),
    layer("materialize.publish_us", "us"),
    layer("epoch.pin_ns", "ns"),
    layer("epoch.select_point_us", "us"),
    layer("epoch.select_prefix_us", "us"),
    layer("epoch.select_cut_us", "us"),
    layer("epoch.select_open_us", "us"),
    layer("epoch.select_us", "us"),
    layer("epoch.answer_tuples_per_read", "count"),
    layer("epoch.relation_tuples_per_answer", "ratio"),
    layer("epoch.drop_us", "us"),
    layer("store.wal_append_us", "us"),
    layer("store.wal_bytes_per_write", "B"),
    layer("store.compact_ms", "ms"),
    layer("store.snapshot_bytes", "B"),
    layer("store.snapshot_bytes_per_tuple", "B"),
    layer("store.open_ms", "ms"),
    layer("durable.insert_us", "us"),
    layer("durable.retract_us", "us"),
    layer("durable.open_ms", "ms"),
    layer("durable.replay_us_per_record", "us"),
    layer("proto.parse_us", "us"),
    layer("server.query_us", "us"),
    layer("server.insert_us", "us"),
    layer("server.retract_us", "us"),
    layer("server.queue_hop_us", "us"),
    layer("conn.format_us", "us"),
    layer("conn.reply_bytes_per_read", "B"),
    layer("conn.session_read_us", "us"),
    layer("conn.session_write_us", "us"),
    layer("conn.session_read_unattributed_us", "us"),
    layer("conn.session_write_unattributed_us", "us"),
    layer("conn.tcp_overhead_us", "us"),
    layer("conn.read_mean_us", "us"),
    layer("conn.read_p50_us", "us"),
    layer("conn.read_point_p50_us", "us"),
    layer("conn.read_prefix_p50_us", "us"),
    layer("conn.read_cut_p50_us", "us"),
    layer("conn.read_open_p50_us", "us"),
    layer("conn.read_open_plain_p50_us", "us"),
    layer("conn.read_p99_us", "us"),
    layer("conn.read_p999_us", "us"),
    layer("conn.insert_p50_us", "us"),
    layer("conn.retract_p50_us", "us"),
    layer("conn.write_p99_us", "us"),
    layer("serve.recover_ms", "ms"),
    layer("serve.recover_wal_records", "count"),
    layer("server.shed_count", "count"),
    layer("server.err_count", "count"),
    layer_up("server.epochs_published", "count"),
    layer("loadgen.client_us_per_req", "us"),
    layer("loadgen.send_gap_p99_us", "us"),
    layer("trace.request_us", "us"),
    layer("trace.untraced_request_us", "us"),
    layer("trace.overhead_share", "ratio"),
];

pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.unit.len() <= 16);
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w));
        }
    }

    #[test]
    fn benchmark_json_states_the_same_contract() {
        let j = manifest();
        let keys: Vec<&str> = j.keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            j.get(key)
                .items()
                .iter()
                .map(|o| o.get("name").str().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for w in j.get("workloads").items() {
            assert!(w.get("why").str().len() <= 200 && !w.get("why").str().contains('\n'));
        }
        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = j.get(key).items();
            assert_eq!(listed.len(), specs.len(), "{key}");
            for (o, s) in listed.iter().zip(specs) {
                assert_eq!(o.get("name").str(), s.name);
                assert_eq!(o.get("unit").str(), s.unit, "{}", s.name);
                assert_eq!(o.get("better").str(), s.better.as_str(), "{}", s.name);
                match s.bound {
                    Some(b) => assert_eq!(o.get("bound").num(), b, "{}", s.name),
                    None => assert_eq!(o.keys().count(), 3, "{}", s.name),
                }
            }
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert_eq!(j.get("paths").items()[0].str(), "benchmark");
    }
}
