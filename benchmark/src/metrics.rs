//! The names and units of every metric the benchmark reports. They are
//! the contract with `BENCHMARK.json`; a test holds the two together.

/// End-to-end metrics, printed by a `--trace 0` run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("rows_per_s", "rows/s"),
    ("cpu_ms_per_op", "CPU-ms"),
    ("wire_bytes_per_op", "B"),
    ("accuracy", "ratio"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, printed by a `--trace 1` run: `(name, unit)`. A
/// layer is a crate. A workload that does not exercise a metric's layer
/// reports it as 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("linalg.gram_ms", "ms"),
    ("linalg.matvec_us", "us"),
    ("linalg.chol_ms", "ms"),
    ("qp.solve_box_ms", "ms"),
    ("qp.iterations", "count"),
    ("qp.solve_eq_ms", "ms"),
    ("kernel.gram_ms", "ms"),
    ("kernel.eval_ns", "ns"),
    ("svm.decision_us_per_row", "us"),
    ("svm.linear_decision_ns_per_row", "ns"),
    ("data.synth_ms", "ms"),
    ("data.partition_ms", "ms"),
    ("crypto.mask_share_us", "us"),
    ("crypto.combine_us", "us"),
    ("crypto.fixed_encode_ns", "ns"),
    ("crypto.shamir_split_us", "us"),
    ("crypto.shamir_reconstruct_us", "us"),
    ("crypto.paillier_keygen_ms", "ms"),
    ("crypto.paillier_encrypt_ms", "ms"),
    ("crypto.paillier_add_us", "us"),
    ("crypto.paillier_decrypt_ms", "ms"),
    ("transport.frames_per_op", "count"),
    ("transport.bytes_per_op", "B"),
    ("transport.retransmits_per_op", "count"),
    ("transport.send_us_p50", "us"),
    ("transport.coord_recv_wait_ms_per_op", "ms"),
    ("transport.assemble_ms", "ms"),
    ("transport.tcp_vs_loopback_ratio", "ratio"),
    ("transport.frame_encode_ns_per_byte", "ns/B"),
    ("transport.frame_decode_ns_per_byte", "ns/B"),
    ("transport.crc32_ns_per_byte", "ns/B"),
    ("core.run_ms.pairwise", "ms"),
    ("core.run_ms.shamir", "ms"),
    ("core.run_ms.paillier", "ms"),
    ("core.round_ms_p50.pairwise", "ms"),
    ("core.round_ms_p50.shamir", "ms"),
    ("core.round_ms_p50.paillier", "ms"),
    ("core.coord_cpu_ms_per_op", "CPU-ms"),
    ("core.run_ms.hl", "ms"),
    ("core.run_ms.hk", "ms"),
    ("core.run_ms.vl", "ms"),
    ("core.run_ms.vk", "ms"),
    ("core.learner_cpu_max_ms", "CPU-ms"),
    ("core.learner_cpu_imbalance", "ratio"),
    ("core.rounds_to_target", "count"),
    ("mapreduce.empty_round_us", "us"),
    ("mapreduce.round_us_p50", "us"),
    ("mapreduce.task_retries_per_op", "count"),
    ("mapreduce.bytes_shuffled_per_op", "B"),
    ("mapreduce.bytes_broadcast_per_op", "B"),
    ("mapreduce.locality_ratio", "ratio"),
    ("serve.engine_us_per_batch", "us"),
    ("serve.front_overhead_us", "us"),
    ("serve.model_load_us", "us"),
    ("serve.http_floor_ms", "ms"),
    ("serve.connect_first_score_ms", "ms"),
    ("telemetry.overhead_share", "ratio"),
    ("telemetry.events_per_op", "count"),
    ("telemetry.emit_ns", "ns"),
    ("diag.op_ms_p90", "ms"),
    ("diag.op_ms_p99", "ms"),
    ("diag.op_ms_max", "ms"),
    ("diag.ops", "count"),
    ("diag.block_spread", "ratio"),
    ("diag.pinned", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `(name, unit)` of every entry of one of `BENCHMARK.json`'s tables.
    fn declared(spec: &Value, table: &str) -> Vec<(String, String)> {
        spec.get(table)
            .and_then(Value::as_arr)
            .expect("a table")
            .iter()
            .map(|entry| {
                let text = |key| entry.get(key).and_then(Value::as_str).expect("a string");
                (text("name").to_string(), text("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_a_run_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(&spec, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(&spec, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        assert!(crate::compare::bounds_of(&spec).is_ok());
    }
}
