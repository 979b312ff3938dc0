//! A monitoring deployment exercising the protocol's data-fusion mode:
//! many sensors report temperatures *unsealed* (Step 1 omitted) so
//! intermediate nodes can peek at the payload, suppress duplicates and
//! discard redundant readings — the paper's "intermediate node
//! accessibility of data" property — then a compromised node is detected
//! and evicted mid-run.
//!
//! ```text
//! cargo run -p wsn-core --release --example secure_monitoring
//! ```

use wsn_core::prelude::*;

fn main() {
    let mut outcome = run_setup(&SetupParams {
        n: 401,
        density: 14.0,
        seed: 21,
        cfg: ProtocolConfig::default(),
    });
    outcome.handle.establish_gradient();
    println!(
        "deployed {} sensors in {} clusters\n",
        outcome.report.n_sensors,
        outcome.report.cluster_sizes.len()
    );

    // Phase 1: a wave of fusion-mode temperature reports.
    let reporters: Vec<u32> = outcome
        .handle
        .sensor_ids()
        .into_iter()
        .step_by(25)
        .collect();
    for (k, &src) in reporters.iter().enumerate() {
        let temp = 20.0 + (k as f64) * 0.3;
        outcome
            .handle
            .send_reading(src, format!("T={temp:.1}").into_bytes(), false);
    }
    let delivered = outcome.handle.sink(0).received.len();
    println!(
        "fusion wave: {}/{} readings delivered (unsealed — forwarders could peek)",
        delivered,
        reporters.len()
    );

    // Show the in-network work the fusion peek saved: duplicates suppressed
    // at forwarders instead of re-transmitted.
    let fused: u64 = outcome
        .handle
        .sensor_ids()
        .iter()
        .map(|&id| outcome.handle.sensor(id).stats.fused_duplicates)
        .sum();
    let forwarded: u64 = outcome
        .handle
        .sensor_ids()
        .iter()
        .map(|&id| outcome.handle.sensor(id).stats.forwarded)
        .sum();
    println!("in-network: {forwarded} frames forwarded, {fused} duplicate copies discarded");
    println!(
        "radio energy spent so far: {:.1} mJ\n",
        outcome.handle.sim().counters().total_energy_uj() / 1000.0
    );

    // Phase 2: node 0's intrusion detection (assumed, per the paper)
    // fingers a compromised reporter. Evict it.
    let compromised = reporters[2];
    println!("ALERT: node {compromised} reported compromised — issuing revocation...");
    outcome.handle.evict_nodes(&[compromised]);
    let orphaned = outcome
        .handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| outcome.handle.sensor(id).is_revoked())
        .count();
    println!(
        "revocation flooded: {} nodes in revoked clusters must re-key or be replaced",
        orphaned
    );

    // The evicted node's reports are now refused...
    let before = outcome.handle.sink(0).received.len();
    outcome
        .handle
        .send_reading(compromised, b"T=99.9".to_vec(), false);
    assert_eq!(outcome.handle.sink(0).received.len(), before);
    println!("evicted node's report: refused by the base station");

    // ...while a healthy sensor still gets through, end-to-end sealed this
    // time (Step 1 enabled: only the base station can read it).
    let healthy = *reporters.last().unwrap();
    if !outcome.handle.sensor(healthy).is_revoked() {
        outcome
            .handle
            .send_reading(healthy, b"T=20.1 (sealed)".to_vec(), true);
        let r = outcome.handle.sink(0).received.last().unwrap();
        println!(
            "healthy node {}: sealed reading delivered ({:?})",
            r.src,
            String::from_utf8_lossy(&r.data)
        );
    }
    println!("\nok.");
}
