//! Quickstart: deploy a network, run the key-setup phase, and deliver a
//! confidential sensor reading to the base station.
//!
//! ```text
//! cargo run -p wsn-core --release --example quickstart
//! ```

use wsn_core::prelude::*;

fn main() {
    // 1. Deploy 500 sensors (+ the base station as node 0) at an average
    //    density of 12 neighbors per node, everything derived from one seed.
    let mut outcome = run_setup(&SetupParams {
        n: 501,
        density: 12.0,
        seed: 7,
        cfg: ProtocolConfig::default(),
    });
    let report = &outcome.report;
    println!("deployed {} sensors", report.n_sensors);
    println!("  measured density     : {:.1}", report.measured_density);
    println!("  clusters formed      : {}", report.cluster_sizes.len());
    println!("  mean cluster size    : {:.2}", report.mean_cluster_size);
    println!("  mean keys per node   : {:.2}", report.mean_keys_per_node);
    println!("  setup msgs per node  : {:.3}", report.msgs_per_node);
    println!(
        "  setup virtual time   : {:.2} s",
        report.setup_time as f64 / 1e6
    );

    // 2. Establish the routing gradient (one authenticated beacon flood).
    outcome.handle.establish_gradient();

    // 3. Pick the sensor farthest from the base station and send a sealed
    //    (end-to-end confidential) reading.
    let dist = outcome.handle.sim().topology().hop_distances(0);
    let far = outcome
        .handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| dist[id as usize] != u32::MAX)
        .max_by_key(|&id| dist[id as usize])
        .expect("connected network");
    println!(
        "\nsending a sealed reading from node {far} ({} hops out)...",
        dist[far as usize]
    );
    outcome
        .handle
        .send_reading(far, b"temperature=21.5C".to_vec(), true);

    // 4. The base station decrypted and verified it end-to-end.
    let bs = outcome.handle.sink(0);
    let reading = bs.received.last().expect("delivered");
    println!(
        "base station received from node {}: {:?} (counter {:?})",
        reading.src,
        String::from_utf8_lossy(&reading.data),
        reading.ctr
    );
    assert_eq!(reading.data, b"temperature=21.5C");
    println!("\nok.");
}
