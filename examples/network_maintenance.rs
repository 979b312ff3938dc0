//! Long-lived network maintenance: periodic key refresh (both modes),
//! refreshing the *population* by adding new nodes as old ones die, and
//! the crash → reboot → rejoin cycle — the paper's §IV-C and §IV-E
//! machinery working together.
//!
//! ```text
//! cargo run -p wsn-core --release --example network_maintenance
//! ```

use wsn_core::prelude::*;

fn main() {
    let mut outcome = run_setup(&SetupParams {
        n: 301,
        density: 14.0,
        seed: 33,
        cfg: ProtocolConfig::default().with_refresh_mode(RefreshMode::Hash),
    });
    outcome.handle.establish_gradient();
    println!(
        "initial deployment: {} sensors, {} clusters, epoch 0\n",
        outcome.report.n_sensors,
        outcome.report.cluster_sizes.len()
    );

    let probe = outcome.handle.sensor_ids()[9];

    // Several hash-refresh epochs: zero messages, keys roll forward.
    for epoch in 1..=3u32 {
        let tx_before = outcome.handle.total_tx();
        outcome.handle.refresh();
        let tx_after = outcome.handle.total_tx();
        assert_eq!(outcome.handle.sensor(probe).epoch(), epoch);
        println!(
            "hash refresh -> epoch {epoch} ({} messages spent)",
            tx_after - tx_before
        );
        // Traffic still flows at the new epoch.
        outcome
            .handle
            .send_reading(probe, format!("epoch {epoch} ping").into_bytes(), true);
        println!(
            "  reading at epoch {epoch}: delivered ({} total at BS)",
            outcome.handle.sink(0).received.len()
        );
    }

    // Population refresh: some sensors die of energy depletion (silently
    // dropping off the air is modeled by muting), and new sensors are
    // deployed carrying KMC.
    println!("\n20 sensors die of energy depletion; deploying 20 replacements...");
    for &id in outcome.handle.sensor_ids().iter().step_by(15).take(20) {
        outcome.handle.sensor_mut(id).set_muted(true);
    }
    let new_ids = outcome.handle.add_nodes(20);
    let joined = new_ids
        .iter()
        .filter(|&&id| outcome.handle.sensor(id).role() == Role::Member)
        .count();
    println!("replacements joined: {joined}/20 (epoch-aware: they derived epoch-3 keys from KMC)");

    // Beacons refresh the gradient over the changed topology; a newcomer
    // reports home.
    outcome.handle.establish_gradient();
    if let Some(&newbie) = new_ids.iter().find(|&&id| {
        outcome.handle.sensor(id).role() == Role::Member
            && outcome.handle.sensor(id).hops_to(0) != u32::MAX
    }) {
        outcome
            .handle
            .send_reading(newbie, b"newcomer checking in".to_vec(), true);
        let r = outcome.handle.sink(0).received.last().unwrap();
        println!(
            "newcomer {} delivered its first sealed reading: {:?}",
            r.src,
            String::from_utf8_lossy(&r.data)
        );
        assert_eq!(r.src, newbie);
    }

    // A node crashes losing its flash, misses an epoch, and reboots: the
    // wiped reboot re-enters through the same §IV-E join path as a new
    // deployment and derives *current*-epoch keys from KMC.
    let casualty = outcome
        .handle
        .sensor_ids()
        .into_iter()
        .find(|&id| outcome.handle.sensor(id).role() == Role::Member)
        .expect("a member exists");
    println!("\nnode {casualty} crashes (flash wiped)...");
    outcome.handle.crash_node(casualty);
    outcome.handle.refresh(); // epoch 4 rolls while it is dark
    outcome.handle.reboot_node_wiped(casualty);
    let deadline = outcome.handle.sim().now() + 3_000_000;
    outcome.handle.sim_mut().run_until(deadline);
    let back = outcome.handle.sensor(casualty);
    println!(
        "node {casualty} rebooted: role {:?}, epoch {} (network is at 4)",
        back.role(),
        back.epoch()
    );
    if back.role() == Role::Member {
        assert_eq!(back.epoch(), 4, "rejoiner must sync to the current epoch");
    }

    // Verify epoch coherence across the whole (old + new) population.
    let epochs: std::collections::BTreeSet<u32> = outcome
        .handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| {
            outcome.handle.sensor(id).role() == Role::Member
                || outcome.handle.sensor(id).role() == Role::Head
        })
        .map(|id| outcome.handle.sensor(id).epoch())
        .collect();
    println!("\nepochs present in the network: {epochs:?}");
    println!("ok.");
}
