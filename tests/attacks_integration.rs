//! The full §VI storyline, end to end: capture → attempted abuse →
//! eviction → containment → network repair via node addition.

use wsn_attacks::capture::{capture_nodes, inject_clone, CloneOutcome};
use wsn_attacks::hello_flood::flood_setup_phase;
use wsn_baselines::leap::Leap;
use wsn_core::node::Role;
use wsn_core::prelude::*;

fn params(seed: u64) -> SetupParams {
    SetupParams {
        n: 400,
        density: 14.0,
        seed,
        cfg: ProtocolConfig::default(),
    }
}

#[test]
fn capture_evict_repair_storyline() {
    let mut o = run_setup(&params(1));
    o.handle.establish_gradient();

    // 1. Adversary captures a node and measures its reach.
    let victim = o.handle.sensor_ids()[33];
    let before = capture_nodes(&o.handle, &[victim]);
    assert!(before.readable_fraction > 0.0);
    assert!(before.readable_fraction < 0.15, "localized damage");

    // 2. A clone works near home...
    let near = inject_clone(&mut o.handle, victim, victim);
    assert_eq!(near, CloneOutcome::Accepted);

    // 3. ...until detection (assumed, per the paper) triggers eviction.
    o.handle.evict_nodes(&[victim]);

    // 4. Containment: the captured material is now dead weight — every
    //    cluster the victim had keys for has been revoked network-wide.
    let after = inject_clone(&mut o.handle, victim, victim);
    assert_eq!(
        after,
        CloneOutcome::Rejected,
        "post-eviction, the clone must be inert even at home"
    );
    let bs_count = o.handle.sink(0).received.len();
    o.handle.send_reading(victim, b"zombie".to_vec(), true);
    assert_eq!(o.handle.sink(0).received.len(), bs_count);

    // 5. Repair: fresh nodes fill the revoked hole and are operational.
    let new_ids = o.handle.add_nodes(8);
    let joined = new_ids
        .iter()
        .filter(|&&id| o.handle.sensor(id).role() == Role::Member)
        .count();
    assert!(joined >= 6, "repair wave must mostly join: {joined}/8");
}

#[test]
fn hello_flood_ours_vs_leap() {
    // Ours: flood during setup yields zero suborned nodes.
    let (report, _) = flood_setup_phase(&params(2), &[50, 150, 250], 25);
    assert_eq!(report.injected, 75);
    assert_eq!(report.suborned, 0);

    // LEAP-like neighbor discovery accepts every forged HELLO.
    assert_eq!(Leap.hello_flood_accepted(75), 75);
}

#[test]
fn network_under_simultaneous_attacks_still_delivers() {
    // Flood the setup phase AND mute 10% of forwarders afterwards; honest
    // traffic must still arrive.
    let (report, mut handle) = flood_setup_phase(&params(3), &[10, 200], 30);
    assert_eq!(report.suborned, 0);
    handle.establish_gradient();

    let dist = handle.sim().topology().hop_distances(0);
    let sources: Vec<u32> = handle
        .sensor_ids()
        .into_iter()
        .filter(|&id| dist[id as usize] >= 2 && dist[id as usize] != u32::MAX)
        .take(5)
        .collect();
    let r = wsn_attacks::selective_forward::run_with_muted_fraction(&mut handle, 0.10, &sources);
    assert!(
        r.delivered >= r.attempted - 1,
        "delivery {} of {}",
        r.delivered,
        r.attempted
    );
}

#[test]
fn capture_growth_is_monotone_and_bounded() {
    // The security-figure shape: readable fraction grows with captures but
    // stays far below the global-key scheme's 1.0 cliff.
    let o = run_setup(&params(4));
    let ids = o.handle.sensor_ids();
    let mut last = 0.0;
    for &k in &[1usize, 5, 10, 20] {
        let captured: Vec<u32> = ids.iter().copied().step_by(17).take(k).collect();
        let r = capture_nodes(&o.handle, &captured);
        assert!(r.readable_fraction >= last - 1e-9);
        last = r.readable_fraction;
    }
    // Typical values run 0.73-0.86 depending on the deployment draw;
    // the point is the contrast with the global-key scheme's 1.0 cliff,
    // not the exact coverage of a 5% capture.
    assert!(
        last < 0.9,
        "20 captures must not expose (almost) everything: {last}"
    );
}
