//! Sybil attacks (§VI): forged identities.
//!
//! "Since every node shares a unique symmetric key with the trusted base
//! station, a single node cannot present multiple identities." — a Sybil
//! can put arbitrary source IDs on the wire, but a Step-1-sealed reading
//! only verifies under the registered `Ki` of the claimed source, and an
//! unregistered ID has no `Ki` at all.

use wsn_core::forward::{e2e_seal, wrap};
use wsn_core::msg::{DataUnit, Inner};
use wsn_core::node::CapturedKeys;
use wsn_core::setup::NetworkHandle;

/// Outcome of a Sybil identity-forgery attempt at the base station.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SybilReport {
    /// Sealed readings injected under forged identities.
    pub injected: usize,
    /// Readings the base station accepted from those identities.
    pub accepted: usize,
}

/// From a captured node, forges `identities` distinct sealed readings,
/// each claiming a different source ID (the captured node's neighbors'
/// IDs and some invented ones), and fires them at the base station's
/// neighborhood. The attacker has the captured node's `Ki` — but `Ki`
/// only authenticates *its own* identity.
pub fn forge_identities(
    handle: &mut NetworkHandle,
    captured: &CapturedKeys,
    identities: &[u32],
) -> SybilReport {
    let (cid, kc) = captured.cluster.expect("captured node is clustered");
    let before = handle.sink(0).received.len();
    for (k, &fake_src) in identities.iter().enumerate() {
        // Seal with the only node key the attacker has (the captured one),
        // but claim `fake_src` — the best a Sybil can do.
        let body = e2e_seal(&captured.ki, fake_src, 0, b"sybil reading");
        let unit = DataUnit {
            src: fake_src,
            ctr: None,
            sealed: true,
            body,
        };
        let msg = wrap(
            &kc,
            cid,
            captured.id,
            0x5B11_0000 + k as u64,
            handle.sim().now(),
            u32::MAX,
            &Inner::Data(unit),
        );
        // Deliver straight into the BS neighborhood: forwarding is not the
        // obstacle being tested.
        handle
            .sim_mut()
            .inject_broadcast_at(0, captured.id, 1 + k as u64, msg.encode());
    }
    handle.sim_mut().run();
    SybilReport {
        injected: identities.len(),
        accepted: handle.sink(0).received.len() - before,
    }
}

/// The honest-path sanity check: the same construction under the
/// attacker's *own* identity is accepted (it is, after all, a valid node
/// until evicted).
pub fn report_as_self(handle: &mut NetworkHandle, captured: &CapturedKeys) -> bool {
    let before = handle.sink(0).received.len();
    let (cid, kc) = captured.cluster.expect("clustered");
    let body = e2e_seal(&captured.ki, captured.id, 0, b"own identity");
    let unit = DataUnit {
        src: captured.id,
        ctr: None,
        sealed: true,
        body,
    };
    let msg = wrap(
        &kc,
        cid,
        captured.id,
        0x5B11_FFFF,
        handle.sim().now(),
        u32::MAX,
        &Inner::Data(unit),
    );
    handle
        .sim_mut()
        .inject_broadcast_at(0, captured.id, 1, msg.encode());
    handle.sim_mut().run();
    handle.sink(0).received.len() > before
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::prelude::*;

    fn network(seed: u64) -> NetworkHandle {
        let mut o = run_setup(&SetupParams {
            n: 300,
            density: 14.0,
            seed,
            cfg: ProtocolConfig::default(),
        });
        o.handle.establish_gradient();
        o.handle
    }

    #[test]
    fn forged_identities_rejected_own_identity_accepted() {
        let mut handle = network(1);
        // Capture a node adjacent to the BS so its cluster key opens at
        // the BS.
        let bs_neighbor = *handle
            .sim()
            .topology()
            .neighbors(0)
            .iter()
            .find(|&&n| n != 0)
            .expect("BS has neighbors");
        let captured = handle.sensor(bs_neighbor).extract_keys();

        // Forge: neighbors' IDs + invented IDs.
        let mut fakes: Vec<u32> = handle
            .sim()
            .topology()
            .neighbors(bs_neighbor)
            .iter()
            .copied()
            .filter(|&n| n != 0 && n != bs_neighbor)
            .take(3)
            .collect();
        fakes.push(77_777); // unregistered identity
        let report = forge_identities(&mut handle, &captured, &fakes);
        assert_eq!(report.accepted, 0, "no forged identity may pass");

        assert!(
            report_as_self(&mut handle, &captured),
            "the captured node's own identity still works until evicted"
        );
    }
}
