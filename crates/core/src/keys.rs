//! Initialization phase (paper §IV-A): pre-deployment key provisioning.
//!
//! "Sensor nodes are assigned a unique ID ... as well as three symmetric
//! keys" — the node key `Ki`, the potential cluster key `Kci`, and the
//! master key `Km` — plus (for the revocation scheme of §IV-D) the key
//! chain commitment `K0`. The base station "is then given all the ID
//! numbers and keys used in the network before the deployment phase";
//! [`Provisioner`] plays the role of that manufacturing-time authority.

use crate::forward::{derive_pair, sealer};
use std::collections::HashMap;
use wsn_crypto::authenc::AuthEnc;
use wsn_crypto::drbg::HmacDrbg;
use wsn_crypto::keychain::{ChainVerifier, KeyChain};
use wsn_crypto::prf::PrfKey;
use wsn_crypto::Key128;

/// The key material loaded into one sensor node before deployment.
#[derive(Clone, Debug)]
pub struct NodeKeyMaterial {
    /// Node ID.
    pub id: u32,
    /// Node key `Ki`, shared with the base station (end-to-end security).
    pub ki: Key128,
    /// Potential cluster key `Kci = F(KMC, i)`: used only if this node
    /// elects itself cluster head.
    pub kci: Key128,
    /// Master key `Km` for the setup phase. Never present on nodes added
    /// after initial deployment; the running node erases it after setup.
    pub km: Option<Key128>,
    /// Master-cluster key `KMC`, loaded only into nodes added after initial
    /// deployment (§IV-E); the running node erases it when its join
    /// completes.
    pub kmc: Option<Key128>,
    /// Verifier state for the base station's revocation chain (`K0`
    /// preloaded at manufacture).
    pub chain: ChainVerifier,
}

/// A key a running sensor holds, with the sealer built from it on first
/// use.
///
/// The sealer holds `F(K, 0)` and `F(K, 1)`, which open and forge whatever
/// `K` protects, so it lives exactly as long as the key: replacing the
/// slot's key or dropping the slot drops the sealer with it. Storing it
/// here also makes key and sealer one lookup on the receive path. A built
/// slot keeps key and sealer together on the heap, because a node holds a
/// handful of slots and most of them never seal or open anything; the
/// unbuilt slot is the bare key, so an empty `Option<KeySlot>` costs no
/// extra word.
pub(crate) struct KeySlot(Slot);

enum Slot {
    Key(Key128),
    Built(Box<Built>),
}

struct Built {
    key: Key128,
    sealer: AuthEnc,
    /// Keys and sealers of the epochs ahead: `ahead[i]` is for
    /// `F^(i+1)(key)`. Built only by [`KeySlot::sealer_ahead`].
    ahead: Vec<(Key128, AuthEnc)>,
}

impl KeySlot {
    /// A slot holding `key`, its sealer not built yet.
    pub(crate) fn new(key: Key128) -> Self {
        KeySlot(Slot::Key(key))
    }

    /// The key.
    pub(crate) fn key(&self) -> Key128 {
        match &self.0 {
            Slot::Key(key) => *key,
            Slot::Built(built) => built.key,
        }
    }

    /// Rolls the key one refresh epoch forward, `K ← F(K)`, dropping the
    /// old key's sealer.
    pub(crate) fn hash_step(&mut self) {
        *self = KeySlot::new(crate::refresh::hash_step(&self.key()));
    }

    /// The sealer for the key, built on first use.
    pub(crate) fn sealer(&mut self) -> &AuthEnc {
        &self.built().sealer
    }

    /// The key `k ≥ 1` refresh epochs ahead, `F^k(K)`, and its sealer: the
    /// candidates a node that slept through epochs tries. They are built
    /// on first use and kept with this key, so every later frame that
    /// fails under it costs no key expansion.
    pub(crate) fn sealer_ahead(&mut self, k: usize) -> &(Key128, AuthEnc) {
        assert!(k >= 1, "epoch 0 is the slot's own key");
        let built = self.built();
        while built.ahead.len() < k {
            let last = built.ahead.last().map_or(built.key, |&(key, _)| key);
            let next = crate::refresh::hash_step(&last);
            built.ahead.push((next, sealer(&next)));
        }
        &built.ahead[k - 1]
    }

    fn built(&mut self) -> &mut Built {
        if let Slot::Key(key) = self.0 {
            self.0 = Slot::Built(Box::new(Built {
                key,
                sealer: sealer(&key),
                ahead: Vec::new(),
            }));
        }
        match &mut self.0 {
            Slot::Built(built) => built,
            Slot::Key(_) => unreachable!("built above"),
        }
    }

    /// Every sealer built for this key: its own and those of the epochs
    /// ahead.
    #[cfg(test)]
    pub(crate) fn built_sealers(&self) -> impl Iterator<Item = &AuthEnc> {
        let built = match &self.0 {
            Slot::Key(_) => None,
            Slot::Built(built) => Some(built),
        };
        built
            .into_iter()
            .flat_map(|b| std::iter::once(&b.sealer).chain(b.ahead.iter().map(|(_, ae)| ae)))
    }

    /// Overwrites the key material with zeros.
    fn zeroize(&mut self) {
        match &mut self.0 {
            Slot::Key(key) => key.zeroize(),
            Slot::Built(built) => built.key.zeroize(),
        }
    }
}

impl std::fmt::Debug for KeySlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeySlot")
            .field("key", &self.key())
            .field("sealer_built", &matches!(self.0, Slot::Built(_)))
            .finish()
    }
}

/// A key the base station holds — a node's `Ki` or a cluster key — with
/// its subkeys `Kencr = F(K, 0)`, `Kmac = F(K, 1)` derived on first use
/// and then kept.
///
/// The base station holds one per provisioned node and one per potential
/// cluster, so unlike a sensor's [`KeySlot`] it keeps only the 32-byte
/// pair, not a built sealer: [`Self::sealer`] expands the two cipher
/// schedules from the pair on each call, and the caller reuses the result
/// for everything one frame needs. As on sensors, the derived pair lives
/// exactly as long as the key: replacing or hash-stepping the key, or
/// dropping the slot, drops the pair with it.
pub(crate) struct SubkeySlot {
    key: Key128,
    pair: Option<(Key128, Key128)>,
}

impl SubkeySlot {
    /// A slot holding `key`, its subkeys not derived yet.
    pub(crate) fn new(key: Key128) -> Self {
        SubkeySlot { key, pair: None }
    }

    /// The key.
    pub(crate) fn key(&self) -> Key128 {
        self.key
    }

    /// Rolls the key one refresh epoch forward, `K ← F(K)`, dropping the
    /// old key's subkeys.
    pub(crate) fn hash_step(&mut self) {
        *self = SubkeySlot::new(crate::refresh::hash_step(&self.key));
    }

    /// A sealer for the key, built from the kept subkeys (derived on
    /// first use).
    pub(crate) fn sealer(&mut self) -> AuthEnc {
        let (ke, km) = *self.pair.get_or_insert_with(|| derive_pair(&self.key));
        AuthEnc::new(ke, km)
    }

    /// Whether the subkeys have been derived.
    #[cfg(test)]
    pub(crate) fn derived(&self) -> bool {
        self.pair.is_some()
    }
}

/// A sensor's provisioned keys as its running state machine holds them:
/// [`NodeKeyMaterial`] with `Ki` and `Km` in [`KeySlot`]s, so erasing
/// `Km` erases its sealer too.
#[derive(Debug)]
pub(crate) struct SensorKeys {
    pub(crate) id: u32,
    pub(crate) ki: KeySlot,
    pub(crate) kci: Key128,
    pub(crate) km: Option<KeySlot>,
    pub(crate) kmc: Option<Key128>,
    pub(crate) chain: ChainVerifier,
}

impl From<NodeKeyMaterial> for SensorKeys {
    fn from(m: NodeKeyMaterial) -> Self {
        SensorKeys {
            id: m.id,
            ki: KeySlot::new(m.ki),
            kci: m.kci,
            km: m.km.map(KeySlot::new),
            kmc: m.kmc,
            chain: m.chain,
        }
    }
}

impl SensorKeys {
    /// Erases the master key and its sealer (end of the cluster key
    /// setup phase: "all nodes erase key Km from their memory").
    pub(crate) fn erase_km(&mut self) {
        if let Some(mut km) = self.km.take() {
            km.zeroize();
        }
    }

    /// Erases the master-cluster key (end of the node-addition phase:
    /// "the master key KMC is deleted from the memory of the nodes").
    pub(crate) fn erase_kmc(&mut self) {
        if let Some(mut kmc) = self.kmc.take() {
            kmc.zeroize();
        }
    }
}

/// Manufacturing-time key authority: generates all pre-deployment material
/// deterministically from a master seed and hands the base station its
/// registry.
pub struct Provisioner {
    km: Key128,
    kmc: Key128,
    chain_seed: Key128,
    chain_commitment: Key128,
    registry: HashMap<u32, Key128>,
    // Cached PRF schedules for the two keys every provisioning call
    // evaluates (`Ki = F(root, id)`, `Kci = F(KMC, id)`): provisioning n
    // nodes costs n PRF evaluations per root instead of n schedule
    // expansions on top.
    node_key_prf: PrfKey,
    kmc_prf: PrfKey,
}

/// Length of the revocation key chain generated at network setup.
pub const CHAIN_LEN: usize = 64;

impl Provisioner {
    /// Creates the authority from a master seed.
    pub fn new(seed: u64) -> Self {
        let mut drbg = HmacDrbg::from_u64(seed);
        let km = drbg.next_key();
        let kmc = drbg.next_key();
        let node_key_root = drbg.next_key();
        let chain_seed = drbg.next_key();
        let chain_commitment = KeyChain::generate(&chain_seed, CHAIN_LEN).commitment();
        Provisioner {
            km,
            chain_seed,
            chain_commitment,
            registry: HashMap::new(),
            node_key_prf: PrfKey::new(&node_key_root),
            kmc_prf: PrfKey::new(&kmc),
            kmc,
        }
    }

    /// Provisions key material for node `id` (and records `Ki` in the base
    /// station registry). Derivations are order-independent: `Ki` depends
    /// only on `(seed, id)`.
    pub fn provision(&mut self, id: u32) -> NodeKeyMaterial {
        let ki = self.node_key(id);
        self.registry.insert(id, ki);
        NodeKeyMaterial {
            id,
            ki,
            kci: self.kmc_prf.cluster_key(id),
            km: Some(self.km),
            kmc: None,
            chain: ChainVerifier::new(self.chain_commitment),
        }
    }

    /// Provisions a node deployed *after* initial setup (§IV-E): it carries
    /// `KMC` instead of `Km` (which no longer exists anywhere).
    pub fn provision_new_node(&mut self, id: u32) -> NodeKeyMaterial {
        let mut m = self.provision(id);
        m.km = None;
        m.kmc = Some(self.kmc);
        m
    }

    /// The node key of `id` (base-station side; does not register).
    pub fn node_key(&self, id: u32) -> Key128 {
        self.node_key_prf.derive(&id.to_be_bytes())
    }

    /// The cluster key any node `id` *would* use as head: `F(KMC, id)`.
    /// The base station can reconstruct every cluster key from this.
    pub fn cluster_key_of(&self, id: u32) -> Key128 {
        self.kmc_prf.cluster_key(id)
    }

    /// The master key `Km` (setup phase only).
    pub fn km(&self) -> Key128 {
        self.km
    }

    /// The master-cluster key `KMC`, loaded into *new* nodes so they can
    /// derive cluster keys during the addition phase (§IV-E).
    pub fn kmc(&self) -> Key128 {
        self.kmc
    }

    /// A fresh base-station-side revocation chain (the chain links are a
    /// function of the seed, so BS state can be reconstructed).
    pub fn revocation_chain(&self) -> KeyChain {
        KeyChain::generate(&self.chain_seed, CHAIN_LEN)
    }

    /// The chain commitment preloaded into nodes.
    pub fn chain_commitment(&self) -> Key128 {
        self.chain_commitment
    }

    /// The `id -> Ki` registry accumulated so far (for the base station).
    pub fn registry(&self) -> &HashMap<u32, Key128> {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provisioning_is_deterministic() {
        let mut a = Provisioner::new(5);
        let mut b = Provisioner::new(5);
        let ka = a.provision(7);
        let kb = b.provision(7);
        assert_eq!(ka.ki, kb.ki);
        assert_eq!(ka.kci, kb.kci);
        assert_eq!(ka.km, kb.km);
        assert_eq!(a.chain_commitment(), b.chain_commitment());
    }

    #[test]
    fn provisioning_is_order_independent() {
        let mut a = Provisioner::new(9);
        let mut b = Provisioner::new(9);
        let a1 = a.provision(1);
        let _a2 = a.provision(2);
        let _b2 = b.provision(2);
        let b1 = b.provision(1);
        assert_eq!(a1.ki, b1.ki);
        assert_eq!(a1.kci, b1.kci);
    }

    #[test]
    fn distinct_nodes_distinct_keys() {
        let mut p = Provisioner::new(1);
        let k1 = p.provision(1);
        let k2 = p.provision(2);
        assert_ne!(k1.ki, k2.ki);
        assert_ne!(k1.kci, k2.kci);
        // ... but the same master key.
        assert_eq!(k1.km, k2.km);
    }

    #[test]
    fn distinct_seeds_distinct_networks() {
        let mut a = Provisioner::new(1);
        let mut b = Provisioner::new(2);
        assert_ne!(a.provision(1).ki, b.provision(1).ki);
        assert_ne!(a.km(), b.km());
        assert_ne!(a.kmc(), b.kmc());
    }

    #[test]
    fn kci_matches_cluster_key_of() {
        let mut p = Provisioner::new(3);
        let m = p.provision(42);
        assert_eq!(m.kci, p.cluster_key_of(42));
    }

    #[test]
    fn erase_km() {
        let mut p = Provisioner::new(1);
        let mut m = SensorKeys::from(p.provision(4));
        m.km.as_mut().expect("provisioned with Km").sealer();
        m.erase_km();
        assert!(m.km.is_none());
        m.erase_km(); // idempotent
        assert!(m.km.is_none());
    }

    #[test]
    fn chain_verifies_against_provisioned_commitment() {
        let mut p = Provisioner::new(11);
        let m = p.provision(1);
        let mut chain = p.revocation_chain();
        let mut verifier = m.chain;
        let link = chain.reveal_next().unwrap();
        assert!(verifier.accept(&link, 1).is_ok());
    }

    #[test]
    fn new_node_material_carries_kmc_not_km() {
        let mut p = Provisioner::new(8);
        let m = p.provision_new_node(99);
        assert!(m.km.is_none(), "post-deployment nodes never see Km");
        assert_eq!(m.kmc, Some(p.kmc()));
        // Ki/Kci identical to what an initially deployed node 99 would get.
        let mut p2 = Provisioner::new(8);
        let m2 = p2.provision(99);
        assert_eq!(m.ki, m2.ki);
        assert_eq!(m.kci, m2.kci);
        // And KMC is erasable.
        let mut m = SensorKeys::from(m);
        m.erase_kmc();
        assert!(m.kmc.is_none());
        m.erase_kmc(); // idempotent
    }

    #[test]
    fn registry_tracks_provisioned_nodes() {
        let mut p = Provisioner::new(2);
        p.provision(10);
        p.provision(20);
        assert_eq!(p.registry().len(), 2);
        assert_eq!(p.registry()[&10], p.node_key(10));
    }
}
