//! The versioned model registry: the serving tier's source of truth for
//! *which weights* a model index currently dispatches with.
//!
//! Inspired by the serving-system lineage in PAPERS.md (Clipper's model
//! registry, TensorFlow-Serving's versioned servables): each slot holds an
//! [`Arc<ModelHandle>`] — name, monotonically increasing version, and the
//! network — and swaps replace the `Arc` atomically. Batches resolve the
//! handle **once**, at formation, so an in-flight batch keeps serving the
//! version it formed under (the `Arc` keeps the old weights alive) while
//! every later batch dispatches on the new epoch. Combined with the
//! scheduler's per-model forming reservation
//! ([`crate::ServerHandle::swap_model`] drains it before swapping), version
//! order along any `(tenant, model)` stream is strictly monotone.
//!
//! Versions come from a counter per slot. The registries of one
//! [`crate::ReplicaSet`] share their slot's counter, so a version number
//! names one network on every replica — which is what lets the pool's
//! replicas share one response cache keyed by version.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use capsnet::CapsNet;
use pim_store::{MappedModel, StoreError};

use crate::error::ServeError;
use crate::server::ServedModel;

/// One immutable registered (model, version) pair. Handles are shared via
/// `Arc`: a swap never invalidates a handle someone still holds.
#[derive(Debug)]
pub struct ModelHandle {
    name: String,
    version: u64,
    net: CapsNet,
}

impl ModelHandle {
    /// The model's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The version this handle serves: 1 for the initial registration,
    /// then the next number of the slot's counter at each swap (shared by
    /// every replica of a pool).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The network.
    pub fn net(&self) -> &CapsNet {
        &self.net
    }

    /// `true` when requests for this model may share a dispatched batch
    /// (per-sample routing; batch-shared models never coalesce).
    pub(crate) fn coalescable(&self) -> bool {
        !self.net.spec().batch_shared_routing
    }
}

/// The registry: an append-only list of model slots, each holding the
/// current [`ModelHandle`]. Indices are stable across swaps — a
/// [`crate::Request::model`] keeps meaning "slot N" while the weights
/// behind slot N evolve.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    slots: Vec<Mutex<Arc<ModelHandle>>>,
    /// Each slot's version counter: the last number it handed out.
    versions: Vec<Arc<AtomicU64>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a registry from pre-constructed models (version 1 each).
    pub fn from_models(models: impl IntoIterator<Item = ServedModel>) -> Self {
        let mut registry = Self::new();
        for m in models {
            registry.register(m);
        }
        registry
    }

    /// Registers a model at the next free index, version 1.
    pub fn register(&mut self, model: ServedModel) -> usize {
        self.register_on(model, &Arc::new(AtomicU64::new(1)))
    }

    /// [`Self::register`] with versions drawn from `versions`: a replica
    /// pool registers the same network on every replica's registry over
    /// one counter, so each later swap anywhere in the pool takes a number
    /// no other network carries.
    pub(crate) fn register_on(&mut self, model: ServedModel, versions: &Arc<AtomicU64>) -> usize {
        let (name, net) = model.into_parts();
        self.slots.push(Mutex::new(Arc::new(ModelHandle {
            name,
            version: 1,
            net,
        })));
        self.versions.push(Arc::clone(versions));
        self.slots.len() - 1
    }

    /// Registered model count.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The current handle of slot `model` (an `Arc` clone; stays valid
    /// across later swaps).
    pub fn current(&self, model: usize) -> Option<Arc<ModelHandle>> {
        // Poison-tolerant: the registry outlives replica serving threads
        // (it survives a replica restart), and the slot holds a plain
        // `Arc` that is valid at every point, so a panicking holder must
        // not wedge the slot for the replica's next life.
        self.slots
            .get(model)
            .map(|slot| Arc::clone(&slot.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Replaces slot `model`'s network under its counter's next version.
    /// This is the raw registry operation — safe at any time (in-flight
    /// holders keep their `Arc`), but it does **not** coordinate with a
    /// running scheduler; inside a serve window use
    /// [`crate::ServerHandle::swap_model`], which drains the slot's
    /// forming reservation first so version order stays monotone per
    /// dispatch order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Load`] when `model` is out of range.
    pub fn swap_model(&self, model: usize, net: CapsNet) -> Result<u64, ServeError> {
        self.install(model, net, None)
    }

    /// [`Self::swap_model`] under version `at` when it is above the slot's
    /// current one (a rolling rollout installs one network under one number
    /// on every replica), else under the counter's next number — so the
    /// slot's versions only ever increase.
    pub(crate) fn install(
        &self,
        model: usize,
        net: CapsNet,
        at: Option<u64>,
    ) -> Result<u64, ServeError> {
        let slot = self.slots.get(model).ok_or_else(|| {
            ServeError::Load(format!(
                "swap_model: no slot {model} (registered: {})",
                self.slots.len()
            ))
        })?;
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let version = at
            .filter(|&v| v > guard.version)
            .unwrap_or_else(|| self.versions[model].fetch_add(1, Ordering::Relaxed) + 1);
        *guard = Arc::new(ModelHandle {
            name: guard.name.clone(),
            version,
            net,
        });
        Ok(version)
    }

    /// [`Self::swap_model`] from an artifact path (load + verify, then
    /// swap).
    ///
    /// # Errors
    ///
    /// [`ServeError::Load`] on load failure or bad index.
    pub fn swap_from_path(&self, model: usize, path: &Path) -> Result<u64, ServeError> {
        self.swap_model(model, load_path(path)?)
    }
}

/// Runs one store step on the artifact at `path` — opening it, building
/// its network, or both — wrapping a failure as [`ServeError::Load`] with
/// the path: the one place an artifact becomes a network or a load error
/// (registry, server and pool paths all route through it).
pub(crate) fn load<T>(
    path: &Path,
    step: impl FnOnce() -> Result<T, StoreError>,
) -> Result<T, ServeError> {
    step().map_err(|e| ServeError::Load(format!("{}: {e}", path.display())))
}

/// Maps the artifact at `path` and builds its network: the path-to-network
/// step of both `swap_from_path`s.
pub(crate) fn load_path(path: &Path) -> Result<CapsNet, ServeError> {
    load(path, || MappedModel::open(path)?.capsnet())
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsnet::{CapsNetSpec, ExactMath};
    use pim_store::ModelWriter;
    use pim_tensor::Tensor;

    fn net(seed: u64) -> CapsNet {
        CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), seed).unwrap()
    }

    #[test]
    fn register_and_swap_bump_versions() {
        let mut registry = ModelRegistry::new();
        let idx = registry.register(ServedModel::new("m", net(1)));
        assert_eq!(idx, 0);
        assert_eq!(registry.len(), 1);
        let v1 = registry.current(0).unwrap();
        assert_eq!((v1.name(), v1.version()), ("m", 1));

        let v2 = registry.swap_model(0, net(2)).unwrap();
        assert_eq!(v2, 2);
        let cur = registry.current(0).unwrap();
        assert_eq!(cur.version(), 2);
        // The old handle's Arc still serves the old weights.
        let images = Tensor::uniform(&[1, 1, 12, 12], 0.0, 1.0, 3);
        let old = net(1).forward(&images, &ExactMath).unwrap();
        let held = v1.net().forward(&images, &ExactMath).unwrap();
        assert_eq!(old.class_norms_sq, held.class_norms_sq);

        assert!(registry.swap_model(7, net(3)).is_err());
        assert!(registry.current(7).is_none());
    }

    #[test]
    fn swap_from_path_roundtrips_through_the_store() {
        let dir = std::env::temp_dir().join(format!("pim_serve_reg_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.pimcaps");
        let original = net(9);
        ModelWriter::vault_aligned().save(&original, &path).unwrap();

        let registry = ModelRegistry::from_models([ServedModel::new("from-disk", net(1))]);
        assert_eq!(registry.swap_from_path(0, &path).unwrap(), 2);
        let handle = registry.current(0).unwrap();
        assert_eq!(handle.name(), "from-disk");
        let images = Tensor::uniform(&[2, 1, 12, 12], 0.0, 1.0, 5);
        let a = original.forward(&images, &ExactMath).unwrap();
        let b = handle.net().forward(&images, &ExactMath).unwrap();
        for (x, y) in a
            .class_norms_sq
            .as_slice()
            .iter()
            .zip(b.class_norms_sq.as_slice())
        {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // Swap from a new artifact; a missing one is a typed error.
        let replacement = net(10);
        ModelWriter::new().save(&replacement, &path).unwrap();
        assert_eq!(registry.swap_from_path(0, &path).unwrap(), 3);
        assert!(registry.swap_from_path(0, &dir.join("missing")).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
