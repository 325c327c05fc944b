//! Cluster topology and the control plane.
//!
//! The paper's infrastructure is a star: one master, one messaging
//! node, five workers, all geographically distributed AWS instances
//! whose "locations were randomly determined during configuration
//! startup" (§6.2). We model the consequence of that layout that the
//! scheduler can observe: per-pair control-message latency and
//! per-worker data-plane bandwidth to the external repository host.

use crossbid_simcore::{RngStream, SimDuration};

use crate::bandwidth::Bandwidth;
use crate::link::Link;
use crate::noise::NoiseModel;

/// Identifier of a node in the topology. `0` is the master; workers
/// are `1..=n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The master node.
    pub const MASTER: NodeId = NodeId(0);

    /// Worker with the given zero-based index.
    pub fn worker(idx: u32) -> NodeId {
        NodeId(idx + 1)
    }

    /// Zero-based worker index, or `None` for the master.
    pub fn worker_index(self) -> Option<u32> {
        self.0.checked_sub(1)
    }
}

/// Latency model for scheduler control messages. All bid requests,
/// bids, offers, accept/reject replies and assignments pay one
/// control-plane delay each way; the jitter term models the messaging
/// broker and geographic spread.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    base: SimDuration,
    jitter: SimDuration,
}

impl ControlPlane {
    /// Fixed base one-way latency plus uniform jitter in `[0, jitter]`.
    pub fn new(base: SimDuration, jitter: SimDuration) -> Self {
        ControlPlane { base, jitter }
    }

    /// A zero-latency control plane (unit tests).
    pub fn instant() -> Self {
        ControlPlane::new(SimDuration::ZERO, SimDuration::ZERO)
    }

    /// The default calibration: 40 ms base, up to 80 ms jitter —
    /// geographically spread instances behind a broker.
    pub fn evaluation_default() -> Self {
        ControlPlane::new(SimDuration::from_millis(40), SimDuration::from_millis(80))
    }

    /// Sample a one-way message delay.
    pub fn delay(&self, rng: &mut RngStream) -> SimDuration {
        match self.fixed() {
            Some(d) => d,
            None => self.base + SimDuration::from_ticks(rng.below(self.jitter.ticks().max(1))),
        }
    }

    /// The one delay every message takes when there is no jitter:
    /// [`delay`](Self::delay) then draws nothing and returns it.
    pub fn fixed(&self) -> Option<SimDuration> {
        self.jitter.is_zero().then_some(self.base)
    }

    /// Base one-way latency (no jitter component).
    pub fn base(&self) -> SimDuration {
        self.base
    }
}

/// The full cluster layout: per-worker data links plus a shared
/// control plane.
#[derive(Debug, Clone)]
pub struct StarTopology {
    links: Vec<Link>,
    control: ControlPlane,
}

impl StarTopology {
    /// Build from explicit per-worker links.
    pub fn new(links: Vec<Link>, control: ControlPlane) -> Self {
        StarTopology { links, control }
    }

    /// Homogeneous topology: `n` workers with identical nominal
    /// bandwidth, data-plane latency and noise.
    pub fn homogeneous(
        n: usize,
        bw: Bandwidth,
        data_latency: SimDuration,
        noise: NoiseModel,
        control: ControlPlane,
    ) -> Self {
        StarTopology {
            links: (0..n)
                .map(|_| Link::new(bw, data_latency, noise.clone()))
                .collect(),
            control,
        }
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.links.len()
    }

    /// The data link of worker `idx`.
    pub fn link(&self, idx: usize) -> &Link {
        &self.links[idx]
    }

    /// Mutable access to the data link of worker `idx`.
    pub fn link_mut(&mut self, idx: usize) -> &mut Link {
        &mut self.links[idx]
    }

    /// The shared control plane.
    pub fn control(&self) -> &ControlPlane {
        &self.control
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_ids() {
        assert_eq!(NodeId::MASTER.worker_index(), None);
        assert_eq!(NodeId::worker(0), NodeId(1));
        assert_eq!(NodeId::worker(4).worker_index(), Some(4));
        assert!(NodeId::MASTER < NodeId::worker(0));
    }

    #[test]
    fn control_plane_delay_bounds() {
        let cp = ControlPlane::new(SimDuration::from_millis(40), SimDuration::from_millis(80));
        let mut r = RngStream::from_seed(2);
        for _ in 0..1000 {
            let d = cp.delay(&mut r);
            assert!(d >= SimDuration::from_millis(40));
            assert!(d < SimDuration::from_millis(121));
        }
    }

    #[test]
    fn instant_control_plane() {
        let cp = ControlPlane::instant();
        let mut r = RngStream::from_seed(2);
        assert_eq!(cp.delay(&mut r), SimDuration::ZERO);
        assert_eq!(cp.fixed(), Some(SimDuration::ZERO));
    }

    #[test]
    fn only_a_jitter_free_plane_is_fixed() {
        let d = SimDuration::from_millis(40);
        let fixed = ControlPlane::new(d, SimDuration::ZERO);
        let mut r = RngStream::from_seed(2);
        let mut untouched = RngStream::from_seed(2);
        assert_eq!(fixed.fixed(), Some(d));
        assert_eq!(fixed.delay(&mut r), d);
        assert_eq!(
            r.below(1 << 40),
            untouched.below(1 << 40),
            "a fixed delay draws nothing"
        );
        assert_eq!(ControlPlane::evaluation_default().fixed(), None);
    }

    #[test]
    fn homogeneous_topology() {
        let topo = StarTopology::homogeneous(
            5,
            Bandwidth::mb_per_sec(20.0),
            SimDuration::from_millis(100),
            NoiseModel::None,
            ControlPlane::instant(),
        );
        assert_eq!(topo.worker_count(), 5);
        for i in 0..5 {
            assert_eq!(topo.link(i).nominal(), Bandwidth::mb_per_sec(20.0));
        }
    }

    #[test]
    fn links_are_independent() {
        let mut topo = StarTopology::homogeneous(
            2,
            Bandwidth::mb_per_sec(20.0),
            SimDuration::ZERO,
            NoiseModel::None,
            ControlPlane::instant(),
        );
        topo.link_mut(0).set_nominal(Bandwidth::mb_per_sec(100.0));
        assert_eq!(topo.link(0).nominal(), Bandwidth::mb_per_sec(100.0));
        assert_eq!(topo.link(1).nominal(), Bandwidth::mb_per_sec(20.0));
    }
}
