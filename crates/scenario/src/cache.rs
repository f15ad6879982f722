//! Cross-unit memoization for the batch executor.
//!
//! A period sweep evaluates one network at many periods, and several
//! scenarios in a batch often touch the same networks; building a CSR
//! digraph, measuring its diameter, and folding a protocol into its
//! periodic delay digraph are the expensive, reusable parts. The cache
//! shares them across all worker threads through single-flight
//! [`Memo`]s: every entry is built exactly once, racing threads wait for
//! that one build, and entries are read many times.

use crate::descriptor::{protocol_for, ProtocolKind};
use sg_delay::digraph::DelayDigraph;
use sg_graphs::digraph::Digraph;
use sg_graphs::group::{automorphism_group, PermGroup};
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use std::sync::{Arc, Mutex};
use systolic_gossip::{BoundOracle, Memo, Network, OracleStats};

/// Hit/build counters, for the `--stats` CLI surface and the tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Digraph cache hits.
    pub graph_hits: usize,
    /// Digraphs actually built.
    pub graph_builds: usize,
    /// Diameter cache hits.
    pub diameter_hits: usize,
    /// Diameters actually measured.
    pub diameter_builds: usize,
    /// Delay-digraph cache hits.
    pub delay_hits: usize,
    /// Delay digraphs actually folded.
    pub delay_builds: usize,
    /// Automorphism-group (stabilizer chain) cache hits.
    pub group_hits: usize,
    /// Stabilizer chains actually computed (Schreier–Sims runs).
    pub group_builds: usize,
    /// Largest automorphism-group order computed in the batch.
    pub group_order_max: u128,
    /// Deepest stabilizer chain computed in the batch.
    pub group_chain_depth_max: usize,
    /// Deterministic-protocol cache hits.
    pub protocol_hits: usize,
    /// Deterministic protocols actually constructed.
    pub protocol_builds: usize,
    /// Bound-oracle counters: every `(network, mode, period)` is
    /// computed at most once per batch, by construction.
    pub oracle: OracleStats,
}

/// A deterministic protocol and the kind that built it; `None` records
/// that the family has no deterministic protocol in that mode (directed
/// shift networks), so the absence is also computed once.
type ProtocolEntry = Option<(ProtocolKind, Arc<SystolicProtocol>)>;

/// Shared memo of built digraphs, measured diameters, deterministic
/// protocols and periodic delay digraphs, keyed by the network
/// descriptor (plus protocol kind for the delay structures, plus mode
/// for the protocols).
#[derive(Debug, Default)]
pub struct BuildCache {
    oracle: BoundOracle,
    graphs: Memo<Network, Arc<Digraph>>,
    diameters: Memo<Network, Option<u32>>,
    delays: Memo<(Network, ProtocolKind), Arc<DelayDigraph>>,
    groups: Memo<Network, Arc<PermGroup>>,
    protocols: Memo<(Network, Mode), ProtocolEntry>,
    /// Batch-wide maxima of (group order, chain depth) — the group
    /// statistics the `--stats` surface reports.
    group_maxima: Mutex<(u128, usize)>,
}

impl BuildCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built digraph of `net`, shared across threads.
    pub fn digraph(&self, net: &Network) -> Arc<Digraph> {
        self.graphs.get_or_compute(*net, || Arc::new(net.build()))
    }

    /// The measured diameter of `net` (`None` when not strongly
    /// connected), shared across threads.
    pub fn diameter(&self, net: &Network) -> Option<u32> {
        self.diameters
            .get_or_compute(*net, || sg_graphs::traversal::diameter(&self.digraph(net)))
    }

    /// The periodic delay digraph of `net`'s protocol of `kind`, built by
    /// `build` on first use and shared afterwards — this is what lets
    /// repeated λ-searches across sweep points reuse one structure.
    pub fn delay_digraph(
        &self,
        net: &Network,
        kind: ProtocolKind,
        build: impl FnOnce() -> DelayDigraph,
    ) -> Arc<DelayDigraph> {
        self.delays
            .get_or_compute((*net, kind), || Arc::new(build()))
    }

    /// The automorphism group of `net` as a stabilizer chain
    /// (Schreier–Sims), computed once per batch and shared — the
    /// symmetry substrate every enumeration unit of a sweep reuses.
    pub fn perm_group(&self, net: &Network) -> Arc<PermGroup> {
        self.groups.get_or_compute(*net, || {
            let built = Arc::new(automorphism_group(&self.digraph(net)));
            let mut maxima = self
                .group_maxima
                .lock()
                .expect("no panic under the maxima lock");
            maxima.0 = maxima.0.max(built.order());
            maxima.1 = maxima.1.max(built.chain_depth());
            built
        })
    }

    /// The deterministic protocol [`protocol_for`] picks for `net` under
    /// `mode`, constructed once and shared across every unit and
    /// connection — `None` (no deterministic protocol exists) is
    /// memoized too. Sharing the schedule is what lets a query daemon
    /// certify the same reference protocol from many connections without
    /// rebuilding it per request.
    pub fn protocol(&self, net: &Network, mode: Mode) -> ProtocolEntry {
        self.protocols.get_or_compute((*net, mode), || {
            protocol_for(net, &self.digraph(net), mode).map(|(kind, sp)| (kind, Arc::new(sp)))
        })
    }

    /// The batch-wide memoizing bound oracle: every consumer of lower
    /// bounds (bound reports, family tables, certificates, enumeration
    /// floors) resolves through this one instance.
    pub fn oracle(&self) -> &BoundOracle {
        &self.oracle
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let maxima = *self.group_maxima.lock().unwrap();
        CacheStats {
            graph_hits: self.graphs.hits(),
            graph_builds: self.graphs.computes(),
            diameter_hits: self.diameters.hits(),
            diameter_builds: self.diameters.computes(),
            delay_hits: self.delays.hits(),
            delay_builds: self.delays.computes(),
            group_hits: self.groups.hits(),
            group_builds: self.groups.computes(),
            group_order_max: maxima.0,
            group_chain_depth_max: maxima.1,
            protocol_hits: self.protocols.hits(),
            protocol_builds: self.protocols.computes(),
            oracle: self.oracle.stats(),
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graphs {} built / {} hits; diameters {} built / {} hits; delay digraphs {} built / {} hits; ",
            self.graph_builds,
            self.graph_hits,
            self.diameter_builds,
            self.diameter_hits,
            self.delay_builds,
            self.delay_hits,
        )?;
        if self.group_builds > 0 {
            write!(
                f,
                "automorphism chains {} built / {} hits (max order {}, max depth {}); ",
                self.group_builds,
                self.group_hits,
                self.group_order_max,
                self.group_chain_depth_max
            )?;
        }
        if self.protocol_builds > 0 {
            write!(
                f,
                "protocols {} built / {} hits; ",
                self.protocol_builds, self.protocol_hits
            )?;
        }
        write!(f, "{}", self.oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::protocol_for;
    use sg_protocol::mode::Mode;

    #[test]
    fn digraph_and_diameter_are_shared() {
        let cache = BuildCache::new();
        let net = Network::DeBruijn { d: 2, dd: 4 };
        let a = cache.digraph(&net);
        let b = cache.digraph(&net);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.diameter(&net), cache.diameter(&net));
        let s = cache.stats();
        assert_eq!(s.graph_builds, 1);
        assert!(s.graph_hits >= 1);
        assert_eq!(s.diameter_builds, 1);
        assert_eq!(s.diameter_hits, 1);
    }

    #[test]
    fn delay_digraphs_memoize_per_protocol_kind() {
        let cache = BuildCache::new();
        let net = Network::Path { n: 10 };
        let g = cache.digraph(&net);
        let (kind, sp) = protocol_for(&net, &g, Mode::HalfDuplex).unwrap();
        let a = cache.delay_digraph(&net, kind, || DelayDigraph::periodic(&sp));
        let b = cache.delay_digraph(&net, kind, || panic!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!(s.delay_builds, 1);
        assert_eq!(s.delay_hits, 1);
    }

    #[test]
    fn perm_groups_are_shared_and_surface_maxima() {
        let cache = BuildCache::new();
        let net = Network::Hypercube { k: 3 };
        let a = cache.perm_group(&net);
        let b = cache.perm_group(&net);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.order(), 48);
        let s = cache.stats();
        assert_eq!(s.group_builds, 1);
        assert_eq!(s.group_hits, 1);
        assert_eq!(s.group_order_max, 48);
        assert!(s.group_chain_depth_max >= 2);
        assert!(format!("{s}").contains("automorphism chains 1 built"));
    }

    #[test]
    fn protocols_memoize_including_absent_ones() {
        let cache = BuildCache::new();
        let net = Network::Hypercube { k: 3 };
        let (kind_a, a) = cache.protocol(&net, Mode::FullDuplex).unwrap();
        let (kind_b, b) = cache.protocol(&net, Mode::FullDuplex).unwrap();
        assert_eq!(kind_a, kind_b);
        assert!(Arc::ptr_eq(&a, &b), "one shared schedule");
        // A directed shift network has no deterministic protocol; the
        // absence is cached rather than re-derived.
        let none = Network::DeBruijnDirected { d: 2, dd: 3 };
        assert!(cache.protocol(&none, Mode::Directed).is_none());
        assert!(cache.protocol(&none, Mode::Directed).is_none());
        let s = cache.stats();
        assert_eq!(s.protocol_builds, 2);
        assert_eq!(s.protocol_hits, 2);
        assert!(format!("{s}").contains("protocols 2 built"));
    }

    #[test]
    fn distinct_networks_do_not_collide() {
        let cache = BuildCache::new();
        let a = cache.digraph(&Network::Path { n: 10 });
        let b = cache.digraph(&Network::Cycle { n: 10 });
        assert_ne!(a.arc_count(), b.arc_count());
        assert_eq!(cache.stats().graph_builds, 2);
    }

    #[test]
    fn threads_share_one_build() {
        let cache = BuildCache::new();
        let net = Network::Hypercube { k: 6 };
        let race = |lookup: &(dyn Fn() + Sync)| {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(lookup);
                }
            })
        };
        // Single-flight: one build, and the other three threads wait for
        // it and count as hits.
        race(&|| {
            let _ = cache.digraph(&net);
        });
        let stats = cache.stats();
        assert_eq!((stats.graph_builds, stats.graph_hits), (1, 3), "{stats:?}");
        race(&|| {
            let _ = cache.diameter(&net);
        });
        let stats = cache.stats();
        assert_eq!(
            (stats.diameter_builds, stats.diameter_hits),
            (1, 3),
            "{stats:?}"
        );
        // The one diameter build read the shared digraph.
        assert_eq!((stats.graph_builds, stats.graph_hits), (1, 4), "{stats:?}");
    }
}
