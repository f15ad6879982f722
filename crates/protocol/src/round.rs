//! A single communication round: the set of arcs active at one time step.

use crate::mode::Mode;
use sg_graphs::digraph::{Arc, Digraph};
use sg_graphs::matching::{is_full_duplex_round, is_matching};

/// One communication round — the set `A_i` of Definition 3.1, stored
/// sorted and deduplicated.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Round {
    arcs: Vec<Arc>,
}

/// Why a round (or protocol) fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// An activated arc is not an arc of the network.
    ArcNotInGraph { round: usize, arc: Arc },
    /// The round violates the endpoint-disjointness (matching) condition.
    NotAMatching { round: usize },
    /// Full-duplex rounds must consist of endpoint-disjoint opposite pairs.
    NotFullDuplexPairs { round: usize },
    /// Half- and full-duplex protocols need a symmetric digraph.
    GraphNotSymmetric,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::ArcNotInGraph { round, arc } => {
                write!(f, "round {round}: arc {arc} is not in the network")
            }
            ProtocolError::NotAMatching { round } => {
                write!(f, "round {round}: active arcs are not endpoint-disjoint")
            }
            ProtocolError::NotFullDuplexPairs { round } => {
                write!(
                    f,
                    "round {round}: full-duplex rounds need endpoint-disjoint opposite pairs"
                )
            }
            ProtocolError::GraphNotSymmetric => {
                write!(f, "half/full-duplex protocols need an undirected network")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl Round {
    /// Builds a round from arcs (sorted, deduplicated; no validation — see
    /// [`Round::validate`]).
    pub fn new(mut arcs: Vec<Arc>) -> Self {
        arcs.sort_unstable();
        arcs.dedup();
        Self { arcs }
    }

    /// An empty (idle) round.
    pub fn empty() -> Self {
        Self { arcs: Vec::new() }
    }

    /// Builds a full-duplex round from undirected edges: each edge
    /// contributes both arcs.
    pub fn full_duplex_from_edges(edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut arcs = Vec::new();
        for (u, v) in edges {
            arcs.push(Arc::new(u, v));
            arcs.push(Arc::new(v, u));
        }
        Self::new(arcs)
    }

    /// The active arcs, sorted.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Number of active arcs.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// `true` when no arc is active.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Validates this round against a network and mode; `round_index` is
    /// only used for error reporting.
    pub fn validate(
        &self,
        g: &Digraph,
        mode: Mode,
        round_index: usize,
    ) -> Result<(), ProtocolError> {
        for a in &self.arcs {
            let in_range =
                (a.from as usize) < g.vertex_count() && (a.to as usize) < g.vertex_count();
            if !in_range || !g.has_arc(a.from as usize, a.to as usize) {
                return Err(ProtocolError::ArcNotInGraph {
                    round: round_index,
                    arc: *a,
                });
            }
        }
        match mode {
            Mode::Directed | Mode::HalfDuplex => {
                if !is_matching(g.vertex_count(), &self.arcs) {
                    return Err(ProtocolError::NotAMatching { round: round_index });
                }
            }
            Mode::FullDuplex => {
                if !is_full_duplex_round(g.vertex_count(), &self.arcs) {
                    return Err(ProtocolError::NotFullDuplexPairs { round: round_index });
                }
            }
        }
        Ok(())
    }

    /// The highest vertex index any arc of this round touches, or `None`
    /// for an empty round. Engines use it to size per-round scratch
    /// without knowing the network size.
    pub fn max_vertex(&self) -> Option<usize> {
        self.arcs
            .iter()
            .map(|a| (a.from as usize).max(a.to as usize))
            .max()
    }

    /// The sorted, distinct sources of this round that are *also* targets
    /// of the round. Exactly these rows need a beginning-of-round snapshot
    /// under the semantics of Definition 3.1 (every other source row is
    /// immutable for the whole round), so this is the schedule compiler's
    /// key per-round datum. Empty for every half-duplex matching round.
    pub fn snapshot_sources(&self) -> Vec<usize> {
        let Some(max_v) = self.max_vertex() else {
            return Vec::new();
        };
        let mut is_target = vec![false; max_v + 1];
        for a in &self.arcs {
            is_target[a.to as usize] = true;
        }
        // Arcs are sorted by (from, to): the `from` stream is
        // non-decreasing, so consecutive dedup yields a sorted set.
        let mut out = Vec::new();
        for a in &self.arcs {
            let u = a.from as usize;
            if is_target[u] && out.last() != Some(&u) {
                out.push(u);
            }
        }
        out
    }

    /// The arc entering `v` in this round, if any. Under the matching
    /// condition there is at most one (full-duplex included).
    pub fn arc_into(&self, v: usize) -> Option<Arc> {
        self.arcs.iter().copied().find(|a| a.to as usize == v)
    }

    /// The arc leaving `v` in this round, if any.
    pub fn arc_out_of(&self, v: usize) -> Option<Arc> {
        // Arcs are sorted by (from, to): binary search the block.
        let i = self.arcs.partition_point(|a| (a.from as usize) < v);
        self.arcs.get(i).copied().filter(|a| a.from as usize == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graphs::generators;

    #[test]
    fn round_sorts_and_dedups() {
        let r = Round::new(vec![Arc::new(2, 3), Arc::new(0, 1), Arc::new(2, 3)]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.arcs()[0], Arc::new(0, 1));
    }

    #[test]
    fn validate_matching_modes() {
        let g = generators::path(4);
        let ok = Round::new(vec![Arc::new(0, 1), Arc::new(2, 3)]);
        assert!(ok.validate(&g, Mode::HalfDuplex, 0).is_ok());
        let clash = Round::new(vec![Arc::new(0, 1), Arc::new(1, 2)]);
        assert_eq!(
            clash.validate(&g, Mode::HalfDuplex, 3),
            Err(ProtocolError::NotAMatching { round: 3 })
        );
    }

    #[test]
    fn validate_arc_membership() {
        let g = generators::path(4);
        let bad = Round::new(vec![Arc::new(0, 2)]);
        assert!(matches!(
            bad.validate(&g, Mode::Directed, 1),
            Err(ProtocolError::ArcNotInGraph { round: 1, .. })
        ));
    }

    #[test]
    fn validate_full_duplex() {
        let g = generators::path(4);
        let fd = Round::full_duplex_from_edges([(0, 1), (2, 3)]);
        assert!(fd.validate(&g, Mode::FullDuplex, 0).is_ok());
        // One-way arc is invalid in full-duplex.
        let hd = Round::new(vec![Arc::new(0, 1)]);
        assert_eq!(
            hd.validate(&g, Mode::FullDuplex, 0),
            Err(ProtocolError::NotFullDuplexPairs { round: 0 })
        );
        // But the full-duplex pair is invalid as a half-duplex matching.
        assert_eq!(
            fd.validate(&g, Mode::HalfDuplex, 0),
            Err(ProtocolError::NotAMatching { round: 0 })
        );
    }

    #[test]
    fn arc_lookup() {
        let r = Round::new(vec![Arc::new(0, 1), Arc::new(3, 2)]);
        assert_eq!(r.arc_into(1), Some(Arc::new(0, 1)));
        assert_eq!(r.arc_into(0), None);
        assert_eq!(r.arc_out_of(3), Some(Arc::new(3, 2)));
        assert_eq!(r.arc_out_of(2), None);
    }

    #[test]
    fn snapshot_sources_are_sources_that_are_also_targets() {
        // 0→1, 1→2: 1 is both a source and a target; 0 is not a target.
        let r = Round::new(vec![Arc::new(0, 1), Arc::new(1, 2)]);
        assert_eq!(r.snapshot_sources(), vec![1]);
        // Full-duplex pair: both endpoints send and receive.
        let fd = Round::full_duplex_from_edges([(0, 1)]);
        assert_eq!(fd.snapshot_sources(), vec![0, 1]);
        // A matching round needs no snapshots at all.
        let m = Round::new(vec![Arc::new(0, 1), Arc::new(2, 3)]);
        assert!(m.snapshot_sources().is_empty());
        assert!(Round::empty().snapshot_sources().is_empty());
    }

    #[test]
    fn max_vertex_bounds_the_round() {
        assert_eq!(Round::empty().max_vertex(), None);
        let r = Round::new(vec![Arc::new(0, 7), Arc::new(3, 1)]);
        assert_eq!(r.max_vertex(), Some(7));
    }

    #[test]
    fn empty_round_is_valid() {
        let g = generators::path(3);
        let r = Round::empty();
        assert!(r.is_empty());
        assert!(r.validate(&g, Mode::HalfDuplex, 0).is_ok());
        assert!(r.validate(&g, Mode::FullDuplex, 0).is_ok());
    }
}
