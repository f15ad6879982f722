//! The unit the search manipulates: one systolic period as a mutable
//! round list, bound to a communication mode.

use sg_graphs::digraph::Digraph;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_protocol::round::{ProtocolError, Round};

/// A candidate systolic schedule: one period of rounds under a mode.
///
/// Unlike [`SystolicProtocol`] this is freely editable — the mutation
/// kernel rewrites rounds in place — and carries no validity guarantee
/// of its own; the kernel maintains validity *by construction* and
/// [`Candidate::validate`] re-runs the same audit the protocol layer
/// applies to the hand-built schedules (arc membership plus the mode's
/// matching condition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The period's rounds, in execution order. Never empty.
    pub rounds: Vec<Round>,
    /// The communication mode the candidate must respect.
    pub mode: Mode,
}

impl Candidate {
    /// Builds a candidate from a round list (at least one round).
    pub fn new(rounds: Vec<Round>, mode: Mode) -> Self {
        assert!(!rounds.is_empty(), "a candidate needs s >= 1 rounds");
        Self { rounds, mode }
    }

    /// The period length `s`.
    pub fn s(&self) -> usize {
        self.rounds.len()
    }

    /// The candidate as an executable [`SystolicProtocol`].
    pub fn to_protocol(&self) -> SystolicProtocol {
        SystolicProtocol::new(self.rounds.clone(), self.mode)
    }

    /// Full validity audit against the network — the same check the
    /// builder property tests run on every hand-built protocol.
    pub fn validate(&self, g: &Digraph) -> Result<(), ProtocolError> {
        self.to_protocol().validate(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graphs::generators;
    use sg_protocol::builders;

    #[test]
    fn round_trips_through_protocol() {
        let sp = builders::path_rrll(6);
        let c = Candidate::new(sp.period().to_vec(), sp.mode());
        assert_eq!(c.s(), 4);
        assert_eq!(c.to_protocol(), sp);
        c.validate(&generators::path(6)).expect("valid");
    }

    #[test]
    #[should_panic(expected = "s >= 1")]
    fn empty_candidate_panics() {
        let _ = Candidate::new(Vec::new(), Mode::HalfDuplex);
    }
}
