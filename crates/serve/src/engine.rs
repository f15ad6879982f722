//! The query engine: one shared [`BuildCache`] (digraphs, diameters,
//! protocols, automorphism groups, and the memoizing `BoundOracle`)
//! behind a **single-flight** result memo.
//!
//! The cache layers below already guarantee at-most-once *bound*
//! computation per key, but a query does more than bound lookup —
//! searches anneal, enumerations branch-and-bound, certificates
//! simulate. The engine memoizes the *entire reply row* per canonical
//! request line in one [`Memo`]: concurrent identical queries from
//! different connections wait on one cell and share the one
//! computation. The memo's lock is held only to fetch the cell; the
//! compute runs outside it, so distinct keys evaluate in parallel.
//!
//! Every compute is wrapped in `catch_unwind`: a panicking builder or an
//! over-cap enumeration becomes a structured error reply, the cell stays
//! empty, and the connection (and server) live on.

use crate::protocol::{net_spec, order_estimate, Query, Request};
use sg_exec::{execute_protocol, DriverConfig, FaultPlan};
use sg_scenario::BuildCache;
use sg_search::certificate::certify_with;
use sg_search::driver::{search_with_oracle, SearchConfig};
use sg_search::enumerate::{enumerate_with_group, EnumerateConfig};
use sg_sim::engine::systolic_gossip_time;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use systolic_gossip::{Memo, Network, Row};

/// Size guards on what a single query may ask for. Estimated orders
/// (never built graphs) are compared against these caps, so an oversized
/// request is refused in microseconds instead of after an `O(n·m)`
/// diameter sweep.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Largest (estimated) order a `bound` query may name.
    pub max_bound_n: usize,
    /// Largest order a `search` or `certificate` query may simulate.
    pub max_sim_n: usize,
    /// Largest order an `enumerate` query may branch-and-bound over.
    pub max_enumerate_n: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_bound_n: 4096,
            max_sim_n: 1024,
            max_enumerate_n: 12,
        }
    }
}

/// Single-flight counters of the result memo (the cache layers below
/// keep their own; the `stats` op surfaces both).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Memoized queries received.
    pub lookups: usize,
    /// Reply rows actually computed — for N concurrent identical
    /// queries, exactly 1.
    pub computes: usize,
}

impl EngineStats {
    /// `lookups − computes`: queries answered from the memo (or by
    /// waiting on an in-flight computation).
    pub fn hits(&self) -> usize {
        self.lookups.saturating_sub(self.computes)
    }
}

/// The shared engine every connection handler borrows.
#[derive(Debug)]
pub struct QueryEngine {
    cache: BuildCache,
    cfg: EngineConfig,
    /// Canonical request line → reply row.
    replies: Memo<String, Arc<Row>>,
}

impl Default for QueryEngine {
    fn default() -> Self {
        Self::new(EngineConfig::default())
    }
}

impl QueryEngine {
    /// An engine with fresh caches.
    pub fn new(cfg: EngineConfig) -> Self {
        Self {
            cache: BuildCache::new(),
            cfg,
            replies: Memo::new(),
        }
    }

    /// The shared build cache (tests assert on its counters).
    pub fn cache(&self) -> &BuildCache {
        &self.cache
    }

    /// Snapshot of the single-flight counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            lookups: self.replies.lookups(),
            computes: self.replies.computes(),
        }
    }

    /// Answers one query: the reply body on success, a message for an
    /// `{"ok":false}` reply on refusal or compute failure. Never panics.
    pub fn handle(&self, q: &Query) -> Result<Row, String> {
        match q {
            Query::Ping => Ok(Row::new().with("op", "ping")),
            Query::Stats => Ok(self.stats_row()),
            Query::Sleep { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(*ms));
                Ok(Row::new()
                    .with("op", "sleep")
                    .with("slept_ms", *ms as usize))
            }
            Query::Bound { net, .. } => {
                self.guard(net, self.cfg.max_bound_n, "bound")?;
                self.memoized(q)
            }
            Query::Search { net, .. } => {
                self.guard(net, self.cfg.max_sim_n, "search")?;
                self.memoized(q)
            }
            Query::Enumerate { net, .. } => {
                self.guard(net, self.cfg.max_enumerate_n, "enumerate")?;
                self.memoized(q)
            }
            Query::Certificate { net, .. } => {
                self.guard(net, self.cfg.max_sim_n, "certificate")?;
                self.memoized(q)
            }
            Query::Execute { net, .. } => {
                self.guard(net, self.cfg.max_sim_n, "execute")?;
                self.memoized(q)
            }
        }
    }

    /// Refuses queries whose estimated order exceeds the op's cap.
    fn guard(&self, net: &Network, cap: usize, op: &str) -> Result<(), String> {
        let est = order_estimate(net);
        if est > cap {
            return Err(format!(
                "{} has (estimated) order {est}, over this server's `{op}` cap of {cap}",
                net.name()
            ));
        }
        Ok(())
    }

    /// The single-flight path: canonicalize, share one compute per key.
    fn memoized(&self, q: &Query) -> Result<Row, String> {
        let key = Request::new(q.clone()).to_line();
        // A panicking compute leaves the memo cell empty — the next
        // identical query retries, and *this* query reports the panic
        // as a structured error.
        catch_unwind(AssertUnwindSafe(|| {
            self.replies
                .get_or_compute(key, || Arc::new(self.compute(q)))
        }))
        .map(|row| (*row).clone())
        .map_err(|payload| format!("query failed: {}", panic_text(payload)))
    }

    /// The uncached computation behind one memo cell.
    fn compute(&self, q: &Query) -> Row {
        match q {
            Query::Bound { net, mode, period } => {
                let g = self.cache.digraph(net);
                let diameter = self.cache.diameter(net);
                let ob = self
                    .cache
                    .oracle()
                    .bounds_on(net, &g, diameter, *mode, *period);
                Row::new()
                    .with("op", "bound")
                    .with("net", net_spec(net))
                    .with("network", net.name())
                    .with("n", g.vertex_count())
                    .with("mode", mode.name())
                    .with("period", period.label())
                    .with("diameter", diameter)
                    .with("floor_rounds", ob.floor_rounds)
                    .with("floor_source", ob.floor_source.label())
                    .with("asymptotic_rounds", ob.asymptotic_rounds)
                    .with("lambda_star", ob.lambda_star)
                    .with("best_rounds", ob.report.best_rounds)
            }
            Query::Search {
                net,
                mode,
                period,
                seed,
                restarts,
                iterations,
            } => {
                let g = self.cache.digraph(net);
                let diameter = self.cache.diameter(net);
                let cfg = SearchConfig {
                    restarts: *restarts,
                    iterations: *iterations,
                    seed: *seed,
                    threads: 1,
                    ..SearchConfig::default()
                }
                .exact_period(*period);
                let out = search_with_oracle(self.cache.oracle(), net, &g, diameter, *mode, &cfg);
                let mut row = Row::new()
                    .with("op", "search")
                    .with("net", net_spec(net))
                    .with("n", g.vertex_count())
                    .with("mode", mode.name())
                    .with("period", *period)
                    .with("found_rounds", out.best_rounds)
                    .with("evaluations", out.evaluations)
                    .with("chains", out.chains);
                if let Some(cert) = &out.certificate {
                    row = row
                        .with("floor_rounds", cert.floor_rounds)
                        .with("floor_source", cert.floor_source.label())
                        .with("verdict", cert.verdict.label())
                        .with("gap_rounds", cert.gap_rounds());
                }
                row
            }
            Query::Enumerate { net, mode, period } => {
                let g = self.cache.digraph(net);
                let diameter = self.cache.diameter(net);
                let group = self.cache.perm_group(net);
                let cfg = EnumerateConfig::default().exact_period(*period);
                let out = enumerate_with_group(
                    self.cache.oracle(),
                    net,
                    &g,
                    diameter,
                    *mode,
                    &group,
                    &cfg,
                );
                let mut row = Row::new()
                    .with("op", "enumerate")
                    .with("net", net_spec(net))
                    .with("n", g.vertex_count())
                    .with("mode", mode.name())
                    .with("period", *period)
                    .with("optimal_rounds", out.best_rounds)
                    .with("proven_infeasible", out.proven_infeasible)
                    .with("enumerated", out.enumerated)
                    .with("pruned", out.pruned)
                    .with("met_floor", out.met_floor);
                if let Some(cert) = &out.certificate {
                    row = row
                        .with("floor_rounds", cert.floor_rounds)
                        .with("verdict", cert.verdict.label());
                }
                row
            }
            Query::Certificate { net, mode } => {
                let g = self.cache.digraph(net);
                let diameter = self.cache.diameter(net);
                let n = g.vertex_count();
                let Some((kind, sp)) = self.cache.protocol(net, *mode) else {
                    panic!(
                        "{} has no deterministic protocol in {} mode",
                        net.name(),
                        mode.name()
                    );
                };
                let budget = 40 * n + 200;
                let mut row = Row::new()
                    .with("op", "certificate")
                    .with("net", net_spec(net))
                    .with("n", n)
                    .with("mode", mode.name())
                    .with("protocol", kind.label())
                    .with("period", sp.period().len());
                match systolic_gossip_time(&sp, n, budget) {
                    Some(found) => {
                        let cert = certify_with(
                            self.cache.oracle(),
                            net,
                            &g,
                            diameter,
                            *mode,
                            sp.period().len(),
                            found,
                            Some(&sp),
                        );
                        row = row
                            .with("found_rounds", found)
                            .with("floor_rounds", cert.floor_rounds)
                            .with("floor_source", cert.floor_source.label())
                            .with("gap_rounds", cert.gap_rounds())
                            .with("protocol_bound_rounds", cert.protocol_bound_rounds)
                            .with("verdict", cert.verdict.label());
                    }
                    None => {
                        row = row.with("verdict", "incomplete").with("budget", budget);
                    }
                }
                row
            }
            Query::Execute { net, mode } => {
                let g = self.cache.digraph(net);
                let n = g.vertex_count();
                let Some((kind, sp)) = self.cache.protocol(net, *mode) else {
                    panic!(
                        "{} has no deterministic protocol in {} mode",
                        net.name(),
                        mode.name()
                    );
                };
                let budget = 40 * n + 200;
                let optimum = systolic_gossip_time(&sp, n, budget);
                let report = execute_protocol(
                    &sp,
                    n,
                    FaultPlan::fault_free(),
                    DriverConfig {
                        max_rounds: budget as u64,
                        ..DriverConfig::default()
                    },
                );
                let conformant = match (report.completed_at, optimum) {
                    (Some(e), Some(o)) => e == o as u64,
                    _ => false,
                };
                Row::new()
                    .with("op", "execute")
                    .with("net", net_spec(net))
                    .with("n", n)
                    .with("mode", mode.name())
                    .with("protocol", kind.label())
                    .with("period", sp.period().len())
                    .with("executed_rounds", report.completed_at.map(|r| r as usize))
                    .with("optimum_rounds", optimum)
                    .with("conformant", conformant)
                    .with(
                        "gossip_sent",
                        i64::try_from(report.gossip_sent).unwrap_or(i64::MAX),
                    )
                    .with(
                        "acks_sent",
                        i64::try_from(report.acks_sent).unwrap_or(i64::MAX),
                    )
            }
            Query::Ping | Query::Stats | Query::Sleep { .. } => {
                unreachable!("non-memoized ops never reach compute")
            }
        }
    }

    /// The `stats` reply: single-flight, oracle and build-cache counters.
    fn stats_row(&self) -> Row {
        let sf = self.stats();
        let cs = self.cache.stats();
        Row::new()
            .with("op", "stats")
            .with("singleflight_lookups", sf.lookups)
            .with("singleflight_computes", sf.computes)
            .with("singleflight_hits", sf.hits())
            .with("oracle_lookups", cs.oracle.lookups)
            .with("oracle_computes", cs.oracle.computes)
            .with("graph_builds", cs.graph_builds)
            .with("graph_hits", cs.graph_hits)
            .with("protocol_builds", cs.protocol_builds)
            .with("protocol_hits", cs.protocol_hits)
            .with("group_builds", cs.group_builds)
    }
}

/// Renders a panic payload as the human-readable part of an error reply.
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "internal error".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systolic_gossip::sg_bounds::pfun::Period;
    use systolic_gossip::sg_protocol::mode::Mode;
    use systolic_gossip::Value;

    fn field<'r>(row: &'r Row, name: &str) -> &'r Value {
        &row.fields
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("row has no `{name}`"))
            .1
    }

    #[test]
    fn identical_concurrent_queries_compute_once() {
        let engine = QueryEngine::default();
        let q = Query::Bound {
            net: Network::Hypercube { k: 4 },
            mode: Mode::FullDuplex,
            period: Period::Systolic(4),
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| engine.handle(&q).unwrap());
            }
        });
        let sf = engine.stats();
        assert_eq!(sf.lookups, 8);
        assert_eq!(sf.computes, 1, "single-flight: one compute for 8 queries");
        // The oracle below saw exactly one evaluation too.
        assert_eq!(engine.cache().stats().oracle.computes, 1);
    }

    #[test]
    fn distinct_periods_are_distinct_keys() {
        let engine = QueryEngine::default();
        for s in [2usize, 3, 4] {
            let q = Query::Bound {
                net: Network::Cycle { n: 8 },
                mode: Mode::FullDuplex,
                period: Period::Systolic(s),
            };
            engine.handle(&q).unwrap();
            engine.handle(&q).unwrap();
        }
        let sf = engine.stats();
        assert_eq!(sf.lookups, 6);
        assert_eq!(sf.computes, 3);
    }

    #[test]
    fn oversized_queries_are_refused_without_building() {
        let engine = QueryEngine::new(EngineConfig {
            max_bound_n: 100,
            ..EngineConfig::default()
        });
        let q = Query::Bound {
            net: Network::Hypercube { k: 20 },
            mode: Mode::FullDuplex,
            period: Period::Systolic(4),
        };
        let err = engine.handle(&q).unwrap_err();
        assert!(err.contains("cap"), "refusal mentions the cap: {err}");
        assert_eq!(engine.cache().stats().graph_builds, 0, "nothing was built");
    }

    #[test]
    fn panicking_compute_becomes_structured_error() {
        let engine = QueryEngine::default();
        // A directed shift network has no deterministic protocol; the
        // certificate compute panics and the engine reports it.
        let q = Query::Certificate {
            net: Network::DeBruijnDirected { d: 2, dd: 3 },
            mode: Mode::Directed,
        };
        let err = engine.handle(&q).unwrap_err();
        assert!(
            err.contains("no deterministic protocol"),
            "panic text surfaced: {err}"
        );
        // The engine is still healthy afterwards.
        let ok = engine.handle(&Query::Ping).unwrap();
        assert!(matches!(field(&ok, "op"), Value::Text(t) if t == "ping"));
    }

    #[test]
    fn certificate_audits_the_reference_protocol() {
        let engine = QueryEngine::default();
        let q = Query::Certificate {
            net: Network::Path { n: 8 },
            mode: Mode::HalfDuplex,
        };
        let row = engine.handle(&q).unwrap();
        assert!(matches!(field(&row, "protocol"), Value::Text(t) if t == "reference"));
        assert!(matches!(field(&row, "found_rounds"), Value::Int(r) if *r > 0));
        assert!(matches!(field(&row, "verdict"), Value::Text(_)));
    }

    #[test]
    fn execute_runs_fault_free_and_conforms_to_the_simulator() {
        let engine = QueryEngine::default();
        let q = Query::Execute {
            net: Network::Knodel { delta: 3, n: 8 },
            mode: Mode::FullDuplex,
        };
        let row = engine.handle(&q).unwrap();
        assert!(matches!(field(&row, "op"), Value::Text(t) if t == "execute"));
        assert!(matches!(field(&row, "conformant"), Value::Bool(true)));
        assert_eq!(
            field(&row, "executed_rounds"),
            field(&row, "optimum_rounds")
        );
        // Identical queries share one compute through the memo.
        engine.handle(&q).unwrap();
        assert_eq!(engine.stats().computes, 1);
        // And the execute op respects the simulation cap.
        let small = QueryEngine::new(EngineConfig {
            max_sim_n: 4,
            ..EngineConfig::default()
        });
        let err = small.handle(&q).unwrap_err();
        assert!(err.contains("`execute` cap"), "{err}");
    }

    #[test]
    fn enumerate_settles_a_small_cycle() {
        let engine = QueryEngine::default();
        let row = engine
            .handle(&Query::Enumerate {
                net: Network::Cycle { n: 5 },
                mode: Mode::HalfDuplex,
                period: 3,
            })
            .unwrap();
        assert!(matches!(field(&row, "optimal_rounds"), Value::Int(r) if *r > 0));
    }

    #[test]
    fn search_finds_a_schedule_and_certifies() {
        let engine = QueryEngine::default();
        let row = engine
            .handle(&Query::Search {
                net: Network::Cycle { n: 6 },
                mode: Mode::FullDuplex,
                period: 3,
                seed: 7,
                restarts: 2,
                iterations: 60,
            })
            .unwrap();
        assert!(matches!(field(&row, "found_rounds"), Value::Int(r) if *r > 0));
        assert!(matches!(field(&row, "verdict"), Value::Text(_)));
    }
}
