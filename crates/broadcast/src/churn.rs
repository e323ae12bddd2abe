//! Gossip under live churn: mid-run departures *and* arrivals, with
//! tree re-extraction between fault waves.
//!
//! [`crate::gossip`]'s faulty schedules treat the dominating-tree
//! packing as frozen: a tree broken by a death stays broken, and its
//! messages fall back to flooding for the rest of the run. This module
//! closes the loop with the incremental CDS machinery
//! ([`ClassState`]): each time a fault wave fires, the wave's events
//! are applied to the class state (`delete_vertex` / `delete_edge` /
//! [`ClassState::insert_vertex`] / [`ClassState::insert_edge`] — only
//! the touched classes are repacked), and a fresh dominating tree is
//! re-extracted for every touched class that re-certifies
//! (`component_count == 1` over the survivors plus domination through
//! live edges — the same certificate
//! [`to_dom_tree_packing_with_state`](decomp_core::cds::tree_extract::to_dom_tree_packing_with_state)
//! uses). In-flight messages are then *re-admitted*: a message riding
//! the flood fallback moves back onto the lowest-id certified tree
//! holding a copy, so flood rounds stay bounded per wave instead of
//! accumulating for the rest of the run.
//!
//! The round loop is the greedy schedule of [`crate::gossip`] — the
//! one schedule core, with this module's repair hook in place of the
//! static packing's — so digests are comparable run to run: same graph,
//! plan, seed, and origins → same [`GossipReport::schedule_digest`],
//! and an empty plan takes exactly the greedy schedule.

use crate::gossip::{GossipError, GossipReport, MessageOrigin};
use crate::schedule::{dominates, run_schedule, BitRows, Greedy, RepairHook, FLOOD};
use decomp_congest::{Fault, FaultPlan, FaultState};
use decomp_core::cds::centralized::CdsPacking;
use decomp_core::cds::class_state::ClassState;
use decomp_core::cds::tree_extract::reextract_class_tree;
use decomp_core::packing::WeightedDomTree;
use decomp_graph::{Graph, NodeId, TopologyView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Certifies class `c` over the current survivors and re-extracts its
/// dominating tree: one component ([`ClassState::component_count`]),
/// every live present vertex dominated through a usable edge, and the
/// members (row `c` of `member`) spanning under the tracker's edge
/// filter.
pub(crate) fn certify_class(
    g: &Graph,
    ft: &FaultState<'_>,
    state: &ClassState,
    member: &BitRows,
    c: usize,
) -> Option<WeightedDomTree> {
    if state.component_count(c) != 1 || !dominates(g, ft, member, c) {
        return None;
    }
    let members: Vec<NodeId> = member.ones(c).collect();
    reextract_class_tree(g, c, &members, |u, v| ft.deliverable(u, v))
}

/// Runs seeded greedy gossip over the CDS packing's classes while the
/// fault plan churns the topology underneath it, re-extracting
/// dominating trees for the repaired classes between waves (see the
/// module docs).
///
/// `topology` is a settled `&Graph` or a growing `&GrowableGraph`
/// (`plan.growth_topology(&base)`, whose overlay edges activate at their
/// plan rounds, so adjacency is revealed only at arrival). The one
/// behavioral difference: on a growing topology a class-free newcomer
/// (an arrival the packing never assigned) is *admitted* into a class
/// incrementally ([`ClassState::admit_vertex`] — argmax component-merge,
/// bit-identical to a from-scratch repack), so re-extraction serves it
/// from trees; a settled run leaves it to domination and the flood
/// fallback. Either way [`GossipReport::admitted_via_packing`] and
/// [`GossipReport::flood_served`] count the split. The relay schedule
/// runs over the final topology under the tracker's activation filter —
/// exactly the adjacency `gg.neighbors_at(v, round)` exposes — so a
/// growing run on a settled plan (empty overlay, no class-free
/// arrivals) is byte-identical to the settled one.
///
/// `state` is the [`ClassState`] the packing was built with
/// ([`cds_packing_with_state`](decomp_core::cds::centralized::cds_packing_with_state)
/// over the **final** topology); on return it reflects the post-churn
/// membership. The plan is [validated](FaultPlan::validate) first —
/// the typed-error path for churn scenarios.
///
/// Determinism: tree assignment draws from `StdRng::seed_from_u64(seed)`,
/// re-extraction is BFS over fixed adjacency, and idle waits
/// fast-forward without touching any stream — one digest per
/// `(graph, packing, origins, seed, plan)`.
pub fn gossip_under_churn<'g>(
    topology: impl Into<TopologyView<'g>>,
    cds: &CdsPacking,
    state: &mut ClassState,
    origins: &[MessageOrigin],
    seed: u64,
    plan: &FaultPlan,
) -> Result<GossipReport, GossipError> {
    let view = topology.into();
    let g = view.final_graph();
    let g: &Graph = &g;
    plan.validate(g).map_err(GossipError::Plan)?;
    let n = g.n();
    if n == 0 || !decomp_graph::traversal::is_connected(g) {
        return Err(GossipError::Disconnected);
    }
    let t = cds.num_classes();
    let ft = FaultState::new(plan, n);
    let mut member = BitRows::new(t, n);
    for (c, ms) in cds.classes.iter().enumerate() {
        for &v in ms {
            member.set(c, v);
        }
    }
    let mut hook = ChurnRepair {
        g,
        plan,
        admit: !view.is_static(),
        // Final-topology class memberships, captured before churn
        // mutates the state (arrivals re-enter exactly their original
        // classes).
        original: (0..n).map(|v| state.classes_at(v).to_vec()).collect(),
        state,
        trees: Vec::new(),
        applied: 0,
        dead_applied: vec![false; n],
        admitted_via_packing: 0,
        flood_served: 0,
    };

    // Round-0 view: not-yet-arrived vertices and edges leave the class
    // state (they re-enter through the waves' `insert_*` calls). It reads
    // a second tracker: the schedule's own `ft` must fire the round-0
    // events itself, as its first wave.
    let mut ft0 = FaultState::new(plan, n);
    ft0.advance_to(0);
    let keep0 = |u, v| ft0.deliverable(u, v);
    for v in (0..n).filter(|&v| ft0.is_dormant(v)) {
        for c in hook.state.delete_vertex(g, keep0, v) {
            member.clear(c as usize, v);
        }
    }
    for e in plan.events() {
        if let Fault::AddEdge(u, v) = e.fault {
            if e.round > 0 {
                hook.state.delete_edge(g, keep0, u, v);
            }
        }
    }

    // Initial certification: one dominating tree per class that holds
    // together over the round-0 population, then a seeded assignment
    // over the certified classes.
    hook.trees = (0..t)
        .map(|c| certify_class(g, &ft, hook.state, &member, c))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let certified: Vec<usize> = (0..t).filter(|&c| hook.trees[c].is_some()).collect();
    let tree_of: Vec<usize> = (0..origins.len())
        .map(|_| {
            if certified.is_empty() {
                FLOOD
            } else {
                certified[rng.gen_range(0..certified.len())]
            }
        })
        .collect();
    let diameters = hook.trees.iter().flatten().map(|tree| tree.diameter(n));
    let max_tree_diameter = diameters.max().unwrap_or(0);

    let report = run_schedule(g, origins, member, tree_of, Greedy::new(n), ft, &mut hook);
    Ok(GossipReport {
        max_tree_diameter,
        admitted_via_packing: hook.admitted_via_packing,
        flood_served: hook.flood_served,
        ..report
    })
}

/// Live churn's repair hook: each wave's events hit the class state
/// (only the touched classes repack), every touched class re-certifies
/// and re-extracts its tree, and messages riding the flood fallback move
/// back onto a certified class as soon as one holds them.
struct ChurnRepair<'a> {
    g: &'a Graph,
    plan: &'a FaultPlan,
    state: &'a mut ClassState,
    /// Whether a class-free arrival is admitted into a class (a growing
    /// topology) or left to domination and flood (a settled one).
    admit: bool,
    original: Vec<Vec<u32>>,
    /// Per class, its certified tree.
    trees: Vec<Option<WeightedDomTree>>,
    /// Plan events already applied to the class state.
    applied: usize,
    /// Kills already applied to the class state — "death wins" is
    /// replayed in event order, exactly as the tracker sees it.
    dead_applied: Vec<bool>,
    admitted_via_packing: usize,
    flood_served: usize,
}

impl RepairHook for ChurnRepair<'_> {
    const READMIT_FLOOD: bool = true;

    fn carriers(&mut self, ft: &FaultState<'_>, member: &mut BitRows) -> (Vec<bool>, usize) {
        let keep = |u, v| ft.deliverable(u, v);
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for e in &self.plan.events()[self.applied..ft.fired()] {
            match e.fault {
                Fault::Vertex(v) => {
                    self.dead_applied[v] = true;
                    for c in self.state.delete_vertex(self.g, keep, v) {
                        member.clear(c as usize, v);
                        touched.insert(c as usize);
                    }
                }
                Fault::Edge(u, v) => {
                    for c in self.state.delete_edge(self.g, keep, u, v) {
                        touched.insert(c as usize);
                    }
                }
                Fault::AddVertex(v) => {
                    if self.dead_applied[v] {
                        continue;
                    }
                    // Packing members re-enter their original classes; a
                    // class-free newcomer is either admitted
                    // incrementally (growth) or left to domination and
                    // flood (settled).
                    let entered = if !self.original[v].is_empty() {
                        self.state.insert_vertex(self.g, keep, v, &self.original[v])
                    } else if self.admit {
                        self.state.admit_vertex(self.g, keep, v)
                    } else {
                        Vec::new()
                    };
                    if self.original[v].is_empty() {
                        if entered.is_empty() {
                            self.flood_served += 1;
                        } else {
                            self.admitted_via_packing += 1;
                        }
                    }
                    for c in entered {
                        member.set(c as usize, v);
                        touched.insert(c as usize);
                    }
                }
                Fault::AddEdge(u, v) => {
                    for c in self.state.insert_edge(u, v) {
                        touched.insert(c as usize);
                    }
                }
            }
        }
        self.applied = ft.fired();
        // Re-extraction: only the touched classes are re-certified;
        // everything else keeps its tree untouched. An arrival can also
        // break certification (the newcomer may be undominated), in
        // which case the class floods until a later wave heals it.
        let mut reextracted = 0;
        for &c in &touched {
            self.trees[c] = certify_class(self.g, ft, self.state, member, c);
            reextracted += self.trees[c].is_some() as usize;
        }
        // An untouched class keeps its members and member–member edges,
        // so only its domination can break (a cut from a member to a
        // non-member, or a non-member's arrival): it counts as intact
        // only while it still dominates.
        let alive = (0..self.trees.len())
            .map(|c| {
                self.trees[c].is_some()
                    && (touched.contains(&c) || dominates(self.g, ft, member, c))
            })
            .collect();
        (alive, reextracted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decomp_congest::ScheduledFault;
    use decomp_core::cds::centralized::{cds_packing_with_state, CdsPackingConfig};
    use decomp_core::virtual_graph::{VType, VirtualLayout};
    use decomp_graph::{generators, GrowableGraph};

    fn setup(g: &Graph, t: usize, seed: u64) -> (CdsPacking, ClassState) {
        cds_packing_with_state(g, &CdsPackingConfig::with_classes(t, seed))
    }

    #[test]
    fn fault_free_churn_run_completes_on_trees() {
        let g = generators::harary(8, 40);
        let (cds, mut st) = setup(&g, 4, 1);
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::new([]);
        let r = gossip_under_churn(&g, &cds, &mut st, &origins, 7, &plan).unwrap();
        assert!(r.complete);
        assert_eq!(r.lost_messages, 0);
        assert_eq!(r.repair_events, 0);
        assert_eq!(r.flood_rounds, 0, "no churn, no flooding");
        assert_eq!(r.reextractions, 0);
        assert!(r.waves.is_empty());
        assert!(r.rounds > 0);
    }

    #[test]
    fn rejects_invalid_plans_with_typed_errors() {
        let g = generators::cycle(6);
        let (cds, mut st) = setup(&g, 2, 0);
        let plan = FaultPlan::new([ScheduledFault {
            round: 1,
            fault: Fault::Vertex(99),
        }]);
        let err = gossip_under_churn(&g, &cds, &mut st, &[0], 1, &plan).unwrap_err();
        assert!(matches!(
            err,
            GossipError::Plan(decomp_congest::FaultPlanError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn kill_wave_reextracts_and_readmits_from_flood() {
        // Harary graph, enough connectivity that one death leaves every
        // class repairable.
        let g = generators::harary(8, 48);
        let (cds, mut st) = setup(&g, 4, 3);
        // One message per origin: each origin's first (only) broadcast
        // lands before the wave, so nothing can be lost outright.
        let origins: Vec<usize> = (0..g.n()).collect();
        let plan = FaultPlan::new([ScheduledFault {
            round: 4,
            fault: Fault::Vertex(5),
        }]);
        let r = gossip_under_churn(&g, &cds, &mut st, &origins, 9, &plan).unwrap();
        assert!(r.complete);
        assert_eq!(r.waves.len(), 1);
        let w = &r.waves[0];
        assert_eq!(w.round, 4);
        assert_eq!(w.live_vertices, g.n() - 1);
        // Every touched class re-certified: the survivors keep full
        // tree schedules, so any flooding is confined to the wave.
        if w.surviving_trees == cds.num_classes() {
            assert!(
                r.flood_rounds <= 2,
                "re-extraction should cap flooding, saw {}",
                r.flood_rounds
            );
        }
    }

    #[test]
    fn arrival_wave_delivers_to_the_newcomer() {
        let g = generators::harary(6, 24);
        let (cds, mut st) = setup(&g, 3, 2);
        let origins: Vec<usize> = (0..g.n()).filter(|&v| v != 7).collect();
        // Vertex 7 arrives long after the old population is fully
        // served (the run fast-forwards through the idle wait): the
        // wave must reseed relayed holders to deliver to the newcomer.
        let plan = FaultPlan::new([ScheduledFault {
            round: 200,
            fault: Fault::AddVertex(7),
        }]);
        let r = gossip_under_churn(&g, &cds, &mut st, &origins, 11, &plan).unwrap();
        assert!(r.complete, "latecomer must be served after arrival");
        assert_eq!(r.lost_messages, 0);
        assert_eq!(r.waves.len(), 1);
        assert!(
            r.rounds >= 200,
            "idle wait fast-forwards to the arrival, rounds = {}",
            r.rounds
        );
        assert!(
            r.waves[0].reassigned_messages > 0,
            "arrival redelivery reseeds holders"
        );
    }

    #[test]
    fn dormant_origin_message_waits_for_its_arrival() {
        let g = generators::harary(6, 24);
        let (cds, mut st) = setup(&g, 3, 4);
        // Message 0 originates at vertex 3, which has not arrived yet:
        // the run must idle (fast-forward) to round 6 and still finish.
        let plan = FaultPlan::new([ScheduledFault {
            round: 6,
            fault: Fault::AddVertex(3),
        }]);
        let r = gossip_under_churn(&g, &cds, &mut st, &[3], 13, &plan).unwrap();
        assert!(r.complete);
        assert!(
            r.rounds >= 6,
            "cannot finish before the origin arrives, rounds = {}",
            r.rounds
        );
    }

    #[test]
    fn growth_run_on_a_settled_plan_matches_the_settled_run() {
        // Empty overlay + every arrival already packed → the growth
        // path must be byte-identical to the settled one, report and
        // counters included.
        let g = generators::harary(8, 40);
        let origins: Vec<usize> = (0..2 * g.n()).map(|i| i % g.n()).collect();
        let plan = FaultPlan::new([
            ScheduledFault {
                round: 3,
                fault: Fault::Vertex(2),
            },
            ScheduledFault {
                round: 6,
                fault: Fault::AddVertex(9),
            },
        ]);
        let (cds, mut st) = setup(&g, 4, 5);
        assert!(
            !st.classes_at(9).is_empty(),
            "fixture: the arrival must be a packed vertex"
        );
        let settled = gossip_under_churn(&g, &cds, &mut st, &origins, 21, &plan).unwrap();
        let gg = GrowableGraph::from_base(g.clone());
        let (cds2, mut st2) = setup(&g, 4, 5);
        let grown = gossip_under_churn(&gg, &cds2, &mut st2, &origins, 21, &plan).unwrap();
        assert_eq!(grown, settled);
        assert_eq!(grown.admitted_via_packing, 0);
        assert_eq!(grown.flood_served, 0);
    }

    #[test]
    fn growth_admits_a_class_free_newcomer_and_serves_it_from_trees() {
        // The packing predates vertex 7: it is dropped from the state
        // and the class lists, its edges exist only in the growth
        // overlay, and the plan reveals them at the arrival round.
        let gfull = generators::harary(6, 24);
        let newcomer = 7usize;
        let base = Graph::from_edges(
            gfull.n(),
            (0..gfull.n()).flat_map(|u| {
                gfull
                    .neighbors(u)
                    .iter()
                    .filter(move |&&v| u < v && u != newcomer && v != newcomer)
                    .map(move |&v| (u, v))
            }),
        );
        let mut events = vec![ScheduledFault {
            round: 5,
            fault: Fault::AddVertex(newcomer),
        }];
        for &u in gfull.neighbors(newcomer) {
            events.push(ScheduledFault {
                round: 5,
                fault: Fault::AddEdge(newcomer, u),
            });
        }
        let plan = FaultPlan::new(events);
        let gg = plan.growth_topology(&base);
        assert_eq!(gg.overlay_len(), gfull.neighbors(newcomer).len());
        let origins: Vec<usize> = (0..gfull.n()).filter(|&v| v != newcomer).collect();
        let run = |admit: bool| {
            // A packing built before the newcomer existed: build over
            // the final topology, then evict 7 — membership exactly as
            // if 7 had never joined.
            let (mut cds, mut st) = setup(&gfull, 3, 2);
            for c in st.delete_vertex(&gfull, |_, _| true, newcomer) {
                let ms = &mut cds.classes[c as usize];
                if let Ok(i) = ms.binary_search(&newcomer) {
                    ms.remove(i);
                }
            }
            if admit {
                gossip_under_churn(&gg, &cds, &mut st, &origins, 11, &plan).unwrap()
            } else {
                gossip_under_churn(&gfull, &cds, &mut st, &origins, 11, &plan).unwrap()
            }
        };
        let grown = run(true);
        assert!(grown.complete, "newcomer must be served");
        assert_eq!(grown.admitted_via_packing, 1, "the newcomer joined a class");
        assert_eq!(grown.flood_served, 0);
        assert_eq!(grown.flood_rounds, 0, "admission keeps the trees certified");
        let settled = run(false);
        assert!(settled.complete);
        assert_eq!(settled.admitted_via_packing, 0, "settled runs never admit");
        assert_eq!(
            settled.flood_served, 1,
            "the class-free arrival is counted against the fallback"
        );
    }

    #[test]
    fn untouched_class_that_stops_dominating_is_not_intact() {
        // cycle(6) with class 0 = {0, 1, 2, 3} and class 1 = every vertex.
        // Cutting {3, 4} touches only class 1 (the one holding both
        // endpoints), yet leaves vertex 4 without a class-0 neighbour:
        // class 0 must stop counting as intact, or its messages are
        // reassigned to it forever and the schedule stalls.
        let g = generators::cycle(6);
        let layout = VirtualLayout::new(6, 2);
        let classes: Vec<Vec<usize>> = vec![(0..4).collect(), (0..6).collect()];
        let mut state = ClassState::new(layout, 2);
        let mut class_of = vec![None; layout.total()];
        for (c, ms) in classes.iter().enumerate() {
            for &v in ms {
                let vid = layout.vid(v, 0, VType::ALL[c]);
                state.join(&g, vid, c);
                class_of[vid] = Some(c as u32);
            }
        }
        let cds = CdsPacking {
            layout,
            num_classes: 2,
            class_of,
            classes,
            trace: Vec::new(),
        };
        let plan = FaultPlan::new([ScheduledFault {
            round: 2,
            fault: Fault::Edge(3, 4),
        }]);
        for seed in 0..8 {
            let mut st = state.clone();
            let r = gossip_under_churn(&g, &cds, &mut st, &[1, 1, 1, 1], seed, &plan).unwrap();
            assert!(r.complete, "seed {seed}");
            assert_eq!(r.waves.len(), 1);
            assert_eq!(r.waves[0].surviving_trees, 1, "only class 1 dominates");
        }
    }

    #[test]
    fn churn_digest_is_reproducible() {
        let g = generators::harary(8, 40);
        let origins: Vec<usize> = (0..3 * g.n()).map(|i| i % g.n()).collect();
        let mk_plan = || {
            FaultPlan::new([
                ScheduledFault {
                    round: 3,
                    fault: Fault::Vertex(2),
                },
                ScheduledFault {
                    round: 6,
                    fault: Fault::AddVertex(9),
                },
                ScheduledFault {
                    round: 9,
                    fault: Fault::Vertex(17),
                },
            ])
        };
        let run = || {
            let (cds, mut st) = setup(&generators::harary(8, 40), 4, 5);
            let plan = mk_plan();
            gossip_under_churn(&g, &cds, &mut st, &origins, 21, &plan).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same inputs must give the same churn report");
        assert!(a.waves.len() >= 2);
    }
}
