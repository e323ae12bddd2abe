//! Distributed CDS packing in V-CONGEST (Theorem 1.1, Appendix B).
//!
//! Each real node simulates its `3L = Θ(log n)` virtual nodes; one
//! *meta-round* (`Θ(log n)` virtual-graph rounds) corresponds to one
//! simulator round carrying `O(log n)` words. The per-layer pipeline is
//! Appendix B's:
//!
//! 1. **component identification** of the old nodes, per class — our
//!    Theorem-B.2 stand-in is multi-key min-label flooding
//!    ([`decomp_congest::multiflood`]), running all classes simultaneously;
//! 2. **deactivation** of components already bridged by a type-1 new node
//!    (connector announcements + component-wide OR flood);
//! 3. **bridging-graph formation** — type-3 new nodes announce their
//!    suitable components (`(class, comp)` or the `connector` symbol);
//!    type-2 new nodes assemble their neighbor lists;
//! 4. **maximal matching** in `O(log n)` stages of Luby-style proposals:
//!    type-2 nodes propose with random values, components accept their
//!    maximum via a component-wide max flood, winners join the class.
//!
//! Single-round neighborhood exchanges (class lists, component tables,
//! proposals) are performed by the driver on locally-known state and
//! charged one meta-round each — their message content is exactly the
//! neighbor state being read, so round accounting matches the protocol.
//! All component-wide steps run as real message-passing floods.
//!
//! A node's component table holds `(class, comp)` in ascending class
//! order; its OR and max tables hold `(class · n + comp, value)` entry for
//! entry beside it (the keys ascend with the classes), so seeds and reads
//! go by entry index, and every list a node builds follows class order.

use crate::cds::centralized::{CdsPacking, CdsPackingConfig, LayerTrace};
use crate::virtual_graph::{default_layers, VType, VirtualLayout};
use decomp_congest::multiflood::{find, get, multikey_flood, Combine};
use decomp_congest::{Model, SimError, Simulator};
use decomp_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a closed neighbourhood reaches of one class: no component,
/// exactly one, or several (a connector).
#[derive(Clone, Copy, PartialEq)]
enum Reach {
    None,
    One(u64),
    Connector,
}

/// Runs the distributed CDS-packing construction on `sim` (V-CONGEST).
///
/// Produces the same object as [`crate::cds::centralized::cds_packing`];
/// round costs accumulate in `sim.stats()`.
///
/// # Errors
/// Propagates simulator round-limit errors from the flooding subroutines.
///
/// # Panics
/// Panics if `sim` is not a V-CONGEST simulator or the graph is empty.
#[allow(clippy::needless_range_loop)] // lockstep loops index several per-node arrays at once
pub fn cds_packing_distributed(
    sim: &mut Simulator<'_>,
    config: &CdsPackingConfig,
) -> Result<CdsPacking, SimError> {
    assert_eq!(
        sim.model(),
        Model::VCongest,
        "Theorem 1.1 is a V-CONGEST result"
    );
    let n = sim.graph().n();
    assert!(n > 0, "CDS packing needs a non-empty graph");
    let layers = default_layers(n, config.layers_factor);
    let layout = VirtualLayout::new(n, layers);
    let t = config.num_classes;
    let half = layout.jump_start();
    let mut class_of: Vec<Option<u32>> = vec![None; layout.total()];
    // Per-node private coins.
    let mut rngs: Vec<StdRng> = (0..n)
        .map(|v| StdRng::seed_from_u64(config.seed.wrapping_mul(0x100000001b3) ^ v as u64))
        .collect();

    // old_classes[v] = sorted classes with an old virtual node on v.
    let mut old_classes: Vec<Vec<u32>> = vec![Vec::new(); n];
    let add_class = |oc: &mut Vec<Vec<u32>>, v: usize, c: u32| {
        if let Err(pos) = oc[v].binary_search(&c) {
            oc[v].insert(pos, c);
        }
    };
    // Component identification per class: key = class, value = real id;
    // fixpoint = component-min per class.
    let class_tables = |oc: &[Vec<u32>]| -> Vec<Vec<(u64, u64)>> {
        (0..n)
            .map(|v| oc[v].iter().map(|&c| (c as u64, v as u64)).collect())
            .collect()
    };

    // --- Jump start (local coin flips; no communication) ----------------
    for layer in 0..half {
        for v in 0..n {
            for vtype in VType::ALL {
                let c = rngs[v].gen_range(0..t) as u32;
                class_of[layout.vid(v, layer, vtype)] = Some(c);
                add_class(&mut old_classes, v, c);
            }
        }
    }

    let graph = sim.graph().clone();
    let closed = |v: usize| std::iter::once(v).chain(graph.neighbors(v).iter().copied());
    let comp_key = |class: u32, comp: u64| -> u64 { class as u64 * n as u64 + comp };

    let mut trace = Vec::with_capacity(layers - half);
    // (1) Component identification of the old nodes; each later layer's
    // runs at the end of the layer before it.
    let mut comp = multikey_flood(sim, class_tables(&old_classes), Combine::Min)?;
    let mut comps = components_per_class(&comp, t);
    for layer in half..layers {
        let excess_before = excess(&comps);
        // OR / max tables, zeroed, entry for entry beside `comp`.
        let zeroed: Vec<Vec<(u64, u64)>> = comp
            .iter()
            .map(|tbl| {
                tbl.iter()
                    .map(|&(c, cid)| (comp_key(c as u32, cid), 0))
                    .collect()
            })
            .collect();
        let reach = |v: usize, class: u32| -> Reach {
            let mut out = Reach::None;
            for cid in closed(v).filter_map(|x| get(&comp[x], class as u64)) {
                match out {
                    Reach::None => out = Reach::One(cid),
                    Reach::One(first) if first != cid => return Reach::Connector,
                    _ => {}
                }
            }
            out
        };
        // Entry index of component `(class, cid)` in `y`'s table, if `y`
        // is one of its old nodes.
        let entry = |y: usize, class: u32, cid: u64| -> Option<usize> {
            find(&comp[y], class as u64)
                .ok()
                .filter(|&j| comp[y][j].1 == cid)
        };

        // One meta-round: everyone learns the neighbors' (class, comp)
        // tables.
        sim.charge_rounds(1);

        // (2) Type-1 / type-3 random classes (local).
        let c1: Vec<u32> = (0..n).map(|v| rngs[v].gen_range(0..t) as u32).collect();
        let c3: Vec<u32> = (0..n).map(|v| rngs[v].gen_range(0..t) as u32).collect();
        for v in 0..n {
            class_of[layout.vid(v, layer, VType::T1)] = Some(c1[v]);
            class_of[layout.vid(v, layer, VType::T3)] = Some(c3[v]);
        }

        // Deactivation: type-1 connectors announce; the adjacent old
        // nodes seed the component-wide OR flood, in which every member
        // of a component takes part with default 0.
        let mut or_tables = zeroed.clone();
        for v in 0..n {
            if reach(v, c1[v]) == Reach::Connector {
                for x in closed(v) {
                    if let Ok(j) = find(&comp[x], c1[v] as u64) {
                        or_tables[x][j].1 = 1;
                    }
                }
            }
        }
        sim.charge_rounds(1); // connector announcement meta-round
        let deactivated = multikey_flood(sim, or_tables, Combine::Max)?;
        let mut flagged: Vec<u64> = deactivated
            .iter()
            .flatten()
            .filter(|&&(_, flag)| flag == 1)
            .map(|&(key, _)| key)
            .collect();
        flagged.sort_unstable();
        flagged.dedup();

        // (3) Bridging graph: type-3 announcements -> type-2 lists.
        let mw: Vec<Reach> = (0..n).map(|v| reach(v, c3[v])).collect();
        sim.charge_rounds(1); // type-3 announcement meta-round

        // Type-2 node x's neighbor list: active components (class i, comp c)
        // with an old node in the closed neighborhood, passing condition
        // (c); per neighbour in ascending class order. A class of one
        // component cannot pass (c), so its entries are skipped.
        let mut lists: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for x in 0..n {
            for y in closed(x) {
                for (j, &(class, cid)) in comp[y].iter().enumerate() {
                    let class = class as u32;
                    if comps[class as usize] < 2 || deactivated[y][j].1 == 1 {
                        continue;
                    }
                    // condition (c): some type-3 new neighbor w of x joined
                    // `class` and reaches a component != cid (or connector).
                    let ok = closed(x).any(|w| {
                        c3[w] == class
                            && match mw[w] {
                                Reach::None => false,
                                Reach::One(other) => other != cid,
                                Reach::Connector => true,
                            }
                    });
                    if ok && !lists[x].contains(&(class, cid)) {
                        lists[x].push((class, cid));
                    }
                }
            }
        }

        // (4) Maximal matching in O(log n) proposal stages.
        let stages = 2 * ((n.max(2) as f64).log2().ceil() as usize) + 2;
        let mut c2: Vec<Option<u32>> = vec![None; n];
        let mut is_matched = vec![false; t * n]; // by comp_key
        let mut matched = 0usize;
        for _stage in 0..stages {
            // Unmatched type-2 nodes propose to their best random option.
            // proposal value = (random 31 bits) << 32 | proposer id.
            let mut proposals: Vec<Option<(u32, u64, u64)>> = vec![None; n];
            let mut any = false;
            for x in 0..n {
                if c2[x].is_some() || lists[x].is_empty() {
                    continue;
                }
                let (mut best, mut best_val) = ((0u32, 0u64), 0u64);
                for &(class, cid) in &lists[x] {
                    let r = (rngs[x].gen::<u32>() as u64 >> 1) << 32 | x as u64;
                    if r > best_val {
                        best_val = r;
                        best = (class, cid);
                    }
                }
                proposals[x] = Some((best.0, best.1, best_val));
                any = true;
            }
            if !any {
                break;
            }
            sim.charge_rounds(1); // proposal meta-round

            // Old nodes adjacent to proposers seed the component-wide max.
            let mut max_tables = zeroed.clone();
            for x in 0..n {
                if let Some((class, cid, val)) = proposals[x] {
                    for y in closed(x) {
                        if let Some(j) = entry(y, class, cid) {
                            max_tables[y][j].1 = max_tables[y][j].1.max(val);
                        }
                    }
                }
            }
            let accepted = multikey_flood(sim, max_tables, Combine::Max)?;
            sim.charge_rounds(1); // acceptance announcement meta-round

            // Winners join; losers prune accepted components from lists.
            for x in 0..n {
                if let Some((class, cid, val)) = proposals[x] {
                    let key = comp_key(class, cid) as usize;
                    // x hears the accepted value from any adjacent member.
                    let heard = closed(x)
                        .filter_map(|y| entry(y, class, cid).map(|j| accepted[y][j].1))
                        .max()
                        .unwrap_or(0);
                    if heard == val && !is_matched[key] {
                        c2[x] = Some(class);
                        is_matched[key] = true;
                        matched += 1;
                    }
                }
            }
            // Prune matched components from every list.
            for x in 0..n {
                lists[x].retain(|&(class, cid)| !is_matched[comp_key(class, cid) as usize]);
            }
        }
        // Unmatched type-2 nodes pick random classes.
        for x in 0..n {
            let c = match c2[x] {
                Some(c) => c,
                None => rngs[x].gen_range(0..t) as u32,
            };
            class_of[layout.vid(x, layer, VType::T2)] = Some(c);
            c2[x] = Some(c);
        }

        // Finalize the layer locally.
        for v in 0..n {
            add_class(&mut old_classes, v, c1[v]);
            add_class(&mut old_classes, v, c3[v]);
            add_class(&mut old_classes, v, c2[v].unwrap());
        }

        // The next layer's step (1) gives this layer's excess; after the
        // last layer a driver-side probe does (not a protocol step, so
        // not charged).
        let tables = class_tables(&old_classes);
        comp = if layer + 1 < layers {
            multikey_flood(sim, tables, Combine::Min)?
        } else {
            let mut probe = Simulator::new(&graph, Model::VCongest).with_engine(sim.engine());
            multikey_flood(&mut probe, tables, Combine::Min)?
        };
        comps = components_per_class(&comp, t);
        trace.push(LayerTrace {
            layer,
            excess_before,
            excess_after: excess(&comps),
            matched,
            deactivated: flagged.len(),
        });
    }

    // Projection.
    let mut classes: Vec<Vec<NodeId>> = vec![Vec::new(); t];
    for v in 0..n {
        for &c in &old_classes[v] {
            classes[c as usize].push(v);
        }
    }
    Ok(CdsPacking {
        layout,
        num_classes: t,
        class_of,
        classes,
        trace,
    })
}

/// `N_i`, the number of components of each class `i < t`, from per-node
/// component tables (a sort and dedup of their `(class, comp)` pairs).
fn components_per_class(comp: &[Vec<(u64, u64)>], t: usize) -> Vec<usize> {
    let mut pairs: Vec<(u64, u64)> = comp.iter().flatten().copied().collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut count = vec![0; t];
    for (class, _) in pairs {
        count[class as usize] += 1;
    }
    count
}

/// The excess `Σ_i max(0, N_i − 1)`.
fn excess(comps: &[usize]) -> usize {
    comps.iter().map(|c| c.saturating_sub(1)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cds::verify::{verify_centralized, VerifyOutcome};
    use decomp_graph::generators;

    #[test]
    fn distributed_packing_classes_are_cds() {
        let g = generators::harary(12, 48);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(12, 3)).unwrap();
        assert!(p.num_classes() >= 2);
        assert_eq!(verify_centralized(&g, &p.classes), VerifyOutcome::Pass);
        assert!(sim.stats().rounds > 0);
        assert!(sim.stats().messages > 0);
    }

    #[test]
    fn hypercube_distributed() {
        let g = generators::hypercube(5); // 32 nodes, k = 5
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(5, 7)).unwrap();
        assert_eq!(verify_centralized(&g, &p.classes), VerifyOutcome::Pass);
    }

    #[test]
    fn single_class_any_connected_graph() {
        let g = generators::random_connected(24, 8, 5);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_classes(1, 2)).unwrap();
        assert_eq!(verify_centralized(&g, &p.classes), VerifyOutcome::Pass);
    }

    #[test]
    fn excess_never_increases() {
        let g = generators::harary(8, 40);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(8, 1)).unwrap();
        for tr in &p.trace {
            assert!(
                tr.excess_after <= tr.excess_before,
                "layer {}: {} -> {}",
                tr.layer,
                tr.excess_before,
                tr.excess_after
            );
        }
        assert_eq!(p.trace.last().unwrap().excess_after, 0);
    }

    #[test]
    fn multiplicity_logarithmic() {
        let g = generators::harary(10, 50);
        let mut sim = Simulator::new(&g, Model::VCongest);
        let p = cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(10, 9)).unwrap();
        assert!(p.max_real_multiplicity() <= 3 * p.layout.layers());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::harary(6, 30);
        let run = |seed| {
            let mut sim = Simulator::new(&g, Model::VCongest);
            cds_packing_distributed(&mut sim, &CdsPackingConfig::with_known_k(6, seed))
                .unwrap()
                .classes
        };
        assert_eq!(run(4), run(4));
    }
}
