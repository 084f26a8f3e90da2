//! Route and agreement pins for [`ReachBackend::Auto`]: whichever
//! analyser the route picks, `summary` and `csc_check` give the same
//! answer the explicit engine gives, and a route past the explicit cap
//! is never recorded as a degradation.

use rt_stg::engine::{ReachBackend, ReachEngine, AUTO_EXPLICIT_STATES};
use rt_stg::{corpus, models, Budget, Edge, SignalKind, Stg};

/// `k` independent four-phase handshakes: `4^k` reachable markings, all
/// with distinct codes, so no CSC conflicts, no deadlock, and every
/// marking returns to the initial one.
fn handshakes(k: usize) -> Stg {
    let mut stg = Stg::new(format!("handshakes{k}"));
    for i in 0..k {
        let a = stg
            .add_signal(format!("a{i}"), SignalKind::Input)
            .expect("fresh signal");
        let b = stg
            .add_signal(format!("b{i}"), SignalKind::Output)
            .expect("fresh signal");
        let ap = stg.transition_for(a, Edge::Rise);
        let bp = stg.transition_for(b, Edge::Rise);
        let am = stg.transition_for(a, Edge::Fall);
        let bm = stg.transition_for(b, Edge::Fall);
        stg.arc(ap, bp);
        stg.arc(bp, am);
        stg.arc(am, bm);
        stg.marked_arc(bm, ap);
    }
    stg
}

/// Nets small enough for the symbolic CSC detector in a debug build:
/// the corpus sweep's narrow entries plus a sample of every generated
/// family (`ring_stg`, `chain_stg`, `fabric_stg`,
/// `adder_rt_with_links`) at the sizes the service sees.
fn narrow_nets() -> Vec<(String, Stg)> {
    let mut out: Vec<(String, Stg)> = corpus::sweep()
        .into_iter()
        .filter(|(_, stg)| stg.signal_count() <= 16 && stg.net().place_count() <= 64)
        .collect();
    for (n, k) in [(2, 1), (3, 2), (5, 1), (5, 4), (7, 3), (9, 1), (9, 8)] {
        out.push((format!("ring{n}_{k}"), models::ring_stg(n, k)));
    }
    for n in [1, 3, 8] {
        out.push((format!("chain{n}"), models::chain_stg(n)));
    }
    for (stages, depth) in [(2, 0), (2, 7), (3, 2), (5, 1)] {
        out.push((
            format!("adder{stages}_{depth}"),
            corpus::adder_rt_with_links(stages, depth),
        ));
    }
    for (rows, cols, depth) in [(2, 2, 0), (2, 2, 3), (2, 3, 1)] {
        out.push((
            format!("fabric{rows}x{cols}_{depth}"),
            corpus::fabric_stg(rows, cols, depth),
        ));
    }
    out
}

#[test]
fn auto_answers_under_the_cap_explicitly() {
    let mut auto = ReachEngine::new(ReachBackend::Auto);
    for (name, stg) in narrow_nets() {
        let reference = ReachEngine::explicit()
            .csc_check(&stg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let check = auto
            .csc_check(&stg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(check, reference, "{name}");
        let summary = auto.summary(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(summary.markings, reference.markings, "{name}");
        assert_eq!(summary.bdd_nodes, 0, "{name}: answered explicitly");
    }
    let stats = auto.stats();
    assert_eq!(stats.explicit_answers, 2 * narrow_nets().len());
    assert_eq!(stats.symbolic_answers, 0);
    assert!(auto.manager().is_none(), "no query needed a BDD manager");
    assert!(stats.degradations.is_empty());
}

#[test]
fn auto_routes_past_a_small_state_budget_symbolically_and_agrees() {
    for (name, stg) in narrow_nets() {
        let reference = ReachEngine::explicit()
            .csc_check(&stg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let explicit_summary = ReachEngine::explicit()
            .summary(&stg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // A soft budget below the net's size: Auto's explicit attempt
        // blows it on the first rounds and the symbolic path answers.
        let budget = Budget::default().with_max_states(1);
        let mut auto = ReachEngine::new(ReachBackend::Auto).with_budget(budget);
        let check = auto
            .csc_check(&stg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(check, reference, "{name}: the symbolic route agrees");
        let summary = auto.summary(&stg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(summary.markings, explicit_summary.markings, "{name}");
        assert_eq!(
            summary.iterations, explicit_summary.iterations,
            "{name}: BFS layers are route-independent"
        );
        assert!(summary.bdd_nodes > 0, "{name}: answered symbolically");
        let stats = auto.stats();
        assert_eq!((stats.explicit_answers, stats.symbolic_answers), (0, 2));
        assert!(
            stats.degradations.is_empty(),
            "{name}: Auto's route is not a degradation"
        );
    }
}

#[test]
fn auto_answers_past_the_cap_symbolically() {
    let stg = handshakes(9);
    let markings = 4u64.pow(9);
    assert!(markings > AUTO_EXPLICIT_STATES as u64);
    let mut auto = ReachEngine::new(ReachBackend::Auto);
    let summary = auto.summary(&stg).expect("summary");
    assert_eq!(summary.markings, markings);
    let symbolic = ReachEngine::symbolic().summary(&stg).expect("symbolic");
    assert_eq!(summary, symbolic, "the symbolic backend's own answer");
    let check = auto.csc_check(&stg).expect("csc_check");
    assert_eq!(check.markings, markings);
    assert_eq!(check.conflicts, 0);
    assert!(check.deadlock_free);
    assert!(check.strongly_connected);
    let stats = auto.stats();
    assert_eq!((stats.explicit_answers, stats.symbolic_answers), (0, 2));
    assert!(stats.degradations.is_empty());

    // The same family under the cap is answered explicitly, with the
    // same facts the product formula gives.
    let small = handshakes(4);
    let check = auto.csc_check(&small).expect("small csc_check");
    assert_eq!(check.markings, 256);
    assert_eq!(check.conflicts, 0);
    assert!(check.deadlock_free && check.strongly_connected);
    assert_eq!(auto.stats().explicit_answers, 1);
}

#[test]
fn explicit_and_symbolic_iterations_agree() {
    // `SummaryOutcome` carries `iterations`, and a service reply must
    // not depend on which analyser Auto picked.
    let mut nets = narrow_nets();
    nets.extend(corpus::wide());
    for (n, k) in [(24, 1), (24, 23), (40, 1), (52, 51)] {
        nets.push((format!("ring{n}_{k}"), models::ring_stg(n, k)));
    }
    nets.push(("chain15".into(), models::chain_stg(15)));
    for (stages, depth) in [(8, 2), (12, 5), (20, 3), (26, 0)] {
        nets.push((
            format!("adder{stages}_{depth}"),
            corpus::adder_rt_with_links(stages, depth),
        ));
    }
    for (rows, cols) in [(2, 6), (6, 2), (4, 2)] {
        nets.push((
            format!("fabric{rows}x{cols}_0"),
            corpus::fabric_stg(rows, cols, 0),
        ));
    }
    let mut explicit = ReachEngine::explicit();
    let mut symbolic = ReachEngine::symbolic();
    for (name, stg) in &nets {
        let e = explicit
            .summary(stg)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        let s = symbolic
            .summary(stg)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        assert_eq!(e.markings, s.markings, "{name}");
        assert_eq!(e.iterations, s.iterations, "{name}: BFS layers differ");
        // Pooled managers grow with every net; start each one cold.
        symbolic.reset();
    }
}
