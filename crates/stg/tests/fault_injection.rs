//! Deterministic fault-injection coverage for the engine's failure
//! edges (compiled only with `--features fault-injection`).
//!
//! Each test arms one fault from `rt_stg::faults`, drives a normal
//! analysis into it, and then — *while still holding the arm guard, so
//! fault tests never interleave* — re-runs the same analysis with the
//! shots spent and asserts the engine reproduces a fresh engine's
//! answer bit-for-bit. That is the whole robustness contract: injected
//! budget exhaustion and cancellation must neither hang, abort, nor
//! leave any state behind.
//!
//! Every test also holds [`rt_stg::faults::suite`] for its whole run:
//! the fresh references some tests compute *before* arming poll the
//! same hooks, and must not consume a sibling test's armed shots.

#![cfg(feature = "fault-injection")]

use rt_stg::engine::{Degradation, ReachBackend, ReachEngine};
use rt_stg::faults::{arm, suite, Fault};
use rt_stg::{explore, models, StgError};

#[test]
fn injected_cancellation_stops_explicit_walks_within_one_round() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let reference = explore(&stg).expect("fresh explore");
    for round in [0usize, 2] {
        let _guard = arm(Fault::CancelAt { round }, 1);
        let mut engine = ReachEngine::explicit();
        let result = engine.state_graph(&stg);
        assert!(
            matches!(result, Err(StgError::Cancelled)),
            "round={round}: {result:?}"
        );
        let sg = engine.state_graph(&stg).expect("reusable after cancel");
        assert_eq!(sg.state_count(), reference.state_count());
        assert_eq!(sg.arc_count(), reference.arc_count());
    }
}

#[test]
fn injected_state_exhaustion_stops_explicit_walks_within_one_round() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let reference = explore(&stg).expect("fresh explore");
    let _guard = arm(Fault::ExhaustStatesAt { round: 1 }, 1);
    let mut engine = ReachEngine::explicit();
    let result = engine.state_graph(&stg);
    assert!(
        matches!(result, Err(StgError::StateBudgetExceeded { .. })),
        "{result:?}"
    );
    let sg = engine.state_graph(&stg).expect("reusable after exhaustion");
    assert_eq!(sg.state_count(), reference.state_count());
    assert_eq!(sg.arc_count(), reference.arc_count());
}

#[test]
fn injected_state_exhaustion_routes_auto_symbolically_but_degrades_explicit() {
    let _suite = suite();
    let stg = models::fifo_stg();
    for backend in [ReachBackend::Auto, ReachBackend::Explicit] {
        // Two shots: one blows the summary's explicit walk, one the
        // csc_check's. Auto treats that as a route, not a degradation;
        // Explicit records the fallback it always has.
        let _guard = arm(Fault::ExhaustStatesAt { round: 1 }, 2);
        let mut engine = ReachEngine::new(backend);
        let summary = engine.summary(&stg);
        let check = engine.csc_check(&stg);
        // Shots spent: fresh references, still under the guard.
        assert_eq!(
            summary,
            ReachEngine::symbolic().summary(&stg),
            "{backend:?}"
        );
        assert_eq!(
            check,
            ReachEngine::explicit().csc_check(&stg),
            "{backend:?}"
        );
        let stats = engine.stats();
        assert_eq!(
            (stats.explicit_answers, stats.symbolic_answers),
            (0, 2),
            "{backend:?}"
        );
        let expected = match backend {
            ReachBackend::Explicit => vec![Degradation::ExplicitToSymbolic; 2],
            _ => Vec::new(),
        };
        assert_eq!(stats.degradations, expected, "{backend:?}");
    }
}

#[test]
fn injected_symbolic_faults_stop_the_fixpoint_and_spare_the_manager() {
    let _suite = suite();
    let stg = models::fifo_stg();
    let mut fresh = ReachEngine::symbolic();
    let reference = fresh.symbolic_set(&stg).expect("fresh symbolic set");

    let _guard = arm(Fault::ExhaustNodesAt { iteration: 1 }, 1);
    let mut engine = ReachEngine::symbolic();
    let result = engine.symbolic_set(&stg);
    assert!(
        matches!(result, Err(StgError::NodeBudgetExceeded { .. })),
        "{result:?}"
    );
    let after = engine
        .symbolic_set(&stg)
        .expect("manager reusable after injected exhaustion");
    assert_eq!(after.markings, reference.markings);
    assert_eq!(after.iterations, reference.iterations);
    drop(_guard);

    let _guard = arm(Fault::CancelAt { round: 0 }, 1);
    let mut engine = ReachEngine::symbolic();
    assert!(matches!(
        engine.symbolic_set(&stg),
        Err(StgError::Cancelled)
    ));
    let after = engine
        .symbolic_set(&stg)
        .expect("manager reusable after injected cancel");
    assert_eq!(after.markings, reference.markings);
    assert_eq!(after.iterations, reference.iterations);
}
