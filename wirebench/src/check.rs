//! Answer checks, run outside every timed window.

use rt_service::{Response, ResponsePayload, ServiceError};
use rt_stg::explore;

use crate::workload::{Expect, Item};

/// Why one reply does not count as a correct answer.
pub fn check(item: &Item, reply: &Result<Response, ServiceError>) -> Result<(), String> {
    let response = reply
        .as_ref()
        .map_err(|err| format!("typed error: {err}"))?;
    match (&item.expect, &response.payload) {
        (Expect::Reach(reference), ResponsePayload::Summary(outcome)) => {
            if outcome.markings != reference.markings {
                return Err(format!(
                    "summary markings {} != explicit {}",
                    outcome.markings, reference.markings
                ));
            }
        }
        (Expect::Reach(reference), ResponsePayload::CscCheck(outcome)) => {
            let got = (
                outcome.markings,
                outcome.conflicts,
                outcome.deadlock_free,
                outcome.strongly_connected,
            );
            let want = (
                reference.markings,
                reference.conflicts,
                reference.deadlock_free,
                reference.strongly_connected,
            );
            if got != want {
                return Err(format!(
                    "csc_check (markings, conflicts, deadlock_free, scc) {got:?} != explicit {want:?}"
                ));
            }
        }
        (Expect::Resolve { max_signals }, ResponsePayload::ResolveCsc(outcome)) => {
            if outcome.truncated {
                return Err("resolution truncated".into());
            }
            if outcome.inserted.len() > *max_signals {
                return Err(format!(
                    "{} signals inserted, max {max_signals}",
                    outcome.inserted.len()
                ));
            }
            let sg =
                explore(&outcome.stg).map_err(|err| format!("result does not explore: {err}"))?;
            let conflicts = sg.csc_conflicts().len();
            if conflicts != 0 {
                return Err(format!("result keeps {conflicts} explicit CSC conflicts"));
            }
        }
        (Expect::Verify(verdict), ResponsePayload::Verify(report)) => {
            if report.verdict != *verdict {
                return Err(format!("verdict {:?} != known {verdict:?}", report.verdict));
            }
        }
        (_, payload) => {
            return Err(format!(
                "{} request answered with kind {}",
                item.kind.name(),
                payload.discriminant()
            ))
        }
    }
    Ok(())
}
