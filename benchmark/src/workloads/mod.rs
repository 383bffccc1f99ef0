//! The four workloads. Each stresses different layers, so that for any
//! optimisation one workload exercises its mechanism and another bypasses
//! it (see the README's interaction notes). No workspace symbols: the
//! program is reached through [`crate::api`] alone.

mod rules_wide;
mod serve_dense;
mod sim_table1;
mod tree_tcp;

use crate::api::RoundLoop;
use crate::harness::Workload;
use crate::manifest::{RULES_WIDE, SERVE_DENSE, SIM_TABLE1, TREE_TCP};
use crate::trace::Tracer;

/// Prepares workload `name` from `seed` (the load generator's own data
/// synthesis happens here, once).
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        SIM_TABLE1 => Box::new(sim_table1::SimTable1::prepare(seed)),
        SERVE_DENSE => Box::new(serve_dense::ServeDense::prepare(seed)),
        RULES_WIDE => Box::new(rules_wide::RulesWide::prepare(seed)),
        TREE_TCP => Box::new(tree_tcp::TreeTcp::prepare(seed)),
        _ => return None,
    })
}

/// The benchmark's own service round loop: alternate `Transport::poll`
/// and `FlService::handle` until the next `RoundAdvance` goes out — the
/// global model is applied.
///
/// # Panics
///
/// Panics if the transport goes quiet mid-round: the round would never
/// close.
fn drive_round(
    served: &mut impl RoundLoop,
    tr: &mut Tracer,
    poll_span: &'static str,
    handle_span: &'static str,
) {
    let target = served.advances() + 1;
    while served.advances() < target {
        let ev = tr.time(poll_span, 1, || served.poll()).expect("transport went quiet mid-round");
        tr.time(handle_span, 1, || served.handle(ev));
    }
}

/// `rounds` untraced rounds and the goodbyes: a whole run, for the
/// fidelity miniatures.
fn drive_to_end(
    served: &mut impl RoundLoop,
    rounds: usize,
    poll_span: &'static str,
    handle_span: &'static str,
) {
    let mut tr = Tracer::root(false);
    for _ in 0..rounds {
        drive_round(served, &mut tr, poll_span, handle_span);
    }
    drain(served);
}

/// After the last round: serve the peers' goodbyes until the service is
/// finished.
fn drain(served: &mut impl RoundLoop) {
    while !served.finished() {
        let ev = served.poll().expect("transport went quiet before every peer left");
        served.handle(ev);
    }
}
