//! Test-support crate: the actual integration tests live in the
//! sibling `tests/` directory of this package and span every crate in
//! the workspace.

use crossbid_crossflow::SchedLog;

/// What the golden files pin of a scheduler log: its event count and
/// FNV-1a over its debug rendering.
pub fn log_digest(log: &SchedLog) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for e in log.events() {
        for b in format!("{e:?}").bytes() {
            hash = (hash ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{} events, fnv {hash:016x}", log.len())
}
