//! Test-support crate: the actual integration tests live in the
//! sibling `tests/` directory of this package and span every crate in
//! the workspace.

use crossbid_crossflow::SchedLog;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `text`, continuing from `hash`.
fn fnv(hash: u64, text: &str) -> u64 {
    text.bytes()
        .fold(hash, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// What the golden files pin of a scheduler log: its event count and
/// FNV-1a over its debug rendering.
pub fn log_digest(log: &SchedLog) -> String {
    let hash = log
        .events()
        .fold(FNV_OFFSET, |h, e| fnv(h, &format!("{e:?}")));
    format!("{} events, fnv {hash:016x}", log.len())
}

/// FNV-1a of one rendered line, as the golden files spell it.
pub fn text_digest(text: &str) -> String {
    format!("fnv {:016x}", fnv(FNV_OFFSET, text))
}
