//! Shared idle-worker pool.
//!
//! The Baseline master ([`crate::baseline::BaselineMaster`], which
//! both runtimes run) keeps a FIFO of idle workers and re-offers a
//! rejected job to the *next* idle worker, preferring any worker other
//! than the one that just rejected it (reject-once, §4).
//!
//! Operations are O(1) (`push`, `contains`, [`IdlePool::pop_preferring_not`])
//! via a membership bitmap over dense worker ids, replacing the
//! linear `iter().position(..)` scans that sat on the offer hot path.
//! Only crash handling ([`IdlePool::remove`]) walks the queue.

use std::collections::VecDeque;

/// FIFO of idle workers with O(1) dedup and a rejector-aware pop.
/// Worker ids are expected to be dense (indices into the roster).
#[derive(Debug, Default, Clone)]
pub struct IdlePool {
    order: VecDeque<u32>,
    member: Vec<bool>,
}

impl IdlePool {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.order.len()
    }

    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    pub fn contains(&self, w: u32) -> bool {
        self.member.get(w as usize).copied().unwrap_or(false)
    }

    /// Register `w` as idle. Duplicate registrations are ignored
    /// (at-least-once delivery can repeat an `Idle` message). Returns
    /// whether the worker was inserted.
    pub fn push(&mut self, w: u32) -> bool {
        if self.contains(w) {
            return false;
        }
        if self.member.len() <= w as usize {
            self.member.resize(w as usize + 1, false);
        }
        self.member[w as usize] = true;
        self.order.push_back(w);
        true
    }

    /// Pop the longest-idle worker, preferring any worker other than
    /// `avoid` (the rejector of the job being re-offered). Falls back
    /// to `avoid` itself when it is the only idle worker — reject-once
    /// guarantees it will accept the rebound. Seniority of a skipped
    /// `avoid` is preserved (it stays at the front).
    pub fn pop_preferring_not(&mut self, avoid: Option<u32>) -> Option<u32> {
        let first = self.order.pop_front()?;
        if Some(first) == avoid {
            if let Some(second) = self.order.pop_front() {
                // Skip the rejector but keep its place in line.
                self.order.push_front(first);
                self.member[second as usize] = false;
                return Some(second);
            }
        }
        self.member[first as usize] = false;
        Some(first)
    }

    /// Remove `w` wherever it is (crash handling). O(n).
    pub fn remove(&mut self, w: u32) {
        if self.contains(w) {
            self.order.retain(|x| *x != w);
            self.member[w as usize] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_dedup() {
        let mut p = IdlePool::new();
        assert!(p.push(2));
        assert!(p.push(0));
        assert!(!p.push(2), "duplicate registration ignored");
        assert_eq!(p.len(), 2);
        assert_eq!(p.pop_preferring_not(None), Some(2));
        assert_eq!(p.pop_preferring_not(None), Some(0));
        assert_eq!(p.pop_preferring_not(None), None);
        assert!(p.is_empty());
    }

    #[test]
    fn popped_worker_can_reregister() {
        let mut p = IdlePool::new();
        p.push(1);
        assert_eq!(p.pop_preferring_not(None), Some(1));
        assert!(!p.contains(1));
        assert!(p.push(1), "worker idles again after finishing");
    }

    #[test]
    fn avoid_prefers_another_worker_and_keeps_seniority() {
        let mut p = IdlePool::new();
        p.push(5);
        p.push(9);
        p.push(3);
        // 5 rejected the job: 9 (next in line) gets it, 5 stays at the
        // front of the queue.
        assert_eq!(p.pop_preferring_not(Some(5)), Some(9));
        assert!(p.contains(5));
        assert_eq!(p.pop_preferring_not(None), Some(5));
        assert_eq!(p.pop_preferring_not(None), Some(3));
    }

    #[test]
    fn lone_rejector_gets_the_rebound() {
        let mut p = IdlePool::new();
        p.push(4);
        assert_eq!(p.pop_preferring_not(Some(4)), Some(4));
        assert!(p.is_empty());
    }

    #[test]
    fn avoid_not_at_front_changes_nothing() {
        let mut p = IdlePool::new();
        p.push(1);
        p.push(2);
        assert_eq!(p.pop_preferring_not(Some(2)), Some(1));
        assert_eq!(p.pop_preferring_not(Some(2)), Some(2), "lone fallback");
    }

    #[test]
    fn remove_handles_crashes() {
        let mut p = IdlePool::new();
        p.push(0);
        p.push(1);
        p.remove(0);
        p.remove(42); // never idle: no-op
        assert!(!p.contains(0));
        assert_eq!(p.pop_preferring_not(None), Some(1));
        assert_eq!(p.pop_preferring_not(None), None);
    }
}
