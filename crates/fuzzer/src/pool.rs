//! Test pools: the queues fuzzers schedule tests from.

use std::collections::VecDeque;
use std::fmt;

use crate::testcase::TestCase;

/// A FIFO pool of pending test cases.
///
/// TheHuzz schedules tests strictly first-in-first-out from a single global
/// pool — the static strategy the paper criticises. MABFuzz keeps one pool
/// per arm and lets the bandit choose which pool to pop from; the pool
/// structure itself is identical.
#[derive(Debug, Clone, Default)]
pub struct TestPool {
    queue: VecDeque<TestCase>,
}

impl TestPool {
    /// Creates an empty pool.
    pub fn new() -> TestPool {
        TestPool::default()
    }

    /// Returns the number of pending tests.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Returns `true` when no tests are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Appends a test to the back of the queue.
    pub fn push(&mut self, test: TestCase) {
        self.queue.push_back(test);
    }

    /// Appends many tests.
    pub fn push_all(&mut self, tests: impl IntoIterator<Item = TestCase>) {
        for test in tests {
            self.push(test);
        }
    }

    /// Pops the oldest pending test (FIFO order).
    pub fn pop(&mut self) -> Option<TestCase> {
        self.queue.pop_front()
    }

    /// Returns the oldest pending test without removing it.
    pub fn peek(&self) -> Option<&TestCase> {
        self.queue.front()
    }

    /// Removes every pending test.
    pub fn clear(&mut self) {
        self.queue.clear();
    }

    /// Returns an iterator over the pending tests in FIFO order.
    pub fn iter(&self) -> impl Iterator<Item = &TestCase> {
        self.queue.iter()
    }
}

impl fmt::Display for TestPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} pending tests", self.len())
    }
}

impl Extend<TestCase> for TestPool {
    fn extend<T: IntoIterator<Item = TestCase>>(&mut self, iter: T) {
        self.push_all(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testcase::TestId;
    use riscv::{Instr, Program};

    fn test(id: u64) -> TestCase {
        TestCase::seed(TestId(id), Program::from_instrs(vec![Instr::nop()]))
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut pool = TestPool::new();
        pool.push_all([test(1), test(2), test(3)]);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.peek().unwrap().id, TestId(1));
        assert_eq!(pool.pop().unwrap().id, TestId(1));
        assert_eq!(pool.pop().unwrap().id, TestId(2));
        assert_eq!(pool.pop().unwrap().id, TestId(3));
        assert!(pool.pop().is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn clear_and_iterate() {
        let mut pool = TestPool::new();
        pool.extend([test(5), test(6)]);
        let ids: Vec<u64> = pool.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![5, 6]);
        pool.clear();
        assert!(pool.is_empty());
        assert!(pool.to_string().contains("0 pending"));
    }
}
