//! Schedule-exploration harness: replay an SPMD program under permuted
//! message-delivery orders.
//!
//! A mini-loom for the message layer. The runtime's mailboxes are
//! deterministic per `(source, tag)` key, but a *program* can still be wrong
//! in ways only some delivery orders expose: results that depend on arrival
//! timing, receives that deadlock only when a message is late, sends that are
//! never received. [`Explorer`] runs the same closure once per seed under
//! [`crate::SimOptions::checked`] — seeded delivery delays, a deadlock
//! watchdog, and leak verification at rank exit — then cross-checks the
//! outcomes:
//!
//! * any seed that deadlocks is reported with the blocked set;
//! * any seed that strands unreceived messages is reported with the leaks;
//! * two seeds that both complete but return different results flag the
//!   program as order-dependent.
//!
//! ```
//! use vlasov6d_mpisim::sched::Explorer;
//!
//! let report = Explorer::new(3).explore(|c| {
//!     let next = (c.rank() + 1) % c.size();
//!     let prev = (c.rank() + c.size() - 1) % c.size();
//!     c.sendrecv(next, 1, c.rank() as u64, prev, 1)
//! });
//! assert!(report.ok(), "{}", report.summary());
//! ```

use crate::comm::{Comm, SimError, SimOptions, Universe};
use std::fmt::Debug;
use std::time::Duration;

/// Default number of delivery schedules explored.
const DEFAULT_SCHEDULES: u64 = 8;

/// Replays a program under several message-delivery schedules.
#[derive(Debug, Clone)]
pub struct Explorer {
    n_ranks: usize,
    seeds: Vec<u64>,
    timeout: Duration,
}

impl Explorer {
    /// Explorer over `n_ranks` with the default schedule set (seeds
    /// `0..8`) and a 5 s watchdog. Every schedule verifies leaks at rank exit.
    pub fn new(n_ranks: usize) -> Self {
        Self {
            n_ranks,
            seeds: (0..DEFAULT_SCHEDULES).collect(),
            timeout: Duration::from_secs(5),
        }
    }

    /// Replace the schedule seeds.
    pub fn with_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        assert!(!self.seeds.is_empty(), "need at least one schedule");
        self
    }

    /// Replace the deadlock-watchdog timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }

    /// Run `f` once per schedule and collect the outcomes.
    pub fn explore<R, F>(&self, f: F) -> ExplorationReport<R>
    where
        R: Send + PartialEq + Debug,
        F: Fn(&Comm) -> R + Send + Sync,
    {
        let outcomes = self
            .seeds
            .iter()
            .map(|&seed| {
                let opts = SimOptions {
                    verify_leaks: true,
                    deadlock_timeout: Some(self.timeout),
                    schedule_seed: Some(seed),
                };
                let outcome = Universe::run_checked(self.n_ranks, opts, &f).map(|(r, _)| r);
                (seed, outcome)
            })
            .collect();
        ExplorationReport { outcomes }
    }
}

/// Per-seed outcomes of an exploration, plus cross-schedule verdicts.
#[derive(Debug)]
pub struct ExplorationReport<R> {
    /// `(seed, outcome)` for every explored schedule, in exploration order.
    pub outcomes: Vec<(u64, Result<Vec<R>, SimError>)>,
}

impl<R: PartialEq + Debug> ExplorationReport<R> {
    /// Seeds that failed (deadlock, leak or panic), with their errors.
    pub fn failures(&self) -> impl Iterator<Item = (u64, &SimError)> {
        self.outcomes
            .iter()
            .filter_map(|(seed, o)| o.as_ref().err().map(|e| (*seed, e)))
    }

    /// First pair of seeds that both completed but produced different
    /// results — evidence the program is order-dependent.
    pub fn divergence(&self) -> Option<(u64, u64)> {
        let mut completed = self
            .outcomes
            .iter()
            .filter_map(|(seed, o)| o.as_ref().ok().map(|r| (*seed, r)));
        let (first_seed, reference) = completed.next()?;
        completed
            .find(|(_, r)| *r != reference)
            .map(|(seed, _)| (first_seed, seed))
    }

    /// True when every schedule completed and all agree on the result.
    pub fn ok(&self) -> bool {
        self.outcomes.iter().all(|(_, o)| o.is_ok()) && self.divergence().is_none()
    }

    /// Human-readable verdict, one line per defect.
    pub fn summary(&self) -> String {
        let mut out = format!("{} schedule(s) explored", self.outcomes.len());
        for (seed, err) in self.failures() {
            out.push_str(&format!("\n  seed {seed}: {err}"));
        }
        if let Some((a, b)) = self.divergence() {
            out.push_str(&format!(
                "\n  order-dependent results: seed {a} and seed {b} disagree"
            ));
        }
        if self.ok() {
            out.push_str(": all completed, results agree");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_ring_survives_all_schedules() {
        let report = Explorer::new(4)
            .with_timeout(Duration::from_secs(2))
            .explore(|c| {
                let next = (c.rank() + 1) % c.size();
                let prev = (c.rank() + c.size() - 1) % c.size();
                c.sendrecv(next, 1, c.rank() as u64, prev, 1)
            });
        assert!(report.ok(), "{}", report.summary());
        for (_, o) in &report.outcomes {
            assert_eq!(o.as_ref().expect("ok"), &vec![3, 0, 1, 2]);
        }
    }

    #[test]
    fn miswired_tags_deadlock_under_exploration_instead_of_hanging() {
        // Seeded miswiring: rank 1 listens on tag 8 but rank 0 sends tag 7 —
        // the harness flags the wedge on every schedule.
        let report = Explorer::new(2)
            .with_seeds([0, 1])
            .with_timeout(Duration::from_millis(150))
            .explore(|c| {
                if c.rank() == 0 {
                    c.send(1, 7, 1u64);
                    0
                } else {
                    c.recv::<u64>(0, 8)
                }
            });
        assert!(!report.ok());
        assert_eq!(report.failures().count(), 2);
        for (_, err) in report.failures() {
            assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
        }
    }

    #[test]
    fn leaked_message_flagged_at_rank_exit() {
        let report = Explorer::new(2)
            .with_seeds([3])
            .with_timeout(Duration::from_secs(2))
            .explore(|c| {
                if c.rank() == 0 {
                    c.send(1, 2, 5u64);
                    c.send(1, 3, 6u64); // tag 3 is never received
                }
                if c.rank() == 1 {
                    c.recv::<u64>(0, 2)
                } else {
                    0
                }
            });
        let (_, err) = report.failures().next().expect("leak reported");
        let SimError::Leak { leaks } = err else {
            panic!("expected leak, got {err}");
        };
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].tag, 3);
        assert!(report.summary().contains("still in rank 1's mailbox"));
    }

    #[test]
    fn split_phase_overlap_is_schedule_independent() {
        // The overlap motif: post the ring exchange, "compute" while the
        // messages are in flight (polling with `test` so completion timing
        // varies by schedule), then wait. The *result* must not depend on
        // when the deliveries land.
        let report = Explorer::new(4)
            .with_seeds(0..12)
            .with_timeout(Duration::from_secs(2))
            .explore(|c| {
                let next = (c.rank() + 1) % c.size();
                let prev = (c.rank() + c.size() - 1) % c.size();
                let mut acc = 0u64;
                for round in 0..4u64 {
                    let s = c.isend(next, 30 + round, c.rank() as u64 + round);
                    let mut r = c.irecv::<u64>(prev, 30 + round);
                    let mut interior = 0u64;
                    while !r.test() {
                        interior = interior.wrapping_add(1); // in-flight work
                    }
                    acc = acc.wrapping_mul(31).wrapping_add(r.wait());
                    s.wait();
                    let _ = interior; // timing-dependent, never in the result
                }
                acc
            });
        assert!(report.ok(), "{}", report.summary());
    }

    #[test]
    fn dropped_wait_is_caught_not_hung() {
        // Rank 1 posts its receive and forgets to wait on it: run_checked
        // must report the dropped request (not hang, not pass).
        let opts = SimOptions {
            verify_leaks: true,
            deadlock_timeout: Some(Duration::from_secs(2)),
            schedule_seed: Some(3),
        };
        let err = Universe::run_checked(2, opts, |c| {
            let other = 1 - c.rank();
            let s = c.isend(other, 1, c.rank() as u64);
            let r = c.irecv::<u64>(other, 1);
            s.wait();
            if c.rank() == 0 {
                let _ = r.wait();
            } else {
                drop(r); // the forgotten wait
            }
        })
        .expect_err("dropped wait must fail teardown");
        let SimError::RequestLeak { leaks } = err else {
            panic!("expected request leak, got {err}");
        };
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].rank, 1);
        assert_eq!(leaks[0].tag, 1);
    }

    #[test]
    fn dropped_wait_is_flagged_on_every_schedule() {
        let report = Explorer::new(2)
            .with_seeds(0..6)
            .with_timeout(Duration::from_secs(2))
            .explore(|c| {
                let other = 1 - c.rank();
                let s = c.isend(other, 4, 1u64);
                let r = c.irecv::<u64>(other, 4);
                s.wait();
                if c.rank() == 0 {
                    r.wait()
                } else {
                    drop(r); // dropped request on rank 1, every schedule
                    0
                }
            });
        assert!(!report.ok());
        assert_eq!(report.failures().count(), 6);
        for (_, err) in report.failures() {
            assert!(matches!(err, SimError::RequestLeak { .. }), "{err}");
        }
    }

    #[test]
    fn order_dependent_results_detected() {
        // The result depends on whether rank 1's message has been *delivered*
        // by the time rank 0 probes with `try_recv` — exactly the class of
        // bug the schedule delays exist to expose. Under some seeds the
        // message is held back past the probe, under others it is already
        // visible; the cross-schedule comparison must flag the disagreement.
        let report = Explorer::new(2)
            .with_seeds(0..16)
            .with_timeout(Duration::from_secs(2))
            .explore(|c| {
                if c.rank() == 1 {
                    c.send(0, 1, 7u64);
                    c.barrier();
                    false
                } else {
                    c.barrier(); // the send has been issued, maybe not delivered
                                 // Advance the schedule clock a little so roughly half the
                                 // seeds have released the message by the probe.
                    for i in 0..8u64 {
                        c.send(0, 50 + i, 0u8);
                    }
                    let early = c.try_recv::<u64>(1, 1).is_some();
                    for i in 0..8u64 {
                        let _ = c.recv::<u8>(0, 50 + i);
                    }
                    if !early {
                        let _ = c.recv::<u64>(1, 1); // drain so teardown stays clean
                    }
                    early
                }
            });
        assert!(report.failures().count() == 0, "{}", report.summary());
        assert!(
            report.divergence().is_some(),
            "try_recv timing never diverged across 16 schedules: {}",
            report.summary()
        );
        assert!(!report.ok());
    }
}
