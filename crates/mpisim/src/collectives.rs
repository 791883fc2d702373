//! Collective operations built on the point-to-point layer.
//!
//! All collectives route through rank 0 with linear fan-in/fan-out. At the
//! ≤ 128 in-process ranks this runtime hosts, tree algorithms buy nothing; the
//! performance model prices collectives with proper log-depth trees when
//! extrapolating to Fugaku scale (that is a *model* concern, not a runtime
//! one). Every collective consumes one internal tag from the per-comm
//! sequence, so user tags and successive collectives never collide.

use crate::comm::{Comm, Payload};

impl Comm {
    /// Broadcast `value` from `root` to every rank; returns the value everywhere.
    pub fn broadcast<T: Payload + Clone>(&self, root: usize, value: Option<T>) -> T {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let v = value.expect("root must supply the broadcast value");
            for dst in 0..self.size() {
                if dst != root {
                    self.send_internal(dst, tag, v.clone());
                }
            }
            v
        } else {
            self.recv_internal(root, tag)
        }
    }

    /// Reduce with a binary op; the result lands on `root` (`None` elsewhere).
    /// `op` must be associative and commutative (floating-point reductions are
    /// evaluated in rank order on the root, so results are deterministic).
    pub fn reduce<T: Payload + Clone, F: Fn(T, T) -> T>(
        &self,
        root: usize,
        value: T,
        op: F,
    ) -> Option<T> {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let mut acc = value;
            for src in 0..self.size() {
                if src != root {
                    let v: T = self.recv_internal(src, tag);
                    acc = op(acc, v);
                }
            }
            Some(acc)
        } else {
            self.send_internal(root, tag, value);
            None
        }
    }

    /// Allreduce: reduce to rank 0, broadcast the result back.
    pub fn allreduce<T: Payload + Clone, F: Fn(T, T) -> T>(&self, value: T, op: F) -> T {
        let reduced = self.reduce(0, value, op);
        self.broadcast(0, reduced)
    }

    /// Scalar sum.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Scalar max.
    pub fn allreduce_max(&self, value: f64) -> f64 {
        self.allreduce(value, f64::max)
    }

    /// Scalar min.
    pub fn allreduce_min(&self, value: f64) -> f64 {
        self.allreduce(value, f64::min)
    }

    /// Gather everyone's value on `root` (indexed by rank; `None` elsewhere).
    pub fn gather<T: Payload + Clone>(&self, root: usize, value: T) -> Option<Vec<T>> {
        let tag = self.next_collective_tag();
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for src in 0..self.size() {
                if src != root {
                    out[src] = Some(self.recv_internal(src, tag));
                }
            }
            Some(
                out.into_iter()
                    .enumerate()
                    .map(|(src, v)| {
                        v.unwrap_or_else(|| {
                            panic!(
                                "gather on root {root} (tag {tag}): no contribution \
                                 recorded from rank {src}"
                            )
                        })
                    })
                    .collect(),
            )
        } else {
            self.send_internal(root, tag, value);
            None
        }
    }

    /// Gather everyone's value on every rank.
    pub fn allgather<T: Payload + Clone>(&self, value: T) -> Vec<T> {
        let gathered = self.gather(0, value);
        self.broadcast(0, gathered)
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::Universe;

    #[test]
    fn broadcast_reaches_everyone() {
        let out = Universe::run(4, |c| {
            let v = if c.rank() == 2 {
                Some(vec![1.0f64, 2.0, 3.0])
            } else {
                None
            };
            c.broadcast(2, v)
        });
        for v in out {
            assert_eq!(v, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn allreduce_sum_matches_closed_form() {
        let n = 6;
        let out = Universe::run(n, |c| c.allreduce_sum(c.rank() as f64));
        let expect = (n * (n - 1) / 2) as f64;
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = Universe::run(5, |c| {
            let v = (c.rank() as f64 - 2.0).abs();
            (c.allreduce_min(v), c.allreduce_max(v))
        });
        for (mn, mx) in out {
            assert_eq!(mn, 0.0);
            assert_eq!(mx, 2.0);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let out = Universe::run(4, |c| c.gather(1, c.rank() as u64));
        assert!(out[0].is_none());
        assert_eq!(out[1].as_ref().unwrap(), &vec![0, 1, 2, 3]);
    }

    #[test]
    fn allgather_everywhere() {
        let out = Universe::run(3, |c| c.allgather((c.rank() * 10) as u64));
        for v in out {
            assert_eq!(v, vec![0, 10, 20]);
        }
    }

    #[test]
    fn repeated_collectives_do_not_collide() {
        let out = Universe::run(3, |c| {
            let mut acc = 0.0;
            for i in 0..50 {
                acc += c.allreduce_sum(i as f64);
            }
            acc
        });
        let expect: f64 = (0..50).map(|i| 3.0 * i as f64).sum();
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn mixed_p2p_and_collectives() {
        let out = Universe::run(2, |c| {
            if c.rank() == 0 {
                c.send(1, 5, 42u64);
            }
            let sum = c.allreduce_sum(1.0);
            let recvd = if c.rank() == 1 {
                c.recv::<u64>(0, 5)
            } else {
                0
            };
            (sum, recvd)
        });
        assert_eq!(out[0], (2.0, 0));
        assert_eq!(out[1], (2.0, 42));
    }
}
