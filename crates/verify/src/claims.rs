//! Element-level claim maps: the shared footprint bookkeeping for
//! disjointness and exact-cover proofs.
//!
//! A `ClaimMap` records, for every element of a flat array, which task (if
//! any) has claimed it. Verifiers enumerate each task's declared or observed
//! footprint into the map; the map rejects double claims on the spot and can
//! then certify exact cover. kerncheck uses byte-level variants of this idea
//! for `CommPlan` volumes; racecheck uses it for the per-task write
//! footprints of every parallel region in the workspace, layoutcheck for the
//! (rank, flat) slots on both sides of every repartition.

/// Which task claimed each element of `0..len`, or `NONE`.
pub(crate) struct ClaimMap {
    owner: Vec<u32>,
}

/// Sentinel for "unclaimed".
const NONE: u32 = u32::MAX;

/// A rejected claim: `index` was already claimed by `prior` when `task`
/// claimed it, or lay out of bounds (`prior == None`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClaimConflict {
    pub task: usize,
    pub index: usize,
    pub prior: Option<usize>,
}

impl std::fmt::Display for ClaimConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.prior {
            Some(p) => write!(
                f,
                "index {} claimed by both task {} and task {}",
                self.index, p, self.task
            ),
            None => write!(
                f,
                "task {} claimed out-of-bounds index {}",
                self.task, self.index
            ),
        }
    }
}

impl ClaimMap {
    pub fn new(len: usize) -> ClaimMap {
        assert!(
            len < NONE as usize,
            "claim map limited to u32 tasks/indices"
        );
        ClaimMap {
            owner: vec![NONE; len],
        }
    }

    /// Claim `index` for `task`. Fails on double claims and out-of-bounds
    /// indices — the two ways a partition stops being a partition.
    pub fn claim(&mut self, task: usize, index: usize) -> Result<(), ClaimConflict> {
        match self.owner.get(index) {
            None => Err(ClaimConflict {
                task,
                index,
                prior: None,
            }),
            Some(&p) if p != NONE => Err(ClaimConflict {
                task,
                index,
                prior: Some(p as usize),
            }),
            Some(_) => {
                self.owner[index] = task as u32;
                Ok(())
            }
        }
    }

    /// Claim every index produced by `indices` for `task`, stopping at the
    /// first conflict.
    pub(crate) fn claim_all(
        &mut self,
        task: usize,
        indices: impl IntoIterator<Item = usize>,
    ) -> Result<(), ClaimConflict> {
        for index in indices {
            self.claim(task, index)?;
        }
        Ok(())
    }

    /// Certify exact cover: every element claimed by exactly one task
    /// (disjointness was enforced claim-by-claim). Returns the first
    /// unclaimed index on failure.
    pub(crate) fn exact_cover(&self) -> Result<(), usize> {
        match self.owner.iter().position(|&o| o == NONE) {
            None => Ok(()),
            Some(i) => Err(i),
        }
    }
}

#[cfg(test)]
impl ClaimMap {
    /// The task that claimed `index`, if any.
    pub(crate) fn owner_of(&self, index: usize) -> Option<usize> {
        match self.owner[index] {
            NONE => None,
            t => Some(t as usize),
        }
    }

    /// Number of claimed elements.
    pub(crate) fn claimed(&self) -> usize {
        self.owner.iter().filter(|&&o| o != NONE).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_claims_cover() {
        let mut m = ClaimMap::new(10);
        m.claim_all(0, 0..5).unwrap();
        m.claim_all(1, 5..10).unwrap();
        assert_eq!(m.exact_cover(), Ok(()));
        assert_eq!(m.owner_of(3), Some(0));
        assert_eq!(m.owner_of(7), Some(1));
    }

    #[test]
    fn double_claim_is_rejected_with_witness() {
        let mut m = ClaimMap::new(10);
        m.claim_all(0, 0..6).unwrap();
        let err = m.claim_all(1, 5..10).unwrap_err();
        assert_eq!(
            err,
            ClaimConflict {
                task: 1,
                index: 5,
                prior: Some(0)
            }
        );
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let mut m = ClaimMap::new(4);
        let err = m.claim(2, 4).unwrap_err();
        assert_eq!(err.prior, None);
    }

    #[test]
    fn gaps_fail_exact_cover() {
        let mut m = ClaimMap::new(4);
        m.claim_all(0, [0, 1, 3]).unwrap();
        assert_eq!(m.exact_cover(), Err(2));
        assert_eq!(m.claimed(), 3);
    }
}
