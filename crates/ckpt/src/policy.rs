//! When to checkpoint and what to keep.

use crate::codec::Encoding;

/// Cadence, retention and codec choice for driver-initiated checkpoints.
///
/// The paper's production runs checkpoint on a wall-clock budget; this
/// runtime steps are cheap and deterministic, so cadence is expressed in
/// steps. `keep` bounds disk usage: after each successful commit the store
/// deletes the oldest generations beyond the newest `keep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `every_steps` completed steps (0 disables).
    pub every_steps: u64,
    /// Number of generations to retain (at least 1 when enabled; keeping 2
    /// is the default so a corrupted newest generation still has a fallback).
    pub keep: usize,
    /// Payload encoding for all records. The constructors choose
    /// [`Encoding::Raw`]: on this code's states `ShuffleRle` buys a ratio of
    /// 1.03 (hybrid) to 1.0000006 (distributed) for a third of the write
    /// time, where a codec is asked to earn ≥ 1.3×.
    pub encoding: Encoding,
}

impl CheckpointPolicy {
    /// Checkpoint every `every_steps` steps, keeping two generations.
    pub fn every(every_steps: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every_steps,
            keep: 2,
            encoding: Encoding::Raw,
        }
    }

    /// A policy that never fires (the driver default).
    pub fn disabled() -> CheckpointPolicy {
        CheckpointPolicy::every(0)
    }

    /// Is checkpointing enabled at all?
    pub fn enabled(&self) -> bool {
        self.every_steps > 0
    }

    /// Should a checkpoint be taken after completing step number `step`
    /// (1-based count of completed steps)?
    pub fn due(&self, step: u64) -> bool {
        self.enabled() && step > 0 && step.is_multiple_of(self.every_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_fires_on_multiples_only() {
        let p = CheckpointPolicy::every(3);
        let due: Vec<u64> = (0..=10).filter(|&s| p.due(s)).collect();
        assert_eq!(due, vec![3, 6, 9]);
    }

    #[test]
    fn disabled_policy_never_fires() {
        let p = CheckpointPolicy::disabled();
        assert!(!p.enabled());
        assert!((0..100).all(|s| !p.due(s)));
    }
}
