//! The seeded request stream.
//!
//! The benchmark owns the generator; the program under test sees only the
//! requests. The mix — 70 % region moments, 25 % sky maps, 5 % backtrack
//! bundles — puts the overall p50 inside the region family and the p90
//! inside the sky family rather than on a boundary between two families.
//! Requests are dealt from shuffled decks of 20 cards (14 / 5 / 1), and a
//! card also fixes how much work its request is: the 14 region cards carry
//! 14 fixed box sizes, the 5 sky cards 3 maps of nside 1 and 2 of nside 2.
//! The seed decides the order of the cards and where each box and observer
//! sits. So every seed asks for the same work, and a percentile never moves
//! because one seed happened to draw more sky maps, or larger boxes, than
//! another.

use vlasov6d_query::Request;

/// Requests of each family per deck of 20: region / sky / backtrack.
pub const DECK: [usize; 3] = [14, 5, 1];

/// splitmix64 — the same generator the pool's schedule shuffler uses.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cells per axis of the region on card `card`: 4–12, every length used on
/// every axis (the strides are coprime to 9) in combinations from 4 × 4 × 4
/// to 12 × 11 × 9.
fn region_cells(card: usize) -> [usize; 3] {
    [1, 2, 4].map(|stride| 4 + (card * stride) % 9)
}

/// `n` requests against a snapshot of `sglobal` spatial cells. With
/// `x_block` set, every region spans exactly one x-block of that many planes
/// (a snapshot stored in such blocks then decodes one block per region, so
/// the region family has one latency mode per cache outcome, not several).
pub fn stream(seed: u64, sglobal: [usize; 3], n: usize, x_block: Option<usize>) -> Vec<Request> {
    let mut rng = Rng::new(seed);
    // (family, card of that family)
    let mut deck: Vec<(usize, usize)> = Vec::new();
    (0..n)
        .map(|_| {
            if deck.is_empty() {
                deck = (0..3)
                    .flat_map(|family| (0..DECK[family]).map(move |card| (family, card)))
                    .collect();
                for i in (1..deck.len()).rev() {
                    deck.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            match deck.pop().expect("deck was just refilled") {
                (0, card) => {
                    // 4–12 cells per axis, clipped to thin axes: enough work
                    // per request that the moment pass, not the two thread
                    // wake-ups around it, sets the latency.
                    let cells = region_cells(card);
                    let mut lo = [0usize; 3];
                    let mut hi = [0usize; 3];
                    for axis in 0..3 {
                        let len = cells[axis].min(sglobal[axis]);
                        lo[axis] = rng.below((sglobal[axis] - len + 1) as u64) as usize;
                        hi[axis] = lo[axis] + len;
                    }
                    if let Some(planes) = x_block {
                        lo[0] = planes * rng.below((sglobal[0] / planes) as u64) as usize;
                        hi[0] = lo[0] + planes;
                    }
                    Request::RegionMoments { lo, hi }
                }
                (1, card) => Request::SkyMap {
                    nside: 1 + card % 2,
                    observer: [rng.unit(), rng.unit(), rng.unit()],
                },
                _ => Request::Backtrack {
                    theta: rng.unit() * std::f64::consts::PI,
                    phi: rng.unit() * 2.0 * std::f64::consts::PI,
                    observer: [0.5; 3],
                    n_traj: 6,
                    steps: 8,
                },
            }
        })
        .collect()
}

/// One request of each family, served untimed before the measured stream so
/// the decode cache is filled and the backtrack engine's one-time Poisson
/// solve is done.
pub fn warmup(sglobal: [usize; 3]) -> Vec<Request> {
    vec![
        Request::SkyMap {
            nside: 1,
            observer: [0.5; 3],
        },
        Request::RegionMoments {
            lo: [0; 3],
            hi: sglobal.map(|n| n.min(2)),
        },
        Request::Backtrack {
            theta: 1.0,
            phi: 1.0,
            observer: [0.5; 3],
            n_traj: 6,
            steps: 8,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_query::request::encode_batch;

    #[test]
    fn stream_is_byte_identical_per_seed_and_differs_across_seeds() {
        let a = encode_batch(&stream(7, [32, 16, 16], 900, None));
        let b = encode_batch(&stream(7, [32, 16, 16], 900, None));
        let c = encode_batch(&stream(8, [32, 16, 16], 900, None));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn family_shares_are_within_two_points_at_900() {
        for seed in [1, 2, 3, 1234] {
            let reqs = stream(seed, [16, 16, 16], 900, None);
            let share = |fam: &str| {
                100.0 * reqs.iter().filter(|r| r.family() == fam).count() as f64 / 900.0
            };
            for (fam, want) in [("region", 70.0), ("skymap", 25.0), ("backtrack", 5.0)] {
                let got = share(fam);
                assert!(
                    (got - want).abs() <= 2.0,
                    "seed {seed}: {fam} {got:.1} % vs {want} %"
                );
            }
        }
    }

    #[test]
    fn every_seed_asks_for_the_same_work() {
        let work = |seed: u64| {
            let mut volumes: Vec<usize> = Vec::new();
            let mut nsides: Vec<usize> = Vec::new();
            for r in stream(seed, [32, 16, 16], 100, None) {
                match r {
                    Request::RegionMoments { lo, hi } => {
                        volumes.push((0..3).map(|d| hi[d] - lo[d]).product());
                    }
                    Request::SkyMap { nside, .. } => nsides.push(nside),
                    Request::Backtrack { .. } => {}
                }
            }
            volumes.sort_unstable();
            nsides.sort_unstable();
            (volumes, nsides)
        };
        assert_eq!(work(1), work(2));
        assert_eq!(work(1).1, [vec![1; 15], vec![2; 10]].concat());
        for axis in 0..3 {
            let lengths: std::collections::BTreeSet<usize> =
                (0..DECK[0]).map(|card| region_cells(card)[axis]).collect();
            assert_eq!(lengths, (4..=12).collect());
        }
    }

    #[test]
    fn regions_stay_inside_thin_grids() {
        for r in stream(5, [32, 4, 4], 300, None) {
            if let Request::RegionMoments { lo, hi } = r {
                for axis in 0..3 {
                    assert!(lo[axis] < hi[axis] && hi[axis] <= [32, 4, 4][axis]);
                }
            }
        }
    }

    #[test]
    fn blocked_regions_span_exactly_one_block() {
        for r in stream(5, [32, 16, 16], 300, Some(2)) {
            if let Request::RegionMoments { lo, hi } = r {
                assert_eq!((lo[0] % 2, hi[0] - lo[0]), (0, 2));
                assert!(hi[0] <= 32);
            }
        }
    }
}
