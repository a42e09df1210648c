//! Task placement across a cluster.

use bighouse_des::SimRng;

/// The placement discipline used by a [`LoadBalancer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancerPolicy {
    /// Uniformly random server choice.
    Random,
    /// Cyclic assignment.
    RoundRobin,
    /// Join-the-shortest-queue (ties broken by lowest index).
    JoinShortestQueue,
}

bighouse_json::json_enum!(BalancerPolicy {
    Random,
    RoundRobin,
    JoinShortestQueue
});

/// A simple cluster front-end distributing arrivals over `n` servers.
///
/// # Examples
///
/// ```
/// use bighouse_des::SimRng;
/// use bighouse_models::{BalancerPolicy, LoadBalancer};
///
/// let mut lb = LoadBalancer::new(BalancerPolicy::RoundRobin, 3);
/// let mut rng = SimRng::from_seed(0); // round-robin never draws
/// let picks: Vec<usize> = (0..6).map(|_| lb.pick_by(|_| 0, &mut rng)).collect();
/// assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct LoadBalancer {
    policy: BalancerPolicy,
    servers: usize,
    next_rr: usize,
}

impl LoadBalancer {
    /// Creates a balancer over `servers` servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    #[must_use]
    pub fn new(policy: BalancerPolicy, servers: usize) -> Self {
        assert!(servers > 0, "load balancer needs at least one server");
        LoadBalancer {
            policy,
            servers,
            next_rr: 0,
        }
    }

    /// The placement policy.
    #[must_use]
    pub fn policy(&self) -> BalancerPolicy {
        self.policy
    }

    /// Number of servers balanced over.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Picks a server for the next arrival, reading each server's queue
    /// length through `queue_len`, so callers route straight off their own
    /// per-server state. `queue_len` is only consulted for queue-aware
    /// policies, and only for indices in `0..self.servers()`.
    pub fn pick_by(
        &mut self,
        mut queue_len: impl FnMut(usize) -> usize,
        rng: &mut SimRng,
    ) -> usize {
        match self.policy {
            BalancerPolicy::Random => (rng.raw_u64() % self.servers as u64) as usize,
            BalancerPolicy::RoundRobin => {
                let pick = self.next_rr;
                self.next_rr = (self.next_rr + 1) % self.servers;
                pick
            }
            BalancerPolicy::JoinShortestQueue => (0..self.servers)
                .min_by_key(|&i| queue_len(i))
                .expect("at least one server"),
        }
    }

    /// Fault-aware placement: picks a server for which `available` holds,
    /// or `None` — without drawing — if every server is down. Round-robin
    /// skips unavailable servers without consuming their turn; random draws
    /// uniformly over the available subset; JSQ minimizes over it. Both
    /// closures are only called with indices in `0..self.servers()`;
    /// `available` may be called more than once per index.
    pub fn pick_available_by(
        &mut self,
        mut queue_len: impl FnMut(usize) -> usize,
        mut available: impl FnMut(usize) -> bool,
        rng: &mut SimRng,
    ) -> Option<usize> {
        let alive = (0..self.servers).filter(|&i| available(i)).count();
        if alive == 0 {
            return None;
        }
        match self.policy {
            BalancerPolicy::Random => {
                let k = (rng.raw_u64() % alive as u64) as usize;
                (0..self.servers).filter(|&i| available(i)).nth(k)
            }
            BalancerPolicy::RoundRobin => {
                for _ in 0..self.servers {
                    let candidate = self.next_rr;
                    self.next_rr = (self.next_rr + 1) % self.servers;
                    if available(candidate) {
                        return Some(candidate);
                    }
                }
                None
            }
            BalancerPolicy::JoinShortestQueue => (0..self.servers)
                .filter(|&i| available(i))
                .min_by_key(|&i| queue_len(i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut lb = LoadBalancer::new(BalancerPolicy::RoundRobin, 4);
        let mut rng = SimRng::from_seed(0);
        let picks: Vec<usize> = (0..8).map(|_| lb.pick_by(|_| 0, &mut rng)).collect();
        assert_eq!(picks, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn jsq_picks_shortest() {
        let mut lb = LoadBalancer::new(BalancerPolicy::JoinShortestQueue, 3);
        let mut rng = SimRng::from_seed(0);
        let queues = [3, 1, 2];
        assert_eq!(lb.pick_by(|i| queues[i], &mut rng), 1);
        assert_eq!(lb.pick_by(|_| 0, &mut rng), 0, "ties break low");
    }

    #[test]
    fn random_covers_all_servers() {
        let mut lb = LoadBalancer::new(BalancerPolicy::Random, 5);
        let mut rng = SimRng::from_seed(7);
        let mut seen = [0usize; 5];
        for _ in 0..5000 {
            seen[lb.pick_by(|_| 0, &mut rng)] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 800, "server {i} picked only {count} times");
        }
    }

    #[test]
    fn pick_available_skips_failed_servers() {
        let mut rng = SimRng::from_seed(0);
        // Round-robin: server 1 down, cycle is 0, 2, 0, 2, ...
        let mut lb = LoadBalancer::new(BalancerPolicy::RoundRobin, 3);
        let avail = [true, false, true];
        let picks: Vec<usize> = (0..4)
            .map(|_| lb.pick_available_by(|_| 0, |i| avail[i], &mut rng).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 2, 0, 2]);
        // JSQ: the true shortest queue is down, next-shortest wins.
        let mut lb = LoadBalancer::new(BalancerPolicy::JoinShortestQueue, 3);
        let queues = [5, 0, 2];
        assert_eq!(
            lb.pick_available_by(|i| queues[i], |i| avail[i], &mut rng),
            Some(2)
        );
    }

    #[test]
    fn pick_available_none_when_all_down() {
        for policy in [
            BalancerPolicy::Random,
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
        ] {
            let mut lb = LoadBalancer::new(policy, 2);
            let mut rng = SimRng::from_seed(0);
            assert_eq!(lb.pick_available_by(|_| 0, |_| false, &mut rng), None);
        }
    }

    #[test]
    fn random_pick_available_covers_live_subset() {
        let mut lb = LoadBalancer::new(BalancerPolicy::Random, 4);
        let mut rng = SimRng::from_seed(5);
        let avail = [true, false, true, true];
        let mut seen = [0usize; 4];
        for _ in 0..3000 {
            seen[lb.pick_available_by(|_| 0, |i| avail[i], &mut rng).unwrap()] += 1;
        }
        assert_eq!(seen[1], 0, "failed server never picked");
        for i in [0, 2, 3] {
            assert!(seen[i] > 600, "server {i} picked only {} times", seen[i]);
        }
    }

    #[test]
    fn all_available_picks_match_plain_picks() {
        // With every server up, fault-aware placement must replay the exact
        // pick and RNG-draw sequence of the plain pick; with every server
        // down it picks nothing and draws nothing.
        for policy in [
            BalancerPolicy::Random,
            BalancerPolicy::RoundRobin,
            BalancerPolicy::JoinShortestQueue,
        ] {
            let queues = [4usize, 2, 7, 2, 9];
            let mut plain = LoadBalancer::new(policy, 5);
            let mut aware = LoadBalancer::new(policy, 5);
            let mut rng_a = SimRng::from_seed(11);
            let mut rng_b = SimRng::from_seed(11);
            for _ in 0..200 {
                assert_eq!(
                    Some(plain.pick_by(|i| queues[i], &mut rng_a)),
                    aware.pick_available_by(|i| queues[i], |_| true, &mut rng_b)
                );
            }
            assert_eq!(
                aware.pick_available_by(|i| queues[i], |_| false, &mut rng_b),
                None
            );
            assert_eq!(rng_a.raw_u64(), rng_b.raw_u64(), "RNG streams diverged");
        }
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = LoadBalancer::new(BalancerPolicy::Random, 0);
    }
}
