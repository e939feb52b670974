//! Request coalescing: concurrent identical requests share one
//! computation instead of stampeding the worker pool.
//!
//! The first caller for a key becomes the *leader* and runs the closure;
//! every caller that arrives while the leader is computing becomes a
//! *follower* and blocks on a condvar until the leader publishes the
//! result. Pipeline runs are deterministic, so handing every follower
//! the leader's bytes is not an approximation — it is exactly the
//! response they would have computed. Followers share the leader's
//! `Arc<str>`; no caller copies the body.
//!
//! A leader whose computation unwinds abandons its call: a drop guard
//! frees the key and wakes the followers, and each of them then runs
//! the call again as a caller of its own (one leads, the rest follow
//! it). No key stays blocked behind a panic.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug, Default)]
struct Call {
    state: Mutex<State>,
    ready: Condvar,
}

/// Where a call stands.
#[derive(Debug, Default)]
enum State {
    /// The leader is computing.
    #[default]
    Running,
    /// The leader's value.
    Done(Arc<str>),
    /// The leader unwound before it had a value.
    Abandoned,
}

/// How a [`SingleFlight::run`] call obtained its value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// This caller ran the computation.
    Led(Arc<str>),
    /// This caller waited on an identical in-flight computation.
    Coalesced(Arc<str>),
}

impl Outcome {
    /// The computed value, however it was obtained.
    pub fn into_value(self) -> Arc<str> {
        match self {
            Outcome::Led(v) | Outcome::Coalesced(v) => v,
        }
    }
}

/// The coalescing map.
#[derive(Debug, Default)]
pub struct SingleFlight {
    calls: Mutex<HashMap<Vec<u8>, Arc<Call>>>,
}

/// A leader's hold on its call. Dropping it, at the end of the
/// computation or while unwinding out of it, frees the key and wakes
/// the followers; a call still running then is abandoned.
struct Lead<'a> {
    flights: &'a SingleFlight,
    key: &'a [u8],
    call: Arc<Call>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        // A panic elsewhere must not leave this key blocked, so a
        // poisoned lock is taken as it stands.
        let mut calls = self.flights.calls.lock().unwrap_or_else(|e| e.into_inner());
        calls.remove(self.key);
        drop(calls);
        let mut state = self.call.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, State::Running) {
            *state = State::Abandoned;
        }
        drop(state);
        self.call.ready.notify_all();
    }
}

impl SingleFlight {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `compute` for `key`, unless an identical call is already in
    /// flight — then blocks until that call finishes and returns its
    /// value. If that call's leader unwinds instead, this caller runs
    /// the call again (see the module docs).
    pub fn run(&self, key: &[u8], compute: impl FnOnce() -> Arc<str>) -> Outcome {
        loop {
            let (call, leader) = {
                let mut calls = self.calls.lock().expect("singleflight map poisoned");
                match calls.get(key) {
                    Some(call) => (Arc::clone(call), false),
                    None => {
                        let call = Arc::new(Call::default());
                        calls.insert(key.to_vec(), Arc::clone(&call));
                        (call, true)
                    }
                }
            };

            if leader {
                let lead = Lead {
                    flights: self,
                    key,
                    call,
                };
                let value = compute();
                *lead.call.state.lock().expect("singleflight call poisoned") =
                    State::Done(Arc::clone(&value));
                return Outcome::Led(value);
            }
            let mut state = call.state.lock().expect("singleflight call poisoned");
            while matches!(*state, State::Running) {
                state = call.ready.wait(state).expect("singleflight call poisoned");
            }
            if let State::Done(value) = &*state {
                return Outcome::Coalesced(Arc::clone(value));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Barrier};

    #[test]
    fn solo_caller_leads() {
        let sf = SingleFlight::new();
        let out = sf.run(b"k", || "v".into());
        assert_eq!(out, Outcome::Led("v".into()));
        // The key is released afterwards: the next caller leads again.
        let out = sf.run(b"k", || "v2".into());
        assert_eq!(out, Outcome::Led("v2".into()));
    }

    #[test]
    fn concurrent_callers_share_one_computation() {
        const CALLERS: usize = 8;
        let sf = Arc::new(SingleFlight::new());
        let computations = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(CALLERS));
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let sf = Arc::clone(&sf);
                let computations = Arc::clone(&computations);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    sf.run(b"k", || {
                        computations.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough for the other
                        // callers to pile in.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        "shared".into()
                    })
                })
            })
            .collect();
        let outcomes: Vec<Outcome> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let leaders = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Led(_)))
            .count();
        // Every caller that overlapped the leader coalesced; stragglers
        // that arrived after completion lead their own (fast) flight.
        assert!(leaders >= 1);
        assert_eq!(
            leaders as u64,
            computations.load(Ordering::SeqCst),
            "exactly one computation per leader"
        );
        let led: Vec<&Arc<str>> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Led(v) => Some(v),
                Outcome::Coalesced(_) => None,
            })
            .collect();
        for o in &outcomes {
            assert_eq!(&*o.clone().into_value(), "shared");
            // A follower holds its leader's allocation, not a copy.
            if let Outcome::Coalesced(v) = o {
                assert!(
                    led.iter().any(|l| Arc::ptr_eq(l, v)),
                    "coalesced value is shared with a leader"
                );
            }
        }
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let sf = SingleFlight::new();
        assert_eq!(sf.run(b"a", || "1".into()), Outcome::Led("1".into()));
        assert_eq!(sf.run(b"b", || "2".into()), Outcome::Led("2".into()));
    }

    /// Followers waiting on the call in flight for `key`: the holders of
    /// its `Arc` beyond the map and the leader.
    fn followers(sf: &SingleFlight, key: &[u8]) -> usize {
        let calls = sf.calls.lock().unwrap();
        calls.get(key).map_or(0, |call| Arc::strong_count(call) - 2)
    }

    #[test]
    fn a_panicking_leader_wakes_its_followers_and_frees_its_key() {
        let sf = Arc::new(SingleFlight::new());
        let (computing, leader_started) = mpsc::channel();
        let leader = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || {
                sf.run(b"k", || {
                    computing.send(()).unwrap();
                    // Fail only once the follower holds the call.
                    while followers(&sf, b"k") == 0 {
                        std::thread::yield_now();
                    }
                    panic!("the leader's computation fails");
                })
            })
        };
        leader_started.recv().unwrap();
        // Each caller answers on a channel, so a caller left blocked
        // fails the test after a bounded wait instead of hanging it.
        let call = |value: &'static str| {
            let sf = Arc::clone(&sf);
            let (sent, result) = mpsc::channel();
            let thread = std::thread::spawn(move || sent.send(sf.run(b"k", || value.into())));
            (thread, result)
        };
        let timeout = std::time::Duration::from_secs(10);
        let (follower, follower_result) = call("retried");
        assert!(leader.join().is_err(), "the leader unwound");
        let result = follower_result.recv_timeout(timeout);
        assert_eq!(result, Ok(Outcome::Led("retried".into())));
        follower.join().unwrap().unwrap();
        let (later, later_result) = call("later");
        let result = later_result.recv_timeout(timeout);
        assert_eq!(result, Ok(Outcome::Led("later".into())));
        later.join().unwrap().unwrap();
        assert!(sf.calls.lock().unwrap().is_empty());
    }
}
