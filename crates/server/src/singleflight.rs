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

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug, Default)]
struct Call {
    result: Mutex<Option<Arc<str>>>,
    ready: Condvar,
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
    calls: Mutex<HashMap<String, Arc<Call>>>,
}

impl SingleFlight {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `compute` for `key`, unless an identical call is already in
    /// flight — then blocks until that call finishes and returns its
    /// value.
    pub fn run(&self, key: &str, compute: impl FnOnce() -> Arc<str>) -> Outcome {
        let (call, leader) = {
            let mut calls = self.calls.lock().expect("singleflight map poisoned");
            match calls.get(key) {
                Some(call) => (Arc::clone(call), false),
                None => {
                    let call = Arc::new(Call::default());
                    calls.insert(key.to_string(), Arc::clone(&call));
                    (call, true)
                }
            }
        };

        if leader {
            let value = compute();
            {
                let mut slot = call.result.lock().expect("singleflight call poisoned");
                *slot = Some(Arc::clone(&value));
            }
            call.ready.notify_all();
            self.calls
                .lock()
                .expect("singleflight map poisoned")
                .remove(key);
            Outcome::Led(value)
        } else {
            let mut slot = call.result.lock().expect("singleflight call poisoned");
            while slot.is_none() {
                slot = call
                    .ready
                    .wait(slot)
                    .expect("singleflight call poisoned");
            }
            Outcome::Coalesced(slot.clone().expect("checked above"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    #[test]
    fn solo_caller_leads() {
        let sf = SingleFlight::new();
        let out = sf.run("k", || "v".into());
        assert_eq!(out, Outcome::Led("v".into()));
        // The key is released afterwards: the next caller leads again.
        let out = sf.run("k", || "v2".into());
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
                    sf.run("k", || {
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
        assert_eq!(sf.run("a", || "1".into()), Outcome::Led("1".into()));
        assert_eq!(sf.run("b", || "2".into()), Outcome::Led("2".into()));
    }
}
