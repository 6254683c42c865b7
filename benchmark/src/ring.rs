//! One coordinator and `m` learners on a transport, assembled once and
//! reused for every training job a workload runs: the distributed HL
//! protocol of `ppml_core::secagg` driven exactly as `ppml-coordinator`
//! and `ppml-learner` drive it, with the learners on threads of this
//! process instead of processes of their own.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppml_core::distributed::feature_count;
use ppml_core::{
    coordinate_linear_secagg, learn_linear_secagg, AdmmConfig, DistributedOutcome,
    DistributedTiming, SecAggConfig, TrainError,
};
use ppml_data::Dataset;
use ppml_svm::LinearSvm;
use ppml_transport::{
    Courier, EventTransport, LinkStats, LoopbackHub, Message, PartyId, RetryPolicy, Transport,
    TransportError,
};

use crate::spy::{Spy, SpyLog};
use crate::sys;

type Endpoint = Courier<Box<dyn Transport>>;

/// The assembled parties. Learner `p` is party `p`, the coordinator is
/// party `m`.
pub struct Ring {
    coordinator: Endpoint,
    learners: Vec<Endpoint>,
    /// One log per endpoint (coordinator last) when the ring was built
    /// with spies; empty otherwise.
    spies: Vec<Arc<Mutex<SpyLog>>>,
}

/// What one training job produced, and what it cost each thread.
pub struct Trained {
    pub outcome: DistributedOutcome,
    /// The model each learner returned, in party order.
    pub learner_models: Vec<LinearSvm>,
    /// CPU time of each learner thread, read by the thread itself.
    pub learner_cpu: Vec<Duration>,
    /// CPU time of the coordinating (calling) thread.
    pub coordinator_cpu: Duration,
}

impl Ring {
    /// `m` learners and a coordinator on an in-memory hub: frames are
    /// encoded and counted but never cross a socket.
    pub fn loopback(m: usize, spied: bool) -> Ring {
        let hub = LoopbackHub::new(m + 1);
        let mut spies = Vec::new();
        let mut endpoints: Vec<Endpoint> = (0..=m)
            .map(|p| {
                let endpoint = wrap(hub.endpoint(p as PartyId), spied, &mut spies);
                // The binaries' courier schedule, not the tests' 2 ms one:
                // on a hub that loses nothing every retransmission is a
                // timer firing while the receiver computes, and would
                // make the wire bytes depend on scheduling.
                Courier::new(endpoint, RetryPolicy::tcp_default())
            })
            .collect();
        let coordinator = endpoints.pop().expect("m + 1 endpoints");
        Ring {
            coordinator,
            learners: endpoints,
            spies,
        }
    }

    /// The same parties on the event-loop TCP transport over 127.0.0.1,
    /// dialed and handshaken: what the binaries use by default.
    pub fn tcp(m: usize, spied: bool) -> Result<Ring, TransportError> {
        let bind = |party: usize, peers: HashMap<PartyId, std::net::SocketAddr>| {
            EventTransport::bind(
                party as PartyId,
                "127.0.0.1:0".parse().expect("literal address"),
                peers,
                RetryPolicy::tcp_link(),
                Duration::from_secs(5),
            )
        };
        let hub = bind(m, HashMap::new())?;
        let address = hub.local_addr();
        let mut spies = Vec::new();
        let mut learners = Vec::with_capacity(m);
        for p in 0..m {
            let endpoint = bind(p, HashMap::from([(m as PartyId, address)]))?;
            let mut courier = Courier::new(
                wrap(endpoint, spied, &mut spies),
                RetryPolicy::tcp_default(),
            );
            // The first frame dials the coordinator, as `ppml-learner`
            // announces itself.
            courier.send_unreliable(m as PartyId, &Message::Heartbeat { nonce: p as u64 })?;
            learners.push(courier);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while hub.connected_parties().len() < m {
            if Instant::now() > deadline {
                return Err(TransportError::Timeout);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let coordinator = Courier::new(wrap(hub, spied, &mut spies), RetryPolicy::tcp_default());
        Ok(Ring {
            coordinator,
            learners,
            spies,
        })
    }

    /// Trains one model over `parts` (one partition per learner) and
    /// returns when the coordinator and every learner have.
    pub fn train(
        &mut self,
        parts: &[Dataset],
        cfg: &AdmmConfig,
        secagg: SecAggConfig,
    ) -> Result<Trained, TrainError> {
        let m = self.learners.len();
        assert_eq!(parts.len(), m, "one partition per learner");
        let features = feature_count(parts)?;
        let timing = DistributedTiming::default();
        let coordinator = &mut self.coordinator;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .learners
                .iter_mut()
                .zip(parts)
                .map(|(courier, part)| {
                    scope.spawn(move || {
                        let model = learn_linear_secagg(courier, m, part, cfg, timing, secagg);
                        (model, sys::thread_cpu())
                    })
                })
                .collect();
            let cpu_before = sys::thread_cpu();
            let outcome =
                coordinate_linear_secagg(coordinator, m, features, cfg, None, timing, secagg);
            let coordinator_cpu = sys::thread_cpu() - cpu_before;
            let mut learner_models = Vec::with_capacity(m);
            let mut learner_cpu = Vec::with_capacity(m);
            for handle in handles {
                let (model, cpu) = handle.join().expect("learner thread panicked");
                learner_models.push(model?);
                learner_cpu.push(cpu);
            }
            Ok(Trained {
                outcome: outcome?,
                learner_models,
                learner_cpu,
                coordinator_cpu,
            })
        })
    }

    /// Traffic counters summed over every endpoint. `bytes_sent` is then
    /// every encoded byte any party put on the transport, so both
    /// directions, acknowledgements and retransmissions included.
    pub fn link_stats(&self) -> LinkStats {
        self.learners
            .iter()
            .chain(std::iter::once(&self.coordinator))
            .map(|courier| courier.transport().stats())
            .fold(LinkStats::default(), LinkStats::merged)
    }

    /// Takes what each spy has logged since the last call, learners in
    /// party order and the coordinator last; empty for a ring built
    /// without spies.
    pub fn drain_spies(&self) -> Vec<SpyLog> {
        self.spies
            .iter()
            .map(|log| std::mem::take(&mut *log.lock().expect("spy log: no holder can panic")))
            .collect()
    }

    pub fn learners(&self) -> usize {
        self.learners.len()
    }
}

fn wrap<T: Transport + 'static>(
    endpoint: T,
    spied: bool,
    spies: &mut Vec<Arc<Mutex<SpyLog>>>,
) -> Box<dyn Transport> {
    if spied {
        let (spy, log) = Spy::new(endpoint);
        spies.push(log);
        Box::new(spy)
    } else {
        Box::new(endpoint)
    }
}
