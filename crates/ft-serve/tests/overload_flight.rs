//! Deterministic overload behaviour, with the observability layer live.
//!
//! Uses manual-dispatch mode so queue occupancy is exact: fill the queue
//! to capacity, verify the excess requests are rejected with
//! [`ServeError::Overloaded`] (and counted, and flight-recorded), then
//! verify the server remains fully healthy — everything admitted
//! completes, and new work is accepted once the queue drains.
//!
//! Single `#[test]` in this binary: the ft-obs flag, counters and flight
//! ring are process-global, so obs-dependent assertions get a process to
//! themselves (same convention as `crates/ft-obs/tests/`).

use ft_serve::{metrics, ModelRegistry, ServeConfig, ServeEngine, ServeError};
use ft_tensor::Tensor;
use fno_core::{Fno, FnoConfig, FnoKind};

#[test]
fn overload_is_typed_counted_flight_recorded_and_recoverable() {
    ft_obs::set_enabled(true);

    let cfg = FnoConfig {
        kind: FnoKind::TwoDChannels,
        width: 2,
        layers: 1,
        modes: 2,
        in_channels: 4,
        out_channels: 2,
        lifting_channels: 3,
        projection_channels: 3,
        norm: false,
    };
    let mut reg = ModelRegistry::new();
    reg.insert("m", Fno::new(cfg, 5)).unwrap();
    let capacity = 4;
    let engine = ServeEngine::new(
        reg,
        ServeConfig {
            auto_dispatch: false,
            queue_capacity: capacity,
            ..Default::default()
        },
    );
    let h = engine.handle();
    let input = || Tensor::from_fn(&[4, 8, 8], |i| (i[0] + i[1] + i[2]) as f64 * 0.1);

    // Fill the queue exactly to capacity.
    let admitted: Vec<_> = (0..capacity).map(|_| h.submit("m", input()).unwrap()).collect();
    assert_eq!(h.stats().queued, capacity);

    // Excess requests are rejected deterministically.
    for _ in 0..3 {
        assert_eq!(h.submit("m", input()).unwrap_err(), ServeError::Overloaded);
    }
    assert_eq!(metrics::REQUESTS.get(), capacity as u64);
    assert_eq!(metrics::REJECTED.get(), 3);

    // Each rejection left a flight-recorder event with queue context.
    let overload_events: Vec<_> = ft_obs::flight::events()
        .into_iter()
        .filter(|e| {
            e.to_json().contains("\"kind\":\"serve_overload\"")
                && e.to_json().contains(&format!("\"capacity\":{capacity}"))
        })
        .collect();
    assert_eq!(overload_events.len(), 3);

    // The server stays healthy: everything admitted completes, one
    // request per dispatch…
    for _ in 0..capacity {
        assert_eq!(h.dispatch_once(), 1);
    }
    assert_eq!(h.dispatch_once(), 0);
    for p in admitted {
        assert!(p.wait().is_ok());
    }
    // …and new work is admitted again after the drain.
    let out = {
        let p = h.submit("m", input()).unwrap();
        assert_eq!(h.dispatch_once(), 1);
        p.wait().unwrap()
    };
    assert_eq!(out.dims(), &[2, 8, 8]);
    assert!(out.all_finite());
    assert_eq!(metrics::REJECTED.get(), 3, "recovery must not re-reject");

    ft_obs::set_enabled(false);
}
