//! End-to-end daemon tests over real TCP: protocol conformance, cache
//! observability, admission rejections, concurrent clients, and drain.

use gpuflow_core::{CompileOptions, Framework};
use gpuflow_minijson::Value;
use gpuflow_multi::Cluster;
use gpuflow_serve::source::resolve_named;
use gpuflow_serve::{serve_tcp, Client, ServeConfig};
use gpuflow_sim::device::modern;

fn kind_of(v: &Value) -> Option<&str> {
    v.get("error")?.get("kind")?.as_str()
}

fn is_ok(v: &Value) -> bool {
    v.get("ok").and_then(|b| b.as_bool()) == Some(true)
}

#[test]
fn full_request_lifecycle_over_tcp() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = handle.addr.to_string();
    let mut c = Client::connect(&addr).unwrap();

    // compile: miss then hit, stable graph hash, peak bytes reported.
    let a = c
        .request(r#"{"op":"compile","template":"edge:128x128,k=5,o=2"}"#)
        .unwrap();
    assert!(is_ok(&a), "{a:?}");
    assert_eq!(a.get("cache").and_then(|v| v.as_str()), Some("miss"));
    let peaks = a.get("peak_per_device").and_then(|v| v.as_array()).unwrap();
    assert_eq!(peaks.len(), 1);
    assert!(peaks[0].as_u64().unwrap() > 0);
    let b = c
        .request(r#"{"op":"compile","template":"edge:128x128,k=5,o=2"}"#)
        .unwrap();
    assert_eq!(b.get("cache").and_then(|v| v.as_str()), Some("hit"));
    assert_eq!(
        a.get("graph_hash").and_then(|v| v.as_str()),
        b.get("graph_hash").and_then(|v| v.as_str())
    );

    // Same structure at a new size rides the incremental path.
    let inc = c
        .request(r#"{"op":"compile","template":"edge:144x144,k=5,o=2"}"#)
        .unwrap();
    assert_eq!(
        inc.get("cache").and_then(|v| v.as_str()),
        Some("incremental")
    );

    // run: executes, certifies, reports simulated time.
    let r = c
        .request(r#"{"op":"run","template":"edge:128x128,k=5,o=2"}"#)
        .unwrap();
    assert!(is_ok(&r), "{r:?}");
    assert_eq!(r.get("cache").and_then(|v| v.as_str()), Some("hit"));
    assert_eq!(r.get("certified").and_then(|v| v.as_bool()), Some(true));
    assert!(r.get("sim_time_s").and_then(|v| v.as_f64()).unwrap() > 0.0);

    // faulted run: recovery report present.
    let r = c
        .request(r#"{"op":"run","template":"fig3","faults":"seed=3,kernel=0.25"}"#)
        .unwrap();
    assert!(is_ok(&r), "{r:?}");
    let f = r.get("faults").unwrap();
    assert_eq!(f.get("recovered").and_then(|v| v.as_bool()), Some(true));

    // stats: metrics reflect everything above.
    let s = c.request(r#"{"op":"stats"}"#).unwrap();
    assert!(is_ok(&s), "{s:?}");
    let counters = s.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(
        counters
            .get("serve.cache_hits")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 2
    );
    assert_eq!(
        counters
            .get("serve.cache_incremental")
            .and_then(|v| v.as_u64()),
        Some(1)
    );
    assert!(
        counters
            .get("serve.completed")
            .and_then(|v| v.as_u64())
            .unwrap()
            >= 2
    );
    assert!(s.get("latency_p50_us").and_then(|v| v.as_u64()).is_some());

    let r = c.request(r#"{"op":"shutdown"}"#).unwrap();
    assert!(is_ok(&r));
    handle.join();
}

#[test]
fn multi_device_cluster_serves_and_reports_per_device_peaks() {
    let cfg = ServeConfig {
        cluster: Cluster::homogeneous(modern(), 2),
        ..ServeConfig::default()
    };
    let handle = serve_tcp("127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(&handle.addr.to_string()).unwrap();
    let r = c
        .request(r#"{"op":"run","template":"edge:192x192,k=5,o=2"}"#)
        .unwrap();
    assert!(is_ok(&r), "{r:?}");
    let peaks = r.get("peak_per_device").and_then(|v| v.as_array()).unwrap();
    assert_eq!(peaks.len(), 2);
    assert_eq!(r.get("certified").and_then(|v| v.as_bool()), Some(true));
}

#[test]
fn admission_rejections_are_typed() {
    // Pin capacity to half the probe plan's peak: everything is infeasible.
    let g = resolve_named("edge:128x128,k=5,o=2").unwrap();
    let probe = Framework::new(modern())
        .with_options(CompileOptions::default())
        .compile(&g)
        .unwrap();
    let cfg = ServeConfig {
        capacity_override: Some(vec![probe.stats().peak_bytes / 2]),
        ..ServeConfig::default()
    };
    let handle = serve_tcp("127.0.0.1:0", cfg).unwrap();
    let mut c = Client::connect(&handle.addr.to_string()).unwrap();
    // compile is pure planning: fine even above admission capacity.
    let r = c
        .request(r#"{"op":"compile","template":"edge:128x128,k=5,o=2"}"#)
        .unwrap();
    assert!(is_ok(&r), "{r:?}");
    // run must reserve memory: typed infeasible, not a hang or a panic.
    let r = c
        .request(r#"{"op":"run","template":"edge:128x128,k=5,o=2"}"#)
        .unwrap();
    assert_eq!(kind_of(&r), Some("infeasible"), "{r:?}");
}

#[test]
fn bad_requests_are_typed_and_unknown_templates_rejected() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut c = Client::connect(&handle.addr.to_string()).unwrap();
    let r = c
        .request(r#"{"op":"compile","template":"no-such"}"#)
        .unwrap();
    assert_eq!(kind_of(&r), Some("bad_request"));
    let r = c
        .request(r#"{"op":"compile","graph":"op x bogus"}"#)
        .unwrap();
    assert_eq!(kind_of(&r), Some("bad_request"));
    let r = c
        .request(r#"{"op":"run","template":"fig3","faults":"seed=banana"}"#)
        .unwrap();
    assert_eq!(kind_of(&r), Some("bad_request"));
    // Builtin parameters the template builders cannot build from are
    // typed rejections on the same connection, not a lost thread.
    for spec in [
        "edge:64x64,k=5,o=2000",
        "edge:64x64,k=5,o=3",
        "edge:64x64,k=0,o=4",
        "edge:64x64,k=99,o=4",
        "cnn-small:40x40",
        "cnn-large:47x640",
    ] {
        let r = c
            .request(&format!(r#"{{"op":"run","template":"{spec}"}}"#))
            .unwrap();
        assert_eq!(r.get("ok").and_then(|b| b.as_bool()), Some(false), "{r:?}");
        assert_eq!(kind_of(&r), Some("bad_request"), "{spec}: {r:?}");
    }
    // Inline graphs compile like named ones.
    let inline = r#"{"op":"compile","graph":"data In input 8 8\ndata Out output 8 8\nop t tanh In -> Out\n"}"#;
    let r = c.request(inline).unwrap();
    assert!(is_ok(&r), "{r:?}");
}

#[test]
fn concurrent_clients_share_one_cache() {
    let handle = serve_tcp("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = handle.addr.to_string();
    // Warm the cache from one client.
    Client::connect(&addr)
        .unwrap()
        .request(r#"{"op":"compile","template":"edge:96x96,k=5,o=2"}"#)
        .unwrap();
    // Hammer it from several more; every one must hit.
    let mut threads = Vec::new();
    for _ in 0..4 {
        let addr = addr.clone();
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            for _ in 0..3 {
                let r = c
                    .request(r#"{"op":"compile","template":"edge:96x96,k=5,o=2"}"#)
                    .unwrap();
                assert!(is_ok(&r), "{r:?}");
                assert_eq!(r.get("cache").and_then(|v| v.as_str()), Some("hit"));
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    handle.server.with_metrics(|m| {
        assert_eq!(m.counter("serve.cache_misses"), 1);
        assert_eq!(m.counter("serve.cache_hits"), 12);
    });
}
