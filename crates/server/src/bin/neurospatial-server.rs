//! The `neurospatial-server` binary: generate a synthetic circuit (the
//! stand-in for the paper's Blue Brain datasets), index it with FLAT, and
//! serve the wire protocol until killed.
//!
//! ```text
//! neurospatial-server [--addr=127.0.0.1:7878] [--neurons=40] [--seed=7]
//!                     [--workers=4] [--queue=16]
//! ```
//!
//! Two populations are declared (`axons` = even neuron ids,
//! `dendrites` = odd), and two predicates are registered for
//! `FLAG_FILTER` requests: id 1 keeps even neuron ids, id 2 keeps odd.

use neurospatial::model::{CircuitBuilder, NeuronSegment};
use neurospatial::NeuroDb;
use neurospatial_server::{serve_with, FilterRegistry, ServerConfig};
use std::time::Duration;

fn parse_value<T: std::str::FromStr>(arg: &str, prefix: &str) -> T {
    arg.strip_prefix(prefix).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("invalid value in '{arg}'");
        std::process::exit(2);
    })
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut neurons = 40u32;
    let mut seed = 7u64;
    let mut cfg = ServerConfig::default();
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--addr=") {
            addr = parse_value(&arg, "--addr=");
        } else if arg.starts_with("--neurons=") {
            neurons = parse_value(&arg, "--neurons=");
        } else if arg.starts_with("--seed=") {
            seed = parse_value(&arg, "--seed=");
        } else if arg.starts_with("--workers=") {
            cfg.workers = parse_value(&arg, "--workers=");
        } else if arg.starts_with("--queue=") {
            cfg.queue = parse_value(&arg, "--queue=");
        } else {
            eprintln!(
                "unknown argument '{arg}'\nusage: neurospatial-server [--addr=HOST:PORT] \
                 [--neurons=N] [--seed=N] [--workers=N] [--queue=N]"
            );
            std::process::exit(2);
        }
    }
    cfg.addr = addr;

    let circuit = CircuitBuilder::new(seed).neurons(neurons).build();
    let db = match NeuroDb::builder()
        .circuit(&circuit)
        .split_populations("axons", "dendrites", |s| s.neuron.is_multiple_of(2))
        .build()
    {
        Ok(db) => db,
        Err(err) => {
            eprintln!("failed to build database: {err}");
            std::process::exit(2);
        }
    };

    let even = |s: &NeuronSegment| s.neuron.is_multiple_of(2);
    let odd = |s: &NeuronSegment| s.neuron % 2 == 1;
    let mut filters = FilterRegistry::new();
    filters.register(1, &even).register(2, &odd);

    let served = serve_with(&db, &filters, &cfg, |handle| {
        println!(
            "neurospatial-server listening on {} ({} segments, {} workers, \
             queue {})",
            handle.addr(),
            circuit.segments().len(),
            cfg.workers,
            cfg.queue
        );
        loop {
            std::thread::sleep(Duration::from_secs(30));
            let m = handle.metrics();
            println!(
                "accepted={} rejected={} requests={} protocol_errors={}",
                m.accepted.get(),
                m.rejected.get(),
                m.requests.get(),
                m.protocol_errors.get()
            );
        }
    });
    if let Err(err) = served {
        eprintln!("failed to serve: {err}");
        std::process::exit(1);
    }
}
