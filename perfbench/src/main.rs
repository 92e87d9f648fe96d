//! The simulator benchmark.
//!
//! `perfbench --workload <lan-read|lan-crowd|chaos-soak> --seed <n>
//! --seconds <s> --trace <0|1>` runs one untimed warm-up batch of the
//! workload, then timed batches back to back until `--seconds` of host
//! time have passed, and reports the mean timed batch. With `--trace 1`
//! it then runs one traced batch and reports per-layer metrics instead.
//! Every batch of a run must produce the same simulated-result digest,
//! and so must the warm-up and the traced batch.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod layers;
mod procstat;
mod stats;
mod tracesys;
mod workloads;

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

use layers::Metric;
use stats::{mean, median, quantile_sorted};
use workloads::{run_batch, shrunk_case, Batch, LanSpec, Size, Workload};

const USAGE: &str = "usage: perfbench --workload <lan-read|lan-crowd|chaos-soak> --seed <n> \
                     --seconds <s> --trace <0|1>";

#[derive(Clone, Copy, Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

/// What one benchmark invocation produces.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the JSON line, in declaration order.
    metrics: Vec<Metric>,
    /// Figures printed for readers but not gated.
    extra: Vec<String>,
    notes: Vec<String>,
    digest: u64,
    summary: String,
}

fn size_text(a: &Args) -> String {
    match a.workload {
        Workload::ChaosSoak => {
            let seeds = workloads::soak_seeds(a.size, a.seed);
            format!(
                "{} soak worlds from derive_world over seeds 0..{}, order shuffled by --seed",
                seeds.len(),
                seeds.len()
            )
        }
        w => LanSpec::for_workload(w, a.size).describe(),
    }
}

fn run(a: &Args) -> Outcome {
    let started = Instant::now();
    // The warm-up batch pays for first-touch page faults, cold caches and
    // the allocator's growth; it is checked but not timed.
    let warmup = run_batch(a.workload, a.size, a.seed, false);
    let mut batches: Vec<Batch> = Vec::new();
    loop {
        batches.push(run_batch(a.workload, a.size, a.seed, false));
        if started.elapsed().as_secs_f64() >= a.seconds {
            break;
        }
    }
    let peak_rss_mb = procstat::peak_rss_mb();
    let first = warmup.digest;
    let summary = warmup.summary.clone();
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut notes = BTreeSet::new();
    // A batch whose digest differs from the warm-up's counts every op it
    // ran as failed: one build must reproduce its simulated results exactly.
    let mut tally = |b: &Batch, label: &str, notes: &mut BTreeSet<String>| {
        attempted += b.attempted;
        failed += b.failed;
        if b.digest != first {
            correct = false;
            failed += b.ops;
            notes.insert(format!(
                "{label} digest {:016x} differs from the warm-up batch's {first:016x}: {}",
                b.digest, b.summary
            ));
        }
        notes.extend(b.notes.iter().cloned());
    };
    tally(&warmup, "warm-up batch", &mut notes);
    for b in &batches {
        tally(b, "untraced batch", &mut notes);
    }

    // Times are means over the timed batches. On a shared host a batch's
    // times scatter around a level that drifts over minutes, with few
    // outliers, so the mean spreads less from run to run than the median
    // (IQR/median 0.085 vs 0.109 for wall time over 25 s windows of a
    // 20-minute lan-read series on a 2-vCPU VM). The kernel also splits
    // CPU time into user and system by sampling at each timer tick, so
    // the split of a sub-second batch jitters by about 10 %; the run's
    // totals carry many more ticks.
    let walls: Vec<f64> = batches.iter().map(|b| b.wall_s).collect();
    let per_batch = |f: &dyn Fn(&Batch) -> f64| mean(&batches.iter().map(f).collect::<Vec<_>>());
    let ops: u64 = batches.iter().map(|b| b.ops).sum();
    let e2e = [
        Metric::new("wall_s", mean(&walls), "s"),
        Metric::new(
            "sim_ops_per_host_s",
            ops as f64 / walls.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new("cpu_user_s", per_batch(&|b| b.usage.user_s), "s"),
        Metric::new("cpu_sys_s", per_batch(&|b| b.usage.sys_s), "s"),
        Metric::new(
            "ctx_switches",
            per_batch(&|b| b.usage.switches() as f64),
            "count",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        // Set-up takes milliseconds, so single set-ups jump with cache
        // state; each batch already reports the median of several.
        Metric::new(
            "setup_s",
            median(&batches.iter().map(|b| b.setup_s).collect::<Vec<_>>()),
            "s",
        ),
    ];

    // Readers see the end-to-end figures on every run.
    let mut extra: Vec<String> = e2e
        .iter()
        .map(|m| format!("metric {} {} {}", m.name, m.value, m.unit))
        .collect();
    // Simulated results repeat exactly across the run's batches.
    let b0 = &warmup;
    extra.push(format!(
        "batches {} timed after 1 warm-up (untraced; each time above is the mean timed batch, \
         setup_s the median); wall_s per batch {:?}",
        batches.len(),
        walls
    ));
    extra.push(format!(
        "cpu_sys_s per batch {:?}",
        batches.iter().map(|b| b.usage.sys_s).collect::<Vec<_>>()
    ));
    let rtts = &b0.sim.rtts_ns;
    extra.push(format!(
        "host cost per op: {} context switches, {} us CPU, {:.1} % of it system time",
        per_batch(&|b| b.usage.switches() as f64 / b.ops.max(1) as f64),
        per_batch(&|b| b.usage.cpu_s() * 1e6 / b.ops.max(1) as f64),
        100.0 * per_batch(&|b| b.usage.sys_s / b.usage.cpu_s())
    ));
    if a.workload == Workload::ChaosSoak {
        extra.push(
            "ops are oracle observations (client file operations, each one or more RPCs)".into(),
        );
    }
    if rtts.is_empty() {
        extra.push("metric sim_rtt_p50_ms n/a (the soak harness reports no per-op latency)".into());
        extra.push("metric sim_rtt_p999_ms n/a".into());
        extra.push(
            "metric sim_retrans_per_op n/a (the soak harness reports no transport counters)".into(),
        );
    } else {
        let ms = |ns: u64| ns as f64 / 1e6;
        let beyond = rtts.len() - (rtts.len() as f64 * 0.999).ceil() as usize;
        extra.push(format!(
            "metric sim_rtt_p50_ms {} ms (sim; n={})",
            ms(quantile_sorted(rtts, 0.5)),
            rtts.len()
        ));
        extra.push(format!(
            "metric sim_rtt_p999_ms {} ms (sim; n={}, {} samples beyond)",
            ms(quantile_sorted(rtts, 0.999)),
            rtts.len(),
            beyond
        ));
        extra.push(format!(
            "metric sim_retrans_per_op {} count (sim; {} retransmits / {} ops)",
            b0.sim.retransmits.unwrap_or(0) as f64 / b0.ops.max(1) as f64,
            b0.sim.retransmits.unwrap_or(0),
            b0.ops
        ));
    }

    let metrics = if a.trace {
        let traced = run_batch(a.workload, a.size, a.seed, true);
        tally(&traced, "traced batch", &mut notes);
        extra.push(format!(
            "traced batch wall_s {} s vs untraced mean {} s (tracing overhead x{:.3})",
            traced.wall_s,
            mean(&walls),
            traced.wall_s / mean(&walls)
        ));
        if let Some(t) = &traced.trace {
            let clients: BTreeSet<u32> = t.spans.iter().map(|s| s.client).collect();
            extra.push(format!(
                "traced batch recorded {} syscall spans from {} client machines and captured {} RPCs",
                t.spans.len(),
                clients.len(),
                t.captured.len()
            ));
        }
        let mut layer_notes = Vec::new();
        let m = layers::per_layer(
            a.workload,
            a.size,
            a.seed,
            &traced,
            mean(&walls),
            &mut layer_notes,
        );
        notes.extend(layer_notes);
        if a.workload == Workload::ChaosSoak {
            notes.insert(
                "chaos-soak: core.syscall.*, sim.*, core.nfsd.*, netsim frag counters and \
                 transport.udp counters read 0; the soak harness exposes no world or Syscalls hook"
                    .to_string(),
            );
            for &s in &traced.violating_seeds {
                notes.insert(format!(
                    "shrunk repro: repro soak --case \"{}\"",
                    shrunk_case(s)
                ));
            }
        } else {
            notes.insert(
                "oracle.* and core.router.route_ns read 0: Nhfsstone bypasses the oracle and the router"
                    .to_string(),
            );
        }
        m
    } else {
        e2e.into()
    };
    extra.push(format!(
        "metric failed_ops_pct {} % ({failed} of {attempted} ops)",
        100.0 * failed as f64 / attempted.max(1) as f64
    ));

    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        extra,
        notes: notes.into_iter().collect(),
        digest: first,
        summary,
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed={} size=\"{}\" trace={} cpus_allowed={cpus}",
        args.workload.name(),
        args.seed,
        size_text(&args),
        u8::from(args.trace)
    );
    let o = run(&args);
    println!("digest {:016x} {}", o.digest, o.summary);
    for line in &o.extra {
        println!("{line}");
    }
    if args.trace {
        for m in &o.metrics {
            println!("layer {} {} {}", m.name, m.value, m.unit);
        }
    }
    for n in &o.notes {
        println!("note {n}");
    }
    println!("{}", json_line(&o));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: Workload, trace: bool) -> Outcome {
        run(&Args {
            workload,
            seed: 5,
            seconds: 1e-3,
            trace,
            size: Size::Tiny,
        })
    }

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// `(name, unit)` of each metric `BENCHMARK.json` declares in a section.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| -> String {
            let from = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[from..].split('"').next().expect("quoted").to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn every_workload_runs_tiny_and_names_are_valid() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let o = tiny(w, trace);
                let emitted: Vec<(String, String)> = o
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                let section = if trace { "per_layer" } else { "end_to_end" };
                assert_eq!(emitted, declared(section), "{w:?} {section}");
                assert!(o.correct, "{w:?} trace={trace}: {:?}", o.notes);
                assert!(o.attempted > 0, "{w:?} ran no operations");
                assert_eq!(o.failed, 0, "{w:?}: {:?}", o.notes);
                let names: BTreeSet<&str> = o.metrics.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(names.len(), o.metrics.len(), "duplicate metric names");
                for m in &o.metrics {
                    assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
                    assert!(m.value.is_finite());
                }
                assert!(valid_name(w.name()));
            }
        }
    }

    #[test]
    fn wrapper_leaves_the_digest_unchanged() {
        for w in Workload::ALL {
            let plain = run_batch(w, Size::Tiny, 9, false);
            let again = run_batch(w, Size::Tiny, 9, false);
            let traced = run_batch(w, Size::Tiny, 9, true);
            assert_eq!(plain.digest, again.digest, "{w:?}: {}", plain.summary);
            assert_eq!(
                plain.digest, traced.digest,
                "{w:?}: untraced {} vs traced {}",
                plain.summary, traced.summary
            );
            if w != Workload::ChaosSoak {
                let t = traced.trace.expect("traced");
                assert!(!t.spans.is_empty() && !t.captured.is_empty());
            }
        }
    }

    #[test]
    fn wrapper_spans_carry_the_generators_rtts() {
        for w in [Workload::LanRead, Workload::LanCrowd] {
            let b = run_batch(w, Size::Tiny, 3, true);
            let t = b.trace.expect("traced");
            let mut rpc_ns: Vec<u64> = t
                .spans
                .iter()
                .filter(|s| matches!(s.call, tracesys::Call::Rpc(_)))
                .map(|s| s.virt_end_ns - s.virt_start_ns)
                .collect();
            assert_eq!(rpc_ns.len() as u64, b.attempted, "{w:?}: one span per call");
            rpc_ns.sort_unstable();
            // Every measured RTT is some span's virtual duration.
            let mut spans = rpc_ns.iter().peekable();
            for rtt in &b.sim.rtts_ns {
                while spans.next_if(|&&d| d < *rtt).is_some() {}
                assert_eq!(spans.next(), Some(rtt), "{w:?}: RTT {rtt} ns has no span");
            }
        }
    }

    #[test]
    fn seeds_change_the_inputs() {
        let a = run_batch(Workload::LanRead, Size::Tiny, 1, false);
        let b = run_batch(Workload::LanRead, Size::Tiny, 2, false);
        assert_ne!(a.digest, b.digest);
        assert_ne!(
            workloads::soak_seeds(Size::Full, 1),
            workloads::soak_seeds(Size::Full, 2)
        );
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let o = tiny(Workload::LanRead, false);
        let line = json_line(&o);
        for key in [
            "\"correct\": true",
            "\"attempted\": ",
            "\"failed\": 0",
            "\"wall_s\"",
            "\"setup_s\"",
        ] {
            assert!(line.contains(key), "{key} missing from {line}");
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload lan-read --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload lan-read --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload lan-read --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload lan-read --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload lan-read --seed 1 --seconds 10").is_err());
    }
}
