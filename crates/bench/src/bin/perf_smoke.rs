//! Perf-regression smoke: compares a fresh `BENCH_headline.json` against
//! the committed baseline and fails when throughput regressed.
//!
//! Raw events/sec is hostage to the machine it ran on, so the comparison
//! is normalized: both files carry `calibration_spin_ns` (the cost of a
//! fixed integer spin on that machine), and `events_per_sec × spin_ns` —
//! events per spin-unit of CPU — cancels single-core speed to first order.
//! The tolerance (default 20%, `--tolerance` / `ROM_PERF_TOLERANCE`)
//! absorbs what normalization cannot: turbo states, cache topology, and
//! co-tenant noise. Runs being compared must use the same `--jobs`
//! setting; the spin is single-core and does not model parallel speedup.
//!
//! Baselines written before the calibration field existed compare on raw
//! events/sec (a warning is printed) rather than failing the smoke.
//!
//! Usage: `perf_smoke --baseline <committed.json> --fresh <new.json>
//! [--tolerance 0.20]`

/// The fields of one baseline this smoke consumes.
struct Baseline {
    events_per_sec: f64,
    spin_ns: Option<f64>,
    jobs: Option<f64>,
}

/// Extracts the first JSON number following `key` in `s`.
fn num_after(s: &str, key: &str) -> Option<f64> {
    let start = s.find(key)? + key.len();
    let rest = &s[start..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load(path: &str) -> Baseline {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(err) => {
            eprintln!("error: cannot read {path}: {err}");
            std::process::exit(2);
        }
    };
    // The total block is the sweep-wide number; phase entries also carry
    // an events_per_sec, so anchor on "total" first.
    let Some(total_at) = json.find("\"total\":") else {
        eprintln!("error: {path} has no \"total\" block");
        std::process::exit(2);
    };
    let Some(events_per_sec) = num_after(&json[total_at..], "\"events_per_sec\":") else {
        eprintln!("error: {path} total block has no events_per_sec");
        std::process::exit(2);
    };
    Baseline {
        events_per_sec,
        spin_ns: num_after(&json, "\"calibration_spin_ns\":"),
        jobs: num_after(&json, "\"jobs\":"),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_smoke --baseline <committed.json> --fresh <new.json> [--tolerance 0.20]"
    );
    std::process::exit(2);
}

/// A tolerance must parse and lie in [0, 1). NaN is refused with the
/// rest: it would make the floor comparison false, so the gate could
/// never fail.
fn parse_tolerance(raw: Option<String>) -> f64 {
    match raw.and_then(|v| v.parse::<f64>().ok()) {
        Some(t) if (0.0..1.0).contains(&t) => t,
        _ => usage(),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut baseline_path = String::from("BENCH_headline.json");
    let mut fresh_path = None;
    let mut tolerance = match std::env::var("ROM_PERF_TOLERANCE") {
        Ok(raw) => parse_tolerance(Some(raw)),
        Err(_) => 0.20,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next().unwrap_or_else(|| usage()),
            "--fresh" => fresh_path = Some(args.next().unwrap_or_else(|| usage())),
            "--tolerance" => tolerance = parse_tolerance(args.next()),
            other => {
                eprintln!("error: unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let Some(fresh_path) = fresh_path else { usage() };

    let committed = load(&baseline_path);
    let fresh = load(&fresh_path);
    if let (Some(a), Some(b)) = (committed.jobs, fresh.jobs) {
        if (a - b).abs() > 0.5 {
            eprintln!("error: jobs mismatch (baseline {a}, fresh {b}); rerun with matching --jobs");
            std::process::exit(2);
        }
    }

    let (old_score, new_score, unit) = match (committed.spin_ns, fresh.spin_ns) {
        (Some(a), Some(b)) => (
            committed.events_per_sec * a,
            fresh.events_per_sec * b,
            "events_per_spin_unit",
        ),
        _ => {
            println!("warning: calibration_spin_ns missing; comparing raw events/sec");
            (committed.events_per_sec, fresh.events_per_sec, "events_per_sec")
        }
    };
    let floor = old_score * (1.0 - tolerance);
    println!(
        "perf_smoke: baseline {old_score:.1} {unit}, fresh {new_score:.1}, floor {floor:.1} (tolerance {tolerance})"
    );
    if new_score < floor {
        eprintln!(
            "error: headline throughput regressed more than {:.0}%: {new_score:.1} < {floor:.1} {unit}",
            tolerance * 100.0
        );
        std::process::exit(1);
    }
    println!("perf_smoke: ok");
}
