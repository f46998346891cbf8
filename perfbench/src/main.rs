//! Command-line entry point; see the crate docs and `README.md`.

use ampnet_perfbench::{host, report, run, Opts, Size, WORKLOADS};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).map(String::as_str);
        let parsed = match (args[i].as_str(), val) {
            ("--workload", Some(v)) => {
                opts.workload = v.to_string();
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| opts.seed = s).is_ok(),
            ("--seconds", Some(v)) => v
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .map(|s| opts.seconds = s)
                .is_some(),
            ("--trace", Some("0")) => {
                opts.trace = false;
                true
            }
            ("--trace", Some("1")) => {
                opts.trace = true;
                true
            }
            _ => false,
        };
        if !parsed {
            return usage(&format!("bad argument {:?}", args[i]));
        }
        i += 2;
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return usage(&format!("unknown workload {:?}", opts.workload));
    }
    println!(
        "run-header: workload={} seed={} seconds={} trace={} nproc={} pdes_threads={} profile={} commit={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host::nproc(),
        ampnet_perfbench::pdes_threads(),
        host::profile(),
        host::commit()
    );
    let Some(out) = run(&opts) else {
        return usage(&format!("unknown workload {:?}", opts.workload));
    };
    for note in &out.notes {
        println!("{note}");
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let catalogue = if opts.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", out.result_line(catalogue));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
