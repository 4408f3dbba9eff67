//! The streaming decision service CLI.
//!
//! ```text
//! cargo run -p st-serve --bin serve -- --demo 18 --seed 7          # demo workload
//! cargo run -p st-serve --bin serve -- --script FILE --jobs 4      # scripted run
//! cargo run -p st-serve --bin serve -- --demo 18 --print-script    # show the script
//! cargo run -p st-serve --bin serve -- --script FILE --trace-dir D # JSONL per session
//! cargo run -p st-serve --bin serve -- --script FILE --listen ADDR # framed TCP service
//! ```
//!
//! A scripted run prints the deterministic transcript: admission
//! decisions (with the paper-bound reservation each session was priced
//! at, and a signed bill on every rejection), per-session settlement
//! (verdict, measured reversals/bits, replay-audit and signature
//! checks), and per-tenant budget accounting. The transcript is
//! byte-identical for a given `(script, --seed)` whatever `--jobs` is.
//! Exit status: 0 on a clean run, 1 when any session errored, failed
//! its audit, or exceeded its reservation, 2 on usage errors.
//!
//! With `--listen`, the script's tenants are registered and the framed
//! request/response protocol of `st_serve::protocol` is served over
//! TCP until the process is killed; scripted sessions are not run.

use st_bench::cli::{take_flag, take_jobs_flag, take_path_flag, take_switch, take_u64_flag};
use st_serve::{run_script, serve_listener, Script, ServeOptions, Service};

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: serve (--script FILE | --demo N) [--print-script] [--seed S] \
         [--jobs J] [--step-batch B] [--trace-dir DIR] [--listen ADDR] \
         [--read-timeout SECS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let script_path = take_path_flag(&mut args, "--script").unwrap_or_else(|e| usage_error(&e));
    let demo = take_flag(&mut args, "--demo")
        .unwrap_or_else(|e| usage_error(&e))
        .map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| usage_error(&format!("--demo requires an integer, got `{v}`")))
        });
    let print_script = take_switch(&mut args, "--print-script");
    let seed = take_u64_flag(&mut args, "--seed", 0).unwrap_or_else(|e| usage_error(&e));
    let jobs = take_jobs_flag(&mut args).unwrap_or_else(|e| usage_error(&e));
    let step_batch =
        take_u64_flag(&mut args, "--step-batch", 64).unwrap_or_else(|e| usage_error(&e));
    let trace_dir = take_path_flag(&mut args, "--trace-dir").unwrap_or_else(|e| usage_error(&e));
    let listen = take_flag(&mut args, "--listen").unwrap_or_else(|e| usage_error(&e));
    let read_timeout =
        take_u64_flag(&mut args, "--read-timeout", 30).unwrap_or_else(|e| usage_error(&e));
    if let Some(stray) = args.first() {
        usage_error(&format!("unexpected argument {stray}"));
    }

    let script = match (&script_path, demo) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("reading {}: {e}", path.display());
                std::process::exit(2);
            });
            Script::parse(&text).unwrap_or_else(|e| usage_error(&e))
        }
        (None, Some(count)) => Script::demo(count),
        _ => usage_error("exactly one of --script FILE or --demo N is required"),
    };
    if print_script {
        print!("{}", script.render());
        return;
    }

    if let Some(addr) = listen {
        let service = Service::new(ServeOptions::default().billing_key, seed);
        for tenant in &script.tenants {
            service.register_tenant(&tenant.name, tenant.budget);
        }
        let listener = std::net::TcpListener::bind(&addr).unwrap_or_else(|e| {
            eprintln!("binding {addr}: {e}");
            std::process::exit(1);
        });
        eprintln!("serving {} tenant(s) on {addr}", script.tenants.len());
        // A stalled peer must not pin a handler thread forever: past the
        // deadline the handler answers a typed error and closes orderly
        // (0 = no timeout).
        let read_timeout = (read_timeout > 0).then(|| std::time::Duration::from_secs(read_timeout));
        serve_listener(&service, listener.incoming(), read_timeout);
        return;
    }

    let opts = ServeOptions {
        jobs,
        step_batch,
        master_seed: seed,
        trace_dir,
        ..ServeOptions::default()
    };
    match run_script(&script, &opts) {
        Ok(run) => {
            print!("{}", run.transcript);
            if !run.clean() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
