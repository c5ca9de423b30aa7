//! The `rev-serve` daemon binary.
//!
//! ```text
//! rev-serve [--workers N] [--slice N] [--queue-cap N] [--retries N]
//!           [--backoff-ms N] [--ckpt-every N] [--listen ADDR]
//!           [--idle-timeout SECS] [--verbose]
//!           [--chaos-panic ID:SLICE] [--chaos-corrupt ID] [--chaos-stall ID:MS]
//! ```
//!
//! By default the daemon speaks `rev-serve/2` on stdin/stdout — the
//! mode the smoke gates in `scripts/check.sh` drive, and the simplest
//! way to embed the gateway under another process. With `--listen ADDR`
//! it binds a TCP socket instead and serves connections sequentially,
//! one full protocol conversation per connection (a fresh `serve.*`
//! registry each time); `--idle-timeout` arms a per-connection read
//! timeout so an idle client cannot hold the daemon forever. The
//! `--chaos-*` flags inject service-layer faults (worker panics,
//! checkpoint corruption, slow-worker stalls) for the crash-recovery
//! smoke gate and the `rev-chaos --serve` campaign; they are never used
//! in normal operation. See `docs/SERVE.md` for the protocol and the
//! fault-tolerance contract.

use rev_serve::server::{serve, ServeOptions};
use std::io::{BufReader, Write as _};
use std::net::TcpListener;
use std::time::Duration;

/// The flag summary printed under a usage error.
const USAGE: &str = "usage: rev-serve [--workers N] [--slice N] [--queue-cap N] [--retries N]
                 [--backoff-ms N] [--ckpt-every N] [--listen ADDR]
                 [--idle-timeout SECS] [--verbose]
                 [--chaos-panic ID:SLICE] [--chaos-corrupt ID] [--chaos-stall ID:MS]";

/// A parsed command line.
struct Cli {
    opts: ServeOptions,
    listen: Option<String>,
    idle_timeout: Option<Duration>,
}

/// Parses an integer flag value.
fn int<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag} must be an integer, got '{v}'"))
}

/// Splits `ID:VALUE` (last colon wins, so ids may contain colons).
fn id_value(flag: &str, arg: &str) -> Result<(String, u64), String> {
    let (id, value) =
        arg.rsplit_once(':').ok_or_else(|| format!("{flag} expects ID:VALUE, got '{arg}'"))?;
    Ok((id.to_string(), int(flag, value)?))
}

/// Parses the argument list (everything after the binary name).
fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: ServeOptions { quiet: true, ..Default::default() },
        listen: None,
        idle_timeout: None,
    };
    let opts = &mut cli.opts;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--workers" => opts.workers = int(flag, &value()?)?,
            "--slice" => {
                opts.slice = int(flag, &value()?)?;
                if opts.slice == 0 {
                    return Err("--slice must be at least 1".to_string());
                }
            }
            "--queue-cap" => opts.queue_cap = int(flag, &value()?)?,
            "--retries" => opts.max_retries = int(flag, &value()?)?,
            "--backoff-ms" => opts.retry_backoff_ms = int(flag, &value()?)?,
            "--ckpt-every" => opts.ckpt_every = int(flag, &value()?)?,
            "--listen" => cli.listen = Some(value()?),
            "--idle-timeout" => {
                let secs: u64 = int(flag, &value()?)?;
                if secs == 0 {
                    return Err("--idle-timeout must be at least 1 second".to_string());
                }
                cli.idle_timeout = Some(Duration::from_secs(secs));
            }
            "--chaos-panic" => opts.chaos.panics.push(id_value(flag, &value()?)?),
            "--chaos-corrupt" => opts.chaos.corrupt_ckpt.push(value()?),
            "--chaos-stall" => opts.chaos.stall_ms.push(id_value(flag, &value()?)?),
            "--verbose" => opts.quiet = false,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

fn main() {
    let Cli { opts, listen, idle_timeout } =
        parse(std::env::args().skip(1)).unwrap_or_else(|err| {
            eprintln!("rev-serve: {err}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        });
    match listen {
        None => {
            let stdin = std::io::stdin();
            serve(stdin.lock(), std::io::stdout(), &opts);
        }
        Some(addr) => {
            let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
                eprintln!("rev-serve: cannot bind {addr}: {e}");
                std::process::exit(1);
            });
            if !opts.quiet {
                eprintln!("rev-serve: listening on {addr}");
            }
            for conn in listener.incoming() {
                let stream = match conn {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("rev-serve: accept failed: {e}");
                        continue;
                    }
                };
                // An idle client trips the read timeout; serve() treats
                // the resulting read error as EOF and drains cleanly.
                if let Err(e) = stream.set_read_timeout(idle_timeout) {
                    eprintln!("rev-serve: cannot arm idle timeout: {e}");
                    continue;
                }
                let reader = BufReader::new(match stream.try_clone() {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("rev-serve: cannot clone stream: {e}");
                        continue;
                    }
                });
                serve(reader, &stream, &opts);
                let _ = (&stream).flush();
            }
        }
    }
}
