//! Argument parsing for the `autosens` CLI (hand-rolled: the approved
//! dependency set has no argument parser, and the surface is small).

use std::str::FromStr;

use autosens_sim::Scenario;
use autosens_telemetry::record::{ActionType, UserClass};
use autosens_telemetry::time::{DayPeriod, Month};

/// Usage text shown on parse errors.
pub const USAGE: &str = "\
usage:
  autosens generate --scenario <smoke|default|paper-scale> --out <path> [--format csv|jsonl|asc] [--seed N]
                    [--threads N]
  autosens convert  --in <path> --out <path> [--format csv|jsonl] [--shard-ms MS]
  autosens analyze  --in <path> [--format csv|jsonl] [--action A] [--class C]
                    [--period P] [--month M] [--tz HOURS] [--no-alpha]
                    [--loss-correct[=on|off]] [--reference MS]
                    [--ci REPLICATES] [--json] [--threads N]
                    [--profile] [--trace-out PATH] [--metrics-out PATH]
  autosens diagnose --in <path> [--format csv|jsonl]
  autosens alpha    --in <path> [--format csv|jsonl] [--action A] [--class C]
                    [--period P] [--month M] [--tz HOURS]
  autosens abandonment --in <path> [--format csv|jsonl] [--action A] [--class C]
                    [--period P] [--month M] [--tz HOURS] [--gap MS]
  autosens report   --in <path> [--format csv|jsonl] [--action A] [--class C]
                    [--period P] [--month M] [--tz HOURS]
  autosens audit    --in <path> [--format csv|jsonl] [--json] [--metrics-out PATH]
  autosens inject   --in <path> --plan <plan.json> --out <path> [--format csv|jsonl]
  autosens watch    --in <path> [--format csv|jsonl] [--action A] [--class C]
                    [--period P] [--month M] [--tz HOURS] [--no-alpha]
                    [--loss-correct[=on|off]] [--reference MS] [--json] [--threads N]
                    [--every-events N] [--every-ms MS] [--until-eof]
                    [--shard-ms MS] [--lateness-ms MS]
                    [--checkpoint PATH] [--resume]
                    [--detect] [--half-life MS] [--status-out PATH]
                    [--profile] [--trace-out PATH] [--metrics-out PATH]
  autosens serve    [--listen ADDR] [--http ADDR] [--checkpoint-dir DIR] [--resume]
                    [--ready-file PATH] [--shard-ms MS] [--lateness-ms MS]
                    [--no-alpha] [--loss-correct[=on|off]] [--reference MS] [--threads N]
  autosens agent    --to ADDR --in <path> --service S --region R
                    [--format csv|jsonl] [--batch N] [--retries N]
                    [--backoff-ms MS] [--no-commit]
  autosens query    --addr ADDR --path /tenant/<service>/<region>/curve

  global:  [--quiet|-q] [--verbose|-v]

  Each subcommand accepts only the flags listed for it (plus the global
  ones); any other flag is an error.

  serve listens for agent pushes on --listen (TCP `host:port`, or a unix
  socket when the address contains `/`) and answers HTTP GETs on --http
  (/healthz, /tenants, /fleet, /metrics, /tenant/<service>/<region>/
  {curve,status,shifts}). --ready-file is written as `INGEST HTTP` once
  both listeners are bound (useful with port 0). agent pushes a log to a
  gateway for one tenant and COMMITs at EOF unless --no-commit. query
  prints the raw HTTP response body from a gateway.

  Binary `.asc` container inputs are auto-detected by file magic on every
  reading command; `--format` describes the *text* format and is ignored
  for container inputs.

  actions: SelectMail | SwitchFolder | Search | ComposeSend | Other
  classes: Business | Consumer
  periods: 8am-2pm | 2pm-8pm | 8pm-2am | 2am-8am
  months:  Jan | Feb | ... | Dec";

/// Input/output file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Comma-separated values with the fixed header.
    Csv,
    /// One serde-JSON record per line.
    Jsonl,
    /// The `.asc` binary columnar container (write-side only; reads
    /// auto-detect containers by magic regardless of this flag).
    Asc,
}

/// Slice filters shared by the commands that analyze one slice.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliceArgs {
    /// Restrict to one action type.
    pub action: Option<ActionType>,
    /// Restrict to one user class.
    pub class: Option<UserClass>,
    /// Restrict to one local-time day period.
    pub period: Option<DayPeriod>,
    /// Restrict to one calendar month.
    pub month: Option<Month>,
    /// Restrict to one timezone region (offset in whole hours).
    pub tz_hours: Option<i64>,
}

/// Estimator options shared by `analyze`, `watch` and `serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisArgs {
    /// Disable the time-confounder correction.
    pub no_alpha: bool,
    /// Estimate telemetry loss and reweight the curve (`--loss-correct`,
    /// default on; `--loss-correct=off` preserves the uncorrected output
    /// byte for byte).
    pub loss_correct: bool,
    /// Reference latency in ms.
    pub reference_ms: f64,
    /// Worker threads (0 = auto).
    pub threads: usize,
}

/// Profiling outputs shared by `analyze` and `watch`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileArgs {
    /// Print the per-stage wall-clock profile to stderr.
    pub profile: bool,
    /// Write the span trace as JSONL to this path.
    pub trace_out: Option<String>,
    /// Write the metrics snapshot as JSON to this path.
    pub metrics_out: Option<String>,
}

/// The `watch` options.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchArgs {
    /// Input path (may still be growing).
    pub input: String,
    /// Input format.
    pub format: Format,
    /// Slice filters.
    pub slice: SliceArgs,
    /// Estimator options.
    pub analysis: AnalysisArgs,
    /// Emit JSON instead of a text table.
    pub json: bool,
    /// Emit a snapshot every N admitted events (None = final only).
    pub every_events: Option<u64>,
    /// Emit a snapshot at least every M wall-clock ms (None = final only).
    pub every_ms: Option<u64>,
    /// Stop at end-of-file instead of waiting for growth.
    pub until_eof: bool,
    /// Shard width in event-time ms.
    pub shard_ms: i64,
    /// Allowed lateness (watermark budget) in ms.
    pub lateness_ms: i64,
    /// Checkpoint file to write after each flush (and read with --resume).
    pub checkpoint: Option<String>,
    /// Resume from the --checkpoint file instead of starting fresh.
    pub resume: bool,
    /// Run online regime-shift detection at each flush.
    pub detect: bool,
    /// Maintain a windowed decayed curve with this half-life (event-time
    /// ms) alongside the lifetime curve.
    pub half_life_ms: Option<i64>,
    /// Rewrite a JSON health document at this path on every flush.
    pub status_out: Option<String>,
    /// Profiling outputs, written after the run.
    pub profile: ProfileArgs,
}

/// The `serve` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Ingest listen address (`host:port`, or a unix-socket path when it
    /// contains `/`).
    pub listen: String,
    /// HTTP query-plane listen address.
    pub http: String,
    /// Directory for versioned fleet checkpoints (enables COMMIT
    /// durability).
    pub checkpoint_dir: Option<String>,
    /// Restore the fleet from --checkpoint-dir before serving.
    pub resume: bool,
    /// Write `INGEST HTTP` bound addresses to this file once ready.
    pub ready_file: Option<String>,
    /// Shard width in event-time ms.
    pub shard_ms: i64,
    /// Allowed lateness (watermark budget) in ms.
    pub lateness_ms: i64,
    /// Estimator options; `threads` also sizes the gateway.
    pub analysis: AnalysisArgs,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate synthetic telemetry.
    Generate {
        /// Which preset scenario.
        scenario: Scenario,
        /// Output path.
        out: String,
        /// Output format.
        format: Format,
        /// Optional seed override.
        seed: Option<u64>,
        /// Worker threads (0 = auto).
        threads: usize,
    },
    /// Analyze a log and print the preference curve.
    Analyze {
        /// Input path.
        input: String,
        /// Input format.
        format: Format,
        /// Slice filters.
        slice: SliceArgs,
        /// Estimator options.
        analysis: AnalysisArgs,
        /// Bootstrap replicates for a 95% confidence band (None = no band).
        ci_replicates: Option<usize>,
        /// Emit JSON instead of a text table.
        json: bool,
        /// Profiling outputs.
        profile: ProfileArgs,
    },
    /// Convert a telemetry log to the `.asc` binary columnar container.
    Convert {
        /// Input path (CSV, JSONL, or an existing container).
        input: String,
        /// Output path for the container.
        out: String,
        /// Input format when the input is text.
        format: Format,
        /// Optional shard width for the embedded time-range index.
        shard_ms: Option<i64>,
    },
    /// Run the locality diagnostics.
    Diagnose {
        /// Input path.
        input: String,
        /// Input format.
        format: Format,
    },
    /// Print activity factors per day period.
    Alpha {
        /// Input path.
        input: String,
        /// Input format.
        format: Format,
        /// Slice filters.
        slice: SliceArgs,
    },
    /// Emit the full JSON analysis bundle for a slice.
    Report {
        /// Input path.
        input: String,
        /// Input format.
        format: Format,
        /// Slice filters.
        slice: SliceArgs,
    },
    /// Audit a log's data quality (loss, duplicates, heaping, nulls).
    Audit {
        /// Input path.
        input: String,
        /// Input format.
        format: Format,
        /// Emit the quality report as JSON instead of text.
        json: bool,
        /// Write the audit's metrics snapshot (including the per-cell
        /// `autosens_quality_*` loss evidence) as JSON to this path.
        metrics_out: Option<String>,
    },
    /// Apply a fault-injection plan to a log and write the corrupted copy.
    Inject {
        /// Input path.
        input: String,
        /// Path to the JSON fault plan.
        plan: String,
        /// Output path for the corrupted log.
        out: String,
        /// Input and output format.
        format: Format,
    },
    /// Tail a growing log and emit updated curves via the streaming engine.
    Watch(WatchArgs),
    /// Run the multi-tenant ingest gateway plus its HTTP query plane.
    Serve(ServeArgs),
    /// Push a telemetry log to a gateway as one tenant's agent.
    AgentPush {
        /// Gateway ingest address.
        to: String,
        /// Input path.
        input: String,
        /// Input format.
        format: Format,
        /// Tenant service label.
        service: String,
        /// Tenant region label.
        region: String,
        /// Records per batch frame.
        batch: usize,
        /// Connect attempts before giving up.
        retries: u32,
        /// Base backoff between connect attempts, ms (doubles per retry).
        backoff_ms: u64,
        /// Ask the gateway to checkpoint durably after the last batch
        /// (default on; `--no-commit` disables).
        commit: bool,
    },
    /// Fetch one query-plane path from a gateway and print the body.
    Query {
        /// Gateway HTTP address.
        addr: String,
        /// Request path (e.g. `/tenant/mail/eu/curve`).
        path: String,
    },
    /// Session-abandonment analysis (non-sticky services).
    Abandonment {
        /// Input path.
        input: String,
        /// Input format.
        format: Format,
        /// Slice filters.
        slice: SliceArgs,
        /// Sessionization gap threshold in ms.
        gap_ms: i64,
    },
}

/// Parse an argument vector (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let (sub, rest) = argv.split_first().ok_or("missing subcommand")?;
    let f = Flags::read(sub, rest)?;
    let format = match f.value("--format") {
        None | Some("csv") => Format::Csv,
        Some("jsonl") => Format::Jsonl,
        Some("asc") => Format::Asc,
        Some(other) => return Err(format!("unknown format {other:?}")),
    };
    let shard_ms = || f.positive("--shard-ms").map(|v| v.unwrap_or(6 * 3_600_000));
    let lateness_ms = || f.positive("--lateness-ms").map(|v| v.unwrap_or(3_600_000));

    Ok(match sub.as_str() {
        "generate" => Command::Generate {
            scenario: match f.value("--scenario").unwrap_or("default") {
                "smoke" => Scenario::Smoke,
                "default" => Scenario::Default,
                "paper-scale" => Scenario::PaperScale,
                other => return Err(format!("unknown scenario {other:?}")),
            },
            out: f.required("--out")?,
            format,
            seed: f.parsed("--seed")?,
            threads: f.parsed("--threads")?.unwrap_or(0),
        },
        "analyze" => Command::Analyze {
            input: f.required("--in")?,
            format,
            slice: f.slice()?,
            analysis: f.analysis()?,
            ci_replicates: f.parsed("--ci")?,
            json: f.has("--json"),
            profile: f.profile(),
        },
        "convert" => Command::Convert {
            input: f.required("--in")?,
            out: f.required("--out")?,
            format,
            shard_ms: f.positive("--shard-ms")?,
        },
        "diagnose" => Command::Diagnose {
            input: f.required("--in")?,
            format,
        },
        "alpha" => Command::Alpha {
            input: f.required("--in")?,
            format,
            slice: f.slice()?,
        },
        "report" => Command::Report {
            input: f.required("--in")?,
            format,
            slice: f.slice()?,
        },
        "audit" => Command::Audit {
            input: f.required("--in")?,
            format,
            json: f.has("--json"),
            metrics_out: f.string("--metrics-out"),
        },
        "inject" => Command::Inject {
            input: f.required("--in")?,
            plan: f.required("--plan")?,
            out: f.required("--out")?,
            format,
        },
        "watch" => {
            let checkpoint = f.string("--checkpoint");
            let resume = f.has("--resume");
            if resume && checkpoint.is_none() {
                return Err("--resume requires --checkpoint".into());
            }
            Command::Watch(WatchArgs {
                input: f.required("--in")?,
                format,
                slice: f.slice()?,
                analysis: f.analysis()?,
                json: f.has("--json"),
                every_events: f.parsed("--every-events")?,
                every_ms: f.parsed("--every-ms")?,
                until_eof: f.has("--until-eof"),
                shard_ms: shard_ms()?,
                lateness_ms: lateness_ms()?,
                checkpoint,
                resume,
                detect: f.has("--detect"),
                half_life_ms: f.positive("--half-life")?,
                status_out: f.string("--status-out"),
                profile: f.profile(),
            })
        }
        "serve" => {
            let checkpoint_dir = f.string("--checkpoint-dir");
            let resume = f.has("--resume");
            if resume && checkpoint_dir.is_none() {
                return Err("--resume requires --checkpoint-dir".into());
            }
            Command::Serve(ServeArgs {
                listen: f.value("--listen").unwrap_or("127.0.0.1:7341").to_string(),
                http: f.value("--http").unwrap_or("127.0.0.1:7342").to_string(),
                checkpoint_dir,
                resume,
                ready_file: f.string("--ready-file"),
                shard_ms: shard_ms()?,
                lateness_ms: lateness_ms()?,
                analysis: f.analysis()?,
            })
        }
        "agent" => Command::AgentPush {
            to: f.required("--to")?,
            input: f.required("--in")?,
            format,
            service: f.required("--service")?,
            region: f.required("--region")?,
            batch: f.positive("--batch")?.unwrap_or(4096),
            retries: f.parsed("--retries")?.unwrap_or(5),
            backoff_ms: f.parsed("--backoff-ms")?.unwrap_or(100),
            commit: !f.has("--no-commit"),
        },
        "query" => Command::Query {
            addr: f.required("--addr")?,
            path: f.required("--path")?,
        },
        "abandonment" => Command::Abandonment {
            input: f.required("--in")?,
            format,
            slice: f.slice()?,
            gap_ms: f.parsed("--gap")?.unwrap_or(10 * 60_000),
        },
        other => return Err(format!("unknown subcommand {other:?}")),
    })
}

/// Flags that take no value token.
const BOOLEAN: &[&str] = &[
    "--no-alpha",
    "--json",
    "--profile",
    "--until-eof",
    "--resume",
    "--detect",
    "--no-commit",
    "--loss-correct",
];

/// The flags after a subcommand, read in one pass into (flag, value)
/// pairs. Every lookup reads these pairs, and the last occurrence of a
/// repeated flag wins.
struct Flags<'a> {
    /// The subcommand, for error messages.
    sub: &'a str,
    /// Each flag with its value (`""` for a boolean flag; `on` or `off`
    /// for `--loss-correct`).
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    /// Validate `rest` against the flags `sub` accepts: a flag the
    /// subcommand does not read is an error, so a typo or another
    /// subcommand's flag is never silently ignored, and a value flag with
    /// nothing after it, or with another flag after it, is an error
    /// rather than a silent default.
    fn read(sub: &'a str, rest: &'a [String]) -> Result<Self, String> {
        let accepted = flags_of(sub).ok_or_else(|| format!("unknown subcommand {sub:?}"))?;
        let mut pairs = Vec::new();
        let mut tokens = rest.iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            let (name, value) = match token {
                // Verbosity is valid anywhere; `verbosity` reads it.
                "--quiet" | "-q" | "--verbose" | "-v" => continue,
                // `--loss-correct` is boolean with an optional inline value.
                "--loss-correct" | "--loss-correct=on" => ("--loss-correct", "on"),
                "--loss-correct=off" => ("--loss-correct", "off"),
                _ if token.starts_with("--loss-correct=") => {
                    return Err(format!(
                        "bad value for --loss-correct: {token:?} (use --loss-correct[=on|off])"
                    ))
                }
                _ if !token.starts_with("--") => {
                    return Err(format!("unexpected argument {token:?}"))
                }
                _ => (token, ""),
            };
            if !accepted.contains(&name) {
                return Err(format!("flag {name} is not valid for {sub}"));
            }
            let value = if BOOLEAN.contains(&name) {
                value
            } else {
                // A value may start with a single `-` (`--tz -5`).
                match tokens.next() {
                    Some(v) if !v.starts_with("--") => v,
                    _ => return Err(format!("flag {name} needs a value")),
                }
            };
            pairs.push((name, value));
        }
        Ok(Flags { sub, pairs })
    }

    /// The value of the last occurrence of `name`.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.pairs
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    fn string(&self, name: &str) -> Option<String> {
        self.value(name).map(str::to_string)
    }

    fn required(&self, name: &str) -> Result<String, String> {
        self.string(name)
            .ok_or_else(|| format!("{} requires {name}", self.sub))
    }

    /// The value of `name` parsed as a `T`.
    fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("bad value for {name}: {s:?}"))
            })
            .transpose()
    }

    /// The value of `name` parsed as a count greater than zero.
    fn positive<T: FromStr + PartialOrd + Default>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|s| {
                s.parse()
                    .ok()
                    .filter(|v| *v > T::default())
                    .ok_or_else(|| format!("{name} must be a positive integer, got {s:?}"))
            })
            .transpose()
    }

    fn slice(&self) -> Result<SliceArgs, String> {
        Ok(SliceArgs {
            action: self
                .value("--action")
                .map(|s| ActionType::parse(s).ok_or(format!("unknown action {s:?}")))
                .transpose()?,
            class: self
                .value("--class")
                .map(|s| UserClass::parse(s).ok_or(format!("unknown class {s:?}")))
                .transpose()?,
            period: self.value("--period").map(parse_period).transpose()?,
            month: self.value("--month").map(parse_month).transpose()?,
            tz_hours: self.parsed("--tz")?,
        })
    }

    fn analysis(&self) -> Result<AnalysisArgs, String> {
        Ok(AnalysisArgs {
            no_alpha: self.has("--no-alpha"),
            loss_correct: self.value("--loss-correct") != Some("off"),
            reference_ms: self.parsed("--reference")?.unwrap_or(300.0),
            threads: self.parsed("--threads")?.unwrap_or(0),
        })
    }

    fn profile(&self) -> ProfileArgs {
        ProfileArgs {
            profile: self.has("--profile"),
            trace_out: self.string("--trace-out"),
            metrics_out: self.string("--metrics-out"),
        }
    }
}

/// The flags subcommand `sub` reads, besides the global verbosity flags;
/// `None` for an unknown subcommand.
fn flags_of(sub: &str) -> Option<Vec<&'static str>> {
    const INPUT: &[&str] = &["--in", "--format"];
    const SLICE: &[&str] = &["--action", "--class", "--period", "--month", "--tz"];
    const ANALYSIS: &[&str] = &["--no-alpha", "--loss-correct", "--reference", "--threads"];
    const PROFILE: &[&str] = &["--profile", "--trace-out", "--metrics-out"];
    let groups: &[&[&str]] = match sub {
        "generate" => &[&["--scenario", "--out", "--format", "--seed", "--threads"]],
        "convert" => &[INPUT, &["--out", "--shard-ms"]],
        "analyze" => &[INPUT, SLICE, ANALYSIS, PROFILE, &["--ci", "--json"]],
        "diagnose" => &[INPUT],
        "alpha" | "report" => &[INPUT, SLICE],
        "abandonment" => &[INPUT, SLICE, &["--gap"]],
        "audit" => &[INPUT, &["--json", "--metrics-out"]],
        "inject" => &[INPUT, &["--plan", "--out"]],
        "watch" => &[
            INPUT,
            SLICE,
            ANALYSIS,
            PROFILE,
            &["--json", "--every-events", "--every-ms", "--until-eof"],
            &["--shard-ms", "--lateness-ms", "--checkpoint", "--resume"],
            &["--detect", "--half-life", "--status-out"],
        ],
        "serve" => &[
            ANALYSIS,
            &["--listen", "--http", "--checkpoint-dir", "--resume"],
            &["--ready-file", "--shard-ms", "--lateness-ms"],
        ],
        "agent" => &[
            INPUT,
            &["--to", "--service", "--region", "--batch", "--retries"],
            &["--backoff-ms", "--no-commit"],
        ],
        "query" => &[&["--addr", "--path"]],
        _ => return None,
    };
    Some(groups.concat())
}

/// Extract the output verbosity from an argument vector. Independent of
/// subcommand parsing so warnings emitted *during* parsing already honor it;
/// the last flag wins when several are given.
pub fn verbosity(argv: &[String]) -> autosens_obs::Verbosity {
    let mut v = autosens_obs::Verbosity::Normal;
    for a in argv {
        match a.as_str() {
            "--quiet" | "-q" => v = autosens_obs::Verbosity::Quiet,
            "--verbose" | "-v" => v = autosens_obs::Verbosity::Verbose,
            _ => {}
        }
    }
    v
}

fn parse_period(s: &str) -> Result<DayPeriod, String> {
    match s {
        "8am-2pm" => Ok(DayPeriod::Morning8to14),
        "2pm-8pm" => Ok(DayPeriod::Afternoon14to20),
        "8pm-2am" => Ok(DayPeriod::Evening20to2),
        "2am-8am" => Ok(DayPeriod::Night2to8),
        other => Err(format!("unknown period {other:?}")),
    }
}

fn parse_month(s: &str) -> Result<Month, String> {
    let months = [
        ("Jan", Month::Jan),
        ("Feb", Month::Feb),
        ("Mar", Month::Mar),
        ("Apr", Month::Apr),
        ("May", Month::May),
        ("Jun", Month::Jun),
        ("Jul", Month::Jul),
        ("Aug", Month::Aug),
        ("Sep", Month::Sep),
        ("Oct", Month::Oct),
        ("Nov", Month::Nov),
        ("Dec", Month::Dec),
    ];
    months
        .iter()
        .find(|(name, _)| *name == s)
        .map(|(_, m)| *m)
        .ok_or(format!("unknown month {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(&sv(&["generate", "--scenario", "smoke", "--out", "x.csv"])).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                scenario: Scenario::Smoke,
                out: "x.csv".into(),
                format: Format::Csv,
                seed: None,
                threads: 0,
            }
        );
        let cmd = parse(&sv(&[
            "generate", "--out", "x.jsonl", "--format", "jsonl", "--seed", "7",
        ]))
        .unwrap();
        match cmd {
            Command::Generate {
                scenario,
                format,
                seed,
                ..
            } => {
                assert_eq!(scenario, Scenario::Default);
                assert_eq!(format, Format::Jsonl);
                assert_eq!(seed, Some(7));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_analyze_with_slice() {
        let cmd = parse(&sv(&[
            "analyze",
            "--in",
            "logs.csv",
            "--action",
            "SelectMail",
            "--class",
            "Business",
            "--period",
            "8am-2pm",
            "--month",
            "Feb",
            "--no-alpha",
            "--reference",
            "250",
            "--json",
        ]))
        .unwrap();
        match cmd {
            Command::Analyze {
                input,
                slice,
                analysis,
                json,
                ..
            } => {
                assert_eq!(input, "logs.csv");
                assert_eq!(slice.action, Some(ActionType::SelectMail));
                assert_eq!(slice.class, Some(UserClass::Business));
                assert_eq!(slice.period, Some(DayPeriod::Morning8to14));
                assert_eq!(slice.month, Some(Month::Feb));
                assert!(analysis.no_alpha);
                assert_eq!(analysis.reference_ms, 250.0);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_convert() {
        let cmd = parse(&sv(&["convert", "--in", "x.csv", "--out", "x.asc"])).unwrap();
        assert_eq!(
            cmd,
            Command::Convert {
                input: "x.csv".into(),
                out: "x.asc".into(),
                format: Format::Csv,
                shard_ms: None,
            }
        );
        match parse(&sv(&[
            "convert",
            "--in",
            "x.jsonl",
            "--out",
            "x.asc",
            "--format",
            "jsonl",
            "--shard-ms",
            "3600000",
        ]))
        .unwrap()
        {
            Command::Convert {
                format, shard_ms, ..
            } => {
                assert_eq!(format, Format::Jsonl);
                assert_eq!(shard_ms, Some(3_600_000));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["convert", "--in", "x.csv"])).is_err()); // missing --out
        assert!(parse(&sv(&["convert", "--out", "x.asc"])).is_err()); // missing --in
        assert!(parse(&sv(&[
            "convert",
            "--in",
            "x",
            "--out",
            "y",
            "--shard-ms",
            "0"
        ]))
        .is_err());
        assert!(parse(&sv(&[
            "convert",
            "--in",
            "x",
            "--out",
            "y",
            "--shard-ms",
            "1h"
        ]))
        .is_err());
    }

    #[test]
    fn parses_asc_format() {
        match parse(&sv(&["generate", "--out", "x.asc", "--format", "asc"])).unwrap() {
            Command::Generate { format, .. } => assert_eq!(format, Format::Asc),
            other => panic!("{other:?}"),
        }
        match parse(&sv(&["watch", "--in", "x.asc", "--format", "asc"])).unwrap() {
            Command::Watch(w) => assert_eq!(w.format, Format::Asc),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_diagnose_and_alpha() {
        assert!(matches!(
            parse(&sv(&["diagnose", "--in", "x.csv"])).unwrap(),
            Command::Diagnose { .. }
        ));
        assert!(matches!(
            parse(&sv(&["alpha", "--in", "x.csv", "--class", "Consumer"])).unwrap(),
            Command::Alpha { .. }
        ));
    }

    #[test]
    fn parses_audit_and_inject() {
        let cmd = parse(&sv(&["audit", "--in", "x.csv", "--json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Audit {
                input: "x.csv".into(),
                format: Format::Csv,
                json: true,
                metrics_out: None,
            }
        );
        match parse(&sv(&["audit", "--in", "x.csv", "--metrics-out", "m.json"])).unwrap() {
            Command::Audit { metrics_out, .. } => {
                assert_eq!(metrics_out.as_deref(), Some("m.json"));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "inject", "--in", "x.jsonl", "--plan", "p.json", "--out", "y.jsonl", "--format",
            "jsonl",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Inject {
                input: "x.jsonl".into(),
                plan: "p.json".into(),
                out: "y.jsonl".into(),
                format: Format::Jsonl,
            }
        );
        assert!(parse(&sv(&["audit"])).is_err()); // missing --in
        assert!(parse(&sv(&["inject", "--in", "x"])).is_err()); // missing --plan
        assert!(parse(&sv(&["inject", "--in", "x", "--plan", "p"])).is_err()); // missing --out
    }

    #[test]
    fn parses_watch() {
        let cmd = parse(&sv(&["watch", "--in", "x.csv", "--until-eof", "--json"])).unwrap();
        match cmd {
            Command::Watch(w) => {
                assert_eq!(w.input, "x.csv");
                assert!(w.until_eof);
                assert!(w.json);
                assert_eq!(w.every_events, None);
                assert_eq!(w.every_ms, None);
                assert_eq!(w.shard_ms, 6 * 3_600_000);
                assert_eq!(w.lateness_ms, 3_600_000);
                assert_eq!(w.checkpoint, None);
                assert!(!w.resume);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "watch",
            "--in",
            "x.csv",
            "--every-events",
            "5000",
            "--every-ms",
            "2000",
            "--shard-ms",
            "3600000",
            "--lateness-ms",
            "60000",
            "--checkpoint",
            "ck.json",
            "--resume",
            "--action",
            "Search",
        ]))
        .unwrap();
        match cmd {
            Command::Watch(w) => {
                assert_eq!(w.every_events, Some(5000));
                assert_eq!(w.every_ms, Some(2000));
                assert_eq!(w.shard_ms, 3_600_000);
                assert_eq!(w.lateness_ms, 60_000);
                assert_eq!(w.checkpoint.as_deref(), Some("ck.json"));
                assert!(w.resume);
                assert_eq!(w.slice.action, Some(ActionType::Search));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["watch"])).is_err()); // missing --in
        assert!(parse(&sv(&["watch", "--in", "x", "--resume"])).is_err()); // no --checkpoint
        assert!(parse(&sv(&["watch", "--in", "x", "--shard-ms", "0"])).is_err());
        assert!(parse(&sv(&["watch", "--in", "x", "--every-events", "soon"])).is_err());
    }

    #[test]
    fn parses_watch_observability_flags() {
        // Defaults: detection off, no windowed curve, no status document.
        match parse(&sv(&["watch", "--in", "x.csv", "--until-eof"])).unwrap() {
            Command::Watch(w) => {
                assert!(!w.detect);
                assert_eq!(w.half_life_ms, None);
                assert_eq!(w.status_out, None);
                assert!(!w.profile.profile);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "watch",
            "--in",
            "x.csv",
            "--detect",
            "--half-life",
            "172800000",
            "--status-out",
            "status.json",
            "--profile",
            "--trace-out",
            "trace.jsonl",
        ]))
        .unwrap();
        match cmd {
            Command::Watch(w) => {
                assert!(w.detect);
                assert_eq!(w.half_life_ms, Some(172_800_000));
                assert_eq!(w.status_out.as_deref(), Some("status.json"));
                assert!(w.profile.profile);
                assert_eq!(w.profile.trace_out.as_deref(), Some("trace.jsonl"));
            }
            other => panic!("{other:?}"),
        }
        // --detect is boolean: it must not swallow the next token.
        match parse(&sv(&["watch", "--detect", "--in", "x.csv"])).unwrap() {
            Command::Watch(w) => {
                assert_eq!(w.input, "x.csv");
                assert!(w.detect);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["watch", "--in", "x", "--half-life", "0"])).is_err());
        assert!(parse(&sv(&["watch", "--in", "x", "--half-life", "2d"])).is_err());
    }

    #[test]
    fn parses_serve() {
        match parse(&sv(&["serve"])).unwrap() {
            Command::Serve(s) => {
                assert_eq!(s.listen, "127.0.0.1:7341");
                assert_eq!(s.http, "127.0.0.1:7342");
                assert_eq!(s.checkpoint_dir, None);
                assert!(!s.resume);
                assert_eq!(s.ready_file, None);
                assert_eq!(s.shard_ms, 6 * 3_600_000);
                assert_eq!(s.lateness_ms, 3_600_000);
                assert!(s.analysis.loss_correct);
            }
            other => panic!("{other:?}"),
        }
        match parse(&sv(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--http",
            "127.0.0.1:0",
            "--checkpoint-dir",
            "ckpts",
            "--resume",
            "--ready-file",
            "ready.txt",
        ]))
        .unwrap()
        {
            Command::Serve(s) => {
                assert_eq!(s.listen, "127.0.0.1:0");
                assert_eq!(s.checkpoint_dir.as_deref(), Some("ckpts"));
                assert!(s.resume);
                assert_eq!(s.ready_file.as_deref(), Some("ready.txt"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["serve", "--resume"])).is_err()); // no --checkpoint-dir
        assert!(parse(&sv(&["serve", "--capacity", "1024"])).is_err()); // one queue size
        assert!(parse(&sv(&["serve", "--shard-ms", "0"])).is_err());
    }

    #[test]
    fn parses_agent_and_query() {
        let cmd = parse(&sv(&[
            "agent",
            "--to",
            "127.0.0.1:7341",
            "--in",
            "x.csv",
            "--service",
            "mail",
            "--region",
            "eu",
        ]))
        .unwrap();
        match cmd {
            Command::AgentPush {
                to,
                input,
                service,
                region,
                batch,
                retries,
                backoff_ms,
                commit,
                ..
            } => {
                assert_eq!(to, "127.0.0.1:7341");
                assert_eq!(input, "x.csv");
                assert_eq!(service, "mail");
                assert_eq!(region, "eu");
                assert_eq!(batch, 4096);
                assert_eq!(retries, 5);
                assert_eq!(backoff_ms, 100);
                assert!(commit);
            }
            other => panic!("{other:?}"),
        }
        match parse(&sv(&[
            "agent",
            "--to",
            "a:1",
            "--in",
            "x",
            "--service",
            "s",
            "--region",
            "r",
            "--batch",
            "128",
            "--no-commit",
        ]))
        .unwrap()
        {
            Command::AgentPush { batch, commit, .. } => {
                assert_eq!(batch, 128);
                assert!(!commit);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["agent", "--in", "x"])).is_err()); // missing --to
        assert!(parse(&sv(&["agent", "--to", "a:1", "--in", "x"])).is_err()); // missing tenant
        assert!(parse(&sv(&[
            "agent",
            "--to",
            "a:1",
            "--in",
            "x",
            "--service",
            "s",
            "--region",
            "r",
            "--batch",
            "0",
        ]))
        .is_err());

        let cmd = parse(&sv(&[
            "query",
            "--addr",
            "127.0.0.1:7342",
            "--path",
            "/tenant/mail/eu/curve",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Query {
                addr: "127.0.0.1:7342".into(),
                path: "/tenant/mail/eu/curve".into(),
            }
        );
        assert!(parse(&sv(&["query", "--addr", "a:1"])).is_err()); // missing --path
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&sv(&[])).is_err());
        assert!(parse(&sv(&["frobnicate"])).is_err());
        assert!(parse(&sv(&["generate"])).is_err()); // missing --out
        assert!(parse(&sv(&["analyze"])).is_err()); // missing --in
        assert!(parse(&sv(&["analyze", "--in", "x", "--action", "Click"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--class", "VIP"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--period", "noon"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--month", "Smarch"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--tz", "east"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--format", "xml"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--reference", "fast"])).is_err());
        assert!(parse(&sv(&["generate", "--out", "x", "--seed", "NaN"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--bogus", "y"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "stray"])).is_err());
        assert!(parse(&sv(&["generate", "--out", "x", "--scenario", "huge"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--threads", "many"])).is_err());
        // Another subcommand's flag is refused, not ignored.
        assert!(parse(&sv(&["serve", "--checkpoint", "ck.json"])).is_err());
        assert!(parse(&sv(&["watch", "--in", "x", "--checkpoint-dir", "d"])).is_err());
        let stray = sv(&[
            "analyze",
            "--in",
            "x",
            "--resume",
            "--listen",
            "a",
            "--no-commit",
        ]);
        let err = parse(&stray).unwrap_err();
        assert_eq!(err, "flag --resume is not valid for analyze");
    }

    #[test]
    fn value_flag_without_a_value_is_an_error() {
        for line in [
            &["generate", "--out", "x.csv", "--seed"][..],
            &["analyze", "--in", "x.csv", "--json", "--reference"],
            &["analyze", "--in", "x.csv", "--metrics-out"],
            &["audit", "--in", "x.csv", "--metrics-out"],
            &["convert", "--in", "x.csv", "--out", "x.asc", "--shard-ms"],
            &["watch", "--in", "x.csv", "--shard-ms"],
            &["serve", "--shard-ms"],
            &["analyze", "--in"],
            &["analyze", "--in", "--json"],
        ] {
            let err = parse(&sv(line)).unwrap_err();
            let flag = line.iter().rev().find(|t| **t != "--json").unwrap();
            assert_eq!(err, format!("flag {flag} needs a value"), "{line:?}");
        }
        // The next flag is not taken as the value.
        let err = parse(&sv(&["analyze", "--in", "x.csv", "--trace-out", "--json"])).unwrap_err();
        assert_eq!(err, "flag --trace-out needs a value");
        // A negative number is a value.
        match parse(&sv(&["analyze", "--in", "x.csv", "--tz", "-5"])).unwrap() {
            Command::Analyze { slice, .. } => assert_eq!(slice.tz_hours, Some(-5)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repeated_flag_takes_its_last_value() {
        let cmd = parse(&sv(&[
            "analyze",
            "--in",
            "a.csv",
            "--reference",
            "250",
            "--in",
            "b.csv",
            "--reference",
            "400",
            "--metrics-out",
            "m1.json",
            "--metrics-out",
            "m2.json",
        ]))
        .unwrap();
        match cmd {
            Command::Analyze {
                input,
                analysis,
                profile,
                ..
            } => {
                assert_eq!(input, "b.csv");
                assert_eq!(analysis.reference_ms, 400.0);
                assert_eq!(profile.metrics_out.as_deref(), Some("m2.json"));
            }
            other => panic!("{other:?}"),
        }
        match parse(&sv(&[
            "generate", "--out", "x", "--seed", "1", "--seed", "2",
        ]))
        .unwrap()
        {
            Command::Generate { seed, .. } => assert_eq!(seed, Some(2)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn usage_lists_exactly_the_flags_each_subcommand_accepts() {
        let usage = USAGE.split("global:").next().unwrap();
        for block in usage.split("  autosens ").skip(1) {
            let sub = block.split_whitespace().next().unwrap();
            let mut listed: Vec<&str> = block
                .split(|c: char| c.is_whitespace() || "[]|=".contains(c))
                .filter(|t| t.starts_with("--"))
                .collect();
            listed.sort_unstable();
            listed.dedup();
            let mut accepted = flags_of(sub).unwrap();
            accepted.sort_unstable();
            assert_eq!(listed, accepted, "{sub}");
        }
    }

    #[test]
    fn parses_threads() {
        // Default is 0 (auto); explicit values pass through on both commands.
        match parse(&sv(&["analyze", "--in", "x.csv"])).unwrap() {
            Command::Analyze { analysis, .. } => assert_eq!(analysis.threads, 0),
            other => panic!("{other:?}"),
        }
        match parse(&sv(&["analyze", "--in", "x.csv", "--threads", "4"])).unwrap() {
            Command::Analyze { analysis, .. } => assert_eq!(analysis.threads, 4),
            other => panic!("{other:?}"),
        }
        match parse(&sv(&["generate", "--out", "x.csv", "--threads", "2"])).unwrap() {
            Command::Generate { threads, .. } => assert_eq!(threads, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_loss_correct() {
        // Default on.
        match parse(&sv(&["analyze", "--in", "x.csv"])).unwrap() {
            Command::Analyze { analysis, .. } => assert!(analysis.loss_correct),
            other => panic!("{other:?}"),
        }
        // Bare flag and =on are explicit on.
        match parse(&sv(&["analyze", "--in", "x.csv", "--loss-correct"])).unwrap() {
            Command::Analyze { analysis, .. } => assert!(analysis.loss_correct),
            other => panic!("{other:?}"),
        }
        match parse(&sv(&["analyze", "--in", "x.csv", "--loss-correct=on"])).unwrap() {
            Command::Analyze { analysis, .. } => assert!(analysis.loss_correct),
            other => panic!("{other:?}"),
        }
        // =off disables the correction.
        match parse(&sv(&["analyze", "--in", "x.csv", "--loss-correct=off"])).unwrap() {
            Command::Analyze { analysis, .. } => assert!(!analysis.loss_correct),
            other => panic!("{other:?}"),
        }
        // Watch takes the same flag; last occurrence wins.
        match parse(&sv(&[
            "watch",
            "--in",
            "x.csv",
            "--loss-correct=off",
            "--loss-correct=on",
        ]))
        .unwrap()
        {
            Command::Watch(w) => assert!(w.analysis.loss_correct),
            other => panic!("{other:?}"),
        }
        // The flag is boolean: it must not swallow the next token.
        match parse(&sv(&["analyze", "--loss-correct", "--in", "x.csv"])).unwrap() {
            Command::Analyze { input, .. } => assert_eq!(input, "x.csv"),
            other => panic!("{other:?}"),
        }
        // Any other inline value is rejected.
        assert!(parse(&sv(&["analyze", "--in", "x", "--loss-correct=maybe"])).is_err());
        assert!(parse(&sv(&["analyze", "--in", "x", "--loss-correction"])).is_err());
    }

    #[test]
    fn parses_profiling_flags() {
        let cmd = parse(&sv(&[
            "analyze",
            "--in",
            "x.csv",
            "--profile",
            "--trace-out",
            "trace.jsonl",
            "--metrics-out",
            "metrics.json",
        ]))
        .unwrap();
        match cmd {
            Command::Analyze { profile, .. } => {
                assert!(profile.profile);
                assert_eq!(profile.trace_out.as_deref(), Some("trace.jsonl"));
                assert_eq!(profile.metrics_out.as_deref(), Some("metrics.json"));
            }
            other => panic!("{other:?}"),
        }
        // Verbosity flags are accepted anywhere, long or short.
        assert!(parse(&sv(&["analyze", "--in", "x.csv", "--quiet"])).is_ok());
        assert!(parse(&sv(&["audit", "--in", "x.csv", "-v"])).is_ok());
    }

    #[test]
    fn extracts_verbosity() {
        use autosens_obs::Verbosity;
        assert_eq!(verbosity(&sv(&["analyze", "--in", "x"])), Verbosity::Normal);
        assert_eq!(verbosity(&sv(&["analyze", "-q"])), Verbosity::Quiet);
        assert_eq!(
            verbosity(&sv(&["analyze", "--verbose"])),
            Verbosity::Verbose
        );
        // Last one wins.
        assert_eq!(verbosity(&sv(&["-v", "--quiet"])), Verbosity::Quiet);
    }

    #[test]
    fn month_parser_covers_all() {
        for m in [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ] {
            assert!(parse_month(m).is_ok());
        }
        assert!(parse_month("January").is_err());
    }
}
