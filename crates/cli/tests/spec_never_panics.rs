//! Property tests for the CLI's panic-free error surface: no experiment
//! file may make `ExperimentConfig::load` panic, and no config it accepts
//! may make a run panic. Hostile files must come back as typed
//! `SimError`s — loading is the trust boundary between user-supplied JSON
//! and the asserts inside `ExperimentConfig`'s `with_*` methods and the
//! models.

use std::sync::OnceLock;

use bighouse::des::check::{check, Gen};
use bighouse::des::Time;
use bighouse::sim::{run_serial, ExperimentConfig, SimError};
use bighouse::workloads::{StandardWorkload, Workload, WorkloadError, WorkloadRef};

/// Web, synthesized once for the whole file; any other reference resolves
/// as `bighouse run` resolves it.
fn resolve(reference: &WorkloadRef) -> Result<Workload, WorkloadError> {
    static WEB: OnceLock<Workload> = OnceLock::new();
    match reference {
        WorkloadRef::Standard(name) if name == "web" => Ok(WEB
            .get_or_init(|| Workload::standard(StandardWorkload::Web))
            .clone()),
        other => other.resolve(),
    }
}

/// Loads `text` as `bighouse run` does; a config it accepts runs, capped
/// at 20 000 events. Neither step may panic.
fn load_and_run(text: &str) -> Result<(), SimError> {
    let Ok(value) = bighouse_json::parse(text) else {
        return Ok(());
    };
    let config = ExperimentConfig::load(&value, resolve)?;
    config.validate()?;
    let config = config.with_max_events(20_000);
    run_serial(&config, 7).map(drop)
}

/// Floats including every hazard class a file can spell (`"inf"`,
/// `"-inf"` and `"NaN"` read as themselves wherever a float is expected);
/// any bit pattern one time in nine.
fn weird_f64(g: &mut Gen) -> f64 {
    const HAZARDS: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        -f64::MAX,
        f64::MIN_POSITIVE,
        0.0,
        -0.0,
    ];
    match g.range(0..9) {
        0 => g.any(),
        i => HAZARDS[i - 1],
    }
}

/// One of `valid` as JSON text — edge values included, since a value a
/// config accepts must also run — or, one time in sixteen, a hazard.
fn num(g: &mut Gen, valid: &[f64]) -> String {
    let x = if g.range(0..16) == 0 {
        weird_f64(g)
    } else {
        valid[g.range(0..valid.len())]
    };
    bighouse_json::to_string(&x)
}

/// One of `values`, as JSON text.
fn pick<T: bighouse_json::ToJson>(g: &mut Gen, values: &[T]) -> String {
    bighouse_json::to_string(&values[g.range(0..values.len())])
}

/// A count: one of `valid`, or one time in sixteen `0` or `u64::MAX`.
fn count(g: &mut Gen, valid: &[u64]) -> String {
    match g.range(0..32) {
        0 => "0".to_owned(),
        1 => u64::MAX.to_string(),
        _ => pick(g, valid),
    }
}

/// One of `fixed` or, as often as each, a finite float in ±1e12.
fn hostile_raw(g: &mut Gen, fixed: &[&str]) -> String {
    match g.range(0..fixed.len() + 1) {
        i if i < fixed.len() => fixed[i].to_owned(),
        _ => format!("{}", g.range(-1e12..1e12)),
    }
}

/// Seconds a latency, deadline or timeout may take: zero, tiny, typical
/// and the longest a config accepts (`f64::MAX` is among the hazards).
const SECONDS: [f64; 5] = [0.0, f64::MIN_POSITIVE, 1e-3, 0.1, Time::MAX_SPAN];

/// A quantile table: Web's service table sometimes, else one to three
/// points mixing valid and hostile quantiles and values.
fn table(g: &mut Gen) -> String {
    if g.any() {
        let web = resolve(&WorkloadRef::Standard("web".into())).unwrap();
        return bighouse_json::to_string(web.service());
    }
    let mut points = g.vec(1..4, |g| (g.range(0..3), g.weighted(&[4, 4, 4, 2, 1])));
    if g.range(0..8) != 0 {
        points.sort_unstable();
        points.dedup_by_key(|&mut (q, _)| q);
    }
    let points: Vec<String> = points
        .iter()
        .scan(0, |floor, &(q, v)| {
            *floor = (*floor).max(v);
            let v = [0.0, 1e-3, 0.02, Time::MAX_SPAN, 1e300][*floor];
            Some(format!("[{}, {v:?}]", [0.0, 0.5, 1.0][q]))
        })
        .collect();
    format!(r#"{{"points": [{}]}}"#, points.join(", "))
}

fn idle_policy(g: &mut Gen) -> String {
    match g.range(0..4) {
        0 => r#""AlwaysOn""#.to_owned(),
        1 => format!(
            r#"{{"PowerNap": {{"wake_latency": {}}}}}"#,
            num(g, &SECONDS)
        ),
        2 => format!(
            r#"{{"TimeoutNap": {{"idle_timeout": {}, "wake_latency": {}}}}}"#,
            num(g, &SECONDS),
            num(g, &SECONDS)
        ),
        _ => format!(
            r#"{{"DreamWeaver": {{"max_delay": {}, "wake_latency": {}}}}}"#,
            num(g, &SECONDS),
            num(g, &SECONDS)
        ),
    }
}

fn power_model(g: &mut Gen) -> String {
    let failed = if g.any() {
        num(g, &[0.0, 50.0])
    } else {
        "null".to_owned()
    };
    format!(
        r#"{{"idle_watts": {}, "dynamic_watts": {}, "nap_watts": {}, "failed_watts": {failed}}}"#,
        num(g, &[100.0, 5.0, 1e12]),
        num(g, &[100.0, 0.0, 1e12]),
        num(g, &[5.0, 0.0]),
    )
}

/// A `metrics` entry: a name (unknown one time in thirty-two) or a
/// `[kind, spec]` pair, its spec named after another kind one time in
/// thirty-two.
fn metric(g: &mut Gen) -> String {
    const KINDS: [(&str, &str); 9] = [
        ("ResponseTime", "response_time"),
        ("WaitingTime", "waiting_time"),
        ("CappingLevel", "capping_level"),
        ("ServerPower", "server_power"),
        ("Availability", "availability"),
        ("ShedRate", "shed_rate"),
        ("HedgeWinRate", "hedge_win_rate"),
        ("GoodputFraction", "goodput_fraction"),
        ("SloAttainment", "slo_attainment"),
    ];
    let (kind, name) = KINDS[g.weighted(&[4, 4, 1, 1, 1, 1, 1, 1, 1])];
    match g.range(0..32) {
        0 => r#""latency""#.to_owned(),
        1..=15 => format!(r#""{name}""#),
        i => {
            let spec_name = if i == 16 {
                KINDS[g.range(0..9)].1
            } else {
                name
            };
            let quantiles = g.vec(0..3, |g| num(g, &[0.5, 0.95, 0.999]));
            format!(
                r#"["{kind}", {{"name": "{spec_name}", "target_accuracy": {}, "confidence": {},
                    "quantiles": [{}], "warmup": {}, "calibration": {}, "max_lag": {}}}]"#,
                num(g, &[0.05, 0.5, f64::EPSILON]),
                num(g, &[0.95, 0.5]),
                quantiles.join(", "),
                count(g, &[0, 10]),
                count(g, &[1, 50]),
                count(g, &[1, 8]),
            )
        }
    }
}

/// A resilience block mixing valid and hostile values for every
/// sub-policy, including NaN-bearing floats.
fn resilience(g: &mut Gen) -> String {
    let classes = g.range(1usize..4);
    let mut fields = vec![format!(
        r#""classes": {}"#,
        pick(g, &[classes, classes, 0, 65])
    )];
    if g.any() {
        fields.push(if g.any() {
            format!(
                r#""admission": {{"BoundedQueue": {{"capacity": {}}}}}"#,
                count(g, &[1, 12])
            )
        } else {
            format!(
                r#""admission": {{"TokenBucket": {{"rate": {}, "burst": {}}}}}"#,
                num(g, &[f64::MIN_POSITIVE, 500.0, f64::MAX]),
                num(g, &[1.0, 32.0, f64::MAX])
            )
        });
    }
    if g.any() {
        let thresholds = g.vec(classes..classes + 1, |g| count(g, &[1, 4, 64]));
        fields.push(format!(
            r#""shedding": {{"depth_thresholds": [{}]}}"#,
            thresholds.join(", ")
        ));
    }
    if g.any() {
        fields.push(format!(
            r#""hedge": {{"deadline": {}}}"#,
            num(g, &SECONDS[1..])
        ));
    }
    if g.any() {
        let weights = g.vec(classes..classes + 1, |g| num(g, &[1e-300, 1.0, 1e300]));
        fields.push(format!(r#""class_weights": [{}]"#, weights.join(", ")));
    }
    if g.any() {
        fields.push(format!(
            r#""ramp": {{"start": {}, "duration": {}, "multiplier": {}}}"#,
            num(g, &SECONDS),
            num(g, &SECONDS[1..]),
            num(g, &[f64::MIN_POSITIVE, 0.5, 5.0, f64::MAX])
        ));
    }
    if g.any() {
        fields.push(format!(r#""slo_deadline": {}"#, num(g, &SECONDS[1..])));
    }
    format!("{{{}}}", fields.join(", "))
}

/// Arbitrary byte soup through the JSON front door (a regular expression's
/// `.*`: up to 32 characters, none a newline): parse errors are fine,
/// panics are not.
#[test]
fn from_json_never_panics_on_arbitrary_strings() {
    check("from_json_never_panics_on_arbitrary_strings", 256, |g| {
        let _ = load_and_run(&g.any_string(0..33));
    });
}

/// Almost-JSON soup: the characters JSON is made of, recombined at
/// random, probing the parser's edge cases harder than uniform noise.
#[test]
fn from_json_never_panics_on_jsonish_soup() {
    let jsonish: Vec<char> = "[]{}\",:0123456789E+-. abcdefghijklmnopqrstuvwxyz"
        .chars()
        .collect();
    check("from_json_never_panics_on_jsonish_soup", 256, |g| {
        let _ = load_and_run(&g.string(&jsonish, 0..65));
    });
}

/// Structurally valid JSON with hostile numeric payloads: whatever parses
/// must then load to Ok or a typed error, and run if it loads.
#[test]
fn hostile_numeric_json_resolves_without_panicking() {
    check(
        "hostile_numeric_json_resolves_without_panicking",
        256,
        |g| {
            let field = ["utilization", "target_accuracy", "confidence", "quantile"][g.range(0..4)];
            let raw = hostile_raw(
                g,
                &[
                    "1e999",
                    "-1e999",
                    r#""inf""#,
                    r#""-inf""#,
                    r#""NaN""#,
                    "0",
                    "-0.0",
                    "1e308",
                    "5e-324",
                ],
            );
            let _ = load_and_run(&format!(
                r#"{{"workload": {{"standard": "web"}}, "max_events": 20000, "{field}": {raw}}}"#
            ));
        },
    );
}

/// Every key set at once, each to an edge value or now and then a
/// hazard: loading never panics, and neither does a capped run of what
/// loads.
#[test]
fn resolve_never_panics_on_arbitrary_fields() {
    check("resolve_never_panics_on_arbitrary_fields", 256, |g| {
        let mut fields = vec![
            format!(r#""servers": {}"#, count(g, &[1, 2, 4])),
            format!(r#""cores_per_server": {}"#, count(g, &[1, 4])),
            format!(
                r#""target_accuracy": {}"#,
                num(g, &[0.05, 0.2, f64::EPSILON])
            ),
            format!(
                r#""confidence": {}"#,
                num(g, &[0.95, 0.5, f64::EPSILON, 1.0 - f64::EPSILON])
            ),
            format!(
                r#""quantile": {}"#,
                num(g, &[0.95, f64::MIN_POSITIVE, 1.0 - f64::EPSILON])
            ),
            format!(r#""warmup": {}"#, count(g, &[0, 50])),
            format!(r#""calibration": {}"#, count(g, &[1, 50, 500])),
            format!(r#""idle_policy": {}"#, idle_policy(g)),
        ];
        let workload = match g.range(0..4) {
            0 => format!(
                r#"{{"name": "w", "interarrival": {}, "service": {}}}"#,
                table(g),
                table(g)
            ),
            _ => r#"{"standard": "web"}"#.to_owned(),
        };
        fields.push(format!(r#""workload": {workload}"#));
        if g.any() {
            let utilization = num(g, &[0.5, 1e-9, 1.0 - f64::EPSILON]);
            fields.push(format!(r#""utilization": {utilization}"#));
        }
        if g.any() {
            fields.push(format!(
                r#""dvfs": {{"alpha": {}}}"#,
                num(g, &[0.0, 0.9, 1.0])
            ));
        }
        if g.any() {
            fields.push(format!(r#""power_model": {}"#, power_model(g)));
        }
        let modes = [r#""PerServer""#, r#"{"LoadBalanced": "JoinShortestQueue"}"#];
        fields.push(format!(r#""arrival_mode": {}"#, modes[g.range(0..2)]));
        let metrics = g.vec(0..4, metric);
        fields.push(format!(r#""metrics": [{}]"#, metrics.join(", ")));
        if g.any() {
            let audit = [
                ("check_interval_events", count(g, &[1, 4096])),
                ("stall_limit_events", count(g, &[2, 100_000])),
                (
                    "storm_budget_events_per_sim_second",
                    num(g, &[f64::MIN_POSITIVE, 1e9, f64::MAX]),
                ),
                ("storm_window_events", count(g, &[2, 1000])),
            ];
            let audit: Vec<String> = audit
                .into_iter()
                .filter(|_| g.any())
                .map(|(key, v)| format!(r#""{key}": {v}"#))
                .collect();
            fields.push(format!(r#""audit": {{{}}}"#, audit.join(", ")));
        }
        // Tiers act on a pipeline; a capper, faults, retries and
        // resilience on one cluster. Mostly one or the other.
        match g.range(0..3) {
            0 => {
                let tiers = g.vec(1..3, |g| {
                    format!(
                        r#"{{"servers": {}, "cores": {}, "service": {}, "idle_policy": {}}}"#,
                        count(g, &[1, 2]),
                        count(g, &[1, 4]),
                        table(g),
                        idle_policy(g)
                    )
                });
                fields.push(format!(r#""tiers": [{}]"#, tiers.join(", ")));
            }
            1 => {
                if g.any() {
                    let models = if g.any() {
                        format!(
                            r#", "power_model": {}, "dvfs": {{"alpha": {}}}"#,
                            power_model(g),
                            num(g, &[0.0, 0.9, 1.0])
                        )
                    } else {
                        String::new()
                    };
                    fields.push(format!(
                        r#""capper": {{"total_budget_watts": {}{models}}}"#,
                        num(g, &[500.0, f64::MIN_POSITIVE, f64::MAX])
                    ));
                }
                if g.any() {
                    fields.push(format!(
                        r#""faults": {{"spec": {{"mtbf": {}, "mttr": {}}}}}"#,
                        num(g, &[1.0, 100.0]),
                        num(g, &[0.1, 10.0])
                    ));
                }
                if g.any() {
                    fields.push(format!(
                        r#""retry": {{"timeout": {}, "max_retries": {}}}"#,
                        num(g, &SECONDS[1..]),
                        pick(g, &[0u32, 3, u32::MAX])
                    ));
                }
                if g.any() {
                    fields.push(format!(r#""resilience": {}"#, resilience(g)));
                }
            }
            _ => {}
        }
        let _ = load_and_run(&format!("{{{}}}", fields.join(", ")));
    });
}

/// Structurally valid JSON with hostile resilience payloads: whatever
/// parses must load to Ok or a typed error naming the field, and run if it
/// loads.
#[test]
fn hostile_resilience_json_resolves_without_panicking() {
    check(
        "hostile_resilience_json_resolves_without_panicking",
        256,
        |g| {
            let field = ["hedge", "slo_deadline", "classes"][g.range(0..3)];
            let raw = hostile_raw(
                g,
                &[
                    "1e999",
                    "-1e999",
                    r#""inf""#,
                    r#""-inf""#,
                    r#""NaN""#,
                    "0",
                    "-0.0",
                    "null",
                ],
            );
            let raw = if field == "hedge" {
                format!(r#"{{"deadline": {raw}}}"#)
            } else {
                raw
            };
            let text = format!(
                r#"{{"workload": {{"standard": "web"}}, "servers": 4, "max_events": 20000,
                 "resilience": {{"{field}": {raw}}}}}"#
            );
            if let Err(SimError::InvalidConfig(msg)) = load_and_run(&text) {
                assert!(
                    msg.contains("resilience") || msg.contains("at byte"),
                    "{msg}"
                );
            }
        },
    );
}
