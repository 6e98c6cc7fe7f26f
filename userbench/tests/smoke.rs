//! Smoke-size runs of every workload, untraced and traced: each must pass
//! its checks and print, on its last line, exactly the metrics that
//! BENCHMARK.json names for that kind of run, each with its unit; the
//! report line must carry the workload's own end-to-end metrics.

use std::collections::BTreeMap;
use std::process::Command;

#[derive(Clone, Debug, PartialEq)]
enum V {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<V>),
    Obj(BTreeMap<String, V>),
}

impl V {
    fn get(&self, key: &str) -> &V {
        match self {
            V::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            V::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            V::Num(x) => *x,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[V] {
        match self {
            V::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, V> {
        match self {
            V::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

/// A small JSON reader, enough for the benchmark's own output.
struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> V {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes in {text:?}");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self) -> V {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return V::Obj(m);
                }
                loop {
                    self.ws();
                    let V::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return V::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return V::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return V::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    let c = self.s[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return V::Str(out),
                        b'\\' => {
                            let e = self.s[self.i];
                            self.i += 1;
                            match e {
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                                    self.i += 4;
                                    out.push(
                                        char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                            .unwrap(),
                                    );
                                }
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                other => out.push(other as char),
                            }
                        }
                        _ => {
                            // Copy one UTF-8 sequence.
                            let start = self.i - 1;
                            while self.i < self.s.len() && (self.s[self.i] & 0xC0) == 0x80 {
                                self.i += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                        }
                    }
                }
            }
            b't' => {
                self.i += 4;
                V::Bool(true)
            }
            b'f' => {
                self.i += 5;
                V::Bool(false)
            }
            b'n' => {
                self.i += 4;
                V::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                V::Num(
                    std::str::from_utf8(&self.s[start..self.i])
                        .unwrap()
                        .parse()
                        .unwrap(),
                )
            }
        }
    }
}

fn benchmark_json() -> V {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

/// `(name, unit)` of every metric in a BENCHMARK.json section.
fn declared(bench: &V, section: &str) -> Vec<(String, String)> {
    bench
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_owned(),
                m.get("unit").str().to_owned(),
            )
        })
        .collect()
}

/// The end-to-end metrics each workload defines under its own names.
fn named(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "suggest-stream" => &[
            ("setup_s", "s"),
            ("suggest_p50_us", "us"),
            ("suggest_p99_us", "us"),
            ("max_rate_rps", "req/s"),
            ("saturation_rps", "req/s"),
            ("peak_rss_mb", "MiB"),
            ("failed_share", "ratio"),
        ],
        "batch-deep" => &[
            ("setup_s", "s"),
            ("batch_suggestions_per_s", "1/s"),
            ("batch_p50_ms", "ms"),
            ("peak_rss_mb", "MiB"),
            ("failed_share", "ratio"),
        ],
        "refresh" => &[
            ("setup_s", "s"),
            ("suggest_p50_us", "us"),
            ("suggest_p99_us", "us"),
            ("refreshing_suggest_p50_us", "us"),
            ("refresh_s", "s"),
            ("peak_rss_mb", "MiB"),
            ("failed_share", "ratio"),
        ],
        other => panic!("unexpected workload {other}"),
    }
}

fn check_metrics(metrics: &V, expected: &[(String, String)], context: &str) {
    let got = metrics.obj();
    let mut names: Vec<&String> = got.keys().collect();
    let mut want: Vec<&String> = expected.iter().map(|(n, _)| n).collect();
    names.sort();
    want.sort();
    assert_eq!(names, want, "{context}: metric names");
    for (name, unit) in expected {
        let m = metrics.get(name);
        assert_eq!(m.get("unit").str(), unit, "{context}: unit of {name}");
        assert!(
            m.get("value").num().is_finite(),
            "{context}: value of {name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let bench = benchmark_json();
    let end_to_end = declared(&bench, "end_to_end");
    let per_layer = declared(&bench, "per_layer");
    for w in bench.get("workloads").arr() {
        let workload = w.get("name").str();
        for trace in ["0", "1"] {
            let context = format!("{workload} --trace {trace}");
            let out = Command::new(env!("CARGO_BIN_EXE_userbench"))
                .args(["--workload", workload, "--seed", "7", "--seconds", "4"])
                .args(["--trace", trace, "--scale", "smoke"])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{context} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let lines: Vec<&str> = stdout.lines().collect();
            let result = Parser::parse(lines[lines.len() - 1]);
            let report = Parser::parse(lines[lines.len() - 2]);
            let keys: Vec<&String> = result.obj().keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(result.get("correct"), &V::Bool(true), "{context}");
            assert!(result.get("attempted").num() >= 1.0, "{context}");
            assert_eq!(result.get("failed").num(), 0.0, "{context}");
            let expected = if trace == "0" {
                &end_to_end
            } else {
                &per_layer
            };
            check_metrics(result.get("metrics"), expected, &context);

            let report = report.get("report");
            let own: Vec<(String, String)> = named(workload)
                .iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect();
            check_metrics(report.get("named"), &own, &context);
            assert!(report.get("nproc").num() >= 1.0);
            let props = report.get("properties");
            for key in [
                "final_query_in_vocab_share",
                "mean_context_depth",
                "distinct_users",
                "suggestions_per_reply",
                "reply_bytes_per_op",
            ] {
                assert!(props.get(key).num() > 0.0, "{context}: property {key}");
            }
        }
    }
}

#[test]
fn benchmark_json_has_the_contract_shape() {
    let bench = benchmark_json();
    let keys: Vec<&String> = bench.obj().keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    for m in bench.get("end_to_end").arr() {
        assert_eq!(m.obj().len(), 4);
        assert!(m.get("bound").num() > 0.0 && m.get("bound").num() <= 0.25);
    }
    for m in bench.get("per_layer").arr() {
        assert_eq!(m.obj().len(), 3);
    }
    let setup = bench
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
}
