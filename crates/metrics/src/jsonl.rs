//! Streaming JSONL (one JSON object per line) writing.
//!
//! The trace-export schema emits one self-describing object per line
//! (`{"type":"trace",...}`), so a consumer can stream-filter a run
//! without loading it whole.  [`JsonlWriter`] gathers rendered lines
//! in one reused buffer and hands the underlying writer large chunks.

use crate::json::{Json, JsonError};
use crate::registry::{HistogramSnapshot, RegistrySnapshot};
use std::io::{self, Write};

/// Bytes of rendered lines gathered before they are handed on: large
/// enough that an unbuffered `File` sees few writes, small enough to
/// stay in cache.
const CHUNK_BYTES: usize = 64 * 1024;

/// Line-oriented writer: one compact JSON document per line. Nothing
/// is written on drop — the last chunk goes out in [`finish`](Self::finish).
#[must_use = "the last chunk is only written by `finish`"]
pub struct JsonlWriter<W: Write> {
    out: W,
    chunk: String,
    lines: u64,
}

impl<W: Write> JsonlWriter<W> {
    pub fn new(out: W) -> Self {
        Self {
            out,
            chunk: String::with_capacity(CHUNK_BYTES + 1024),
            lines: 0,
        }
    }

    /// Write one value as a single line.
    pub fn write(&mut self, value: &Json) -> io::Result<()> {
        self.write_with(|line| value.render_into(line))
    }

    /// Write the single line that `render` appends (without a newline)
    /// to the buffer it is given — for line types with an encoder of
    /// their own.
    pub fn write_with(&mut self, render: impl FnOnce(&mut String)) -> io::Result<()> {
        render(&mut self.chunk);
        self.chunk.push('\n');
        self.lines += 1;
        if self.chunk.len() < CHUNK_BYTES {
            return Ok(());
        }
        let written = self.out.write_all(self.chunk.as_bytes());
        self.chunk.clear();
        written
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Write what is still buffered, flush, and return the underlying
    /// writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(self.chunk.as_bytes())?;
        self.out.flush()?;
        Ok(self.out)
    }
}

impl RegistrySnapshot {
    /// Stable JSON form: three name-sorted sections.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let section = |name: &str| -> Result<&[(String, Json)], JsonError> {
            match v.req(name)? {
                Json::Obj(fields) => Ok(fields),
                _ => Err(JsonError(format!("`{name}` is not an object"))),
            }
        };
        let counters = section("counters")?
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| JsonError(format!("counter `{k}` is not a u64")))
            })
            .collect::<Result<_, _>>()?;
        let gauges = section("gauges")?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| JsonError(format!("gauge `{k}` is not a number")))
            })
            .collect::<Result<_, _>>()?;
        let histograms = section("histograms")?
            .iter()
            .map(|(k, v)| HistogramSnapshot::from_json(v).map(|h| (k.clone(), h)))
            .collect::<Result<_, _>>()?;
        Ok(RegistrySnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

impl HistogramSnapshot {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::Num(self.sum)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|(lo, n)| Json::Arr(vec![Json::Num(*lo), Json::UInt(*n)]))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let count = v.req_u64("count")?;
        let sum = v.req_f64("sum")?;
        let buckets = v
            .req("buckets")?
            .as_arr()
            .ok_or_else(|| JsonError("`buckets` is not an array".into()))?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| JsonError("bucket is not a [bound, count] pair".into()))?;
                let lo = pair[0]
                    .as_f64()
                    .ok_or_else(|| JsonError("bucket bound is not a number".into()))?;
                let n = pair[1]
                    .as_u64()
                    .ok_or_else(|| JsonError("bucket count is not a u64".into()))?;
                Ok((lo, n))
            })
            .collect::<Result<_, JsonError>>()?;
        Ok(HistogramSnapshot {
            count,
            sum,
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn writer_emits_one_line_per_value() {
        let mut w = JsonlWriter::new(Vec::new());
        w.write(&Json::obj([("a", Json::UInt(1))])).unwrap();
        w.write(&Json::str("two")).unwrap();
        assert_eq!(w.lines(), 2);
        let buf = w.finish().unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text, "{\"a\":1}\n\"two\"\n");
    }

    #[test]
    fn writer_hands_on_whole_lines_in_chunks() {
        let line = "x".repeat(1000);
        let mut w = JsonlWriter::new(Vec::new());
        for _ in 0..200 {
            w.write_with(|buf| buf.push_str(&line)).unwrap();
            assert!(w.out.len() % 1001 == 0, "a chunk ends on a line end");
            assert!(w.chunk.len() < CHUNK_BYTES);
        }
        assert!(!w.out.is_empty(), "200 kB is more than one chunk");
        assert_eq!(w.finish().unwrap().len(), 200 * 1001);
    }

    #[test]
    fn registry_snapshot_round_trips() {
        let reg = Registry::new();
        reg.counter("contests/opened").add(12);
        reg.gauge("worker/0/busy_frac").set(0.8125);
        let h = reg.histogram("job/queue_wait_secs");
        h.record(0.5);
        h.record(2.0);
        h.record(2.1);
        let snap = reg.snapshot();
        let back = RegistrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }
}
