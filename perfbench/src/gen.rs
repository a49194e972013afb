//! Seeded input generation. Every byte the program under test receives
//! comes from here, so the same `--seed` gives the same inputs on every
//! commit, whatever the program's own simulator does.

use std::borrow::Borrow;
use std::io::Write;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from neighbouring seeds.
    pub fn new(seed: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x5EED_AB1E_D00D_F00D);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let (u, v) = (self.unit(), self.unit());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }

    /// Poisson-distributed count with the given mean.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean > 30.0 {
            return (mean + mean.sqrt() * self.normal()).round().max(0.0) as u64;
        }
        let limit = (-mean).exp();
        let (mut k, mut p) = (0, self.unit());
        while p > limit {
            k += 1;
            p *= self.unit();
        }
        k
    }
}

/// Zipf-distributed ranks over `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` (0-based) has weight `1 / (k + 1)^exponent`.
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One telemetry record, field for field what the CSV codec and the
/// 35-byte wire row carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    pub time_ms: i64,
    /// 0 SelectMail, 1 SwitchFolder, 2 Search, 3 ComposeSend, 4 Other.
    pub action: u8,
    pub latency_ms: f64,
    pub user: u64,
    /// 0 Business, 1 Consumer.
    pub class: u8,
    pub tz_offset_ms: i64,
    /// 0 Success, 1 Error.
    pub outcome: u8,
}

const ACTIONS: [&str; 5] = [
    "SelectMail",
    "SwitchFolder",
    "Search",
    "ComposeSend",
    "Other",
];
const CLASSES: [&str; 2] = ["Business", "Consumer"];
const OUTCOMES: [&str; 2] = ["Success", "Error"];

/// The CSV header `autosens` reads.
pub const CSV_HEADER: &str = "time_ms,action,latency_ms,user,class,tz_offset_ms,outcome";

impl Record {
    /// Append the 35-byte wire row of the agent protocol.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.time_ms.to_le_bytes());
        buf.push(self.action);
        buf.extend_from_slice(&self.latency_ms.to_bits().to_le_bytes());
        buf.extend_from_slice(&self.user.to_le_bytes());
        buf.push(self.class);
        buf.extend_from_slice(&self.tz_offset_ms.to_le_bytes());
        buf.push(self.outcome);
    }

    /// One CSV row; `{}` prints the shortest string that parses back to the
    /// same `f64`, so a CSV round trip is exact.
    pub fn write_csv<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        writeln!(
            w,
            "{},{},{},{},{},{},{}",
            self.time_ms,
            ACTIONS[self.action as usize],
            self.latency_ms,
            self.user,
            CLASSES[self.class as usize],
            self.tz_offset_ms,
            OUTCOMES[self.outcome as usize]
        )
    }
}

/// Write `records` as a CSV file `autosens` can read, synced to disk so
/// that its writeback does not compete with whatever is measured next.
/// Returns the [`digest_records`] of what it wrote.
pub fn write_csv<R: Borrow<Record>>(
    path: &std::path::Path,
    records: impl IntoIterator<Item = R>,
) -> std::io::Result<u64> {
    let mut w = std::io::BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    writeln!(w, "{CSV_HEADER}")?;
    let mut hash = FNV_OFFSET;
    for r in records {
        r.borrow().write_csv(&mut w)?;
        hash = digest_record(hash, r.borrow());
    }
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(hash)
}

/// The FNV-1a offset basis: the hash of nothing.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a of `bytes`: the digests of inputs and outputs.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// Continue a [`digest_records`] hash over one more record.
pub fn digest_record(hash: u64, record: &Record) -> u64 {
    let mut row = Vec::with_capacity(35);
    record.encode(&mut row);
    fnv1a(hash, &row)
}

/// [`digest`] of the wire encoding of `records`.
pub fn digest_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> u64 {
    records.into_iter().fold(FNV_OFFSET, digest_record)
}

/// Continue an FNV-1a hash over `bytes`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

/// Telemetry with the structure the estimator needs: one shared latency
/// level that moves slowly (a 47-minute swing plus AR(1) noise per minute,
/// in log space) on a daily load curve, and user activity that follows the
/// clock and falls as that level rises. The swing sweeps every window of an
/// hour or more across roughly 130–700 ms whatever the seed, so even a
/// 2400-record tenant has the latency support an analysis needs. Returns
/// exactly `n` time-sorted records starting at `start_ms`, about
/// `per_minute` of them per busy-hour minute.
pub fn activity(seed: u64, start_ms: i64, n: usize, per_minute: f64, users: u64) -> Vec<Record> {
    Activity::new(seed, start_ms, per_minute, users)
        .take(n)
        .collect()
}

/// The endless, time-sorted record stream [`activity`] takes its records
/// from, generated a minute at a time so that a large log can be written
/// without holding it in memory.
pub struct Activity {
    rng: Rng,
    noise: f64,
    minute: i64,
    per_minute: f64,
    users: u64,
    /// The current minute's records, handed out from `next`.
    pending: Vec<Record>,
    next: usize,
}

impl Activity {
    pub fn new(seed: u64, start_ms: i64, per_minute: f64, users: u64) -> Activity {
        let mut rng = Rng::new(seed);
        let noise = rng.normal();
        Activity {
            rng,
            noise,
            minute: start_ms.div_euclid(60_000),
            per_minute,
            users,
            pending: Vec::new(),
            next: 0,
        }
    }

    /// Replace `pending` with the records of the next minute.
    fn fill_minute(&mut self) {
        const RHO: f64 = 0.985;
        let rng = &mut self.rng;
        let minute = self.minute;
        let hour = minute.div_euclid(60).rem_euclid(24) as f64;
        let daily = (std::f64::consts::TAU * (hour - 14.0) / 24.0).cos();
        let swing = (std::f64::consts::TAU * minute as f64 / 47.0).sin();
        self.noise = RHO * self.noise + (1.0 - RHO * RHO).sqrt() * rng.normal();
        let latency = 300.0 * (0.6 * swing + 0.25 * self.noise + 0.2 * daily).exp();
        let awake = 0.15 + 0.85 * (std::f64::consts::PI * (hour - 6.0) / 16.0).sin().max(0.0);
        let preference = (latency / 300.0).powf(-0.8).min(3.0);
        let k = rng.poisson(self.per_minute * awake * preference) as usize;
        let mut times: Vec<i64> = (0..k)
            .map(|_| minute * 60_000 + rng.below(60_000) as i64)
            .collect();
        times.sort_unstable();
        self.pending.clear();
        for time_ms in times {
            let user = rng.below(self.users);
            let action = match rng.below(100) {
                0..=44 => 0,
                45..=69 => 1,
                70..=84 => 2,
                85..=94 => 3,
                _ => 4,
            };
            self.pending.push(Record {
                time_ms,
                action,
                latency_ms: latency * (0.12 * rng.normal()).exp(),
                user,
                class: (user % 2) as u8,
                tz_offset_ms: 0,
                outcome: u8::from(rng.below(100) == 0),
            });
        }
        self.next = 0;
        self.minute += 1;
    }
}

impl Iterator for Activity {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        while self.next == self.pending.len() {
            self.fill_minute();
        }
        self.next += 1;
        Some(self.pending[self.next - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_records() {
        let a = activity(7, 0, 5000, 20.0, 300);
        let b = activity(7, 0, 5000, 20.0, 300);
        assert_eq!(digest_records(&a), digest_records(&b));
        assert_ne!(
            digest_records(&a),
            digest_records(&activity(8, 0, 5000, 20.0, 300))
        );
        assert!(a.windows(2).all(|w| w[0].time_ms <= w[1].time_ms));
    }

    #[test]
    fn wire_row_is_35_bytes() {
        let mut buf = Vec::new();
        activity(1, 0, 1, 20.0, 10)[0].encode(&mut buf);
        assert_eq!(buf.len(), 35);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut rng = Rng::new(3);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        assert!(hits > 1_500, "rank 0 drawn {hits} times");
    }
}
