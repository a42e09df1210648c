//! The [`Workload`] type: an inter-arrival/service distribution pair.

use std::fmt;
use std::path::Path;

use bighouse_des::SimRng;
use bighouse_dists::fit::fit_mean_sigma;
use bighouse_dists::{Distribution, DistributionError, Empirical};
use bighouse_json::{FromJson, Value};

use crate::moments::TaskMoments;
use crate::table1::StandardWorkload;

/// Error loading, saving, or synthesizing a workload.
#[derive(Debug)]
pub enum WorkloadError {
    /// Filesystem error reading or writing a workload file.
    Io(std::io::Error),
    /// The workload file was not valid JSON of the expected shape.
    Format(bighouse_json::Error),
    /// The requested moments could not be fit or scaled.
    Distribution(DistributionError),
    /// A [`WorkloadRef::Standard`] name no Table 1 workload carries.
    UnknownStandard(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Io(e) => write!(f, "workload file I/O failed: {e}"),
            WorkloadError::Format(e) => write!(f, "workload file is malformed: {e}"),
            WorkloadError::Distribution(e) => write!(f, "workload distribution invalid: {e}"),
            WorkloadError::UnknownStandard(name) => write!(
                f,
                "unknown standard workload `{name}` (expected one of: {})",
                StandardWorkload::ALL.map(|w| w.name()).join(", ")
            ),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Io(e) => Some(e),
            WorkloadError::Format(e) => Some(e),
            WorkloadError::Distribution(e) => Some(e),
            WorkloadError::UnknownStandard(_) => None,
        }
    }
}

impl From<std::io::Error> for WorkloadError {
    fn from(e: std::io::Error) -> Self {
        WorkloadError::Io(e)
    }
}
impl From<bighouse_json::Error> for WorkloadError {
    fn from(e: bighouse_json::Error) -> Self {
        WorkloadError::Format(e)
    }
}
impl From<DistributionError> for WorkloadError {
    fn from(e: DistributionError) -> Self {
        WorkloadError::Distribution(e)
    }
}

/// A request-response workload: empirical inter-arrival and service-time
/// distributions, as BigHouse models every workload it has studied (§2.2).
///
/// Workloads serialize to compact JSON files — the dissemination format the
/// paper advocates, since distributions (unlike binaries or traces) carry no
/// proprietary payload and occupy kilobytes rather than gigabytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    name: String,
    interarrival: Empirical,
    service: Empirical,
}

bighouse_json::json_struct!(Workload {
    name,
    interarrival,
    service
});

impl Workload {
    /// Number of synthetic observations drawn when synthesizing an
    /// empirical distribution from published moments.
    const SYNTHESIS_SAMPLES: usize = 200_000;

    /// Creates a workload from existing empirical distributions (e.g.
    /// captured by instrumenting a live system).
    #[must_use]
    pub fn new(name: impl Into<String>, interarrival: Empirical, service: Empirical) -> Self {
        Workload {
            name: name.into(),
            interarrival,
            service,
        }
    }

    /// Synthesizes a workload whose empirical distributions match the given
    /// moments (see DESIGN.md substitution 1): an analytic family is
    /// moment-fit, sampled 200 000 times from
    /// `SimRng::from_seed(seed)`, and tabulated into [`Empirical`] form.
    /// The interarrival samples are drawn first, then the service samples,
    /// both into one buffer that each table is tabulated in.
    ///
    /// # Errors
    ///
    /// Returns an error if either moment pair cannot be fit.
    pub fn synthesize(
        name: impl Into<String>,
        interarrival: TaskMoments,
        service: TaskMoments,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        let inter_fit = fit_mean_sigma(interarrival.mean(), interarrival.sigma())?;
        let svc_fit = fit_mean_sigma(service.mean(), service.sigma())?;
        let mut rng = SimRng::from_seed(seed);
        let mut buffer = Vec::with_capacity(Self::SYNTHESIS_SAMPLES);
        let mut tabulate = |fit: &dyn Distribution| {
            buffer.clear();
            buffer.extend((0..Self::SYNTHESIS_SAMPLES).map(|_| fit.sample(&mut rng)));
            Empirical::from_samples_in_place(&mut buffer)
        };
        let interarrival = tabulate(&*inter_fit)?;
        let service = tabulate(&*svc_fit)?;
        Ok(Workload {
            name: name.into(),
            interarrival,
            service,
        })
    }

    /// The synthesized equivalent of one of the five Table 1 workloads.
    ///
    /// Deterministic: the same standard workload is bit-identical across
    /// processes, so distributed slaves agree on the model.
    #[must_use]
    pub fn standard(which: StandardWorkload) -> Self {
        let seed = 0xB164_005E ^ (which as u64); // stable per-workload seed
        Self::synthesize(
            which.name(),
            which.interarrival_moments(),
            which.service_moments(),
            seed,
        )
        .expect("Table 1 moments are always fittable")
    }

    /// Workload name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The inter-arrival distribution.
    #[must_use]
    pub fn interarrival(&self) -> &Empirical {
        &self.interarrival
    }

    /// The service-time distribution.
    #[must_use]
    pub fn service(&self) -> &Empirical {
        &self.service
    }

    /// Returns a copy whose arrival process is scaled so that a server with
    /// `cores` cores runs at the given utilization (fraction of peak QPS,
    /// the x-axis of Figures 4 and 5).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < utilization < 1` (≥ 1 is unstable: the queue
    /// grows without bound and no steady state exists).
    #[must_use]
    pub fn at_utilization(&self, utilization: f64, cores: u32) -> Self {
        assert!(
            utilization > 0.0 && utilization < 1.0,
            "utilization must be in (0, 1) for a steady state, got {utilization}"
        );
        self.try_at_utilization(utilization, cores)
            .expect("positive scale factor")
    }

    /// As [`Workload::at_utilization`], with a utilization outside
    /// `(0, 1)` or a scale factor that is not finite and positive (zero
    /// cores, a zero-mean table) as an error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::Distribution`] naming the rejected value.
    pub fn try_at_utilization(&self, utilization: f64, cores: u32) -> Result<Self, WorkloadError> {
        if !(utilization > 0.0 && utilization < 1.0) {
            return Err(WorkloadError::Distribution(
                DistributionError::InvalidParameter {
                    name: "utilization",
                    value: utilization,
                    requirement: "must be in (0, 1) for a steady state",
                },
            ));
        }
        let target_interarrival = self.service.mean() / (utilization * f64::from(cores));
        let factor = target_interarrival / self.interarrival.mean();
        self.with_interarrival_scale(factor)
    }

    /// Returns a copy with the inter-arrival distribution scaled by
    /// `factor` (>1 means lighter load).
    ///
    /// # Errors
    ///
    /// Returns an error unless `factor` is finite and positive.
    pub fn with_interarrival_scale(&self, factor: f64) -> Result<Self, WorkloadError> {
        Ok(Workload {
            name: self.name.clone(),
            interarrival: self.interarrival.scaled(factor)?,
            service: self.service.clone(),
        })
    }

    /// Returns a copy with the service distribution scaled by `factor` —
    /// the S_CPU slowdown knob of Figure 4. (The paper cautions this is
    /// only valid when the slowdown genuinely applies uniformly; see §2.2.)
    ///
    /// # Errors
    ///
    /// Returns an error unless `factor` is finite and positive.
    pub fn with_service_scale(&self, factor: f64) -> Result<Self, WorkloadError> {
        Ok(Workload {
            name: self.name.clone(),
            interarrival: self.interarrival.clone(),
            service: self.service.scaled(factor)?,
        })
    }

    /// Serializes the workload to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), WorkloadError> {
        std::fs::write(path, bighouse_json::to_string(self))?;
        Ok(())
    }

    /// Loads a workload from a JSON file written by [`Workload::save`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O or parse failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, WorkloadError> {
        let json = std::fs::read_to_string(path)?;
        Ok(bighouse_json::from_str(&json)?)
    }
}

/// How an experiment names its workload: one of the five Table 1
/// workloads, a file [`Workload::save`] wrote, or the table itself.
///
/// In JSON it is `{"standard": "web"}` (any case), `{"file": "w.json"}`,
/// or an inline table in the form [`Workload`] writes. Decoding never
/// opens a file; [`WorkloadRef::resolve`] does.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadRef {
    /// One of the five Table 1 workloads, by name (case-insensitive).
    Standard(String),
    /// A workload JSON file written by [`Workload::save`].
    File(String),
    /// The workload itself.
    Inline(Workload),
}

impl FromJson for WorkloadRef {
    fn from_json(value: &Value) -> Result<Self, bighouse_json::Error> {
        let object = bighouse_json::object(value)?;
        if object.len() == 1 {
            if object.get("standard").is_some() {
                return bighouse_json::field(object, "standard").map(WorkloadRef::Standard);
            }
            if object.get("file").is_some() {
                return bighouse_json::field(object, "file").map(WorkloadRef::File);
            }
        }
        Workload::from_json(value).map(WorkloadRef::Inline)
    }
}

impl WorkloadRef {
    /// The workload the reference names.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::UnknownStandard`] for a name no Table 1
    /// workload carries, and [`Workload::load`]'s errors for a file.
    pub fn resolve(&self) -> Result<Workload, WorkloadError> {
        match self {
            WorkloadRef::Standard(name) => StandardWorkload::ALL
                .into_iter()
                .find(|w| w.name().eq_ignore_ascii_case(name))
                .map(Workload::standard)
                .ok_or_else(|| WorkloadError::UnknownStandard(name.clone())),
            WorkloadRef::File(path) => Workload::load(path),
            WorkloadRef::Inline(workload) => Ok(workload.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_moments_match_table1() {
        for which in StandardWorkload::ALL {
            let w = Workload::standard(which);
            let inter = which.interarrival_moments();
            let svc = which.service_moments();
            let inter_err = (w.interarrival().mean() - inter.mean()).abs() / inter.mean();
            let svc_err = (w.service().mean() - svc.mean()).abs() / svc.mean();
            assert!(
                inter_err < 0.05,
                "{which}: interarrival mean off by {inter_err}"
            );
            assert!(svc_err < 0.05, "{which}: service mean off by {svc_err}");
            // σ is harder to hit through a finite quantile table, especially
            // for Shell's Cv = 15; demand the right order of magnitude.
            let svc_cv_err = (w.service().cv() - svc.cv()).abs() / svc.cv();
            assert!(
                svc_cv_err < 0.35,
                "{which}: service Cv {} vs published {}",
                w.service().cv(),
                svc.cv()
            );
        }
    }

    #[test]
    fn standard_tables_are_pinned() {
        // FNV-1a over the bits of every `(q, value)` point, interarrival
        // table first. The constants were computed before synthesis moved
        // to one in-place buffer: any change to the draws, their order, the
        // rank selection or the tabulation moves them.
        fn fnv1a(w: &Workload) -> u64 {
            let mut bytes = Vec::new();
            for table in [w.interarrival(), w.service()] {
                for &(q, v) in table.points() {
                    bytes.extend_from_slice(&q.to_bits().to_le_bytes());
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            bighouse_des::hash::fnv1a(&bytes)
        }
        let mmk = Workload::synthesize(
            "mmk",
            TaskMoments::new(0.002, 0.002),
            TaskMoments::new(0.02, 0.02),
            2012,
        )
        .unwrap();
        let pins = [
            ("DNS", 0x2f42_69ac_262d_bcee),
            ("Mail", 0x52af_edda_82ed_430a),
            ("Shell", 0x9c09_d227_3b8d_39b5),
            ("Google", 0x1ad8_0f01_637f_038c),
            ("Web", 0xd236_7997_7791_bb5d),
            ("mmk", 0xd41f_f247_e2aa_62bd),
        ];
        let workloads = StandardWorkload::ALL.map(Workload::standard);
        for (w, (name, pin)) in workloads.iter().chain([&mmk]).zip(pins) {
            assert_eq!(w.name(), name);
            assert_eq!(fnv1a(w), pin, "{name}: {:#018x}", fnv1a(w));
        }
    }

    #[test]
    fn standard_workloads_are_deterministic() {
        let a = Workload::standard(StandardWorkload::Web);
        let b = Workload::standard(StandardWorkload::Web);
        assert_eq!(a, b);
    }

    #[test]
    fn at_utilization_hits_target_rho() {
        let w = Workload::standard(StandardWorkload::Web);
        for u in [0.2, 0.5, 0.9] {
            let loaded = w.at_utilization(u, 4);
            let rho = loaded.service().mean() / (4.0 * loaded.interarrival().mean());
            assert!((rho - u).abs() < 0.01, "target {u}, got {rho}");
        }
    }

    #[test]
    #[should_panic(expected = "utilization must be in (0, 1)")]
    fn overload_is_rejected() {
        let _ = Workload::standard(StandardWorkload::Web).at_utilization(1.0, 4);
    }

    #[test]
    fn service_scaling_preserves_arrivals() {
        let w = Workload::standard(StandardWorkload::Google);
        let slow = w.with_service_scale(2.0).unwrap();
        assert_eq!(w.interarrival(), slow.interarrival());
        assert!((slow.service().mean() / w.service().mean() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn guided_draws_match_unguided_on_every_workload_table() {
        // The simulator draws every interarrival and service time through
        // a `QuantileGuide`, so the guide must agree with `Empirical::sample`
        // draw for draw on the tables it actually sees: all five standard
        // workloads and a heavy-tailed synthesized one (tail-refinement
        // points included), plain and rescaled by `at_utilization`.
        use bighouse_dists::QuantileGuide;

        let heavy = Workload::synthesize(
            "heavy",
            TaskMoments::new(10e-3, 10e-3),
            TaskMoments::new(5e-3, 12.5e-3),
            99,
        )
        .unwrap();
        let workloads = (StandardWorkload::ALL.into_iter().map(Workload::standard))
            .chain(std::iter::once(heavy));
        for (i, plain) in workloads.enumerate() {
            for w in [plain.at_utilization(0.7, 4), plain] {
                for table in [w.service(), w.interarrival()] {
                    let guide = QuantileGuide::new(table);
                    let mut unguided = SimRng::from_seed(i as u64);
                    let mut guided = unguided.clone();
                    for draw in 0..100_000 {
                        assert_eq!(
                            table.sample(&mut unguided).to_bits(),
                            guide.sample_from_bits(guided.raw_u64()).to_bits(),
                            "{}: draw {draw}",
                            w.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn body_buckets_hold_at_most_one_point_on_every_workload_table() {
        // `QuantileGuide::new` cuts [0, 1) into 2048 buckets, and a draw
        // landing in a bucket that holds at most one point is one compare.
        // On every table the simulator sees that is every bucket below the
        // geometric tail's start at q = 1 - 2e-3.
        const BUCKETS: usize = 2048;
        for plain in StandardWorkload::ALL.map(Workload::standard) {
            for w in [plain.at_utilization(0.7, 4), plain] {
                for table in [w.service(), w.interarrival()] {
                    let mut held = [0u32; BUCKETS];
                    for &(q, _) in table.points().iter().filter(|&&(q, _)| q < 1.0) {
                        held[(q * BUCKETS as f64) as usize] += 1;
                    }
                    let body =
                        (0..BUCKETS).take_while(|&b| (b + 1) as f64 / BUCKETS as f64 <= 1.0 - 2e-3);
                    for b in body {
                        assert!(held[b] <= 1, "{}: bucket {b} holds {}", w.name(), held[b]);
                    }
                }
            }
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("bighouse-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("web.json");
        let w = Workload::standard(StandardWorkload::Web);
        w.save(&path).unwrap();
        let back = Workload::load(&path).unwrap();
        assert_eq!(w, back);
        // The paper's footprint claim: workload files are small.
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(size < 1_000_000, "workload file is {size} bytes");
        // Loading recomputes each table's moments from its points, which is
        // what a load-scaled table holds too.
        let loaded = w.at_utilization(0.5, 4);
        loaded.save(&path).unwrap();
        assert_eq!(loaded, Workload::load(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_missing_file_errors() {
        let err = Workload::load("/nonexistent/nowhere.json").unwrap_err();
        assert!(matches!(err, WorkloadError::Io(_)));
    }

    #[test]
    fn load_malformed_file_errors() {
        let dir = std::env::temp_dir().join("bighouse-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "{not json").unwrap();
        let err = Workload::load(&path).unwrap_err();
        assert!(matches!(err, WorkloadError::Format(_)));
        std::fs::remove_file(&path).unwrap();
    }
}
