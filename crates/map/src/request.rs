//! The unified mapping request.

use std::sync::OnceLock;
use std::time::Duration;

use qxmap_arch::{CostModel, CouplingMap, DeviceModel};
use qxmap_circuit::Circuit;
use qxmap_core::{SpanRecorder, Strategy};

/// How strong a result the caller demands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Guarantee {
    /// The result must carry a proof of minimality; engines error out when
    /// they cannot provide one (e.g. the device exceeds the exact method's
    /// regime).
    Optimal,
    /// Best result obtainable within the request's budgets; engines may
    /// fall back to heuristics and `proved_optimal` may be `false`.
    #[default]
    BestEffort,
}

/// The seven knobs that steer a solve — the one place they are declared.
///
/// A [`MapRequest`] and a [`crate::CacheProbe`] each carry one, and the
/// solve cache derives its key from it, so a probe and a request built
/// from the same value resolve to the same entry. `Default` is what
/// [`MapRequest::new`] starts from: best effort, permutations before
/// every gate, subsets on, no budgets, no declared bound, seed 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveOptions {
    /// The demanded guarantee level.
    pub guarantee: Guarantee,
    /// The permutation-site strategy used by exact engines (Section 4.2
    /// of the paper).
    pub strategy: Strategy,
    /// Whether exact engines use the connected-subset optimization
    /// (Section 4.1).
    pub subsets: bool,
    /// Caps the total SAT conflicts exact engines may spend.
    pub conflict_budget: Option<u64>,
    /// Caps the wall-clock time of the request. Exact searches (including
    /// a racing [`crate::Portfolio`]'s) stop cooperatively when it fires
    /// and the best verified result found so far is returned —
    /// `proved_optimal` only if the proof closed in time.
    pub deadline: Option<Duration>,
    /// An externally known achievable cost: engines only return results
    /// with cost **strictly below** it. Exact engines prune their search
    /// with it from the first solve; the [`crate::Portfolio`] engine
    /// additionally tightens it with its own heuristic pass and never
    /// falls back to a result at or above it.
    pub upper_bound: Option<u64>,
    /// Seeds randomized engines (the stochastic baseline).
    pub seed: u64,
}

impl Default for SolveOptions {
    fn default() -> SolveOptions {
        SolveOptions {
            guarantee: Guarantee::default(),
            strategy: Strategy::default(),
            subsets: true,
            conflict_budget: None,
            deadline: None,
            upper_bound: None,
            seed: 0,
        }
    }
}

/// Everything a mapping engine needs to answer one mapping question: a
/// circuit, a device model and a [`SolveOptions`].
///
/// Built in builder style; every knob has a sensible default. The two
/// budgets compose: the conflict budget caps solver *work*, the deadline
/// caps *wall-clock* — whichever fires first ends the exact search, and
/// a best-effort engine then answers with the best result in hand:
///
/// ```
/// use std::time::Duration;
/// use qxmap_arch::devices;
/// use qxmap_circuit::paper_example;
/// use qxmap_map::{Guarantee, MapRequest};
///
/// let request = MapRequest::new(paper_example(), devices::ibm_qx4())
///     .with_guarantee(Guarantee::Optimal)
///     .with_conflict_budget(Some(50_000))
///     .with_deadline(Duration::from_millis(250))
///     .with_seed(7);
/// assert_eq!(request.device().num_qubits(), 5);
/// assert_eq!(request.options().deadline, Some(Duration::from_millis(250)));
/// ```
#[derive(Debug, Clone)]
pub struct MapRequest {
    circuit: Circuit,
    /// The device of a uniform-model request (always `Some` while
    /// `model` is unbuilt). Explicit-model requests store `None` and
    /// read the map off the model instead of keeping a second copy.
    device: Option<CouplingMap>,
    /// The device/cost model every engine answers under. For requests
    /// built with [`MapRequest::new`] this is the uniform model derived
    /// from the device and [`MapRequest::cost_model`] — built lazily on
    /// first [`MapRequest::device_model`] access, so builder chains that
    /// end in an explicit model never pay for the discarded derivation
    /// (the model's all-pairs matrices are real work on large devices).
    /// Explicit models ([`MapRequest::for_model`] /
    /// [`MapRequest::with_device_model`]) carry per-edge calibration,
    /// win over the uniform derivation, and are stored here eagerly.
    model: OnceLock<DeviceModel>,
    explicit_model: bool,
    cost_model: CostModel,
    options: SolveOptions,
    /// Trace recorder engines report their phase spans to. Defaults to
    /// the disabled recorder (free no-ops); deliberately **not** part of
    /// the request's cache identity — traced and untraced requests share
    /// cache entries.
    trace: SpanRecorder,
}

impl MapRequest {
    /// A request with default settings: the paper's 7/4 cost model and
    /// [`SolveOptions::default`].
    pub fn new(circuit: Circuit, device: CouplingMap) -> MapRequest {
        MapRequest {
            circuit,
            device: Some(device),
            model: OnceLock::new(),
            explicit_model: false,
            cost_model: CostModel::default(),
            options: SolveOptions::default(),
            trace: SpanRecorder::disabled(),
        }
    }

    /// A request against an explicit [`DeviceModel`] — per-edge
    /// calibration costs, precomputed distances and the device
    /// fingerprint all come from the model. Everything else defaults like
    /// [`MapRequest::new`].
    ///
    /// ```
    /// use qxmap_arch::{devices, DeviceModel};
    /// use qxmap_circuit::paper_example;
    /// use qxmap_map::MapRequest;
    ///
    /// let model = DeviceModel::new(devices::ibm_qx4()).with_swap_cost(3, 4, 21);
    /// let request = MapRequest::for_model(paper_example(), model);
    /// assert_eq!(request.device_model().swap_cost(3, 4), Some(21));
    /// ```
    pub fn for_model(circuit: Circuit, model: DeviceModel) -> MapRequest {
        MapRequest {
            circuit,
            device: None,
            model: OnceLock::from(model),
            explicit_model: true,
            cost_model: CostModel::default(),
            options: SolveOptions::default(),
            trace: SpanRecorder::disabled(),
        }
    }

    /// Replaces the request's device model (builder style) — the explicit
    /// model's coupling map becomes the request's device and its per-edge
    /// costs price every engine's answer from here on.
    pub fn with_device_model(mut self, model: DeviceModel) -> MapRequest {
        self.device = None;
        self.model = OnceLock::from(model);
        self.explicit_model = true;
        self
    }

    /// Sets the cost accounting for inserted operations. On requests
    /// without an explicit device model the uniform model is re-derived
    /// from the new weights (lazily, on next [`MapRequest::device_model`]
    /// access); an explicit model keeps pricing the run (the model *is*
    /// the cost model), and this only records the headline weights.
    pub fn with_cost_model(mut self, cost_model: CostModel) -> MapRequest {
        self.cost_model = cost_model;
        if !self.explicit_model {
            self.model = OnceLock::new();
        }
        self
    }

    /// Replaces all seven solve knobs at once; the single-knob builders
    /// below each set one field.
    pub fn with_options(mut self, options: SolveOptions) -> MapRequest {
        self.options = options;
        self
    }

    /// Sets [`SolveOptions::guarantee`].
    pub fn with_guarantee(mut self, guarantee: Guarantee) -> MapRequest {
        self.options.guarantee = guarantee;
        self
    }

    /// Sets [`SolveOptions::strategy`].
    pub fn with_strategy(mut self, strategy: Strategy) -> MapRequest {
        self.options.strategy = strategy;
        self
    }

    /// Sets [`SolveOptions::subsets`].
    pub fn with_subsets(mut self, on: bool) -> MapRequest {
        self.options.subsets = on;
        self
    }

    /// Sets [`SolveOptions::conflict_budget`].
    pub fn with_conflict_budget(mut self, budget: Option<u64>) -> MapRequest {
        self.options.conflict_budget = budget;
        self
    }

    /// Sets [`SolveOptions::deadline`].
    pub fn with_deadline(mut self, deadline: Duration) -> MapRequest {
        self.options.deadline = Some(deadline);
        self
    }

    /// Sets [`SolveOptions::upper_bound`].
    pub fn with_upper_bound(mut self, bound: Option<u64>) -> MapRequest {
        self.options.upper_bound = bound;
        self
    }

    /// Sets [`SolveOptions::seed`].
    pub fn with_seed(mut self, seed: u64) -> MapRequest {
        self.options.seed = seed;
        self
    }

    /// Attaches a trace recorder: engines answering this request record
    /// their phase spans — the portfolio's race timeline, per-subset
    /// encode/minimize spans, per-window block solves — onto it, and the
    /// final [`crate::MapReport::trace`] carries the snapshot. Clones of
    /// the request share the same timeline. The recorder is *not* part
    /// of the request's cache identity: traced and untraced requests
    /// share solve-cache entries, and cached reports never carry a stale
    /// trace.
    ///
    /// ```
    /// use qxmap_arch::devices;
    /// use qxmap_circuit::paper_example;
    /// use qxmap_core::SpanRecorder;
    /// use qxmap_map::{Engine, MapRequest, Portfolio};
    ///
    /// let recorder = SpanRecorder::new();
    /// let request = MapRequest::new(paper_example(), devices::ibm_qx4())
    ///     .with_trace(recorder);
    /// let report = Portfolio::new().run(&request)?;
    /// let trace = report.trace.expect("traced request");
    /// assert!(trace.spans.iter().any(|s| s.path.starts_with("race")));
    /// # Ok::<(), qxmap_map::MapperError>(())
    /// ```
    pub fn with_trace(mut self, trace: SpanRecorder) -> MapRequest {
        self.trace = trace;
        self
    }

    /// The circuit to map.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The target device.
    pub fn device(&self) -> &CouplingMap {
        match &self.device {
            Some(device) => device,
            None => self
                .model
                .get()
                .expect("explicit-model requests always hold their model")
                .coupling_map(),
        }
    }

    /// The device/cost model every engine answers under — the single
    /// authority on per-edge costs, precomputed distances and the
    /// fingerprint that identifies the device in cache keys. Built on
    /// first access for uniform-model requests (then reused; cloning a
    /// request carries the built model along), already present for
    /// explicit-model ones.
    pub fn device_model(&self) -> &DeviceModel {
        self.model.get_or_init(|| {
            let device = self
                .device
                .clone()
                .expect("uniform-model requests always hold their device");
            DeviceModel::uniform(device, self.cost_model)
        })
    }

    /// The device model's content fingerprint — the device's identity in
    /// cache keys. Answered without building the distance matrices when
    /// the uniform model has not been needed yet, so a cache *hit* on a
    /// large device stays a sub-millisecond lookup.
    pub fn device_fingerprint(&self) -> u64 {
        match self.model.get() {
            Some(model) => model.fingerprint(),
            None => DeviceModel::uniform_fingerprint(self.device(), self.cost_model),
        }
    }

    /// The cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost_model
    }

    /// The solve knobs: guarantee, strategy, subsets, budgets, declared
    /// bound and seed.
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// The attached trace recorder (disabled by default).
    pub fn trace(&self) -> &SpanRecorder {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qxmap_arch::devices;

    #[test]
    fn defaults_are_best_effort_with_subsets() {
        let req = MapRequest::new(Circuit::new(2), devices::ibm_qx4());
        let options = req.options();
        assert_eq!(options.guarantee, Guarantee::BestEffort);
        assert_eq!(options.strategy, Strategy::BeforeEveryGate);
        assert!(options.subsets);
        assert_eq!(options.conflict_budget, None);
        assert_eq!(options.deadline, None);
        assert_eq!(options.upper_bound, None);
        assert_eq!(options.seed, 0);
        let model = DeviceModel::new(devices::ibm_qx4());
        assert_eq!(
            MapRequest::for_model(Circuit::new(2), model).options(),
            &SolveOptions::default()
        );
    }

    #[test]
    fn cost_model_rederives_the_uniform_model() {
        let req = MapRequest::new(Circuit::new(2), devices::ibm_qx4());
        assert_eq!(req.device_model().swap_cost(0, 1), Some(7));
        let req = req.with_cost_model(CostModel::bidirectional());
        assert_eq!(req.device_model().swap_cost(0, 1), Some(3));
    }

    #[test]
    fn explicit_model_wins_over_cost_model() {
        let model = DeviceModel::new(devices::ibm_qx4()).with_swap_cost(0, 1, 70);
        let req = MapRequest::for_model(Circuit::new(2), model.clone())
            .with_cost_model(CostModel::bidirectional());
        // The calibrated model keeps pricing the run.
        assert_eq!(req.device_model().swap_cost(0, 1), Some(70));
        assert_eq!(req.device_model().fingerprint(), model.fingerprint());
        assert_eq!(req.device().name(), "IBM QX4");
        // with_device_model is the builder-style equivalent.
        let req = MapRequest::new(Circuit::new(2), devices::ibm_qx2()).with_device_model(model);
        assert_eq!(req.device().name(), "IBM QX4");
        assert_eq!(req.device_model().swap_cost(0, 1), Some(70));
    }

    #[test]
    fn builders_compose() {
        let req = MapRequest::new(Circuit::new(2), devices::ibm_qx4())
            .with_guarantee(Guarantee::Optimal)
            .with_subsets(false)
            .with_conflict_budget(Some(10))
            .with_deadline(Duration::from_secs(1))
            .with_upper_bound(Some(4))
            .with_seed(3);
        let expected = SolveOptions {
            guarantee: Guarantee::Optimal,
            subsets: false,
            conflict_budget: Some(10),
            deadline: Some(Duration::from_secs(1)),
            upper_bound: Some(4),
            seed: 3,
            ..SolveOptions::default()
        };
        assert_eq!(req.options(), &expected);
        // with_options sets the same value in one step.
        let whole = MapRequest::new(Circuit::new(2), devices::ibm_qx4()).with_options(expected);
        assert_eq!(whole.options(), req.options());
    }
}
