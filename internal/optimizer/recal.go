package optimizer

import (
	"log/slog"
	"math"
	"sync"
)

// Online constant recalibration: every executed plan node with a prediction
// feeds an actual/predicted ratio into a per-class EWMA (in the log domain,
// so over- and under-predictions of the same magnitude cancel). The "light"
// class — WCOJ and non-matrix fold nodes, whose modeled cost is dominated by
// the scalar constants — drives adoption: when its smoothed drift leaves the
// deadband, MaybeRecalibrate scales the whole (Ts, Tm, TI) triple by a
// bounded step toward the observed equivalent. The "mm" class (matrix-model
// nodes) is tracked and exported for the drift gauges but never adopted: its
// errors belong to the matrix CostModel, not the Table-1 constants.
//
// Adoption swaps the optimizer's constants pointer whole, between queries
// (the engine calls MaybeRecalibrate only after a query completes), so no
// in-flight descent ever sees a torn triple.

// RecalConfig tunes online recalibration. Zero values resolve to defaults.
type RecalConfig struct {
	// Enabled gates adoption; observation and drift export always run.
	Enabled bool
	// Alpha is the EWMA smoothing factor on log-ratios (default 0.2).
	Alpha float64
	// MinSamples is how many observations must accumulate before the first
	// adoption, and between consecutive adoptions (default 16).
	MinSamples int
	// MaxStep bounds one adoption's multiplicative change per constant
	// (default 1.5; the step is clamped to [1/MaxStep, MaxStep]).
	MaxStep float64
	// Deadband suppresses adoptions while drift stays within this ratio of
	// 1.0 (default 1.1): probe noise should not cause constant churn.
	Deadband float64
}

func (c RecalConfig) alpha() float64 {
	if c.Alpha > 0 && c.Alpha <= 1 {
		return c.Alpha
	}
	return 0.2
}

func (c RecalConfig) minSamples() int {
	if c.MinSamples > 0 {
		return c.MinSamples
	}
	return 16
}

func (c RecalConfig) maxStep() float64 {
	if c.MaxStep > 1 {
		return c.MaxStep
	}
	return 1.5
}

func (c RecalConfig) deadband() float64 {
	if c.Deadband > 1 {
		return c.Deadband
	}
	return 1.1
}

// minObserveNs floors the actual time an observation must have: nodes faster
// than this are clock-resolution noise, not constant-drift signal.
const minObserveNs = 2000

// ewmaLog is an exponentially weighted moving average in the log domain.
type ewmaLog struct {
	log float64
	n   int64
}

func (e *ewmaLog) observe(logRatio, alpha float64) {
	if e.n == 0 {
		e.log = logRatio
	} else {
		e.log = (1-alpha)*e.log + alpha*logRatio
	}
	e.n++
}

// recalState is the optimizer's drift tracker. Guarded by its own mutex —
// observations arrive from executor goroutines.
type recalState struct {
	mu         sync.Mutex
	cfg        RecalConfig
	light, mm  ewmaLog
	sinceAdopt int
	adoptions  int64
}

// drift returns the smoothed actual/predicted ratios (1.0 = no drift or no
// samples yet).
func (st *recalState) drift() (light, mm float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.driftLocked()
}

func (st *recalState) driftLocked() (light, mm float64) {
	light, mm = 1, 1
	if st.light.n > 0 {
		light = math.Exp(st.light.log)
	}
	if st.mm.n > 0 {
		mm = math.Exp(st.mm.log)
	}
	return light, mm
}

// EnableRecalibration turns on adoption with the given tuning. Call before
// serving queries; observation alone needs no enabling.
func (o *Optimizer) EnableRecalibration(cfg RecalConfig) {
	o.recal.mu.Lock()
	cfg.Enabled = true
	o.recal.cfg = cfg
	o.recal.mu.Unlock()
}

// ObserveNode feeds one executed node's predicted-vs-actual timing into the
// drift EWMAs. strategy is the plan node's strategy label ("mm" routes to
// the matrix class, everything else to the light class). Observations with
// no prediction or an actual below the noise floor are dropped.
func (o *Optimizer) ObserveNode(strategy string, predictedNs, actualNs float64) {
	if predictedNs <= 0 || actualNs < minObserveNs {
		return
	}
	logRatio := math.Log(actualNs / predictedNs)
	st := &o.recal
	st.mu.Lock()
	alpha := st.cfg.alpha()
	if strategy == "mm" {
		st.mm.observe(logRatio, alpha)
	} else {
		st.light.observe(logRatio, alpha)
		st.sinceAdopt++
	}
	total := st.light.n + st.mm.n
	st.mu.Unlock()
	// Refreshing every gauge per node costs more than the EWMA update itself;
	// a smoothed drift gauge loses nothing from 16-observation granularity.
	if total <= 4 || total%16 == 0 {
		o.publishConstants()
	}
}

// MaybeRecalibrate adopts EWMA-smoothed observed constants when enabled and
// the light-class drift has left the deadband with enough fresh samples.
// One adoption multiplies the whole triple by a step clamped to
// [1/MaxStep, MaxStep]; the residual drift stays in the EWMA so persistent
// drift converges over several adoptions instead of jumping. Returns whether
// an adoption happened. Call between queries only.
func (o *Optimizer) MaybeRecalibrate() bool {
	st := &o.recal
	st.mu.Lock()
	cfg := st.cfg
	if !cfg.Enabled || st.light.n < int64(cfg.minSamples()) || st.sinceAdopt < cfg.minSamples() {
		st.mu.Unlock()
		return false
	}
	drift := math.Exp(st.light.log)
	db := cfg.deadband()
	if drift < db && drift > 1/db {
		st.mu.Unlock()
		return false
	}
	step := drift
	if max := cfg.maxStep(); step > max {
		step = max
	} else if step < 1/max {
		step = 1 / max
	}
	// The adopted share of the drift is now explained by the constants;
	// keep only the residual in the EWMA.
	st.light.log -= math.Log(step)
	st.sinceAdopt = 0
	st.adoptions++
	st.mu.Unlock()

	old := o.Constants()
	adopted := Constants{
		Ts: clampConst(old.Ts * step),
		Tm: clampConst(old.Tm * step),
		TI: clampConst(old.TI * step),
	}
	o.consts.Store(&adopted)
	recalTotal.Inc()
	slog.Info("optimizer constants recalibrated",
		"step", step, "drift", drift,
		"ts", adopted.Ts, "tm", adopted.Tm, "ti", adopted.TI)
	o.publishConstants()
	return true
}

// ConstantsInfo is the drift report served by /stats/planner.
type ConstantsInfo struct {
	Probed             Constants `json:"probed"`
	Current            Constants `json:"current"`
	Observed           Constants `json:"observed"`
	DriftLight         float64   `json:"drift_light"`
	DriftMM            float64   `json:"drift_mm"`
	LightSamples       int64     `json:"light_samples"`
	MMSamples          int64     `json:"mm_samples"`
	RecalibrateEnabled bool      `json:"recalibrate_enabled"`
	Recalibrations     int64     `json:"recalibrations"`
	NearMarginBand     float64   `json:"near_margin_band"`
}

// ConstantsInfo snapshots the constants and drift state.
func (o *Optimizer) ConstantsInfo() ConstantsInfo {
	st := &o.recal
	st.mu.Lock()
	light, mm := st.driftLocked()
	info := ConstantsInfo{
		DriftLight:         light,
		DriftMM:            mm,
		LightSamples:       st.light.n,
		MMSamples:          st.mm.n,
		RecalibrateEnabled: st.cfg.Enabled,
		Recalibrations:     st.adoptions,
	}
	st.mu.Unlock()
	cur := o.Constants()
	info.Probed = o.probed
	info.Current = cur
	info.Observed = Constants{Ts: cur.Ts * light, Tm: cur.Tm * light, TI: cur.TI * light}
	info.NearMarginBand = DefaultNearMarginBand
	return info
}
