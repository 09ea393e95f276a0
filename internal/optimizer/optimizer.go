// Package optimizer implements the cost-based optimizer of Section 5: given
// an indexed instance of the 2-path query, it picks the degree thresholds
// Δ1, Δ2 that minimize the predicted running time of Algorithm 1, or decides
// to fall back to a plain worst-case optimal join when the full join is not
// much larger than the input.
//
// The optimizer relies on three ingredients, all built here:
//
//  1. degree-distribution indexes sum(x_δ), sum(y_δ), cdfx(y_δ) and
//     count(w_δ), stored as degree-sorted prefix-sum vectors answering any δ
//     by binary search (built in O(N log N), queried in O(log N));
//  2. calibrated machine constants Ts, Tm, TI (Table 1 of the paper),
//     measured with micro-probes on first use;
//  3. the matrix cost model M̂(u,v,w,co) from internal/matrix.
//
// The search itself follows Algorithm 3: a multiplicative descent on Δ1 with
// Δ2 tied to Δ1 through the balance condition Δ2 = N·Δ1/|OUT|, stopping at
// the first iteration whose predicted cost exceeds the previous one.
package optimizer

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/joinproject"
	"repro/internal/matrix"
	"repro/internal/relation"
)

// WCOJFallbackFactor is the Algorithm-3 guard: if |OUT⋈| ≤ factor·N the
// optimizer skips partitioning entirely and evaluates with a plain
// worst-case optimal join (the paper uses 20).
const WCOJFallbackFactor = 20

// DefaultNearMarginBand is the decision-audit band: a decision whose margin
// falls below this ratio was nearly a coin flip, and a miscalibrated
// constant set could have flipped it.
const DefaultNearMarginBand = 1.5

// descentShrink is the multiplicative descent factor on Δ1 per Algorithm-3
// iteration (the paper's (1−ϵ); it fixes ϵ=0.95, we use a gentler 0.5 so the
// search inspects more candidate thresholds).
const descentShrink = 0.5

// Strategy labels of a plan node: Algorithm 1 with matrix multiplication, the
// plain worst-case optimal join + dedup, and the combinatorial (Lemma 2 /
// Section 3.2 without the product) twin.
const (
	StrategyMM    = "mm"
	StrategyWCOJ  = "wcoj"
	StrategyNonMM = "nonmm"
)

// Decision is the one record of a plan node's MM-vs-WCOJ choice: which
// algorithm runs, with which thresholds, and the estimates it was based on.
// PlanTwoPath and PlanStar produce it; plan nodes and audit records embed it.
type Decision struct {
	// Strategy is StrategyMM, StrategyWCOJ or StrategyNonMM.
	Strategy string
	// Delta1, Delta2 are the thresholds to run with: the caller's pins where
	// given, else the planner's choice, else 0 for the kernel's
	// joinproject.HeuristicThresholds. Always 0 under StrategyWCOJ.
	Delta1, Delta2 int
	// PredictedCost is the modeled cost of the chosen plan in abstract
	// nanoseconds — for MM the descent's best thresholds, for WCOJ the
	// closed-form expansion cost — so every executed node has a prediction
	// to compare its measured time against. 0 = nothing was priced.
	PredictedCost float64
	// EstOut and OutJoin record the estimates the decision was based on
	// (0 = the planner priced nothing).
	EstOut  int64
	OutJoin int64
	// Margin is how decisively the chosen plan won. For cost-descent
	// decisions it is the rejected plan's modeled cost over the chosen
	// plan's; for Algorithm-3 guard decisions (|OUT⋈| ≤ 20·N, where the MM
	// alternative is never priced because pricing it would build the
	// O(N log N) indexes the guard exists to skip) it is the guard bound's
	// slack, WCOJFallbackFactor·N / |OUT⋈|. 0 means no margin was computed.
	// A margin below 1 means the model actually preferred the rejected plan
	// (possible when the descent stalls early).
	Margin float64
	// NearMargin flags margins inside the near-margin band
	// (Margin < DefaultNearMarginBand): the decisions worth auditing first,
	// since a small constant drift flips them.
	NearMargin bool
}

// UseWCOJ reports whether the combinatorial plan was chosen over the matrix
// one: StrategyWCOJ for a two-path, StrategyNonMM for a star.
func (d Decision) UseWCOJ() bool {
	return d.Strategy == StrategyWCOJ || d.Strategy == StrategyNonMM
}

// Audit renders the estimates and margin behind the decision as the EXPLAIN
// suffix " est|OUT|=… |OUT⋈|=… margin=…× (near)"; empty when nothing was
// priced.
func (d Decision) Audit() string {
	var out string
	if d.OutJoin > 0 {
		out = fmt.Sprintf(" est|OUT|=%d |OUT⋈|=%d", d.EstOut, d.OutJoin)
	}
	if d.Margin > 0 {
		out += fmt.Sprintf(" margin=%.2f×", d.Margin)
		if d.NearMargin {
			out += " (near)"
		}
	}
	return out
}

// CostErr returns a measured wall time over the modeled cost, or 0 when
// either is missing. >1 = the node ran slower than modeled.
func (d Decision) CostErr(actualNs int64) float64 {
	if d.PredictedCost <= 0 || actualNs <= 0 {
		return 0
	}
	return float64(actualNs) / d.PredictedCost
}

// RowsErr returns an actual output size over est|OUT|, or 0 when there is no
// estimate or the node did not run (rows < 0). An empty output counts as one
// row, so it still carries signal against an estimate ≥ 1.
func (d Decision) RowsErr(rows int64) float64 {
	if d.EstOut <= 0 || rows < 0 {
		return 0
	}
	return float64(max(rows, 1)) / float64(d.EstOut)
}

// Options translates the decision into the options to run the kernel over
// rels with: every value light under StrategyWCOJ (Algorithm 1 degenerates to
// the indexed join with stamp dedup; rels are the two-path operands), the
// decided thresholds otherwise.
func (d Decision) Options(base joinproject.Options, rels ...*relation.Relation) joinproject.Options {
	if d.Strategy == StrategyWCOJ {
		return base.AllLight(rels[0], rels[1])
	}
	base.Delta1, base.Delta2 = d.Delta1, d.Delta2
	return base
}

// cdf answers weighted prefix sums over a degree distribution: sumUpTo(δ)
// returns the total weight of values with degree ≤ δ.
type cdf struct {
	degs   []int32
	prefix []float64 // prefix[i] = weight of degs[0..i-1]
}

// buildCDF returns the cdf of one weighting of degs; nil weights weigh
// every entry 1.
func buildCDF(degs []int32, weights []float64) cdf {
	return degreeCDFs(degs, weights)[0]
}

// degreeCDFs returns one cdf per weighting of the same entries (nil: every
// entry weighs 1). The entries are ordered by degree, ties by entry index,
// once for all the weightings, by a stable counting sort — a degree is at
// most the relation's size — and the cdfs share the sorted degrees.
func degreeCDFs(degs []int32, weightings ...[]float64) []cdf {
	var maxDeg int32
	for _, d := range degs {
		maxDeg = max(maxDeg, d)
	}
	next := make([]int32, maxDeg+2) // per degree: the next free slot in order
	for _, d := range degs {
		next[d+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	order := make([]int32, len(degs))
	for i, d := range degs {
		order[next[d]] = int32(i)
		next[d]++
	}
	sorted := make([]int32, len(degs))
	for i, e := range order {
		sorted[i] = degs[e]
	}
	cdfs := make([]cdf, len(weightings))
	for k, w := range weightings {
		c := cdf{degs: sorted, prefix: make([]float64, len(degs)+1)}
		for i, e := range order {
			wi := 1.0
			if w != nil {
				wi = w[e]
			}
			c.prefix[i+1] = c.prefix[i] + wi
		}
		cdfs[k] = c
	}
	return cdfs
}

// sumUpTo returns the summed weight of entries with degree ≤ delta.
func (c cdf) sumUpTo(delta int) float64 {
	i := sort.Search(len(c.degs), func(i int) bool { return int(c.degs[i]) > delta })
	return c.prefix[i]
}

// countAbove returns how many entries have degree > delta.
func (c cdf) countAbove(delta int) int {
	i := sort.Search(len(c.degs), func(i int) bool { return int(c.degs[i]) > delta })
	return len(c.degs) - i
}

// Indexes are the Section-5 precomputed statistics for one (R, S) pair.
type Indexes struct {
	n int // max(N_R, N_S)

	// sumX: per x value of R, weight Σ_{b ∈ R[a]} deg_S(b), keyed by deg_R(a).
	sumX cdf
	// sumY: per y value, weight deg_R(b)·deg_S(b), keyed by deg_S(b).
	sumY cdf
	// cdfx: per y value, weight deg_R(b), keyed by deg_S(b).
	cdfx cdf
	// countX/countY/countZ: unweighted degree distributions of x (in R),
	// y (in S) and z (in S).
	countX, countY, countZ cdf

	domX, domZ int
}

// BuildIndexes constructs the optimizer indexes in O(N log N).
func BuildIndexes(r, s *relation.Relation) *Indexes {
	ix := &Indexes{n: r.Size(), domX: r.NumX(), domZ: s.NumX()}
	if s.Size() > ix.n {
		ix.n = s.Size()
	}
	rX, rY, sX, sY := r.ByX(), r.ByY(), s.ByX(), s.ByY()

	// Per-x expansion effort.
	xdegs := make([]int32, rX.NumKeys())
	xw := make([]float64, rX.NumKeys())
	for i := 0; i < rX.NumKeys(); i++ {
		xdegs[i] = int32(rX.Degree(i))
		var effort float64
		for _, b := range rX.List(i) {
			effort += float64(len(sY.Lookup(b)))
		}
		xw[i] = effort
	}
	xcdfs := degreeCDFs(xdegs, xw, nil)
	ix.sumX, ix.countX = xcdfs[0], xcdfs[1]

	// Per-y weights keyed by S-degree.
	ydegs := make([]int32, sY.NumKeys())
	yw := make([]float64, sY.NumKeys())
	ycdf := make([]float64, sY.NumKeys())
	for i := 0; i < sY.NumKeys(); i++ {
		dS := sY.Degree(i)
		ydegs[i] = int32(dS)
		dR := len(rY.Lookup(sY.Key(i)))
		yw[i] = float64(dR) * float64(dS)
		ycdf[i] = float64(dR)
	}
	ycdfs := degreeCDFs(ydegs, yw, ycdf, nil)
	ix.sumY, ix.cdfx, ix.countY = ycdfs[0], ycdfs[1], ycdfs[2]

	zdegs := make([]int32, sX.NumKeys())
	for i := 0; i < sX.NumKeys(); i++ {
		zdegs[i] = int32(sX.Degree(i))
	}
	ix.countZ = buildCDF(zdegs, nil)
	return ix
}

// Constants is one calibrated (Ts, Tm, TI) triple in nanoseconds: average
// sequential access, 32-byte allocation, and random access + insert (the
// paper's Table 1).
type Constants struct {
	Ts float64 `json:"ts"`
	Tm float64 `json:"tm"`
	TI float64 `json:"ti"`
}

// Optimizer chooses evaluation plans using calibrated machine constants.
type Optimizer struct {
	// Model prices the matrix steps.
	Model *matrix.CostModel

	// consts holds the Table-1 constants in use. Recalibration swaps the
	// pointer whole between queries, so every decision reads one consistent
	// (Ts, Tm, TI) triple and in-flight snapshots are never torn.
	consts atomic.Pointer[Constants]
	// probed is the startup baseline (micro-probed or pinned), kept for
	// drift reporting.
	probed Constants
	// recal tracks predicted-vs-actual drift and adoption state (recal.go).
	recal recalState
}

// New returns an optimizer with freshly calibrated constants.
func New() *Optimizer {
	ts, tm, ti := CalibrateConstants()
	return NewWithConstants(Constants{Ts: ts, Tm: tm, TI: ti})
}

// NewWithConstants returns an optimizer with pinned constants, skipping the
// startup probe: reproducible plans across runners, and the manual escape
// hatch when drift detection fires.
func NewWithConstants(c Constants) *Optimizer {
	o := &Optimizer{Model: matrix.DefaultCostModel(), probed: c}
	o.consts.Store(&c)
	o.publishConstants()
	return o
}

// Constants returns the (Ts, Tm, TI) triple currently in use — the probed
// or pinned baseline, moved by recalibration adoptions when enabled.
func (o *Optimizer) Constants() Constants {
	if p := o.consts.Load(); p != nil {
		return *p
	}
	// Zero-value Optimizer: fall back to the process-wide calibration.
	ts, tm, ti := CalibrateConstants()
	c := Constants{Ts: ts, Tm: tm, TI: ti}
	o.consts.CompareAndSwap(nil, &c)
	return *o.consts.Load()
}

// lightCost models the light-part work of Algorithm 1 for thresholds
// (d1, d2): expansion of light-y witnesses, expansion of light-x values and
// the dedup bookkeeping (Algorithm 3 lines 10–11).
func (o *Optimizer) lightCost(c Constants, ix *Indexes, d1, d2 int) float64 {
	return c.TI*ix.sumY.sumUpTo(d1) +
		c.TI*ix.sumX.sumUpTo(d2) +
		c.Tm*float64(ix.domZ) +
		c.Ts*ix.cdfx.sumUpTo(d1)
}

// heavyCost models the heavy part: matrix construction plus M̂(u,v,w,co)
// (Algorithm 3 lines 12–13).
func (o *Optimizer) heavyCost(ix *Indexes, d1, d2, cores int) float64 {
	u := int64(ix.countX.countAbove(d2))
	v := int64(ix.countY.countAbove(d1))
	w := int64(ix.countZ.countAbove(d2))
	if u == 0 || v == 0 || w == 0 {
		return 0
	}
	mul := float64(o.Model.EstimateMul(u, v, w, cores).Nanoseconds())
	build := float64(o.Model.EstimateConstruct(u, v, w).Nanoseconds())
	return mul + build
}

// costWith returns the full modeled cost for explicit thresholds against one
// constants snapshot, so a descent prices every candidate under the same
// triple even if recalibration lands mid-search.
func (o *Optimizer) costWith(c Constants, ix *Indexes, d1, d2, cores int) float64 {
	return o.lightCost(c, ix, d1, d2) + o.heavyCost(ix, d1, d2, cores)
}

// wcojPlanCost prices the plain WCOJ + dedup plan in closed form, without
// building indexes: every full-join pair is expanded and inserted (TI, and
// |OUT⋈| counts each witness from both sides of the light sums), the dedup
// stamps touch the output domain (Tm), and the per-witness lists are walked
// sequentially (Ts, bounded by N). It deliberately mirrors lightCost at
// Δ1 = Δ2 = N — where sum(y_N) + sum(x_N) = 2·|OUT⋈| and cdfx(y_N) ≤ N — so
// margins compare like with like.
func wcojPlanCost(c Constants, outJoin, n int64, domZ int) float64 {
	return c.TI*2*float64(outJoin) + c.Tm*float64(domZ) + c.Ts*float64(n)
}

// forced normalizes a caller's strategy pin: the three labels pin, anything
// else ("" or "auto") leaves the choice to the planner.
func forced(force string) bool {
	return force == StrategyMM || force == StrategyWCOJ || force == StrategyNonMM
}

// settle applies the caller's threshold pins to a planned decision: a pinned
// Δ overrides the planner's, and the all-light WCOJ plan has none.
func (d Decision) settle(base joinproject.Options) Decision {
	if d.Strategy == StrategyWCOJ {
		d.Delta1, d.Delta2 = 0, 0
		return d
	}
	if base.Delta1 != 0 {
		d.Delta1 = base.Delta1
	}
	if base.Delta2 != 0 {
		d.Delta2 = base.Delta2
	}
	return d
}

// PlanTwoPath decides how one 2-path instance π_{x,z}(R(x,y) ⋈ S(z,y)) runs.
// It is the only place a two-path strategy is chosen, and is valid on a nil
// receiver ("no planner"). base carries the worker count and the caller's
// threshold pins (0 = unpinned); force is a strategy pin ("" or "auto" =
// none).
//
// A forced strategy wins and prices nothing; no planner means MM; otherwise
// Algorithm 3 decides: plain WCOJ when |OUT⋈| ≤ 20·N, else the threshold
// descent. Run the result with Decision.Options.
func (o *Optimizer) PlanTwoPath(r, s *relation.Relation, base joinproject.Options, force string) Decision {
	if forced(force) {
		return Decision{Strategy: force}.settle(base)
	}
	if o == nil {
		return Decision{Strategy: StrategyMM}.settle(base)
	}
	outJoin := relation.FullJoinSize(r, s)
	return o.algorithm3(r, s, base.Workers, outJoin, joinproject.EstimateOutputFromJoinSize(r, s, outJoin)).settle(base)
}

// guard is the shared Algorithm-3 fallback test: when the full join is at
// most WCOJFallbackFactor·N the combinatorial plan (label wcoj) wins without
// pricing the matrix alternative. ok=false means the caller must search.
func (o *Optimizer) guard(c Constants, wcoj string, outJoin, n, estOut int64) (dec Decision, ok bool) {
	if n != 0 && outJoin > WCOJFallbackFactor*n {
		return Decision{}, false
	}
	dec = Decision{Strategy: wcoj, OutJoin: outJoin, EstOut: estOut,
		PredictedCost: wcojPlanCost(c, outJoin, n, 0)}
	if outJoin > 0 {
		dec.Margin = float64(WCOJFallbackFactor*n) / float64(outJoin)
	}
	o.noteDecision(&dec)
	return dec, true
}

// algorithm3 is the Algorithm-3 guard and descent for one |OUT| estimate,
// given outJoin = |OUT⋈|.
func (o *Optimizer) algorithm3(r, s *relation.Relation, cores int, outJoin, estOut int64) Decision {
	n := int64(max(r.Size(), s.Size()))
	c := o.Constants()
	if dec, ok := o.guard(c, StrategyWCOJ, outJoin, n, estOut); ok {
		return dec
	}
	ix := BuildIndexes(r, s)
	est := float64(max(estOut, 1))
	prevCost := math.Inf(1)
	prevD1, prevD2 := int(n), 1
	d1f := float64(n)
	for iter := 0; iter < 200; iter++ {
		d1f *= descentShrink
		d1 := max(int(d1f), 1)
		d2 := min(max(int(float64(n)*float64(d1)/est), 1), int(n))
		cost := o.costWith(c, ix, d1, d2, cores)
		if prevCost <= cost {
			break
		}
		prevCost, prevD1, prevD2 = cost, d1, d2
		if d1 == 1 {
			break
		}
	}
	dec := Decision{Strategy: StrategyMM, OutJoin: outJoin, EstOut: estOut,
		Delta1: prevD1, Delta2: prevD2, PredictedCost: prevCost}
	if wcoj := wcojPlanCost(c, outJoin, n, ix.domZ); prevCost > 0 {
		dec.Margin = wcoj / prevCost
	}
	o.noteDecision(&dec)
	return dec
}

// noteDecision stamps the near-margin flag and feeds the decision-audit
// counters. Called on every planner decision that computed a margin.
func (o *Optimizer) noteDecision(dec *Decision) {
	dec.NearMargin = dec.Margin > 0 && dec.Margin < DefaultNearMarginBand
	strategy := StrategyMM
	if dec.UseWCOJ() {
		strategy = StrategyWCOJ
	}
	decisionsTotal.With(strategy).Inc()
	if dec.NearMargin {
		nearMarginTotal.Inc()
	}
}

// PlanStar decides how the star query Q★k over rels runs, under the same
// rules and arguments as PlanTwoPath. A star's combinatorial plan is
// StarNonMM, so both a wcoj pin and the Algorithm-3 guard yield
// StrategyNonMM. The threshold search is a coarse grid over the Section-3.2
// cost formula N·Δ1^{k-1} + |OUT|·Δ2 + M̂(·): powers of two, which is enough
// resolution for threshold-quality experiments.
func (o *Optimizer) PlanStar(rels []*relation.Relation, base joinproject.Options, force string) Decision {
	if force == StrategyWCOJ {
		force = StrategyNonMM
	}
	if forced(force) {
		return Decision{Strategy: force}.settle(base)
	}
	if o == nil {
		return Decision{Strategy: StrategyMM}.settle(base)
	}
	k := len(rels)
	if k == 0 {
		return Decision{Strategy: StrategyNonMM}
	}
	outJoin := relation.FullJoinSize(rels...)
	var n int64
	for _, r := range rels {
		n = max(n, int64(r.Size()))
	}
	c := o.Constants()
	if dec, ok := o.guard(c, StrategyNonMM, outJoin, n, 0); ok {
		return dec.settle(base)
	}
	est := float64(max(joinproject.EstimateOutputSize(rels[0], rels[k-1]), 1))
	dec := Decision{Strategy: StrategyMM, OutJoin: outJoin, EstOut: int64(est)}
	best := math.Inf(1)
	for d1 := 1; int64(d1) <= n; d1 *= 2 {
		for d2 := 1; int64(d2) <= n; d2 *= 2 {
			light := float64(n) * math.Pow(float64(d1), float64(k-1))
			lightX := est * float64(d2)
			u := math.Pow(float64(n)/float64(d2), math.Ceil(float64(k)/2))
			w := math.Pow(float64(n)/float64(d2), math.Floor(float64(k)/2))
			v := float64(n) / float64(d1)
			heavy := float64(o.Model.EstimateMul(int64(u)+1, int64(v)+1, int64(w)+1, base.Workers).Nanoseconds())
			cost := c.TI*(light+lightX) + heavy
			if cost < best {
				best = cost
				dec.Delta1, dec.Delta2 = d1, d2
			}
		}
	}
	dec.PredictedCost = best
	if wcoj := wcojPlanCost(c, outJoin, n, 0); best > 0 {
		dec.Margin = wcoj / best
	}
	o.noteDecision(&dec)
	return dec.settle(base)
}
