package optimizer

import (
	"math"
	"testing"

	"repro/internal/joinproject"
	"repro/internal/relation"
)

// A deliberately mis-pinned constant set must converge toward observed
// values through bounded adoption steps: constants 20× too small see every
// light node run ~20× over prediction, and repeated MaybeRecalibrate calls
// walk them up without ever exceeding the per-adoption step bound.
func TestRecalibrationConvergesFromMispinnedConstants(t *testing.T) {
	truth := Constants{Ts: 1.0, Tm: 8.0, TI: 6.0}
	mis := Constants{Ts: truth.Ts / 20, Tm: truth.Tm / 20, TI: truth.TI / 20}
	o := NewWithConstants(mis)
	o.EnableRecalibration(RecalConfig{MinSamples: 4})

	const predictedNs = 1e6
	adoptions := 0
	for round := 0; round < 200 && adoptions < 64; round++ {
		// Synthetic observations: the "machine" is 20× slower than the
		// mis-pinned model claims, scaled by how far the constants have
		// already moved (predictions grow as constants are adopted).
		scale := o.Constants().Ts / mis.Ts
		actual := predictedNs * scale * (truth.Ts / (mis.Ts * scale))
		for i := 0; i < 4; i++ {
			o.ObserveNode("wcoj", predictedNs*scale, actual)
		}
		before := o.Constants()
		if o.MaybeRecalibrate() {
			adoptions++
			after := o.Constants()
			step := after.Ts / before.Ts
			if step > 1.5000001 || step < 1/1.5000001 {
				t.Fatalf("adoption step %.3f outside [1/1.5, 1.5]", step)
			}
			// The whole triple moves together.
			if r := after.Tm / before.Tm; math.Abs(r-step) > 1e-9 {
				t.Fatalf("Tm step %.4f != Ts step %.4f", r, step)
			}
		}
	}
	if adoptions < 4 {
		t.Fatalf("expected several adoptions, got %d", adoptions)
	}
	got := o.Constants()
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"ts", got.Ts, truth.Ts}, {"tm", got.Tm, truth.Tm}, {"ti", got.TI, truth.TI}} {
		ratio := c.got / c.want
		if ratio < 1/1.5 || ratio > 1.5 {
			t.Errorf("%s = %.3f did not converge to %.3f (ratio %.2f)", c.name, c.got, c.want, ratio)
		}
	}
	info := o.ConstantsInfo()
	if info.Recalibrations != int64(adoptions) {
		t.Errorf("ConstantsInfo.Recalibrations = %d, want %d", info.Recalibrations, adoptions)
	}
	if !info.RecalibrateEnabled {
		t.Error("ConstantsInfo.RecalibrateEnabled = false")
	}
	// The probed baseline must stay at the mis-pinned values for drift
	// reporting even after adoptions moved the current triple.
	if info.Probed != mis {
		t.Errorf("probed constants moved: %+v", info.Probed)
	}
}

// Recalibration must not adopt while disabled, inside the deadband, or
// before enough samples accumulate.
func TestRecalibrationGuardrails(t *testing.T) {
	o := NewWithConstants(Constants{Ts: 1, Tm: 1, TI: 1})
	// Disabled: observations accumulate but nothing is adopted.
	for i := 0; i < 64; i++ {
		o.ObserveNode("wcoj", 1e6, 5e6)
	}
	if o.MaybeRecalibrate() {
		t.Fatal("adopted while disabled")
	}

	o2 := NewWithConstants(Constants{Ts: 1, Tm: 1, TI: 1})
	o2.EnableRecalibration(RecalConfig{MinSamples: 16})
	for i := 0; i < 8; i++ {
		o2.ObserveNode("wcoj", 1e6, 5e6)
	}
	if o2.MaybeRecalibrate() {
		t.Fatal("adopted below MinSamples")
	}

	// Inside the deadband: drift ~1.05 < 1.1 stays put.
	o3 := NewWithConstants(Constants{Ts: 1, Tm: 1, TI: 1})
	o3.EnableRecalibration(RecalConfig{MinSamples: 4})
	for i := 0; i < 32; i++ {
		o3.ObserveNode("wcoj", 1e6, 1.05e6)
	}
	if o3.MaybeRecalibrate() {
		t.Fatal("adopted inside the deadband")
	}

	// MM-class observations never drive adoption.
	o4 := NewWithConstants(Constants{Ts: 1, Tm: 1, TI: 1})
	o4.EnableRecalibration(RecalConfig{MinSamples: 4})
	for i := 0; i < 32; i++ {
		o4.ObserveNode("mm", 1e6, 9e6)
	}
	if o4.MaybeRecalibrate() {
		t.Fatal("adopted from mm-class observations")
	}
	info := o4.ConstantsInfo()
	if info.MMSamples != 32 || info.LightSamples != 0 {
		t.Fatalf("sample routing wrong: light=%d mm=%d", info.LightSamples, info.MMSamples)
	}
	if info.DriftMM <= 1 {
		t.Errorf("DriftMM = %.2f, want > 1 after slow mm nodes", info.DriftMM)
	}
}

// Observations below the noise floor or without a prediction are dropped.
func TestObserveNodeNoiseFloor(t *testing.T) {
	o := NewWithConstants(Constants{Ts: 1, Tm: 1, TI: 1})
	o.ObserveNode("wcoj", 0, 1e6)    // no prediction
	o.ObserveNode("wcoj", 1e6, 100)  // below minObserveNs
	o.ObserveNode("wcoj", 1e6, 5000) // counts
	info := o.ConstantsInfo()
	if info.LightSamples != 1 {
		t.Fatalf("LightSamples = %d, want 1", info.LightSamples)
	}
}

// Margin semantics: a guard decision (|OUT⋈| ≤ 20N) reports the guard's
// slack, a descent decision the rejected/chosen cost ratio; both price the
// chosen plan.
func TestDecisionMargins(t *testing.T) {
	o := NewWithConstants(Constants{Ts: 0.5, Tm: 6, TI: 4})
	r := pathRelation("R", 64)
	s := pathRelation("S", 64)
	dec := o.PlanTwoPath(r, s, joinproject.Options{Workers: 1}, "")
	if !dec.UseWCOJ() {
		t.Fatalf("sparse chain should take the WCOJ guard, got %+v", dec)
	}
	if dec.PredictedCost <= 0 {
		t.Errorf("guard decision has no PredictedCost: %+v", dec)
	}
	wantMargin := float64(WCOJFallbackFactor*64) / float64(dec.OutJoin)
	if math.Abs(dec.Margin-wantMargin) > 1e-9 {
		t.Errorf("guard margin = %.3f, want %.3f", dec.Margin, wantMargin)
	}
	if dec.NearMargin {
		t.Errorf("guard slack %.1f× flagged near-margin", dec.Margin)
	}
}

// pathRelation builds a sparse chain relation i -> i+1, whose 2-path
// composition trips the Algorithm-3 guard (|OUT⋈| = N ≤ 20·N).
func pathRelation(name string, n int) *relation.Relation {
	ps := make([]relation.Pair, n)
	for i := range ps {
		ps[i] = relation.Pair{X: int32(i), Y: int32(i + 1)}
	}
	return relation.FromPairs(name, ps)
}
