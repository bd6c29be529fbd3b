package live

import (
	"testing"
	"time"

	"timebounds/internal/core"
	"timebounds/internal/model"
)

// adversarialSequences are delay traces engineered to stress the
// estimator envelope: traffic bursts, steady drift ramps, and
// heavy-tailed spikes that a naive averaging estimator would smooth away.
func adversarialSequences() map[string][]model.Time {
	ms := func(f float64) model.Time { return model.Time(f * float64(time.Millisecond)) }
	seqs := map[string][]model.Time{}

	// Burst: long quiet baseline, then clustered 10x spikes, then quiet.
	var burst []model.Time
	for i := 0; i < 120; i++ {
		burst = append(burst, ms(1))
	}
	for i := 0; i < 12; i++ {
		burst = append(burst, ms(10), ms(9.5), ms(1))
	}
	for i := 0; i < 120; i++ {
		burst = append(burst, ms(1.1))
	}
	seqs["burst"] = burst

	// Drift ramp: delays grow steadily (clock or load drift), then fall.
	var ramp []model.Time
	for i := 0; i < 200; i++ {
		ramp = append(ramp, ms(0.5)+model.Time(i)*ms(0.05))
	}
	for i := 200; i > 0; i-- {
		ramp = append(ramp, ms(0.5)+model.Time(i)*ms(0.05))
	}
	seqs["drift-ramp"] = ramp

	// Heavy tail: mostly sub-millisecond with rare 40x outliers.
	var tail []model.Time
	for i := 0; i < 400; i++ {
		if i%97 == 0 {
			tail = append(tail, ms(40))
		} else {
			tail = append(tail, ms(0.4)+model.Time(i%7)*ms(0.03))
		}
	}
	seqs["heavy-tail"] = tail

	// Zero floor: negative skew-corrupted observations must clamp, not
	// poison the spread.
	seqs["negative-clamp"] = []model.Time{
		ms(1), -ms(2), ms(3), -ms(1), ms(0.5), ms(2), -ms(5), ms(1),
		ms(4), ms(1), ms(0.1), ms(2.5), ms(1), ms(1), ms(1), ms(1),
	}

	return seqs
}

// TestEstimatorEnvelopeNeverDipsBelowWindow is the satellite-3 safety
// property: once past MinSamples, the padded estimate must dominate the
// realized extremes of the observation window — D ≥ window max + slack
// and U ≥ window spread + slack — after every single observation, for
// every adversarial sequence.
func TestEstimatorEnvelopeNeverDipsBelowWindow(t *testing.T) {
	cfg := EstimatorConfig{Window: 64, MinSamples: 8, Slack: model.Time(time.Millisecond)}
	for name, seq := range adversarialSequences() {
		t.Run(name, func(t *testing.T) {
			e := NewEstimator(3, cfg)
			var window []model.Time
			for i, d := range seq {
				e.Observe(d)
				obs := d
				if obs < 0 {
					obs = 0 // the estimator clamps skew-negative samples
				}
				window = append(window, obs)
				if len(window) > cfg.Window {
					window = window[1:]
				}
				est := e.Snapshot()
				if est.FromPrior {
					if i >= cfg.MinSamples {
						t.Fatalf("sample %d: still on prior after %d >= MinSamples observations", i, i+1)
					}
					continue
				}
				wmax, wmin := window[0], window[0]
				for _, w := range window {
					if w > wmax {
						wmax = w
					}
					if w < wmin {
						wmin = w
					}
				}
				if est.D < wmax+cfg.Slack {
					t.Fatalf("sample %d: D estimate %s dips below window max %s + slack %s", i, est.D, wmax, cfg.Slack)
				}
				if spread := wmax - wmin; est.U < spread+cfg.Slack {
					t.Fatalf("sample %d: U estimate %s dips below window spread %s + slack %s", i, est.U, spread, cfg.Slack)
				}
				if est.U > est.D {
					t.Fatalf("sample %d: U %s exceeds D %s (inadmissible envelope)", i, est.U, est.D)
				}
				if est.Epsilon <= 0 {
					t.Fatalf("sample %d: non-positive epsilon %s", i, est.Epsilon)
				}
			}
		})
	}
}

func TestEstimatorPriorGovernsUntilMinSamples(t *testing.T) {
	prior := model.Time(25 * time.Millisecond)
	e := NewEstimator(4, EstimatorConfig{MinSamples: 5, Prior: prior})
	for i := 0; i < 4; i++ {
		est := e.Snapshot()
		if !est.FromPrior || est.D != prior || est.U != prior {
			t.Fatalf("before MinSamples: want prior envelope {D,U}=%s, got %+v", prior, est)
		}
		e.Observe(model.Time(time.Millisecond))
	}
	e.Observe(model.Time(time.Millisecond))
	if est := e.Snapshot(); est.FromPrior {
		t.Fatalf("after MinSamples: still on prior: %+v", est)
	}
	if e.Samples() != 5 {
		t.Fatalf("Samples() = %d, want 5", e.Samples())
	}
}

func TestEstimatorEpsilonIsOptimalSkew(t *testing.T) {
	e := NewEstimator(4, EstimatorConfig{MinSamples: 1, Margin: -1, Slack: 1})
	e.Observe(model.Time(8 * time.Millisecond))
	est := e.Snapshot()
	// Margin < 0 disables padding and Slack 1ns is negligible: the
	// envelope is essentially the single observation.
	if est.D != model.Time(8*time.Millisecond)+1 {
		t.Fatalf("D = %s, want the single observation + 1ns slack", est.D)
	}
	if want := est.U * 3 / 4; est.Epsilon != want {
		t.Fatalf("Epsilon = %s, want (1-1/n)*U = %s", est.Epsilon, want)
	}
}

func TestTunerDerivesAlgorithmOneWaits(t *testing.T) {
	x := model.Time(2 * time.Millisecond)
	tun := NewTuner(x, 1)
	est := Estimate{
		D:       model.Time(10 * time.Millisecond),
		U:       model.Time(4 * time.Millisecond),
		Epsilon: model.Time(3 * time.Millisecond),
	}
	tun.Apply(est)
	w := tun.Waits()
	if want := est.D - est.U; w.SelfAdd != want {
		t.Fatalf("SelfAdd = %s, want d-u = %s", w.SelfAdd, want)
	}
	if want := est.U + est.Epsilon; w.Execute != want {
		t.Fatalf("Execute = %s, want u+eps = %s", w.Execute, want)
	}
	if want := est.Epsilon + x; w.MutatorResponse != want {
		t.Fatalf("MutatorResponse = %s, want eps+X = %s", w.MutatorResponse, want)
	}
	if want := est.D + est.Epsilon - x; w.AccessorResponse != want {
		t.Fatalf("AccessorResponse = %s, want d+eps-X = %s", w.AccessorResponse, want)
	}
}

func TestTunerUndertuneScalesWaits(t *testing.T) {
	est := Estimate{
		D:       model.Time(10 * time.Millisecond),
		U:       model.Time(4 * time.Millisecond),
		Epsilon: model.Time(3 * time.Millisecond),
	}
	full := NewTuner(0, 1)
	full.Apply(est)
	under := NewTuner(0, 0.5)
	under.Apply(est)
	fw, uw := full.Waits(), under.Waits()
	if uw.SelfAdd*2 != fw.SelfAdd || uw.Execute*2 != fw.Execute {
		t.Fatalf("undertune 0.5 should halve waits: full %+v under %+v", fw, uw)
	}
	if uw.AccessorResponse*2 != fw.AccessorResponse {
		t.Fatalf("undertune 0.5 should halve accessor wait: full %+v under %+v", fw, uw)
	}
}

func TestTunerTracksPeakAndRetunes(t *testing.T) {
	tun := NewTuner(0, 1)
	a := Estimate{D: model.Time(10 * time.Millisecond), U: model.Time(6 * time.Millisecond), Epsilon: model.Time(4 * time.Millisecond)}
	b := Estimate{D: model.Time(14 * time.Millisecond), U: model.Time(3 * time.Millisecond), Epsilon: model.Time(2 * time.Millisecond)}
	tun.Apply(a)
	tun.Apply(a) // identical envelope: not a retune
	tun.Apply(b)
	cur, peak, retunes := tun.Snapshot()
	if retunes != 1 {
		t.Fatalf("retunes = %d, want 1 (initial install is free, duplicates are no-ops)", retunes)
	}
	if cur != b {
		t.Fatalf("cur = %+v, want the last applied envelope", cur)
	}
	if peak.D != b.D || peak.U != a.U || peak.Epsilon != a.Epsilon {
		t.Fatalf("peak = %+v, want componentwise max of %+v and %+v", peak, a, b)
	}
}

// TestTunerWaitsAreCoreFormula: the live tuner has no wait formula of its
// own — at every scale its waits are core.WaitsFor on the scaled
// (d̂, û, ε̂), the same formula the simulator's replicas use.
func TestTunerWaitsAreCoreFormula(t *testing.T) {
	est := Estimate{
		D:       model.Time(10 * time.Millisecond),
		U:       model.Time(4 * time.Millisecond),
		Epsilon: model.Time(3 * time.Millisecond),
	}
	for _, x := range []model.Time{0, model.Time(2 * time.Millisecond), model.Time(20 * time.Millisecond)} {
		for _, scale := range []float64{1, 0.5, 0.03} {
			tun := NewTuner(x, scale)
			tun.Apply(est)
			s := func(d model.Time) model.Time { return model.Time(float64(d) * scale) }
			scaled := model.Params{D: s(est.D), U: s(est.U), Epsilon: s(est.Epsilon)}
			if got, want := tun.Waits(), core.WaitsFor(scaled, x, core.Tuning{}); got != want {
				t.Errorf("x=%s scale=%v: Tuner waits %+v, core.WaitsFor %+v", x, scale, got, want)
			}
		}
	}
}
