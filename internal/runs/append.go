package runs

import (
	"fmt"

	"timebounds/internal/model"
)

// Appendable reports whether run r2 can be appended to run r1
// (Chapter III.B.3): r1's views must all be finite, each process's first
// step in r2 must come strictly after its last step in r1, and the clock
// functions must agree. (The state-continuity condition is behavioural and
// holds by construction when both runs come from the same state machines;
// it is not observable from the trace.)
func Appendable(r1, r2 Run) error {
	if len(r1.Views) != len(r2.Views) {
		return fmt.Errorf("runs: view counts differ: %d vs %d", len(r1.Views), len(r2.Views))
	}
	for i := range r1.Views {
		v1, v2 := r1.Views[i], r2.Views[i]
		if v1.End == model.Infinity {
			return fmt.Errorf("runs: %s view in r1 is not finite", v1.Proc)
		}
		if v1.ClockOffset != v2.ClockOffset || v1.Rate != v2.Rate {
			return fmt.Errorf("runs: %s clock functions differ (%s vs %s)",
				v1.Proc, v1.ClockOffset, v2.ClockOffset)
		}
		if len(v1.Steps) > 0 && len(v2.Steps) > 0 {
			last := v1.Steps[len(v1.Steps)-1].RealTime
			first := v2.Steps[0].RealTime
			if first <= last {
				return fmt.Errorf("runs: %s first step of r2 at %s not after last step of r1 at %s",
					v1.Proc, first, last)
			}
		}
	}
	return nil
}

// Append concatenates r2 onto r1 (Claim B.4: the result is a run). It
// returns an error if the runs are not appendable.
func Append(r1, r2 Run) (Run, error) {
	if err := Appendable(r1, r2); err != nil {
		return Run{}, err
	}
	out := Run{Params: r1.Params, Views: make([]TimedView, len(r1.Views)), LastResponse: r2.LastResponse}
	for i := range r1.Views {
		v1, v2 := r1.Views[i], r2.Views[i]
		nv := TimedView{
			Proc:        v1.Proc,
			ClockOffset: v1.ClockOffset,
			Rate:        v1.Rate,
			End:         v2.End,
			Steps:       make([]Step, 0, len(v1.Steps)+len(v2.Steps)),
		}
		nv.Steps = append(nv.Steps, v1.Steps...)
		nv.Steps = append(nv.Steps, v2.Steps...)
		out.Views[i] = nv
	}
	seq := 0
	for _, m := range r1.Msgs {
		nm := m
		nm.Seq = seq
		seq++
		out.Msgs = append(out.Msgs, nm)
	}
	for _, m := range r2.Msgs {
		nm := m
		nm.Seq = seq
		seq++
		out.Msgs = append(out.Msgs, nm)
	}
	return out, nil
}

// Truncate returns the prefix of r that ends (exclusively) at the given
// per-process horizon; a single horizon value applies to all views when
// len(cut) == 1. Messages sent beyond the sender's horizon are dropped;
// messages received beyond the recipient's horizon become unreceived.
func Truncate(r Run, cut []model.Time) (Run, error) {
	if len(cut) == 1 {
		full := make([]model.Time, len(r.Views))
		for i := range full {
			full[i] = cut[0]
		}
		cut = full
	}
	if len(cut) != len(r.Views) {
		return Run{}, fmt.Errorf("runs: %d horizons for %d views", len(cut), len(r.Views))
	}
	out := Run{Params: r.Params, Views: make([]TimedView, len(r.Views)), LastResponse: r.LastResponse}
	for i, v := range r.Views {
		nv := TimedView{Proc: v.Proc, ClockOffset: v.ClockOffset, Rate: v.Rate, End: minTime(v.End, cut[i])}
		for _, st := range v.Steps {
			if st.RealTime < nv.End {
				nv.Steps = append(nv.Steps, st)
			}
		}
		out.Views[i] = nv
	}
	for _, m := range r.Msgs {
		if m.SentAt >= out.Views[m.From].End {
			continue
		}
		nm := m
		if m.Received() && m.RecvAt >= out.Views[m.To].End {
			nm.RecvAt = model.Infinity
		}
		out.Msgs = append(out.Msgs, nm)
	}
	return out, nil
}
