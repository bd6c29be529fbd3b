// Package runs makes the run-manipulation machinery of Chapters III–IV
// executable: timed views, runs, the standard time shift (§IV.A), and the
// modified time shift's chop operator (§IV.B, Lemma B.1). The lower-bound
// proofs reason by transforming runs; here those transformations are
// ordinary functions over recorded run data, and the accompanying tests
// check the paper's claims (B.1–B.4, Lemma B.1) mechanically.
package runs

import (
	"fmt"

	"timebounds/internal/fault"
	"timebounds/internal/model"
	"timebounds/internal/sim"
)

// Step is one process step, identified by its real time (its clock time is
// real time + the view's clock offset; Chapter III.B.2).
type Step struct {
	RealTime model.Time
	// Kind labels the step ("invoke", "deliver", "timer"); informational.
	Kind string
}

// TimedView is the timed view of one process: its steps in increasing real
// time, its clock — the constant offset c_j, and a drift rate when a fault
// plan made the clock drift — and an exclusive end-of-view horizon
// (Infinity for complete views).
type TimedView struct {
	Proc        model.ProcessID
	ClockOffset model.Time
	// Rate is the clock's drift in ppm (fault.Drift); 0 for the model's
	// drift-free clocks, the only ones the time shift is defined for.
	Rate  int64
	Steps []Step
	// End is the exclusive horizon: the view contains exactly the steps
	// with RealTime < End.
	End model.Time
}

// ClockTime returns the clock time of a step at the given real time.
func (v TimedView) ClockTime(real model.Time) model.Time {
	return fault.ClockAt(real, v.ClockOffset, v.Rate)
}

// Message is one message of a run with its real send and receive times.
// RecvAt == model.Infinity marks a message sent but not received in the run.
type Message struct {
	Seq      int
	From, To model.ProcessID
	SentAt   model.Time
	RecvAt   model.Time
	// Dup marks an extra receipt of a message a duplication fault copied.
	Dup bool
}

// Received reports whether the message is delivered within the run.
func (m Message) Received() bool { return m.RecvAt != model.Infinity }

// Delay returns the message delay (meaningless if not received).
func (m Message) Delay() model.Time { return m.RecvAt - m.SentAt }

// Run is a set of timed views, one per process, plus the messages exchanged
// (Chapter III.B.3).
type Run struct {
	Params model.Params
	Views  []TimedView
	Msgs   []Message
	// LastResponse is the real time of the run's latest response, the
	// instant Admissible takes drifting clocks' skew at, as the simulator
	// does; drift-free clocks keep one skew throughout.
	LastResponse model.Time
}

// FromSim extracts a Run from a completed simulation.
func FromSim(s *sim.Simulator) Run {
	p := s.Params()
	views := make([]TimedView, p.N)
	for i := range views {
		offset, ppm := s.Clock(model.ProcessID(i))
		views[i] = TimedView{Proc: model.ProcessID(i), ClockOffset: offset, Rate: ppm, End: model.Infinity}
	}
	for _, st := range s.Steps() {
		views[st.Proc].Steps = append(views[st.Proc].Steps, Step{
			RealTime: st.RealTime,
			Kind:     st.Kind,
		})
	}
	msgs := make([]Message, 0, len(s.Messages()))
	for _, m := range s.Messages() {
		msgs = append(msgs, Message{
			Seq: m.Seq, From: m.From, To: m.To, SentAt: m.SentAt, RecvAt: m.RecvAt, Dup: m.Dup,
		})
	}
	return Run{Params: p, Views: views, Msgs: msgs, LastResponse: s.LastResponse()}
}

// CheckView verifies the timed-view well-formedness conditions of Chapter
// III.B.2 that are observable here: steps ordered in real time and
// contained in [0, End). Steps share real times only via distinct events
// in the sim, so equal times are allowed but decreasing ones are not, at
// any sign: a shifted view's steps may lie before real time 0.
func CheckView(v TimedView) error {
	for i, st := range v.Steps {
		if i > 0 && st.RealTime < v.Steps[i-1].RealTime {
			return fmt.Errorf("runs: %s steps not ordered: %s after %s", v.Proc, st.RealTime, v.Steps[i-1].RealTime)
		}
		if st.RealTime >= v.End {
			return fmt.Errorf("runs: %s step at %s beyond view end %s", v.Proc, st.RealTime, v.End)
		}
	}
	return nil
}

// CheckRun verifies that r is a run: per-view well-formedness and every
// received message sent within its sender's view and received within its
// recipient's view.
func CheckRun(r Run) error {
	for _, v := range r.Views {
		if err := CheckView(v); err != nil {
			return err
		}
	}
	for _, m := range r.Msgs {
		if m.SentAt >= r.Views[m.From].End {
			return fmt.Errorf("runs: msg %d sent at %s after sender view end %s",
				m.Seq, m.SentAt, r.Views[m.From].End)
		}
		if m.Received() && m.RecvAt >= r.Views[m.To].End {
			return fmt.Errorf("runs: msg %d received at %s after recipient view end %s",
				m.Seq, m.RecvAt, r.Views[m.To].End)
		}
		if m.Received() && m.RecvAt < m.SentAt {
			return fmt.Errorf("runs: msg %d received before sent", m.Seq)
		}
	}
	return nil
}

// Admissible judges r by the admissibility conditions of Chapter III.B.3
// (fault.Judge) and returns its verdict as an error, nil when r is
// admissible: received delays within [d-u, d]; unreceived messages
// excused only when the recipient's view ends before sendTime+d; pairwise
// clock skew ≤ ε, taken for drifting clocks at r.LastResponse.
func Admissible(r Run) error {
	var f fault.Facts
	offsets, rates := make([]model.Time, len(r.Views)), make([]int64, len(r.Views))
	for i, v := range r.Views {
		offsets[i], rates[i] = v.ClockOffset, v.Rate
	}
	f.Skew = fault.WorstSkew(offsets, rates, r.LastResponse)
	for _, m := range r.Msgs {
		if m.Dup {
			f.Duplicates++
		}
		switch {
		case !m.Received():
			f.Miss(r.Params, m.SentAt, r.Views[m.To].End)
		case !m.Dup:
			f.Receive(m.Delay())
		}
	}
	return fault.Judge(r.Params, f).Err()
}

// ShiftView implements shift(V, x) (Chapter III.B.2): each step's real time
// increases by x while its clock time is preserved, so the clock offset
// decreases by x. Claim B.1: the result is again a timed view.
func ShiftView(v TimedView, x model.Time) TimedView {
	out := TimedView{
		Proc:        v.Proc,
		ClockOffset: v.ClockOffset - x,
		Rate:        v.Rate,
		Steps:       make([]Step, len(v.Steps)),
		End:         shiftHorizon(v.End, x),
	}
	for i, st := range v.Steps {
		out.Steps[i] = Step{RealTime: st.RealTime + x, Kind: st.Kind}
	}
	return out
}

func shiftHorizon(end model.Time, x model.Time) model.Time {
	if end == model.Infinity {
		return model.Infinity
	}
	return end + x
}

// Shift implements shift(R, ~x) (Chapter III.B.3): view i is shifted by
// x[i]; a message from i to j keeps its clock-observable content but its
// delay changes to delay - x[i] + x[j] (formula 4.1 with clock_shift =
// -x). Claim B.3: the result is a run, but not necessarily admissible.
func Shift(r Run, x []model.Time) (Run, error) {
	if len(x) != len(r.Views) {
		return Run{}, fmt.Errorf("runs: %d shift amounts for %d views", len(x), len(r.Views))
	}
	out := Run{Params: r.Params, Views: make([]TimedView, len(r.Views)), Msgs: make([]Message, len(r.Msgs)),
		LastResponse: r.LastResponse}
	for i, v := range r.Views {
		out.Views[i] = ShiftView(v, x[i])
	}
	for i, m := range r.Msgs {
		nm := m
		nm.SentAt = m.SentAt + x[m.From]
		if m.Received() {
			nm.RecvAt = m.RecvAt + x[m.To]
		}
		out.Msgs[i] = nm
	}
	return out, nil
}

// UniformDelays extracts the pairwise-uniform delay matrix of a run, or an
// error if two messages between the same ordered pair have different
// delays. def fills pairs with no message traffic.
func UniformDelays(r Run, def model.Time) ([][]model.Time, error) {
	n := len(r.Views)
	m := make([][]model.Time, n)
	seen := make([][]bool, n)
	for i := range m {
		m[i] = make([]model.Time, n)
		seen[i] = make([]bool, n)
		for j := range m[i] {
			m[i][j] = def
		}
	}
	for _, msg := range r.Msgs {
		if !msg.Received() {
			continue
		}
		d := msg.Delay()
		if seen[msg.From][msg.To] && m[msg.From][msg.To] != d {
			return nil, fmt.Errorf("runs: non-uniform delays %s and %s from %s to %s",
				m[msg.From][msg.To], d, msg.From, msg.To)
		}
		m[msg.From][msg.To] = d
		seen[msg.From][msg.To] = true
	}
	return m, nil
}

// ShortestPaths runs Floyd–Warshall over the complete directed graph whose
// edge (i, j) weighs delays[i][j] (Chapter IV.B.1's D_{j,k}).
func ShortestPaths(delays [][]model.Time) [][]model.Time {
	n := len(delays)
	dist := make([][]model.Time, n)
	for i := range dist {
		dist[i] = make([]model.Time, n)
		copy(dist[i], delays[i])
		dist[i][i] = 0
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if via := dist[i][k] + dist[k][j]; via < dist[i][j] {
					dist[i][j] = via
				}
			}
		}
	}
	return dist
}

// Chop implements chop(R, δ) from Lemma B.1 for a run with pairwise-uniform
// delays in which exactly the (from → to) delay is invalid. Let m be the
// first message from `from` to `to`, sent at t_s; then t* = t_s +
// min(d_{from,to}, δ), the recipient's view is cut just before t*, and
// every other view k is cut just before t* + D_{to,k} (shortest-path
// distance over the delay graph). The cut itself is Truncate's: messages
// received beyond a cut become unreceived, and messages sent beyond their
// sender's cut are dropped.
func Chop(r Run, delays [][]model.Time, from, to model.ProcessID, delta model.Time) (Run, error) {
	p := r.Params
	if !fault.AdmitsDelay(p, delta) {
		return Run{}, fmt.Errorf("runs: δ=%s outside [%s, %s]", delta, p.MinDelay(), p.D)
	}
	// Locate the first message from → to.
	var first *Message
	for i := range r.Msgs {
		m := &r.Msgs[i]
		if m.From == from && m.To == to {
			if first == nil || m.SentAt < first.SentAt {
				first = m
			}
		}
	}
	if first == nil {
		return Run{}, fmt.Errorf("runs: no message from %s to %s", from, to)
	}
	dInv := delays[from][to]
	tStar := first.SentAt + minTime(dInv, delta)
	dist := ShortestPaths(delays)

	cut := make([]model.Time, len(r.Views))
	for k := range r.Views {
		if model.ProcessID(k) == to {
			cut[k] = tStar
			continue
		}
		cut[k] = tStar + dist[to][k]
	}
	return Truncate(r, cut)
}

func minTime(a, b model.Time) model.Time {
	if a < b {
		return a
	}
	return b
}

// EndTimes returns each view's End, for assertions about where chops cut.
func EndTimes(r Run) []model.Time {
	out := make([]model.Time, len(r.Views))
	for i, v := range r.Views {
		out[i] = v.End
	}
	return out
}
