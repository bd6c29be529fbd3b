// Package tracefmt renders recorded runs as space-time diagrams — the
// textual analogue of the paper's figures (one horizontal lane per process,
// operations as bracketed intervals, messages as send/receive markers) —
// and serializes runs to JSON for external tooling.
package tracefmt

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/runs"
)

// Diagram renders a space-time diagram of a run plus its operation
// history. Each process occupies one lane; time flows left to right.
// Operation intervals appear as [===]; message sends as digits and their
// receives as the matching digit on the recipient lane (modulo 10).
// The rendered real-time window ends at the run's latest event.
type Diagram struct {
	// Width is the number of character columns (default 100).
	Width int
}

// Render draws the diagram. ops may be nil to draw only messages.
func (d Diagram) Render(r runs.Run, ops []history.Record) string {
	width := d.Width
	if width <= 0 {
		width = 100
	}
	horizon := latestEvent(r, ops)
	if horizon <= 0 {
		horizon = 1
	}
	col := func(t model.Time) int {
		c := int(int64(t) * int64(width-1) / int64(horizon))
		if c < 0 {
			c = 0
		}
		if c >= width {
			c = width - 1
		}
		return c
	}

	lanes := make([][]byte, len(r.Views))
	for i := range lanes {
		lanes[i] = []byte(strings.Repeat(".", width))
	}
	for _, op := range ops {
		lane := lanes[op.Proc]
		start := col(op.Invoke)
		end := start
		if !op.Pending {
			end = col(op.Respond)
		}
		if end <= start {
			end = start + 1
		}
		if end >= width {
			end = width - 1
		}
		lane[start] = '['
		for c := start + 1; c < end; c++ {
			lane[c] = '='
		}
		lane[end] = ']'
	}
	for _, m := range r.Msgs {
		marker := byte('0' + m.Seq%10)
		setIfFree(lanes[m.From], col(m.SentAt), marker)
		if m.Received() {
			setIfFree(lanes[m.To], col(m.RecvAt), marker)
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "time: 0 … %s (1 col ≈ %s)\n", horizon, horizon/model.Time(width))
	for i, lane := range lanes {
		fmt.Fprintf(&sb, "%-4s |%s|\n", model.ProcessID(i), lane)
	}
	if len(ops) > 0 {
		sb.WriteString("ops:\n")
		sorted := append([]history.Record(nil), ops...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Invoke < sorted[j].Invoke })
		for _, op := range sorted {
			fmt.Fprintf(&sb, "  %s\n", op)
		}
	}
	return sb.String()
}

// setIfFree writes a message marker into a lane cell unless an operation
// bracket already occupies it (brackets take visual priority).
func setIfFree(lane []byte, c int, marker byte) {
	if c < 0 || c >= len(lane) {
		return
	}
	if lane[c] == '.' || lane[c] == '=' {
		lane[c] = marker
	}
}

func latestEvent(r runs.Run, ops []history.Record) model.Time {
	var latest model.Time
	for _, v := range r.Views {
		for _, st := range v.Steps {
			if st.RealTime > latest {
				latest = st.RealTime
			}
		}
	}
	for _, m := range r.Msgs {
		if m.Received() && m.RecvAt > latest {
			latest = m.RecvAt
		}
	}
	for _, op := range ops {
		if !op.Pending && op.Respond > latest {
			latest = op.Respond
		}
	}
	return latest
}

// JSON-serializable mirror types; durations are integer nanoseconds with
// the unit in the field name (the time package's JSON guidance).

// RunJSON is the JSON form of a run.
type RunJSON struct {
	NumProcesses int   `json:"numProcesses"`
	DNanos       int64 `json:"dNanos"`
	UNanos       int64 `json:"uNanos"`
	EpsilonNanos int64 `json:"epsilonNanos"`
	// LastResponseNanos is the run's latest response, the instant
	// runs.Admissible takes drifting clocks' skew at; it is written only
	// when some view drifts, since drift-free clocks keep one skew.
	LastResponseNanos int64         `json:"lastResponseNanos,omitempty"`
	Views             []ViewJSON    `json:"views"`
	Messages          []MessageJSON `json:"messages"`
}

// ViewJSON is the JSON form of a timed view.
type ViewJSON struct {
	Proc             int   `json:"proc"`
	ClockOffsetNanos int64 `json:"clockOffsetNanos"`
	// RatePPM is the clock's drift rate; omitted for a drift-free clock.
	RatePPM  int64      `json:"ratePPM,omitempty"`
	EndNanos *int64     `json:"endNanos,omitempty"` // nil = infinite
	Steps    []StepJSON `json:"steps"`
}

// StepJSON is the JSON form of one step.
type StepJSON struct {
	RealTimeNanos int64  `json:"realTimeNanos"`
	Kind          string `json:"kind"`
}

// MessageJSON is the JSON form of one message.
type MessageJSON struct {
	Seq         int    `json:"seq"`
	From        int    `json:"from"`
	To          int    `json:"to"`
	SentAtNanos int64  `json:"sentAtNanos"`
	RecvAtNanos *int64 `json:"recvAtNanos,omitempty"` // nil = not received
	// Dup marks an extra receipt a duplication fault added.
	Dup bool `json:"dup,omitempty"`
}

// MarshalRun serializes a run to JSON.
func MarshalRun(r runs.Run) ([]byte, error) {
	out := RunJSON{
		NumProcesses: r.Params.N,
		DNanos:       int64(r.Params.D),
		UNanos:       int64(r.Params.U),
		EpsilonNanos: int64(r.Params.Epsilon),
	}
	for _, v := range r.Views {
		vj := ViewJSON{Proc: int(v.Proc), ClockOffsetNanos: int64(v.ClockOffset), RatePPM: v.Rate}
		if v.Rate != 0 {
			out.LastResponseNanos = int64(r.LastResponse)
		}
		if v.End != model.Infinity {
			end := int64(v.End)
			vj.EndNanos = &end
		}
		for _, st := range v.Steps {
			vj.Steps = append(vj.Steps, StepJSON{RealTimeNanos: int64(st.RealTime), Kind: st.Kind})
		}
		out.Views = append(out.Views, vj)
	}
	for _, m := range r.Msgs {
		mj := MessageJSON{Seq: m.Seq, From: int(m.From), To: int(m.To), SentAtNanos: int64(m.SentAt), Dup: m.Dup}
		if m.Received() {
			recv := int64(m.RecvAt)
			mj.RecvAtNanos = &recv
		}
		out.Messages = append(out.Messages, mj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalRun reconstructs a run from its JSON form.
func UnmarshalRun(data []byte) (runs.Run, error) {
	var in RunJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return runs.Run{}, err
	}
	out := runs.Run{
		Params: model.Params{
			N:       in.NumProcesses,
			D:       model.Time(in.DNanos),
			U:       model.Time(in.UNanos),
			Epsilon: model.Time(in.EpsilonNanos),
		},
		LastResponse: model.Time(in.LastResponseNanos),
	}
	for _, vj := range in.Views {
		v := runs.TimedView{
			Proc:        model.ProcessID(vj.Proc),
			ClockOffset: model.Time(vj.ClockOffsetNanos),
			Rate:        vj.RatePPM,
			End:         model.Infinity,
		}
		if vj.EndNanos != nil {
			v.End = model.Time(*vj.EndNanos)
		}
		for _, st := range vj.Steps {
			v.Steps = append(v.Steps, runs.Step{RealTime: model.Time(st.RealTimeNanos), Kind: st.Kind})
		}
		out.Views = append(out.Views, v)
	}
	for _, mj := range in.Messages {
		m := runs.Message{
			Seq: mj.Seq, From: model.ProcessID(mj.From), To: model.ProcessID(mj.To),
			SentAt: model.Time(mj.SentAtNanos), RecvAt: model.Infinity, Dup: mj.Dup,
		}
		if mj.RecvAtNanos != nil {
			m.RecvAt = model.Time(*mj.RecvAtNanos)
		}
		out.Msgs = append(out.Msgs, m)
	}
	return out, nil
}
