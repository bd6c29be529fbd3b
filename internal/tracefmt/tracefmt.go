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

// width is a diagram's number of character columns.
const width = 100

// Diagram renders a space-time diagram of a run plus its operation
// history; ops may be nil to draw only messages. Each process occupies one
// lane; time flows left to right. Operation intervals appear as [===];
// message sends as digits and their receives as the matching digit on the
// recipient lane (modulo 10). The rendered real-time window ends at the
// run's latest event.
func Diagram(r runs.Run, ops []history.Record) string {
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

// The JSON wire form of a run; durations are integer nanoseconds with the
// unit in the field name (the time package's JSON guidance). Steps are
// written by runs.Step's own tags.
type runJSON struct {
	NumProcesses int   `json:"numProcesses"`
	DNanos       int64 `json:"dNanos"`
	UNanos       int64 `json:"uNanos"`
	EpsilonNanos int64 `json:"epsilonNanos"`
	// LastResponseNanos is the run's latest response, the instant
	// runs.Admissible takes drifting clocks' skew at; it is written only
	// when some view drifts, since drift-free clocks keep one skew.
	LastResponseNanos int64         `json:"lastResponseNanos,omitempty"`
	Views             []viewJSON    `json:"views"`
	Messages          []messageJSON `json:"messages"`
}

type viewJSON struct {
	Proc             int         `json:"proc"`
	ClockOffsetNanos int64       `json:"clockOffsetNanos"`
	RatePPM          int64       `json:"ratePPM,omitempty"`
	EndNanos         *int64      `json:"endNanos,omitempty"` // nil = infinite
	Steps            []runs.Step `json:"steps"`
}

type messageJSON struct {
	Seq         int    `json:"seq"`
	From        int    `json:"from"`
	To          int    `json:"to"`
	SentAtNanos int64  `json:"sentAtNanos"`
	RecvAtNanos *int64 `json:"recvAtNanos,omitempty"` // nil = not received
	Dup         bool   `json:"dup,omitempty"`
}

// finite maps model.Infinity to nil and any other time to its nanoseconds.
func finite(t model.Time) *int64 {
	if t == model.Infinity {
		return nil
	}
	ns := int64(t)
	return &ns
}

// orInfinity is finite's inverse.
func orInfinity(ns *int64) model.Time {
	if ns == nil {
		return model.Infinity
	}
	return model.Time(*ns)
}

// MarshalRun serializes a run to JSON.
func MarshalRun(r runs.Run) ([]byte, error) {
	out := runJSON{
		NumProcesses: r.Params.N,
		DNanos:       int64(r.Params.D),
		UNanos:       int64(r.Params.U),
		EpsilonNanos: int64(r.Params.Epsilon),
	}
	for _, v := range r.Views {
		if v.Rate != 0 {
			out.LastResponseNanos = int64(r.LastResponse)
		}
		steps := v.Steps
		if len(steps) == 0 {
			steps = nil // a view without steps writes "steps": null, empty or not
		}
		out.Views = append(out.Views, viewJSON{
			Proc: int(v.Proc), ClockOffsetNanos: int64(v.ClockOffset), RatePPM: v.Rate,
			EndNanos: finite(v.End), Steps: steps,
		})
	}
	for _, m := range r.Msgs {
		out.Messages = append(out.Messages, messageJSON{
			Seq: m.Seq, From: int(m.From), To: int(m.To), SentAtNanos: int64(m.SentAt),
			RecvAtNanos: finite(m.RecvAt), Dup: m.Dup,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalRun reconstructs a run from its JSON form.
func UnmarshalRun(data []byte) (runs.Run, error) {
	var in runJSON
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
		out.Views = append(out.Views, runs.TimedView{
			Proc:        model.ProcessID(vj.Proc),
			ClockOffset: model.Time(vj.ClockOffsetNanos),
			Rate:        vj.RatePPM,
			Steps:       vj.Steps,
			End:         orInfinity(vj.EndNanos),
		})
	}
	for _, mj := range in.Messages {
		out.Msgs = append(out.Msgs, runs.Message{
			Seq: mj.Seq, From: model.ProcessID(mj.From), To: model.ProcessID(mj.To),
			SentAt: model.Time(mj.SentAtNanos), RecvAt: orInfinity(mj.RecvAtNanos), Dup: mj.Dup,
		})
	}
	return out, nil
}
