package clock

import (
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
)

// startSync is the timer payload that kicks off a process's broadcast.
type startSync struct{}

// SyncProcess runs one Lundelius–Lynch synchronization round inside the
// simulator, message by message: at a configured local clock time each
// process broadcasts its clock reading; on receipt the receiver estimates
// the sender's offset difference under the midpoint assumption
// (delay ≈ d - u/2); after hearing from everyone it adjusts its logical
// clock by the average estimate. The adjusted clocks are then within
// (1-1/n)·u of each other regardless of the adversary's delay choices —
// the ε Chapter V assumes.
//
// It implements sim.Process. Drive it by invoking the "sync" operation on
// every process at time zero; the operation responds with the process's
// computed adjustment.
type SyncProcess struct {
	params model.Params
	// StartClock is the local clock time at which this process broadcasts.
	startClock model.Time

	pendingOp  history.OpID
	hasPending bool
	estimates  []model.Time
	adjusted   bool
	adjustment model.Time
}

var _ sim.Process = (*SyncProcess)(nil)

// OpSync triggers the synchronization round on a process; it responds with
// the clock adjustment (a duration) once the round completes.
const OpSync spec.OpKind = "sync"

// NewSyncProcess builds one synchronization process. All processes should
// share the same startClock so broadcasts happen at a common logical time.
func NewSyncProcess(p model.Params, startClock model.Time) *SyncProcess {
	return &SyncProcess{params: p, startClock: startClock}
}

// Adjustment returns the computed clock adjustment and whether the round
// completed.
func (s *SyncProcess) Adjustment() (model.Time, bool) { return s.adjustment, s.adjusted }

// OnInvoke implements sim.Process.
func (s *SyncProcess) OnInvoke(env sim.Env, id history.OpID, kind spec.OpKind, _ spec.Value) {
	if kind != OpSync || s.hasPending {
		env.Respond(id, nil)
		return
	}
	s.pendingOp = id
	s.hasPending = true
	wait := s.startClock - env.ClockTime()
	if wait < 0 {
		wait = 0
	}
	env.SetTimerAfter(wait, startSync{})
	s.maybeFinish(env)
}

// OnTimer implements sim.Process.
func (s *SyncProcess) OnTimer(env sim.Env, payload any) {
	if _, ok := payload.(startSync); !ok {
		return
	}
	env.Broadcast(sim.Msg{Clock: env.ClockTime()}) // a reading: the clock at send time
	s.maybeFinish(env)
}

// OnMessage implements sim.Process: every message is a reading.
func (s *SyncProcess) OnMessage(env sim.Env, _ model.ProcessID, msg sim.Msg) {
	// The sender's clock showed msg.Clock when it sent; assuming the
	// midpoint delay d-u/2, the sender's clock now reads
	// msg.Clock + (d - u/2). The difference to our own clock estimates
	// (c_sender - c_self) with error at most ±u/2.
	est := msg.Clock + (s.params.D - s.params.U/2) - env.ClockTime()
	s.estimates = append(s.estimates, est)
	s.maybeFinish(env)
}

// maybeFinish completes the round once all n-1 readings have arrived.
func (s *SyncProcess) maybeFinish(env sim.Env) {
	if s.adjusted || !s.hasPending || len(s.estimates) < env.N()-1 {
		return
	}
	var sum model.Time
	for _, e := range s.estimates {
		sum += e
	}
	s.adjustment = sum / model.Time(env.N())
	s.adjusted = true
	env.Respond(s.pendingOp, s.adjustment)
	s.hasPending = false
}

// RunSyncRound wires n SyncProcesses through a simulator with the given
// true clock offsets and delay policy, runs the round, and returns the
// post-adjustment clock assignment (true offset + computed adjustment).
func RunSyncRound(p model.Params, initial Assignment, delay sim.DelayPolicy) (Assignment, error) {
	procs := make([]sim.Process, p.N)
	syncs := make([]*SyncProcess, p.N)
	// Broadcast at a logical start time every clock has reached: the
	// maximum initial offset plus one delay bound of slack.
	start := p.D
	for _, c := range initial {
		if c > 0 && c+p.D > start {
			start = c + p.D
		}
	}
	for i := range procs {
		syncs[i] = NewSyncProcess(p, start)
		procs[i] = syncs[i]
	}
	offsets := make([]model.Time, len(initial))
	copy(offsets, initial)
	// The simulator validates offsets against p.Epsilon; synchronization
	// must cope with arbitrary initial offsets, so lift the bound here.
	loose := p
	loose.Epsilon = model.Infinity / 4
	s, err := sim.New(sim.Config{Params: loose, ClockOffsets: offsets, Delay: delay, StrictDelays: true}, procs)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.N; i++ {
		s.Invoke(0, model.ProcessID(i), OpSync, nil)
	}
	if err := s.Run(model.Infinity); err != nil {
		return nil, err
	}
	out := make(Assignment, p.N)
	for i, sp := range syncs {
		adj, ok := sp.Adjustment()
		if !ok {
			return nil, errIncomplete(i)
		}
		out[i] = initial[i] + adj
	}
	return out, nil
}

type errIncomplete int

func (e errIncomplete) Error() string {
	return "clock: synchronization round incomplete at process " + model.ProcessID(e).String()
}
