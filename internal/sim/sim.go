package sim

import (
	"fmt"
	"slices"

	"timebounds/internal/fault"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/runs"
	"timebounds/internal/spec"
)

// Process is the state-machine interface implemented by shared-object
// implementations (Chapter III.B.1). The simulator calls exactly one
// handler per step; handlers interact with the world only through Env.
type Process interface {
	// OnInvoke delivers an operation invocation from the application layer.
	OnInvoke(env Env, id history.OpID, kind spec.OpKind, arg spec.Value)
	// OnMessage delivers a message from another process.
	OnMessage(env Env, from model.ProcessID, m Msg)
	// OnTimer fires a timer previously set via Env.SetTimer*.
	OnTimer(env Env, payload any)
}

// Msg is one message, carried by value from Env.Send through the event
// slab to Process.OnMessage, so sending allocates nothing. It is flat: a
// protocol names its message kinds with its own Tag constants and reads
// only the fields its kind uses. Arg is the one interface; it holds an
// operation argument the workload has already boxed, a return value, or a
// state.
type Msg struct {
	Tag    uint8
	Origin model.ProcessID
	Seq    int64
	Clock  model.Time
	Op     history.OpID
	Kind   spec.OpKind
	Arg    spec.Value
}

// Env is the narrow world interface handed to Process handlers during a
// step. Processes see only their local clock, never real time. An Env is
// valid only for the duration of the handler call it is passed to; the
// simulator reuses it between steps.
type Env interface {
	// Self returns the process's own id.
	Self() model.ProcessID
	// N returns the number of processes.
	N() int
	// ClockTime returns the local clock time of the current step.
	ClockTime() model.Time
	// Send transmits a message to another process (not to self).
	Send(to model.ProcessID, m Msg)
	// Broadcast transmits a message to every other process.
	Broadcast(m Msg)
	// SetTimerAfter schedules OnTimer(payload) after the given local-clock
	// duration and returns a handle for cancellation.
	SetTimerAfter(d model.Time, payload any) TimerID
	// CancelTimer cancels a pending timer; canceling an already-fired or
	// unknown timer is a no-op.
	CancelTimer(id TimerID)
	// Respond completes the operation with the given id and return value.
	Respond(id history.OpID, ret spec.Value)
	// Certify records the operation's certificate key (history.Cert): its
	// place in the order the process executes operations.
	Certify(id history.OpID, c history.Cert)
}

// TimerID is a cancellation handle for a pending timer.
type TimerID int64

type eventKind int

const (
	evInvoke eventKind = iota + 1
	evDeliver
	evTimer
	evCrash
	evRecover
	evRetire
	// evHold is an invocation whose operation Bind has not supplied.
	evHold
)

type event struct {
	at   model.Time // real time
	seq  int64      // tie-breaker: creation order
	kind eventKind
	proc model.ProcessID

	// msg is an evDeliver's message; an evInvoke keeps its operation in
	// msg.Kind and msg.Arg.
	msg Msg
	// evInvoke
	arrival model.Time // offered instant; < at for deferred invocations
	// evDeliver
	from model.ProcessID

	// evTimer
	timerID TimerID
	payload any
	// due is the exact local-clock deadline of a timer armed under clock
	// drift; during its dispatch ClockTime returns due verbatim, so clock
	// arithmetic chained across timers stays exact despite the nonlinear
	// clock map. hasDue gates it (zero is a valid deadline).
	due    model.Time
	hasDue bool
	// epoch is the arming process's restart epoch; a crash advances the
	// epoch, invalidating every timer armed before it.
	epoch int32
}

// qitem is one scheduled event in the heap: the (at, seq) ordering key —
// real time, then creation sequence, the simulator's deterministic
// dispatch order — held inline so heap maintenance never probes the slab,
// plus the event's slab index.
type qitem struct {
	at  model.Time
	seq int64
	ref int32
}

func (a qitem) less(b qitem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Config configures a Simulator.
type Config struct {
	// Params are the system timing parameters.
	Params model.Params
	// ClockOffsets holds each process's clock offset c_j (clock time = real
	// time + c_j, Chapter III.B.2). Nil means all zeros. Pairwise
	// differences must be bounded by Params.Epsilon.
	ClockOffsets []model.Time
	// Delay chooses message delays. Nil defaults to FixedDelay(Params.D).
	// Policies implementing StaticDelays are flattened into a per-pair
	// matrix once at construction, so per-message lookups are a slice index.
	Delay DelayPolicy
	// StrictDelays makes Run fail as soon as the admissibility judge
	// rejects a delay the policy emits (fault.AdmitsDelay). Without it the
	// run goes on and Model reports the delay as the broken assumption.
	StrictDelays bool
	// DiscardTraces skips recording the run's steps and messages, for runs
	// that will never be rendered or shifted (large measurement grids).
	// Trace then returns views without steps and no messages; the history
	// is always recorded.
	DiscardTraces bool
	// Faults is the run's fault injector, or nil for a fault-free run. It
	// must be freshly built (fault.NewInjector) for this run — injectors
	// carry per-run mutable state and are never shared.
	Faults *fault.Injector
	// Arena, when set and idle, lends the run its event storage; the
	// simulator hands it back on Recycle. Nil (or an Arena still lent to
	// another simulator) means fresh storage.
	Arena *Arena
}

// Simulator drives n processes through a single run.
//
// Events live in an index-addressed slab and are scheduled by
// (at, seq, slab-index) triples, so ordering compares and moves small
// pointer-free values — no slab probes, no GC write barriers — and
// dispatched slots are recycled through a free list, making the
// steady-state event loop allocation-free per event. Everything queued
// before the first Run (the schedule's invocations and holds, the fault
// plan's lifecycle events) is sorted once into a schedule read through a
// cursor; the heap holds only what the run itself pushes — messages,
// timers, deferred invocations, anything queued between phased Runs — so
// it stays as small as what is in flight. The heap is 4-ary: a shallower
// tree means fewer moves per pop.
type Simulator struct {
	cfg     Config
	procs   []Process
	events  []event // slab; grows only when the free list is empty
	freed   []int32 // recycled slab slots
	sched   []qitem // events queued before the first Run, sorted by it
	cur     int     // the cursor: sched[cur:] is still queued
	started bool    // Run has begun; pushes go to the heap
	queue   []qitem // 4-ary min-heap ordered by (at, seq)
	env     procEnv // reused Env; valid only during one handler call
	seq     int64
	msgSeq  int
	now     model.Time
	hist    *history.History
	msgs    []runs.Message
	steps   [][]runs.Step // per process
	trace   bool          // record steps/msgs (= !cfg.DiscardTraces)
	pending []bool        // per-process: has an operation in flight
	// deferred invocations waiting for the previous op of the process to
	// respond (the application layer invokes back-to-back, Chapter III.A).
	deferred []deferQueue
	// timerLive[id] reports whether timer id is pending (armed, un-fired,
	// un-canceled). Ids are dense, so a flat slice beats a map on the
	// timer-heavy hot path; one byte per timer ever armed.
	timerLive []bool
	nextTID   TimerID
	// delayMat is the flattened n×n delay matrix when cfg.Delay is static
	// (FixedDelay, MatrixDelay): delayMat[from*n+to]. Nil for dynamic
	// policies, which go through the DelayPolicy interface per message.
	delayMat []model.Time
	// facts is the admissibility monitor: what the run's messages did so
	// far, for Model to judge. responded is the real time of the latest
	// response, the instant Model takes clock skew at.
	facts     fault.Facts
	responded model.Time
	// flt is cfg.Faults; nil on the fault-free fast path. epoch holds each
	// process's restart epoch (crashes invalidate earlier timers); rates
	// holds per-process clock drift in ppm, nil when no clock drifts.
	flt   *fault.Injector
	epoch []int32
	rates []int64
	err   error
	// arena is the Arena the event storage was borrowed from, until
	// Recycle returns it; nil for fresh storage.
	arena *Arena
}

type deferredInvoke struct {
	kind spec.OpKind
	arg  spec.Value
	// arrival is the instant the invocation was originally offered, kept
	// so the history can record queueing wait (Record.Sojourn).
	arrival model.Time
}

// deferQueue is one process's FIFO of deferred invocations, items[head:].
// Popping advances the head index instead of reslicing the front off and
// zeroes the popped slot, so no argument outlives its invocation; a
// drained queue rewinds onto its own backing array, so an open-loop burst
// reuses one buffer — the shape of tob's enqueue buffer.
type deferQueue struct {
	items []deferredInvoke
	head  int
}

func (q *deferQueue) len() int { return len(q.items) - q.head }

func (q *deferQueue) pop() deferredInvoke {
	d := q.items[q.head]
	q.items[q.head] = deferredInvoke{}
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return d
}

// drop discards every queued invocation.
func (q *deferQueue) drop() {
	clear(q.items)
	q.items, q.head = q.items[:0], 0
}

// New creates a simulator for the given processes. len(procs) must equal
// cfg.Params.N.
func New(cfg Config, procs []Process) (*Simulator, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if len(procs) != cfg.Params.N {
		return nil, fmt.Errorf("sim: %d processes for N=%d", len(procs), cfg.Params.N)
	}
	if cfg.ClockOffsets == nil {
		cfg.ClockOffsets = make([]model.Time, cfg.Params.N)
	}
	if len(cfg.ClockOffsets) != cfg.Params.N {
		return nil, fmt.Errorf("sim: %d clock offsets for N=%d", len(cfg.ClockOffsets), cfg.Params.N)
	}
	if skew := fault.WorstSkew(cfg.ClockOffsets, nil, 0); !fault.AdmitsSkew(cfg.Params.Epsilon, skew) {
		return nil, fmt.Errorf("sim: clock skew %s exceeds ε=%s", skew, cfg.Params.Epsilon)
	}
	if cfg.Delay == nil {
		cfg.Delay = FixedDelay(cfg.Params.D)
	}
	s := &Simulator{
		cfg:   cfg,
		procs: procs,
		hist:  history.New(),
		trace: !cfg.DiscardTraces,
	}
	s.env.sim = s
	if s.trace {
		s.steps = make([][]runs.Step, cfg.Params.N)
	}
	if sd, ok := cfg.Delay.(StaticDelays); ok {
		if mat, ok := sd.DelayMatrix(cfg.Params.N); ok && len(mat) == cfg.Params.N*cfg.Params.N {
			s.delayMat = mat
		}
	}
	in := cfg.Faults
	if in != nil && in.N() != cfg.Params.N {
		return nil, faultMismatch(in.N(), cfg.Params.N)
	}
	// Borrow only once nothing can fail, so an error never strands the
	// arena lent to a simulator nobody will recycle.
	cfg.Arena.lendTo(s)
	// Idle storage is all zero: no process pending, no invocation deferred.
	s.pending = slices.Grow(s.pending, cfg.Params.N)[:cfg.Params.N]
	s.deferred = slices.Grow(s.deferred, cfg.Params.N)[:cfg.Params.N]
	if in != nil {
		s.flt = in
		s.rates = in.Rates()
		s.epoch = make([]int32, cfg.Params.N)
		s.scheduleFaults()
	}
	return s, nil
}

// Params returns the simulator's timing parameters.
func (s *Simulator) Params() model.Params { return s.cfg.Params }

// History returns the history recorded so far.
func (s *Simulator) History() *history.History { return s.hist }

// Trace returns the run recorded so far (Chapter III.B.3): one complete
// timed view per process, with its clock's offset and drift rate, and the
// messages exchanged. Its slices are copies the caller owns. Without
// traces (Config.DiscardTraces) the views hold no steps and the run no
// messages.
func (s *Simulator) Trace() runs.Run {
	p := s.cfg.Params
	views := make([]runs.TimedView, p.N)
	for i := range views {
		v := runs.TimedView{Proc: model.ProcessID(i), ClockOffset: s.cfg.ClockOffsets[i], End: model.Infinity}
		if s.rates != nil {
			v.Rate = s.rates[i]
		}
		if s.trace {
			v.Steps = slices.Clone(s.steps[i])
		}
		views[i] = v
	}
	return runs.Run{Params: p, Views: views, Msgs: slices.Clone(s.msgs), LastResponse: s.responded}
}

// LastResponse returns the real time of the run's latest response.
func (s *Simulator) LastResponse() model.Time { return s.responded }

// Model judges the run so far by the admissibility conditions of Chapter
// III.B.3 (fault.Judge). Views never end in a simulated run, so every
// message the fault injector dropped is unreceived and unexcused; clock
// skew is taken at the latest response — drift only matters while an
// operation can still feel it.
func (s *Simulator) Model() fault.Admissibility {
	f := s.facts
	if s.flt != nil {
		f.Unreceived, f.Duplicates = s.flt.Undelivered()
	}
	f.Skew = fault.WorstSkew(s.cfg.ClockOffsets, s.rates, s.responded)
	return fault.Judge(s.cfg.Params, f)
}

// Reserve presizes the run's hot allocations for a schedule of about ops
// invocations: the history's record slab, the event slab (one slot per
// queued invocation; message and timer events recycle through the free
// list on top of the same slab) and the schedule the cursor reads.
// Harnesses that know the schedule size up front (workload.Run) call this
// once so the event loop reaches its allocation-free steady state
// immediately instead of growing through the run. On storage borrowed
// from a warm Arena the slab and schedule already have the capacity, so
// only the history grows.
func (s *Simulator) Reserve(ops int) {
	if ops <= 0 {
		return
	}
	s.hist.Grow(ops)
	s.events = slices.Grow(s.events, ops)
	s.sched = slices.Grow(s.sched, ops)
}

// alloc reserves a slab slot for a new event.
func (s *Simulator) alloc() int32 {
	if n := len(s.freed); n > 0 {
		ref := s.freed[n-1]
		s.freed = s.freed[:n-1]
		return ref
	}
	s.events = append(s.events, event{})
	return int32(len(s.events) - 1)
}

// release zeroes a drained slot and recycles it.
func (s *Simulator) release(ref int32) {
	s.events[ref] = event{}
	s.freed = append(s.freed, ref)
}

// push stamps the event's creation sequence and enqueues its slot: on the
// schedule before the first Run, on the heap after.
//
//tb:hotpath
func (s *Simulator) push(ref int32) {
	seq := s.seq
	s.seq++
	s.events[ref].seq = seq
	it := qitem{at: s.events[ref].at, seq: seq, ref: ref}
	if !s.started {
		s.sched = append(s.sched, it)
		return
	}
	q := append(s.queue, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q[i].less(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	s.queue = q
}

// pop removes and returns the earliest queued slot.
//
//tb:hotpath
func (s *Simulator) pop() int32 {
	q := s.queue
	n := len(q) - 1
	top := q[0].ref
	q[0] = q[n]
	q = q[:n]
	s.queue = q
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q[c].less(q[least]) {
				least = c
			}
		}
		if !q[least].less(q[i]) {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	return top
}

// start orders the schedule by (at, seq) at the first Run. A schedule
// arrives as a few ascending runs — one per process — so rather than sort
// from scratch, start merges adjacent runs pairwise until one is left,
// passing back and forth between the schedule and the heap's storage,
// which nothing has used yet.
func (s *Simulator) start() {
	if s.started {
		return
	}
	s.started = true
	src, dst := s.sched, s.queue[:0]
	for runEnd(src, 0) < len(src) {
		dst = slices.Grow(dst, len(src))[:len(src)]
		for lo := 0; lo < len(src); {
			mid := runEnd(src, lo)
			hi := runEnd(src, mid)
			merge(dst[lo:hi], src[lo:mid], src[mid:hi])
			lo = hi
		}
		src, dst = dst, src[:0]
	}
	s.sched, s.queue = src, dst
}

// runEnd returns the end of the ascending run of q that starts at lo.
func runEnd(q []qitem, lo int) int {
	hi := min(lo+1, len(q))
	for hi < len(q) && q[hi-1].less(q[hi]) {
		hi++
	}
	return hi
}

// merge fills dst with the ascending runs a and b, merged.
func merge(dst, a, b []qitem) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || i < len(a) && a[i].less(b[j]) {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// next reports the earliest queued event under less — the cursor's head
// or the heap's top — and whether it is the cursor's; ok is false when
// nothing is queued.
//
//tb:hotpath
func (s *Simulator) next() (it qitem, cursor, ok bool) {
	if s.cur < len(s.sched) {
		it = s.sched[s.cur]
		if len(s.queue) == 0 || it.less(s.queue[0]) {
			return it, true, true
		}
	}
	if len(s.queue) == 0 {
		return it, false, false
	}
	return s.queue[0], false, true
}

// take removes the event next reported and returns its slot.
//
//tb:hotpath
func (s *Simulator) take(cursor bool) int32 {
	if cursor {
		s.cur++
		return s.sched[s.cur-1].ref
	}
	return s.pop()
}

// Invoke schedules an operation invocation at the given real time. If the
// process still has a pending operation at that time, the invocation is
// deferred until immediately after the pending operation responds,
// preserving the one-pending-operation-per-process rule (Chapter III.A).
func (s *Simulator) Invoke(at model.Time, proc model.ProcessID, kind spec.OpKind, arg spec.Value) {
	ref := s.alloc()
	e := &s.events[ref]
	e.at, e.kind, e.proc = at, evInvoke, proc
	e.msg.Kind, e.msg.Arg, e.arrival = kind, arg, at
	s.push(ref)
}

// Held is an invocation queued by Hold, for Bind to supply.
type Held struct {
	ref int32
	seq int64
}

// Hold queues an invocation on proc at real time at whose operation is
// supplied later by Bind. It takes its place in the event order now,
// exactly as Invoke would, so binding it cannot reorder the run; a hold
// that comes due unbound dispatches as nothing and leaves no record.
func (s *Simulator) Hold(at model.Time, proc model.ProcessID) Held {
	ref := s.alloc()
	e := &s.events[ref]
	e.at, e.kind, e.proc, e.arrival = at, evHold, proc, at
	s.push(ref)
	return Held{ref: ref, seq: e.seq}
}

// Bind supplies the operation of a held invocation. It reports false, and
// does nothing, once the hold has come due.
func (s *Simulator) Bind(h Held, kind spec.OpKind, arg spec.Value) bool {
	if int(h.ref) >= len(s.events) || s.events[h.ref].seq != h.seq || s.events[h.ref].kind != evHold {
		return false
	}
	e := &s.events[h.ref]
	e.kind, e.msg.Kind, e.msg.Arg = evInvoke, kind, arg
	return true
}

// Run processes events until the queue drains (quiescence) or the horizon
// is reached. It returns the first configuration error encountered.
//
// Each step takes the earliest event — the lesser (at, seq) head of the
// schedule cursor and the heap, so equal timestamps dispatch in creation
// order — dispatches it and recycles its slot. Events beyond the horizon
// stay queued.
//
//tb:hotpath
func (s *Simulator) Run(horizon model.Time) error {
	s.start()
	for {
		it, cursor, ok := s.next()
		if !ok {
			return s.err
		}
		t := it.at
		if t > horizon {
			return s.err
		}
		if t < s.now {
			return s.timeRegression(t)
		}
		s.now = t
		ref := s.take(cursor)
		s.dispatch(ref)
		s.release(ref)
		if s.err != nil {
			return s.err
		}
	}
}

// timeRegression builds the monotonicity-violation error. It lives
// outside the event loop so the //tb:hotpath functions stay free of fmt.
func (s *Simulator) timeRegression(t model.Time) error {
	return fmt.Errorf("sim: time went backwards: %s < %s", t, s.now)
}

// dispatch runs the handler for the event in slot ref. The needed fields
// are copied to locals before the handler runs — handlers push events,
// which may grow the slab and move the slot. The caller releases the slot
// afterwards.
//
//tb:hotpath
func (s *Simulator) dispatch(ref int32) {
	e := &s.events[ref]
	proc, at := e.proc, e.at
	env := &s.env
	env.proc, env.real = proc, at
	switch e.kind {
	case evInvoke:
		if s.flt != nil && s.flt.Unavailable(proc) {
			// A down process's application layer is down with it: the
			// invocation is never issued and never becomes a record.
			s.flt.NoteStrandedInvoke()
			return
		}
		opKind, opArg, arrival := e.msg.Kind, e.msg.Arg, e.arrival
		if s.pending[proc] {
			// Defer until the current operation responds, remembering the
			// offered instant so the history keeps the queueing wait.
			q := &s.deferred[proc]
			q.items = append(q.items, deferredInvoke{kind: opKind, arg: opArg, arrival: arrival})
			return
		}
		s.pending[proc] = true
		id := s.hist.InvokeArrived(proc, opKind, opArg, at, arrival)
		s.record(proc, at, "invoke")
		s.procs[proc].OnInvoke(env, id, opKind, opArg)
	case evDeliver:
		if s.flt != nil && s.flt.Unavailable(proc) {
			s.flt.NoteDroppedToDown()
			if s.trace {
				s.traceDropped(e.from, proc, at)
			}
			return
		}
		from, m := e.from, e.msg
		s.record(proc, at, "deliver")
		s.procs[proc].OnMessage(env, from, m)
	case evTimer:
		tid, payload := e.timerID, e.payload
		if !s.timerLive[tid] {
			return // canceled
		}
		if s.flt != nil && e.epoch != s.epoch[proc] {
			// Armed before a crash: the restart epoch moved on.
			s.timerLive[tid] = false
			s.flt.NoteTimerDropped()
			return
		}
		s.timerLive[tid] = false
		s.record(proc, at, "timer")
		if e.hasDue {
			env.due, env.hasDue = e.due, true
			s.procs[proc].OnTimer(env, payload)
			env.hasDue = false
			return
		}
		s.procs[proc].OnTimer(env, payload)
	case evCrash:
		s.applyCrash(proc, at, false)
	case evRecover:
		s.applyRecover(env, proc, at)
	case evRetire:
		s.applyCrash(proc, at, true)
	}
}

func (s *Simulator) record(p model.ProcessID, real model.Time, kind string) {
	if !s.trace {
		return
	}
	s.steps[p] = append(s.steps[p], runs.Step{RealTime: real, Kind: kind})
}

// procEnv implements Env for one step of one process. The simulator owns
// a single instance and re-points it at each dispatched step.
type procEnv struct {
	sim  *Simulator
	proc model.ProcessID
	real model.Time
	// due/hasDue carry the exact local-clock deadline of the timer being
	// dispatched, under clock drift (see event.due).
	due    model.Time
	hasDue bool
}

var _ Env = (*procEnv)(nil)

func (e *procEnv) Self() model.ProcessID { return e.proc }
func (e *procEnv) N() int                { return e.sim.cfg.Params.N }

func (e *procEnv) ClockTime() model.Time {
	if e.hasDue {
		return e.due
	}
	s := e.sim
	if s.rates != nil {
		if r := s.rates[e.proc]; r != 0 {
			return fault.ClockAt(e.real, s.cfg.ClockOffsets[e.proc], r)
		}
	}
	return e.real + s.cfg.ClockOffsets[e.proc]
}

// Send is on the per-message hot path; its error cases are delegated to
// cold helpers so the function body stays fmt-free.
//
//tb:hotpath
func (e *procEnv) Send(to model.ProcessID, m Msg) {
	s := e.sim
	if to == e.proc {
		s.err = e.selfSendError()
		return
	}
	seq := s.msgSeq
	s.msgSeq++
	var delay model.Time
	if s.delayMat != nil {
		delay = s.delayMat[int(e.proc)*s.cfg.Params.N+int(to)]
	} else {
		delay = s.cfg.Delay.Delay(e.proc, to, e.real, seq)
	}
	if s.cfg.StrictDelays && !fault.AdmitsDelay(s.cfg.Params, delay) {
		s.err = e.rejectDelay(seq, to, delay)
		return
	}
	if s.flt != nil {
		copies, spacing := s.flt.Deliveries(e.proc, to, e.real)
		if copies == 0 {
			e.traceLost(seq, to)
			return
		}
		if copies > 1 {
			s.facts.Receive(delay)
			e.deliverCopies(seq, to, m, delay, spacing, copies)
			return
		}
	}
	s.facts.Receive(delay)
	recv := e.real + delay
	if s.trace {
		s.msgs = append(s.msgs, runs.Message{Seq: seq, From: e.proc, To: to, SentAt: e.real, RecvAt: recv})
	}
	ref := s.alloc()
	ev := &s.events[ref]
	ev.at, ev.kind, ev.proc = recv, evDeliver, to
	ev.from, ev.msg = e.proc, m
	s.push(ref)
}

// selfSendError builds the self-send configuration error, off the Send
// hot path.
func (e *procEnv) selfSendError() error {
	return fmt.Errorf("sim: %s attempted to send to itself", e.proc)
}

// rejectDelay records the delay the judge rejected, so Model names it, and
// builds the run's error, off the Send hot path.
func (e *procEnv) rejectDelay(seq int, to model.ProcessID, delay model.Time) error {
	p := e.sim.cfg.Params
	e.sim.facts.Receive(delay)
	return fmt.Errorf("sim: message %d %s→%s: delay %s outside admissible range [%s, %s]",
		seq, e.proc, to, delay, p.MinDelay(), p.D)
}

func (e *procEnv) Broadcast(m Msg) {
	for p := 0; p < e.sim.cfg.Params.N; p++ {
		if model.ProcessID(p) != e.proc {
			e.Send(model.ProcessID(p), m)
		}
	}
}

func (e *procEnv) SetTimerAfter(d model.Time, payload any) TimerID {
	if d < 0 {
		d = 0
	}
	s := e.sim
	id := s.nextTID
	s.nextTID++
	s.timerLive = append(s.timerLive, true)
	ref := s.alloc()
	ev := &s.events[ref]
	at := e.real + d
	if s.rates != nil {
		if r := s.rates[e.proc]; r != 0 {
			// A drifting clock reads ClockTime()+d at real time
			// ClockInverse(due); storing due makes the deadline exact at
			// dispatch even though the clock map truncates.
			due := e.ClockTime() + d
			at = fault.ClockInverse(due, s.cfg.ClockOffsets[e.proc], r)
			if at < e.real {
				at = e.real
			}
			ev.due, ev.hasDue = due, true
		}
	}
	if s.epoch != nil {
		ev.epoch = s.epoch[e.proc]
	}
	ev.at, ev.kind, ev.proc = at, evTimer, e.proc
	ev.timerID, ev.payload = id, payload
	s.push(ref)
	return id
}

func (e *procEnv) CancelTimer(id TimerID) {
	if id >= 0 && int64(id) < int64(len(e.sim.timerLive)) {
		e.sim.timerLive[id] = false
	}
}

func (e *procEnv) Certify(id history.OpID, c history.Cert) { e.sim.hist.Certify(id, c) }

func (e *procEnv) Respond(id history.OpID, ret spec.Value) {
	if e.sim.flt != nil && e.sim.hist.Completed(id) {
		// Under fault injection a duplicated message can re-trigger the
		// response path for an operation the client already saw answered
		// (the at-most-once assumption is exactly what the dup fault
		// breaks). The client keeps the first response and drops the
		// copy; the injector's stats already account for the duplicate.
		return
	}
	if err := e.sim.hist.Respond(id, ret, e.real); err != nil {
		e.sim.err = err
		return
	}
	s := e.sim
	s.responded = e.real
	p := e.proc
	s.pending[p] = false
	if q := &s.deferred[p]; q.len() > 0 {
		next := q.pop()
		// Invoke immediately after the response, as the paper's
		// back-to-back operation sequences do. "After" is strict in the
		// continuous-time model (Chapter III.B.2: increasing clock times),
		// so the deferred invocation lands one tick later.
		ref := s.alloc()
		ev := &s.events[ref]
		ev.at, ev.kind, ev.proc = e.real+1, evInvoke, p
		ev.msg.Kind, ev.msg.Arg, ev.arrival = next.kind, next.arg, next.arrival
		s.push(ref)
	}
}
