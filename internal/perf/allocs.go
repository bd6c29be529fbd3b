// Package perf holds the repository's allocation budgets and the micro
// benchmarks no workload of the repository benchmark (BENCHMARK.json,
// benchmark/) covers.
//
// Each budget pins the steady-state allocs-per-unit of one hot path,
// measured with testing.AllocsPerRun after an explicit warmup. The
// budgets are absolute and local — "this loop, once warm, allocates at
// most N times" — so a leak pinpoints its package instead of surfacing as
// a diffuse grid-wide regression in the benchmark's allocs_per_op.
// TestAllocBudgets gates them in the ordinary test suite; the micro
// benchmarks live in perf_test.go.
package perf

import (
	"context"
	"math/rand"
	"strconv"
	"time"

	"timebounds/internal/baseline"
	"timebounds/internal/check"
	"timebounds/internal/core"
	"timebounds/internal/engine"
	"timebounds/internal/history"
	"timebounds/internal/keyspace"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/tob"
	"timebounds/internal/types"
	"timebounds/internal/workload"
)

// AllocBudget is one steady-state allocation budget.
type AllocBudget struct {
	// Name is "<package>/<path>" — the package whose hot path is gated.
	Name string
	// Brief says what one measured unit of work is.
	Brief string
	// Budget is the maximum average allocations per unit.
	Budget float64
	// Make performs setup and warmup, returning the unit of work to
	// measure. Setup allocations are not counted.
	Make func() func()
}

// AllocBudgets returns the per-package steady-state budgets.
func AllocBudgets() []AllocBudget {
	return []AllocBudget{
		{
			Name:  "check/steady-recheck",
			Brief: "re-verify a 16-op bursty history with a reused arena and warm shared cache",
			// The one allocation is the witness slice handed back in the
			// Result — the only per-check state the caller keeps.
			Budget: 1,
			Make:   makeCheckSteady,
		},
		{
			Name:  "check/dict-cold",
			Brief: "check a 64-op bursty dict history with a reused arena and a fresh shared cache",
			// Every transition is computed, so this counts what each one
			// costs: the dict's map clone and the cache entry's key, plus
			// the fmt rendering of each put's KV transition-key suffix.
			// The state identity is a fingerprint and allocates nothing:
			// 141 measured (155–157 under -race, whose sync.Pool drops
			// fmt's printers), where rendering EncodeState on every
			// transition costs about 1 900.
			Budget: 160,
			Make:   makeCheckDictCold,
		},
		{
			Name:  "check/certified-dict",
			Brief: "check a 64-op bursty dict history through its certificate with a reused arena",
			// No search runs: the witness slice, plus the dict copy the
			// replay owns and grows in place — 6 measured, also under
			// -race, where searching the same history costs check/dict-cold.
			Budget: 6,
			Make:   makeCheckCertifiedDict,
		},
		{
			Name:  "check/certified-rank",
			Brief: "check a 64-op bursty register history through its rank certificate with a reused arena",
			// The shape every tob and centralized history records: no
			// search runs, and the witness slice is the one allocation —
			// 1 measured, also under -race.
			Budget: 1,
			Make:   makeCheckCertifiedRank,
		},
		{
			Name:  "core/dict-execute",
			Brief: "execute one 16-put round overwriting keys of a warm 256-entry dict replica copy",
			// The replica owns its copy and updates it in place: an
			// overwrite put neither clones the map nor grows it.
			Budget: 0,
			Make:   makeDictExecute,
		},
		{
			Name:  "core/replica-wave",
			Brief: "a write, a read and an rmw wave over a warm 3-replica Algorithm 1 cluster (all four timer classes)",
			// Entries travel as sim.Msg values, and timers carry their
			// class's FIFO, which reuses its backing array.
			Budget: 0,
			Make:   makeReplicaWave,
		},
		{
			Name:  "core/cluster-rerun",
			Brief: "build, run and recycle a 4-replica Algorithm 1 cluster (a write, a read and an rmw on every process) on a warm sim.Arena and core.Arena",
			// A whole cluster life per unit, as an engine worker runs each
			// Algorithm 1 scenario: the replicas with their timer FIFOs,
			// To_Execute heaps and awaited-OOP maps come back renewed, and
			// the event storage, pending flags and deferral queues come from
			// the sim.Arena. What is left is the Cluster, the Simulator, its
			// flattened delay matrix, and the history with its record slab —
			// 5 measured, 6 under -race. On fresh storage the same unit
			// costs 84.
			Budget: 6,
			Make:   makeClusterRerun,
		},
		{
			Name:  "baseline/centralized-round",
			Brief: "an rmw on each process of a warm 3-process Centralized cluster: one request/response round per client",
			// Requests and responses are sim.Msg values, and the
			// coordinator updates its copy in place.
			Budget: 0,
			Make:   makeCentralizedRound,
		},
		{
			Name:   "sim/event-wave",
			Brief:  "a 4-process invoke/broadcast/timer wave (20 events) through a warm event loop",
			Budget: 0,
			Make:   makeSimWave,
		},
		{
			Name:  "sim/arena-rerun",
			Brief: "build, run and recycle a 4-process invoke/broadcast/timer wave (20 events) on a warm sim.Arena",
			// A whole simulator life per unit, as an engine worker runs each
			// scenario: the Simulator, its zero clock offsets and flattened
			// delay matrix, and the history with its record slab — 5
			// measured, 6 under -race. The event slab, heap, pending flags
			// and deferral queues come from the arena and never grow; on
			// fresh storage the same unit costs 23.
			Budget: 6,
			Make:   makeArenaRerun,
		},
		{
			Name:  "engine/stream-rerun",
			Brief: "a second Stream of the same 8 small open-loop scenarios on a warm 8-worker Engine",
			// Counted per stream; the budget is 20 per scenario. The
			// workers, with their simulator, replica and check arenas,
			// sample buffers, schedule buffers and sources, are the ones
			// the first stream handed back, so what is left is each run's
			// own: its Cluster, Simulator, history and Result, plus the
			// stream's goroutines, channels and caches — 119 measured (127
			// under -race). When each run's name went through fmt and its
			// convergence rendered every copy, the same stream cost 291
			// (346 under -race).
			Budget: 8 * 20,
			Make:   makeStreamRerun,
		},
		{
			Name:  "engine/converge",
			Brief: "ConvergedState of a warm 4-copy Algorithm 1 instance and a warm 4-copy tob instance of each bundled data type, after its default workload",
			// Copies compare through spec.Equaler without rendering, and
			// only copy 0 is encoded, into a stack buffer: one allocation
			// per instance, the returned string — 20 measured, also under
			// -race. Encoding every copy with encoders that joined
			// fmt-rendered parts cost 411 (551 under -race).
			Budget: 20,
			Make:   makeConverge,
		},
		{
			Name:   "workload/online-observe",
			Brief:  "fold one latency sample into a warm OnlineStats sketch",
			Budget: 0, // fixed-size sketch: zero once every bucket exists
			Make:   makeOnlineObserve,
		},
		{
			Name:  "workload/default-mix-schedule",
			Brief: "expand each bundled data type's default mix at n = 4, 50 operations per process, into a reused buffer and source",
			// Every argument comes from a table built at package init or
			// from spec.BoxInt's cache: 0 measured, also under -race. When
			// the mixes rendered tree names and boxed each edge, dict KV
			// and account amount per call, the tree's expansion cost 429,
			// the dict's 169 and the account's 29.
			Budget: 0,
			Make:   makeDefaultMixSchedule,
		},
		{
			Name:  "keyspace/stream",
			Brief: "generate one 2 400-op Zipf(1.25) stream over 120 000 keys with a no-op callback",
			// Each of the 584 distinct keys is rendered once, and keys and
			// put values are cut from 4 KB text chunks. What is left is the
			// box of each of the 1 195 put values, five chunks, and the
			// intern table, seeded source and Zipf sampler — 1 222
			// measured, also under -race. Rendering every key and
			// concatenating every value cost 5 939.
			Budget: 1230,
			Make:   makeKeyspaceStream,
		},
		{
			Name:  "tob/enqueue-drain",
			Brief: "sequence, buffer out-of-order, and deliver one 8-message round of total-order broadcast",
			// Stamped messages are sim.Msg values, and the enqueue buffer
			// rewinds to its own backing array when drained.
			Budget: 0,
			Make:   makeTOBRound,
		},
		{
			Name:  "types/owned-containers",
			Brief: "a grow-and-shrink update pair on a warm 16-element spec.Owned queue, stack, pqueue and set, and a +5000/-5000 increment pair on an owned counter",
			// Each owner cloned its state once during warmup and now
			// updates it in place (spec.Mutator), the counter past
			// spec.BoxInt's cache too: 0 measured, also under -race. When
			// every update copied its state, and the set sorted and
			// rendered its elements, the same unit cost 73.
			Budget: 0,
			Make:   makeOwnedContainers,
		},
	}
}

// makeCheckSteady: the engine's steady state — one worker re-verifying
// histories with its own arena and the stream's shared per-datatype cache.
func makeCheckSteady() func() {
	dt := types.NewRegister(0)
	h := burstyHistory(dt, 3, 16)
	arena := check.NewArena()
	opts := check.Options{Arena: arena, Cache: check.NewCache()}
	return warm(func() { check.CheckOpts(dt, h, opts) })
}

// makeCheckDictCold: a first check of a dict history, where no transition
// is cached yet and each one resolves the next state's identity.
func makeCheckDictCold() func() {
	dt := types.NewDict()
	h := burstyHistory(dt, 3, 64)
	arena := check.NewArena()
	return warm(func() { check.CheckOpts(dt, h, check.Options{Arena: arena, Cache: check.NewCache()}) })
}

// makeCheckCertifiedDict: the dict history of makeCheckDictCold with every
// record keyed in the order its returns were generated — a certificate
// that holds, the shape every Algorithm 1 history records.
func makeCheckCertifiedDict() func() {
	return makeCheckCertified(types.NewDict(), func(op history.Record) history.Cert {
		return history.UpdateCert(model.Time(op.ID))
	})
}

// makeCheckCertifiedRank: a register history keyed in the same order as
// one apply order (history.ApplyOrder) keys a coordinator's or a
// sequencer's operations.
func makeCheckCertifiedRank() func() {
	dt := types.NewRegister(0)
	var order history.ApplyOrder
	return makeCheckCertified(dt, func(op history.Record) history.Cert { return order.Next(dt.Class(op.Kind)) })
}

// makeCheckCertified checks a 64-op bursty history of dt whose records
// key assigns, in the order their returns were generated.
func makeCheckCertified(dt spec.DataType, key func(history.Record) history.Cert) func() {
	h := burstyHistory(dt, 3, 64)
	for _, op := range h.Ops() {
		h.Certify(op.ID, key(op))
	}
	opts := check.Options{Arena: check.NewArena()}
	if !check.CheckOpts(dt, h, opts).Certified {
		panic("certified budget harness: the certificate does not hold")
	}
	return warm(func() { check.CheckOpts(dt, h, opts) })
}

// makeDictExecute: Algorithm 1's execution step on a replica's local dict
// copy, with the entries built (and their KV arguments boxed) up front.
func makeDictExecute() func() {
	q := core.NewToExecute(types.NewDict())
	round := make([]core.Entry, 16)
	var clock model.Time
	for i := 0; i < 256; i++ {
		clock++
		q.Add(core.Entry{TS: model.Timestamp{Clock: clock}, Kind: types.OpPut,
			Arg: types.KV{Key: strconv.Itoa(i), Value: i}})
	}
	q.ExecuteUpTo(model.Timestamp{Clock: clock}, true, 0, nopResponder{})
	for i := range round {
		round[i] = core.Entry{Kind: types.OpPut, Arg: types.KV{Key: strconv.Itoa(i * 16), Value: -i}}
	}
	return warm(func() {
		for _, e := range round {
			clock++
			e.TS = model.Timestamp{Clock: clock}
			q.Add(e)
		}
		q.ExecuteUpTo(model.Timestamp{Clock: clock}, true, 0, nopResponder{})
	})
}

// makeReplicaWave: Algorithm 1 on the simulator, one wave per operation
// class — write (MOP), read (AOP), rmw (OOP) — on every process, with the
// arguments boxed up front.
func makeReplicaWave() func() {
	p := waveParams(3)
	c, err := core.NewCluster(core.Config{Params: p}, types.NewRMWRegister(0), sim.Config{
		Delay: sim.FixedDelay(p.D), StrictDelays: true, DiscardTraces: true})
	if err != nil {
		panic(err)
	}
	kinds, args := []spec.OpKind{types.OpWrite, types.OpRead, types.OpRMW}, []spec.Value{1, nil, 2}
	at := model.Time(0)
	return warm(func() {
		for i, kind := range kinds {
			for proc := 0; proc < p.N; proc++ {
				c.Invoke(at, model.ProcessID(proc), kind, args[i])
			}
			at += 4 * p.D
		}
		if err := c.Run(at); err != nil {
			panic(err)
		}
	})
}

// makeClusterRerun: one engine worker's per-scenario Algorithm 1 life
// cycle — build on replicas and event storage borrowed from the worker's
// arenas, reserve, run a write, a read and an rmw on every process, and
// recycle — with the clock offsets and arguments built up front.
func makeClusterRerun() func() {
	p := waveParams(4)
	cfg := core.Config{Params: p}
	simCfg := sim.Config{ClockOffsets: core.MaxSkewOffsets(p), Delay: sim.FixedDelay(p.D),
		StrictDelays: true, DiscardTraces: true, Arena: sim.NewArena()}
	replicas, dt := core.NewArena(), types.NewRMWRegister(0)
	kinds, args := []spec.OpKind{types.OpWrite, types.OpRead, types.OpRMW}, []spec.Value{1, nil, 2}
	return warm(func() {
		c, err := core.NewClusterOn(replicas, cfg, dt, simCfg)
		if err != nil {
			panic(err)
		}
		c.Simulator().Reserve(len(kinds) * p.N)
		for i, kind := range kinds {
			for proc := 0; proc < p.N; proc++ {
				c.Invoke(model.Time(i)*4*p.D, model.ProcessID(proc), kind, args[i])
			}
		}
		if err := c.Run(model.Infinity); err != nil {
			panic(err)
		}
		c.Recycle()
	})
}

// makeCentralizedRound: the centralized scheme on the simulator, every
// process invoking one rmw per round with its argument boxed up front.
func makeCentralizedRound() func() {
	procs := make([]sim.Process, 3)
	for i := range procs {
		procs[i] = baseline.NewCentralized(0, types.NewRMWRegister(0))
	}
	return simRounds(procs, types.OpRMW, 1)
}

// simRounds returns a unit that invokes kind(arg) on every process of one
// warm simulator of procs and runs until each has responded.
func simRounds(procs []sim.Process, kind spec.OpKind, arg spec.Value) func() {
	p := waveParams(len(procs))
	s, err := sim.New(sim.Config{Params: p, Delay: sim.FixedDelay(p.D),
		StrictDelays: true, DiscardTraces: true}, procs)
	if err != nil {
		panic(err)
	}
	at := model.Time(0)
	return warm(func() {
		for proc := range procs {
			s.Invoke(at, model.ProcessID(proc), kind, arg)
		}
		at += 4 * p.D
		if err := s.Run(at); err != nil {
			panic(err)
		}
	})
}

// waveParams are the timing parameters of every simulated budget: n
// processes, d = 10ms, u = 4ms, ε = 2ms.
func waveParams(n int) model.Params {
	ms := model.Time(time.Millisecond)
	return model.Params{N: n, D: 10 * ms, U: 4 * ms, Epsilon: 2 * ms}
}

// warm runs unit five times, so a budget counts its steady state, and
// returns it.
func warm(unit func()) func() {
	for i := 0; i < 5; i++ {
		unit()
	}
	return unit
}

// nopResponder discards responses; the dict budget awaits none.
type nopResponder struct{}

func (nopResponder) Respond(history.OpID, spec.Value) {}

// burstyHistory builds a small concurrent history with idle gaps, so the
// budgets exercise the island decomposition path.
func burstyHistory(dt spec.DataType, seed int64, n int) *history.History {
	rng := rand.New(rand.NewSource(seed))
	kinds := dt.Kinds()
	h := history.New()
	state := dt.InitialState()
	now := model.Time(0)
	type open struct {
		id   history.OpID
		ret  spec.Value
		resp model.Time
	}
	var opens []open
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 {
			now += 50 * model.Time(time.Millisecond)
		} else {
			now += model.Time(rng.Intn(3)) * model.Time(time.Millisecond)
		}
		kind := kinds[rng.Intn(len(kinds))]
		arg := opArg(rng, kind)
		next, ret := dt.Apply(state, kind, arg)
		state = next
		id := h.Invoke(model.ProcessID(rng.Intn(3)), kind, arg, now)
		opens = append(opens, open{id: id, ret: ret,
			resp: now + model.Time(1+rng.Intn(6))*model.Time(time.Millisecond)})
	}
	for _, o := range opens {
		if err := h.Respond(o.id, o.ret, o.resp); err != nil {
			panic(err)
		}
	}
	return h
}

// opArg draws kind's argument: a KV over 32 keys for dict put, one of
// those keys for dict delete/get, and a small int for every other kind.
func opArg(rng *rand.Rand, kind spec.OpKind) spec.Value {
	switch kind {
	case types.OpPut:
		return types.KV{Key: strconv.Itoa(rng.Intn(32)), Value: rng.Intn(3)}
	case types.OpDelete, types.OpDictGet:
		return strconv.Itoa(rng.Intn(32))
	}
	return rng.Intn(3)
}

// waveProc answers each invocation with a broadcast, a timer, and a
// response on the timer — the sim package's allocation-test process shape.
// It holds its one operation in flight, so the timer carries no payload:
// boxing an OpID of 256 or more into one would allocate.
type waveProc struct{ id history.OpID }

func (w *waveProc) OnInvoke(env sim.Env, id history.OpID, _ spec.OpKind, _ spec.Value) {
	w.id = id
	env.Broadcast(sim.Msg{})
	env.SetTimerAfter(5*model.Time(time.Millisecond), nil)
}
func (*waveProc) OnMessage(sim.Env, model.ProcessID, sim.Msg) {}
func (w *waveProc) OnTimer(env sim.Env, _ any)                { env.Respond(w.id, nil) }

// waveProcs returns n waveProcs.
func waveProcs(n int) []sim.Process {
	procs := make([]sim.Process, n)
	for i := range procs {
		procs[i] = &waveProc{}
	}
	return procs
}

func makeSimWave() func() { return simRounds(waveProcs(4), "op", nil) }

// makeArenaRerun: one engine worker's per-scenario simulator life cycle —
// build on storage borrowed from the worker's arena, reserve, run, and
// recycle — with the processes built up front.
func makeArenaRerun() func() {
	p, procs := waveParams(4), waveProcs(4)
	cfg := sim.Config{Params: p, Delay: sim.FixedDelay(p.D),
		StrictDelays: true, DiscardTraces: true, Arena: sim.NewArena()}
	return warm(func() {
		s, err := sim.New(cfg, procs)
		if err != nil {
			panic(err)
		}
		s.Reserve(p.N)
		for proc := 0; proc < p.N; proc++ {
			s.Invoke(0, model.ProcessID(proc), "op", nil)
		}
		if err := s.Run(model.Infinity); err != nil {
			panic(err)
		}
		s.Recycle()
	})
}

// streamRerunScenarios are 8 seeds of a small open-loop Algorithm 1
// scenario, the shape of one Study load point.
func streamRerunScenarios() []engine.Scenario {
	p := model.Params{N: 4, D: 10 * model.Time(time.Millisecond), U: 4 * model.Time(time.Millisecond)}
	p.Epsilon = p.OptimalSkew()
	scs := make([]engine.Scenario, 8)
	for i := range scs {
		scs[i] = engine.Scenario{
			Backend:  engine.Algorithm1{},
			DataType: types.NewRMWRegister(0),
			Params:   p,
			Seed:     int64(i + 1),
			Delay:    engine.DelaySpec{Mode: engine.DelayWorst},
			Workload: workload.Spec{Mode: workload.Open, OpsPerProcess: 10, Spacing: 5 * p.D, Start: p.D},
		}
	}
	return scs
}

// makeStreamRerun: what a Study pays per load point once its Engine is
// warm — a Stream whose workers an earlier stream handed back.
func makeStreamRerun() func() {
	scs := streamRerunScenarios()
	eng := engine.New(8)
	return warm(func() {
		for _, res := range eng.Stream(context.Background(), scs) {
			if res.Err != "" {
				panic(res.Err)
			}
		}
	})
}

// makeConverge: what each scenario pays once its run is over to report
// the object's state, on both ConvergedState implementations (a
// core.Cluster's and the simulator instance every other backend builds).
func makeConverge() func() {
	p := waveParams(4)
	var insts []engine.Instance
	for _, b := range []engine.Backend{engine.Algorithm1{}, engine.TOB{}} {
		for _, dt := range bundledTypes() {
			inst, err := engine.Scenario{Backend: b, DataType: dt, Params: p, Seed: 1}.Build()
			if err != nil {
				panic(err)
			}
			sched, err := workload.Spec{}.WithDefaults(p, dt).Schedule(p, 1)
			if err != nil {
				panic(err)
			}
			for _, inv := range sched.Invocations {
				inst.Invoke(inv.At, inv.Proc, inv.Kind, inv.Arg)
			}
			if err := inst.Run(model.Infinity); err != nil {
				panic(err)
			}
			insts = append(insts, inst)
		}
	}
	return warm(func() {
		for _, inst := range insts {
			if _, err := inst.ConvergedState(); err != nil {
				panic(err)
			}
		}
	})
}

// bundledTypes returns one instance of every bundled data type.
func bundledTypes() []spec.DataType {
	return []spec.DataType{
		types.NewRegister(0), types.NewRMWRegister(0), types.NewQueue(), types.NewStack(), types.NewSet(),
		types.NewTree(), types.NewCounter(), types.NewDict(), types.NewPQueue(), types.NewAccount(),
	}
}

// makeDefaultMixSchedule: the schedule expansion an engine worker runs
// for each grid scenario, on the buffer and source it keeps.
func makeDefaultMixSchedule() func() {
	p := waveParams(4)
	var specs []workload.Spec
	for _, dt := range bundledTypes() {
		specs = append(specs, workload.Spec{OpsPerProcess: 50}.WithDefaults(p, dt))
	}
	var dst []workload.Invocation
	rng := rand.New(rand.NewSource(1))
	return warm(func() {
		for _, s := range specs {
			sched, err := s.AppendSchedule(dst[:0], rng, p, 1)
			if err != nil {
				panic(err)
			}
			dst = sched.Invocations
		}
	})
}

func makeOnlineObserve() func() {
	s := workload.NewOnlineStats()
	rng := rand.New(rand.NewSource(7))
	unit := func() { s.Observe(model.Time(rng.Int63n(30_000_000) + 1_000)) }
	for i := 0; i < 10_000; i++ {
		unit() // populate every sketch bucket the distribution reaches
	}
	return unit
}

// makeKeyspaceStream: the keyed stream a sharded run routes, the shape of
// the zipf-migrate benchmark workload's.
func makeKeyspaceStream() func() {
	w := keyspace.Workload{Space: keyspace.Space{N: 120_000}, Model: keyspace.Zipf{S: 1.25}, Ops: 2400}
	p := waveParams(4)
	nop := func(workload.KeyOp) error { return nil }
	return warm(func() {
		if err := w.Stream(p, 1, nop); err != nil {
			panic(err)
		}
	})
}

// drainCount is a Deliverer that only counts, so the TOB budget measures
// the broadcast layer alone.
type drainCount struct{ n int }

func (d *drainCount) Deliver(sim.Env, sim.Msg) { d.n++ }

// captureEnv is a sim.Env stub that only records sent messages, so the
// TOB budget can replay the sequencer's stamped messages into a receiving
// Broadcaster without the full simulator — isolating the enqueue/drain
// path the budget gates.
type captureEnv struct{ out []sim.Msg }

func (e *captureEnv) Self() model.ProcessID                     { return 0 }
func (e *captureEnv) N() int                                    { return 2 }
func (e *captureEnv) ClockTime() model.Time                     { return 0 }
func (e *captureEnv) Send(_ model.ProcessID, m sim.Msg)         { e.out = append(e.out, m) }
func (e *captureEnv) Broadcast(m sim.Msg)                       { e.out = append(e.out, m) }
func (e *captureEnv) SetTimerAfter(model.Time, any) sim.TimerID { return 0 }
func (e *captureEnv) CancelTimer(sim.TimerID)                   {}
func (e *captureEnv) Respond(history.OpID, spec.Value)          {}
func (e *captureEnv) Certify(history.OpID, history.Cert)        {}

func makeTOBRound() func() {
	// A sequencer stamps 8 messages into the capture buffer; the receiver
	// gets them in a fixed out-of-order permutation, exercising both of
	// enqueue's regimes each round — sorted-tail insertion (buffering) and
	// the in-order drain with its buffer rewind.
	nop := &drainCount{}
	sink := &drainCount{}
	seqB := &tob.Broadcaster{Self: 0, Sequencer: 0, Target: nop}
	recv := &tob.Broadcaster{Self: 1, Sequencer: 0, Target: sink}
	env := &captureEnv{}
	order := []int{1, 0, 3, 2, 5, 4, 7, 6}
	unit := warm(func() {
		env.out = env.out[:0]
		for range order {
			seqB.Broadcast(env, sim.Msg{})
		}
		for _, off := range order {
			recv.HandleMessage(env, env.out[off])
		}
	})
	if sink.n != 5*len(order) {
		panic("tob budget harness: deliveries lost during warmup")
	}
	return unit
}

// makeOwnedContainers: a host's copy of each container type taking
// updates — what a replica, a tob process, the coordinator and the
// certificate replay do per operation — with the arguments boxed up front.
func makeOwnedContainers() func() {
	type update struct {
		o    *spec.Owned
		kind spec.OpKind
		arg  spec.Value
	}
	var wave []update
	big := spec.BoxInt(5000)
	for _, c := range []struct {
		dt           spec.DataType
		grow, shrink spec.OpKind
	}{
		{types.NewQueue(), types.OpEnqueue, types.OpDequeue},
		{types.NewStack(), types.OpPush, types.OpPop},
		{types.NewPQueue(), types.OpPQInsert, types.OpPQDeleteMin},
		{types.NewSet(), types.OpInsert, types.OpRemove},
	} {
		o := spec.NewOwned(c.dt)
		for i := 0; i < 16; i++ {
			o.Apply(c.grow, spec.BoxInt(i))
		}
		wave = append(wave, update{&o, c.grow, big}, update{&o, c.shrink, big})
	}
	ctr := spec.NewOwned(types.NewCounter())
	wave = append(wave, update{&ctr, types.OpIncrement, big}, update{&ctr, types.OpIncrement, spec.Value(-5000)})
	return warm(func() {
		for _, u := range wave {
			u.o.Apply(u.kind, u.arg)
		}
	})
}
