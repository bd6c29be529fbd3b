// Package timebounds is a faithful, executable reproduction of
// "Time Bounds for Shared Objects in Partially Synchronous Systems"
// (Jiaqi Wang, Texas A&M, 2011; PODC'11 brief announcement).
//
// It provides:
//
//   - Algorithm 1 (Chapter V): a fast linearizable replication algorithm
//     for arbitrary data types in which pure mutators respond in ε+X, pure
//     accessors in d+ε-X, and all other operations in at most d+ε — all
//     well below the folklore 2d — run over a deterministic discrete-event
//     simulation of the partially synchronous model (delays in [d-u, d],
//     clock skew ≤ ε).
//   - The operation algebra of Chapter II (commutativity / permutation /
//     mutator / accessor / overwriter classification) with brute-force
//     classifiers.
//   - A linearizability checker, the time-shift/chop proof machinery of
//     Chapters III–IV, and executable versions of the lower-bound
//     constructions of Theorems C.1, D.1 and E.1.
//   - The per-object bound summaries of Chapter VI (Tables I–IV).
//
// Quick start — declare a Scenario and run it through the Engine:
//
//	res, err := timebounds.RunScenario(timebounds.Scenario{
//		Backend:  timebounds.Algorithm1(),
//		DataType: timebounds.NewRegister(0),
//		Params:   timebounds.Params{N: 4, D: 10 * time.Millisecond, U: 4 * time.Millisecond},
//		Verify:   true,
//	})
//	// res.PerKind, res.Bounds, res.Linearizable, …
//
// Scenario grids (sweeping backends × objects × parameters × workloads ×
// seeds) expand via Grid and run in parallel via Engine; see scenario.go.
// For a hand-driven run, Scenario.Build returns the isolated Instance.
//
// # Facade map
//
// The public surface is grouped into sections (scenario.go carries §1–§6):
//
//   - §1 Core run surface — Scenario, Engine, Grid, Workload, the four
//     backends (Algorithm1, AllOOP, Centralized, TOB), and Result/Report.
//   - §2 Adversaries — DelaySpec delay shaping and the paper's lower-bound
//     constructions as AdversarySpec run families with dichotomy witnesses.
//   - §3 Sharding — ShardedScenario/ShardedWorkload: keyed workloads over
//     per-shard sub-clusters with a composed linearizability verdict.
//   - §4 Streaming & study — Engine.Stream, constant-memory Aggregate, and
//     load-sweep saturation studies (Study, RunStudy).
//   - §5 Faults — FaultSpec injection axes and the within-bound /
//     assumption-broken dichotomy verdict (FaultReport).
//   - §6 Live runtime — Scenario.Runtime: the same declaration executed as
//     a wall-clock goroutine cluster over a real Transport with online
//     (u, d) estimation, adaptive retuning, and post-hoc checking
//     (Runtime, TransportSpec, LiveReport).
//
// This file (timebounds.go) holds the fundamental aliases (DataType, Time,
// History, …), the bundled data types of Chapter VI, the linearizability
// checker and the bound tables.
package timebounds

import (
	"timebounds/internal/bounds"
	"timebounds/internal/check"
	"timebounds/internal/history"
	"timebounds/internal/model"
	"timebounds/internal/sim"
	"timebounds/internal/spec"
	"timebounds/internal/types"
)

// Re-exported fundamental types. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// DataType is a deterministic sequential specification (Chapter II).
	DataType = spec.DataType
	// OpKind names an operation type, e.g. OpRead, OpEnqueue.
	OpKind = spec.OpKind
	// Value is an operation argument or return value.
	Value = spec.Value
	// ProcessID identifies a process (0 … N-1).
	ProcessID = model.ProcessID
	// Time is a point or duration in model time (integer nanoseconds).
	Time = model.Time
	// History is an invocation/response history.
	History = history.History
	// CheckResult is a linearizability verdict with a witness order.
	CheckResult = check.Result
	// Table is one of the paper's Tables I–IV.
	Table = bounds.Table
	// DelayPolicy chooses per-message delays for a simulation.
	DelayPolicy = sim.DelayPolicy
)

// Operation kinds of the bundled data types (Chapter VI).
const (
	OpWrite      = types.OpWrite
	OpRead       = types.OpRead
	OpRMW        = types.OpRMW
	OpEnqueue    = types.OpEnqueue
	OpDequeue    = types.OpDequeue
	OpPeek       = types.OpPeek
	OpPush       = types.OpPush
	OpPop        = types.OpPop
	OpTop        = types.OpTop
	OpIncrement  = types.OpIncrement
	OpGet        = types.OpGet
	OpInsert     = types.OpInsert
	OpRemove     = types.OpRemove
	OpContains   = types.OpContains
	OpTreeInsert = types.OpTreeInsert
	OpTreeDelete = types.OpTreeDelete
	OpTreeSearch = types.OpTreeSearch
	OpTreeDepth  = types.OpTreeDepth
	OpPut        = types.OpPut
	OpDelete     = types.OpDelete
	OpDictGet    = types.OpDictGet
	OpSize       = types.OpSize
	OpPQInsert   = types.OpPQInsert
	OpPQDelMin   = types.OpPQDeleteMin
	OpPQMin      = types.OpPQMin
	OpDeposit    = types.OpDeposit
	OpWithdraw   = types.OpWithdraw
	OpBalance    = types.OpBalance
)

// Edge is the argument of OpTreeInsert.
type Edge = types.Edge

// KV is the argument of OpPut.
type KV = types.KV

// Data type constructors (Chapter VI objects).

// NewRegister returns a read/write register with the given initial value.
func NewRegister(initial Value) DataType { return types.NewRegister(initial) }

// NewRMWRegister returns a read/write/read-modify-write register.
func NewRMWRegister(initial Value) DataType { return types.NewRMWRegister(initial) }

// NewQueue returns an empty FIFO queue (enqueue/dequeue/peek).
func NewQueue() DataType { return types.NewQueue() }

// NewStack returns an empty LIFO stack (push/pop/top).
func NewStack() DataType { return types.NewStack() }

// NewSet returns an empty set (insert/remove/contains).
func NewSet() DataType { return types.NewSet() }

// NewTree returns a rooted tree (insert/delete/search/depth).
func NewTree() DataType { return types.NewTree() }

// NewCounter returns a counter (increment/get).
func NewCounter() DataType { return types.NewCounter() }

// NewDict returns a dictionary (put/delete/dict-get/size).
func NewDict() DataType { return types.NewDict() }

// NewPQueue returns a min-priority queue (pq-insert/pq-delete-min/pq-min).
func NewPQueue() DataType { return types.NewPQueue() }

// NewAccount returns a bank account (deposit/withdraw/balance).
func NewAccount() DataType { return types.NewAccount() }

// CheckLinearizable decides whether h is a linearizable history of dt.
func CheckLinearizable(dt DataType, h *History) CheckResult { return check.Check(dt, h) }

// Tables returns the paper's Tables I–IV.
func Tables() []Table { return bounds.AllTables() }
