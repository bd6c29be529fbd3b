package timebounds

import (
	"context"
	"fmt"

	"timebounds/internal/adversary"
	"timebounds/internal/check"
	"timebounds/internal/engine"
	"timebounds/internal/fault"
	"timebounds/internal/keyspace"
	"timebounds/internal/live"
	"timebounds/internal/model"
	"timebounds/internal/spec"
	"timebounds/internal/workload"
)

// This file is the scenario facade, grouped into the sections the package
// doc maps (see timebounds.go, "Facade map"):
//
//   §1 Core run surface   — Scenario, Engine, Grid, Workload, backends
//   §2 Adversaries        — delay modes, lower-bound adversary specs
//   §3 Sharding           — keyed workloads over per-shard sub-clusters
//   §4 Streaming & study  — result streams, online aggregation, studies
//   §5 Faults             — fault-plan axes and dichotomy verdicts
//   §6 Live runtime       — wall-clock clusters, estimation, retuning
//
// Every name here is a thin alias or constructor over the internal
// packages; the full export list is pinned by TestPublicAPIGolden.

// ---------------------------------------------------------------------------
// §1 Core run surface
//
// A Scenario pairs a Backend (which algorithm implements the object) with
// a Workload (what the processes do) under chosen model parameters, delay
// adversary, and clock offsets; an Engine runs scenario grids in parallel
// — one isolated simulator per run — and aggregates structured Results:
// per-kind latency statistics, per-class measured-vs-theoretical bound
// margins, linearizability verdicts, and replica convergence. Same
// scenarios ⇒ bit-identical Report.

type (
	// Backend is an implementation strategy: Algorithm1, AllOOP,
	// Centralized, or TOB.
	Backend = engine.Backend
	// Instance is one runnable replicated object built by a Backend.
	Instance = engine.Instance
	// Scenario is one experiment point: Backend × Workload × parameters ×
	// delay policy × clock offsets × runtime.
	Scenario = engine.Scenario
	// Engine executes scenario grids across a worker pool.
	Engine = engine.Engine
	// Report aggregates scenario Results in input order.
	Report = engine.Report
	// Result is the structured outcome of one scenario run.
	Result = engine.Result
	// BoundCheck compares a class's measured worst case with its bound.
	BoundCheck = engine.BoundCheck
	// Grid declares a cross product of scenario coordinates.
	Grid = engine.Grid
	// Workload is a declarative operation-stream spec: closed/open loop,
	// per-process mixes, ramps, or explicit (adversarial) schedules.
	Workload = workload.Spec
	// WorkloadMode selects closed- or open-loop pacing.
	WorkloadMode = workload.Mode
	// OpMix selects operation kinds with weights.
	OpMix = workload.OpMix
	// WeightedOp pairs an operation kind, weight, and argument generator.
	WeightedOp = workload.WeightedOp
	// Invocation is one explicitly scheduled operation.
	Invocation = workload.Invocation
	// Stats summarizes one operation kind's latency distribution.
	Stats = workload.Stats
	// Params are the raw model timing parameters (n, d, u, ε).
	Params = model.Params
	// OpClass is the Chapter V operation class (MOP/AOP/OOP).
	OpClass = spec.OpClass
)

// Workload pacing modes.
const (
	// ClosedLoop paces each process with jittered think time.
	ClosedLoop = workload.Closed
	// OpenLoop issues invocations at exact fixed-rate instants.
	OpenLoop = workload.Open
)

// Operation classes (Chapter V).
const (
	// ClassOther is OOP: totally ordered operations (≤ d+ε).
	ClassOther = spec.ClassOther
	// ClassPureMutator is MOP: mutators returning nothing (≤ ε+X).
	ClassPureMutator = spec.ClassPureMutator
	// ClassPureAccessor is AOP: read-only operations (≤ d+ε-X).
	ClassPureAccessor = spec.ClassPureAccessor
)

// Algorithm1 returns the paper's Chapter V backend: pure mutators respond
// in ε+X, pure accessors in d+ε-X, everything else in d+ε.
func Algorithm1() Backend { return engine.Algorithm1{} }

// AllOOP returns the folklore timestamp-total-order backend: every
// operation takes the ordered path, responding in ≤ d+ε.
func AllOOP() Backend { return engine.AllOOP{} }

// Centralized returns the folklore coordinator backend: process 0 owns the
// object; remote operations are request/response round trips (≤ 2d).
func Centralized() Backend { return engine.Centralized{} }

// TOB returns the sequencer-based total-order-broadcast backend (≤ 2d,
// matching Chapter I.A.3's observation that TOB is no faster than the
// centralized scheme).
func TOB() Backend { return engine.TOB{} }

// Backends returns every bundled backend, Algorithm 1 first.
func Backends() []Backend { return engine.Backends() }

// BackendByName resolves a backend by name (algorithm1|all-oop|centralized|tob).
func BackendByName(name string) (Backend, error) { return engine.BackendByName(name) }

// DataTypeByName constructs a bundled data type by its flag name, for
// tools: register|queue|stack|tree|set|counter|dict|pqueue|account
// ("register" is the read/write/read-modify-write register).
func DataTypeByName(name string) (DataType, error) {
	switch name {
	case "register":
		return NewRMWRegister(0), nil
	case "queue":
		return NewQueue(), nil
	case "stack":
		return NewStack(), nil
	case "tree":
		return NewTree(), nil
	case "set":
		return NewSet(), nil
	case "counter":
		return NewCounter(), nil
	case "dict":
		return NewDict(), nil
	case "pqueue":
		return NewPQueue(), nil
	case "account":
		return NewAccount(), nil
	default:
		return nil, fmt.Errorf("timebounds: unknown data type %q (want register|queue|stack|tree|set|counter|dict|pqueue|account)", name)
	}
}

// NewEngine returns an engine with the given worker cap (≤0 = GOMAXPROCS).
// Beyond Run, engines stream: Engine.Stream returns an iterator yielding
// Results in completion order (Engine.StreamChan is the channel form),
// honoring context cancellation without leaking workers, and
// Engine.RunContext collects a (possibly partial) Report under a context.
func NewEngine(workers int) *Engine { return engine.New(workers) }

// RunScenarios executes the scenarios on a default engine (all cores) and
// returns their results in input order.
func RunScenarios(scenarios []Scenario) Report { return engine.Run(scenarios) }

// RunScenario executes one scenario and surfaces its failure, if any, as
// an error.
func RunScenario(sc Scenario) (Result, error) { return engine.New(0).RunOne(sc) }

// DefaultMix returns the representative operation mix used for dt by the
// measured tables and default workloads.
func DefaultMix(dt DataType) OpMix { return workload.DefaultMix(dt) }

// RenderKinds renders one result's per-kind latency table, kinds sorted.
func RenderKinds(res Result) string { return engine.RenderKinds(res) }

// RaceWorkload returns a maximal-contention workload: every process
// invokes the given kinds back-to-back at identical instants, the schedule
// shape of the paper's lower-bound constructions.
func RaceWorkload(p Params, start, gap Time, rounds int, kinds ...OpKind) Workload {
	return workload.Race(p, start, gap, rounds, kinds...)
}

// ---------------------------------------------------------------------------
// §2 Adversaries
//
// Delay adversaries shape message delays within the admissible [d-u, d]
// envelope; AdversarySpecs are the paper's lower-bound constructions as
// first-class run families, recording BoundWitnesses judged by the
// theorems' dichotomy.

type (
	// DelaySpec declares the message-delay adversary of a scenario.
	DelaySpec = engine.DelaySpec
	// DelayMode names a bundled delay adversary shape.
	DelayMode = engine.DelayMode
	// AdversarySpec is a first-class lower-bound adversary: a named run
	// family (delay matrices, clock shifts, premature tunings, explicit
	// schedules) that expands into engine scenarios and records
	// BoundWitnesses. Grid.Adversaries sweeps them like DelaySpecs.
	AdversarySpec = engine.AdversarySpec
	// AdversaryRun is one member of an adversary's run family.
	AdversaryRun = engine.AdversaryRun
	// WitnessSpec asks a scenario to record a lower-bound witness.
	WitnessSpec = engine.WitnessSpec
	// BoundWitness records the operation whose latency witnesses a
	// theoretical lower bound in one run, and whether the run violated
	// linearizability.
	BoundWitness = engine.BoundWitness
	// FamilyWitness aggregates one adversary run family's dichotomy
	// verdict: a violation somewhere, or latency at least the bound.
	FamilyWitness = engine.FamilyWitness
	// TunableBackend is a backend whose wait durations can be overridden
	// (Algorithm 1), the hook for premature implementations.
	TunableBackend = engine.TunableBackend
	// ShiftFraction scales an adversary's clock-shift magnitude relative
	// to the proof's full shift.
	ShiftFraction = adversary.ShiftFraction
)

// Delay adversaries.
const (
	// DelayRandom draws delays uniformly from [d-u, d] (seeded).
	DelayRandom = engine.DelayRandom
	// DelayWorst fixes every delay at the slowest admissible d.
	DelayWorst = engine.DelayWorst
	// DelayBest fixes every delay at the fastest admissible d-u.
	DelayBest = engine.DelayBest
	// DelayExtremal alternates deterministically between d-u and d.
	DelayExtremal = engine.DelayExtremal
)

// DelayModeByName resolves a delay mode by name (random|worst|best|extremal).
func DelayModeByName(name string) (DelayMode, error) { return engine.DelayModeByName(name) }

// AdversaryNames lists the bundled lower-bound constructions:
// fig1|c1|c1-queue|d1|e1|e1-dict.
func AdversaryNames() []string { return adversary.SpecNames() }

// AdversaryByName resolves a bundled lower-bound construction by name.
// correct selects the proven-correct tuning (whose witness operation must
// pay at least the bound) instead of the premature one (which the run
// family must catch with a linearizability violation).
func AdversaryByName(name string, correct bool) (AdversarySpec, error) {
	return adversary.SpecByName(name, correct, ShiftFraction{})
}

// AdversaryByNameShifted is AdversaryByName with the construction's
// clock-shift magnitude scaled to the given fraction of the proof's full
// shift; below the threshold the premature witness disappears.
func AdversaryByNameShifted(name string, correct bool, shiftFrac float64) (AdversarySpec, error) {
	return adversary.SpecByName(name, correct, adversary.Frac(shiftFrac))
}

// ---------------------------------------------------------------------------
// §3 Sharding
//
// A keyed workload partitioned into engine-managed per-shard sub-clusters;
// linearizability is local (Herlihy & Wing), so the store's verdict is the
// composition of the shard verdicts.

type (
	// ShardedScenario runs one keyed workload as engine-managed per-shard
	// sub-clusters and folds the shard Results into a ShardedReport with a
	// composed linearizability verdict (linearizability is local, so the
	// store is linearizable iff every shard is).
	ShardedScenario = engine.ShardedScenario
	// ShardedReport is the folded outcome of a sharded scenario: per-shard
	// Results, the composed verdict, aggregate latency-vs-bound margins,
	// and shard-skew statistics.
	ShardedReport = engine.ShardedReport
	// ShardStats summarizes how evenly a keyed workload spread across the
	// shards.
	ShardStats = engine.ShardStats
	// ShardedWorkload is a keyed workload spec: a key space, a per-key
	// operation stream (or explicit keyed schedule), and a hash or
	// explicit partitioning into shards.
	ShardedWorkload = workload.Sharded
	// KeyOp is one keyed operation (put/get/delete on a key) of a sharded
	// workload.
	KeyOp = workload.KeyOp
	// Composition is the locality verdict over independently checked
	// components (Herlihy & Wing's composition theorem as a value).
	Composition = check.Composition
	// Space is a named key universe: N keys with zero-padded names, so
	// lexicographic order equals numeric order and range partitions are
	// contiguous index intervals.
	Space = keyspace.Space
	// PopularityModel assigns sampling weight to key indices (Zipf,
	// HotSet, Uniform); KeyedWorkload streams a keyed schedule from one.
	PopularityModel = keyspace.Model
	// Zipf is the power-law popularity model (exponent S > 1).
	Zipf = keyspace.Zipf
	// HotSet concentrates Weight of the traffic on the first Hot keys.
	HotSet = keyspace.HotSet
	// UniformKeys spreads traffic evenly across the space.
	UniformKeys = keyspace.Uniform
	// Tenant is one named slice of a multi-tenant keyed workload.
	Tenant = keyspace.Tenant
	// MixWeights sets the put/get/delete ratio of a keyed workload.
	MixWeights = keyspace.MixWeights
	// KeyedWorkload is a popularity-driven keyed workload generator; its
	// Sharded method emits a streaming ShardedWorkload in constant memory.
	KeyedWorkload = keyspace.Workload
	// KeyLoad pairs a key with its observed operation count (the
	// ShardedReport.HotKeys element, and SplitHot's input).
	KeyLoad = keyspace.KeyLoad
	// KeyRange is a half-open lexicographic key interval [Lo, Hi).
	KeyRange = keyspace.KeyRange
	// PartitionMap is one versioned range-partition assignment of the key
	// space onto shards.
	PartitionMap = keyspace.PartitionMap
	// Move reassigns one key range to a destination shard.
	Move = keyspace.Move
	// Migration is a batch of Moves cutting over at one instant.
	Migration = keyspace.Migration
	// MigrationPlan is a base PartitionMap plus scheduled Migrations —
	// ShardedScenario.Plan's type; the engine splits each migrated key's
	// history at the cutovers and verifies the pieces via Compose.
	MigrationPlan = keyspace.Plan
	// Handoff records one key's drain-then-cutover transfer between
	// shards, including the value carried across.
	Handoff = engine.Handoff
	// EpochStats summarizes one partition epoch of a migrating run.
	EpochStats = engine.EpochStats
)

// RunSharded expands a sharded scenario into per-shard sub-clusters, runs
// them across a default engine's worker pool, and folds the results into
// one ShardedReport. Same scenario ⇒ bit-identical report at any worker
// count.
func RunSharded(ss ShardedScenario) (ShardedReport, error) { return engine.RunSharded(ss) }

// PutKey returns a keyed write of key=value by proc at the given time,
// for ShardedWorkload explicit schedules.
func PutKey(at Time, proc ProcessID, key string, value Value) KeyOp {
	return workload.Put(at, proc, key, value)
}

// GetKey returns a keyed read of key by proc at the given time.
func GetKey(at Time, proc ProcessID, key string) KeyOp { return workload.Get(at, proc, key) }

// DeleteKey returns a keyed delete of key by proc at the given time.
func DeleteKey(at Time, proc ProcessID, key string) KeyOp { return workload.Del(at, proc, key) }

// RangePartition splits the key space into shards contiguous
// lexicographic ranges of near-equal size (version 0).
func RangePartition(space Space, shards int) PartitionMap {
	return keyspace.RangePartition(space, shards)
}

// MoveKey returns the Move reassigning exactly one key to shard to.
func MoveKey(key string, to int) Move { return keyspace.MoveKey(key, to) }

// SplitHot plans a rebalancing migration from observed load: it moves the
// hottest keys of the hottest shard onto the coldest shard until the
// excess over the mean is halved. It returns nil when the imbalance is
// within threshold (hottest ≤ threshold × mean) or nothing can move.
// Feed it ShardedReport.Stats.PerShardOps and ShardedReport.HotKeys.
func SplitHot(m PartitionMap, shardOps []int, hot []KeyLoad, at Time, threshold float64) *Migration {
	return keyspace.SplitHot(m, shardOps, hot, at, threshold)
}

// ---------------------------------------------------------------------------
// §4 Streaming & study
//
// Large grids stream Results through constant-memory aggregation instead
// of retaining every history; load-sweep studies drive one scenario
// template across an offered-rate axis and bisect the saturation knee.

type (
	// IndexedResult pairs a streamed Result with its scenario's input
	// index (Engine.StreamChan's element type).
	IndexedResult = engine.IndexedResult
	// Aggregate folds streamed Results into constant-memory summaries:
	// online per-kind/per-class statistics, verdict counters, and
	// utilization accounting — the streaming replacement for retaining
	// every history of a large grid.
	Aggregate = engine.Aggregate
	// OnlineStats is a constant-memory streaming latency summary:
	// exact count/min/max/mean, Welford variance, and a fixed-size
	// quantile sketch (p99 within ~0.8% relative error).
	OnlineStats = workload.OnlineStats
	// Study declares a load-sweep saturation study: one scenario template
	// driven open-loop across an offered-rate axis with online
	// aggregation and a saturation-knee bisection.
	Study = engine.Study
	// StudyReport is a study's outcome: measured points sorted by load
	// and the located knee, if any.
	StudyReport = engine.StudyReport
	// StudyPoint is one measured offered-load point.
	StudyPoint = engine.StudyPoint
	// ClassLoad is one operation class's sojourn summary at one load.
	ClassLoad = engine.ClassLoad
	// LoadRamp generates a geometric offered-load axis.
	LoadRamp = engine.LoadRamp
	// Knee is a located saturation knee (bracket, class, p99, bound).
	Knee = engine.Knee
)

// NewAggregate returns an empty streaming aggregate, ready to fold
// Results from Engine.Stream without retaining them.
func NewAggregate() *Aggregate { return engine.NewAggregate() }

// RunStudy executes a load-sweep saturation study on a default engine:
// every axis point streams through the worker pool and folds online, then
// a geometric bisection narrows the saturation knee (the lowest offered
// load at which some class's p99 sojourn time reaches KneeFactor × its
// service bound). Same study ⇒ identical report at any worker count.
func RunStudy(ctx context.Context, s Study) (StudyReport, error) {
	return s.Run(ctx, engine.New(0))
}

// ---------------------------------------------------------------------------
// §5 Faults
//
// Fault-plan axes inject crashes, churn, loss, duplication, partitions,
// and clock drift; every faulted run lands on exactly one horn of the
// dichotomy verdict — within the crash-adjusted bound, or a breach naming
// the broken model assumption.

type (
	// FaultSpec is a scenario's fault-injection axis: a named builder of
	// crash/churn/loss/duplication/partition/drift plans. The zero value
	// injects nothing.
	FaultSpec = engine.FaultSpec
	// FaultReport is the dichotomy verdict of one faulted run: within the
	// crash-adjusted bound, or a breach list naming the broken model
	// assumptions and by how much.
	FaultReport = engine.FaultReport
	// FaultPlan is a concrete fault schedule (crashes, retirements, loss
	// and duplication windows, partitions, clock drifts).
	FaultPlan = fault.Plan
	// Breach pinpoints one broken model assumption or observed symptom.
	Breach = fault.Breach
	// FaultStats accounts for the faults that materialized in one run.
	FaultStats = fault.Stats
	// NamedFault pairs a scenario name with its FaultReport.
	NamedFault = engine.NamedFault
)

// The two horns of a faulted run's dichotomy verdict.
const (
	// VerdictWithinBound: the run's history linearizes, its replicas
	// converge, and every operation paid at most its crash-adjusted bound.
	VerdictWithinBound = engine.VerdictWithinBound
	// VerdictAssumptionBroken: the FaultReport's breaches pinpoint which
	// model assumption broke, and by how much.
	VerdictAssumptionBroken = engine.VerdictAssumptionBroken
)

// FaultSpecs lists the bundled fault-plan families, one per model
// assumption the injector can break:
// crash-recover|crash|churn|loss|dup|partition|drift-mild|drift.
func FaultSpecs() []FaultSpec { return engine.FaultSpecs() }

// FaultSpecNames lists the bundled fault-plan family names, in order.
func FaultSpecNames() []string { return engine.FaultSpecNames() }

// FaultSpecByName resolves a bundled fault-plan family by name.
func FaultSpecByName(name string) (FaultSpec, error) { return engine.FaultSpecByName(name) }

// FaultFamilies lists the engineered fault adversaries — run families with
// explicit schedules that strike each model assumption at engineered
// moments, judged by the fault dichotomy (every member within-bound or
// assumption-broken, never unknown).
func FaultFamilies() []AdversarySpec { return adversary.FaultFamilies() }

// FaultFamilyNames lists the engineered fault adversary names, in order.
func FaultFamilyNames() []string { return adversary.FaultFamilyNames() }

// FaultFamilyByName resolves an engineered fault adversary by name.
func FaultFamilyByName(name string) (AdversarySpec, error) {
	return adversary.FaultFamilyByName(name)
}

// ---------------------------------------------------------------------------
// §6 Live runtime
//
// Scenario.Runtime selects where a scenario executes. The zero value is
// the deterministic simulator; a live Runtime runs the same Backend ×
// Workload declaration as a wall-clock goroutine cluster over a real
// Transport (in-process channels or loopback TCP), discovers (u, d) with
// a windowed online estimator, retunes Algorithm 1's waits adaptively,
// and verifies the recorded history with the same Wing–Gong checker post
// hoc. Result.Live reports the estimated envelope and the per-class
// measured-latency-vs-estimated-bound margins; Runtime.Undertune scales
// the waits below the estimated envelope and must reproduce the
// premature-tuning dichotomy.

type (
	// Runtime is the scenario axis selecting simulated vs live execution;
	// the zero value is the simulator.
	Runtime = engine.Runtime
	// RuntimeMode selects where a scenario executes.
	RuntimeMode = engine.RuntimeMode
	// TransportSpec selects a live scenario's transport as a value.
	TransportSpec = engine.TransportSpec
	// TransportKind names a bundled live transport.
	TransportKind = engine.TransportKind
	// Transport connects the replicas of one live cluster; implement it
	// (with Endpoint) to plug a custom transport into TransportSpec.
	Transport = live.Transport
	// Endpoint is one process's attachment to a live Transport.
	Endpoint = live.Endpoint
	// LiveMessage is the wire unit live replicas exchange.
	LiveMessage = live.Message
	// EstimatorConfig tunes the online (u, d) estimator: window size,
	// safety margin, slack, and the prior used before enough samples.
	EstimatorConfig = engine.EstimatorConfig
	// Estimate is one padded (d̂, û, ε̂) envelope snapshot of the
	// estimator.
	Estimate = engine.Estimate
	// LiveReport records what a live run measured: the estimator
	// envelope, retuning activity, and per-class
	// measured-vs-estimated-bound margins.
	LiveReport = engine.LiveReport
	// LiveClass is one operation class's measured latency distribution
	// against the bound computed from the estimated (u, d, ε).
	LiveClass = engine.LiveClass
)

// Runtime modes and bundled live transports.
const (
	// RuntimeSim runs scenarios in the deterministic simulator (default).
	RuntimeSim = engine.RuntimeSim
	// RuntimeLive runs scenarios as wall-clock goroutine clusters.
	RuntimeLive = engine.RuntimeLive
	// TransportChan is the in-process channel transport (the scenario's
	// delay adversary becomes synthetic message delays).
	TransportChan = engine.TransportChan
	// TransportTCP is loopback TCP with gob framing.
	TransportTCP = engine.TransportTCP
)

// LiveRuntime returns a live Runtime over the in-process chan transport.
func LiveRuntime() Runtime { return engine.LiveRuntime() }

// LiveTCPRuntime returns a live Runtime over loopback TCP.
func LiveTCPRuntime() Runtime { return engine.LiveTCPRuntime() }
